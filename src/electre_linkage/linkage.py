"""Comparison space construction, labeling and the classified-pairs file.

Builds the full cross product A x B as one columnar PairBlock: per field the
distinct similarities and an int32 table indexing them over the distinct values
of each side, and ground-truth categories in an int8 column. A side of a block
(evaluation.split) is the block with an int8 label a pair; no pair form holds positions.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .core import CHUNK_ROWS, _distinct_cells, cell_index, classify_batch, kernel_rows, pair_values
from .fellegi_sunter import agreement_patterns, fit_patterns, fs_decide
from .ingest import LinkageSchema, RecordTable
from .metrics import _factorize

__all__ = ["PairBlock", "build_pairs", "label_pairs", "write_classified"]

LABEL_POLICIES = ("two_class", "banded")
JOIN_PAIRS = 512


@dataclass(frozen=True, eq=False)
class PairBlock:
    """Record pairs: all of the row-major cross product A x B, pair p pairing
    ids_a[p // len(ids_b)] with ids_b[p % len(ids_b)]. fields holds (code_a, code_b, values,
    cell) per compared field, as core.distinct_rows numbers them: each side's value codes,
    the distinct similarities of the field (by bit pattern) and the int32 table of each
    (code_a, code_b) cell's index into them. truth holds the ground-truth category index
    (0 while unlabeled)."""

    ids_a: tuple
    ids_b: tuple
    fields: tuple
    truth: np.ndarray

    def __len__(self) -> int:
        return len(self.truth)

    @property
    def X(self) -> np.ndarray:
        """The per-field similarities, one row per pair, gathered from the cell tables."""
        return pair_values(self.fields, np.arange(len(self)))

    def pair(self, row: int) -> tuple:
        i, k = divmod(range(len(self))[row], len(self.ids_b))
        return self.ids_a[i], self.ids_b[k]


def build_pairs(a: RecordTable, b: RecordTable, schema: LinkageSchema) -> PairBlock:
    """Every cross pair, row-major by table order, unlabeled.

    Each field's comparator computes one table over the distinct values of
    A and B, kept as its distinct similarities and an int32 cell table.
    """
    fields = []
    for fname, comparator in schema.compared_fields:
        vals_a, code_a = _factorize([rec[fname] for _, rec in a.records])
        vals_b, code_b = _factorize([rec[fname] for _, rec in b.records])
        fields.append((code_a, code_b, *_distinct_cells(comparator.compare(vals_a, vals_b))))
    n = len(a.records) * len(b.records)
    return PairBlock(tuple(a.ids()), tuple(b.ids()), tuple(fields), np.zeros(n, dtype=np.int8))


def label_pairs(block: PairBlock, links, policy: str = "two_class", fs_model=None) -> PairBlock:
    """The block with ground-truth categories attached.

    two_class: linked pairs are C3, everything else C1. banded: nonlink
    pairs whose Fellegi-Sunter log ratio falls inside [Lower, Upper] get C2;
    the baseline is fs_model, or else fitted on the block's two-class labels.
    The ratio is computed once per agreement pattern of the pairs.
    """
    if policy not in LABEL_POLICIES:
        raise ValueError(f"unknown label policy {policy!r}")
    pos_a = {rid: i for i, rid in enumerate(block.ids_a)}
    pos_b = {rid: i for i, rid in enumerate(block.ids_b)}
    linked = np.zeros((len(pos_a), len(pos_b)), dtype=bool)
    for id_a, id_b in links:
        if id_a in pos_a and id_b in pos_b:
            linked[pos_a[id_a], pos_b[id_b]] = True
    is_link = linked.ravel()
    truth = np.where(is_link, np.int8(3), np.int8(1))
    if policy == "banded":
        thresholds = fs_model.agreement_thresholds if fs_model is not None else None
        P, pattern = agreement_patterns(block.fields, thresholds)
        if fs_model is None:
            fs_model = fit_patterns(P, pattern, truth)
        band = fs_decide(fs_model, P) == 2
        truth[~is_link & band[pattern]] = 2
    return replace(block, truth=truth)


class _Echo:
    """File stand-in whose write returns the text, so csv.writer.writerow does."""

    def write(self, text):
        return text


def _quoted(values) -> np.ndarray:
    """Each value as csv.writer writes it as one field of a longer row, with its comma.

    The writer keeps its default CRLF terminator: it also quotes fields that
    hold a character of the terminator.
    """
    writer = csv.writer(_Echo())
    return np.array([writer.writerow((v, ""))[:-2] for v in values], dtype=object)


def _merged(tables) -> list:
    """Adjacent text tables joined into one while the product of their sizes is
    at most CHUNK_ROWS: per group, (its texts, the sizes of its tables). In a
    group of tables of sizes s1, s2, s3, text (i1 * s2 + i2) * s3 + i3 is text
    i1 of the first table followed by text i2 of the second and i3 of the third."""
    groups = []
    for texts in tables:
        if groups and len(groups[-1][0]) * len(texts) <= CHUNK_ROWS:
            merged, sizes = groups[-1]
            groups[-1] = ((merged[:, None] + texts).ravel(), sizes + [len(texts)])
        else:
            groups.append((texts, [len(texts)]))
    return groups


def _chunks(block: PairBlock, kernel_row, t0: int):
    """The pairs to write, by chunks of whole A-rows of at most CHUNK_ROWS pairs, or one
    A-row: per chunk its shape and, per output column, each pair's index into its texts,
    broadcastable to that shape. Each field's index is read from its cell table."""
    na, nb = len(block.ids_a), len(block.ids_b)
    step = max(1, CHUNK_ROWS // max(nb, 1))
    for a0 in range(0, na if nb else 0, step):
        a = slice(a0, a0 + step)
        pairs, k = slice(a0 * nb, (a0 + step) * nb), min(step, na - a0)
        yield (k, nb), [np.arange(a0, a0 + k)[:, None], np.arange(nb),
                        *(cell_index(code_a[a], code_b, cell).reshape(k, nb)
                          for code_a, code_b, _, cell in block.fields),
                        kernel_row[pairs].reshape(k, nb),
                        block.truth[pairs].reshape(k, nb).astype(np.intp) - t0]


def write_classified(path, block: PairBlock, model, procedure: str, field_names) -> None:
    """Classified-pairs file: ids, performances, per-profile sigma, categories.

    The pairs' kernel rows are numbered (core.kernel_rows of the block's own cell tables)
    and classified under the model and procedure before the file is opened. The bytes are
    those of csv.writer writing one row per pair with repr(float) cells. Each row is
    made of text made once and ending in its own separator (CRLF after the truth label,
    else a comma): each id, each distinct similarity of a field (by bit pattern, so -0.0
    stays apart from 0.0), the sigma and category cells per kernel row and each truth
    label. Adjacent columns share one text table while the product of their sizes is at
    most CHUNK_ROWS (_merged), and the tables are concatenated into one. A chunk
    (_chunks) is gathered from it once, then joined and written JOIN_PAIRS pairs at a time:
    a text and its UTF-8 copy that small are reused from the heap, where chunk-sized ones
    are handed back to the OS and paged in again each chunk.
    """
    R, kernel_row = kernel_rows(model, block.fields)
    # a linkage global: perfbench's smoke test swaps in a faulty classifier here
    cats, sigma = classify_batch(model, R, procedure)
    nprof = sigma.shape[1] if len(block) else 0
    outcome = np.array([",".join([*map(repr, s), f"C{c},"])
                        for s, c in zip(sigma.tolist(), cats.tolist())], dtype=object)
    t0, t1 = int(block.truth.min(initial=0)), int(block.truth.max(initial=0))
    label_texts = np.array([f"C{t}\r\n" if t else "\r\n" for t in range(t0, t1 + 1)], dtype=object)
    similarities = [np.array([repr(v) + "," for v in values.tolist()], dtype=object)
                    for _, _, values, _ in block.fields]
    groups = _merged([_quoted(block.ids_a), _quoted(block.ids_b), *similarities,
                      outcome, label_texts])
    texts = np.concatenate([group for group, _ in groups])
    offsets = np.cumsum([0] + [len(group) for group, _ in groups[:-1]])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["id_a", "id_b", *(f"sim_{f}" for f in field_names),
                                 *(f"sigma_b{h}" for h in range(1, nprof + 1)),
                                 "assigned", "truth"])
        for shape, parts in _chunks(block, kernel_row, t0):
            parts = iter(parts)
            cells = np.empty((*shape, len(groups)), dtype=np.intp)
            for g, (_, sizes) in enumerate(groups):
                index = next(parts)
                for size in sizes[1:]:
                    index = index * size + next(parts)
                np.add(index, offsets[g], out=cells[..., g])
            line, step = texts.take(cells.ravel()), JOIN_PAIRS * len(groups)
            fh.writelines("".join(line[i:i + step].tolist()) for i in range(0, len(line), step))

"""Comparison space construction, labeling and the classified-pairs file.

Builds the full cross product A x B as one columnar PairBlock: per field the
distinct similarities and an int32 table indexing them over the distinct values
of each side, the pairs as positions in the cross product and ground-truth
categories in an int8 column.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .core import CHUNK_ROWS, _distinct_cells
from .core import classify_batch  # noqa: F401 - cli classifies through here
from .fellegi_sunter import agreement_patterns, fit_patterns
from .ingest import LinkageSchema, RecordTable

__all__ = [
    "PairBlock",
    "build_pairs",
    "label_pairs",
    "write_classified",
]

LABEL_POLICIES = ("two_class", "banded")


@dataclass(frozen=True, eq=False)
class PairBlock:
    """Record pairs as positions in the row-major cross product A x B.

    Row r pairs ids_a[rows[r] // len(ids_b)] with ids_b[rows[r] % len(ids_b)].
    fields holds (code_a, code_b, values, cell) per compared field: each side's
    value codes, the distinct similarities of the field (by bit pattern) and the
    int32 table of each (code_a, code_b) cell's index into them. truth holds the
    ground-truth category index (0 while unlabeled).
    """

    ids_a: tuple
    ids_b: tuple
    fields: tuple
    rows: np.ndarray
    truth: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def X(self) -> np.ndarray:
        """The per-field similarities, one row per pair, gathered from the columns."""
        return np.column_stack([values[index] for values, index in self.columns()])

    def columns(self) -> list:
        """Per field (values, index): its distinct similarities and each row's int32
        index into them."""
        ia, ib = np.divmod(self.rows, len(self.ids_b))
        return [(values, cell[code_a[ia], code_b[ib]])
                for code_a, code_b, values, cell in self.fields]

    def pair(self, row: int) -> tuple:
        i, k = divmod(int(self.rows[row]), len(self.ids_b))
        return self.ids_a[i], self.ids_b[k]

    def take(self, rows) -> "PairBlock":
        """The sub-block of the given rows, in the given order."""
        return replace(self, rows=self.rows[rows], truth=self.truth[rows])


def _factorize(values):
    """(distinct values in first-seen order, code of each value)."""
    codes = {}
    code = np.fromiter((codes.setdefault(v, len(codes)) for v in values),
                       dtype=np.intp, count=len(values))
    return list(codes), code


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
    return PairBlock(tuple(a.ids()), tuple(b.ids()), tuple(fields),
                     rows=np.arange(n, dtype=np.intp), truth=np.zeros(n, dtype=np.int8))


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
    is_link = linked.ravel()[block.rows]
    truth = np.where(is_link, 3, 1).astype(np.int8)
    if policy == "banded":
        thresholds = fs_model.agreement_thresholds if fs_model is not None else None
        P, pattern = agreement_patterns(block.columns(), thresholds)
        if fs_model is None:
            fs_model = fit_patterns(P, pattern, truth)
        score = fs_model.log_ratio(P)
        band = (fs_model.lower <= score) & (score <= fs_model.upper)
        truth[~is_link & band[pattern]] = 2
    return replace(block, truth=truth)


class _Echo:
    """File stand-in whose write returns the text, so csv.writer.writerow does."""

    def write(self, text):
        return text


def _quoted(values) -> np.ndarray:
    """Each value as csv.writer writes it as one field of a longer row.

    The writer keeps its default CRLF terminator: it also quotes fields that
    hold a character of the terminator.
    """
    writer = csv.writer(_Echo())
    return np.array([writer.writerow((v, ""))[:-3] for v in values], dtype=object)


def write_classified(path, block: PairBlock, kernel_row, cats, sigma, field_names) -> None:
    """Classified-pairs file: ids, performances, per-profile sigma, categories.

    kernel_row maps each pair to its row of cats and sigma (core.kernel_rows).
    The bytes are those of csv.writer writing one row per pair with
    repr(float) cells, but the rows are built column by column over chunks
    of CHUNK_ROWS pairs from text made once: each distinct similarity of a
    field (by bit pattern, so -0.0 stays apart from 0.0), the sigma and
    category cells per kernel row, each id and each truth label. Each chunk
    is written in one call.
    """
    nprof = sigma.shape[1] if len(kernel_row) else 0
    qa, qb = _quoted(block.ids_a), _quoted(block.ids_b)
    similarities = [
        (code_a, code_b, np.array([repr(v) for v in values.tolist()], dtype=object)[cell])
        for code_a, code_b, values, cell in block.fields
    ]
    sigma = np.asarray(sigma, dtype=np.float64).tolist()
    outcome = np.array([",".join(map(repr, s)) + f",C{c}"
                        for s, c in zip(sigma, np.asarray(cats).tolist())], dtype=object)
    labels = np.unique(block.truth)
    label_texts = np.array([f"C{t}" if t else "" for t in labels.tolist()], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(
            ["id_a", "id_b"]
            + [f"sim_{f}" for f in field_names]
            + [f"sigma_b{h}" for h in range(1, nprof + 1)]
            + ["assigned", "truth"]
        )
        for lo in range(0, len(kernel_row), CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            ia, ib = np.divmod(block.rows[rows], len(block.ids_b))
            columns = [
                qa[ia].tolist(),
                qb[ib].tolist(),
                *(text[code_a[ia], code_b[ib]].tolist() for code_a, code_b, text in similarities),
                outcome[kernel_row[rows]].tolist(),
                label_texts[np.searchsorted(labels, block.truth[rows])].tolist(),
            ]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")

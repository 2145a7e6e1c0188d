"""Comparison space construction, labeling and the classified-pairs file.

Builds the full cross product A x B as one columnar PairBlock: per-field
similarity tables over the distinct values of each side, the pairs as
positions in the cross product and ground-truth categories in an int8 column.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .core import CHUNK_ROWS, classify_batch  # noqa: F401 - cli classifies through here
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
    fields holds (code_a, code_b, table) per compared field: each side's value
    codes and the similarity table over the distinct values. truth holds the
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
        """The per-field similarities, one row per pair, gathered from the tables."""
        ia, ib = np.divmod(self.rows, len(self.ids_b))
        X = np.empty((len(self.rows), len(self.fields)))
        for j, (code_a, code_b, table) in enumerate(self.fields):
            X[:, j] = table[code_a[ia], code_b[ib]]
        return X

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
    A and B (Comparator.grid); the pairs gather their similarities from it.
    """
    fields = []
    for fname, comparator in schema.compared_fields:
        vals_a, code_a = _factorize([rec[fname] for _, rec in a.records])
        vals_b, code_b = _factorize([rec[fname] for _, rec in b.records])
        fields.append((code_a, code_b, comparator.grid(vals_a, vals_b)))
    n = len(a.records) * len(b.records)
    return PairBlock(tuple(a.ids()), tuple(b.ids()), tuple(fields),
                     rows=np.arange(n, dtype=np.intp), truth=np.zeros(n, dtype=np.int8))


def label_pairs(block: PairBlock, links, policy: str = "two_class", fs_model=None) -> PairBlock:
    """The block with ground-truth categories attached.

    two_class: linked pairs are C3, everything else C1. banded: nonlink
    pairs whose Fellegi-Sunter log ratio falls inside [Lower, Upper] get C2.
    """
    if policy not in LABEL_POLICIES:
        raise ValueError(f"unknown label policy {policy!r}")
    if policy == "banded" and fs_model is None:
        raise ValueError("banded labeling needs a fitted Fellegi-Sunter model")
    pos_a = {rid: i for i, rid in enumerate(block.ids_a)}
    pos_b = {rid: i for i, rid in enumerate(block.ids_b)}
    linked = np.zeros((len(pos_a), len(pos_b)), dtype=bool)
    for id_a, id_b in links:
        if id_a in pos_a and id_b in pos_b:
            linked[pos_a[id_a], pos_b[id_b]] = True
    is_link = linked.ravel()[block.rows]
    truth = np.where(is_link, 3, 1).astype(np.int8)
    if policy == "banded":
        score = fs_model.log_ratio(block.X)
        truth[~is_link & (fs_model.lower <= score) & (score <= fs_model.upper)] = 2
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


def _gather_text(keys, texts) -> list:
    """The text of every key, calling texts once on the distinct keys."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array(texts(distinct), dtype=object)[inverse].tolist()


def _float_texts(bits):
    return [repr(v) for v in bits.view(np.float64).tolist()]


def _category_texts(cats):
    return [f"C{c}" for c in cats.tolist()]


def _truth_texts(truth):
    return [f"C{t}" if t else "" for t in truth.tolist()]


def write_classified(path, block: PairBlock, cats, sigma, field_names) -> None:
    """Classified-pairs file: ids, performances, per-profile sigma, categories.

    The bytes are those of csv.writer writing one row per pair with
    repr(float) cells, but the rows are built column by column over chunks
    of CHUNK_ROWS pairs: each float's repr is made once per distinct
    bit pattern in the chunk's column (so -0.0 stays apart from 0.0), each
    id is quoted once, and each chunk is written in one call.
    """
    cats = np.asarray(cats)
    nprof = sigma.shape[1] if len(cats) else 0
    qa, qb = _quoted(block.ids_a), _quoted(block.ids_b)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(
            ["id_a", "id_b"]
            + [f"sim_{f}" for f in field_names]
            + [f"sigma_b{h}" for h in range(1, nprof + 1)]
            + ["assigned", "truth"]
        )
        for lo in range(0, len(cats), CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            chunk = block.take(rows)
            ia, ib = np.divmod(chunk.rows, len(block.ids_b))
            floats = [*chunk.X.T, *np.asarray(sigma[rows], dtype=np.float64).T]
            columns = [
                qa[ia].tolist(),
                qb[ib].tolist(),
                *(_gather_text(col.view(np.int64), _float_texts) for col in floats),
                _gather_text(cats[rows], _category_texts),
                _gather_text(chunk.truth, _truth_texts),
            ]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")

"""Comparison space construction and pair classification.

Builds the full cross product A x B as one columnar PairBlock: per-field
similarities in a float matrix, ground-truth categories in an int8 column,
and the Electre Tri categories mapped onto the match / potential match /
nonmatch decision.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .core import ElectreModel, ModelError, classify_batch
from .ingest import LinkageSchema, RecordTable

__all__ = [
    "PairBlock",
    "build_pairs",
    "label_pairs",
    "classify_pairs",
    "write_classified",
]

LABEL_POLICIES = ("two_class", "banded")


@dataclass(frozen=True, eq=False)
class PairBlock:
    """Record pairs as columns: row r pairs ids_a[ia[r]] with ids_b[ib[r]].

    X holds the per-field similarities, one row per pair, and truth the
    ground-truth category index (0 while unlabeled).
    """

    ids_a: tuple
    ids_b: tuple
    ia: np.ndarray
    ib: np.ndarray
    X: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        for name, dtype in (("ia", np.intp), ("ib", np.intp), ("X", np.float64),
                            ("truth", np.int8)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.ia)
        if self.X.ndim != 2 or not len(self.ib) == len(self.X) == len(self.truth) == n:
            raise ValueError(
                f"pair block columns disagree: ia {self.ia.shape}, ib {self.ib.shape}, "
                f"X {self.X.shape}, truth {self.truth.shape}"
            )

    def __len__(self) -> int:
        return len(self.ia)

    def pair(self, row: int) -> tuple:
        return self.ids_a[self.ia[row]], self.ids_b[self.ib[row]]

    def take(self, rows) -> "PairBlock":
        """The sub-block of the given rows, in the given order."""
        return replace(self, ia=self.ia[rows], ib=self.ib[rows], X=self.X[rows],
                       truth=self.truth[rows])


def _factorize(values):
    """(distinct values in first-seen order, code of each value)."""
    codes = {}
    code = np.fromiter((codes.setdefault(v, len(codes)) for v in values),
                       dtype=np.intp, count=len(values))
    return list(codes), code


def build_pairs(a: RecordTable, b: RecordTable, schema: LinkageSchema) -> PairBlock:
    """Every cross pair, row-major by table order, unlabeled.

    Each field's comparator runs once per distinct (value in A, value in B)
    combination; the pairs gather their similarities from that table.
    """
    ids_a, ids_b = tuple(a.ids()), tuple(b.ids())
    na, nb = len(ids_a), len(ids_b)
    X = np.empty((na * nb, len(schema.compared_fields)))
    for j, (fname, comparator) in enumerate(schema.compared_fields):
        vals_a, code_a = _factorize([rec[fname] for _, rec in a.records])
        vals_b, code_b = _factorize([rec[fname] for _, rec in b.records])
        S = np.array([[comparator.compare(x, y) for y in vals_b] for x in vals_a],
                     dtype=float).reshape(len(vals_a), len(vals_b))
        X[:, j] = S[np.ix_(code_a, code_b)].ravel()
    return PairBlock(
        ids_a, ids_b,
        ia=np.repeat(np.arange(na, dtype=np.intp), nb),
        ib=np.tile(np.arange(nb, dtype=np.intp), na),
        X=X,
        truth=np.zeros(na * nb, dtype=np.int8),
    )


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
    is_link = linked[block.ia, block.ib]
    truth = np.where(is_link, 3, 1)
    if policy == "banded":
        score = fs_model.log_ratio(block.X)
        truth[~is_link & (fs_model.lower <= score) & (score <= fs_model.upper)] = 2
    return replace(block, truth=truth)


def classify_pairs(block: PairBlock, model: ElectreModel, procedure: str = "pessimistic"):
    """Assign every pair; returns (categories, sigma matrix)."""
    if len(block) == 0:
        return np.empty(0, dtype=int), np.empty((0, model.profiles.count))
    if block.X.shape[1] != model.m:
        raise ModelError(
            f"pairs have {block.X.shape[1]} criteria, model has {model.m}"
        )
    return classify_batch(model, block.X, procedure)


def write_classified(path, block: PairBlock, cats, sigma, field_names) -> None:
    """Classified-pairs file: ids, performances, per-profile sigma, categories."""
    nprof = sigma.shape[1] if len(cats) else 0
    X, truth = block.X, block.truth.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = (
            ["id_a", "id_b"]
            + [f"sim_{f}" for f in field_names]
            + [f"sigma_b{h}" for h in range(1, nprof + 1)]
            + ["assigned", "truth"]
        )
        writer.writerow(header)
        for i, (ra, rb) in enumerate(zip(block.ia.tolist(), block.ib.tolist())):
            row = [block.ids_a[ra], block.ids_b[rb]]
            row += [repr(float(v)) for v in X[i]]
            row += [repr(float(v)) for v in sigma[i]]
            row.append(f"C{cats[i]}")
            row.append(f"C{truth[i]}" if truth[i] else "")
            writer.writerow(row)

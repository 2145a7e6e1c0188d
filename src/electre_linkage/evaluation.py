"""Holdout evaluation: stratified split, confusion reporting, lambda sweep."""

from __future__ import annotations

import array
import random
from dataclasses import asdict, dataclass

import numpy as np

from .calibration import TrainingSet
from .core import ElectreModel, cut_counts

__all__ = ["EvalReport", "EvaluationError", "split", "evaluate", "lambda_sweep"]


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    contingency: dict  # (truth index, predicted index) -> count
    precision_c3: float
    recall_c3: float
    missed_links: int    # truth C3 not predicted C3
    false_links: int     # truth C1/C2 predicted C3
    total: int
    cutting_level: float | None = None
    procedure: str = ""

    @classmethod
    def from_contingency(cls, contingency: dict, cutting_level=None, procedure: str = ""):
        """The report on a {(truth, predicted): count} dict, kept in its order.
        Under 2-class truth a predicted C2 counts as an error for both classes."""
        total = sum(contingency.values())
        if not total:
            raise EvaluationError("nothing to evaluate")
        correct = sum(n for (t, p), n in contingency.items() if t == p)
        pred_c3 = sum(n for (_, p), n in contingency.items() if p == 3)
        true_c3 = sum(n for (t, _), n in contingency.items() if t == 3)
        hit = contingency.get((3, 3), 0)
        return cls(correct / total, contingency, hit / pred_c3 if pred_c3 else 0.0,
                   hit / true_c3 if true_c3 else 0.0, true_c3 - hit, pred_c3 - hit, total,
                   cutting_level, procedure)

    def lines(self) -> list[str]:
        out = []
        if self.cutting_level is not None:
            out.append(f"lambda = {self.cutting_level}  procedure = {self.procedure}")
        out.append(f"pairs evaluated: {self.total}")
        out.append(f"accuracy: {self.accuracy:.4%}")
        out.append(f"precision(C3): {self.precision_c3:.4f}  recall(C3): {self.recall_c3:.4f}")
        out.append(f"missed true links: {self.missed_links}  false links: {self.false_links}")
        truths = sorted({t for t, _ in self.contingency})
        preds = sorted({p for _, p in self.contingency})
        out.append("contingency (rows = truth, cols = predicted):")
        out.append("      " + "  ".join(f"C{p:<8d}" for p in preds))
        for t in truths:
            row = "  ".join(f"{self.contingency.get((t, p), 0):<9d}" for p in preds)
            out.append(f"  C{t}  {row}")
        return out

    def to_dict(self) -> dict:
        out = asdict(self)
        out["contingency"] = {f"{t},{p}": c for (t, p), c in self.contingency.items()}
        # cutting_level is written as "lambda", still before procedure
        out["lambda"], out["procedure"] = out.pop("cutting_level"), out.pop("procedure")
        return out


def _labels(block) -> np.ndarray:
    unlabeled = np.flatnonzero(block.truth == 0)
    if unlabeled.size:
        raise EvaluationError(f"pair {block.pair(unlabeled[0])} is unlabeled; label it first")
    return block.truth


def split(block, train_fraction: float, seed: int):
    """Stratified deterministic split of a labeled pair block.

    Returns (TrainingSet, test block). Stratification is by truth label,
    so links and nonlinks keep their proportions in the training set; both
    sides keep the block's row order within each label.
    """
    if not 0 < train_fraction < 1:
        raise EvaluationError(f"train fraction must lie in (0, 1), got {train_fraction}")
    truth = _labels(block)
    rng = random.Random(seed)
    train, test = [], []
    for label in np.unique(truth).tolist():
        group = np.flatnonzero(truth == label)
        order = array.array("q", range(len(group)))  # 8 bytes an entry, shuffled in place
        rng.shuffle(order)
        n_train = round(train_fraction * len(group))
        chosen = np.zeros(len(group), dtype=bool)
        chosen[np.frombuffer(order, dtype=np.int64)[:n_train]] = True
        train.append(group[chosen])
        test.append(group[~chosen])
    train = np.concatenate(train) if train else np.empty(0, dtype=np.intp)
    test = np.concatenate(test) if test else np.empty(0, dtype=np.intp)
    if not (truth[train] == 3).any():
        raise EvaluationError(
            "training split contains no links; increase train_fraction"
        )
    training = TrainingSet.from_columns(block.take(train).columns(), truth[train], 3)
    return training, block.take(test)


def evaluate(predicted, truth, cutting_level=None, procedure: str = "") -> EvalReport:
    """Confusion report for predicted vs truth category indices, cells in first-seen order."""
    predicted = np.asarray(predicted, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if predicted.shape != truth.shape:
        raise EvaluationError("predicted and truth lengths differ")
    n = max(truth.max(initial=0), predicted.max(initial=0)) + 1
    code = np.ravel_multi_index((truth, predicted), (n, n))  # a negative label is a ValueError
    cells, first, counts = np.unique(code, return_index=True, return_counts=True)
    order = np.argsort(first)
    t, p = np.divmod(cells[order], n)
    contingency = dict(zip(zip(t.tolist(), p.tolist()), counts[order].tolist()))
    return EvalReport.from_contingency(contingency, cutting_level, procedure)


def lambda_sweep(block, model: ElectreModel, grid, procedure: str = "pessimistic"):
    """Re-evaluate a fixed model over a grid of cutting levels on a labeled block.

    The pairs are cut by core.cut_counts; a report lists its cells sorted by
    (truth, category).
    """
    grid = list(grid)
    if not grid:
        raise EvaluationError("empty lambda grid")
    counts = cut_counts(model, block.columns(), _labels(block), grid, procedure)
    return [EvalReport.from_contingency({(t, c): int(m[t, c]) for t, c in np.argwhere(m).tolist()},
                                        lam, procedure) for lam, m in zip(grid, counts)]

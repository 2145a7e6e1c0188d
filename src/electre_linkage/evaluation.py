"""Holdout evaluation: stratified split, confusion reporting, lambda sweep."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .calibration import TrainingSet
from .core import ElectreModel, assign, credibilities

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
        return {
            "accuracy": self.accuracy,
            "contingency": {f"{t},{p}": c for (t, p), c in self.contingency.items()},
            "precision_c3": self.precision_c3,
            "recall_c3": self.recall_c3,
            "missed_links": self.missed_links,
            "false_links": self.false_links,
            "total": self.total,
            "lambda": self.cutting_level,
            "procedure": self.procedure,
        }


def split(block, train_fraction: float, seed: int, category_count: int = 3):
    """Stratified deterministic split of a labeled pair block.

    Returns (TrainingSet, test block). Stratification is by truth label,
    so links and nonlinks keep their proportions in the training set; both
    sides keep the block's row order within each label.
    """
    if not 0 < train_fraction < 1:
        raise EvaluationError(f"train fraction must lie in (0, 1), got {train_fraction}")
    truth = block.truth
    unlabeled = np.flatnonzero(truth == 0)
    if unlabeled.size:
        raise EvaluationError(
            f"pair {block.pair(unlabeled[0])} is unlabeled; label before splitting"
        )
    rng = random.Random(seed)
    train, test = [], []
    for label in np.unique(truth).tolist():
        group = np.flatnonzero(truth == label)
        order = list(range(len(group)))
        rng.shuffle(order)
        n_train = round(train_fraction * len(group))
        chosen = np.zeros(len(group), dtype=bool)
        chosen[order[:n_train]] = True
        train.append(group[chosen])
        test.append(group[~chosen])
    train = np.concatenate(train) if train else np.empty(0, dtype=np.intp)
    test = np.concatenate(test) if test else np.empty(0, dtype=np.intp)
    if not (truth[train] == 3).any():
        raise EvaluationError(
            "training split contains no links; increase train_fraction"
        )
    training = TrainingSet(block.take(train).X, truth[train], category_count=category_count)
    return training, block.take(test)


def evaluate(predicted, truth, cutting_level=None, procedure: str = "") -> EvalReport:
    """Confusion report for predicted vs truth category indices.

    Under 2-class truth a predicted C2 counts as an error for both classes.
    """
    predicted = np.asarray(predicted, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if predicted.shape != truth.shape:
        raise EvaluationError("predicted and truth lengths differ")
    if len(predicted) == 0:
        raise EvaluationError("nothing to evaluate")
    contingency = {}
    for t, p in zip(truth.tolist(), predicted.tolist()):
        contingency[(t, p)] = contingency.get((t, p), 0) + 1
    correct = int((predicted == truth).sum())
    pred_c3 = int((predicted == 3).sum())
    true_c3 = int((truth == 3).sum())
    hit_c3 = int(((predicted == 3) & (truth == 3)).sum())
    return EvalReport(
        accuracy=correct / len(predicted),
        contingency=contingency,
        precision_c3=hit_c3 / pred_c3 if pred_c3 else 0.0,
        recall_c3=hit_c3 / true_c3 if true_c3 else 0.0,
        missed_links=true_c3 - hit_c3,
        false_links=pred_c3 - hit_c3,
        total=len(predicted),
        cutting_level=cutting_level,
        procedure=procedure,
    )


def lambda_sweep(block, model: ElectreModel, grid, procedure: str = "pessimistic"):
    """Re-evaluate a fixed model over a grid of cutting levels on a labeled block."""
    grid = list(grid)
    if not grid:
        raise EvaluationError("empty lambda grid")
    sig_ab, sig_ba = credibilities(model, block.X)
    return [
        evaluate(assign(sig_ab, sig_ba, lam, procedure), block.truth,
                 cutting_level=lam, procedure=procedure)
        for lam in grid
    ]

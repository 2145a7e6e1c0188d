"""Holdout evaluation: stratified split, confusion reporting, lambda sweep."""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

import numpy as np

from .calibration import CalibrationError, TrainingSet
from .core import ElectreModel, cut_counts

__all__ = ["EvalReport", "EvaluationError", "PairSide", "split", "evaluate", "lambda_sweep"]


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


_SCALAR_BELOW = 1 << 10   # draws below this bound are single getrandbits calls
_CHUNK_WORDS = 1 << 20    # generator words drawn, or skipped, by one getrandbits call
_MAX_GROUP = 1 << 31      # the int32 step arrays index a group below this size


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The generator's next `count` 32-bit outputs, in order (read-only uint32)."""
    return np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4")


def _targets(rng: random.Random, n: int) -> np.ndarray:
    """The draws of `rng.shuffle` on n items: t[i] = randbelow(i + 1), drawn for
    i = n-1 down to 1 (t[0] = 0), leaving `rng` in the state shuffle leaves.

    randbelow(m) takes k = m.bit_length() top bits of one word, rejecting
    words until they fall below m. Within one k band the bound drops by one
    per accepted word, so in a block of words starting at bound m, word s is
    rejected iff (word >> (32-k)) + s - m >= the rejections before it in the
    block. That is settled for every word in one pass, except those whose
    excess lies in [0, s); a short loop settles those in order.
    """
    t = np.zeros(n, dtype=np.int32)
    m = n  # the bound of the next draw
    words = np.empty(0, dtype="<u4")
    used = 0
    while m > _SCALAR_BELOW:
        k = m.bit_length()
        low = 1 << (k - 1)  # the band's last bound
        while m >= low:
            if used == len(words):  # each draw left takes a word or more: all are used
                del words
                words = _words(rng, min(_CHUNK_WORDS, m - _SCALAR_BELOW + 1))
                used = 0
            # a block of 2^(k-4) words leaves about 1 word in 32 unsettled
            top = (words[used:used + (1 << (k - 4))] >> (32 - k)).astype(np.int64)
            s = np.arange(len(top))
            excess = top + s - m
            rejected = excess >= s
            unsettled = np.flatnonzero((excess >= 0) & ~rejected)
            if unsettled.size:
                extra = 0
                for i, e, r in zip(unsettled.tolist(), excess[unsettled].tolist(),
                                   np.cumsum(rejected)[unsettled - 1].tolist()):
                    if e >= r + extra:
                        rejected[i] = True
                        extra += 1
            accepted = np.flatnonzero(~rejected)[:m - low + 1]
            t[m - len(accepted):m] = top[accepted[::-1]]
            used += int(accepted[-1]) + 1 if len(accepted) == m - low + 1 else len(top)
            m -= len(accepted)
    getrandbits = rng.getrandbits
    for m in range(m, 1, -1):
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        t[m - 1] = r
    return t


def _tested(rng: random.Random, n: int, start: int) -> np.ndarray:
    """One flag a value of range(n): True for the values that
    `rng.shuffle(list(range(n)))` leaves at positions start..n-1, leaving `rng`
    in the state shuffle leaves it in.

    Step i of the shuffle swaps positions i and t[i] <= i. Steps below start
    keep the positions from start on among themselves; applied in increasing
    order to that set, step k puts t[k] in and takes k out, unless t[k] is in
    already. So every value a step from start on takes is in, a value below
    start only if one takes it, and the values from start on that are out
    end hole chains: the first step to take a value below start opens a hole
    at its own position, and the first later step to take the value at a
    hole moves the hole there. Links only go up, so pointer jumping settles
    them. All arrays are int32 or bool.
    """
    if n >= _MAX_GROUP:
        raise EvaluationError(f"a label group of {n} pairs is too large to split "
                              f"(at most {_MAX_GROUP - 1})")
    t = _targets(rng, n)[start:]  # the steps from start on
    first = np.full(n, n, dtype=np.int32)  # the first of them to take each value
    np.minimum.at(first, t, np.arange(start, n, dtype=np.int32))
    del t
    tested = first < n
    tested[start:] = True
    link = first[start:] - start  # from start on: the first step to take each position, or itself
    np.copyto(link, np.arange(n - start, dtype=np.int32), where=link == n - start)
    jumped = link[link]
    while not np.array_equal(jumped, link):
        link = jumped
        jumped = link[link]
    del jumped
    heads = first[:start]  # the first step from start on to take each value below it
    tested[start:][link[heads[heads < n] - start]] = False  # the chains' ends
    return tested


class PairSide(TrainingSet):
    """A side of a block, as split makes it: its pairs of nonzero label, which pair() names."""

    def __init__(self, block, labels, category_count: int = 3):
        self.block, self.fields, self.labels = block, block.fields, labels
        self.category_count = category_count

    truth = TrainingSet.y

    def pair(self, row: int) -> tuple:
        return self.block.pair(self.rows[row])


def split(block, train_fraction: float, seed: int):
    """Stratified deterministic split of a labeled pair block.

    Returns (training, test) PairSides: the block with an int8 label a pair, its truth on
    that side and 0 on the other. Stratification is by truth label (1..3), so links and
    nonlinks keep their proportions in the training set. Each label's training pairs are
    the first round(train_fraction * size) of the permutation `random.Random(seed).shuffle`
    makes of the group's pairs, one generator across the labels in ascending order,
    computed in numpy: which pairs fall past the cut is resolved, not their order.
    """
    if not 0 < train_fraction < 1:
        raise EvaluationError(f"train fraction must lie in (0, 1), got {train_fraction}")
    truth = _labels(block)
    if truth.min(initial=1) < 1 or truth.max(initial=1) > 3:
        raise CalibrationError(f"category index {truth[(truth < 1) | (truth > 3)][0]} "
                               "outside 1..3")
    rng, tested = random.Random(seed), np.zeros(len(truth), dtype=bool)
    for label in (1, 2, 3):
        size = int(np.count_nonzero(truth == label))
        tested[truth == label] = _tested(rng, size, round(train_fraction * size))
    test = truth * tested
    train = PairSide(block, truth - test)
    if 3 not in train.labels:
        raise EvaluationError("training split contains no links; increase train_fraction")
    return train, PairSide(block, test)


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


def lambda_sweep(pairs, model: ElectreModel, grid, procedure: str = "pessimistic"):
    """Re-evaluate a fixed model over a grid of cutting levels on a labeled block, or a
    side of one (a TrainingSet, as split makes). The pairs are cut by core.cut_counts; a
    report lists its cells sorted by (truth, category)."""
    grid = list(grid)
    if not grid:
        raise EvaluationError("empty lambda grid")
    labels = pairs.labels if isinstance(pairs, TrainingSet) else _labels(pairs)
    counts = cut_counts(model, pairs.fields, labels, grid, procedure)
    return [EvalReport.from_contingency({(t, c): int(m[t, c]) for t, c in np.argwhere(m).tolist()},
                                        lam, procedure) for lam, m in zip(grid, counts)]

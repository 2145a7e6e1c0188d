"""Model calibration from labeled training data.

Profiles come from a hinge-loss linear program that decomposes criterion by
criterion, each criterion's profile chain resolved by one pool-adjacent-
violators pass; thresholds from range fractions; the cutting level from a
grid search on training accuracy. Every step reads the training pairs through
per-(value, category) counts or their kernel rows, never as an (n, m) matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import (Criterion, ElectreModel, ProfileSet, _check_finite, _distinct_cells,
                   cell_index, column_fields, cut_counts, label_cells, pair_values)

__all__ = [
    "TrainingSet",
    "LpSolution",
    "CalibrationError",
    "EpsilonInfeasibleError",
    "estimate_profiles",
    "estimate_thresholds",
    "estimate_lambda",
    "calibrate",
]

DEFAULT_EPSILON = 0.01
DEFAULT_Q_FRACTION = 0.05
DEFAULT_P_FRACTION = 0.15
MAX_GRID_POINTS = 10_001  # the most cutting levels estimate_lambda tries


class CalibrationError(ValueError):
    pass


class EpsilonInfeasibleError(CalibrationError):
    pass


class TrainingSet:
    """Labeled performances as a side of a cross product: fields holds per criterion (code_a,
    code_b, values, cell) as core.distinct_rows takes them, labels a category index in
    1..category_count a pair (0 off the side). TrainingSet(X, y, category_count) takes an
    (n, m) matrix as the n x 1 product of its columns; evaluation.split makes a side of a
    block. Calibration reads the pairs as counts; X and y are gathered, in order, when
    asked for."""

    def __init__(self, X, y, category_count: int):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.size == 0:
            raise CalibrationError("training set is empty")
        y = np.asarray(y, dtype=int)
        if y.shape != (len(X),):
            raise CalibrationError(f"{y.shape} labels for {len(X)} performance rows")
        bad = (y < 1) | (y > category_count)
        if bad.any():
            raise CalibrationError(f"category index {y[bad][0]} outside 1..{category_count}")
        # distinct by bit pattern, so X comes back bitwise; named in the rows' order
        fields = column_fields([_distinct_cells(col) for col in X.T])
        _check_finite(fields, CalibrationError, "training row")
        self.fields, self.labels, self.category_count = fields, y, category_count

    def __len__(self) -> int:
        return int(np.count_nonzero(self.labels))

    @property
    def criterion_count(self) -> int:
        return len(self.fields)

    @cached_property
    def rows(self) -> np.ndarray:  # the positions of the pairs on the side, in order
        return np.flatnonzero(self.labels)

    @property
    def X(self) -> np.ndarray:
        return pair_values(self.fields, self.rows)

    @property
    def y(self) -> np.ndarray:
        return self.labels[self.rows]

    @cached_property
    def histograms(self) -> list:
        """Per criterion (values, counts): the values the pairs take, ascending, and
        counts[i, h - 1] the pairs of category h at values[i]; one count over the product."""
        p, out = self.category_count, []
        for code_a, code_b, values, cell in self.fields:
            at, label, count = label_cells(np.arange(len(values)),
                                           cell_index(code_a, code_b, cell), self.labels)
            counts = np.zeros((len(values), p), dtype=np.intp)
            counts[at, label - 1] = count
            taken = np.flatnonzero(counts.any(axis=1))
            order = taken[np.argsort(values[taken], kind="stable")]
            out.append((values[order], counts[order]))
        return out


@dataclass(frozen=True)
class LpSolution:
    profiles: ProfileSet
    objective: float  # the summed slacks, exact up to one rounding


def _hinge_minimum(points, uppers, lowers, clamp_lo, clamp_hi):
    """Minimize f(t) = sum of uppers[i] * (points[i] - t)+ + lowers[i] * (t - points[i])+.

    Returns (lo, hi): the flat optimal interval. t is optimal exactly when
    #(lowers < t) - #(uppers >= t) <= 0 <= #(lowers <= t) - #(uppers > t), which
    the integer counts decide at every breakpoint without rounding. The interval
    of an unconstrained side is clamped to the data range so a midpoint is
    always defined.
    """
    taken = (uppers > 0) | (lowers > 0)
    pts, at = np.unique(points[taken], return_inverse=True)
    if pts.size == 0:
        return clamp_lo, clamp_hi
    up = np.bincount(at, uppers[taken], minlength=pts.size).astype(np.int64)
    low = np.bincount(at, lowers[taken], minlength=pts.size).astype(np.int64)
    lows_to = np.cumsum(low)  # #(lowers <= t)
    ups_past = up.sum() - np.cumsum(up)  # #(uppers > t)
    flat = np.flatnonzero((lows_to - low - ups_past - up <= 0) & (lows_to - ups_past >= 0))
    lo, hi = float(pts[flat[0]]), float(pts[flat[-1]])
    # the optimum may extend past the extreme breakpoints when one side is empty
    if not low.any():
        hi = max(hi, clamp_hi)
    if not up.any():
        lo = min(lo, clamp_lo)
    return lo, hi


def _monotone_selection(intervals):
    """Pick a nondecreasing value from each interval, preferring midpoints.

    A selection exists because no interval's lower end exceeds the upper end of
    an interval after it: estimate_profiles appends a block only once no
    earlier block's lower end exceeds the new block's upper end. Each value is
    its midpoint raised to its lower end (which an overflowing midpoint falls
    below) and to the value before it, then capped by the least upper end from
    it on: by that order it is at least every earlier lower end as well.
    """
    maxs, nxt = [0.0] * len(intervals), math.inf
    for i in range(len(intervals) - 1, -1, -1):
        nxt = min(intervals[i][1], nxt)
        maxs[i] = nxt
    vals, prev = [], -math.inf
    for (lo, hi), hi_f in zip(intervals, maxs):
        prev = min(hi_f, max((lo + hi) / 2.0, lo, prev))
        vals.append(prev)
    return vals


def estimate_profiles(train: TrainingSet, epsilon: float = DEFAULT_EPSILON) -> LpSolution:
    """Profile estimation: minimize the summed classification slacks.

    For each criterion the problem separates into one convex piecewise-linear
    subproblem per profile, coupled only by the epsilon-spacing chain, which
    is plain monotonicity once profile h is shifted by (h-1) * epsilon. One
    left-to-right pool-adjacent-violators pass resolves the chain exactly
    (Best, Chakravarti & Ubhaya 2000): each profile starts as a block holding
    the flat optimal interval of its hinge sum, and the block before it is
    pooled in while some earlier block's lower end exceeds the new block's
    upper end, so at most 2p - 3 hinge minimizations per criterion. The
    blocks' values are then the interval midpoints, as far as the chain allows.
    Each hinge sum is weighted by the per-(value, category) counts.
    """
    if not 0 < epsilon < math.inf:
        raise CalibrationError(f"epsilon must be positive and finite, got {epsilon}")
    p = train.category_count
    nprof = p - 1
    for h, c in enumerate(train.histograms[0][1].sum(axis=0).tolist(), start=1):
        if c == 0:
            warnings.warn(
                f"category C{h} has no training examples; adjacent profiles are "
                "only constrained by the neighboring categories",
                stacklevel=2,
            )

    profile_cols = []
    for j, (v, counts) in enumerate(train.histograms):
        span = v[-1] - v[0]
        if p > 2 and epsilon * (p - 2) > span:
            raise EpsilonInfeasibleError(
                f"epsilon={epsilon} infeasible on criterion {j}: "
                f"{p - 2} spacing gaps exceed the performance range {span:.6g}"
            )
        # shift to y-space where the chain constraint is plain monotonicity:
        # y_h = x_h - (h-1) * epsilon; profile h bounds category h from above
        # and category h + 1 from below
        shifted = [v - h * epsilon for h in range(nprof)]
        clamp_lo = v[0] - (nprof - 1) * epsilon
        clamp_hi = v[-1]

        def hinge(start, end):  # the pooled block of profiles start..end-1
            blocks = range(start, end)
            return _hinge_minimum(
                np.concatenate([shifted[h] for h in blocks]),
                np.concatenate([counts[:, h] for h in blocks]),
                np.concatenate([counts[:, h + 1] for h in blocks]),
                clamp_lo,
                clamp_hi,
            )

        # merge only while no nondecreasing selection from the intervals exists
        blocks = []  # (first profile, end profile, lo, hi)
        for h in range(nprof):
            start = h
            lo, hi = hinge(h, h + 1)
            while blocks and max(b[2] for b in blocks) > hi:
                start = blocks.pop()[0]
                lo, hi = hinge(start, h + 1)
            blocks.append((start, h + 1, lo, hi))
        vals = _monotone_selection([(lo, hi) for _, _, lo, hi in blocks])
        column = []  # t + h * epsilon, but never an ulp short of the previous + epsilon
        for (start, end, _, _), t in zip(blocks, vals):
            for h in range(start, end):
                column.append(max(t + h * epsilon, column[-1] + epsilon if column else -math.inf))
        profile_cols.append(column)

    prof_matrix = tuple(zip(*profile_cols))
    return LpSolution(ProfileSet(prof_matrix), _objective(train, prof_matrix))


def _objective(train: TrainingSet, profiles) -> float:
    """The summed slacks, theta_j(a) = max(0, overshoot of a's upper profile,
    undershoot of its lower one), added exactly per (value, category) cell times
    its count and rounded once."""
    B = np.asarray(profiles, dtype=float)
    total = Fraction(0)
    for j, (v, counts) in enumerate(train.histograms):
        theta = np.zeros(counts.shape)
        theta[:, :-1] = np.maximum(v[:, None] - B[:, j], 0.0)  # categories 1..p-1
        theta[:, 1:] = np.maximum(theta[:, 1:], B[:, j] - v[:, None])  # categories 2..p
        cells = (theta > 0) & (counts > 0)
        total += sum(Fraction(t) * c for t, c in zip(theta[cells].tolist(), counts[cells].tolist()))
    return float(total)


def estimate_thresholds(
    train: TrainingSet,
    q_fraction: float = DEFAULT_Q_FRACTION,
    p_fraction: float = DEFAULT_P_FRACTION,
) -> list[tuple[float, float]]:
    """(q_j, p_j) per criterion as fractions of the observed performance range."""
    if not 0 <= q_fraction <= p_fraction <= 1:
        raise CalibrationError(
            f"need 0 <= q_fraction <= p_fraction <= 1, got {q_fraction}, {p_fraction}"
        )
    ranges = [v[-1] - v[0] for v, _ in train.histograms]
    return [(q_fraction * r, p_fraction * r) for r in ranges]


def estimate_lambda(
    train: TrainingSet,
    criteria: tuple[Criterion, ...],
    profiles: ProfileSet,
    grid_step: float = 0.05,
    procedure: str = "pessimistic",
    epsilon: float = DEFAULT_EPSILON,
):
    """Grid-search the cutting level on training accuracy.

    Ties break toward the largest lambda. Returns (best_lambda, curve) where
    curve is the [(lambda, accuracy)] list over the grid, of at most
    MAX_GRID_POINTS levels. The rows are cut by core.cut_counts.
    """
    if not 0 < grid_step <= 0.5:
        raise CalibrationError(f"grid step must lie in (0, 0.5], got {grid_step}")
    grid = []
    lam = 0.5
    while lam < 1.0 - 1e-12:
        if len(grid) == MAX_GRID_POINTS - 1:  # 1.0 is still to come
            raise CalibrationError(
                f"grid step {grid_step} gives more than {MAX_GRID_POINTS} cutting levels")
        grid.append(round(lam, 12))
        lam += grid_step
    grid.append(1.0)

    # the cut ignores the model's own lambda
    model = ElectreModel(criteria, profiles, 1.0, epsilon)
    counts = cut_counts(model, train.fields, train.labels, grid, procedure)
    curve = [(lam, float(np.trace(c) / len(train))) for lam, c in zip(grid, counts)]
    return max(reversed(curve), key=lambda point: point[1])[0], curve


def calibrate(
    train: TrainingSet,
    weights=None,
    epsilon: float = DEFAULT_EPSILON,
    q_fraction: float = DEFAULT_Q_FRACTION,
    p_fraction: float = DEFAULT_P_FRACTION,
    grid_step: float = 0.05,
    procedure: str = "pessimistic",
    criterion_names=None,
):
    """Full calibration: profiles, thresholds, lambda.

    Returns (ElectreModel, LpSolution, lambda curve).
    """
    m = train.criterion_count
    if weights is None:
        weights = [1.0] * m
    if len(weights) != m:
        raise CalibrationError(f"{len(weights)} weights for {m} criteria")
    if criterion_names is None:
        criterion_names = [f"g{j + 1}" for j in range(m)]
    solution = estimate_profiles(train, epsilon)
    thresholds = estimate_thresholds(train, q_fraction, p_fraction)
    criteria = tuple(
        Criterion(name=criterion_names[j], weight=weights[j],
                  indifference=thresholds[j][0], preference=thresholds[j][1])
        for j in range(m)
    )
    lam, curve = estimate_lambda(
        train, criteria, solution.profiles, grid_step, procedure, epsilon
    )
    model = ElectreModel(criteria, solution.profiles, lam, epsilon)
    return model, solution, curve

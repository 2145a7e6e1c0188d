"""Model calibration from labeled training data.

Profiles come from a hinge-loss linear program that decomposes criterion by
criterion, each criterion's profile chain resolved by one pool-adjacent-
violators pass; thresholds from range fractions; the cutting level from a
grid search on training accuracy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Criterion, ElectreModel, ProfileSet, credibilities, cut_counts

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


class CalibrationError(ValueError):
    pass


class EpsilonInfeasibleError(CalibrationError):
    pass


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Labeled performances: X of shape (n, m), category indices y in 1..category_count."""

    X: np.ndarray
    y: np.ndarray
    category_count: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        if X.ndim != 2 or X.shape[0] == 0:
            raise CalibrationError("training set is empty")
        if y.shape != (X.shape[0],):
            raise CalibrationError(f"{y.shape} labels for {X.shape[0]} performance rows")
        bad = (y < 1) | (y > self.category_count)
        if bad.any():
            raise CalibrationError(
                f"category index {y[bad][0]} outside 1..{self.category_count}"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def criterion_count(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class LpSolution:
    profiles: ProfileSet
    objective: float
    errors: np.ndarray  # theta, shape (n alternatives, m criteria)


def _hinge_minimum(uppers, lowers, clamp_lo, clamp_hi):
    """Minimize f(t) = sum (u - t)+ + sum (t - l)+ over t.

    Returns (lo, hi, value): the flat optimal interval and its objective.
    The interval of an unconstrained side is clamped to the data range so a
    midpoint is always defined.
    """
    U = np.sort(np.asarray(uppers, dtype=float))
    L = np.sort(np.asarray(lowers, dtype=float))
    pts = np.unique(np.concatenate([U, L]))
    if pts.size == 0:
        return clamp_lo, clamp_hi, 0.0

    cum_u = np.concatenate([[0.0], np.cumsum(U)])
    cum_l = np.concatenate([[0.0], np.cumsum(L)])
    iu = np.searchsorted(U, pts, side="right")
    il = np.searchsorted(L, pts, side="left")
    # sum of (u - t)+ plus sum of (t - l)+ at every breakpoint
    vals = (cum_u[-1] - cum_u[iu]) - (U.size - iu) * pts + il * pts - cum_l[il]
    best = float(vals.min())
    flat = np.flatnonzero(vals <= best + 1e-12 * max(1.0, abs(best)))
    lo = float(pts[flat[0]])
    hi = float(pts[flat[-1]])
    # the optimum may extend past the extreme breakpoints when one side is empty
    if L.size == 0:
        hi = max(hi, clamp_hi)
    if U.size == 0:
        lo = min(lo, clamp_lo)
    return lo, hi, best


def _monotone_selection(intervals):
    """Pick a nondecreasing value from each interval, preferring midpoints.

    Returns None when no nondecreasing selection exists.
    """
    mins, prev = [], -math.inf
    for lo, hi in intervals:
        prev = max(lo, prev)
        if prev > hi:
            return None
        mins.append(prev)
    maxs, nxt = [0.0] * len(intervals), math.inf
    for i in range(len(intervals) - 1, -1, -1):
        nxt = min(intervals[i][1], nxt)
        maxs[i] = nxt
    vals, prev = [], -math.inf
    for (lo, hi), lo_f, hi_f in zip(intervals, mins, maxs):
        t = min(hi_f, max((lo + hi) / 2.0, lo_f, prev))
        vals.append(t)
        prev = t
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
    """
    if not 0 < epsilon < math.inf:
        raise CalibrationError(f"epsilon must be positive and finite, got {epsilon}")
    p = train.category_count
    m = train.criterion_count
    X, y = train.X, train.y

    counts = np.bincount(y, minlength=p + 1)[1:]
    for h, c in enumerate(counts, start=1):
        if c == 0:
            warnings.warn(
                f"category C{h} has no training examples; adjacent profiles are "
                "only constrained by the neighboring categories",
                stacklevel=2,
            )

    nprof = p - 1
    profile_cols = []
    for j in range(m):
        g = X[:, j]
        span = g.max() - g.min()
        if p > 2 and epsilon * (p - 2) > span:
            raise EpsilonInfeasibleError(
                f"epsilon={epsilon} infeasible on criterion {j}: "
                f"{p - 2} spacing gaps exceed the performance range {span:.6g}"
            )
        # shift to y-space where the chain constraint is plain monotonicity:
        # y_h = x_h - (h-1) * epsilon
        uppers = [g[y == h] - (h - 1) * epsilon for h in range(1, nprof + 1)]
        lowers = [g[y == h + 1] - (h - 1) * epsilon for h in range(1, nprof + 1)]
        clamp_lo = g.min() - (nprof - 1) * epsilon
        clamp_hi = g.max()

        # merge only while no nondecreasing selection from the intervals exists
        blocks = []  # (first profile, end profile, lo, hi)
        for h in range(nprof):
            start = h
            lo, hi, _ = _hinge_minimum(uppers[h], lowers[h], clamp_lo, clamp_hi)
            while blocks and max(b[2] for b in blocks) > hi:
                start = blocks.pop()[0]
                lo, hi, _ = _hinge_minimum(
                    np.concatenate(uppers[start:h + 1]),
                    np.concatenate(lowers[start:h + 1]),
                    clamp_lo,
                    clamp_hi,
                )
            blocks.append((start, h + 1, lo, hi))
        vals = _monotone_selection([(lo, hi) for _, _, lo, hi in blocks])
        profile_cols.append([
            t + h * epsilon
            for (start, end, _, _), t in zip(blocks, vals)
            for h in range(start, end)
        ])

    prof_matrix = tuple(
        tuple(profile_cols[j][h] for j in range(m)) for h in range(nprof)
    )
    theta = _slacks(X, y, prof_matrix, p)
    return LpSolution(ProfileSet(prof_matrix), float(theta.sum()), theta)


def _slacks(X: np.ndarray, y: np.ndarray, profiles, p: int) -> np.ndarray:
    """theta_j(a_k) = max(0, overshoot of the upper profile, undershoot of the lower)."""
    B = np.asarray(profiles, dtype=float)
    theta = np.zeros_like(X)
    # np.where(v > t, v, t) keeps Python's max(t, v) choice between equal values
    below_top = y != p
    over = X[below_top] - B[y[below_top] - 1]
    theta[below_top] = np.where(over > 0.0, over, 0.0)
    above_bottom = y != 1
    under = B[y[above_bottom] - 2] - X[above_bottom]
    t = theta[above_bottom]
    theta[above_bottom] = np.where(under > t, under, t)
    return theta


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
    X = train.X
    ranges = X.max(axis=0) - X.min(axis=0)
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
    curve is the [(lambda, accuracy)] list over the grid.
    """
    if not 0 < grid_step <= 0.5:
        raise CalibrationError(f"grid step must lie in (0, 0.5], got {grid_step}")
    X, y = train.X, train.y
    grid = []
    lam = 0.5
    while lam < 1.0 - 1e-12:
        grid.append(round(lam, 12))
        lam += grid_step
    grid.append(1.0)

    # the credibilities do not depend on lambda; only the cut does
    sig_ab, sig_ba = credibilities(ElectreModel(criteria, profiles, 1.0, epsilon), X)
    counts = cut_counts(sig_ab, sig_ba, y, None, grid, procedure)
    curve = [(lam, float(np.trace(c) / len(y))) for lam, c in zip(grid, counts)]
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

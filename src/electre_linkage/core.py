"""Electre Tri sorting machinery.

Concordance / discordance / credibility indices, the lambda-cut outranking
test and the pessimistic and optimistic assignment procedures. All formulas
are written for gain-oriented criteria; cost criteria are normalized by
negating performances at model construction time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "Criterion",
    "ProfileSet",
    "ElectreModel",
    "Alternative",
    "Category",
    "ModelError",
    "partial_concordance",
    "global_concordance",
    "partial_discordance",
    "credibility",
    "outranks",
    "assign_pessimistic",
    "assign_optimistic",
    "credibilities",
    "criterion_codes",
    "distinct_rows",
    "kernel_rows",
    "label_cells",
    "assign",
    "cut_counts",
    "classify_batch",
]

CATEGORY_LABELS_3 = {1: "nonmatch", 2: "potential match", 3: "match"}
CHUNK_ROWS = 1 << 14  # rows per kernel pass and per written chunk, bounding their memory


class ModelError(ValueError):
    """Invalid model parameters or inconsistent usage."""


def _is_bool(x) -> bool:
    """JSON true and false load as ints, but no model number may be one."""
    return isinstance(x, bool)


@dataclass(frozen=True)
class Criterion:
    name: str
    weight: float = 1.0
    indifference: float = 0.0
    preference: float = 0.0
    veto: float | None = None
    direction: str = "gain"

    def __post_init__(self):
        if self.direction not in ("gain", "cost"):
            raise ModelError(f"criterion {self.name!r}: direction must be gain or cost")
        numbers = (self.weight, self.indifference, self.preference)
        if any(map(_is_bool, (*numbers, self.veto))) or not all(map(math.isfinite, numbers)) or (
            self.veto is not None and math.isnan(self.veto)
        ):
            raise ModelError(
                f"criterion {self.name!r}: weight and thresholds must be finite numbers, got "
                f"w={self.weight}, q={self.indifference}, p={self.preference}, v={self.veto}"
            )
        if self.weight < 0:
            raise ModelError(f"criterion {self.name!r}: weight must be nonnegative")
        if not 0 <= self.indifference <= self.preference:
            raise ModelError(
                f"criterion {self.name!r}: need 0 <= q <= p, "
                f"got q={self.indifference}, p={self.preference}"
            )
        if self.veto is not None and self.veto < self.preference:
            raise ModelError(f"criterion {self.name!r}: need p <= v, got v={self.veto}")


@dataclass(frozen=True)
class ProfileSet:
    """Boundary profiles: row h-1 holds g_j(b_h) for the C_h / C_{h+1} limit."""

    values: tuple[tuple[float, ...], ...]

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def category_count(self) -> int:
        return len(self.values) + 1

    def check_separation(self, epsilon: float, signs) -> None:
        """Successive profiles must grow by epsilon in gain orientation."""
        for h in range(1, self.count):
            for j, (lo, hi) in enumerate(zip(self.values[h - 1], self.values[h])):
                if signs[j] * hi < signs[j] * lo + epsilon:
                    raise ModelError(
                        f"profiles not separated by epsilon on criterion {j}: "
                        f"{hi} vs {lo} + {epsilon}"
                    )


@dataclass(frozen=True)
class Category:
    index: int
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", CATEGORY_LABELS_3.get(self.index, f"C{self.index}"))


@dataclass(frozen=True)
class Alternative:
    id: object
    performances: tuple[float, ...]


@dataclass(frozen=True)
class ElectreModel:
    criteria: tuple[Criterion, ...]
    profiles: ProfileSet
    cutting_level: float
    epsilon: float = 0.01

    def __post_init__(self):
        if len(self.criteria) < 1:
            raise ModelError("model needs at least one criterion")
        if self.profiles.category_count < 2:
            raise ModelError("model needs at least two categories")
        if _is_bool(self.cutting_level) or not 0.5 <= self.cutting_level <= 1.0:
            raise ModelError(
                f"cutting level must be a number in [0.5, 1.0], got {self.cutting_level}"
            )
        if not 0 < sum(c.weight for c in self.criteria) < math.inf:
            raise ModelError("criterion weights must have a positive, finite sum")
        for row in self.profiles.values:
            if len(row) != len(self.criteria):
                raise ModelError("profile row length != criterion count")
            if any(map(_is_bool, row)) or not all(map(math.isfinite, row)):
                raise ModelError(f"profile values must be finite numbers, got {row}")
        # the profiles' separation and both assignment scans assume a positive epsilon
        if _is_bool(self.epsilon) or not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ModelError(f"epsilon must be a positive finite number, got {self.epsilon}")
        self.profiles.check_separation(self.epsilon, self.sign)

    @property
    def m(self) -> int:
        return len(self.criteria)

    @property
    def category_count(self) -> int:
        return self.profiles.category_count

    @cached_property
    def sign(self) -> np.ndarray:
        """+1 per gain criterion, -1 per cost criterion."""
        return np.array([1.0 if c.direction == "gain" else -1.0 for c in self.criteria])

    @cached_property
    def arrays(self) -> tuple:
        """(profiles, q, p, v, w) arrays, gain-oriented; v is nan where absent."""
        prof = np.asarray(self.profiles.values, dtype=float) * self.sign
        q = np.array([c.indifference for c in self.criteria])
        p = np.array([c.preference for c in self.criteria])
        v = np.array([math.nan if c.veto is None else c.veto for c in self.criteria])
        w = np.array([c.weight for c in self.criteria])
        return prof, q, p, v, w

    # --- serialization (lossless: json floats round-trip via repr) ---

    def to_dict(self) -> dict:
        return {
            "criteria": [
                {
                    "name": c.name,
                    "direction": c.direction,
                    "weight": c.weight,
                    "q": c.indifference,
                    "p": c.preference,
                    "v": c.veto,
                }
                for c in self.criteria
            ],
            "profiles": [list(row) for row in self.profiles.values],
            "lambda": self.cutting_level,
            "epsilon": self.epsilon,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "ElectreModel":
        try:
            criteria = tuple(
                Criterion(
                    name=c["name"],
                    direction=c.get("direction", "gain"),
                    weight=c["weight"],
                    indifference=c["q"],
                    preference=c["p"],
                    veto=c.get("v"),
                )
                for c in d["criteria"]
            )
            # a bool stays a bool, for the model to reject
            profiles = ProfileSet(tuple(
                tuple(x if _is_bool(x) else float(x) for x in row) for row in d["profiles"]
            ))
            return cls(criteria, profiles, d["lambda"], d.get("epsilon", 0.01))
        except ModelError:
            raise
        except KeyError as exc:
            raise ModelError(f"model document missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ModelError(f"malformed model document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ElectreModel":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"model file is not valid JSON: {exc}") from exc
        return cls.from_dict(d)


def _indices(diff: np.ndarray, q, p, v, w):
    """The Electre Tri indices of every row of diff against one profile.

    diff holds g_j(y) - g_j(x) when asking whether x outranks y, one row per
    alternative. Returns (partial concordances, global concordance, partial
    discordances or None without vetoes, credibility). Sums and products run
    in criterion order, so each row's indices depend on that row alone.
    """
    has_veto = ~np.isnan(v)
    ramp, span = p - q, v - p
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(
            diff <= q,
            1.0,
            np.where(diff >= p, 0.0, (p - diff) / np.where(ramp > 0, ramp, 1.0)),
        )
        C = reduce(np.add, c.T * w[:, None]) / reduce(np.add, w)
        if not has_veto.any():
            return c, C, None, C
        d = np.where(
            has_veto & (diff > p),
            np.where(diff >= v, 1.0, (diff - p) / np.where(span > 0, span, 1.0)),
            0.0,
        )
        mask = d > C[:, None]
        denom = 1.0 - C[:, None]
        factors = np.where(mask, (1.0 - d) / np.where(denom > 0, denom, 1.0), 1.0)
    sigma = reduce(np.multiply, factors.T, C)
    sigma[np.any(mask & (d >= 1.0), axis=1)] = 0.0
    return c, C, d, sigma


def criterion_codes(model: ElectreModel, j: int, values):
    """The raw values of criterion j (0-based) that the kernel cannot tell apart.

    Two values share a code exactly when their partial concordances and
    discordances against every profile, in both directions, are bitwise
    equal; every credibility computed from a row is then unchanged when a
    value is swapped for another of its code. Returns (code of each value,
    one representative value per code).

    Each of these indices is monotone in the value, and so is its rounded
    evaluation, so the values of one code lie next to each other in value
    order (a nan, sorted last, may split into several codes).
    """
    x = np.asarray(values, dtype=float)
    order = np.argsort(x)
    B, q, p, v, _ = model.arrays
    col = slice(j, j + 1)
    xo = x[order, None] * model.sign[col]
    parts = []
    for b in B[:, col]:
        for diff in (b - xo, xo - b):
            c, _, d, _ = _indices(diff, q[col], p[col], v[col], np.ones(1))
            parts += [c] if d is None else [c, d]
    bits = np.hstack(parts).view(np.int64)
    first = np.ones(len(x), dtype=bool)
    first[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    codes = np.empty(len(x), dtype=np.intp)
    codes[order] = np.cumsum(first) - 1
    return codes, x[order[first]]


def distinct_rows(columns):
    """(row, inverse): one row of each distinct combination of column states, and
    each row's index into them.

    columns holds one (state, index) per column: state[i] is the integer state of
    the column's i-th distinct value, and index[r] the value of row r. The states
    are combined into one mixed-radix int64 key per row, renumbered whenever the
    next digit would overflow it; distinct rows are numbered in key order.
    """
    n = len(columns[0][1])
    key, radix = np.zeros(n, dtype=np.int64), 1
    for state, index in columns:
        size = int(state.max(initial=0)) + 1
        if radix * size > 1 << 63:  # the next digit would overflow: renumber
            distinct, key = np.unique(key, return_inverse=True)
            radix = len(distinct)
        key = key * size + state[index]
        radix *= size
    if radix <= 2 * n:  # a count per possible key is cheaper than sorting the keys
        taken = np.bincount(key, minlength=radix) > 0
        inverse, count = (np.cumsum(taken) - 1)[key], int(taken.sum())
    else:
        distinct, inverse = np.unique(key, return_inverse=True)
        count = len(distinct)
    row = np.empty(count, dtype=np.intp)
    row[inverse] = np.arange(n)  # any row of each distinct row will do
    return row, inverse


def kernel_rows(model: ElectreModel, columns):
    """(R, kernel_row): the distinct kernel inputs of the rows and each row's index into R.

    columns holds one (values, index) per criterion: the distinct raw values and
    each row's index into them. Values are coded by criterion_codes, so
    classify_batch(model, R) gathered by kernel_row equals classify_batch on the
    rows themselves, bitwise.
    """
    if len(columns) != model.m:
        raise ModelError(f"the rows have {len(columns)} fields, model has {model.m} criteria")
    codes = [criterion_codes(model, j, values) for j, (values, _) in enumerate(columns)]
    row, kernel_row = distinct_rows([(c, index) for (c, _), (_, index) in zip(codes, columns)])
    R = np.column_stack([reps[c[index[row]]] for (c, reps), (_, index) in zip(codes, columns)])
    return R, kernel_row


def label_cells(row_of, labels, n_rows: int):
    """(rows, label, count) of each nonempty (distinct row, label) cell, by row then label."""
    n_labels = int(labels.max(initial=0)) + 1
    cells = np.bincount(row_of * n_labels + labels, minlength=n_rows * n_labels)
    rows, label = np.divmod(np.flatnonzero(cells), n_labels)
    return rows, label, cells[cells > 0]


def _checked_rows(model: ElectreModel, performances) -> np.ndarray:
    """Raw performances as an (n, m) matrix of finite values."""
    X = np.asarray(performances, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.m:
        raise ModelError(
            f"performance matrix has {X.shape[1] if X.ndim == 2 else '?'} columns, "
            f"model has {model.m} criteria"
        )
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ModelError(f"performance row {row} is not finite: {X[row].tolist()}")
    return X


def credibilities(model: ElectreModel, performances):
    """sigma(a, b_h) and sigma(b_h, a) of every row against every profile.

    performances: array-like of shape (n, m), raw (unoriented) values.
    Returns (sigma_ab, sigma_ba), each of shape (n, profiles), equal to one
    pass of the kernel but computed CHUNK_ROWS rows at a time.
    """
    X = _checked_rows(model, performances)
    B, q, p, v, w = model.arrays
    sig_ab = np.empty((len(X), len(B)))
    sig_ba = np.empty_like(sig_ab)
    for lo in range(0, len(X), CHUNK_ROWS):
        rows = slice(lo, lo + CHUNK_ROWS)
        x = X[rows] * model.sign
        for h, b in enumerate(B):
            sig_ab[rows, h] = _indices(b - x, q, p, v, w)[3]  # does x outrank b_h
            sig_ba[rows, h] = _indices(x - b, q, p, v, w)[3]  # does b_h outrank x
    return sig_ab, sig_ba


def assign(sig_ab, sig_ba, lam: float, procedure: str = "pessimistic") -> np.ndarray:
    """Categories 1..profiles+1 from the credibilities at cutting level lam.

    A tie at exactly lam counts as outranking. The pessimistic scan takes the
    highest profile that a outranks; the optimistic one the lowest profile
    that is preferred to a.
    """
    if procedure not in ("pessimistic", "optimistic"):
        raise ModelError(f"unknown assignment procedure {procedure!r}")
    if not 0.5 <= lam <= 1.0:
        raise ModelError(f"cutting level must lie in [0.5, 1.0], got {lam}")
    S = sig_ab >= lam
    if procedure == "pessimistic":
        hs = np.arange(1, S.shape[1] + 1)
        cats = (S * hs[None, :]).max(axis=1) + 1
    else:
        pref = (sig_ba >= lam) & ~S
        cats = np.where(pref.any(axis=1), pref.argmax(axis=1) + 1, S.shape[1] + 1)
    return cats.astype(int)


def cut_counts(sig_ab, sig_ba, truth, weights, grid, procedure: str = "pessimistic"):
    """Per lambda of the grid, the [truth, category] counts of the rows cut at it: a
    square int64 matrix indexed by the labels, up to the largest truth label or
    category. Row i counts weights[i] times, or once when weights is None."""
    truth = np.asarray(truth, dtype=np.int64)
    n = max(int(truth.max(initial=0)), sig_ab.shape[1] + 1) + 1
    return np.array([np.bincount(truth * n + assign(sig_ab, sig_ba, lam, procedure), weights,
                                 minlength=n * n).astype(np.int64).reshape(n, n)
                     for lam in grid])


def classify_batch(model: ElectreModel, performances, procedure: str = "pessimistic"):
    """Assign many alternatives at once.

    performances: array-like of shape (n, m), raw (unoriented) values.
    Returns (categories, sigma_ab) with categories an int array in 1..p and
    sigma_ab the per-profile credibilities kept for audit output.
    """
    sig_ab, sig_ba = credibilities(model, performances)
    return assign(sig_ab, sig_ba, model.cutting_level, procedure), sig_ab


# --- the scalar API: one-row views of the kernel ---


def _one_row(model: ElectreModel, a: Alternative, h: int, reverse: bool, j: int = 1):
    """Kernel outputs for a against b_h, or b_h against a when reverse is set."""
    if not 1 <= h <= model.profiles.count:
        raise ModelError(f"profile index {h} out of range 1..{model.profiles.count}")
    if not 1 <= j <= model.m:
        raise ModelError(f"criterion index {j} out of range 1..{model.m}")
    x = _checked_rows(model, [a.performances]) * model.sign
    B, q, p, v, w = model.arrays
    return _indices(x - B[h - 1] if reverse else B[h - 1] - x, q, p, v, w)


def partial_concordance(
    model: ElectreModel, a: Alternative, h: int, j: int, reverse: bool = False
) -> float:
    """c_j(a, b_h), or c_j(b_h, a) when reverse is set.

    1-based h and j, matching the category/criterion numbering.
    """
    return float(_one_row(model, a, h, reverse, j)[0][0, j - 1])


def global_concordance(
    model: ElectreModel, a: Alternative, h: int, reverse: bool = False
) -> float:
    """Weighted mean of the partial concordances: C(a, b_h)."""
    return float(_one_row(model, a, h, reverse)[1][0])


def partial_discordance(
    model: ElectreModel, a: Alternative, h: int, j: int, reverse: bool = False
) -> float:
    """d_j(a, b_h); zero whenever the criterion has no veto threshold."""
    d = _one_row(model, a, h, reverse, j)[2]
    return 0.0 if d is None else float(d[0, j - 1])


def credibility(
    model: ElectreModel, a: Alternative, h: int, reverse: bool = False
) -> float:
    """sigma(a, b_h): global concordance weakened by discordance above it."""
    return float(_one_row(model, a, h, reverse)[3][0])


def outranks(model: ElectreModel, a: Alternative, h: int, reverse: bool = False) -> bool:
    """Lambda-cut test; a tie at exactly lambda counts as outranking."""
    return credibility(model, a, h, reverse) >= model.cutting_level


def assign_pessimistic(model: ElectreModel, a: Alternative) -> Category:
    return Category(int(classify_batch(model, [a.performances], "pessimistic")[0][0]))


def assign_optimistic(model: ElectreModel, a: Alternative) -> Category:
    return Category(int(classify_batch(model, [a.performances], "optimistic")[0][0]))

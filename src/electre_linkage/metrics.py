"""Field comparators producing similarity performances in [0, 1]."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Comparator",
    "ComparatorError",
    "levenshtein",
    "levenshtein_normalized",
    "jaro",
    "jaro_winkler",
    "exact",
    "absolute_difference_normalized",
    "make_comparator",
    "COMPARATOR_KINDS",
]


class ComparatorError(ValueError):
    pass


def levenshtein(x: str, y: str) -> int:
    """Minimum single-character insert/delete/substitute edits from x to y."""
    if x == y:
        return 0
    if not x:
        return len(y)
    if not y:
        return len(x)
    if len(x) < len(y):
        x, y = y, x
    prev = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        cur = [i]
        for j, cy in enumerate(y, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (cx != cy)))
        prev = cur
    return prev[-1]


def levenshtein_normalized(x: str, y: str) -> float:
    n = max(len(x), len(y))
    if n == 0:
        return 1.0
    return 1.0 - levenshtein(x, y) / n


def jaro(x: str, y: str) -> float:
    if x == y:
        return 1.0
    if not x or not y:
        return 0.0
    window = max(len(x), len(y)) // 2 - 1
    used = [False] * len(y)
    matched_x = []
    for i, cx in enumerate(x):
        # the first unused cx of y within the window, by str.find
        hi = i + window + 1
        j = y.find(cx, max(0, i - window), hi)
        while j >= 0 and used[j]:
            j = y.find(cx, j + 1, hi)
        if j >= 0:
            used[j] = True
            matched_x.append(cx)
    m = len(matched_x)
    if m == 0:
        return 0.0
    matched_y = [cy for cy, u in zip(y, used) if u]
    t = sum(cx != cy for cx, cy in zip(matched_x, matched_y)) // 2
    return (m / len(x) + m / len(y) + (m - t) / m) / 3.0


def jaro_winkler(x: str, y: str, prefix_scale: float = 0.1, prefix_cap: int = 4) -> float:
    base = jaro(x, y)
    prefix = 0
    for cx, cy in zip(x[:prefix_cap], y[:prefix_cap]):
        if cx != cy:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def _equality_grid(vals_a, vals_b) -> np.ndarray:
    """1.0 where the values are equal, from codes of one dict over both sides."""
    codes = {}
    ca = np.array([codes.setdefault(v, len(codes)) for v in vals_a], dtype=np.intp)
    cb = np.array([codes.setdefault(v, len(codes)) for v in vals_b], dtype=np.intp)
    return (ca[:, None] == cb[None, :]).astype(np.float64)


def exact(x, y) -> float:
    return float(_equality_grid([x], [y])[0, 0])


def _parse_numbers(values) -> np.ndarray:
    """Each value as a float; values must parse as finite numbers."""
    out = np.empty(len(values))
    for k, v in enumerate(values):
        try:
            f = float(v)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ComparatorError(f"numeric comparator got non-numeric value: {exc}") from exc
        if not math.isfinite(f):
            raise ComparatorError(f"numeric comparator got non-finite value: {v!r}")
        out[k] = f
    return out


def _difference_grid(fa: np.ndarray, fb: np.ndarray, cap: float) -> np.ndarray:
    """1 - |a - b| / cap, floored at 0, for every a in fa and b in fb.

    A finite difference may overflow to inf, which floors to 0.0.
    """
    with np.errstate(over="ignore"):
        return np.maximum(0.0, 1.0 - np.abs(fa[:, None] - fb[None, :]) / float(cap))


def absolute_difference_normalized(x, y, cap: float = 10.0) -> float:
    """1 - |x - y| / cap, floored at 0; values must parse as finite numbers."""
    return float(_difference_grid(_parse_numbers([x]), _parse_numbers([y]), cap)[0, 0])


COMPARATOR_KINDS = (
    "levenshtein_normalized",
    "jaro",
    "jaro_winkler",
    "exact",
    "absolute_difference_normalized",
)


@dataclass(frozen=True)
class Comparator:
    kind: str
    prefix_scale: float = 0.1
    prefix_cap: int = 4
    cap: float = 10.0

    def __post_init__(self):
        if self.kind not in COMPARATOR_KINDS:
            raise ComparatorError(f"unknown comparator kind {self.kind!r}")
        scale, cap, prefix_cap = self.prefix_scale, self.cap, self.prefix_cap
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (scale, cap, prefix_cap))
        try:
            ok = (numbers and math.isfinite(scale) and math.isfinite(cap) and cap > 0
                  and isinstance(prefix_cap, int) and prefix_cap >= 0
                  and 0 <= scale and scale * prefix_cap <= 1)
        except OverflowError:  # an int too large for a float
            ok = False
        if not ok:
            # a Jaro-Winkler prefix bonus outside these bounds leaves [0, 1]
            raise ComparatorError(
                "comparator needs cap > 0, integer prefix_cap >= 0 and prefix_scale >= 0 "
                "with prefix_scale * prefix_cap <= 1, "
                f"got {scale!r}, {cap!r}, {prefix_cap!r}"
            )

    def compare(self, x, y) -> float:
        """The similarity of one value pair: the 1 x 1 grid for the exact and
        numeric kinds, one call of the scalar function for the string kinds."""
        if self.kind == "levenshtein_normalized":
            return levenshtein_normalized(str(x), str(y))
        if self.kind == "jaro":
            return jaro(str(x), str(y))
        if self.kind == "jaro_winkler":
            return jaro_winkler(str(x), str(y), self.prefix_scale, self.prefix_cap)
        return float(self.grid([x], [y])[0, 0])

    def grid(self, vals_a, vals_b) -> np.ndarray:
        """The (len(vals_a), len(vals_b)) float64 table of similarities.

        Exact and numeric tables are whole-array operations over values
        coded or parsed once; the string kinds call compare per value pair.
        """
        if self.kind == "exact":
            return _equality_grid(vals_a, vals_b)
        if self.kind == "absolute_difference_normalized":
            return _difference_grid(_parse_numbers(vals_a), _parse_numbers(vals_b), self.cap)
        return np.array([[self.compare(x, y) for y in vals_b] for x in vals_a],
                        dtype=np.float64).reshape(len(vals_a), len(vals_b))


def make_comparator(spec) -> Comparator:
    """Comparator from a config entry: either a kind string or a dict."""
    if isinstance(spec, str):
        return Comparator(kind=spec)
    kind = spec.get("kind")
    kwargs = {k: spec[k] for k in ("prefix_scale", "prefix_cap", "cap") if k in spec}
    return Comparator(kind=kind, **kwargs)

"""Field comparators producing similarity performances in [0, 1]."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    x_flags = [False] * len(x)
    y_flags = [False] * len(y)
    matches = 0
    for i, cx in enumerate(x):
        lo = max(0, i - window)
        hi = min(len(y), i + window + 1)
        for j in range(lo, hi):
            if not y_flags[j] and y[j] == cx:
                x_flags[i] = y_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, cx in enumerate(x):
        if x_flags[i]:
            while not y_flags[j]:
                j += 1
            if cx != y[j]:
                transpositions += 1
            j += 1
    t = transpositions // 2
    m = matches
    return (m / len(x) + m / len(y) + (m - t) / m) / 3.0


def jaro_winkler(x: str, y: str, prefix_scale: float = 0.1, prefix_cap: int = 4) -> float:
    base = jaro(x, y)
    prefix = 0
    for cx, cy in zip(x[:prefix_cap], y[:prefix_cap]):
        if cx != cy:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def exact(x, y) -> float:
    return 1.0 if x == y else 0.0


def absolute_difference_normalized(x, y, cap: float = 10.0) -> float:
    """1 - |x - y| / cap, floored at 0; values must parse as finite numbers."""
    try:
        fx, fy = float(x), float(y)
    except (TypeError, ValueError) as exc:
        raise ComparatorError(f"numeric comparator got non-numeric value: {exc}") from exc
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise ComparatorError(f"numeric comparator got non-finite value: {x!r}, {y!r}")
    return max(0.0, 1.0 - abs(fx - fy) / cap)


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
        finite = all(isinstance(x, (int, float)) and math.isfinite(x) for x in (scale, cap))
        if not (finite and cap > 0 and isinstance(prefix_cap, int) and prefix_cap >= 0):
            raise ComparatorError(
                "comparator needs finite prefix_scale, cap > 0 and integer prefix_cap >= 0, "
                f"got {scale!r}, {cap!r}, {prefix_cap!r}"
            )

    def compare(self, x, y) -> float:
        if self.kind == "levenshtein_normalized":
            return levenshtein_normalized(str(x), str(y))
        if self.kind == "jaro":
            return jaro(str(x), str(y))
        if self.kind == "jaro_winkler":
            return jaro_winkler(str(x), str(y), self.prefix_scale, self.prefix_cap)
        if self.kind == "exact":
            return exact(x, y)
        return absolute_difference_normalized(x, y, self.cap)


def make_comparator(spec) -> Comparator:
    """Comparator from a config entry: either a kind string or a dict."""
    if isinstance(spec, str):
        return Comparator(kind=spec)
    kind = spec.get("kind")
    kwargs = {k: spec[k] for k in ("prefix_scale", "prefix_cap", "cap") if k in spec}
    return Comparator(kind=kind, **kwargs)

"""Field comparators producing similarity performances in [0, 1]."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CHUNK_ROWS

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
    return float(_jaro_table([x], [y])[0, 0])


def jaro_winkler(x: str, y: str, prefix_scale: float = 0.1, prefix_cap: int = 4) -> float:
    return float(_jaro_table([x], [y], prefix_scale, prefix_cap)[0, 0])


def _factorize(values):
    """(distinct values in first-seen order, code of each value)."""
    codes = {}
    code = np.fromiter((codes.setdefault(v, len(codes)) for v in values),
                       dtype=np.intp, count=len(values))
    return list(codes), code


def _equality_grid(vals_a, vals_b) -> np.ndarray:
    """1.0 where the values are equal: where they share a code of one numbering."""
    code = _factorize(vals_a + vals_b)[1]
    return (code[:len(vals_a), None] == code[None, len(vals_a):]).astype(np.float64)


def exact(x, y) -> float:
    return float(_equality_grid([x], [y])[0, 0])


def _code_points(strings, pad: int) -> tuple:
    """(codes, lengths): each string's code points as a row of an int32 array
    padded with pad to the longest string, and each string's length."""
    lengths = np.array([len(s) for s in strings], dtype=np.intp)
    codes = np.full((len(strings), lengths.max(initial=0)), pad, dtype=np.int32)
    # surrogatepass keeps a lone surrogate as its code point, and NULs stay characters
    text = "".join(strings).encode("utf-32-le", "surrogatepass")
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = np.frombuffer(text, dtype="<u4")
    return codes, lengths


def _jaro_block(x, lx, y, ly) -> np.ndarray:
    """Jaro of every row of x against every row of y, zero where nothing matches.

    Each position of x takes the first unused equal character of y within the
    match window, for all pairs at once. x and y pad with values that never
    compare equal to each other or to a code point.
    """
    window = np.maximum(lx[:, None], ly[None, :]) // 2 - 1
    reach = int(window.max(initial=-1))
    distance = np.abs(np.arange(x.shape[1])[:, None] - np.arange(y.shape[1]))
    free = np.ones((len(x), len(y), y.shape[1]), dtype=bool)
    matched = np.zeros((len(x), len(y), x.shape[1]), dtype=bool)
    for i in range(x.shape[1]):
        lo, hi = max(0, i - reach), min(y.shape[1], i + reach + 1)
        if lo >= hi:
            continue
        near = distance[i, lo:hi] <= window[:, :, None]
        found = (x[:, None, i, None] == y[None, :, lo:hi]) & free[:, :, lo:hi] & near
        ia, ib = np.nonzero(found.any(axis=2))
        free[ia, ib, lo + found[ia, ib].argmax(axis=1)] = False
        matched[ia, ib, i] = True
    m = matched.sum(axis=2)
    # both sides' matched characters, pair by pair in string order: each pair
    # has m of them on either side, so the k-th ones line up
    mx = np.broadcast_to(x[:, None, :], matched.shape)[matched]
    my = np.broadcast_to(y[None, :, :], free.shape)[~free]
    pair = np.repeat(np.arange(m.size), m.ravel())
    t = np.bincount(pair[mx != my], minlength=m.size).reshape(m.shape) // 2
    lx, ly = np.broadcast_arrays(lx[:, None], ly[None, :])
    out = np.zeros(m.shape)
    some = m > 0
    m, t, lx, ly = m[some], t[some], lx[some], ly[some]
    out[some] = (m / lx + m / ly + (m - t) / m) / 3.0
    return out


def _jaro_table(vals_a, vals_b, prefix_scale: float = 0.0, prefix_cap: int = 0) -> np.ndarray:
    """The (len(vals_a), len(vals_b)) table of Jaro-Winkler similarities, or
    of Jaro similarities with the default prefix_scale and prefix_cap.

    Equal values score 1.0 and an empty value against another 0.0. The table
    is computed over chunks of at most CHUNK_ROWS value pairs, so the
    temporaries are bounded by CHUNK_ROWS times the longest value.
    """
    vals_a, vals_b = [str(v) for v in vals_a], [str(v) for v in vals_b]
    x, lx = _code_points(vals_a, -1)
    y, ly = _code_points(vals_b, -2)
    code = _factorize(vals_a + vals_b)[1]
    ca, cb = code[:len(vals_a)], code[len(vals_a):]
    table = np.empty((len(vals_a), len(vals_b)))
    for b0 in range(0, len(vals_b), CHUNK_ROWS):
        cols = slice(b0, b0 + CHUNK_ROWS)
        yb, lyb = y[cols, :ly[cols].max()], ly[cols]
        step = max(1, CHUNK_ROWS // len(lyb))
        for a0 in range(0, len(vals_a), step):
            rows = slice(a0, a0 + step)
            xa, lxa = x[rows, :lx[rows].max()], lx[rows]
            base = _jaro_block(xa, lxa, yb, lyb)
            base[ca[rows, None] == cb[None, cols]] = 1.0
            prefix = np.zeros(base.shape, dtype=np.intp)
            run = np.ones(base.shape, dtype=bool)
            for k in range(min(prefix_cap, xa.shape[1], yb.shape[1])):
                run &= xa[:, None, k] == yb[None, :, k]
                prefix += run
            table[rows, cols] = base + prefix * prefix_scale * (1.0 - base)
    return table


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

    def compare(self, x, y):
        """The similarity table of two lists of values, or the similarity of two
        values as the cell of their 1 x 1 table.

        Every kind but Levenshtein computes its table as whole-array operations
        over values coded, parsed or split into code points once; Levenshtein
        runs once per value pair.
        """
        if not (isinstance(x, list) and isinstance(y, list)):
            return float(self._table([x], [y])[0, 0])
        return self._table(x, y)

    def _table(self, vals_a: list, vals_b: list) -> np.ndarray:
        if self.kind == "exact":
            return _equality_grid(vals_a, vals_b)
        if self.kind == "absolute_difference_normalized":
            return _difference_grid(_parse_numbers(vals_a), _parse_numbers(vals_b), self.cap)
        if self.kind == "jaro":
            return _jaro_table(vals_a, vals_b)
        if self.kind == "jaro_winkler":
            return _jaro_table(vals_a, vals_b, self.prefix_scale, self.prefix_cap)
        return np.array([[levenshtein_normalized(str(x), str(y)) for y in vals_b]
                         for x in vals_a], dtype=np.float64).reshape(len(vals_a), len(vals_b))


def make_comparator(spec) -> Comparator:
    """Comparator from a config entry: either a kind string or a dict."""
    if isinstance(spec, str):
        return Comparator(kind=spec)
    kind = spec.get("kind")
    kwargs = {k: spec[k] for k in ("prefix_scale", "prefix_cap", "cap") if k in spec}
    return Comparator(kind=kind, **kwargs)

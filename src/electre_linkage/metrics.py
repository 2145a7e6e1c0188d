"""Field comparators producing similarity performances in [0, 1]."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CHUNK_ROWS, _DocumentReader

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


def _tally(x, y, flags_x, flags_y) -> tuple:
    """(matches, transpositions) of each pair of rows of x and y from its match
    flags on either side, in string order: each pair has as many flags on
    either side, so the k-th ones line up."""
    m = flags_x.sum(axis=2)
    mx = np.broadcast_to(x[:, None, :], flags_x.shape)[flags_x]
    my = np.broadcast_to(y[None, :, :], flags_y.shape)[flags_y]
    pair = np.repeat(np.arange(m.size), m.ravel())
    return m, np.bincount(pair[mx != my], minlength=m.size).reshape(m.shape) // 2


_BIT = np.array([1 << k for k in range(64)], dtype=np.uint64)
_LOW = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)


def _jaro_masks(x, lx, y, ly) -> tuple:
    """(matches, transpositions) of every row of x against every row of y, on
    bit masks: the bit-parallel Jaro of RapidFuzz, after Myers (J. ACM 1999).

    Bit k of word w stands for position 64 w + k of a y value, over as many
    words as the longest y value needs. Per y value and character of x, a
    mask marks where the character occurs; x's padding occurs nowhere. Each
    position p of x takes the lowest free bit of its character's mask inside
    the match window, in the first word that holds one, for all pairs at once.
    """
    words = max(1, -(-y.shape[1] // 64))
    # x's characters, each once: np.unique's first call in a process holds
    # 1.2 MB more on numpy 2.4
    chars = np.sort(x, axis=None)
    alphabet = np.concatenate((chars[:1], chars[1:][chars[1:] != chars[:-1]]))
    masks = np.zeros((len(alphabet) + 1, len(y), words), dtype=np.uint64)
    if len(alphabet):
        # a character of y that x lacks goes to the last row, which x never reads
        code = np.searchsorted(alphabet, y)
        code[alphabet.take(code, mode="clip") != y] = len(alphabet)
        word, bit = np.divmod(np.arange(y.shape[1]), 64)
        np.bitwise_or.at(masks, (code, np.arange(len(y))[:, None], word), _BIT[bit])
    code = np.searchsorted(alphabet, x)
    window = np.maximum(lx[:, None], ly[None, :]) // 2 - 1
    reach = int(window.max(initial=-1))
    # position 0's window: bits 0 to window, over the words
    bound = _LOW.take(window[..., None] + 1 - np.arange(0, 64 * words, 64), mode="clip")
    first = bound[..., 0]
    free = np.full(bound.shape, _LOW[-1])
    matched = np.zeros((x.shape[1], *window.shape, 1), dtype=bool)
    for p in range(x.shape[1]):
        found = masks[code[:, p]]
        found &= bound
        found &= free
        found &= -found  # the lowest candidate of each word
        if words > 1:  # kept in the first word that holds one
            held = np.logical_or.accumulate(found != 0, axis=2)
            found[..., 1:] *= ~held[..., :-1]
            matched[p] = held[..., -1:]
            carry = bound[..., :-1] >> 63
        else:
            np.not_equal(found, 0, out=matched[p])
        free ^= found
        # the window moves one bit up, bit 63 of a word into bit 0 of the next,
        # and keeps bit 0 while p is below the window
        bound <<= 1
        if words > 1:
            bound[..., 1:] |= carry
        if p < reach:
            first |= window > p
    # bit k of word w of each pair as its (64 w + k)-th flag, whatever the
    # machine's byte order
    taken = np.unpackbits((~free).astype("<u8").view(np.uint8), axis=2,
                          count=y.shape[1], bitorder="little")
    return _tally(x, y, matched[..., 0].transpose(1, 2, 0), taken.view(bool))


def _jaro_table(vals_a, vals_b, prefix_scale: float = 0.0, prefix_cap: int = 0) -> np.ndarray:
    """The (len(vals_a), len(vals_b)) table of Jaro-Winkler similarities, or
    of Jaro similarities with the default prefix_scale and prefix_cap.

    Equal values score 1.0 and an empty value against another 0.0. The table
    is computed by _jaro_masks over chunks of at most CHUNK_ROWS // W**2
    value pairs, where W is the number of 64-bit words the longest value
    needs, so the temporaries stay within about CHUNK_ROWS * 512 bytes.
    """
    vals_a, vals_b = [str(v) for v in vals_a], [str(v) for v in vals_b]
    x, lx = _code_points(vals_a, -1)
    y, ly = _code_points(vals_b, -2)
    code = _factorize(vals_a + vals_b)[1]
    ca, cb = code[:len(vals_a)], code[len(vals_a):]
    table = np.empty((len(vals_a), len(vals_b)))
    words = max(1, -(-max(x.shape[1], y.shape[1]) // 64))
    chunk = max(1, CHUNK_ROWS // words ** 2)
    for b0 in range(0, len(vals_b), chunk):
        cols = slice(b0, b0 + chunk)
        yb, lyb = y[cols, :ly[cols].max()], ly[cols]
        step = max(1, chunk // len(lyb))
        for a0 in range(0, len(vals_a), step):
            rows = slice(a0, a0 + step)
            xa, lxa = x[rows, :lx[rows].max()], lx[rows]
            m, t = _jaro_masks(xa, lxa, yb, lyb)
            # where nothing matches, m is 0 and so is every term
            base = (m / np.maximum(lxa, 1)[:, None] + m / np.maximum(lyb, 1)
                    + (m - t) / np.maximum(m, 1)) / 3.0
            base[ca[rows, None] == cb[None, cols]] = 1.0
            lead = min(prefix_cap, xa.shape[1], yb.shape[1])
            if lead:
                agree = xa[:, None, :lead] == yb[None, :, :lead]
                prefix = np.logical_and.accumulate(agree, axis=2).sum(axis=2)
                base = base + prefix * prefix_scale * (1.0 - base)
            table[rows, cols] = base
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


def make_comparator(spec, doc=_DocumentReader(ComparatorError, "comparator entry"),
                    path: str = "") -> Comparator:
    """Comparator from a config entry: either a kind string or an object of a "kind" and
    any of "prefix_scale", "prefix_cap" and "cap". An unknown or missing key, a node of
    the wrong shape and a refused value are doc's error, naming the entry's path."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    doc.keys(spec, path, ("kind",), dict.fromkeys(("prefix_scale", "prefix_cap", "cap")))
    try:
        return Comparator(**spec)
    except ComparatorError as exc:
        raise doc.refuse(path, str(exc)) from None

"""Electre Tri sorting machinery.

Concordance / discordance / credibility indices, the lambda-cut outranking
test and the pessimistic and optimistic assignment procedures. All formulas
are written for gain-oriented criteria; cost criteria are normalized by
negating performances at model construction time.
"""

from __future__ import annotations

import json
import math
import reprlib
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
    "column_fields",
    "cell_index",
    "pair_values",
    "kernel_rows",
    "label_cells",
    "assign",
    "cut_counts",
    "classify_batch",
]

CATEGORY_LABELS_3 = {1: "nonmatch", 2: "potential match", 3: "match"}
# rows per kernel pass and per written chunk, and value pairs per Jaro mask pass
# (CHUNK_ROWS // W**2 where the longest value takes W 64-bit words), bounding
# their memory
CHUNK_ROWS = 1 << 14
# the keys an int32 holds: distinct_rows numbers a key space this large by np.unique
INT32_KEYS = 1 << 31
PROCEDURES = ("pessimistic", "optimistic")  # the assignment procedures assign knows


class ModelError(ValueError):
    """Invalid model parameters or inconsistent usage."""


def _is_bool(x) -> bool:
    """JSON true and false load as ints, but no model number may be one."""
    return isinstance(x, bool)


@dataclass(frozen=True)
class _DocumentReader:
    """Parses a JSON document and reads its nodes, refusing with error a node of the wrong
    shape and naming its path, as in criteria[1].weight."""

    error: type
    what: str  # the document, as messages name it

    def refuse(self, path: str, problem: str) -> Exception:
        return self.error(f"malformed {self.what}: {path + ': ' if path else ''}{problem}")

    def parse(self, text, source: str = ""):
        """The JSON value of text: a str, or the bytes of the file source. Bytes that are
        not UTF-8, invalid JSON and a key that an object repeats are refused, naming source."""
        def unique(pairs):
            node = {}
            for key, value in pairs:
                if key in node:
                    raise self.refuse(source, f"repeated key {key!r}")
                node[key] = value
            return node

        try:
            return json.loads(text.decode() if isinstance(text, bytes) else text,
                              object_pairs_hook=unique)
        except UnicodeDecodeError as exc:
            raise self.refuse(source, f"not UTF-8: {exc}") from None
        except json.JSONDecodeError as exc:
            raise self.refuse(source, f"not valid JSON: {exc}") from None

    def keys(self, node, path: str, required, optional: dict) -> list:
        """The values of an object's required keys, then of its optional ones (their
        defaults where absent); a key the object may not hold is refused."""
        if not isinstance(node, dict):
            raise self.refuse(path, f"expected an object, got {reprlib.repr(node)}")
        for key in node:
            if key not in required and key not in optional:
                raise self.refuse(path, f"unknown key {key!r}")
        for key in required:
            if key not in node:
                raise self.error(f"{self.what} missing key {path + '.' if path else ''}{key}")
        return [node[key] for key in required] + [node.get(key, v) for key, v in optional.items()]

    def items(self, node, path: str) -> list:
        """(path, item) of each item of a list."""
        if not isinstance(node, list):
            raise self.refuse(path, f"expected a list, got {reprlib.repr(node)}")
        return [(f"{path}[{i}]", item) for i, item in enumerate(node)]

    def number(self, value, path: str, infinite: bool = False):
        """A number as the document holds it: not a bool, a string or null, not nan, and
        finite unless infinite is set (an integer past a float's range is not finite)."""
        ok = isinstance(value, (int, float)) and not _is_bool(value)
        try:
            ok = ok and (math.isfinite(value) or infinite and not math.isnan(value))
        except OverflowError:
            ok = False
        if not ok:
            raise self.refuse(path, f"expected a {'' if infinite else 'finite '}number, "
                                    f"got {reprlib.repr(value)}")
        return value


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
        """The model of a document with the keys to_dict writes ("direction", "v" and
        "epsilon" may be left out). An unknown or missing key and a value of the wrong
        type are a ModelError naming its path."""
        doc = _DocumentReader(ModelError, "model document")
        nodes, rows, lam, epsilon = doc.keys(d, "", ("criteria", "profiles", "lambda"),
                                             {"epsilon": 0.01})
        criteria = []
        for path, node in doc.items(nodes, "criteria"):
            name, weight, q, p, direction, v = doc.keys(
                node, path, ("name", "weight", "q", "p"), {"direction": "gain", "v": None})
            if not isinstance(name, str):
                raise doc.refuse(f"{path}.name", f"expected a string, got {reprlib.repr(name)}")
            criteria.append(Criterion(
                name, doc.number(weight, f"{path}.weight"), doc.number(q, f"{path}.q"),
                doc.number(p, f"{path}.p"),
                None if v is None else doc.number(v, f"{path}.v", infinite=True), direction))
        # floats, so a document written back keeps the bytes of one with 0.0 for 0
        profiles = ProfileSet(tuple(tuple(float(doc.number(x, path))
                                          for path, x in doc.items(row, row_path))
                                    for row_path, row in doc.items(rows, "profiles")))
        return cls(tuple(criteria), profiles, doc.number(lam, "lambda"),
                   doc.number(epsilon, "epsilon"))

    @classmethod
    def from_json(cls, text: str) -> "ElectreModel":
        return cls.from_dict(_DocumentReader(ModelError, "model document").parse(text))


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
    value is swapped for another of its code. Returns the code of each value,
    numbered in value order from 0.

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
    return codes


def _distinct_cells(table):
    """(distinct values of a table by bit pattern, each cell's int32 index into them).

    Keyed by bits, -0.0 stays apart from 0.0 and each nan payload from the others.
    """
    bits = table.view(np.int64)
    ordered = np.sort(bits, axis=None)
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    del ordered
    cell = np.empty(table.shape, dtype=np.int32)  # before the intp lookup: less peak RSS
    cell[...] = np.searchsorted(distinct, bits)
    return distinct.view(np.float64), cell


def column_fields(columns) -> list:
    """The fields (code_a, code_b, values, cell) of a column form, one (values, index) per
    column, index each row's index into values: each row is an A code on one B position
    and each value its own cell, so the cross product of the fields is the rows, in order."""
    return [(index, np.zeros(1, dtype=np.intp), values,
             np.arange(len(values), dtype=np.int32)[:, None]) for values, index in columns]


def cell_index(code_a, code_b, cell):
    """A field's int32 index into its values for each pair of the row-major cross product
    of code_a and code_b, read by table rows: cell[code_a][:, code_b] taken straight into
    an array made first, so no per-pair code is gathered (an empty side reads as 0 x k or
    k x 0)."""
    index = np.empty((len(code_a), len(code_b)), dtype=np.int32)
    # mode="raise" would buffer the rows before writing them into index
    np.take(cell[code_a], code_b, axis=1, out=index, mode="clip")
    return index.ravel()


def pair_values(fields, rows) -> np.ndarray:
    """The values of the pairs at positions rows of the cross product of fields, a row each."""
    a, b = np.divmod(rows, max(len(fields[0][1]), 1))
    return np.column_stack([values[cell[code_a[a], code_b[b]]]
                            for code_a, code_b, values, cell in fields])


def distinct_rows(fields, states):
    """(R, inverse): the values of one row of each distinct row of the row-major cross
    product of fields, and each row's index into R.

    fields holds one (code_a, code_b, values, cell) per column, as PairBlock.fields holds
    them (column_fields makes them of a column form), and states the integer state of each
    value of each column; rows are alike when their states agree. Rows are numbered by a
    mixed-radix key of their states, and R is in key order.

    A row's state in a column depends only on its (code_a, code_b) cell. While the key
    space is below INT32_KEYS and at most twice the rows, each column's states are
    gathered into its cell table once, times the radix of the columns after it (and by B
    positions where that makes the table no larger), and the int32 key of each chunk of
    whole A-rows (at most CHUNK_ROWS rows, or one A-row) is the sum of those tables' rows.
    Each key that occurs is marked with the last row that takes it and ranked by a
    cumulative sum, and each key is replaced by its rank: an int32 inverse. A larger key
    space is numbered from an int64 key per row, renumbered by np.unique whenever the next
    digit would overflow it: an intp inverse. R is read from one row of each distinct row.
    """
    na, nb = len(fields[0][0]), len(fields[0][1])
    sizes = [int(state.max(initial=0)) + 1 for state in states]
    space = math.prod(sizes)
    if space < INT32_KEYS and space <= 2 * na * nb:
        stride, parts = space, []
        for size, state, (_, code_b, _, cell) in zip(sizes, states, fields):
            stride //= size
            table = (state.astype(np.int32) * stride)[cell]
            parts.append((table[:, code_b], None) if nb <= table.shape[1] else (table, code_b))
        key = np.zeros((na, nb), dtype=np.int32)
        # 1 + the last row that takes each key, 0 for a key no row takes
        last = np.zeros(space, dtype=np.int32 if na * nb < INT32_KEYS else np.intp)
        step = max(1, CHUNK_ROWS // nb)
        chunks = [slice(a0, a0 + step) for a0 in range(0, na, step)]
        for a in chunks:
            chunk = key[a]
            for (table, code_b), (code_a, _, _, _) in zip(parts, fields):
                part = np.take(table, code_a[a], axis=0)
                chunk += part if code_b is None else np.take(part, code_b, axis=1)
            last[chunk.ravel()] = np.arange(a.start * nb, a.start * nb + chunk.size) + 1
        taken = last > 0
        rank = np.cumsum(taken, dtype=np.int32) - 1
        for a in chunks:
            key[a] = np.take(rank, key[a])
        inverse, row = key.ravel(), last[taken] - 1
    else:
        key, radix = np.zeros(na * nb, dtype=np.int64), 1
        for size, state, (code_a, code_b, _, cell) in zip(sizes, states, fields):
            if radix * size > 1 << 63:  # the next digit would overflow: renumber
                distinct, key = np.unique(key, return_inverse=True)
                radix = len(distinct)
            key = key * size + state[cell_index(code_a, code_b, cell)]
            radix *= size
        distinct, inverse = np.unique(key, return_inverse=True)
        row = np.empty(len(distinct), dtype=np.intp)
        row[inverse] = np.arange(na * nb)
    a, b = np.divmod(row, max(nb, 1))
    return np.column_stack([values[cell[code_a[a], code_b[b]]]
                            for code_a, code_b, values, cell in fields]), inverse


def _check_finite(fields, error, what: str) -> None:
    """Raise error naming the first pair of fields' product that takes a non-finite value;
    values no pair takes pass."""
    flags = [(a, b, ~np.isfinite(values), cell) for a, b, values, cell in fields]
    if any(flag.any() for _, _, flag, _ in flags):
        rows = np.arange(len(fields[0][0]) * len(fields[0][1]))
        bad = np.flatnonzero(pair_values(flags, rows).any(axis=1))[:1]
        if bad.size:
            raise error(f"{what} {bad[0]} is not finite: {pair_values(fields, bad)[0].tolist()}")


def kernel_rows(model: ElectreModel, fields):
    """(R, kernel_row): the distinct kernel inputs of the rows of fields, one (code_a,
    code_b, values, cell) per criterion as distinct_rows takes them, and each row's index
    into R.

    Rows are alike when their values share criterion_codes codes, so classify_batch(model,
    R) gathered by kernel_row equals classify_batch on the rows themselves, bitwise,
    whichever row R is read from. A row that takes a non-finite value is refused
    (_check_finite).
    """
    if len(fields) != model.m:
        raise ModelError(f"the rows have {len(fields)} fields, model has {model.m} criteria")
    _check_finite(fields, ModelError, "performance row")
    codes = [criterion_codes(model, j, values) for j, (_, _, values, _) in enumerate(fields)]
    return distinct_rows(fields, codes)


def label_cells(R, row_of, labels):
    """(X, label, count) of each nonempty (row of R, label 1 or more) cell, by row then label:
    the cell's row of R, its label and its rows. row_of is each row's index into R."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":  # as a list of no labels reads
        labels = labels.astype(np.intp)
    n_labels = int(labels.max(initial=0)) + 1
    cells = np.zeros(len(R) * n_labels, dtype=np.intp)
    # counted by chunks no shorter than the counts, so no intp code is made per row
    step = max(CHUNK_ROWS, len(cells))
    for lo in range(0, len(labels), step):
        code = np.multiply(row_of[lo:lo + step], n_labels, dtype=np.intp)
        code += labels[lo:lo + step]
        cells += np.bincount(code, minlength=len(cells))
    cells[::n_labels] = 0
    rows, label = np.divmod(np.flatnonzero(cells), n_labels)
    return R[rows], label, cells[cells > 0]


def _checked_rows(model: ElectreModel, performances) -> np.ndarray:
    """Raw performances as an (n, m) matrix of finite values."""
    X = np.asarray(performances, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.m:
        raise ModelError(
            f"performance matrix has {X.shape[1] if X.ndim == 2 else '?'} columns, "
            f"model has {model.m} criteria"
        )
    _check_finite(column_fields([(col, np.arange(len(X))) for col in X.T]), ModelError,
                  "performance row")
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
    if procedure not in PROCEDURES:
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


def cut_counts(model: ElectreModel, fields, truth, grid, procedure: str = "pessimistic"):
    """Per lambda of the grid, the [truth, category] counts of the rows cut at it: a
    square int64 matrix indexed by the labels, up to the largest truth label or
    category. fields are the rows as kernel_rows takes and checks them; each (kernel row,
    truth) cell of truth 1 or more is cut once and counts its rows."""
    X, label, count = label_cells(*kernel_rows(model, fields), truth)
    sig_ab, sig_ba = credibilities(model, X)
    n = max(int(label.max(initial=0)), model.category_count) + 1
    return np.array([np.bincount(label * n + assign(sig_ab, sig_ba, lam, procedure), count,
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

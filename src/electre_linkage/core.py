"""Electre Tri sorting machinery.

Concordance / discordance / credibility indices, the lambda-cut outranking
test and the pessimistic and optimistic assignment procedures. All formulas
are written for gain-oriented criteria; cost criteria are normalized by
negating performances at model construction time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

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
    "classify_batch",
]

CATEGORY_LABELS_3 = {1: "nonmatch", 2: "potential match", 3: "match"}


class ModelError(ValueError):
    """Invalid model parameters or inconsistent usage."""


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
        if not all(math.isfinite(x) for x in numbers) or (
            self.veto is not None and math.isnan(self.veto)
        ):
            raise ModelError(
                f"criterion {self.name!r}: weight and thresholds must be finite, got "
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

    def check_separation(self, epsilon: float, signs=None) -> None:
        """Successive profiles must grow by epsilon in gain orientation."""
        for h in range(1, self.count):
            for j, (lo, hi) in enumerate(zip(self.values[h - 1], self.values[h])):
                s = 1.0 if signs is None else signs[j]
                if s * hi < s * lo + epsilon:
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
    _arrays: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.criteria) < 1:
            raise ModelError("model needs at least one criterion")
        if self.profiles.category_count < 2:
            raise ModelError("model needs at least two categories")
        if not 0.5 <= self.cutting_level <= 1.0:
            raise ModelError(
                f"cutting level must lie in [0.5, 1.0], got {self.cutting_level}"
            )
        if all(c.weight == 0 for c in self.criteria):
            raise ModelError("at least one criterion must have positive weight")
        for row in self.profiles.values:
            if len(row) != len(self.criteria):
                raise ModelError("profile row length != criterion count")
            if not all(math.isfinite(x) for x in row):
                raise ModelError(f"profile values must be finite, got {row}")
        self.profiles.check_separation(self.epsilon, self._sign())

    @property
    def m(self) -> int:
        return len(self.criteria)

    @property
    def category_count(self) -> int:
        return self.profiles.category_count

    def oriented(self, performances) -> np.ndarray:
        """Performance vector with cost criteria negated (gain orientation)."""
        x = np.asarray(performances, dtype=float)
        return x * self._sign()

    def _sign(self) -> np.ndarray:
        if "sign" not in self._arrays:
            self._arrays["sign"] = np.array(
                [1.0 if c.direction == "gain" else -1.0 for c in self.criteria]
            )
        return self._arrays["sign"]

    def arrays(self):
        """Cached (profiles, q, p, v, w) arrays, gain-oriented; v is nan where absent."""
        if "packed" not in self._arrays:
            prof = np.asarray(self.profiles.values, dtype=float) * self._sign()
            q = np.array([c.indifference for c in self.criteria])
            p = np.array([c.preference for c in self.criteria])
            v = np.array(
                [math.nan if c.veto is None else c.veto for c in self.criteria]
            )
            w = np.array([c.weight for c in self.criteria])
            self._arrays["packed"] = (prof, q, p, v, w)
        return self._arrays["packed"]

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
            profiles = ProfileSet(tuple(tuple(float(x) for x in row) for row in d["profiles"]))
            return cls(criteria, profiles, d["lambda"], d.get("epsilon", 0.01))
        except ModelError:
            raise
        except KeyError as exc:
            raise ModelError(f"model document missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise ModelError(f"malformed model document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ElectreModel":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"model file is not valid JSON: {exc}") from exc
        return cls.from_dict(d)


def _check_indices(model: ElectreModel, h: int, j: int | None = None) -> None:
    if not 1 <= h <= model.profiles.count:
        raise ModelError(f"profile index {h} out of range 1..{model.profiles.count}")
    if j is not None and not 1 <= j <= model.m:
        raise ModelError(f"criterion index {j} out of range 1..{model.m}")


def _partial_concordance_value(diff: float, q: float, p: float) -> float:
    # diff = g_j(y) - g_j(x) when asking whether x outranks y
    if diff <= q:
        return 1.0
    if diff >= p:
        return 0.0
    return (p - diff) / (p - q)


def _partial_discordance_value(diff: float, p: float, v: float | None) -> float:
    if v is None:
        return 0.0
    if diff <= p:
        return 0.0
    if diff >= v:
        return 1.0
    return (diff - p) / (v - p)


def partial_concordance(
    model: ElectreModel, a: Alternative, h: int, j: int, reverse: bool = False
) -> float:
    """c_j(a, b_h), or c_j(b_h, a) when reverse is set.

    1-based h and j, matching the category/criterion numbering.
    """
    _check_indices(model, h, j)
    crit = model.criteria[j - 1]
    ga = model.oriented(a.performances)[j - 1]
    gb = model.arrays()[0][h - 1, j - 1]
    diff = (ga - gb) if reverse else (gb - ga)
    return _partial_concordance_value(diff, crit.indifference, crit.preference)


def global_concordance(
    model: ElectreModel, a: Alternative, h: int, reverse: bool = False
) -> float:
    """Weighted mean of the partial concordances: C(a, b_h)."""
    _check_indices(model, h)
    total = sum(c.weight for c in model.criteria)
    acc = 0.0
    for j in range(1, model.m + 1):
        acc += model.criteria[j - 1].weight * partial_concordance(model, a, h, j, reverse)
    return acc / total


def partial_discordance(
    model: ElectreModel, a: Alternative, h: int, j: int, reverse: bool = False
) -> float:
    """d_j(a, b_h); zero whenever the criterion has no veto threshold."""
    _check_indices(model, h, j)
    crit = model.criteria[j - 1]
    ga = model.oriented(a.performances)[j - 1]
    gb = model.arrays()[0][h - 1, j - 1]
    diff = (ga - gb) if reverse else (gb - ga)
    return _partial_discordance_value(diff, crit.preference, crit.veto)


def credibility(
    model: ElectreModel, a: Alternative, h: int, reverse: bool = False
) -> float:
    """sigma(a, b_h): global concordance weakened by discordance above it."""
    _check_indices(model, h)
    conc = global_concordance(model, a, h, reverse)
    sigma = conc
    for j in range(1, model.m + 1):
        d = partial_discordance(model, a, h, j, reverse)
        if d > conc:
            if d >= 1.0:
                return 0.0
            sigma *= (1.0 - d) / (1.0 - conc)
    return sigma


def outranks(model: ElectreModel, a: Alternative, h: int, reverse: bool = False) -> bool:
    """Lambda-cut test; a tie at exactly lambda counts as outranking."""
    return credibility(model, a, h, reverse) >= model.cutting_level


def assign_pessimistic(model: ElectreModel, a: Alternative) -> Category:
    for h in range(model.profiles.count, 0, -1):
        if outranks(model, a, h):
            return Category(h + 1)
    return Category(1)


def assign_optimistic(model: ElectreModel, a: Alternative) -> Category:
    for h in range(1, model.profiles.count + 1):
        if outranks(model, a, h, reverse=True) and not outranks(model, a, h):
            return Category(h)
    return Category(model.category_count)


# --- vectorized path for large pair streams ---


def _batch_indices(X: np.ndarray, B: np.ndarray, q, p, v, w):
    """Credibility of every row of X against every profile row of B.

    Returns (sigma_ab, sigma_ba), each of shape (n, profiles).
    """
    n = X.shape[0]
    nprof = B.shape[0]
    wsum = w.sum()
    sig_ab = np.empty((n, nprof))
    sig_ba = np.empty((n, nprof))
    has_veto = ~np.isnan(v)
    for hidx in range(nprof):
        for diff, out in (
            (B[hidx][None, :] - X, sig_ab),  # does x outrank b_h
            (X - B[hidx][None, :], sig_ba),  # does b_h outrank x
        ):
            ramp = p - q
            with np.errstate(divide="ignore", invalid="ignore"):
                c = np.where(
                    diff <= q,
                    1.0,
                    np.where(diff >= p, 0.0, (p - diff) / np.where(ramp > 0, ramp, 1.0)),
                )
            C = c @ w / wsum
            if has_veto.any():
                span = v - p
                with np.errstate(divide="ignore", invalid="ignore"):
                    d = np.where(
                        has_veto & (diff > p),
                        np.where(
                            diff >= v, 1.0, (diff - p) / np.where(span > 0, span, 1.0)
                        ),
                        0.0,
                    )
                mask = d > C[:, None]
                denom = 1.0 - C[:, None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    factors = np.where(mask, (1.0 - d) / np.where(denom > 0, denom, 1.0), 1.0)
                sigma = C * factors.prod(axis=1)
                sigma[np.any(mask & (d >= 1.0), axis=1)] = 0.0
            else:
                sigma = C
            out[:, hidx] = sigma
    return sig_ab, sig_ba


def classify_batch(model: ElectreModel, performances, procedure: str = "pessimistic"):
    """Assign many alternatives at once.

    performances: array-like of shape (n, m), raw (unoriented) values.
    Returns (categories, sigma_ab) with categories an int array in 1..p and
    sigma_ab the per-profile credibilities kept for audit output.
    """
    if procedure not in ("pessimistic", "optimistic"):
        raise ModelError(f"unknown assignment procedure {procedure!r}")
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
    B, q, p, v, w = model.arrays()
    X = X * model._sign()[None, :]
    sig_ab, sig_ba = _batch_indices(X, B, q, p, v, w)
    lam = model.cutting_level
    S = sig_ab >= lam
    if procedure == "pessimistic":
        hs = np.arange(1, B.shape[0] + 1)
        cats = (S * hs[None, :]).max(axis=1) + 1
    else:
        pref = (sig_ba >= lam) & ~S
        any_pref = pref.any(axis=1)
        cats = np.where(any_pref, pref.argmax(axis=1) + 1, model.category_count)
    return cats.astype(int), sig_ab

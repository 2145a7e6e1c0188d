"""Likelihood-ratio baseline classifier.

Per-field agreement probabilities among links (m) and nonlinks (u) are
estimated by Laplace-smoothed counting from labeled pairs; the log2 ratio
is thresholded by Lower/Upper into the three-way decision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FsModel", "FsError", "fit_fs", "fs_decide"]

AGREEMENT_THRESHOLD = 0.88  # a field agrees when its similarity reaches this
DEFAULT_BAND_RATE = 0.01


class FsError(ValueError):
    pass


@dataclass(frozen=True)
class FsModel:
    m_probs: tuple[float, ...]
    u_probs: tuple[float, ...]
    agreement_thresholds: tuple[float, ...]
    lower: float
    upper: float

    def __post_init__(self):
        values = (*self.m_probs, *self.u_probs, *self.agreement_thresholds, self.lower, self.upper)
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values)
        if not (numbers and all(map(math.isfinite, values))) or not (
            len(self.m_probs) == len(self.u_probs) == len(self.agreement_thresholds)
        ):
            raise FsError(f"baseline model needs equal-length lists of finite numbers: {self}")
        if self.lower > self.upper:
            raise FsError(f"need Lower <= Upper, got {self.lower} > {self.upper}")
        for prob in (*self.m_probs, *self.u_probs):
            if not 0 < prob < 1:
                raise FsError(f"probability {prob} outside (0, 1)")

    @property
    def field_count(self) -> int:
        return len(self.m_probs)

    def log_ratio(self, X) -> np.ndarray:
        """log2 R of every row of X under conditional independence of the field agreements.

        The per-field weights are added column by column in field order, from 0.0.
        """
        X = np.asarray(X, dtype=float)
        agree = X >= np.asarray(self.agreement_thresholds)
        total = np.zeros(X.shape[:-1])
        for j, (m, u) in enumerate(zip(self.m_probs, self.u_probs)):
            total += np.where(agree[..., j], math.log2(m / u), math.log2((1 - m) / (1 - u)))
        return total

    def to_json(self) -> str:
        return json.dumps(
            {
                "m_probs": list(self.m_probs),
                "u_probs": list(self.u_probs),
                "agreement_thresholds": list(self.agreement_thresholds),
                "lower": self.lower,
                "upper": self.upper,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FsModel":
        try:
            d = json.loads(text)
            return cls(
                tuple(d["m_probs"]),
                tuple(d["u_probs"]),
                tuple(d["agreement_thresholds"]),
                d["lower"],
                d["upper"],
            )
        except (json.JSONDecodeError, KeyError, TypeError, OverflowError) as exc:
            raise FsError(f"malformed baseline model document: {exc!r}") from exc


def fit_fs(X, y, band_rate: float = DEFAULT_BAND_RATE) -> FsModel:
    """Supervised fit from performances X (n, m) and category indices y.

    Pairs labeled C3 count as links, everything else as nonlinks; 0 marks an
    unlabeled pair. Lower and Upper default to the log2-ratio quantiles that
    keep about band_rate of the training pairs inside the potential-match band.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if len(y) == 0:
        raise FsError("no labeled pairs to fit on")
    if (y == 0).any():
        raise FsError(f"pair {int(np.argmax(y == 0))} has no label")
    is_link = y == 3
    n_link = int(is_link.sum())
    n_nonlink = len(y) - n_link
    if n_link == 0:
        raise FsError("training pairs contain no links (C3)")
    if n_nonlink == 0:
        raise FsError("training pairs contain no nonlinks")
    agree = X >= AGREEMENT_THRESHOLD
    link_agree = agree[is_link].sum(axis=0).tolist()
    nonlink_agree = agree[~is_link].sum(axis=0).tolist()

    # Laplace smoothing with pseudo-count 1
    m_probs = tuple((c + 1) / (n_link + 2) for c in link_agree)
    u_probs = tuple((c + 1) / (n_nonlink + 2) for c in nonlink_agree)

    thresholds = (AGREEMENT_THRESHOLD,) * X.shape[1]
    probe = FsModel(m_probs, u_probs, thresholds, lower=0.0, upper=0.0)
    score = probe.log_ratio(X)
    order = np.lexsort((is_link, score))
    scores, links = score[order], is_link[order]
    cut = _best_cut(scores, links)
    lower, upper = _band_around(scores, cut, band_rate)
    return FsModel(m_probs, u_probs, thresholds, lower, upper)


def _best_cut(scores, is_link) -> float:
    """Score threshold minimizing training errors for 'link iff score > cut'.

    scores ascending, ties ordered nonlink first. The first strict minimum
    over the cuts between consecutive scores wins; the cut below everything
    (all called links) is the starting point.
    """
    n_nonlink = len(is_link) - int(is_link.sum())
    err = np.cumsum(is_link) + (n_nonlink - np.cumsum(~is_link))
    i = int(np.argmin(err))
    if not err[i] < n_nonlink:
        return float(scores[0]) - 1.0
    score = float(scores[i])
    nxt = float(scores[i + 1]) if i + 1 < len(scores) else score + 1.0
    return (score + nxt) / 2.0


def _band_around(scores, cut: float, band_rate: float):
    """[Lower, Upper] spanning the ~band_rate of the ascending scores nearest the cut."""
    k = int(band_rate * len(scores) / 2)
    n_below = int(np.searchsorted(scores, cut, side="right"))
    lower = float(scores[n_below - k]) if k and n_below >= k else cut
    upper = float(scores[n_below + k - 1]) if k and len(scores) - n_below >= k else cut
    return lower, upper


def fs_decide(model: FsModel, X) -> np.ndarray:
    """Category index (1-3) per row; scores exactly at a threshold fall in the band."""
    score = model.log_ratio(X)
    return np.where(score > model.upper, 3, np.where(score < model.lower, 1, 2))

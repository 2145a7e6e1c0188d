"""Likelihood-ratio baseline classifier.

Per-field agreement probabilities among links (m) and nonlinks (u) are
estimated by Laplace-smoothed counting from labeled pairs; the log2 ratio
is thresholded by Lower/Upper into the three-way decision.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import _DocumentReader, distinct_rows, label_cells

__all__ = ["FsModel", "FsError", "fit_fs", "agreement_patterns", "fit_patterns", "fs_decide"]

AGREEMENT_THRESHOLD = 0.88  # a field agrees when its similarity reaches this
BAND_RATE = 0.01  # the share of training pairs inside the potential-match band


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
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FsModel":
        """The model of a document with the keys to_json writes. An unknown or missing key
        and a value of the wrong type are an FsError naming its path, as in m_probs[1]."""
        doc = _DocumentReader(FsError, "baseline model document")
        lists = ("m_probs", "u_probs", "agreement_thresholds")
        *nodes, lower, upper = doc.keys(doc.parse(text), "", (*lists, "lower", "upper"), {})
        return cls(*(tuple(doc.number(x, path) for path, x in doc.items(node, name))
                     for name, node in zip(lists, nodes)),
                   doc.number(lower, "lower"), doc.number(upper, "upper"))


def fit_fs(X, y, weights=None) -> FsModel:
    """Supervised fit from performances X (n, m) and category indices y.

    Pairs labeled C3 count as links, everything else as nonlinks; 0 marks an
    unlabeled pair. Row i stands for weights[i] pairs, or for one when weights
    is None. Lower and Upper are the log2-ratio quantiles that keep about
    BAND_RATE of the training pairs inside the potential-match band.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if (y == 0).any():
        raise FsError(f"pair {int(np.argmax(y == 0))} has no label")
    w = np.ones(len(y), dtype=np.int64) if weights is None else np.asarray(weights, np.int64)
    X, y, w = X[w > 0], y[w > 0], w[w > 0]
    if len(y) == 0:
        raise FsError("no labeled pairs to fit on")
    is_link = y == 3
    n_link = int(w[is_link].sum())
    n_nonlink = int(w.sum()) - n_link
    if n_link == 0:
        raise FsError("training pairs contain no links (C3)")
    if n_nonlink == 0:
        raise FsError("training pairs contain no nonlinks")
    agree = X >= AGREEMENT_THRESHOLD
    link_agree = w[is_link] @ agree[is_link]
    nonlink_agree = w[~is_link] @ agree[~is_link]

    # Laplace smoothing with pseudo-count 1
    m_probs = tuple((c + 1) / (n_link + 2) for c in link_agree.tolist())
    u_probs = tuple((c + 1) / (n_nonlink + 2) for c in nonlink_agree.tolist())

    thresholds = (AGREEMENT_THRESHOLD,) * X.shape[1]
    probe = FsModel(m_probs, u_probs, thresholds, lower=0.0, upper=0.0)
    score = probe.log_ratio(X)
    order = np.lexsort((is_link, score))
    scores, links, counts = score[order], is_link[order], w[order]
    cut = _best_cut(scores, links, counts)
    lower, upper = _band_around(scores, counts, cut, BAND_RATE)
    return FsModel(m_probs, u_probs, thresholds, lower, upper)


def agreement_patterns(fields, thresholds=None):
    """(P, pattern): one row of similarities per agreement pattern of the rows, and each
    row's index into P (core.distinct_rows). fields holds per field (code_a, code_b,
    values, cell) as for core.kernel_rows; a field agrees where its value reaches its
    threshold, AGREEMENT_THRESHOLD by default."""
    if thresholds is None:
        thresholds = (AGREEMENT_THRESHOLD,) * len(fields)
    if len(fields) != len(thresholds):
        raise FsError(f"{len(thresholds)} agreement thresholds for {len(fields)} fields")
    return distinct_rows(fields, [(values >= t).astype(np.intp)
                                  for (_, _, values, _), t in zip(fields, thresholds)])


def fit_patterns(P, pattern, y) -> FsModel:
    """fit_fs on the rows of agreement_patterns: one row per (pattern, label), counted."""
    return fit_fs(*label_cells(P, pattern, y))


def _best_cut(scores, is_link, counts) -> float:
    """Score threshold minimizing training errors for 'link iff score > cut'.

    scores ascending, ties ordered nonlink first, row i standing for counts[i]
    pairs in a row. The first strict minimum over the cuts between
    consecutive pairs wins; the cut below everything (all called links) is
    the starting point. Within a row the errors rise over links and fall over
    nonlinks, so only a link row's first pair and a nonlink row's last can
    hold the first minimum.
    """
    links = np.cumsum(np.where(is_link, counts, 0))
    nonlinks = np.cumsum(np.where(is_link, 0, counts))
    err = np.where(is_link, links - counts + 1, links) + (nonlinks[-1] - nonlinks)
    i = int(np.argmin(err))
    if not err[i] < nonlinks[-1]:
        return float(scores[0]) - 1.0
    score = float(scores[i])
    if is_link[i] and counts[i] > 1:
        nxt = score
    else:
        nxt = float(scores[i + 1]) if i + 1 < len(scores) else score + 1.0
    return (score + nxt) / 2.0


def _band_around(scores, counts, cut: float, band_rate: float):
    """[Lower, Upper] spanning the ~band_rate of the ascending pairs nearest the cut;
    row i of scores stands for counts[i] pairs."""
    ends = np.cumsum(counts)
    k = int(band_rate * int(ends[-1]) / 2)
    below = int(np.searchsorted(scores, cut, side="right"))
    n_below = int(ends[below - 1]) if below else 0

    def pair_score(q):  # the score of the pair at position q
        return float(scores[np.searchsorted(ends, q, side="right")])

    lower = pair_score(n_below - k) if k and n_below >= k else cut
    upper = pair_score(n_below + k - 1) if k and int(ends[-1]) - n_below >= k else cut
    return lower, upper


def fs_decide(model: FsModel, X) -> np.ndarray:
    """Category index (1-3) per row; scores exactly at a threshold fall in the band."""
    score = model.log_ratio(X)
    return np.where(score > model.upper, 3, np.where(score < model.lower, 1, 2))

import json
import math
from pathlib import Path

import numpy as np
import pytest

from electre_linkage.fellegi_sunter import FsError, FsModel, fit_fs, fs_decide
from electre_linkage.ingest import load_table, toy_schema, true_links
from electre_linkage.linkage import build_pairs, label_pairs

DATA = Path(__file__).resolve().parent.parent / "data"


def cv(perf, cat=0):
    """One labeled performance row; category 0 is unlabeled."""
    return tuple(perf), cat


def fit(pairs):
    return fit_fs(np.array([perf for perf, _ in pairs], ndmin=2), [cat for _, cat in pairs])


def score(model, row):
    return model.log_ratio(np.array([row[0]]))[0]


def decide(model, row):
    return fs_decide(model, np.array([row[0]]))[0]


class TestFit:
    def test_laplace_smoothing_arithmetic(self):
        # one field agreeing on every link and on no nonlink, 100 of each
        pairs = [cv((1.0,), 3) for _ in range(100)] + [cv((0.0,), 1) for _ in range(100)]
        model = fit(pairs)
        assert model.m_probs[0] == pytest.approx(101 / 102)
        assert model.u_probs[0] == pytest.approx(1 / 102)

    def test_equal_rates_zero_weight(self):
        pairs = (
            [cv((1.0,), 3), cv((0.0,), 3)] + [cv((1.0,), 1), cv((0.0,), 1)]
        )
        model = fit(pairs)
        assert model.m_probs[0] == model.u_probs[0]
        assert score(model, cv((1.0,))) == pytest.approx(0.0)

    def test_all_agreeing_pair_is_maximal(self):
        pairs = [cv((1.0, 1.0), 3) for _ in range(5)] + [
            cv((0.0, 0.0), 1) for _ in range(20)
        ]
        model = fit(pairs)
        top = score(model, cv((1.0, 1.0)))
        for pattern in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]:
            assert score(model, cv(pattern)) <= top

    def test_needs_both_classes(self):
        with pytest.raises(FsError):
            fit([cv((1.0,), 3)])
        with pytest.raises(FsError):
            fit([cv((1.0,), 1)])
        with pytest.raises(FsError):
            fit([])

    def test_unlabeled_pair_rejected(self):
        with pytest.raises(FsError):
            fit([cv((1.0,)), cv((0.0,), 1)])


class TestDecide:
    def model(self, lower=-1.0, upper=1.0):
        return FsModel(
            m_probs=(0.9,), u_probs=(0.1,), agreement_thresholds=(0.88,),
            lower=lower, upper=upper,
        )

    def test_three_way_rule(self):
        m = self.model()
        w_agree = math.log2(0.9 / 0.1)  # ~3.17
        assert decide(m, cv((1.0,))) == 3
        assert decide(m, cv((0.0,))) == 1
        assert score(m, cv((1.0,))) == pytest.approx(w_agree)

    def test_boundary_is_potential_match(self):
        w_agree = math.log2(0.9 / 0.1)
        m = self.model(lower=w_agree, upper=w_agree)
        assert decide(m, cv((1.0,))) == 2

    def test_band_interior(self):
        m = self.model(lower=-10.0, upper=10.0)
        assert decide(m, cv((1.0,))) == 2

    def test_monotone_in_agreements(self):
        m = FsModel(
            m_probs=(0.9, 0.8), u_probs=(0.1, 0.2),
            agreement_thresholds=(0.88, 0.88), lower=0.0, upper=0.0,
        )
        assert score(m, cv((1.0, 0.0))) > score(m, cv((0.0, 0.0)))
        assert score(m, cv((1.0, 1.0))) > score(m, cv((1.0, 0.0)))

    def test_factorization(self):
        m = FsModel(
            m_probs=(0.9, 0.7, 0.6), u_probs=(0.1, 0.3, 0.5),
            agreement_thresholds=(0.88,) * 3, lower=0.0, upper=0.0,
        )
        total = score(m, cv((1.0, 0.0, 1.0)))
        parts = (
            math.log2(0.9 / 0.1) + math.log2(0.3 / 0.7) + math.log2(0.6 / 0.5)
        )
        assert total == pytest.approx(parts)

    def test_invalid_model(self):
        with pytest.raises(FsError):
            self.model(lower=2.0, upper=1.0)
        with pytest.raises(FsError):
            FsModel((1.0,), (0.1,), (0.88,), 0.0, 0.0)


class TestSerialization:
    def test_round_trip(self):
        m = FsModel((0.9, 0.8), (0.1, 0.2), (0.88, 0.9), -1.5, 2.5)
        assert FsModel.from_json(m.to_json()) == m

    def test_malformed_document_is_fs_error(self):
        good = json.loads(FsModel((0.9,), (0.1,), (0.88,), -1.0, 1.0).to_json())
        for text in ("{}", "not json", "[]", json.dumps({**good, "m_probs": 0.9}),
                     json.dumps({**good, "lower": "low"}),
                     # these used to load and then fail or mis-score in fs_decide
                     json.dumps({**good, "agreement_thresholds": []}),
                     json.dumps({**good, "lower": "a", "upper": "b"}),
                     json.dumps({**good, "agreement_thresholds": [float("nan")]})):
            with pytest.raises(FsError):
                FsModel.from_json(text)

    @pytest.mark.parametrize("key, value", [("agreement_thresholds", [True]),
                                            ("lower", False), ("upper", True)])
    def test_boolean_is_not_a_number(self, key, value):
        # these used to load as thresholds and band limits of 1 or 0
        good = json.loads(FsModel((0.9,), (0.1,), (0.88,), -1.0, 1.0).to_json())
        with pytest.raises(FsError, match="finite numbers"):
            FsModel.from_json(json.dumps({**good, key: value}))


class TestToyRanking:
    def test_links_rank_above_nonlinks(self):
        schema = toy_schema()
        a, _ = load_table(DATA / "toy_a.csv", schema, "A")
        b, _ = load_table(DATA / "toy_b.csv", schema, "B")
        links = true_links(a, b)
        labeled = label_pairs(build_pairs(a, b, schema), links, "two_class")
        model = fit_fs(labeled.X, labeled.truth)
        scores = dict(zip(map(labeled.pair, range(len(labeled))),
                          model.log_ratio(labeled.X).tolist()))
        link_scores = [scores[p] for p in links]
        nonlink_scores = [s for p, s in scores.items() if p not in links]
        assert min(link_scores) > max(nonlink_scores)

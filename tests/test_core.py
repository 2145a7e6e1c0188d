import json
import random
import tracemalloc

import numpy as np
import pytest

from electre_linkage.core import (
    Alternative,
    Criterion,
    ElectreModel,
    ModelError,
    ProfileSet,
    assign_optimistic,
    assign_pessimistic,
    classify_batch,
    credibilities,
    credibility,
    global_concordance,
    outranks,
    partial_concordance,
    partial_discordance,
)

from oracles import random_model_params, ref_assign, ref_credibility


def simple_model(q=0.05, p=0.2, v=None, lam=0.75, profiles=((0.7,),)):
    crit = (Criterion("g1", 1.0, q, p, v),)
    return ElectreModel(crit, ProfileSet(profiles), lam)


def model_from_params(params):
    profiles, qs, ps, vs, ws, lam, eps = params
    crits = tuple(
        Criterion(f"g{j}", ws[j], qs[j], ps[j], vs[j]) for j in range(len(ws))
    )
    return ElectreModel(crits, ProfileSet(profiles), lam, eps)


class TestPartialConcordance:
    def test_within_indifference(self):
        m = simple_model()
        assert partial_concordance(m, Alternative("a", (0.9,)), 1, 1) == 1.0

    def test_beyond_preference(self):
        m = simple_model()
        assert partial_concordance(m, Alternative("a", (0.2,)), 1, 1) == 0.0

    def test_ramp_midpoint(self):
        m = simple_model()
        assert partial_concordance(m, Alternative("a", (0.575,)), 1, 1) == pytest.approx(0.5)

    def test_degenerate_thresholds_step(self):
        m = simple_model(q=0.1, p=0.1)
        assert partial_concordance(m, Alternative("a", (0.6,)), 1, 1) == 1.0
        assert partial_concordance(m, Alternative("a", (0.55,)), 1, 1) == 0.0

    def test_index_out_of_range(self):
        m = simple_model()
        with pytest.raises(ModelError):
            partial_concordance(m, Alternative("a", (0.5,)), 2, 1)
        with pytest.raises(ModelError):
            partial_concordance(m, Alternative("a", (0.5,)), 1, 2)


class TestGlobalConcordance:
    def test_all_ones(self):
        crits = tuple(Criterion(f"g{j}", 1.0, 0.05, 0.2) for j in range(3))
        m = ElectreModel(crits, ProfileSet(((0.5, 0.5, 0.5),)), 0.75)
        assert global_concordance(m, Alternative("a", (0.9, 0.9, 0.9)), 1) == 1.0

    def test_equal_weight_average(self):
        crits = (Criterion("g1", 1.0, 0.0, 0.01), Criterion("g2", 1.0, 0.0, 0.01))
        m = ElectreModel(crits, ProfileSet(((0.5, 0.5),)), 0.75)
        # first criterion concordant, second not
        assert global_concordance(m, Alternative("a", (0.9, 0.1)), 1) == 0.5

    def test_weighted_mean(self):
        # w=(2,1,1), c=(1.0, 0.5, 0.0) -> 0.625
        crits = (
            Criterion("g1", 2.0, 0.05, 0.2),
            Criterion("g2", 1.0, 0.05, 0.2),
            Criterion("g3", 1.0, 0.05, 0.2),
        )
        m = ElectreModel(crits, ProfileSet(((0.7, 0.7, 0.7),)), 0.75)
        a = Alternative("a", (0.9, 0.575, 0.2))
        assert global_concordance(m, a, 1) == pytest.approx(0.625)


class TestPartialDiscordance:
    def test_no_veto_is_zero(self):
        m = simple_model(v=None)
        assert partial_discordance(m, Alternative("a", (0.0,)), 1, 1) == 0.0

    def test_full_veto(self):
        m = simple_model(p=0.2, v=0.6, profiles=((0.9,),))
        assert partial_discordance(m, Alternative("a", (0.0,)), 1, 1) == 1.0

    def test_ramp_midpoint(self):
        m = simple_model(p=0.2, v=0.6)
        assert partial_discordance(m, Alternative("a", (0.3,)), 1, 1) == pytest.approx(0.5)


class TestCredibility:
    def test_no_veto_collapse(self):
        m = simple_model()
        a = Alternative("a", (0.6,))
        assert credibility(m, a, 1) == global_concordance(m, a, 1)

    def test_full_veto_annihilates(self):
        crits = (
            Criterion("g1", 1.0, 0.05, 0.2),
            Criterion("g2", 1.0, 0.05, 0.2, 0.5),
        )
        m = ElectreModel(crits, ProfileSet(((0.3, 0.9),)), 0.75)
        a = Alternative("a", (0.9, 0.0))  # concordant on g1, vetoed on g2
        assert 0.0 < global_concordance(m, a, 1) < 1.0
        assert credibility(m, a, 1) == 0.0

    def test_weakening_formula(self):
        # C=0.6, one discordant criterion with d=0.8 -> 0.6 * (0.2 / 0.4) = 0.3
        sigma = ref_credibility(
            (0.9, 0.56, 0.2, 0.1),
            (0.7, 0.7, 0.7, 0.7),
            (0.05, 0.05, 0.05, 0.05),
            (0.2, 0.2, 0.2, 0.2),
            (None, None, None, 0.7),
            (2.0, 1.0, 1.0, 0.0),
        )
        # zero-weight criterion carries the discordance: C from the first three
        crits = (
            Criterion("g1", 2.0, 0.05, 0.2),
            Criterion("g2", 1.0, 0.05, 0.2),
            Criterion("g3", 1.0, 0.05, 0.2),
            Criterion("g4", 0.0, 0.05, 0.2, 0.7),
        )
        m = ElectreModel(crits, ProfileSet(((0.7, 0.7, 0.7, 0.7),)), 0.75)
        # c = (1, 0.4, 0, -) so C = 0.6; d4 = (0.6 - 0.2) / (0.7 - 0.2) = 0.8 > C
        a = Alternative("a", (0.9, 0.56, 0.2, 0.1))
        assert credibility(m, a, 1) == pytest.approx(0.3)
        assert sigma == pytest.approx(0.3)


class TestOutranking:
    def test_tie_at_lambda_counts(self):
        # two equal weights, one concordant criterion: sigma is exactly 0.5
        crits = (Criterion("g1", 1.0, 0.0, 0.01), Criterion("g2", 1.0, 0.0, 0.01))
        m = ElectreModel(crits, ProfileSet(((0.5, 0.5),)), 0.5)
        a = Alternative("a", (0.9, 0.1))
        assert credibility(m, a, 1) == 0.5
        assert outranks(m, a, 1)

    def test_below_cut(self):
        m = simple_model(q=0.0, p=0.2, lam=0.5)
        a = Alternative("a", (0.7 - 0.2 * 0.51 - 1e-9,))
        assert credibility(m, a, 1) < 0.5
        assert not outranks(m, a, 1)


class TestAssignment:
    def three_cat_model(self, lam=0.75):
        crits = (Criterion("g1", 1.0, 0.05, 0.2), Criterion("g2", 1.0, 0.05, 0.2))
        return ElectreModel(crits, ProfileSet(((0.3, 0.3), (0.7, 0.7))), lam)

    def test_dominating_alternative_top(self):
        m = self.three_cat_model()
        a = Alternative("a", (0.99, 0.99))
        assert assign_pessimistic(m, a).index == 3
        assert assign_optimistic(m, a).index == 3

    def test_dominated_alternative_bottom(self):
        m = self.three_cat_model(lam=0.5)
        a = Alternative("a", (0.05, 0.05))
        assert assign_pessimistic(m, a).index == 1
        assert assign_optimistic(m, a).index == 1

    def test_category_labels(self):
        m = self.three_cat_model()
        assert assign_pessimistic(m, Alternative("a", (0.99, 0.99))).label == "match"
        assert assign_pessimistic(m, Alternative("a", (0.0, 0.0))).label == "nonmatch"

    def test_matches_reference_evaluator(self):
        rng = random.Random(42)
        for _ in range(50):
            params = random_model_params(rng)
            profiles, qs, ps, vs, ws, lam, _ = params
            model = model_from_params(params)
            m = len(ws)
            for _ in range(40):
                perf = tuple(rng.uniform(0, 1.2) for _ in range(m))
                a = Alternative("a", perf)
                assert assign_pessimistic(model, a).index == ref_assign(
                    perf, profiles, qs, ps, vs, ws, lam, "pessimistic"
                )
                assert assign_optimistic(model, a).index == ref_assign(
                    perf, profiles, qs, ps, vs, ws, lam, "optimistic"
                )


class TestModelValidation:
    def test_lambda_domain(self):
        with pytest.raises(ModelError):
            simple_model(lam=0.49)
        with pytest.raises(ModelError):
            simple_model(lam=1.01)
        simple_model(lam=0.5)
        simple_model(lam=1.0)

    def test_threshold_order(self):
        with pytest.raises(ModelError):
            Criterion("g", 1.0, 0.3, 0.2)
        with pytest.raises(ModelError):
            Criterion("g", 1.0, 0.1, 0.2, 0.15)

    def test_all_zero_weights_rejected(self):
        crits = (Criterion("g1", 0.0, 0.0, 0.1), Criterion("g2", 0.0, 0.0, 0.1))
        with pytest.raises(ModelError):
            ElectreModel(crits, ProfileSet(((0.5, 0.5),)), 0.75)

    def test_weight_sum_must_be_finite(self):
        # two weights of 1e308 sum to inf, which made every credibility NaN
        crits = (Criterion("g1", 1e308, 0.0, 0.1), Criterion("g2", 1e308, 0.0, 0.1))
        with pytest.raises(ModelError, match="finite sum"):
            ElectreModel(crits, ProfileSet(((0.5, 0.5),)), 0.75)

    def test_profile_separation_enforced(self):
        crits = (Criterion("g1", 1.0, 0.0, 0.1),)
        with pytest.raises(ModelError):
            ElectreModel(crits, ProfileSet(((0.5,), (0.505,))), 0.75, epsilon=0.01)

    def test_profile_length_mismatch(self):
        crits = (Criterion("g1", 1.0, 0.0, 0.1),)
        with pytest.raises(ModelError):
            ElectreModel(crits, ProfileSet(((0.5, 0.6),)), 0.75)

    def test_nan_weight_or_threshold_rejected(self):
        nan = float("nan")
        for args in ((nan, 0.0, 0.1), (1.0, nan, 0.1), (1.0, 0.0, nan),
                     (1.0, 0.0, 0.1, nan), (float("inf"), 0.0, 0.1)):
            with pytest.raises(ModelError, match="finite"):
                Criterion("g", *args)

    def test_nan_profile_rejected(self):
        crits = (Criterion("g1", 1.0, 0.0, 0.1),)
        with pytest.raises(ModelError, match="finite"):
            ElectreModel(crits, ProfileSet(((float("nan"),),)), 0.75)

    @pytest.mark.parametrize("path, value", [
        (("criteria", 0, "weight"), True), (("criteria", 0, "q"), False),
        (("criteria", 0, "p"), True), (("criteria", 0, "v"), True),
        (("lambda",), True), (("epsilon",), True), (("profiles", 0, 0), True),
    ], ids=["weight", "q", "p", "v", "lambda", "epsilon", "profile"])
    def test_boolean_is_not_a_number(self, path, value):
        # each of these used to load as 1 or 0 (1.0 for a profile value)
        doc = simple_model().to_dict()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ModelError, match="number"):
            ElectreModel.from_json(json.dumps(doc))


class TestCostCriteria:
    def test_cost_direction_negates(self):
        # lower is better on a cost criterion
        crits = (Criterion("g1", 1.0, 0.0, 0.1, direction="cost"),)
        m = ElectreModel(crits, ProfileSet(((0.5,),)), 0.5)
        low = Alternative("low", (0.2,))
        high = Alternative("high", (0.8,))
        assert assign_pessimistic(m, low).index == 2
        assert assign_pessimistic(m, high).index == 1


class TestSerialization:
    def test_round_trip_exact(self):
        rng = random.Random(3)
        for _ in range(20):
            model = model_from_params(random_model_params(rng))
            back = ElectreModel.from_json(model.to_json())
            assert back.criteria == model.criteria
            assert back.profiles == model.profiles
            assert back.cutting_level == model.cutting_level
            assert back.epsilon == model.epsilon

    def test_bad_json_raises(self):
        with pytest.raises(ModelError):
            ElectreModel.from_json("not json {")
        with pytest.raises(ModelError):
            ElectreModel.from_json("{}")

    def test_malformed_document_is_model_error(self):
        good = simple_model().to_dict()
        for bad in (
            {**good, "lambda": "0.7"},
            [good],
            {**good, "criteria": [{**good["criteria"][0], "weight": None}]},
            {**good, "profiles": [["high"]]},
            {**good, "criteria": ["g1"]},
        ):
            with pytest.raises(ModelError):
                ElectreModel.from_json(json.dumps(bad))


class TestBatchPath:
    def test_agrees_with_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            params = random_model_params(rng)
            profiles, qs, ps, vs, ws, lam, _ = params
            model = model_from_params(params)
            X = [[rng.uniform(0, 1.2) for _ in range(model.m)] for _ in range(25)]
            for proc in ("pessimistic", "optimistic"):
                cats, sigma = classify_batch(model, X, proc)
                for i, row in enumerate(X):
                    assert cats[i] == ref_assign(row, profiles, qs, ps, vs, ws, lam, proc)
                    for h in range(1, model.profiles.count + 1):
                        assert sigma[i, h - 1] == pytest.approx(
                            ref_credibility(row, profiles[h - 1], qs, ps, vs, ws), abs=1e-12
                        )

    def test_shape_mismatch(self):
        m = simple_model()
        with pytest.raises(ModelError):
            classify_batch(m, np.zeros((3, 2)))

    def test_unknown_procedure(self):
        m = simple_model()
        with pytest.raises(ModelError):
            classify_batch(m, np.zeros((1, 1)), "middling")

    def test_nan_row_rejected(self):
        # a NaN row used to be sorted into C1
        X = np.array([[0.9], [float("nan")], [0.1]])
        with pytest.raises(ModelError, match="row 1"):
            classify_batch(simple_model(), X)

    def test_memory_bounded_by_the_outputs(self):
        # the kernel runs over row chunks, so beyond its two sigma outputs it
        # holds a few chunk-sized temporaries, not copies of the whole input
        crits = tuple(Criterion(f"g{j}", 1.0, 0.05, 0.2, 0.6 if j == 0 else None)
                      for j in range(5))
        model = ElectreModel(crits, ProfileSet(((0.4,) * 5, (0.8,) * 5)), 0.7)
        X = np.random.default_rng(2).random((200_000, 5))
        tracemalloc.start()
        try:
            sig_ab, sig_ba = credibilities(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sig_ab.nbytes + sig_ba.nbytes + 8 * 2**20

    def test_infinite_row_rejected(self):
        # an all-inf row used to be sorted into the top category
        model = model_from_params(random_model_params(random.Random(4)))
        X = np.full((2, model.m), 0.5)
        X[1] = np.inf
        for procedure in ("pessimistic", "optimistic"):
            with pytest.raises(ModelError, match="row 1"):
                classify_batch(model, X, procedure)


class TestScalarInputChecks:
    """The scalar API goes through the batch path's input checks."""

    def test_non_finite_performance_not_assigned(self):
        # (nan,) used to be sorted into C1 and (inf,) into C2
        for value in (float("nan"), float("inf")):
            a = Alternative("a", (value,))
            for scan in (assign_pessimistic, assign_optimistic):
                with pytest.raises(ModelError, match="not finite"):
                    scan(simple_model(), a)

    def test_non_finite_performance_has_no_credibility(self):
        # credibility used to return nan
        with pytest.raises(ModelError, match="not finite"):
            credibility(simple_model(), Alternative("a", (float("nan"),)), 1)

    def test_wrong_length_rejected(self):
        # the second value used to be ignored
        a = Alternative("a", (0.2, 0.9))
        for call in (
            lambda: assign_pessimistic(simple_model(), a),
            lambda: credibility(simple_model(), a, 1),
            lambda: partial_concordance(simple_model(), a, 1, 1),
        ):
            with pytest.raises(ModelError, match="2 columns"):
                call()


class TestInvariantProperties:
    def test_indices_stay_in_unit_interval(self):
        rng = random.Random(11)
        for _ in range(200):
            params = random_model_params(rng)
            model = model_from_params(params)
            a = Alternative("a", tuple(rng.uniform(-0.5, 1.5) for _ in range(model.m)))
            for h in range(1, model.profiles.count + 1):
                for j in range(1, model.m + 1):
                    assert 0.0 <= partial_concordance(model, a, h, j) <= 1.0
                    assert 0.0 <= partial_discordance(model, a, h, j) <= 1.0
                assert 0.0 <= global_concordance(model, a, h) <= 1.0
                assert 0.0 <= credibility(model, a, h) <= 1.0

    def test_dominance_consistency(self):
        rng = random.Random(13)
        for _ in range(50):
            model = model_from_params(random_model_params(rng))
            for h in range(1, model.profiles.count + 1):
                a = Alternative("a", model.profiles.values[h - 1])
                assert credibility(model, a, h) == 1.0
                assert assign_pessimistic(model, a).index >= h + 1

    def test_pessimistic_le_optimistic(self):
        rng = random.Random(17)
        for _ in range(100):
            model = model_from_params(random_model_params(rng))
            for _ in range(20):
                a = Alternative("a", tuple(rng.uniform(0, 1.2) for _ in range(model.m)))
                assert assign_pessimistic(model, a).index <= assign_optimistic(model, a).index

    def test_veto_free_collapse_bitwise(self):
        rng = random.Random(19)
        for _ in range(100):
            model = model_from_params(random_model_params(rng, veto=False))
            for i in range(10):
                a = Alternative(i, tuple(rng.uniform(0, 1.2) for _ in range(model.m)))
                for h in range(1, model.profiles.count + 1):
                    assert credibility(model, a, h) == global_concordance(model, a, h)

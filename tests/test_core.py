import dataclasses
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
    criterion_codes,
    cut_counts,
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

    def test_cached_arrays_are_not_a_parameter(self):
        # a fifth argument used to replace the model's cached arrays
        crits = (Criterion("g1", 1.0, 0.0, 0.1), Criterion("g2", 1.0, 0.0, 0.1))
        with pytest.raises(TypeError):
            ElectreModel(crits, ProfileSet(((0.5, 0.5),)), 0.7, 0.01,
                         {"sign": np.array([-1.0, -1.0])})

    def test_arrays_are_cached_outside_the_fields(self):
        model = ElectreModel(
            (Criterion("g1", 1.0, 0.0, 0.1), Criterion("g2", 1.0, 0.0, 0.1, direction="cost")),
            ProfileSet(((0.5, 0.5),)), 0.7)
        assert [f.name for f in dataclasses.fields(ElectreModel)] == [
            "criteria", "profiles", "cutting_level", "epsilon"]
        assert model.sign is model.sign
        assert model.arrays is model.arrays
        assert model.sign.tolist() == [1.0, -1.0]
        assert model.arrays[0].tolist() == [[0.5, -0.5]]
        fresh = ElectreModel(model.criteria, model.profiles, model.cutting_level)
        assert model == fresh == dataclasses.replace(model)
        assert hash(model) == hash(fresh)

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

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, -0.0])
    def test_epsilon_must_be_positive(self, epsilon):
        # epsilon = -1 let reversed profiles load: the row [0.6] went to C3 under the
        # pessimistic procedure and to C1 under the optimistic one
        crits = (Criterion("g1", 1.0, 0.0, 0.1),)
        with pytest.raises(ModelError, match="positive"):
            ElectreModel(crits, ProfileSet(((0.8,), (0.4,))), 0.75, epsilon=epsilon)
        doc = {"criteria": [{"name": "g1", "weight": 1.0, "q": 0.0, "p": 0.1}],
               "profiles": [[0.4], [0.8]], "lambda": 0.75, "epsilon": epsilon}
        with pytest.raises(ModelError, match="positive"):
            ElectreModel.from_json(json.dumps(doc))

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
        """sigma equals the definition summed in criterion order, bitwise, for each row
        alone and in its batch; with 8 or more criteria numpy's own reductions would
        sum in another order."""
        rng = random.Random(7)
        for k in range(60):
            params = random_model_params(rng, **({} if k < 30 else {"min_m": 8, "max_m": 14}))
            profiles, qs, ps, vs, ws, lam, _ = params
            model = model_from_params(params)
            X = [[rng.uniform(0, 1.2) for _ in range(model.m)] for _ in range(25)]
            sig_ab, sig_ba = credibilities(model, X)
            for i, row in enumerate(X):
                alone = credibilities(model, [row])
                assert (alone[0].tobytes(), alone[1].tobytes()) == (
                    sig_ab[i].tobytes(), sig_ba[i].tobytes())
                for h, b in enumerate(profiles):
                    assert sig_ab[i, h] == ref_credibility(row, b, qs, ps, vs, ws)
                    assert sig_ba[i, h] == ref_credibility(b, row, qs, ps, vs, ws)
            for proc in ("pessimistic", "optimistic"):
                cats, sigma = classify_batch(model, X, proc)
                assert sigma.tobytes() == sig_ab.tobytes()
                for i, row in enumerate(X):
                    assert cats[i] == ref_assign(row, profiles, qs, ps, vs, ws, lam, proc)

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


class TestCutCounts:
    def test_counts_each_row_at_each_lambda(self):
        rng = random.Random(11)
        for _ in range(30):
            params = random_model_params(rng)
            model = model_from_params(params)
            X = [[rng.uniform(0, 1.2) for _ in range(model.m)] for _ in range(40)]
            truth = [rng.randint(1, 5) for _ in X]  # past the category count of most models
            weights = [rng.randint(0, 4) for _ in X]
            sig_ab, sig_ba = credibilities(model, X)
            grid = [0.5, 0.6, 0.75, 1.0]
            for proc in ("pessimistic", "optimistic"):
                counts = cut_counts(sig_ab, sig_ba, truth, weights, grid, proc)
                n = max(5, model.category_count) + 1
                assert counts.shape == (len(grid), n, n) and counts.dtype == np.int64
                for lam, matrix in zip(grid, counts):
                    expected = np.zeros((n, n), dtype=np.int64)
                    for row, t, w in zip(X, truth, weights):
                        expected[t, ref_assign(row, *params[:5], lam, proc)] += w
                    assert matrix.tolist() == expected.tolist()
                unweighted = cut_counts(sig_ab, sig_ba, truth, None, grid, proc)
                ones = cut_counts(sig_ab, sig_ba, truth, [1] * len(X), grid, proc)
                assert unweighted.tolist() == ones.tolist()
                assert (unweighted.sum(axis=(1, 2)) == len(X)).all()

    def test_covers_the_categories_without_truth_labels(self):
        # every truth label is C1, and rows above every profile still count in the top category
        model = model_from_params(random_model_params(random.Random(2)))
        sig_ab, sig_ba = credibilities(model, np.full((3, model.m), 2.0))
        counts = cut_counts(sig_ab, sig_ba, [1, 1, 1], None, [0.5], "pessimistic")
        top = model.category_count
        assert counts.shape[1:] == (top + 1, top + 1) and counts[0, 1, top] == 3


class TestCriterionCodes:
    def test_codes_follow_the_partial_indices(self):
        """Two values share a code exactly when c_j and d_j against every profile, both ways,
        are equal as the scalar API computes them on a whole row."""
        rng = random.Random(11)
        for _ in range(12):
            params = random_model_params(rng)
            model = model_from_params(params)
            profiles, qs, ps = params[:3]
            for j in range(model.m):
                edges = [b[j] + t for b in profiles for t in (0.0, -qs[j], -ps[j], 0.5)]
                values = [round(rng.uniform(-0.2, 1.2), 1) for _ in range(20)] + edges + [-0.0]
                codes, reps = criterion_codes(model, j, values)
                assert len(codes) == len(values) and len(reps) == codes.max() + 1

                def indices(x):
                    alt = Alternative("a", tuple(x if k == j else 0.5 for k in range(model.m)))
                    return [f(model, alt, h, j + 1, rev)
                            for h in range(1, model.profiles.count + 1)
                            for rev in (False, True)
                            for f in (partial_concordance, partial_discordance)]

                by_code = [indices(r) for r in reps]
                seen = {}
                for x, code in zip(values, codes.tolist()):
                    got = indices(x)
                    assert got == by_code[code]
                    seen.setdefault(tuple(got), set()).add(code)
                assert all(len(group) == 1 for group in seen.values())


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
        for i in range(100):
            model = model_from_params(random_model_params(rng, max_m=5 if i < 50 else 14))
            B = np.array(model.profiles.values)
            for h in range(1, model.profiles.count + 1):
                a = Alternative("a", model.profiles.values[h - 1])
                assert credibility(model, a, h) == 1.0
                assert assign_pessimistic(model, a).index >= h + 1
            # inside a batch: each profile, a row dominating each profile, random rows
            above = B + np.array([[rng.uniform(0, 0.3) for _ in range(model.m)] for _ in B])
            rand = np.array([[rng.uniform(0, 1.2) for _ in range(model.m)] for _ in range(20)])
            sig_ab, sig_ba = credibilities(model, np.vstack((B, above, rand)))
            k = len(B)
            assert (np.diag(sig_ab[:k]) == 1.0).all() and (np.diag(sig_ba[:k]) == 1.0).all()
            assert (np.diag(sig_ab[k:2 * k]) == 1.0).all()
            assert (sig_ab <= 1.0).all() and (sig_ba <= 1.0).all()

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

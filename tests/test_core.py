import dataclasses
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from electre_linkage.core import (
    Alternative,
    Criterion,
    ElectreModel,
    ModelError,
    ProfileSet,
    _distinct_cells,
    assign_optimistic,
    assign_pessimistic,
    classify_batch,
    column_fields,
    credibilities,
    credibility,
    criterion_codes,
    cut_counts,
    distinct_rows,
    global_concordance,
    kernel_rows,
    label_cells,
    outranks,
    partial_concordance,
    partial_discordance,
)

from oracles import (
    random_model_params,
    ref_assign,
    ref_credibility,
    ref_distinct_cells,
    ref_distinct_rows,
    ref_label_cells,
)


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

    @pytest.mark.parametrize("value", [" 0.4 ", "0.4", "1e-1"])
    def test_profile_value_must_be_a_number(self, value):
        # float() used to turn a string profile value into a number
        doc = simple_model().to_dict()
        doc["profiles"][0][0] = value
        with pytest.raises(ModelError):
            ElectreModel.from_json(json.dumps(doc))

    def test_integer_profile_values_load_as_floats(self):
        # so a model document written back keeps the bytes of one with 0.0
        doc = simple_model().to_dict()
        doc["profiles"] = [[0]]
        model = ElectreModel.from_json(json.dumps(doc))
        assert type(model.profiles.values[0][0]) is float
        assert model.to_json() == simple_model(profiles=((0.0,),)).to_json()


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


class TestDistinctCells:
    """_distinct_cells numbers a table as np.unique on its bit patterns did."""

    @staticmethod
    def assert_numbered_as_reference(table):
        values, cell = _distinct_cells(table)
        ref_values, ref_cell = ref_distinct_cells(table)
        assert values.dtype == np.float64 and values.tobytes() == ref_values.tobytes()
        assert cell.dtype == np.int32 and cell.shape == table.shape
        assert np.array_equal(cell, ref_cell)
        # the values at the indices give the table back bitwise
        assert values[cell].tobytes() == np.ascontiguousarray(table).tobytes()

    def test_special_values(self):
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                         0xFFF8000000000000 - (1 << 64), 0xFFF0000000000002 - (1 << 64)],
                        dtype=np.int64).view(np.float64)
        specials = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                                    2.225073858507201e-308, -1e-310, 1.0, -1.0], nans])
        table = np.random.default_rng(0).choice(specials, size=(9, 17))
        table[0, :len(specials)] = specials  # every special value at least once
        self.assert_numbered_as_reference(table)
        values, _ = _distinct_cells(table)
        assert len(values) == len(specials)  # -0.0 apart from 0.0, each nan payload apart

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0), (1, 1)])
    def test_degenerate_shapes(self, shape):
        self.assert_numbered_as_reference(np.full(shape, 0.25))

    def test_many_cells_few_values(self):
        # the shape of a NUMCODE table: many cells, a handful of similarities
        table = np.random.default_rng(1).integers(0, 11, size=(360, 330)) / 10.0
        self.assert_numbered_as_reference(table)

    def test_strided_and_fortran_tables(self):
        X = np.random.default_rng(2).integers(0, 7, size=(50, 5)) / 6.0
        X[3, 1] = -0.0
        for col in X.T:  # TrainingSet(X) numbers the strided columns of X.T
            assert not col.flags.c_contiguous
            self.assert_numbered_as_reference(col)
        table = np.asfortranarray(X.reshape(25, 10))
        assert not table.flags.c_contiguous
        self.assert_numbered_as_reference(table)


def columns_of(X):
    """The rows of X as kernel_rows takes them: the column_fields of per criterion
    (values, int32 index)."""
    return column_fields([_distinct_cells(col) for col in np.asarray(X, dtype=float).T])


class TestCutCounts:
    def test_counts_each_row_at_each_lambda(self):
        rng = random.Random(11)
        for _ in range(30):
            params = random_model_params(rng)
            model = model_from_params(params)
            X = [[rng.uniform(0, 1.2) for _ in range(model.m)] for _ in range(40)]
            truth = [rng.randint(1, 5) for _ in X]  # past the category count of most models
            # row i, repeated weights[i] times in a shuffled order, counts weights[i] times
            weights = [rng.randint(0, 4) for _ in X]
            order = [i for i, w in enumerate(weights) for _ in range(w)]
            rng.shuffle(order)
            columns, repeated = columns_of(np.array(X)[order]), np.array(truth)[order]
            grid = [0.5, 0.6, 0.75, 1.0]
            for proc in ("pessimistic", "optimistic"):
                counts = cut_counts(model, columns, repeated, grid, proc)
                n = max(int(repeated.max()), model.category_count) + 1
                assert counts.shape == (len(grid), n, n) and counts.dtype == np.int64
                for lam, matrix in zip(grid, counts):
                    expected = np.zeros((n, n), dtype=np.int64)
                    for row, t, w in zip(X, truth, weights):
                        if w:
                            expected[t, ref_assign(row, *params[:5], lam, proc)] += w
                    assert matrix.tolist() == expected.tolist()
                assert (counts.sum(axis=(1, 2)) == len(order)).all()

    def test_covers_the_categories_without_truth_labels(self):
        # every truth label is C1, and rows above every profile still count in the top category
        model = model_from_params(random_model_params(random.Random(2)))
        counts = cut_counts(model, columns_of(np.full((3, model.m), 2.0)), [1, 1, 1], [0.5],
                            "pessimistic")
        top = model.category_count
        assert counts.shape[1:] == (top + 1, top + 1) and counts[0, 1, top] == 3


def random_numbering(rng, n, sizes):
    """Columns of n rows: column j over sizes[j][0] distinct values, each with a random
    state below sizes[j][1], the top state always among them; a column may hold values
    no row takes."""
    columns, states = [], []
    for count, top in sizes:
        values = rng.permutation(count) + rng.random(count)
        state = rng.integers(0, top, count)
        state[rng.integers(count)] = top - 1
        columns.append((values, rng.integers(0, count, n).astype(np.int32)))
        states.append(state)
    return columns, states


class TestNumbering:
    """distinct_rows and label_cells against the numbering by dict."""

    CASES = [
        # (rows, per column (distinct values, state bound)), by the branch they take
        (300, [(5, 3), (4, 2), (7, 4)]),  # key space 24 <= 2n: marked
        (1, [(3, 2), (2, 2)]),  # one row
        (40, [(30, 1 << 20), (6, 1 << 18)]),  # key space past 2n: np.unique
        (50, [(9, 1 << 31)] * 3),  # 2**93 keys: renumbered before the third column
        (200, [(4, 256)] * 9),  # 2**72 keys: renumbered before the eighth column
        (200, [(2, 2)] * 64),  # 2**64 keys: renumbered before the last
        (0, [(3, 2), (5, 1 << 40)]),  # no rows
    ]

    @pytest.mark.parametrize("n, sizes", CASES)
    def test_distinct_rows_number_the_state_tuples(self, n, sizes):
        rng = np.random.default_rng(n + len(sizes))
        for _ in range(5):
            columns, states = random_numbering(rng, n, sizes)
            R, inverse = distinct_rows(column_fields(columns), states)
            rows, distinct = ref_distinct_rows(columns, states)
            assert R.shape == (len(distinct), len(columns)) and inverse.shape == (n,)
            # shared exactly by equal state tuples, numbered in tuple order
            assert inverse.tolist() == [distinct.index(row) for row in rows]
            # each row of R is a row of its distinct row: the states of its values
            state_of = [dict(zip(values.tolist(), state.tolist()))
                        for (values, _), state in zip(columns, states)]
            assert [tuple(s[x] for s, x in zip(state_of, r)) for r in R.tolist()] == distinct

    @pytest.mark.parametrize("n, sizes", CASES)
    def test_label_cells_count_each_row_and_label(self, n, sizes):
        rng = np.random.default_rng(n + len(sizes) + 1)
        for top in (1, 2, 6):
            columns, states = random_numbering(rng, n, sizes)
            R, inverse = distinct_rows(column_fields(columns), states)
            labels = rng.integers(0, top, n)
            X, label, count = label_cells(R, inverse, labels.tolist())  # [] for no rows
            # a row of label 0 is off a side and not counted
            cells = {cell: n for cell, n in ref_label_cells(inverse, labels).items() if cell[1]}
            assert list(zip(label.tolist(), count.tolist())) == [
                (lab, cells[row, lab]) for row, lab in sorted(cells)]
            assert X.tobytes() == R[[row for row, _ in sorted(cells)]].tobytes()
            assert X.shape == (len(cells), len(columns))


def random_fields(rng, na, nb, sizes):
    """Fields of the whole na x nb cross product, as PairBlock.fields holds them: field j
    over a table of sizes[j][0] x sizes[j][1] cells and sizes[j][2] distinct values, each
    with a random state below sizes[j][3], the top state always among them. A side may
    leave codes of its table unused, so values no pair takes."""
    fields, states = [], []
    for da, db, count, top in sizes:
        values = rng.permutation(count) + rng.random(count)
        state = rng.integers(0, top, count)
        state[rng.integers(count)] = top - 1
        cell = rng.integers(0, count, (da, db)).astype(np.int32)
        fields.append((rng.integers(0, da, na), rng.integers(0, db, nb), values, cell))
        states.append(state)
    return fields, states


def pairwise_columns(fields):
    """Each field's (values, index) over every pair of the row-major cross product, one
    pair at a time."""
    return [(values, np.array([cell[i, k] for i in code_a.tolist() for k in code_b.tolist()],
                              dtype=np.int32))
            for code_a, code_b, values, cell in fields]


class TestBlockNumbering:
    """distinct_rows and kernel_rows of whole blocks against the numbering by dict of every
    pair and against the column form of the same pairs."""

    CASES = [
        # (na, nb, per field (table rows, table columns, values, state bound), fallback)
        (30, 20, [(4, 5, 6, 3), (3, 3, 5, 2), (5, 2, 7, 4)], False),  # key space 24
        (7, 1, [(3, 1, 3, 2), (2, 1, 2, 2)], False),  # one B record
        (1, 9, [(1, 4, 4, 3)], False),  # one A record
        (12, 11, [(1, 1, 1, 1)] * 3, False),  # one-value fields: one key
        (5, 4, [(3, 3, 8, 5), (2, 2, 4, 8)], False),  # 40 keys: twice the pairs
        (5, 2, [(3, 3, 8, 7), (2, 2, 4, 4)], True),  # 28 keys: past twice the 10 pairs
        (40, 30, [(6, 6, 10, 1 << 10), (5, 5, 8, 1 << 10)], True),  # 2**20 keys
        (20, 20, [(4, 4, 9, 1 << 16), (4, 4, 9, 1 << 16)], True),  # 2**32 keys
        (50, 40, [(3, 3, 5, 1 << 30), (3, 3, 5, 2)], True),  # 2**31 keys: past an int32
        (0, 6, [(2, 3, 4, 2), (2, 2, 3, 3)], True),  # empty sides
        (6, 0, [(2, 3, 4, 2)], True),
        (0, 0, [(2, 3, 4, 2)], True),
    ]

    @pytest.mark.parametrize("na, nb, sizes, fallback", CASES)
    def test_block_rows_number_the_pairs_as_distinct_rows(self, na, nb, sizes, fallback):
        rng = np.random.default_rng([na, nb, len(sizes)])
        for _ in range(4):
            fields, states = random_fields(rng, na, nb, sizes)
            columns = pairwise_columns(fields)
            R, inverse = distinct_rows(fields, states)
            rows, distinct = ref_distinct_rows(columns, states)
            assert R.shape == (len(distinct), len(fields)) and inverse.shape == (na * nb,)
            assert inverse.tolist() == [distinct.index(row) for row in rows]
            # the marked keys give an int32 inverse, np.unique an intp one
            assert inverse.dtype == (np.intp if fallback else np.int32)
            # each row of R holds, per field, a value that some pair takes, of its state
            state_of = [dict(zip(values.tolist(), state.tolist()))
                        for (_, _, values, _), state in zip(fields, states)]
            taken = [set(values[index].tolist()) for values, index in columns]
            assert [tuple(s[x] for s, x in zip(state_of, r)) for r in R.tolist()] == distinct
            assert all(x in t for r in R.tolist() for x, t in zip(r, taken))

    def model(self, m):
        criteria = tuple(Criterion(f"g{j}", 1.0 + j, 0.05, 0.2, 0.6) for j in range(m))
        return ElectreModel(criteria, ProfileSet(((0.3,) * m, (0.7,) * m)), 0.7)

    @pytest.mark.parametrize("na, nb", [(9, 8), (1, 5), (40, 3), (0, 4)])
    def test_block_kernel_rows_classify_as_kernel_rows(self, na, nb):
        # values on a 0.05 grid share criterion codes beyond the thresholds' reach
        rng = np.random.default_rng([na, nb])
        for m in (1, 3):
            model = self.model(m)
            for _ in range(5):
                fields = []
                for _ in range(m):
                    da, db = int(rng.integers(1, 5)), int(rng.integers(1, 5))
                    table = np.round(rng.random((da, db)) * 20) / 20
                    fields.append((rng.integers(0, da, na), rng.integers(0, db, nb),
                                   *_distinct_cells(table)))
                columns = pairwise_columns(fields)
                R, kernel_row = kernel_rows(model, fields)
                ref_R, ref_row = kernel_rows(model, column_fields(columns))
                assert kernel_row.tolist() == ref_row.tolist()
                for procedure in ("pessimistic", "optimistic"):
                    cats, sigma = classify_batch(model, R, procedure)
                    X = np.column_stack([values[index] for values, index in columns])
                    want_cats, want_sigma = classify_batch(model, X.reshape(-1, m), procedure)
                    assert cats[kernel_row].tolist() == want_cats.tolist()
                    assert sigma[kernel_row].tobytes() == want_sigma.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_refused_by_its_first_pair(self, bad):
        model = self.model(2)
        rng = np.random.default_rng(5)
        fields = []
        for da, db in ((3, 4), (2, 5)):
            table = np.round(rng.random((da, db)), 1)
            fields.append((rng.integers(0, da, 6), rng.integers(0, db, 7), table))
        code_a, code_b, table = fields[1]
        table[code_a[2], code_b[4]] = bad  # pair 2 * 7 + 4 = 18 is the first to take it
        fields = [(code_a, code_b, *_distinct_cells(table)) for code_a, code_b, table in fields]
        with pytest.raises(ModelError) as want:
            kernel_rows(model, column_fields(pairwise_columns(fields)))
        assert str(want.value).startswith("performance row ")
        with pytest.raises(ModelError, match=f"^{re.escape(str(want.value))}$"):
            kernel_rows(model, fields)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_value_no_pair_takes_is_accepted(self, bad):
        # row 3 of the second table holds the only non-finite value, and no A record takes it
        model = self.model(2)
        rng = np.random.default_rng(6)
        tables = [np.round(rng.random((3, 4)), 1), np.round(rng.random((4, 5)), 1)]
        tables[1][3, 2] = bad
        fields = [(rng.integers(0, 3, 6), rng.integers(0, table.shape[1], 7),
                   *_distinct_cells(table)) for table in tables]
        R, kernel_row = kernel_rows(model, fields)
        assert np.isfinite(R).all()
        assert (kernel_row.tolist()
                == kernel_rows(model, column_fields(pairwise_columns(fields)))[1].tolist())


class TestNumberingRegimes:
    """The one distinct_rows at the bounds of its regimes, on whole blocks and on column
    forms of one B position, against the numbering by dict: the keys are marked while the
    key space is below INT32_KEYS and at most twice the rows (an int32 inverse), and
    numbered by np.unique past either bound (an intp inverse), however many A-rows a chunk
    holds."""

    @pytest.mark.parametrize("chunk_rows", [1, 7, None])
    @pytest.mark.parametrize("form", ["whole", "column"])
    @pytest.mark.parametrize("past_twice, int32_keys, marked", [
        (0, None, True),  # a key space of twice the rows
        (1, None, False),  # one more
        (0, 1, True),  # INT32_KEYS one past the key space
        (0, 0, False),  # INT32_KEYS at the key space
        (0, -1, False),  # and one below it
    ])
    def test_the_regimes_number_the_rows_alike(self, monkeypatch, form, chunk_rows,
                                               past_twice, int32_keys, marked):
        from electre_linkage import core

        na, nb = (6, 5) if form == "whole" else (30, 1)
        space = 2 * na * nb + past_twice
        if chunk_rows:
            monkeypatch.setattr(core, "CHUNK_ROWS", chunk_rows)
        if int32_keys is not None:
            monkeypatch.setattr(core, "INT32_KEYS", space + int32_keys)
        rng = np.random.default_rng([space, nb, chunk_rows or 0])
        for _ in range(4):
            # the second field has one state, so the key space is the first field's
            if form == "whole":
                fields, states = random_fields(rng, na, nb, [(na, nb, space + 9, space),
                                                             (3, 2, 4, 1)])
                columns = pairwise_columns(fields)
            else:
                columns, states = random_numbering(rng, na, [(space + 9, space), (4, 1)])
                fields = column_fields(columns)
            R, inverse = distinct_rows(fields, states)
            rows, distinct = ref_distinct_rows(columns, states)
            assert inverse.tolist() == [distinct.index(row) for row in rows]
            assert inverse.dtype == (np.int32 if marked else np.intp)
            state_of = [dict(zip(values.tolist(), state.tolist()))
                        for (_, _, values, _), state in zip(fields, states)]
            taken = [set(values[index].tolist()) for values, index in columns]
            assert [tuple(s[x] for s, x in zip(state_of, r)) for r in R.tolist()] == distinct
            assert all(x in t for r in R.tolist() for x, t in zip(r, taken))


def motivation_columns(values):
    """One criterion whose rows take the given values in order."""
    return columns_of(np.array(values, dtype=float)[:, None])


class TestNonFiniteColumns:
    """Every path that classifies the column form refuses a row that takes a non-finite
    value and names that row; a value no row takes is not looked at."""

    def model(self):
        return simple_model(q=0.05, p=0.2, profiles=((0.8,),), lam=0.7)

    def test_inf_sharing_a_code_with_a_finite_value_is_refused(self):
        # inf shares its code with 5.0 and was classified C2 through 5.0's kernel row
        model, columns = self.model(), motivation_columns([0.1, 5.0, np.inf])
        with pytest.raises(ModelError, match=r"^performance row 2 is not finite: \[inf\]$"):
            kernel_rows(model, columns)
        with pytest.raises(ModelError, match=r"^performance row 2 is not finite: \[inf\]$"):
            cut_counts(model, columns, [1, 2, 2], [0.5, 0.7])
        with pytest.raises(ModelError, match=r"performance row 2 is not finite: \[inf\]"):
            classify_batch(model, [[0.1], [5.0], [np.inf]])
        assert criterion_codes(model, 0, columns[0][2]).tolist() == [0, 1, 1]

    def test_nan_is_named_by_its_row_not_its_kernel_row(self):
        # 0.1 and 0.3 share a code, so rows 0, 2 and 4 take kernel row 0 and the nan's row 3
        # kernel row 1: classify_batch on R named that row
        model = ElectreModel((Criterion("g1", 1.0, 0.05, 0.2), Criterion("g2", 1.0, 0.05, 0.2)),
                             ProfileSet(((0.8, 0.8),)), 0.7)
        X = np.array([[0.1, 0.1], [5.0, 5.0], [0.1, 0.1], [0.3, np.nan], [0.1, 0.1]])
        with pytest.raises(ModelError, match=r"^performance row 3 is not finite: \[0.3, nan\]$"):
            kernel_rows(model, columns_of(X))
        with pytest.raises(ModelError, match=r"^performance row 3 is not finite: \[0.3, nan\]$"):
            cut_counts(model, columns_of(X), [1] * 5, [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_value_no_row_takes_is_accepted(self, bad):
        model, finite = self.model(), motivation_columns([0.1, 5.0, 0.9, 5.0])
        spare = [(code_a, code_b, np.append(values, bad), cell)
                 for code_a, code_b, values, cell in finite]
        R, kernel_row = kernel_rows(model, spare)  # R is read from the rows, not from bad
        assert R[kernel_row].tobytes() == np.array([[0.1], [5.0], [0.9], [5.0]]).tobytes()
        assert (cut_counts(model, spare, [1, 2, 2, 1], [0.7])
                == cut_counts(model, finite, [1, 2, 2, 1], [0.7])).all()


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
                codes = criterion_codes(model, j, values)
                assert codes.shape == (len(values),)
                assert sorted(set(codes.tolist())) == list(range(codes.max() + 1))

                def indices(x):
                    alt = Alternative("a", tuple(x if k == j else 0.5 for k in range(model.m)))
                    return tuple(f(model, alt, h, j + 1, rev)
                                 for h in range(1, model.profiles.count + 1)
                                 for rev in (False, True)
                                 for f in (partial_concordance, partial_discordance))

                got = [indices(x) for x in values]
                for x, code_x, got_x in zip(values, codes.tolist(), got):
                    for y, code_y, got_y in zip(values, codes.tolist(), got):
                        assert (code_x == code_y) == (got_x == got_y), (x, y)


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

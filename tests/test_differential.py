"""The columnar pair pipeline against the per-pair references in oracles.py,
the lambda grid against one model, one classification and one per-pair
count per lambda, the confusion report against the per-pair count, the
chunked kernel against one chunk, and the pooling profile solver against the
composition enumeration it replaced.

Identical means bitwise-equal performance matrices, the same truth labels
and row order, the same train/test rows for a seed, an equal baseline
model and a byte-identical classified-pairs file, on the toy tables and on
a seeded census-style pair.
"""

import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from electre_linkage import core, fellegi_sunter, linkage
from electre_linkage.calibration import (
    CalibrationError,
    TrainingSet,
    calibrate,
    estimate_lambda,
    estimate_profiles,
    estimate_thresholds,
)
from electre_linkage.core import (
    Criterion,
    ElectreModel,
    ModelError,
    ProfileSet,
    _distinct_cells,
    classify_batch,
    credibilities,
)
from electre_linkage.datagen import generate_pair_files
from electre_linkage.evaluation import EvaluationError, PairSide, evaluate, lambda_sweep, split
from electre_linkage.fellegi_sunter import (
    FsError,
    FsModel,
    agreement_patterns,
    fit_fs,
    fit_patterns,
)
from electre_linkage.ingest import census_schema, load_table, toy_schema, true_links
from electre_linkage.linkage import (
    PairBlock,
    build_pairs,
    label_pairs,
    write_classified,
)
from electre_linkage.metrics import Comparator

from oracles import (
    block_from_columns,
    block_of_rows,
    random_model_params,
    ref_build_pairs,
    ref_estimate_profiles,
    ref_evaluate,
    ref_fit_fs,
    ref_log_ratio,
    ref_side,
    ref_slacks,
    ref_split,
    ref_write_classified,
)

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module", params=["toy", "census"])
def tables(request, tmp_path_factory):
    if request.param == "toy":
        schema, path_a, path_b = toy_schema(), DATA / "toy_a.csv", DATA / "toy_b.csv"
    else:
        root = tmp_path_factory.mktemp("census")
        schema, path_a, path_b = census_schema(), root / "a.csv", root / "b.csv"
        generate_pair_files(path_a, path_b, n_a=60, n_b=50, n_links=40, seed=17)
    a, _ = load_table(path_a, schema, "A")
    b, _ = load_table(path_b, schema, "B")
    return schema, a, b


@pytest.fixture(scope="module")
def reference(tables):
    schema, a, b = tables
    return ref_build_pairs(a, b, schema)


def pair_ids(block):
    return [block.pair(r) for r in range(len(block))]


def test_build_pairs_matches_nested_loop(tables, reference, monkeypatch):
    schema, a, b = tables
    ids, rows, ref_calls = reference
    compares = []
    compare = Comparator.compare

    def counting_compare(self, x, y):
        compares.append(self)
        return compare(self, x, y)

    monkeypatch.setattr(Comparator, "compare", counting_compare)
    block = build_pairs(a, b, schema)
    assert pair_ids(block) == ids
    assert block.X.shape == (len(rows), len(schema.compared_fields))
    assert block.X.tobytes() == np.array(rows, dtype=float).tobytes()
    assert not block.truth.any()
    distinct = {
        f: len({rec[f] for _, rec in a.records}) * len({rec[f] for _, rec in b.records})
        for f in schema.field_names
    }
    assert ref_calls == sum(distinct.values())
    # one table per field, from one compare call over the field's distinct values
    assert compares == [c for _, c in schema.compared_fields]


def test_take_gathers_the_same_performances(tables):
    """core.pair_values takes the performances of any positions, repeated, permuted or
    none, as X does."""
    schema, a, b = tables
    block = build_pairs(a, b, schema)
    X = block.X
    rng = np.random.default_rng(3)
    for rows in (rng.integers(0, len(block), 50), rng.permutation(len(block)),
                 np.empty(0, dtype=np.intp)):
        sub = core.pair_values(block.fields, rows)
        assert sub.shape == (len(rows), X.shape[1])
        assert sub.tobytes() == X[rows].tobytes()


def test_two_class_labels_follow_links(tables, reference):
    schema, a, b = tables
    links = true_links(a, b)
    block = label_pairs(build_pairs(a, b, schema), links, "two_class")
    assert block.truth.tolist() == [3 if pair in links else 1 for pair in reference[0]]


def test_banded_labels_match_scalar_scores(tables, reference):
    schema, a, b = tables
    ids, rows, _ = reference
    links = true_links(a, b)
    fs = FsModel((0.9, 0.8, 0.7, 0.95, 0.6)[: len(rows[0])],
                 (0.1, 0.3, 0.2, 0.05, 0.4)[: len(rows[0])],
                 (0.88,) * len(rows[0]), lower=-5.0, upper=2.0)
    block = label_pairs(build_pairs(a, b, schema), links, "banded", fs_model=fs)
    expected = []
    for pair, row in zip(ids, rows):
        score = ref_log_ratio(row, fs.agreement_thresholds, fs.m_probs, fs.u_probs)
        expected.append(3 if pair in links else 2 if fs.lower <= score <= fs.upper else 1)
    assert block.truth.tolist() == expected
    scores = fs.log_ratio(block.X)
    assert scores.tolist() == [
        ref_log_ratio(row, fs.agreement_thresholds, fs.m_probs, fs.u_probs) for row in rows
    ]


def test_banded_band_includes_its_ends(tables, reference):
    """Lower and Upper set exactly to nonlink pattern scores: the pairs scoring them get C2.
    On the census tables a score one ulp below Lower and one one ulp above Upper stay C1."""
    schema, a, b = tables
    ids, rows, _ = reference
    links = true_links(a, b)
    m = len(rows[0])
    probs = ((0.9, 0.8, 0.7, 0.95, 0.6)[:m], (0.1, 0.3, 0.2, 0.05, 0.4)[:m], (0.88,) * m)
    scores = [ref_log_ratio(row, probs[2], *probs[:2]) for row in rows]
    nonlink = sorted({score for pair, score in zip(ids, scores) if pair not in links})
    lower, upper = nonlink[len(nonlink) // 4], nonlink[3 * len(nonlink) // 4]
    block = label_pairs(build_pairs(a, b, schema), links, "banded",
                        fs_model=FsModel(*probs, lower=lower, upper=upper))
    assert block.truth.tolist() == [3 if pair in links else 2 if lower <= score <= upper else 1
                                    for pair, score in zip(ids, scores)]
    ends = [label for pair, score, label in zip(ids, scores, block.truth.tolist())
            if pair not in links and score in (lower, upper)]
    assert ends and set(ends) == {2}


def test_split_matches_reference(tables):
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    ids = pair_ids(block)
    for seed in range(4):
        for fraction in (0.3, 0.5, 0.8):
            train, test = split(block, fraction, seed)
            ref_train, ref_test = ref_split(block.truth.tolist(), fraction, seed)
            assert train.X.tobytes() == block.X[ref_train].tobytes()
            assert train.y.tolist() == block.truth[ref_train].tolist()
            assert pair_ids(test) == [ids[k] for k in ref_test]
            assert test.X.tobytes() == block.X[ref_test].tobytes()
            assert test.truth.tolist() == block.truth[ref_test].tolist()


@pytest.mark.parametrize("policy", ["two_class", "banded"])
def test_split_matches_reference_at_census_scale(tmp_path, policy):
    """A nonlink group past 2**15 pairs, so the shuffle's vectorised draws run,
    not only its scalar loop; banded keeps two C2 pairs, whose 0.2 share rounds to 0."""
    generate_pair_files(tmp_path / "a.csv", tmp_path / "b.csv", n_a=200, n_b=180,
                        n_links=120, seed=8)
    schema = census_schema()
    a, _ = load_table(tmp_path / "a.csv", schema, "A")
    b, _ = load_table(tmp_path / "b.csv", schema, "B")
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), policy)
    if policy == "banded":
        two_c2 = np.flatnonzero(block.truth == 2)[:2]
        block = block_of_rows(block, np.sort(np.r_[np.flatnonzero(block.truth != 2), two_c2]))
        assert np.unique(block.truth).tolist() == [1, 2, 3]
    assert (block.truth == 1).sum() > 2**15
    X, labels = block.X, block.truth.tolist()
    for seed in (0, 5, 12):
        for fraction in (0.2, 0.5, 0.9):
            train, test = split(block, fraction, seed)
            ref_train, ref_test = ref_split(labels, fraction, seed)
            assert train.X.tobytes() == X[ref_train].tobytes()
            assert train.y.tolist() == block.truth[ref_train].tolist()
            assert core.side_rows(test.labels).tolist() == ref_test
            assert test.truth.tolist() == block.truth[ref_test].tolist()
    # 0.002 of the ~120 links rounds to none: the reference trains on no link
    ref_train, _ = ref_split(labels, 0.002, 0)
    assert 3 not in block.truth[ref_train]
    with pytest.raises(EvaluationError, match="no links"):
        split(block, 0.002, 0)


# --- a split's sides, labels over the whole block, against the positioned column form ---

SIDE_VALUES = [0.0, -0.0, 0.25, 0.5, 0.88, 0.9, 1.0, 1 / 3]


@st.composite
def drawn_pairs(draw):
    """An unlabeled block of 0-25 records a side over 1-3 fields of small value tables,
    links among its pairs, and a pair to make non-finite with a value (inf shares its
    kernel row with 1.0)."""
    na, nb = draw(st.integers(0, 25)), draw(st.integers(0, 25))
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        da, db = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        table = draw(st.lists(st.sampled_from(SIDE_VALUES), min_size=da * db, max_size=da * db))
        fields.append((np.array(draw(st.lists(st.integers(0, da - 1), min_size=na, max_size=na)),
                                dtype=np.intp),
                       np.array(draw(st.lists(st.integers(0, db - 1), min_size=nb, max_size=nb)),
                                dtype=np.intp),
                       *_distinct_cells(np.array(table).reshape(da, db))))
    ids_a, ids_b = tuple(f"a{i}" for i in range(na)), tuple(f"b{k}" for k in range(nb))
    links = {(ids_a[p // nb], ids_b[p % nb])
             for p in draw(st.lists(st.integers(0, max(na * nb - 1, 0)), min_size=1,
                                    max_size=12))
             if na * nb}
    block = PairBlock(ids_a, ids_b, tuple(fields), np.zeros(na * nb, dtype=np.int8))
    return (block, links, draw(st.integers(0, max(na * nb - 1, 0))),
            draw(st.sampled_from([np.nan, np.inf, -np.inf])))


def assert_same_cells(model, got, want, thresholds=None):
    """The (row, label, count) cells of two numberings: the same labels and counts, and rows
    alike by the kernel (or, with thresholds, by agreement) though read from other pairs."""
    (X, label, count), (want_X, want_label, want_count) = got, want
    assert label.tolist() == want_label.tolist() and count.tolist() == want_count.tolist()
    if thresholds is not None:
        assert (X >= thresholds).tolist() == (want_X >= thresholds).tolist()
        return
    for procedure in PROCEDURES:
        cats, sigma = classify_batch(model, X, procedure)
        want_cats, want_sigma = classify_batch(model, want_X, procedure)
        assert cats.tolist() == want_cats.tolist() and sigma.tobytes() == want_sigma.tobytes()


@pytest.mark.parametrize("chunk_rows", [1, 7, None])
@pytest.mark.parametrize("policy", ["two_class", "banded"])
@settings(max_examples=30, derandomize=True, deadline=None)
@given(drawn=drawn_pairs(), fraction=st.sampled_from([0.3, 0.5, 0.8]), seed=st.integers(0, 99))
def test_sides_count_as_the_positioned_column_form(chunk_rows, policy, drawn, fraction, seed):
    """Each side of a split, an int8 label a pair of the whole block, gives the counts,
    views and refusals of the same pairs gathered by position into a column form
    (oracles.ref_side), in ref_split's order, at every chunk size of the counts."""
    block, links, bad_pair, bad_value = drawn
    with pytest.MonkeyPatch.context() as patch:
        for module in (core, linkage):
            patch.setattr(module, "CHUNK_ROWS", chunk_rows or module.CHUNK_ROWS)
        try:
            block = label_pairs(block, links, policy)
        except FsError:  # banded labels fit their baseline on links and nonlinks
            assume(False)
        sides = ref_split(block.truth.tolist(), fraction, seed)
        if 3 not in block.truth[sides[0]]:
            event("no link to train on")
            with pytest.raises(EvaluationError, match="no links"):
                split(block, fraction, seed)
            return
        model = simple_model(len(block.fields))
        for side, rows in zip(split(block, fraction, seed), sides):
            X, counts, histograms, kernel, patterns = ref_side(block, rows, block.truth[rows],
                                                               model)
            assert len(side) == len(rows)
            assert side.X.tobytes() == X.tobytes()
            assert side.y.tolist() == side.truth.tolist() == block.truth[rows].tolist()
            assert [side.pair(i) for i in range(len(side))] == [block.pair(r) for r in rows]
            assert side.histograms[0][1].sum(axis=0).tolist() == counts.tolist()
            for (values, count), (want_values, want_count) in zip(side.histograms, histograms):
                assert values.tobytes() == want_values.tobytes()
                assert count.tolist() == want_count.tolist()
            assert_same_cells(model, core.label_cells(
                *core.kernel_rows(model, side.fields, side.labels), side.labels), kernel)
            assert_same_cells(model, core.label_cells(
                *agreement_patterns(side.fields), side.labels), patterns, 0.88)
        # a value taken by a training pair is named by its training row; one taken only by a
        # test pair lets the training side be counted, and is named by its test row in sweeps
        X = block.X
        X[bad_pair, 0] = bad_value
        bad = block_from_columns(block.ids_a, block.ids_b, X, block.truth)
        if bad_pair in sides[0]:
            event("a training pair takes the non-finite value")
            message = f"training row {sides[0].index(bad_pair)} is not finite: "
            with pytest.raises(CalibrationError,
                               match=re.escape(f"{message}{X[bad_pair].tolist()}")):
                split(bad, fraction, seed)
            return
        train, test = split(bad, fraction, seed)
        core.cut_counts(model, train.fields, train.labels, [0.7])
        assert len(train.histograms) == len(block.fields)
        event("only a test pair takes the non-finite value")
        message = f"performance row {sides[1].index(bad_pair)} is not finite: "
        with pytest.raises(ModelError, match=re.escape(f"{message}{X[bad_pair].tolist()}")):
            lambda_sweep(test, model, [0.7])


@pytest.mark.filterwarnings("ignore:category C2 has no training examples")
def test_a_non_finite_test_pair_lets_train_through(tables):
    """A non-finite value that only a test pair takes: train calibrates and fits its
    baseline, and sweep names the pair by its test row; taken by a training pair, the split
    names it by its training row."""
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    ref_train, ref_test = ref_split(block.truth.tolist(), 0.5, 4)
    for rows, k in ((ref_test, 0), (ref_test, -1), (ref_train, 1)):
        X = block.X
        X[rows[k], -1] = np.inf
        bad = block_from_columns(block.ids_a, block.ids_b, X, block.truth)
        message = f"row {k % len(rows)} is not finite: {X[rows[k]].tolist()}"
        if rows is ref_train:
            with pytest.raises(CalibrationError, match=re.escape(f"training {message}")):
                split(bad, 0.5, 4)
            continue
        train, test = split(bad, 0.5, 4)
        model, _, _ = calibrate(train, criterion_names=schema.field_names)
        fit_patterns(*agreement_patterns(train.fields), train.labels)
        with pytest.raises(ModelError, match=re.escape(f"performance {message}")):
            lambda_sweep(test, model, [model.cutting_level])


@pytest.mark.parametrize("band_rate", [0.01, 0.3])
def test_fit_fs_matches_reference(tables, band_rate, monkeypatch):
    monkeypatch.setattr(fellegi_sunter, "BAND_RATE", band_rate)
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    train, _ = split(block, 0.5, seed=2)
    for X, y in ((block.X, block.truth), (train.X, train.y)):
        fs = fit_fs(X, y)
        assert fs == FsModel(*ref_fit_fs(X.tolist(), y.tolist(), band_rate=band_rate))


def test_fit_fs_matches_reference_on_noisy_labels(monkeypatch):
    # few pairs with 0/1 similarities and random labels often tie the error
    # count at several cuts, which pins down the first-strict-minimum rule
    rng = np.random.default_rng(31)
    for _ in range(200):
        n, m = int(rng.integers(4, 40)), int(rng.integers(1, 4))
        X = rng.integers(0, 2, size=(n, m)).astype(float)
        y = np.where(rng.random(n) < 0.4, 3, 1)
        y[:2] = (3, 1)
        for band_rate in (0.01, 0.2):
            monkeypatch.setattr(fellegi_sunter, "BAND_RATE", band_rate)
            fs = fit_fs(X, y)
            ref = ref_fit_fs(X.tolist(), y.tolist(), band_rate=band_rate)
            assert fs == FsModel(*ref)


def test_banded_labels_fit_their_baseline_as_given_one(tables):
    """Banded labeling without a model equals a baseline fitted on the two-class
    labels of the whole block and passed in."""
    schema, a, b = tables
    block, links = build_pairs(a, b, schema), true_links(a, b)
    fs = fit_fs(block.X, label_pairs(block, links, "two_class").truth)
    given = label_pairs(block, links, "banded", fs_model=fs)
    fitted = label_pairs(block, links, "banded")
    assert fitted.truth.dtype == given.truth.dtype
    assert fitted.truth.tolist() == given.truth.tolist()
    assert pair_ids(fitted) == pair_ids(given)


# --- the lambda grid: credibilities once, one cut per lambda ---


def per_lambda_curve(train, criteria, profiles, grid, procedure, epsilon):
    """estimate_lambda as it was: a model and a classification per grid point."""
    curve = []
    for lam in grid:
        model = ElectreModel(criteria, profiles, lam, epsilon)
        cats, _ = classify_batch(model, train.X, procedure)
        curve.append((lam, float((cats == train.y).mean())))
    best_lam = max(reversed(curve), key=lambda point: point[1])[0]
    return best_lam, curve


def per_lambda_sweep(block, model, grid, procedure):
    """lambda_sweep as it was: a model, a classification and a per-pair count per grid point."""
    reports = []
    for lam in grid:
        m = ElectreModel(model.criteria, model.profiles, lam, model.epsilon)
        cats, _ = classify_batch(m, block.X, procedure)
        reports.append(ref_evaluate(cats, block.truth, cutting_level=lam, procedure=procedure))
    return reports


def noisy_labeled_model(seed):
    """A random model and 120 rows labeled by it at its own lambda, 20% relabeled at random."""
    rng = random.Random(seed)
    profiles, qs, ps, vs, ws, lam, eps = random_model_params(rng)
    criteria = tuple(
        Criterion(f"g{j}", ws[j], qs[j], ps[j], vs[j]) for j in range(len(ws))
    )
    model = ElectreModel(criteria, ProfileSet(profiles), lam, eps)
    X = np.array([[rng.uniform(0, 1.2) for _ in range(model.m)] for _ in range(120)])
    y, _ = classify_batch(model, X)
    for i in range(len(y)):
        if rng.random() < 0.2:
            y[i] = rng.randint(1, model.category_count)
    return model, X, y


@pytest.mark.parametrize("procedure", ["pessimistic", "optimistic"])
def test_estimate_lambda_matches_per_lambda_models(procedure):
    for seed in range(40):
        model, X, y = noisy_labeled_model(seed)
        train = TrainingSet(X, y, model.category_count)
        for grid_step in (0.05, 0.1, 0.3):
            got = estimate_lambda(train, model.criteria, model.profiles, grid_step,
                                  procedure, model.epsilon)
            grid = [lam for lam, _ in got[1]]
            assert got == per_lambda_curve(train, model.criteria, model.profiles, grid,
                                           procedure, model.epsilon)


SWEEP_GRID = [0.5, 0.55, 0.62, 0.7, 0.75, 0.85, 0.9, 0.95, 1.0]


def assert_sorted_sweep(got, ref):
    """Reports equal in every field, the contingency listed sorted by (truth, category)."""
    assert got == ref
    for report in got:
        assert list(report.contingency.items()) == sorted(report.contingency.items())


@pytest.mark.parametrize("procedure", ["pessimistic", "optimistic"])
def test_lambda_sweep_matches_per_lambda_models(procedure):
    for seed in range(40):
        model, X, y = noisy_labeled_model(seed)
        block = block_from_columns(("a",), tuple(range(len(y))), X, y)
        assert_sorted_sweep(lambda_sweep(block, model, SWEEP_GRID, procedure),
                            per_lambda_sweep(block, model, SWEEP_GRID, procedure))


@pytest.mark.parametrize("procedure", ["pessimistic", "optimistic"])
def test_lambda_sweep_counts_shared_kernel_rows_per_pair(procedure):
    """300 pairs over at most 12 distinct rows, with truth labels 1..5 whatever the
    model's category count: each kernel row counts once per truth label it carries."""
    two_categories = False
    for seed in range(40):
        model, X, _ = noisy_labeled_model(seed)
        two_categories |= model.category_count == 2
        rng = np.random.default_rng(seed)
        rows, truth = rng.integers(0, 12, size=300), rng.integers(1, 6, size=300)
        block = block_from_columns(("a",), tuple(range(300)), X[rows], truth)
        assert len(core.kernel_rows(model, block.fields)[0]) <= 12
        assert_sorted_sweep(lambda_sweep(block, model, SWEEP_GRID, procedure),
                            per_lambda_sweep(block, model, SWEEP_GRID, procedure))
    assert two_categories


@pytest.mark.filterwarnings("ignore:category C2 has no training examples")
@pytest.mark.parametrize("policy", ["two_class", "banded"])
@pytest.mark.parametrize("procedure", ["pessimistic", "optimistic"])
def test_lambda_sweep_on_test_split_matches_per_pair(tables, policy, procedure):
    """The sweep command's path: a model calibrated on the training split, swept on the rest."""
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), policy)
    train, test = split(block, 0.5, 0)
    model, _, _ = calibrate(train, procedure=procedure)
    assert_sorted_sweep(lambda_sweep(test, model, SWEEP_GRID, procedure),
                        per_lambda_sweep(test, model, SWEEP_GRID, procedure))


def assert_same_report(got, ref):
    """Every field equal, and the contingency in the same order."""
    assert list(got.contingency.items()) == list(ref.contingency.items())
    assert got == ref
    assert all(type(x) is int for cell, n in got.contingency.items() for x in (*cell, n))


@pytest.mark.parametrize("seed", range(60))
def test_evaluate_matches_per_pair_count(seed):
    """Random labels from random subsets of 1..5, so most cells stay empty."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    truth_labels = rng.choice(np.arange(1, 6), size=int(rng.integers(1, 6)), replace=False)
    predicted_labels = rng.choice(np.arange(1, 6), size=int(rng.integers(1, 6)), replace=False)
    truth, predicted = rng.choice(truth_labels, n), rng.choice(predicted_labels, n)
    lam = float(rng.uniform(0.5, 1.0))
    assert_same_report(evaluate(predicted, truth, lam, "optimistic"),
                       ref_evaluate(predicted, truth, lam, "optimistic"))
    assert_same_report(evaluate(predicted.tolist(), truth.tolist()),
                       ref_evaluate(predicted.tolist(), truth.tolist()))


def test_evaluate_single_row_matches_per_pair_count():
    for t in range(1, 6):
        for p in range(1, 6):
            assert_same_report(evaluate([p], [t]), ref_evaluate([p], [t]))


def test_evaluate_rejects_what_the_per_pair_count_rejects():
    for predicted, truth in (([], []), ([1], [1, 3])):
        for scorer in (evaluate, ref_evaluate):
            with pytest.raises(EvaluationError):
                scorer(predicted, truth)


# --- the kernel over row chunks against one chunk ---


def cost_mirror(model, X, cost):
    """The same model and rows with the criteria in cost flipped to cost direction.

    Orienting negates those columns back, so the credibilities are bitwise equal.
    """
    sign = np.where(cost, -1.0, 1.0)
    criteria = tuple(replace(c, direction="cost" if flip else "gain")
                     for c, flip in zip(model.criteria, cost))
    profiles = ProfileSet(tuple(tuple((np.array(row) * sign).tolist())
                                for row in model.profiles.values))
    return ElectreModel(criteria, profiles, model.cutting_level, model.epsilon), X * sign


@pytest.mark.parametrize("procedure", ["pessimistic", "optimistic"])
def test_credibilities_equal_over_chunk_boundaries(monkeypatch, procedure):
    for seed in range(20):
        model, X, _ = noisy_labeled_model(seed)
        n = len(X)
        assert n < core.CHUNK_ROWS
        whole = credibilities(model, X)
        cats = classify_batch(model, X, procedure)[0]
        mirrored = cost_mirror(model, X, np.arange(model.m) % 2 == 0)
        for chunk_rows in (1, 7, n - 1, n, n + 1):
            monkeypatch.setattr(core, "CHUNK_ROWS", chunk_rows)
            for m, x in ((model, X), mirrored):
                sig_ab, sig_ba = credibilities(m, x)
                assert sig_ab.tobytes() == whole[0].tobytes()
                assert sig_ba.tobytes() == whole[1].tobytes()
                assert classify_batch(m, x, procedure)[0].tolist() == cats.tolist()
        monkeypatch.undo()


def test_non_finite_row_named_by_its_global_index(monkeypatch):
    model, X, _ = noisy_labeled_model(0)
    X[10, -1] = np.nan
    monkeypatch.setattr(core, "CHUNK_ROWS", 7)
    with pytest.raises(ModelError, match="row 10 "):
        credibilities(model, X)


# --- kernel rows: the kernel once per distinct kernel input against once per pair ---


def random_model(rng, m):
    """A random model of m criteria: vetoes on some, 1-4 profiles, lambda 1.0 one time in four,
    and every other criterion turned to cost direction one time in two."""
    params = next(p for p in iter(lambda: random_model_params(rng, m, 5), None) if len(p[4]) == m)
    profiles, qs, ps, vs, ws, lam, eps = params
    criteria = tuple(Criterion(f"g{j}", ws[j], qs[j], ps[j], vs[j]) for j in range(m))
    model = ElectreModel(criteria, ProfileSet(profiles), 1.0 if rng.random() < 0.25 else lam, eps)
    cost = np.arange(m) % 2 == 0 if rng.random() < 0.5 else np.zeros(m, dtype=bool)
    return cost_mirror(model, np.empty((0, m)), cost)[0]


def assert_kernel_rows_classify(block, model):
    """classify_batch on the kernel rows, gathered per pair, against classify_batch on X."""
    R, kernel_row = core.kernel_rows(model, block.fields)
    assert len(kernel_row) == len(block)
    for procedure in ("pessimistic", "optimistic"):
        cats, sigma = classify_batch(model, R, procedure)
        want_cats, want_sigma = classify_batch(model, block.X, procedure)
        assert sigma[kernel_row].shape == want_sigma.shape
        assert sigma[kernel_row].tobytes() == want_sigma.tobytes()
        assert cats[kernel_row].tolist() == want_cats.tolist()
    return R


def test_kernel_rows_classify_random_blocks():
    """Random models on 12x10 blocks of 30 distinct performance rows, their values on a
    coarse grid and on the profiles and their thresholds."""
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(1, 5)
        model = random_model(rng, m)
        B, q, p, v, _ = model.arrays
        sign = model.sign
        edges = [B * sign, (B - q) * sign, (B + p) * sign, (B - np.nan_to_num(v)) * sign]
        X = np.array([[rng.choice([round(rng.uniform(-0.2, 1.2), 1),
                                   float(rng.choice(edges)[rng.randrange(len(B)), j])])
                       for j in range(m)] for _ in range(30)])
        X = X[[rng.randrange(30) for _ in range(120)]]
        block = block_from_columns(tuple(range(12)), tuple(range(10)), X, np.zeros(120))
        R = assert_kernel_rows_classify(block, model)
        assert len(R) < len(block)
        assert_kernel_rows_classify(block_of_rows(block, np.arange(0, 120, 7)), model)


def test_kernel_rows_classify_built_blocks(tables):
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    rng = random.Random(29)
    for _ in range(20):
        model = random_model(rng, len(schema.field_names))
        assert_kernel_rows_classify(block, model)
        assert_kernel_rows_classify(block_of_rows(block, np.arange(len(block) - 1, -1, -3)),
                                    model)


def test_kernel_rows_of_an_empty_block():
    model = simple_model(3)
    block = block_from_columns((), ("b",), np.empty((0, 3)), [])
    R, kernel_row = core.kernel_rows(model, block.fields)
    assert R.shape == (0, 3) and kernel_row.shape == (0,)
    assert_kernel_rows_classify(block, model)
    empty_side = block_from_columns(("a",), (), np.empty((0, 3)), [])
    assert_kernel_rows_classify(empty_side, model)


def test_kernel_rows_of_pairs_alike():
    """Every pair on one kernel row: R is that one row, and each pair gets its sigma."""
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(2, 5)
        model = random_model(rng, m)
        row = [rng.uniform(0, 1.2) for _ in range(m)]
        for n in (1, 6):
            block = block_from_columns(tuple(range(n)), ("b",), [row] * n, np.zeros(n))
            R = assert_kernel_rows_classify(block, model)
            assert len(R) == 1


def test_kernel_rows_key_past_int64():
    """Nine fields of 256 kernel states each: the mixed-radix key would need 72 bits,
    and rows that differ in the first field only must keep their own kernel rows."""
    values = (np.arange(256) + 0.5) / 256
    first = (np.arange(256), np.zeros(1, dtype=np.intp), *_distinct_cells(values[:, None]))
    rest = (np.zeros(256, dtype=np.intp), np.zeros(1, dtype=np.intp),
            *_distinct_cells(values[::-1, None]))
    block = PairBlock(tuple(range(256)), ("b",), (first,) + (rest,) * 8,
                      np.zeros(256, dtype=np.int8))
    criteria = tuple(Criterion(f"g{j}", 1.0 + j, 0.0, 1.0) for j in range(9))
    model = ElectreModel(criteria, ProfileSet(((0.5,) * 9,)), 0.6)
    for j in range(9):
        assert core.criterion_codes(model, j, values).max() + 1 == 256
    R = assert_kernel_rows_classify(block, model)
    assert len(R) == 256


# --- the profile chain: the pooling pass against the composition enumeration ---


def random_profile_training(rng, p, m, grid, empty, epsilon):
    """Overlapping category clouds; values on a grid make hinge ties frequent."""
    while True:
        n = int(rng.integers(2 * p, 60))
        y = rng.integers(1, p + 1, n)
        if empty:
            # move one category's rows to a neighbour, leaving it empty
            c = int(rng.integers(1, p + 1))
            y[y == c] = c + 1 if c < p else c - 1
        X = np.clip((y[:, None] - 1 + rng.random((n, m))) / p
                    + rng.normal(0, 0.15, (n, m)), 0, 1)
        if grid:
            X = np.round(X / grid) * grid
        if epsilon * (p - 2) <= np.ptp(X, axis=0).min():
            return TrainingSet(X, y, p)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def exact_sum(x) -> float:
    """The sum of the floats in x, exact up to one rounding."""
    return float(sum(map(Fraction, np.ravel(x).tolist()), Fraction(0)))


@pytest.mark.filterwarnings("ignore:category C.* has no training examples")
@pytest.mark.parametrize("empty", [False, True])
@pytest.mark.parametrize("grid", [None, 0.1])
@pytest.mark.parametrize("p", range(2, 9))
def test_estimate_profiles_matches_enumeration(p, grid, empty):
    rng = np.random.default_rng([p, bool(grid), empty])
    for _ in range(15):
        train = random_profile_training(rng, p, int(rng.integers(1, 4)), grid, empty, 0.01)
        sol = estimate_profiles(train, 0.01)
        ref = ref_estimate_profiles(train, 0.01)
        assert bits(sol.profiles.values) == bits(ref.profiles.values)
        assert sol.objective == exact_sum(ref_slacks(train, ref.profiles))
        assert sol.objective == pytest.approx(ref.objective, rel=1e-12)


@pytest.mark.filterwarnings("ignore:category C.* has no training examples")
@pytest.mark.parametrize("grid, epsilon", [(0.125, 0.125), (0.125, 0.0625), (0.1, 0.1)])
@pytest.mark.parametrize("p", range(3, 9))
def test_estimate_profiles_reaches_enumeration_objective_on_ties(p, grid, epsilon):
    # on a value grid commensurate with epsilon the LP often has several
    # optimal chains: the enumeration keeps the first most-split one in its
    # order, the pooling pass the one its left-to-right merges reach, which
    # may pool to the left what the enumeration splits off to the right. So
    # only the objective is compared: bitwise where values and shifts are
    # exact binary fractions, to the solver's tie tolerance where 0.1 steps round
    rng = np.random.default_rng([p, int(grid * 1000), int(epsilon * 10000)])
    for _ in range(15):
        train = random_profile_training(rng, p, int(rng.integers(1, 4)), grid, False, epsilon)
        sol = estimate_profiles(train, epsilon)
        ref = ref_estimate_profiles(train, epsilon)
        if grid == 0.1:
            assert sol.objective == pytest.approx(ref.objective, rel=1e-12)
        else:
            assert bits(sol.objective) == bits(ref.objective)
        vals = np.array(sol.profiles.values)
        assert (vals[1:] >= vals[:-1] + epsilon - 1e-12).all()


# --- the classified-pairs file: column-wise chunks against the row loop ---

PROCEDURES = ("pessimistic", "optimistic")


def assert_same_file(tmp_path, block, model, field_names):
    """Under either procedure, the writer's file equals the row loop's fed by
    classify_batch on every pair."""
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    for procedure in PROCEDURES:
        write_classified(new, block, model, procedure, field_names)
        ref_write_classified(ref, block, *classify_batch(model, block.X, procedure), field_names)
        assert new.read_bytes() == ref.read_bytes()


def simple_model(m):
    criteria = tuple(Criterion(f"g{j}", 1.0 + j, 0.05, 0.2) for j in range(m))
    return ElectreModel(criteria, ProfileSet(((0.4,) * m, (0.8,) * m)), 0.7)


def table_block(rng, na, nb, m=3):
    """The whole cross product of na x nb records over m random small value tables."""
    fields = []
    for _ in range(m):
        da, db = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        table = np.round(rng.random((da, db)), 1)
        fields.append((rng.integers(0, da, na), rng.integers(0, db, nb), *_distinct_cells(table)))
    ids_a = tuple(f"a{i}" if i % 3 else f"a,{i}" for i in range(na))
    return PairBlock(ids_a, tuple(f"b{k}" for k in range(nb)), tuple(fields),
                     rng.integers(0, 4, na * nb).astype(np.int8))


@pytest.mark.parametrize("chunk_rows", [None, 1, 7, 256])
def test_write_classified_matches_row_loop(tables, tmp_path, monkeypatch, chunk_rows):
    if chunk_rows:
        monkeypatch.setattr(linkage, "CHUNK_ROWS", chunk_rows)
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    # some rows unlabeled, so truth 0 writes as an empty field between labeled ones
    block = replace(block, truth=np.where(np.arange(len(block)) % 3 == 0, 0, block.truth))
    model = simple_model(len(schema.field_names))
    assert_same_file(tmp_path, block, model, schema.field_names)
    unlabeled = replace(block, truth=np.zeros(len(block)))
    assert_same_file(tmp_path, unlabeled, model, schema.field_names)


@pytest.mark.parametrize("join_pairs", [1, 7, 64])
def test_write_classified_joins_pieces_across_a_rows(tables, tmp_path, monkeypatch, join_pairs):
    """A chunk is joined and written JOIN_PAIRS pairs at a time, pieces that start and
    end mid-A-row and mid-chunk; a block and one of every other of its pairs, reversed,
    each give the row loop's file."""
    monkeypatch.setattr(linkage, "JOIN_PAIRS", join_pairs)
    monkeypatch.setattr(linkage, "CHUNK_ROWS", 100)
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    model = simple_model(len(schema.field_names))
    assert_same_file(tmp_path, block, model, schema.field_names)
    assert_same_file(tmp_path, block_of_rows(block, slice(None, None, -2)), model,
                     schema.field_names)


@pytest.mark.parametrize("chunk_rows", [None, 1, 7])
def test_write_classified_reads_the_block_through_columns_once(tables, tmp_path, monkeypatch,
                                                               chunk_rows):
    """A block is numbered and written from its cell tables: each field's index column is
    read once a pair a file (core.cell_index by chunks of whole A-rows), and no pair by its
    position (core.pair_values), however many chunks the file takes. Each file equals the
    row loop's."""
    if chunk_rows:
        monkeypatch.setattr(linkage, "CHUNK_ROWS", chunk_rows)
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    model = simple_model(len(schema.field_names))
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    cell_index, pair_values = linkage.cell_index, core.pair_values
    for pairs in (block, block_of_rows(block, slice(1, None))):
        for procedure in PROCEDURES:
            reads, gathers = [], []
            with monkeypatch.context() as patch:
                patch.setattr(linkage, "cell_index", lambda code_a, code_b, cell: reads.append(
                    len(code_a) * len(code_b)) or cell_index(code_a, code_b, cell))
                patch.setattr(core, "pair_values", lambda fields, rows: gathers.append(
                    len(rows)) or pair_values(fields, rows))
                write_classified(new, pairs, model, procedure, schema.field_names)
            if chunk_rows:
                assert len(pairs) > chunk_rows  # the file is written in several chunks
            assert sum(reads) == len(pairs) * len(pairs.fields) and gathers == []
            ref_write_classified(ref, pairs, *classify_batch(model, pairs.X, procedure),
                                 schema.field_names)
            assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("chunk_rows", [1, 7])
def test_write_classified_of_a_row_longer_than_a_chunk(tmp_path, monkeypatch, chunk_rows):
    """With more B records than CHUNK_ROWS, a whole block is numbered and written one
    A-row a chunk."""
    monkeypatch.setattr(linkage, "CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(core, "CHUNK_ROWS", chunk_rows)
    block = table_block(np.random.default_rng(chunk_rows), 4, 9)
    assert len(block.ids_b) > chunk_rows
    assert_same_file(tmp_path, block, simple_model(3), ["f1", "f2", "f3"])


def test_write_classified_of_a_key_space_past_twice_the_pairs(tmp_path, monkeypatch):
    """Where the criterion codes of a whole block make more keys than twice its pairs,
    its kernel rows are numbered by np.unique (core.distinct_rows gives an intp inverse
    then); the file is the same."""
    inverses = []
    distinct_rows = core.distinct_rows
    monkeypatch.setattr(core, "distinct_rows", lambda fields, states: inverses.append(
        distinct_rows(fields, states)) or inverses[-1])
    rng = np.random.default_rng(8)
    fields = []
    for _ in range(3):  # every value distinct, each on the thresholds' ramps
        table = 0.25 + 0.5 * rng.random((4, 5))
        fields.append((rng.permutation(4), rng.permutation(5), *_distinct_cells(table)))
    block = PairBlock(tuple(f"a{i}" for i in range(4)), tuple(f"b{k}" for k in range(5)),
                      tuple(fields), rng.integers(0, 4, 20).astype(np.int8))
    model = simple_model(3)
    codes = [core.criterion_codes(model, j, values) for j, (_, _, values, _) in enumerate(fields)]
    assert np.prod([int(c.max()) + 1 for c in codes]) > 2 * len(block)
    assert_same_file(tmp_path, block, model, ["f1", "f2", "f3"])
    assert [inverse.dtype for _, inverse in inverses] == [np.intp] * len(PROCEDURES)


@pytest.mark.parametrize("na, nb", [(128, 128), (113, 145)])
def test_write_classified_merges_tables_up_to_chunk_rows(tmp_path, monkeypatch, na, nb):
    """The id columns share one text table when na * nb is CHUNK_ROWS, and keep
    their own when it is CHUNK_ROWS + 1; either file equals the row loop's."""
    assert na * nb - linkage.CHUNK_ROWS in (0, 1)
    groups = []
    merged = linkage._merged
    monkeypatch.setattr(linkage, "_merged",
                        lambda tables: groups.append(merged(tables)) or groups[-1])
    block = table_block(np.random.default_rng(na), na, nb)
    assert_same_file(tmp_path, block, simple_model(3), ["f1", "f2", "f3"])
    for written in groups:  # one per procedure
        sizes = [size for _, size in written]
        assert sizes[0] == ([na, nb] if na * nb == linkage.CHUNK_ROWS else [na])
        assert all(len(texts) <= linkage.CHUNK_ROWS for texts, size in written if len(size) > 1)


# finite, since the writer classifies every row it writes
SPECIAL_FLOATS = [0.0, -0.0, 0.1 + 0.2, 0.3, 1e-300, -1e-300, 5e-324, 1.0, 0.5,
                  1e300, -2.5, 1 / 3, 123456789.125]


@pytest.mark.parametrize("chunk_rows", [None, 1, 5, 16])
def test_write_classified_special_values(tmp_path, monkeypatch, chunk_rows):
    if chunk_rows:
        monkeypatch.setattr(linkage, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(5)
    ids_a = ("a,1", 'say "hi"', " lead", "trail ", "plain", "two\nlines", "", "cr\r", '"')
    ids_b = ("b1", "x,y,z", "  ", 'q""q', "\u00e9t\u00e9")
    n = len(ids_a) * len(ids_b)
    X = rng.choice(SPECIAL_FLOATS, size=(n, 3))
    X[:2] = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]
    block = block_from_columns(ids_a, ids_b, X, rng.integers(0, 4, n))
    assert_same_file(tmp_path, block, simple_model(3), ["f,1", "f2", 'f"3'])


@pytest.mark.parametrize("labels", [(-128, -3, 0, 2, 127), (5, 9), (0,)])
def test_write_classified_labels_far_apart(tmp_path, labels):
    # one label text per value from the least label to the greatest, int8 extremes included
    rng = np.random.default_rng(6)
    n = 40
    X = rng.choice(SPECIAL_FLOATS, size=(n, 2))
    block = block_from_columns(tuple(f"a{i}" for i in range(n)), ("b",), X,
                               rng.choice(labels, n))
    assert_same_file(tmp_path, block, simple_model(2), ["f1", "f2"])


def test_write_classified_empty_block(tmp_path):
    header = b"id_a,id_b,sim_f1,sim_f2,sim_f3,assigned,truth\r\n"
    rng = np.random.default_rng(4)
    empty_sides = [table_block(rng, 0, 5), table_block(rng, 4, 0), table_block(rng, 0, 0)]
    no_rows = block_from_columns(("a",), (), np.empty((0, 3)), [])
    for block in [no_rows, *empty_sides, block_of_rows(table_block(rng, 6, 5), slice(0, 0))]:
        assert len(block) == 0
        assert_same_file(tmp_path, block, simple_model(3), ["f1", "f2", "f3"])
        assert (tmp_path / "new.csv").read_bytes() == header


def test_write_classified_refuses_before_opening_the_file(tmp_path):
    """An unknown procedure, a non-finite similarity or a model of another criterion
    count is refused before the file is opened: no file is left behind."""
    block = table_block(np.random.default_rng(3), 9, 8)
    dest = tmp_path / "c.csv"
    with pytest.raises(ModelError, match="unknown assignment procedure 'sideways'"):
        write_classified(dest, block, simple_model(3), "sideways", ["f1", "f2", "f3"])
    with pytest.raises(ModelError, match="3 fields, model has 2 criteria"):
        write_classified(dest, block, simple_model(2), "pessimistic", ["f1", "f2"])
    X = block.X
    X[17, 1] = float("nan")
    bad = block_from_columns(block.ids_a, block.ids_b, X, block.truth)
    with pytest.raises(ModelError, match=r"performance row 17 is not finite: \[.*nan"):
        write_classified(dest, bad, simple_model(3), "optimistic", ["f1", "f2", "f3"])
    assert not dest.exists()


@pytest.mark.parametrize("chunk_rows", [6, 8])
@pytest.mark.parametrize("lo, hi", [(3, 40), (10, 33), (2, 5)])
def test_write_classified_of_a_run_starting_mid_row(tmp_path, monkeypatch, chunk_rows, lo, hi):
    """A run of pairs starting and ending mid-A-row (nb = 7), read in chunks one pair short
    of and one past an A-row: its side of the block sweeps as its pairs do one at a time,
    and the block labeled on the run alone writes the row loop's file."""
    monkeypatch.setattr(linkage, "CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(core, "CHUNK_ROWS", chunk_rows)
    block = table_block(np.random.default_rng(lo), 6, 7)
    run = np.arange(len(block))
    labels = np.where((run >= lo) & (run < hi), block.truth % 3 + 1, 0).astype(np.int8)
    side, model = PairSide(block, labels), simple_model(3)
    assert core.side_rows(labels).tolist() == sorted(range(lo, hi), key=labels.__getitem__)
    for procedure in PROCEDURES:
        assert_sorted_sweep(lambda_sweep(side, model, SWEEP_GRID, procedure),
                            per_lambda_sweep(side, model, SWEEP_GRID, procedure))
    assert_same_file(tmp_path, replace(block, truth=labels), model, ["f1", "f2", "f3"])


# --- the pair layout read by whole table rows, against per-pair gathers ---


def assert_columns_per_pair(block, rows):
    """The values core.pair_values reads for the positions np.arange(n)[rows], against each
    pair's cells looked up one at a time."""
    nb = len(block.ids_b)
    positions = np.arange(len(block))[rows]
    X = core.pair_values(block.fields, positions)
    assert X.shape == (len(positions), len(block.fields))
    want = [[values[cell[code_a[r // nb], code_b[r % nb]]]
             for code_a, code_b, values, cell in block.fields] for r in positions.tolist()]
    assert X.tobytes() == np.array(want, dtype=float).reshape(X.shape).tobytes()


@pytest.mark.parametrize("rows", [
    slice(3, 17),  # starts and ends mid-A-row, across two boundaries
    slice(4, 9),  # across one boundary
    slice(2, 5),  # inside one A-row, nb larger than the run
    slice(6, 12),  # one whole A-row
    slice(8, 48),  # across several boundaries, ending on the last pair
    slice(None),  # the whole block
    slice(13, 14),  # one pair
    slice(7, 7),  # empty
    [],  # no rows taken
    slice(None, None, -1),  # reversed
    [0, 1, 3],  # gapped
    [5, 5, 6],  # repeated
    [9, 8, 7],  # descending
    [2, 4, 3, 5],  # last - first is len - 1, yet no run
])
def test_columns_of_rows_match_per_pair_gathers(rows):
    block = table_block(np.random.default_rng(11), 8, 6)
    assert_columns_per_pair(block, rows)


@pytest.mark.parametrize("na, nb", [(0, 4), (5, 0), (0, 0)])
def test_columns_of_an_empty_side(na, nb):
    block = table_block(np.random.default_rng(na + nb), na, nb)
    indices = [core.cell_index(code_a, code_b, cell) for code_a, code_b, _, cell in block.fields]
    assert [index.shape for index in indices] == [(0,)] * 3
    assert block.X.shape == (0, 3)
    assert_columns_per_pair(block, slice(None))


def test_columns_of_a_whole_block_gather_no_per_pair_codes():
    """Each field's index is read by table rows: no divmod pair, no int64 code gathers."""
    m = 3
    block = table_block(np.random.default_rng(13), 400, 300, m)
    n = len(block)
    tracemalloc.start()
    try:
        columns = [core.cell_index(code_a, code_b, cell)
                   for code_a, code_b, _, cell in block.fields]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(columns) == m and all(index.dtype == np.int32 for index in columns)
    # the int32 indices and two more of them; divmod alone is 16 bytes a pair
    assert peak <= 4 * n * (m + 2)


def test_columns_of_a_subset_stay_within_the_whole_block_bound():
    """A side of half the pairs is counted, per field, from one whole read of the field's
    index at a time: its histograms cost no more than a whole block's columns."""
    m = 3
    block = table_block(np.random.default_rng(14), 400, 300, m)
    n = len(block)
    labels = np.zeros(n, dtype=np.int8)
    labels[np.random.default_rng(15).choice(n, n // 2, replace=False)] = 1
    half = PairSide(block, labels)
    tracemalloc.start()
    try:
        histograms = half.histograms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [int(counts.sum()) for _, counts in histograms] == [n // 2] * m
    assert peak <= 4 * n * (m + 2)


# --- pairs read by position against the same pairs built as a whole block ---


MASK = np.arange(48) % 5 < 2


@pytest.mark.parametrize("selections", [
    (),  # no selection: the whole block against np.arange(n) as positions
    (slice(None),),
    (slice(3, 17),),  # starts and ends mid-A-row
    (slice(None, None, -3),),
    ([9, 0, 0, 47, -1, -48],),  # a list, repeated and negative rows
    (np.array([5, 2, 30], dtype=np.int32),),
    (np.array([44, 6, 6], dtype=np.intp),),
    (MASK,),  # a boolean mask, not positions 0 and 1
    (MASK.tolist(),),
    ([],),
    (np.zeros(48, dtype=bool),),
    (slice(2, 40), [5, 1, 1, -2]),  # a selection of a selection
    (MASK, slice(None, None, -1)),
    (np.arange(47, -1, -1), MASK[::-1]),
])
def test_whole_block_matches_the_same_pairs_as_positions(tmp_path, monkeypatch, selections):
    """The positions np.arange(n)[selection], selected in turn, read from the whole block by
    core.pair_values, and the same pairs built as a whole block of their own
    (oracles.block_of_rows): every read of the pairs agrees, and the file written of the
    pairs is the row loop's at every chunk size."""
    block = table_block(np.random.default_rng(21), 8, 6)
    want = np.arange(len(block))
    for selection in selections:
        want = want[selection]
    held = block_of_rows(block, want)
    X = core.pair_values(block.fields, want)
    assert held.X.tobytes() == X.tobytes() == block.X[want].tobytes()
    assert held.truth.tolist() == block.truth[want].tolist()
    assert [held.pair(r) for r in range(len(held))] == [(block.pair(r), "") for r in want]
    model = simple_model(3)
    assert_kernel_rows_classify(held, model)
    P, pattern = agreement_patterns(held.fields)
    assert (P[pattern] >= 0.88).tolist() == (X >= 0.88).tolist()
    for chunk_rows in (1, 7, linkage.CHUNK_ROWS):
        with monkeypatch.context() as patch:
            patch.setattr(linkage, "CHUNK_ROWS", chunk_rows)
            patch.setattr(core, "CHUNK_ROWS", chunk_rows)
            assert_same_file(tmp_path, held, model, ["f1", "f2", "f3"])


# --- calibration from counts against the row-based references ---


def counted_block(rng, p, m, grid, epsilon):
    """A side of a PairBlock over small value tables, labeled 1..p, about one pair in
    p + 1 off the side.

    With grid set, values are multiples of it and epsilon a multiple too, so
    values shifted by whole epsilons land exactly on other values' breakpoints.
    One category in three blocks is left empty, so some profile has one side
    only; ties between repeated values are everywhere.
    """
    na, nb = int(rng.integers(2, 10)), int(rng.integers(2, 10))
    fields = []
    for _ in range(m):
        table = rng.random((3, 4))
        if grid:
            table = np.round(table / grid) * grid
        table[rng.random(table.shape) < 0.2] = 0.9  # some agreement above 0.88
        fields.append((rng.integers(0, 3, na), rng.integers(0, 4, nb), *_distinct_cells(table)))
    y = rng.integers(0, p + 1, na * nb)
    if rng.random() < 1 / 3:
        c = int(rng.integers(1, p + 1))
        y[y == c] = c + 1 if c < p else c - 1
    block = PairBlock(tuple(range(na)), tuple(range(nb)), tuple(fields),
                      np.zeros(na * nb, dtype=np.int8))
    return PairSide(block, y.astype(np.int8), p)


def assert_calibrated_as_rows(train, epsilon, procedure):
    """Profiles, objective, thresholds, the lambda curve and the baseline of a training
    set equal the row-based references on its rows, bitwise."""
    X, y, p = train.X, train.y, train.category_count
    rows = TrainingSet(X, y, p)
    sol = estimate_profiles(train, epsilon)
    ref = ref_estimate_profiles(rows, epsilon, pool=True)
    assert bits(sol.profiles.values) == bits(ref.profiles.values)
    assert sol.objective == exact_sum(ref_slacks(rows, ref.profiles))
    ranges = X.max(axis=0) - X.min(axis=0)
    assert estimate_thresholds(train) == [(0.05 * r, 0.15 * r) for r in ranges]
    model, _, curve = calibrate(train, epsilon=epsilon, grid_step=0.05, procedure=procedure)
    grid = [lam for lam, _ in curve]
    assert (model.cutting_level, curve) == per_lambda_curve(
        rows, model.criteria, model.profiles, grid, procedure, epsilon)
    if (y == 3).any() and (y != 3).any():
        fs = fit_patterns(*agreement_patterns(train.fields), train.labels)
        assert fs == FsModel(*ref_fit_fs(X.tolist(), y.tolist()))


@pytest.mark.filterwarnings("ignore:category C.* has no training examples")
@pytest.mark.parametrize("procedure", ["pessimistic", "optimistic"])
@pytest.mark.parametrize("grid, epsilon", [(None, 0.01), (0.125, 0.125), (1 / 64, 1 / 32)])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_calibration_from_counts_matches_rows(p, grid, epsilon, procedure):
    """Both forms: an (n, m) matrix, and a side of a block's whole cross product."""
    rng = np.random.default_rng([p, int(epsilon * 1000), procedure == "optimistic"])
    checked = 0
    while checked < 12:
        side = counted_block(rng, p, int(rng.integers(1, 4)), grid, epsilon)
        X = side.X
        if len(X) < 2 * p or (epsilon * (p - 2) > np.ptp(X, axis=0)).any():
            continue  # EpsilonInfeasibleError, checked elsewhere
        from_matrix = TrainingSet(X, side.y, p)
        assert X.tobytes() == side.block.X[core.side_rows(side.labels)].tobytes()
        for train in (side, from_matrix):
            assert_calibrated_as_rows(train, epsilon, procedure)
        checked += 1


@pytest.mark.filterwarnings("ignore:category C2 has no training examples")
def test_split_calibrates_as_its_rows(tables):
    schema, a, b = tables
    for policy in ("two_class", "banded"):
        block = label_pairs(build_pairs(a, b, schema), true_links(a, b), policy)
        train, _ = split(block, 0.5, 3)
        assert_calibrated_as_rows(train, 0.01, "pessimistic")


def test_weighted_fit_fs_equals_repeated_rows(monkeypatch):
    """Row i counted weights[i] times fits as the rows repeated, zero weights dropped."""
    rng = np.random.default_rng(41)
    for _ in range(100):
        k, m = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        X = rng.choice([0.0, 0.5, 0.88, 0.9, 1.0], size=(k, m))
        y = rng.choice([1, 2, 3], size=k)
        y[:2] = (3, 1)
        w = rng.integers(0, 6, k)
        w[:2] += 1
        for band_rate in (0.01, 0.2, 0.5):
            monkeypatch.setattr(fellegi_sunter, "BAND_RATE", band_rate)
            repeated = np.repeat(X, w, axis=0), np.repeat(y, w)
            got = fit_fs(X, y, w)
            assert got == fit_fs(*repeated)
            assert got == FsModel(*ref_fit_fs(repeated[0].tolist(), repeated[1].tolist(),
                                              band_rate=band_rate))

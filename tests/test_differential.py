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
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from electre_linkage import core, linkage
from electre_linkage.calibration import (
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
from electre_linkage.evaluation import EvaluationError, evaluate, lambda_sweep, split
from electre_linkage.fellegi_sunter import (
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
    random_model_params,
    ref_build_pairs,
    ref_estimate_profiles,
    ref_evaluate,
    ref_fit_fs,
    ref_log_ratio,
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
    schema, a, b = tables
    block = build_pairs(a, b, schema)
    X = block.X
    rng = np.random.default_rng(3)
    for rows in (rng.integers(0, len(block), 50), rng.permutation(len(block)),
                 np.empty(0, dtype=np.intp)):
        sub = block.take(rows)
        assert sub.X.shape == (len(rows), X.shape[1])
        assert sub.X.tobytes() == X[rows].tobytes()


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
        block = block.take(np.sort(np.r_[np.flatnonzero(block.truth != 2), two_c2]))
        assert np.unique(block.truth).tolist() == [1, 2, 3]
    assert (block.truth == 1).sum() > 2**15
    X, labels = block.X, block.truth.tolist()
    for seed in (0, 5, 12):
        for fraction in (0.2, 0.5, 0.9):
            train, test = split(block, fraction, seed)
            ref_train, ref_test = ref_split(labels, fraction, seed)
            assert train.X.tobytes() == X[ref_train].tobytes()
            assert train.y.tolist() == block.truth[ref_train].tolist()
            assert test.rows.tolist() == block.rows[ref_test].tolist()
            assert test.truth.tolist() == block.truth[ref_test].tolist()
    # 0.002 of the ~120 links rounds to none: the reference trains on no link
    ref_train, _ = ref_split(labels, 0.002, 0)
    assert 3 not in block.truth[ref_train]
    with pytest.raises(EvaluationError, match="no links"):
        split(block, 0.002, 0)


@pytest.mark.parametrize("band_rate", [0.01, 0.3])
def test_fit_fs_matches_reference(tables, band_rate):
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    train, _ = split(block, 0.5, seed=2)
    for X, y in ((block.X, block.truth), (train.X, train.y)):
        fs = fit_fs(X, y, band_rate=band_rate)
        assert fs == FsModel(*ref_fit_fs(X.tolist(), y.tolist(), band_rate=band_rate))


def test_fit_fs_matches_reference_on_noisy_labels():
    # few pairs with 0/1 similarities and random labels often tie the error
    # count at several cuts, which pins down the first-strict-minimum rule
    rng = np.random.default_rng(31)
    for _ in range(200):
        n, m = int(rng.integers(4, 40)), int(rng.integers(1, 4))
        X = rng.integers(0, 2, size=(n, m)).astype(float)
        y = np.where(rng.random(n) < 0.4, 3, 1)
        y[:2] = (3, 1)
        for band_rate in (0.01, 0.2):
            fs = fit_fs(X, y, band_rate=band_rate)
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
        block = block_from_columns(("a",), tuple(range(len(y))), np.zeros(len(y)),
                                   np.arange(len(y)), X, y)
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
        block = block_from_columns(("a",), tuple(range(300)), np.zeros(300), np.arange(300),
                                   X[rows], truth)
        assert len(core.kernel_rows(model, block.columns())[0]) <= 12
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
    R, kernel_row = core.kernel_rows(model, block.columns())
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
        ia, ib = np.divmod(np.arange(120), 10)
        block = block_from_columns(tuple(range(12)), tuple(range(10)), ia, ib, X,
                                   np.zeros(120))
        R = assert_kernel_rows_classify(block, model)
        assert len(R) < len(block)
        assert_kernel_rows_classify(block.take(np.arange(0, 120, 7)), model)


def test_kernel_rows_classify_built_blocks(tables):
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    rng = random.Random(29)
    for _ in range(20):
        model = random_model(rng, len(schema.field_names))
        assert_kernel_rows_classify(block, model)
        assert_kernel_rows_classify(block.take(np.arange(len(block) - 1, -1, -3)), model)


def test_kernel_rows_of_an_empty_block():
    model = simple_model(3)
    block = block_from_columns(("a",), ("b",), [], [], np.empty((0, 3)), [])
    R, kernel_row = core.kernel_rows(model, block.columns())
    assert R.shape == (0, 3) and kernel_row.shape == (0,)
    assert_kernel_rows_classify(block, model)
    empty_side = block_from_columns(("a",), (), [], [], np.empty((0, 3)), [])
    assert_kernel_rows_classify(empty_side, model)


def test_kernel_rows_of_pairs_alike():
    """Every pair on one kernel row: R is that one row, and each pair gets its sigma."""
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(2, 5)
        model = random_model(rng, m)
        row = [rng.uniform(0, 1.2) for _ in range(m)]
        for n in (1, 6):
            block = block_from_columns(tuple(range(n)), ("b",), np.arange(n), np.zeros(n),
                                       [row] * n, np.zeros(n))
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
                      np.arange(256), np.zeros(256, dtype=np.int8))
    criteria = tuple(Criterion(f"g{j}", 1.0 + j, 0.0, 1.0) for j in range(9))
    model = ElectreModel(criteria, ProfileSet(((0.5,) * 9,)), 0.6)
    for j in range(9):
        assert len(core.criterion_codes(model, j, values)[1]) == 256
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


def assert_same_file(tmp_path, block, kernel_row, cats, sigma, field_names):
    """The file written from per-kernel-row outcomes equals the row loop's on per-pair ones."""
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_classified(new, block, kernel_row, cats, sigma, field_names)
    ref_write_classified(ref, block, cats[kernel_row], sigma[kernel_row], field_names)
    assert new.read_bytes() == ref.read_bytes()


def simple_model(m):
    criteria = tuple(Criterion(f"g{j}", 1.0 + j, 0.05, 0.2) for j in range(m))
    return ElectreModel(criteria, ProfileSet(((0.4,) * m, (0.8,) * m)), 0.7)


@pytest.mark.parametrize("chunk_rows", [None, 1, 7, 256])
def test_write_classified_matches_row_loop(tables, tmp_path, monkeypatch, chunk_rows):
    if chunk_rows:
        monkeypatch.setattr(linkage, "CHUNK_ROWS", chunk_rows)
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    # some rows unlabeled, so truth 0 writes as an empty field between labeled ones
    block = replace(block, truth=np.where(np.arange(len(block)) % 3 == 0, 0, block.truth))
    model = simple_model(len(schema.field_names))
    R, kernel_row = core.kernel_rows(model, block.columns())
    cats, sigma = classify_batch(model, R)
    assert_same_file(tmp_path, block, kernel_row, cats, sigma, schema.field_names)
    unlabeled = replace(block, truth=np.zeros(len(block)))
    assert_same_file(tmp_path, unlabeled, kernel_row, cats, sigma, schema.field_names)


@pytest.mark.parametrize("chunk_rows", [None, 1, 7])
def test_write_classified_reads_each_chunk_through_columns(tables, tmp_path, monkeypatch,
                                                           chunk_rows):
    """The writer reads the pair layout through PairBlock.columns() alone, once per chunk."""
    if chunk_rows:
        monkeypatch.setattr(linkage, "CHUNK_ROWS", chunk_rows)
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    model = simple_model(len(schema.field_names))
    R, kernel_row = core.kernel_rows(model, block.columns())
    cats, sigma = classify_batch(model, R)
    calls = []
    columns = PairBlock.columns

    def counting(chunk):
        calls.append(len(chunk))
        return columns(chunk)

    monkeypatch.setattr(PairBlock, "columns", counting)
    write_classified(tmp_path / "c.csv", block, kernel_row, cats, sigma, schema.field_names)
    size = linkage.CHUNK_ROWS
    assert calls == [min(size, len(block) - lo) for lo in range(0, len(block), size)]


SPECIAL_FLOATS = [0.0, -0.0, 0.1 + 0.2, 0.3, 1e-300, -1e-300, 5e-324, 1.0, 0.5,
                  float("inf"), float("-inf"), float("nan"), 1 / 3, 123456789.125]


@pytest.mark.parametrize("chunk_rows", [None, 1, 5, 16])
def test_write_classified_special_values(tmp_path, monkeypatch, chunk_rows):
    if chunk_rows:
        monkeypatch.setattr(linkage, "CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(5)
    ids_a = ("a,1", 'say "hi"', " lead", "trail ", "plain", "two\nlines", "", "cr\r", '"')
    ids_b = ("b1", "x,y,z", "  ", 'q""q', "\u00e9t\u00e9")
    n = 60
    ia, ib = rng.integers(0, len(ids_a), n), rng.integers(0, len(ids_b), n)
    X = rng.choice(SPECIAL_FLOATS, size=(n, 3))
    X[:2] = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]
    # the outcomes of 20 kernel rows, shared by the 60 pairs
    sigma = rng.choice(SPECIAL_FLOATS, size=(20, 2))
    cats = rng.integers(1, 4, 20)
    kernel_row = rng.integers(0, 20, n)
    truth = rng.integers(0, 4, n)
    # one A entry per row: a repeated pair would have to repeat its performances
    block = block_from_columns([ids_a[i] for i in ia], ids_b, np.arange(n), ib, X, truth)
    assert_same_file(tmp_path, block, kernel_row, cats, sigma, ["f,1", "f2", 'f"3'])


def test_write_classified_empty_block(tmp_path):
    block = block_from_columns(("a",), (), [], [], np.empty((0, 3)), [])
    R, kernel_row = core.kernel_rows(simple_model(3), block.columns())
    cats, sigma = classify_batch(simple_model(3), R)
    assert_same_file(tmp_path, block, kernel_row, cats, sigma, ["f1", "f2", "f3"])
    header = b"id_a,id_b,sim_f1,sim_f2,sim_f3,assigned,truth\r\n"
    assert (tmp_path / "new.csv").read_bytes() == header


# --- calibration from counts against the row-based references ---


def counted_block(rng, p, m, grid, epsilon):
    """A PairBlock of repeated pairs over small value tables, labeled 1..p.

    With grid set, values are multiples of it and epsilon a multiple too, so
    values shifted by whole epsilons land exactly on other values' breakpoints.
    One category in three blocks is left empty, so some profile has one side
    only; ties between repeated values are everywhere.
    """
    na, nb, n = int(rng.integers(2, 6)), int(rng.integers(2, 6)), int(rng.integers(2 * p, 80))
    fields = []
    for _ in range(m):
        table = rng.random((3, 4))
        if grid:
            table = np.round(table / grid) * grid
        table[rng.random(table.shape) < 0.2] = 0.9  # some agreement above 0.88
        fields.append((rng.integers(0, 3, na), rng.integers(0, 4, nb), *_distinct_cells(table)))
    y = rng.integers(1, p + 1, n)
    if rng.random() < 1 / 3:
        c = int(rng.integers(1, p + 1))
        y[y == c] = c + 1 if c < p else c - 1
    return PairBlock(tuple(range(na)), tuple(range(nb)), tuple(fields),
                     rng.integers(0, na * nb, n), y.astype(np.int8))


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
        fs = fit_patterns(*agreement_patterns(train.columns), y)
        assert fs == FsModel(*ref_fit_fs(X.tolist(), y.tolist()))


@pytest.mark.filterwarnings("ignore:category C.* has no training examples")
@pytest.mark.parametrize("procedure", ["pessimistic", "optimistic"])
@pytest.mark.parametrize("grid, epsilon", [(None, 0.01), (0.125, 0.125), (1 / 64, 1 / 32)])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_calibration_from_counts_matches_rows(p, grid, epsilon, procedure):
    """Both constructors: from an (n, m) matrix and from a block's columns."""
    rng = np.random.default_rng([p, int(epsilon * 1000), procedure == "optimistic"])
    checked = 0
    while checked < 12:
        block = counted_block(rng, p, int(rng.integers(1, 4)), grid, epsilon)
        if (epsilon * (p - 2) > np.ptp(block.X, axis=0)).any():
            continue  # EpsilonInfeasibleError, checked elsewhere
        from_columns = TrainingSet.from_columns(block.columns(), block.truth, p)
        from_matrix = TrainingSet(block.X, block.truth, p)
        assert from_columns.X.tobytes() == block.X.tobytes()
        for train in (from_columns, from_matrix):
            assert_calibrated_as_rows(train, epsilon, procedure)
        checked += 1


@pytest.mark.filterwarnings("ignore:category C2 has no training examples")
def test_split_calibrates_as_its_rows(tables):
    schema, a, b = tables
    for policy in ("two_class", "banded"):
        block = label_pairs(build_pairs(a, b, schema), true_links(a, b), policy)
        train, _ = split(block, 0.5, 3)
        assert_calibrated_as_rows(train, 0.01, "pessimistic")


def test_weighted_fit_fs_equals_repeated_rows():
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
            repeated = np.repeat(X, w, axis=0), np.repeat(y, w)
            got = fit_fs(X, y, band_rate, w)
            assert got == fit_fs(*repeated, band_rate=band_rate)
            assert got == FsModel(*ref_fit_fs(repeated[0].tolist(), repeated[1].tolist(),
                                              band_rate=band_rate))

"""The columnar pair pipeline against the per-pair references in oracles.py,
and the lambda grid against one model and one classification per lambda.

Identical means bitwise-equal performance matrices, the same truth labels
and row order, the same train/test rows for a seed, an equal baseline
model and a byte-identical classified-pairs file, on the toy tables and on
a seeded census-style pair.
"""

import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from electre_linkage import linkage
from electre_linkage.calibration import TrainingSet, estimate_lambda
from electre_linkage.core import Criterion, ElectreModel, ProfileSet, classify_batch
from electre_linkage.datagen import generate_pair_files
from electre_linkage.evaluation import evaluate, lambda_sweep, split
from electre_linkage.fellegi_sunter import FsModel, fit_fs
from electre_linkage.ingest import census_schema, load_table, toy_schema, true_links
from electre_linkage.linkage import (
    PairBlock,
    build_pairs,
    classify_pairs,
    label_pairs,
    write_classified,
)
from electre_linkage.metrics import Comparator

from oracles import (
    random_model_params,
    ref_build_pairs,
    ref_fit_fs,
    ref_log_ratio,
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
    calls = []
    compare = Comparator.compare

    def counting(self, x, y):
        calls.append(1)
        return compare(self, x, y)

    monkeypatch.setattr(Comparator, "compare", counting)
    block = build_pairs(a, b, schema)
    assert pair_ids(block) == ids
    assert block.X.shape == (len(rows), len(schema.compared_fields))
    assert block.X.tobytes() == np.array(rows, dtype=float).tobytes()
    assert not block.truth.any()
    distinct = sum(
        len({rec[f] for _, rec in a.records}) * len({rec[f] for _, rec in b.records})
        for f in schema.field_names
    )
    assert len(calls) == ref_calls == distinct


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
    """lambda_sweep as it was: a model and a classify_pairs call per grid point."""
    reports = []
    for lam in grid:
        m = ElectreModel(model.criteria, model.profiles, lam, model.epsilon)
        cats, _ = classify_pairs(block, m, procedure)
        reports.append(evaluate(cats, block.truth, cutting_level=lam, procedure=procedure))
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


@pytest.mark.parametrize("procedure", ["pessimistic", "optimistic"])
def test_lambda_sweep_matches_per_lambda_models(procedure):
    grid = [0.5, 0.55, 0.62, 0.7, 0.75, 0.85, 0.9, 0.95, 1.0]
    for seed in range(40):
        model, X, y = noisy_labeled_model(seed)
        block = PairBlock(("a",), tuple(range(len(y))), np.zeros(len(y)), np.arange(len(y)),
                          X, y)
        assert lambda_sweep(block, model, grid, procedure) == per_lambda_sweep(
            block, model, grid, procedure
        )


# --- the classified-pairs file: column-wise chunks against the row loop ---


def assert_same_file(tmp_path, block, cats, sigma, field_names):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_classified(new, block, cats, sigma, field_names)
    ref_write_classified(ref, block, cats, sigma, field_names)
    assert new.read_bytes() == ref.read_bytes()


def simple_model(m):
    criteria = tuple(Criterion(f"g{j}", 1.0 + j, 0.05, 0.2) for j in range(m))
    return ElectreModel(criteria, ProfileSet(((0.4,) * m, (0.8,) * m)), 0.7)


@pytest.mark.parametrize("chunk_rows", [None, 1, 7, 256])
def test_write_classified_matches_row_loop(tables, tmp_path, monkeypatch, chunk_rows):
    if chunk_rows:
        monkeypatch.setattr(linkage, "WRITE_CHUNK_ROWS", chunk_rows)
    schema, a, b = tables
    block = label_pairs(build_pairs(a, b, schema), true_links(a, b), "two_class")
    # some rows unlabeled, so truth 0 writes as an empty field between labeled ones
    block = replace(block, truth=np.where(np.arange(len(block)) % 3 == 0, 0, block.truth))
    cats, sigma = classify_pairs(block, simple_model(len(schema.field_names)))
    assert_same_file(tmp_path, block, cats, sigma, schema.field_names)
    unlabeled = replace(block, truth=np.zeros(len(block)))
    assert_same_file(tmp_path, unlabeled, cats, sigma, schema.field_names)


SPECIAL_FLOATS = [0.0, -0.0, 0.1 + 0.2, 0.3, 1e-300, -1e-300, 5e-324, 1.0, 0.5,
                  float("inf"), float("-inf"), float("nan"), 1 / 3, 123456789.125]


@pytest.mark.parametrize("chunk_rows", [None, 1, 5, 16])
def test_write_classified_special_values(tmp_path, monkeypatch, chunk_rows):
    if chunk_rows:
        monkeypatch.setattr(linkage, "WRITE_CHUNK_ROWS", chunk_rows)
    rng = np.random.default_rng(5)
    ids_a = ("a,1", 'say "hi"', " lead", "trail ", "plain", "two\nlines", "", "cr\r", '"')
    ids_b = ("b1", "x,y,z", "  ", 'q""q', "\u00e9t\u00e9")
    n = 60
    ia, ib = rng.integers(0, len(ids_a), n), rng.integers(0, len(ids_b), n)
    X = rng.choice(SPECIAL_FLOATS, size=(n, 3))
    X[:2] = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]]
    sigma = rng.choice(SPECIAL_FLOATS, size=(n, 2))
    truth = rng.integers(0, 4, n)
    cats = rng.integers(1, 4, n)
    block = PairBlock(ids_a, ids_b, ia, ib, X, truth)
    assert_same_file(tmp_path, block, cats, sigma, ["f,1", "f2", 'f"3'])


def test_write_classified_empty_block(tmp_path):
    block = PairBlock(("a",), (), [], [], np.empty((0, 3)), [])
    cats, sigma = classify_pairs(block, simple_model(3))
    assert_same_file(tmp_path, block, cats, sigma, ["f1", "f2", "f3"])
    header = b"id_a,id_b,sim_f1,sim_f2,sim_f3,assigned,truth\r\n"
    assert (tmp_path / "new.csv").read_bytes() == header

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from electre_linkage.core import (
    Criterion,
    ElectreModel,
    ModelError,
    ProfileSet,
    classify_batch,
    kernel_rows,
)
from electre_linkage.fellegi_sunter import FsError, FsModel
from electre_linkage.datagen import generate_pair_files
from electre_linkage.evaluation import PairSide
from electre_linkage.ingest import census_schema, load_table, toy_schema, true_links
from electre_linkage.linkage import (
    build_pairs,
    label_pairs,
    write_classified,
)

from oracles import block_from_columns, ref_write_classified

DATA = Path(__file__).resolve().parent.parent / "data"


def make_block(pairs, rows):
    """A block of explicit (id_a, id_b) pairs, all of their cross product in row-major order,
    with the given performance rows."""
    ids_a = tuple(dict.fromkeys(a for a, _ in pairs))
    ids_b = tuple(dict.fromkeys(b for _, b in pairs))
    assert list(pairs) == [(a, b) for a in ids_a for b in ids_b]
    return block_from_columns(ids_a, ids_b, rows, np.zeros(len(pairs)))


def pair_ids(block):
    return [block.pair(r) for r in range(len(block))]


@pytest.fixture()
def toy_tables():
    schema = toy_schema()
    a, _ = load_table(DATA / "toy_a.csv", schema, "A")
    b, _ = load_table(DATA / "toy_b.csv", schema, "B")
    return schema, a, b


class TestPairBlock:
    def test_take_keeps_rows_together(self, toy_tables):
        """A side taken of a block, its pairs in label order: each keeps its ids and
        performances together."""
        schema, a, b = toy_tables
        pairs = build_pairs(a, b, schema)
        sub = PairSide(pairs, np.array([2, 0, 0, 0, 1, 0, 0, 0, 0], dtype=np.int8))
        assert pair_ids(sub) == [pair_ids(pairs)[4], pair_ids(pairs)[0]]
        assert sub.X.tobytes() == pairs.X[[4, 0]].tobytes()


class TestBuildPairs:
    def test_cross_product_count_and_order(self, toy_tables):
        schema, a, b = toy_tables
        pairs = build_pairs(a, b, schema)
        assert len(pairs) == 9
        assert pair_ids(pairs)[:3] == [
            ("u1", "u1"),
            ("u1", "u2"),
            ("u1", "u4"),
        ]
        assert len(set(pair_ids(pairs))) == 9

    def test_intended_matches_score_high(self, toy_tables):
        schema, a, b = toy_tables
        pairs = build_pairs(a, b, schema)
        scores = {p: np.mean(row) for p, row in zip(pair_ids(pairs), pairs.X)}
        matched = {("u1", "u1"), ("u2", "u2")}
        worst_match = min(scores[p] for p in matched)
        best_nonmatch = max(s for p, s in scores.items() if p not in matched)
        assert worst_match > best_nonmatch

    def test_empty_side(self, toy_tables):
        schema, a, b = toy_tables
        empty = type(a)("B", a.field_names, ())
        assert len(build_pairs(a, empty, schema)) == 0

    def test_identical_records_all_ones(self, toy_tables):
        schema, a, _ = toy_tables
        pairs = build_pairs(a, a, schema)
        diag = [row for (id_a, id_b), row in zip(pair_ids(pairs), pairs.X) if id_a == id_b]
        assert len(diag) == 3
        for row in diag:
            assert tuple(row) == tuple([1.0] * 3)

    def test_performances_in_unit_interval(self, toy_tables):
        schema, a, b = toy_tables
        for row in build_pairs(a, b, schema).X:
            assert all(0.0 <= v <= 1.0 for v in row)


class TestLabelPairs:
    def test_two_class(self, toy_tables):
        schema, a, b = toy_tables
        links = true_links(a, b)
        labeled = label_pairs(build_pairs(a, b, schema), links, "two_class")
        by_pair = dict(zip(pair_ids(labeled), labeled.truth.tolist()))
        assert by_pair[("u1", "u1")] == 3
        assert by_pair[("u2", "u2")] == 3
        assert all(v == 1 for p, v in by_pair.items() if p not in links)

    def test_banded_policy(self, toy_tables):
        schema, a, b = toy_tables
        links = true_links(a, b)
        # degenerate baseline whose band catches mid-similarity pairs
        fs = FsModel(
            m_probs=(0.9,) * 3,
            u_probs=(0.1,) * 3,
            agreement_thresholds=(0.88,) * 3,
            lower=-2.0,
            upper=2.0,
        )
        labeled = label_pairs(build_pairs(a, b, schema), links, "banded", fs_model=fs)
        by_pair = dict(zip(pair_ids(labeled), labeled.truth.tolist()))
        assert by_pair[("u1", "u1")] == 3
        assert set(by_pair.values()) >= {1, 3}
        for pair, row, label in zip(pair_ids(labeled), labeled.X, labeled.truth):
            if pair not in links:
                score = fs.log_ratio(row[None, :])[0]
                expected = 2 if fs.lower <= score <= fs.upper else 1
                assert label == expected

    def test_banded_without_links_cannot_fit_its_baseline(self, toy_tables):
        schema, a, b = toy_tables
        with pytest.raises(FsError, match="no links"):
            label_pairs(build_pairs(a, b, schema), set(), "banded")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            label_pairs(make_block([("x", "y")], [(0.5,)]), set(), "three_class")

    def test_two_class_memory_per_pair(self, tmp_path):
        # the labels are made as int8, with no wider array over every pair
        schema = census_schema()
        generate_pair_files(tmp_path / "a.csv", tmp_path / "b.csv",
                            n_a=400, n_b=300, n_links=250, seed=31)
        a, _ = load_table(tmp_path / "a.csv", schema, "A")
        b, _ = load_table(tmp_path / "b.csv", schema, "B")
        block, links = build_pairs(a, b, schema), true_links(a, b)
        assert len(block) >= 100_000
        tracemalloc.start()
        try:
            labeled = label_pairs(block, links, "two_class")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labeled.truth.dtype == np.int8
        assert peak <= 4 * len(block)


class TestClassifyPairs:
    def model(self, lam=0.75):
        crits = tuple(Criterion(f"g{j}", 1.0, 0.05, 0.2) for j in range(3))
        return ElectreModel(
            crits, ProfileSet(((0.35,) * 3, (0.75,) * 3)), lam
        )

    def test_dominant_vector_is_match(self):
        pairs = make_block([("x", "y")], [(1.0, 1.0, 1.0)])
        cats, sigma = classify_batch(self.model(), pairs.X)
        assert cats[0] == 3
        assert sigma.shape == (1, 2)

    def test_zero_vector_is_nonmatch(self):
        pairs = make_block([("x", "y")], [(0.0, 0.0, 0.0)])
        cats, _ = classify_batch(self.model(), pairs.X)
        assert cats[0] == 1

    def test_deterministic(self, toy_tables):
        schema, a, b = toy_tables
        pairs = build_pairs(a, b, schema)
        r1 = classify_batch(self.model(), pairs.X)
        r2 = classify_batch(self.model(), pairs.X)
        assert (r1[0] == r2[0]).all()
        assert (r1[1] == r2[1]).all()

    def test_length_mismatch(self):
        pairs = make_block([("x", "y")], [(1.0, 1.0)])
        with pytest.raises(ModelError):
            classify_batch(self.model(), pairs.X)
        with pytest.raises(ModelError, match="2 fields, model has 3 criteria"):
            kernel_rows(self.model(), pairs.fields)

    def test_raising_performance_never_lowers_category(self):
        import random

        rng = random.Random(8)
        model = self.model(lam=0.6)
        for _ in range(300):
            base = [rng.random() for _ in range(3)]
            bumped = [min(1.0, v + rng.random() * 0.3) for v in base]
            block = make_block([("a", "b"), ("a", "b2")], [base, bumped])
            cats, _ = classify_batch(model, block.X)
            assert cats[1] >= cats[0]


class TestClassifiedFile:
    def test_write_round_trip(self, tmp_path, toy_tables):
        schema, a, b = toy_tables
        links = true_links(a, b)
        labeled = label_pairs(build_pairs(a, b, schema), links, "two_class")
        model = TestClassifyPairs().model()
        X = labeled.X
        dest, ref = tmp_path / "classified.csv", tmp_path / "ref.csv"
        for procedure in ("optimistic", "pessimistic"):
            write_classified(dest, labeled, model, procedure, schema.field_names)
            ref_write_classified(ref, labeled, *classify_batch(model, X, procedure),
                                 schema.field_names)
            assert dest.read_bytes() == ref.read_bytes()
        import csv

        with open(dest, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert rows[0]["id_a"] == "u1"
        assert float(rows[0]["sim_NAME"]) == X[0][0]
        assert rows[0]["assigned"].startswith("C")

import numpy as np
import pytest

from electre_linkage.core import Criterion, ElectreModel, ModelError, ProfileSet
from electre_linkage.evaluation import (
    EvaluationError,
    evaluate,
    lambda_sweep,
    split,
)

from oracles import block_from_columns


def block(rows):
    """A pair block from (pair, performances, category) rows; category 0 is unlabeled."""
    ids_a = tuple(dict.fromkeys(pair[0] for pair, _, _ in rows))
    ids_b = tuple(dict.fromkeys(pair[1] for pair, _, _ in rows))
    return block_from_columns(
        ids_a, ids_b,
        [ids_a.index(pair[0]) for pair, _, _ in rows],
        [ids_b.index(pair[1]) for pair, _, _ in rows],
        [perf for _, perf, _ in rows],
        [cat for _, _, cat in rows],
    )


def pair_ids(pairs):
    return [pairs.pair(r) for r in range(len(pairs))]


def synthetic_pairs(n_links=100, n_nonlinks=900):
    rows = []
    for i in range(n_links):
        rows.append((("a", f"l{i}"), (0.95,), 3))
    for i in range(n_nonlinks):
        rows.append((("a", f"n{i}"), (0.05,), 1))
    return block(rows)


class TestSplit:
    def test_deterministic(self):
        pairs = synthetic_pairs()
        t1, test1 = split(pairs, 0.5, seed=42)
        t2, test2 = split(pairs, 0.5, seed=42)
        assert t1.X.tobytes() == t2.X.tobytes() and (t1.y == t2.y).all()
        assert pair_ids(test1) == pair_ids(test2)

    def test_stratification(self):
        train, test = split(synthetic_pairs(100, 900), 0.5, seed=0)
        labels = train.y.tolist()
        assert abs(labels.count(3) - 50) <= 1
        assert abs(labels.count(1) - 450) <= 1

    def test_partition(self):
        pairs = synthetic_pairs(10, 90)
        # tag every row with a distinct performance so training rows can be identified
        ia, ib = np.divmod(pairs.rows, len(pairs.ids_b))
        pairs = block_from_columns(pairs.ids_a, pairs.ids_b, ia, ib,
                                   np.arange(len(pairs), dtype=float)[:, None], pairs.truth)
        train, test = split(pairs, 0.3, seed=1)
        train_ids = {pairs.pair(int(r)) for r in train.X[:, 0]}
        test_ids = set(pair_ids(test))
        assert train_ids.isdisjoint(test_ids)
        assert len(train_ids) + len(test_ids) == len(pairs)

    def test_bad_fraction(self):
        with pytest.raises(EvaluationError):
            split(synthetic_pairs(), 0.0, seed=0)

    def test_no_links_in_train(self):
        pairs = synthetic_pairs(1, 999)
        with pytest.raises(EvaluationError, match="links"):
            split(pairs, 0.001, seed=0)

    def test_unlabeled_rejected(self):
        pairs = block([(("a", "b"), (0.5,), 0)])
        with pytest.raises(EvaluationError, match=r"pair \('a', 'b'\) is unlabeled"):
            split(pairs, 0.5, seed=0)


class TestEvaluate:
    def test_perfect_classifier(self):
        rep = evaluate([1, 1, 3, 3], [1, 1, 3, 3])
        assert rep.accuracy == 1.0
        assert rep.contingency == {(1, 1): 2, (3, 3): 2}
        assert rep.missed_links == 0 and rep.false_links == 0

    def test_all_nonmatch_on_sparse_links(self):
        truth = [3] * 10 + [1] * 990
        predicted = [1] * 1000
        rep = evaluate(predicted, truth)
        assert rep.accuracy == pytest.approx(0.99)
        assert rep.recall_c3 == 0.0
        assert rep.missed_links == 10

    def test_c2_output_counts_as_error(self):
        rep = evaluate([2, 2], [1, 3])
        assert rep.accuracy == 0.0
        assert rep.missed_links == 1
        assert rep.false_links == 0

    def test_contingency_sums_to_total(self):
        rep = evaluate([1, 2, 3, 3, 1], [1, 1, 3, 1, 3])
        assert sum(rep.contingency.values()) == rep.total == 5

    def test_report_lines_render(self):
        rep = evaluate([1, 3], [1, 3], cutting_level=0.5, procedure="pessimistic")
        text = "\n".join(rep.lines())
        assert "lambda = 0.5" in text
        assert "accuracy" in text

    def test_negative_label_rejected(self):
        # labels are category indices; a negative one used to get a contingency cell
        with pytest.raises(ValueError):
            evaluate([1, -1], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            evaluate([1], [1, 3])
        with pytest.raises(EvaluationError):
            evaluate([], [])


class TestLambdaSweep:
    def model(self):
        crits = (Criterion("g", 1.0, 0.0, 0.1),)
        return ElectreModel(crits, ProfileSet(((0.3,), (0.7,))), 0.5)

    def test_one_report_per_grid_point(self):
        pairs = synthetic_pairs(5, 20)
        reports = lambda_sweep(pairs, self.model(), [0.5, 0.7, 0.85])
        assert [r.cutting_level for r in reports] == [0.5, 0.7, 0.85]

    def test_lambda_one_with_partial_credibility(self):
        # every credibility strictly below 1 -> pessimistic sends all to C1
        crits = (Criterion("g1", 1.0, 0.0, 0.5), Criterion("g2", 1.0, 0.0, 0.5))
        model = ElectreModel(crits, ProfileSet(((0.4, 0.4),)), 0.5)
        pairs = block([(("a", "b"), (0.3, 0.5), 1), (("a", "c"), (0.39, 0.6), 1)])
        reports = lambda_sweep(pairs, model, [1.0])
        assert reports[0].contingency == {(1, 1): 2}

    def test_idempotent(self):
        pairs = synthetic_pairs(5, 20)
        r1 = lambda_sweep(pairs, self.model(), [0.5, 0.9])
        r2 = lambda_sweep(pairs, self.model(), [0.5, 0.9])
        assert [r.accuracy for r in r1] == [r.accuracy for r in r2]

    def test_lambda_outside_domain(self):
        for lam in (0.4, 1.01, float("nan")):
            with pytest.raises(ModelError, match="cutting level"):
                lambda_sweep(synthetic_pairs(2, 2), self.model(), [0.5, lam])

    def test_unlabeled_pairs_rejected(self):
        # they used to be scored as truth 0, an error at every lambda
        pairs = block([(("a", "b"), (0.95,), 3), (("a", "c"), (0.05,), 0),
                       (("a", "d"), (0.5,), 0)])
        with pytest.raises(EvaluationError, match=r"pair \('a', 'c'\) is unlabeled"):
            lambda_sweep(pairs, self.model(), [0.5, 0.7])

    def test_empty_block(self):
        with pytest.raises(EvaluationError, match="nothing to evaluate"):
            lambda_sweep(synthetic_pairs(2, 2).take([]), self.model(), [0.5])

    def test_empty_grid(self):
        with pytest.raises(EvaluationError):
            lambda_sweep(synthetic_pairs(2, 2), self.model(), [])

import random
import tracemalloc

import numpy as np
import pytest

from electre_linkage.core import Criterion, ElectreModel, ModelError, ProfileSet
from electre_linkage.evaluation import (
    _SCALAR_BELOW,
    EvaluationError,
    PairSide,
    _tested,
    evaluate,
    lambda_sweep,
    split,
)
from electre_linkage.linkage import PairBlock

from oracles import block_from_columns


def block(rows):
    """A pair block from (pair, performances, category) rows, all of its cross product in
    row-major order; category 0 is unlabeled."""
    ids_a = tuple(dict.fromkeys(pair[0] for pair, _, _ in rows))
    ids_b = tuple(dict.fromkeys(pair[1] for pair, _, _ in rows))
    assert [pair for pair, _, _ in rows] == [(a, b) for a in ids_a for b in ids_b]
    return block_from_columns(ids_a, ids_b, [perf for _, perf, _ in rows],
                              [cat for _, _, cat in rows])


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
        pairs = block_from_columns(pairs.ids_a, pairs.ids_b,
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


class TestPermutation:
    """_tested against random.Random.shuffle: the values the permutation leaves
    from the cut on, and the same generator state after it."""

    SIZES = sorted({*range(71), *(2**k + d for k in range(1, 18) for d in (-1, 0, 1)),
                    _SCALAR_BELOW - 1, _SCALAR_BELOW, _SCALAR_BELOW + 1, 200_003})

    @staticmethod
    def check(rng, ref, n, start):
        """_tested flags the values `ref.shuffle` leaves at positions start..n-1, as bools,
        and leaves its generator in the state ref is left in."""
        order = list(range(n))
        ref.shuffle(order)
        shuffled = np.zeros(n, dtype=bool)
        shuffled[order[start:]] = True
        flags = _tested(rng, n, start)
        assert flags.dtype == bool and np.array_equal(flags, shuffled), (n, start)
        assert rng.getstate() == ref.getstate(), (n, start)

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_matches_shuffle(self, seed):
        for n in self.SIZES:
            self.check(random.Random(seed), random.Random(seed), n, 0)

    def test_one_generator_across_groups(self):
        # split draws every label group from one generator, in turn
        rng, ref = random.Random(12), random.Random(12)
        for n in (5000, 17, 3000, 1, 0):
            self.check(rng, ref, n, 0)

    def test_tail_matches_shuffle(self):
        # split flags the values from the train cut on
        for n in self.SIZES:
            for start in sorted({0, 1, n // 2, n - 1, n} & set(range(n + 1))):
                self.check(random.Random(n + start), random.Random(n + start), n, start)

    def test_one_generator_across_tails(self):
        rng, ref = random.Random(5), random.Random(5)
        for n, start in ((5000, 2500), (17, 0), (3000, 2999), (1, 1), (0, 0), (4096, 3)):
            self.check(rng, ref, n, start)

    def test_draws_exactly_the_words_shuffle_draws(self):
        class Counting(random.Random):
            """Counts the 32-bit words getrandbits takes from the generator."""
            words = 0

            def getrandbits(self, k):
                self.words += (k + 31) // 32
                return super().getrandbits(k)

        for n, start in ((200_003, 0), (2**17 + 1, 2**16), (_SCALAR_BELOW + 1, 0), (3000, 1)):
            rng, ref = Counting(n), Counting(n)
            ref.shuffle(list(range(n)))
            _tested(rng, n, start)
            assert rng.words == ref.words, (n, start)
            assert rng.getstate() == ref.getstate(), (n, start)

    def test_oversized_group_rejected(self):
        # refused before anything is allocated: the int32 steps cannot index it
        tracemalloc.start()
        try:
            with pytest.raises(EvaluationError, match="label group of 2147483648 pairs"):
                _tested(random.Random(0), 2**31, 2**30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_peak_memory_per_element(self):
        n = 2**18
        tracemalloc.start()
        try:
            _tested(random.Random(3), n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n, peak / n

    def test_tail_peak_memory_per_element(self):
        n = 2**18
        tracemalloc.start()
        try:
            _tested(random.Random(3), n, n // 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n, peak / n


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
        empty = block_from_columns(("a",), (), np.empty((0, 1)), [])
        for pairs in (empty, PairSide(synthetic_pairs(2, 2), np.zeros(4, dtype=np.int8))):
            with pytest.raises(EvaluationError, match="nothing to evaluate"):
                lambda_sweep(pairs, self.model(), [0.5])

    def test_non_finite_pairs_refused_by_their_row(self):
        # the inf shares 5.0's kernel row, and was counted as C2 through it: the block is
        # refused when it is made, naming the pair by its row in block order
        model = ElectreModel((Criterion("g1", 1.0, 0.05, 0.2),), ProfileSet(((0.8,),)), 0.7)
        rows = [(("a", "b"), (0.1,), 1), (("a", "c"), (5.0,), 3),
                (("e", "b"), (float("inf"),), 1), (("e", "c"), (0.9,), 3)]
        with pytest.raises(ModelError, match=r"^performance row 2 is not finite: \[inf\]$"):
            block(rows)
        # an inf no pair takes is kept in the fields, and a side counts as its own pairs
        pairs = block(rows[:2] + [(("e", "b"), (0.3,), 1)] + rows[3:])
        spare = PairBlock(pairs.ids_a, pairs.ids_b,
                          tuple((code_a, code_b, np.append(values, np.inf), cell)
                                for code_a, code_b, values, cell in pairs.fields), pairs.truth)
        finite = PairSide(spare, np.array([1, 3, 0, 3], dtype=np.int8))
        assert float("inf") in finite.fields[0][2]
        kept = block([(("x", "1"), (0.1,), 1), (("x", "2"), (5.0,), 3), (("x", "3"), (0.9,), 3)])
        assert ([r.contingency for r in lambda_sweep(finite, model, [0.5, 0.7])]
                == [r.contingency for r in lambda_sweep(kept, model, [0.5, 0.7])])

    def test_empty_grid(self):
        with pytest.raises(EvaluationError):
            lambda_sweep(synthetic_pairs(2, 2), self.model(), [])

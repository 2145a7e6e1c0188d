import random
import re
from fractions import Fraction

import numpy as np
import pytest

from electre_linkage import calibration
from electre_linkage.calibration import (
    CalibrationError,
    EpsilonInfeasibleError,
    TrainingSet,
    calibrate,
    estimate_lambda,
    estimate_profiles,
    estimate_thresholds,
)
from electre_linkage.core import (
    Criterion,
    ProfileSet,
    classify_batch,
)
from electre_linkage.evaluation import split

from oracles import block_from_columns, joint_lp_objective, ref_slacks, ref_split


def make_training(points, p):
    """points: list of (performance tuple, category index)."""
    X = np.array([perf for perf, _ in points], dtype=float)
    return TrainingSet(X, [cat for _, cat in points], p)


def random_training(rng, m, p, n):
    points = []
    for k in range(n):
        cat = rng.randint(1, p)
        # clouds roughly ordered by category with heavy overlap
        points.append(
            (
                tuple(
                    min(1.0, max(0.0, (cat - 1 + rng.random()) / p + rng.gauss(0, 0.15)))
                    for _ in range(m)
                ),
                cat,
            )
        )
    # ensure every category is populated
    for cat in range(1, p + 1):
        points.append((tuple((cat - 0.5) / p for _ in range(m)), cat))
    return make_training(points, p)


class TestEstimateProfiles:
    def test_separable_data_zero_objective(self):
        train = make_training(
            [((0.1,), 1), ((0.2,), 1), ((0.8,), 2), ((0.9,), 2)], p=2
        )
        sol = estimate_profiles(train, epsilon=0.01)
        assert sol.objective == 0.0
        # flat optimum [0.2, 0.8] resolved at its midpoint
        assert sol.profiles.values[0][0] == pytest.approx(0.5)

    def test_overlapping_pair_objective(self):
        train = make_training([((0.3,), 2), ((0.4,), 1)], p=2)
        sol = estimate_profiles(train, epsilon=0.01)
        assert sol.objective == pytest.approx(0.1)
        assert sol.profiles.values[0][0] == pytest.approx(0.35)

    def test_objective_equals_slack_sum(self):
        rng = random.Random(5)
        for _ in range(20):
            train = random_training(rng, rng.randint(1, 3), rng.randint(2, 4), 30)
            sol = estimate_profiles(train, epsilon=0.01)
            theta = ref_slacks(train, sol.profiles)
            assert sol.objective == float(sum(map(Fraction, theta.ravel().tolist())))
            assert (theta >= 0).all()

    def test_epsilon_spacing_exact(self):
        rng = random.Random(6)
        for _ in range(20):
            train = random_training(rng, 2, 4, 40)
            sol = estimate_profiles(train, epsilon=0.01)
            vals = np.array(sol.profiles.values)
            assert (vals[1:] >= vals[:-1] + 0.01 - 1e-12).all()

    def test_empty_training_set_rejected(self):
        with pytest.raises(CalibrationError):
            TrainingSet(np.empty((0, 1)), [], 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rows_rejected(self, bad):
        # these used to surface as an IndexError from the hinge minimization
        X = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, bad], [bad, 0.9]])
        # the row's values print as plain floats
        message = re.escape(f"training row 2 is not finite: [0.5, {bad!r}]")
        with pytest.raises(CalibrationError, match=f"^{message}$"):
            TrainingSet(X, [1, 2, 2, 1], 2)
        # a training side of a block: a non-finite value counts only where one of its
        # pairs takes it, and names that pair's row in side order (by label, then in order)
        finite, y = np.where(np.isfinite(X), X, 0.7), [1, 3, 3, 1]
        ref_train, _ = ref_split(y, 0.5, 0)
        for p in range(len(y)):
            block = block_from_columns(("a",), ("b0", "b1", "b2", "b3"),
                                       np.where(np.arange(4)[:, None] == p, bad, finite), y)
            if p not in ref_train:
                assert split(block, 0.5, 0)[0].X.tobytes() == finite[ref_train].tobytes()
                continue
            message = f"training row {ref_train.index(p)} is not finite: [{bad!r}, {bad!r}]"
            with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
                split(block, 0.5, 0)

    def test_empty_category_warns(self):
        train = make_training([((0.1,), 1), ((0.9,), 3)], p=3)
        with pytest.warns(UserWarning, match="no training examples"):
            estimate_profiles(train, epsilon=0.01)

    def test_infeasible_epsilon(self):
        train = make_training([((0.1,), 1), ((0.15,), 2), ((0.2,), 3)], p=3)
        with pytest.raises(EpsilonInfeasibleError, match="0.5"):
            estimate_profiles(train, epsilon=0.5)

    def test_bad_epsilon(self):
        train = make_training([((0.1,), 1), ((0.9,), 2)], p=2)
        with pytest.raises(CalibrationError):
            estimate_profiles(train, epsilon=0.0)

    @pytest.mark.parametrize("case", ["overlapping", "reversed", "tight"])
    def test_hinge_minimizations_linear_in_categories(self, monkeypatch, case):
        # one per profile plus one per merge, at most 2(p - 1) - 1 per criterion;
        # the composition enumeration made thousands of calls per criterion at p = 12
        events = []
        hinge_minimum = calibration._hinge_minimum
        monotone_selection = calibration._monotone_selection

        def counting_hinge(*args):
            events.append("h")
            return hinge_minimum(*args)

        def closing_selection(intervals):  # called once per criterion
            events.append("|")
            return monotone_selection(intervals)

        monkeypatch.setattr(calibration, "_hinge_minimum", counting_hinge)
        monkeypatch.setattr(calibration, "_monotone_selection", closing_selection)
        p, epsilon = 12, 0.01
        if case == "tight":
            # spacing binds everywhere and each profile's optimal interval ends
            # where the next one's begins: nothing violates, so nothing is pooled
            epsilon = 0.125
            levels = [0, 1] + list(range(1, p - 1))
            train = make_training([((epsilon * v,), h + 1) for h, v in enumerate(levels)], p)
        else:
            train = random_training(random.Random(12), 3, p, 300)
            if case == "reversed":  # every profile violates: all are pooled
                train = TrainingSet(train.X, p + 1 - train.y, p)
        sol = estimate_profiles(train, epsilon)
        per_criterion = [len(run) for run in "".join(events).split("|")[:-1]]
        assert len(per_criterion) == train.criterion_count
        assert max(per_criterion) <= 2 * (p - 1) - 1
        if case == "reversed":
            assert set(per_criterion) == {2 * (p - 1) - 1}
        if case == "tight":
            assert per_criterion == [p - 1]
            assert sol.objective == 0.0

    def test_non_finite_epsilon(self):
        # a NaN epsilon used to pass the sign check and fail deep in the solver
        train = make_training([((0.1,), 1), ((0.5,), 2), ((0.9,), 3)], p=3)
        for epsilon in (float("nan"), float("inf")):
            with pytest.raises(CalibrationError, match="finite"):
                estimate_profiles(train, epsilon=epsilon)


class TestJointLpEquivalence:
    def test_matches_simplex_oracle(self):
        rng = random.Random(99)
        for _ in range(20):
            m = rng.randint(1, 4)
            p = rng.randint(2, 4)
            train = random_training(rng, m, p, rng.randint(10, 60))
            eps = 0.01
            sol = estimate_profiles(train, epsilon=eps)
            ref = joint_lp_objective(train.X, train.y, p, eps)
            assert sol.objective == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_matches_simplex_oracle_many_categories(self):
        rng = random.Random(103)
        for p in range(5, 11):
            for _ in range(3):
                train = random_training(rng, rng.randint(1, 3), p, rng.randint(10, 30))
                sol = estimate_profiles(train, epsilon=0.01)
                ref = joint_lp_objective(train.X, train.y, p, 0.01)
                assert sol.objective == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_matches_grid_enumeration_single_criterion(self):
        rng = random.Random(101)
        for _ in range(10):
            p = rng.randint(2, 3)
            points = [
                ((round(rng.randint(0, 100) / 100, 2),), rng.randint(1, p))
                for _ in range(15)
            ]
            for cat in range(1, p + 1):
                points.append(((round(rng.randint(0, 100) / 100, 2),), cat))
            train = make_training(points, p)
            eps = 0.01
            sol = estimate_profiles(train, epsilon=eps)

            # exhaustive search over profile placements on the value grid
            X = train.X[:, 0]
            y = train.y
            grid = [i / 100 for i in range(-100, 201)]

            def objective(profs):
                total = 0.0
                for g, cat in zip(X, y):
                    t = 0.0
                    if cat != p:
                        t = max(t, g - profs[cat - 1])
                    if cat != 1:
                        t = max(t, profs[cat - 2] - g)
                    total += t
                return total

            if p == 2:
                best = min(objective((b,)) for b in grid)
            else:
                best = min(
                    objective((b1, b2))
                    for b1 in grid
                    for b2 in grid
                    if b2 >= b1 + eps
                )
            assert sol.objective == pytest.approx(best, abs=1e-12)


class TestEstimateThresholds:
    def test_fractions_of_range(self):
        train = make_training([((0.0,), 1), ((1.0,), 2)], p=2)
        assert estimate_thresholds(train, 0.05, 0.15) == [(0.05, 0.15)]

    def test_constant_criterion(self):
        train = make_training([((0.5,), 1), ((0.5,), 2)], p=2)
        assert estimate_thresholds(train, 0.05, 0.15) == [(0.0, 0.0)]

    def test_zero_fractions_true_criterion(self):
        train = make_training([((0.0,), 1), ((1.0,), 2)], p=2)
        assert estimate_thresholds(train, 0.0, 0.0) == [(0.0, 0.0)]

    def test_bad_fractions(self):
        train = make_training([((0.0,), 1), ((1.0,), 2)], p=2)
        with pytest.raises(CalibrationError):
            estimate_thresholds(train, 0.2, 0.1)


class TestEstimateLambda:
    def test_perfect_fit_picks_largest(self):
        train = make_training([((0.1,), 1), ((0.9,), 2)], p=2)
        crits = (Criterion("g", 1.0, 0.0, 0.0),)
        profiles = ProfileSet(((0.5,),))
        lam, curve = estimate_lambda(train, crits, profiles, grid_step=0.05)
        assert lam == 1.0
        assert all(acc == 1.0 for _, acc in curve)

    def test_grid_contains_paper_points(self):
        train = make_training([((0.1,), 1), ((0.9,), 2)], p=2)
        crits = (Criterion("g", 1.0, 0.0, 0.0),)
        _, curve = estimate_lambda(train, crits, ProfileSet(((0.5,),)), grid_step=0.05)
        grid = [lam for lam, _ in curve]
        for wanted in (0.5, 0.7, 0.85, 1.0):
            assert any(abs(lam - wanted) < 1e-9 for lam in grid)

    def test_accuracy_cutoff_selection(self):
        # one alternative correctly classified only at lambda <= 0.6
        crits = (Criterion("g1", 2.0, 0.0, 0.0), Criterion("g2", 1.0, 0.0, 0.0))
        profiles = ProfileSet(((0.5, 0.5),))
        # sigma against the profile: 2/3 (first criterion above, second below)
        train = make_training([((0.9, 0.1), 2)], p=2)
        lam, curve = estimate_lambda(train, crits, profiles, grid_step=0.05)
        assert lam == pytest.approx(0.65)  # largest grid point below 2/3
        for lam_i, acc in curve:
            assert acc == (1.0 if lam_i <= 2 / 3 else 0.0)

    def test_bad_grid_step(self):
        train = make_training([((0.1,), 1), ((0.9,), 2)], p=2)
        crits = (Criterion("g", 1.0, 0.0, 0.0),)
        with pytest.raises(CalibrationError):
            estimate_lambda(train, crits, ProfileSet(((0.5,),)), grid_step=0.6)

    def test_grid_step_beyond_the_grid_bound(self):
        # 0.5 + 1e-300 == 0.5, so this step used to loop forever
        train = make_training([((0.1,), 1), ((0.9,), 2)], p=2)
        crits = (Criterion("g", 1.0, 0.0, 0.0),)
        for step in (1e-300, 1e-9, 0.5 / calibration.MAX_GRID_POINTS):
            with pytest.raises(CalibrationError, match="cutting levels"):
                estimate_lambda(train, crits, ProfileSet(((0.5,),)), grid_step=step)
        # the finest step at the bound: each level is still the accumulated sum
        step = 0.5 / (calibration.MAX_GRID_POINTS - 1)
        _, curve = estimate_lambda(train, crits, ProfileSet(((0.5,),)), grid_step=step)
        expected, lam = [], 0.5
        while lam < 1.0 - 1e-12:
            expected.append(round(lam, 12))
            lam += step
        assert [lam for lam, _ in curve] == expected + [1.0]
        assert len(curve) <= calibration.MAX_GRID_POINTS


class TestCalibrate:
    def test_zero_loss_recovery(self):
        # three margin-separated clouds on two criteria
        rng = random.Random(21)
        points = []
        for cat, (lo, hi) in enumerate([(0.0, 0.25), (0.4, 0.6), (0.75, 1.0)], start=1):
            for _ in range(30):
                points.append(
                    ((rng.uniform(lo, hi), rng.uniform(lo, hi)), cat)
                )
        train = make_training(points, 3)
        model, sol, _ = calibrate(train, q_fraction=0.0, p_fraction=0.0)
        assert sol.objective == 0.0
        cats, _ = classify_batch(
            type(model)(model.criteria, model.profiles, 0.5, model.epsilon),
            train.X,
        )
        assert (cats == train.y).all()

    def test_weight_count_mismatch(self):
        train = make_training([((0.1,), 1), ((0.9,), 2)], p=2)
        with pytest.raises(CalibrationError):
            calibrate(train, weights=[1.0, 2.0])

    @pytest.mark.filterwarnings("ignore:category C2 has no training examples")
    def test_pooled_profiles_keep_epsilon_apart(self):
        # three profiles pooled at one value t used to be t + h * epsilon, and
        # 0.42999999999999994 < 0.42 + 0.01 failed the separation check: calibrate
        # raised ModelError on data the LP solves
        values = [0.95, 0.14, 0.95, 0.31, 0.42, 0.83, 0.41, 0.55]
        train = make_training(list(zip(zip(values), [3, 1, 1, 5, 4, 5, 3, 5])), p=5)
        model, _, _ = calibrate(train)
        chain = [row[0] for row in model.profiles.values]
        assert all(hi >= lo + 0.01 for lo, hi in zip(chain, chain[1:]))

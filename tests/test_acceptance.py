"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so the whole gate can be read off `pytest -v -s`.
"""

import random
import time

import numpy as np
import pytest

from electre_linkage.calibration import TrainingSet, calibrate, estimate_profiles
from electre_linkage.core import (
    Alternative,
    Criterion,
    ElectreModel,
    ProfileSet,
    assign_optimistic,
    assign_pessimistic,
    classify_batch,
    credibility,
    global_concordance,
)
from electre_linkage.datagen import generate_pair_files
from electre_linkage.evaluation import evaluate, split
from electre_linkage.fellegi_sunter import fit_fs
from electre_linkage.ingest import census_schema, load_table, toy_schema, true_links
from electre_linkage.linkage import build_pairs, label_pairs
from electre_linkage.metrics import jaro, jaro_winkler, levenshtein

from oracles import joint_lp_objective, random_model_params, ref_assign


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def build_model(params):
    profiles, qs, ps, vs, ws, lam, eps = params
    crits = tuple(
        Criterion(f"g{j}", ws[j], qs[j], ps[j], vs[j]) for j in range(len(ws))
    )
    return ElectreModel(crits, ProfileSet(profiles), lam, eps)


def test_criterion_1_oracle_equivalence():
    """1000 random models x 1000 alternatives, both procedures, <= 60 s."""
    rng = random.Random(2024)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        params = random_model_params(rng)
        profiles, qs, ps, vs, ws, lam, _ = params
        model = build_model(params)
        m = len(ws)
        X = np.array([[rng.uniform(0, 1.2) for _ in range(m)] for _ in range(1000)])
        pes, _ = classify_batch(model, X, "pessimistic")
        opt, _ = classify_batch(model, X, "optimistic")
        for i in range(1000):
            perf = tuple(X[i])
            mismatches += pes[i] != ref_assign(
                perf, profiles, qs, ps, vs, ws, lam, "pessimistic"
            )
            mismatches += opt[i] != ref_assign(
                perf, profiles, qs, ps, vs, ws, lam, "optimistic"
            )
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (oracle equivalence, 1000 models x 1000 alternatives)",
        mismatches == 0 and elapsed <= 60,
        f"mismatches={mismatches} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_veto_free_collapse():
    rng = random.Random(2025)
    worst = 0.0
    exact = True
    for _ in range(500):
        model = build_model(random_model_params(rng, veto=False))
        for _ in range(20):
            a = Alternative("a", tuple(rng.uniform(0, 1.2) for _ in range(model.m)))
            for h in range(1, model.profiles.count + 1):
                sig = credibility(model, a, h)
                conc = global_concordance(model, a, h)
                if sig != conc:
                    exact = False
                    worst = max(worst, abs(sig - conc))
    report("criterion 2 (veto-free collapse, bitwise)", exact, f"worst gap={worst}")


def test_criterion_3_ordering_properties():
    rng = random.Random(33)
    n_cases = 0
    violations = []
    while n_cases < 10000:
        params = random_model_params(rng)
        model = build_model(params)
        m = model.m
        for _ in range(25):
            n_cases += 1
            perf = tuple(rng.uniform(0, 1.2) for _ in range(m))
            a = Alternative("a", perf)
            pes = assign_pessimistic(model, a).index
            opt = assign_optimistic(model, a).index
            if pes > opt:
                violations.append(("pes<=opt", params, perf))
            # lambda monotonicity of the pessimistic assignment
            lam2 = min(1.0, model.cutting_level + rng.uniform(0, 0.3))
            stricter = ElectreModel(
                model.criteria, model.profiles, lam2, model.epsilon
            )
            if assign_pessimistic(stricter, a).index > pes:
                violations.append(("lambda-monotone", params, perf))
            # coordinatewise performance increase
            bumped = tuple(v + rng.uniform(0, 0.3) for v in perf)
            if assign_pessimistic(model, Alternative("b", bumped)).index < pes:
                violations.append(("perf-monotone", params, perf))
    report(
        "criterion 3 (ordering properties, 10k cases x 3 properties)",
        not violations,
        f"cases={n_cases} violations={len(violations)}",
    )


def test_criterion_4a_lp_decomposition_vs_joint():
    rng = random.Random(404)
    worst = 0.0
    for _ in range(100):
        m = rng.randint(1, 4)
        p = rng.randint(2, 4)
        n = rng.randint(6, 200)
        points = []
        for _ in range(n):
            cat = rng.randint(1, p)
            points.append(
                (
                    tuple(
                        min(1.0, max(0.0, (cat - 0.5) / p + rng.gauss(0, 0.2)))
                        for _ in range(m)
                    ),
                    cat,
                )
            )
        for cat in range(1, p + 1):
            points.append((tuple((cat - 0.5) / p for _ in range(m)), cat))
        train = TrainingSet(
            np.array([perf for perf, _ in points]),
            [cat for _, cat in points],
            p,
        )
        sol = estimate_profiles(train, epsilon=0.01)
        ref = joint_lp_objective(train.X, train.y, p, 0.01)
        gap = abs(sol.objective - ref) / max(1.0, abs(ref))
        worst = max(worst, gap)
    report("criterion 4a (decomposed LP = joint simplex)", worst <= 1e-9,
           f"worst relative gap={worst:.2e}")


def test_criterion_4b_zero_loss_on_separated_data():
    rng = random.Random(405)
    ok = True
    for _ in range(10):
        m = rng.randint(1, 3)
        clouds = [(0.0, 0.25), (0.4, 0.6), (0.75, 1.0)]
        points = []
        for cat, (lo, hi) in enumerate(clouds, start=1):
            for _ in range(25):
                points.append(
                    (tuple(rng.uniform(lo, hi) for _ in range(m)), cat)
                )
        train = TrainingSet(
            np.array([perf for perf, _ in points]),
            [cat for _, cat in points],
            3,
        )
        model, sol, _ = calibrate(train, q_fraction=0.0, p_fraction=0.0)
        model05 = ElectreModel(model.criteria, model.profiles, 0.5, model.epsilon)
        cats, _ = classify_batch(model05, train.X, "pessimistic")
        ok = ok and sol.objective == 0.0 and (cats == train.y).all()
    report("criterion 4b (zero loss + 100% at lambda=0.5, q=p=0)", ok)


def test_criterion_4c_lp_matches_grid_enumeration():
    rng = random.Random(406)
    ok = True
    worst = 0.0
    for _ in range(25):
        p = rng.randint(2, 3)
        n = rng.randint(4, 20)
        points = [
            ((rng.randint(0, 100) / 100,), rng.randint(1, p)) for _ in range(n)
        ]
        for cat in range(1, p + 1):
            points.append(((rng.randint(0, 100) / 100,), cat))
        train = TrainingSet(
            np.array([perf for perf, _ in points]),
            [cat for _, cat in points],
            p,
        )
        eps = 0.01
        sol = estimate_profiles(train, epsilon=eps)
        X = train.X[:, 0]
        y = train.y
        grid = [i / 100 for i in range(-50, 151)]

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
                objective((b1, round(b1 + k / 100, 10)))
                for b1 in grid
                for k in range(1, 100)
                if b1 + k / 100 <= 1.6
            )
        gap = abs(sol.objective - best)
        worst = max(worst, gap)
        ok = ok and gap < 1e-12
    report("criterion 4c (LP = exhaustive grid search)", ok, f"worst gap={worst:.2e}")


@pytest.fixture(scope="module")
def census_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("census")
    a_path, b_path = root / "a.csv", root / "b.csv"
    generate_pair_files(a_path, b_path, n_a=449, n_b=392, n_links=327, seed=12)
    schema = census_schema()
    table_a, _ = load_table(a_path, schema, "A")
    table_b, _ = load_table(b_path, schema, "B")
    links = true_links(table_a, table_b)
    labeled = label_pairs(build_pairs(table_a, table_b, schema), links, "two_class")
    return schema, labeled


def test_criterion_5_end_to_end_accuracy(census_run):
    schema, labeled = census_run
    train, test = split(labeled, 0.5, seed=9)
    model, _, _ = calibrate(train, criterion_names=schema.field_names)
    X_test, truth = test.X, test.truth

    accs = {}
    for lam in (0.5, 0.85):
        m = ElectreModel(model.criteria, model.profiles, lam, model.epsilon)
        cats, _ = classify_batch(m, X_test, "pessimistic")
        accs[lam] = evaluate(cats, truth).accuracy
    ok = accs[0.5] >= 0.985 and accs[0.85] >= 0.99
    report(
        "criterion 5 (end-to-end census-style accuracy)",
        ok,
        f"acc@0.50={accs[0.5]:.4f} acc@0.85={accs[0.85]:.4f}",
    )


def test_criterion_6_fs_toy_ranking():
    from pathlib import Path

    data = Path(__file__).resolve().parent.parent / "data"
    schema = toy_schema()
    a, _ = load_table(data / "toy_a.csv", schema, "A")
    b, _ = load_table(data / "toy_b.csv", schema, "B")
    links = true_links(a, b)
    labeled = label_pairs(build_pairs(a, b, schema), links, "two_class")
    fs = fit_fs(labeled.X, labeled.truth)
    scores = dict(zip(map(labeled.pair, range(len(labeled))), fs.log_ratio(labeled.X).tolist()))
    matches = {("u1", "u1"), ("u2", "u2")}
    lo_match = min(scores[p] for p in matches)
    hi_other = max(s for p, s in scores.items() if p not in matches)
    report(
        "criterion 6 (FS baseline ranks the toy matches on top)",
        lo_match > hi_other,
        f"min match={lo_match:.2f} max nonmatch={hi_other:.2f}",
    )


def test_criterion_7_performance(census_run):
    schema, labeled = census_run
    X = labeled.X
    # pad to the full cross-product size regardless of missing-value drops
    reps = int(np.ceil(176008 / len(X)))
    X_full = np.tile(X, (reps, 1))[:176008]
    model = ElectreModel(
        tuple(Criterion(f, 1.0, 0.02, 0.1) for f in schema.field_names),
        ProfileSet(((0.4,) * 5, (0.8,) * 5)),
        0.5,
    )
    t0 = time.perf_counter()
    cats, _ = classify_batch(model, X_full, "pessimistic")
    full_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    classify_batch(model, X_full[:83868], "pessimistic")
    test_time = time.perf_counter() - t0
    ok = len(cats) == 176008 and full_time < 5.0 and test_time < full_time + 0.5
    report(
        "criterion 7 (176,008 pairs under 5 s)",
        ok,
        f"full={full_time:.2f}s test-subset={test_time:.2f}s",
    )


def test_criterion_8_string_metric_conformance():
    ok_lev = levenshtein("kitten", "sitting") == 3
    jw = jaro_winkler("MARTHA", "MARHTA")
    ok_jw = abs(jw - 0.9611) <= 1e-4

    rng = random.Random(88)
    import string as stringmod

    def rand_s():
        return "".join(
            rng.choice(stringmod.ascii_uppercase + " -")
            for _ in range(rng.randint(0, 10))
        )

    props_ok = True
    for _ in range(10000):
        x, y, z = rand_s(), rand_s(), rand_s()
        dxy = levenshtein(x, y)
        props_ok = props_ok and dxy == levenshtein(y, x)
        props_ok = props_ok and levenshtein(x, x) == 0
        props_ok = props_ok and levenshtein(x, z) <= dxy + levenshtein(y, z)
        props_ok = props_ok and jaro_winkler(x, y) >= jaro(x, y) - 1e-15
        props_ok = props_ok and 0.0 <= jaro_winkler(x, y) <= 1.0
    report(
        "criterion 8 (string metric conformance)",
        ok_lev and ok_jw and props_ok,
        f"levenshtein=3:{ok_lev} jw={jw:.5f} properties={props_ok}",
    )

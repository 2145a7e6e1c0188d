"""Independent reference implementations used only to check the package.

The Electre evaluator below follows the index definitions verbatim with
plain Python loops; the LP oracle hands the joint problem to a generic
simplex; the pair-pipeline references (pair building, the stratified split,
the Fellegi-Sunter fit, the classified-pairs writer) handle one pair at a
time, as the package did before pairs became columns. None shares code with
the package paths they verify.
"""

import csv
import math
import random

from scipy.optimize import linprog


def ref_partial_concordance(ga, gb, q, p):
    diff = gb - ga
    if diff <= q:
        return 1.0
    if diff >= p:
        return 0.0
    return (p - diff) / (p - q)


def ref_partial_discordance(ga, gb, p, v):
    if v is None:
        return 0.0
    diff = gb - ga
    if diff <= p:
        return 0.0
    if diff >= v:
        return 1.0
    return (diff - p) / (v - p)


def ref_credibility(perf_a, perf_b, qs, ps, vs, ws):
    total = sum(ws)
    conc = sum(
        w * ref_partial_concordance(ga, gb, q, p)
        for ga, gb, q, p, w in zip(perf_a, perf_b, qs, ps, ws)
    ) / total
    sigma = conc
    for ga, gb, p, v in zip(perf_a, perf_b, ps, vs):
        d = ref_partial_discordance(ga, gb, p, v)
        if d > conc:
            if d >= 1.0:
                return 0.0
            sigma *= (1.0 - d) / (1.0 - conc)
    return sigma


def ref_assign(perf, profiles, qs, ps, vs, ws, lam, procedure):
    """Category index straight from the scan definitions."""
    nprof = len(profiles)
    if procedure == "pessimistic":
        for h in range(nprof, 0, -1):
            if ref_credibility(perf, profiles[h - 1], qs, ps, vs, ws) >= lam:
                return h + 1
        return 1
    for h in range(1, nprof + 1):
        b_over_a = ref_credibility(profiles[h - 1], perf, qs, ps, vs, ws) >= lam
        a_over_b = ref_credibility(perf, profiles[h - 1], qs, ps, vs, ws) >= lam
        if b_over_a and not a_over_b:
            return h
    return nprof + 1


def random_model_params(rng: random.Random, max_m=5, max_p=4, veto=True):
    """Raw parameter tuple (profiles, qs, ps, vs, ws, lam) for a random model."""
    m = rng.randint(1, max_m)
    p = rng.randint(2, max_p)
    eps = 0.01
    qs, ps, vs, ws = [], [], [], []
    for _ in range(m):
        q = rng.uniform(0, 0.1)
        pref = q + rng.uniform(0, 0.15)
        if veto and rng.random() < 0.5:
            v = pref + rng.uniform(0, 0.5)
        else:
            v = None
        qs.append(q)
        ps.append(pref)
        vs.append(v)
        ws.append(rng.uniform(0.1, 2.0))
    profiles = []
    base = [rng.uniform(0.1, 0.4) for _ in range(m)]
    for _ in range(p - 1):
        profiles.append(tuple(base))
        base = [b + eps + rng.uniform(0, 0.3) for b in base]
    lam = rng.uniform(0.5, 1.0)
    return tuple(profiles), qs, ps, vs, ws, lam, eps


def joint_lp_objective(X, labels, p, epsilon):
    """Solve the full profile-estimation LP with a generic solver.

    Variables: g_j(b_h) for h=1..p-1, then theta_j(a_k) for every pair.
    Returns the optimal objective value.
    """
    n, m = X.shape
    nprof = p - 1
    nb = nprof * m
    ntheta = n * m

    def bvar(h, j):  # h 0-based profile, j criterion
        return h * m + j

    def tvar(k, j):
        return nb + k * m + j

    c = [0.0] * nb + [1.0] * ntheta
    A_ub, b_ub = [], []
    for k in range(n):
        h = labels[k]
        for j in range(m):
            if h != p:  # g(a) - g(b_h) <= theta
                row = [0.0] * (nb + ntheta)
                row[bvar(h - 1, j)] = -1.0
                row[tvar(k, j)] = -1.0
                A_ub.append(row)
                b_ub.append(-X[k, j])
            if h != 1:  # g(b_{h-1}) - g(a) <= theta
                row = [0.0] * (nb + ntheta)
                row[bvar(h - 2, j)] = 1.0
                row[tvar(k, j)] = -1.0
                A_ub.append(row)
                b_ub.append(X[k, j])
    for h in range(1, nprof):
        for j in range(m):
            row = [0.0] * (nb + ntheta)
            row[bvar(h - 1, j)] = 1.0
            row[bvar(h, j)] = -1.0
            A_ub.append(row)
            b_ub.append(-epsilon)
    bounds = [(None, None)] * nb + [(0, None)] * ntheta
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun


# --- the per-pair pipeline the columnar PairBlock replaced, kept as plain loops ---


def ref_build_pairs(a, b, schema):
    """Row-major nested-loop cross product, caching each field's value pairs.

    Returns (pair ids, performance rows, comparator calls made).
    """
    caches = [dict() for _ in schema.compared_fields]
    ids, rows, calls = [], [], 0
    for id_a, rec_a in a.records:
        for id_b, rec_b in b.records:
            perf = []
            for (fname, comparator), cache in zip(schema.compared_fields, caches):
                key = (rec_a[fname], rec_b[fname])
                if key not in cache:
                    cache[key] = comparator.compare(*key)
                    calls += 1
                perf.append(cache[key])
            ids.append((id_a, id_b))
            rows.append(tuple(perf))
    return ids, rows, calls


def ref_split(labels, train_fraction, seed):
    """Stratified split of row positions by label; returns (train rows, test rows)."""
    by_label = {}
    for k, label in enumerate(labels):
        by_label.setdefault(label, []).append(k)
    rng = random.Random(seed)
    train, test = [], []
    for label in sorted(by_label):
        group = by_label[label]
        order = list(range(len(group)))
        rng.shuffle(order)
        chosen = set(order[: round(train_fraction * len(group))])
        for i, k in enumerate(group):
            (train if i in chosen else test).append(k)
    return train, test


def ref_log_ratio(row, thresholds, m_probs, u_probs):
    total = 0.0
    for s, t, m, u in zip(row, thresholds, m_probs, u_probs):
        if s >= t:
            total += math.log2(m / u)
        else:
            total += math.log2((1 - m) / (1 - u))
    return total


def ref_fit_fs(rows, labels, threshold=0.88, band_rate=0.01):
    """Laplace-smoothed Fellegi-Sunter fit, one pair at a time.

    Returns (m_probs, u_probs, thresholds, lower, upper).
    """
    nfields = len(rows[0])
    thresholds = (float(threshold),) * nfields
    link_agree, nonlink_agree = [0] * nfields, [0] * nfields
    n_link = n_nonlink = 0
    for row, label in zip(rows, labels):
        is_link = label == 3
        n_link += is_link
        n_nonlink += not is_link
        for j, (s, t) in enumerate(zip(row, thresholds)):
            if s >= t:
                if is_link:
                    link_agree[j] += 1
                else:
                    nonlink_agree[j] += 1
    m_probs = tuple((link_agree[j] + 1) / (n_link + 2) for j in range(nfields))
    u_probs = tuple((nonlink_agree[j] + 1) / (n_nonlink + 2) for j in range(nfields))
    scored = sorted(
        (ref_log_ratio(row, thresholds, m_probs, u_probs), label == 3)
        for row, label in zip(rows, labels)
    )
    # the cut with the fewest errors for "link iff score > cut"; first strict minimum wins
    cut = scored[0][0] - 1.0
    best_err = n_nonlink
    links_below = nonlinks_below = 0
    for i, (score, is_link) in enumerate(scored):
        links_below += is_link
        nonlinks_below += not is_link
        err = links_below + (n_nonlink - nonlinks_below)
        if err < best_err:
            best_err = err
            nxt = scored[i + 1][0] if i + 1 < len(scored) else score + 1.0
            cut = (score + nxt) / 2.0
    # the band holds the k scores on each side nearest the cut
    k = int(band_rate * len(scored) / 2)
    below = [s for s, _ in scored if s <= cut]
    above = [s for s, _ in scored if s > cut]
    lower = below[-k] if k and len(below) >= k else cut
    upper = above[k - 1] if k and len(above) >= k else cut
    return m_probs, u_probs, thresholds, lower, upper


def ref_write_classified(path, block, cats, sigma, field_names):
    """Classified-pairs file written row by row through csv.writer."""
    nprof = sigma.shape[1] if len(cats) else 0
    X, truth = block.X, block.truth.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = (
            ["id_a", "id_b"]
            + [f"sim_{f}" for f in field_names]
            + [f"sigma_b{h}" for h in range(1, nprof + 1)]
            + ["assigned", "truth"]
        )
        writer.writerow(header)
        for i, (ra, rb) in enumerate(zip(block.ia.tolist(), block.ib.tolist())):
            row = [block.ids_a[ra], block.ids_b[rb]]
            row += [repr(float(v)) for v in X[i]]
            row += [repr(float(v)) for v in sigma[i]]
            row.append(f"C{cats[i]}")
            row.append(f"C{truth[i]}" if truth[i] else "")
            writer.writerow(row)

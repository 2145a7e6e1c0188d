"""Independent reference implementations used only to check the package.

The Electre evaluator below follows the index definitions verbatim with
plain Python loops; the LP oracle hands the joint problem to a generic
simplex; the table loader reads each row as a dict by column name, as the
package did before it read columns by position; the pair-pipeline references
(pair building, the stratified split, the Fellegi-Sunter fit, the
classified-pairs writer, the confusion report) handle one pair at a time, as
the package did before pairs became columns, and compare each value pair with
the scalar comparators the package used before its whole-table grids. None
shares code with the package paths they verify, except two. The profile-chain
reference reuses the package's per-block hinge interval selection and replaces
the pooling pass by trying every pooled-block composition; its hinge
minimization and slacks below are the package's own before calibration read
the rows through counts. The side reference (ref_side) reads a side as the
package did before sides became labels over the whole block: its pairs'
positions gathered into a column form, numbered by the package's kernel rows
and agreement patterns of that form.
"""

import csv
import itertools
import math
import random

import numpy as np
from scipy.optimize import linprog

from electre_linkage.calibration import LpSolution, _monotone_selection
from electre_linkage.core import (ProfileSet, _distinct_cells, column_fields, kernel_rows,
                                  label_cells)
from electre_linkage.evaluation import EvalReport, EvaluationError
from electre_linkage.fellegi_sunter import agreement_patterns
from electre_linkage.ingest import IngestError, LoadReport, RecordTable
from electre_linkage.linkage import PairBlock
from electre_linkage.metrics import ComparatorError


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
    # both sums in criterion order (from Python 3.12 on, sum() compensates floats)
    total = weighted = 0.0
    for ga, gb, q, p, w in zip(perf_a, perf_b, qs, ps, ws):
        total += w
        weighted += w * ref_partial_concordance(ga, gb, q, p)
    conc = weighted / total
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


def random_model_params(rng: random.Random, max_m=5, max_p=4, veto=True, min_m=1):
    """Raw parameter tuple (profiles, qs, ps, vs, ws, lam) for a random model."""
    m = rng.randint(min_m, max_m)
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


def _hinge_minimum(uppers, lowers, clamp_lo, clamp_hi):
    """Minimize f(t) = sum (u - t)+ + sum (t - l)+ over t.

    Returns (lo, hi, value): the flat optimal interval and its objective, the
    interval being the breakpoints whose value is within a relative 1e-12 of
    the least. The interval of an unconstrained side is clamped to the data
    range so a midpoint is always defined.
    """
    U = np.sort(np.asarray(uppers, dtype=float))
    L = np.sort(np.asarray(lowers, dtype=float))
    pts = np.unique(np.concatenate([U, L]))
    if pts.size == 0:
        return clamp_lo, clamp_hi, 0.0

    cum_u = np.concatenate([[0.0], np.cumsum(U)])
    cum_l = np.concatenate([[0.0], np.cumsum(L)])
    iu = np.searchsorted(U, pts, side="right")
    il = np.searchsorted(L, pts, side="left")
    # sum of (u - t)+ plus sum of (t - l)+ at every breakpoint
    vals = (cum_u[-1] - cum_u[iu]) - (U.size - iu) * pts + il * pts - cum_l[il]
    best = float(vals.min())
    flat = np.flatnonzero(vals <= best + 1e-12 * max(1.0, abs(best)))
    lo = float(pts[flat[0]])
    hi = float(pts[flat[-1]])
    # the optimum may extend past the extreme breakpoints when one side is empty
    if L.size == 0:
        hi = max(hi, clamp_hi)
    if U.size == 0:
        lo = min(lo, clamp_lo)
    return lo, hi, best


def _slacks(X: np.ndarray, y: np.ndarray, profiles, p: int) -> np.ndarray:
    """theta_j(a_k) = max(0, overshoot of the upper profile, undershoot of the lower)."""
    B = np.asarray(profiles, dtype=float)
    theta = np.zeros_like(X)
    # np.where(v > t, v, t) keeps Python's max(t, v) choice between equal values
    below_top = y != p
    over = X[below_top] - B[y[below_top] - 1]
    theta[below_top] = np.where(over > 0.0, over, 0.0)
    above_bottom = y != 1
    under = B[y[above_bottom] - 2] - X[above_bottom]
    t = theta[above_bottom]
    theta[above_bottom] = np.where(under > t, under, t)
    return theta


def ref_slacks(train, profiles):
    """The (n, m) slacks of the training rows against the profile values."""
    return _slacks(train.X, train.y, profiles.values, train.category_count)


def _chain(vals, epsilon):
    """Profile h from its y-space value t_h: t_h + h * epsilon, raised to the previous
    profile plus epsilon where rounding left it an ulp short."""
    chain = []
    for h, t in enumerate(vals):
        x = t + h * epsilon
        chain.append(max(x, chain[-1] + epsilon) if chain else x)
    return chain


def ref_estimate_profiles(train, epsilon, pool=False):
    """Profile estimation from the rows of train.X, each chain resolved by brute force.

    Tries all 2^(p-2) compositions of the profile chain into consecutive
    pooled blocks, most-split first, and keeps the first feasible one of
    least objective, so objective ties keep per-profile intervals apart.
    With pool set, runs the package's left-to-right pooling pass instead, as
    it was before calibration read the rows through counts.
    """
    p = train.category_count
    m = train.criterion_count
    X, y = train.X, train.y
    nprof = p - 1
    profile_cols = []
    for j in range(m):
        g = X[:, j]
        uppers = [g[y == h] - (h - 1) * epsilon for h in range(1, nprof + 1)]
        lowers = [g[y == h + 1] - (h - 1) * epsilon for h in range(1, nprof + 1)]
        clamp_lo = g.min() - (nprof - 1) * epsilon
        clamp_hi = g.max()

        def hinge(start, end):
            return _hinge_minimum(np.concatenate(uppers[start:end]),
                                  np.concatenate(lowers[start:end]), clamp_lo, clamp_hi)

        if pool:
            blocks = []  # (first profile, end profile, lo, hi)
            for h in range(nprof):
                start = h
                lo, hi, _ = hinge(h, h + 1)
                while blocks and max(b[2] for b in blocks) > hi:
                    start = blocks.pop()[0]
                    lo, hi, _ = hinge(start, h + 1)
                blocks.append((start, h + 1, lo, hi))
            vals = _monotone_selection([(lo, hi) for _, _, lo, hi in blocks])
            best_vals = [t for (start, end, _, _), t in zip(blocks, vals)
                         for _ in range(start, end)]
            profile_cols.append(_chain(best_vals, epsilon))
            continue

        best_obj = math.inf
        best_vals = None
        compositions = sorted(
            itertools.product([0, 1], repeat=max(nprof - 1, 0)),
            key=lambda cuts: -sum(cuts),
        )
        for cuts in compositions:
            blocks, start = [], 0
            for i, cut in enumerate(cuts):
                if cut:
                    blocks.append((start, i + 1))
                    start = i + 1
            blocks.append((start, nprof))
            obj = 0.0
            intervals = []
            for lo_h, hi_h in blocks:
                lo, hi, val = hinge(lo_h, hi_h)
                obj += val
                intervals.append((lo, hi))
            # a nondecreasing selection exists iff no lower end exceeds a later upper end
            feasible = all(lo <= hi for (lo, _), (_, hi) in itertools.combinations(intervals, 2))
            improved = best_obj == math.inf or obj < best_obj - 1e-12 * max(1.0, abs(obj))
            if feasible and improved:
                vals = _monotone_selection(intervals)
                best_obj = obj
                expanded = []
                for (blo, bhi), t in zip(blocks, vals):
                    expanded.extend([t] * (bhi - blo))
                best_vals = expanded
        assert best_vals is not None  # the fully pooled composition is always feasible
        profile_cols.append(_chain(best_vals, epsilon))

    prof_matrix = tuple(
        tuple(profile_cols[j][h] for j in range(m)) for h in range(nprof)
    )
    theta = _slacks(X, y, prof_matrix, p)
    return LpSolution(ProfileSet(prof_matrix), float(theta.sum()))


# --- the scalar comparators the whole-table grids and the index scan replaced ---


def ref_levenshtein(x, y):
    """Full-matrix DP, kept deliberately naive."""
    n, m = len(x), len(y)
    D = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        D[i][0] = i
    for j in range(m + 1):
        D[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            D[i][j] = min(
                D[i - 1][j] + 1,
                D[i][j - 1] + 1,
                D[i - 1][j - 1] + (x[i - 1] != y[j - 1]),
            )
    return D[n][m]


def ref_jaro(x, y):
    """Jaro similarity with match flags on both strings."""
    if x == y:
        return 1.0
    if not x or not y:
        return 0.0
    window = max(len(x), len(y)) // 2 - 1
    x_flags = [False] * len(x)
    y_flags = [False] * len(y)
    matches = 0
    for i, cx in enumerate(x):
        lo = max(0, i - window)
        hi = min(len(y), i + window + 1)
        for j in range(lo, hi):
            if not y_flags[j] and y[j] == cx:
                x_flags[i] = y_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, cx in enumerate(x):
        if x_flags[i]:
            while not y_flags[j]:
                j += 1
            if cx != y[j]:
                transpositions += 1
            j += 1
    t = transpositions // 2
    m = matches
    return (m / len(x) + m / len(y) + (m - t) / m) / 3.0


def ref_jaro_winkler(x, y, prefix_scale=0.1, prefix_cap=4):
    base = ref_jaro(x, y)
    prefix = 0
    for cx, cy in zip(x[:prefix_cap], y[:prefix_cap]):
        if cx != cy:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def ref_absolute_difference_normalized(x, y, cap=10.0):
    """1 - |x - y| / cap, floored at 0, from both values parsed per call."""
    try:
        fx, fy = float(x), float(y)
    except (TypeError, ValueError) as exc:
        raise ComparatorError(f"numeric comparator got non-numeric value: {exc}") from exc
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise ComparatorError(f"numeric comparator got non-finite value: {x!r}, {y!r}")
    return max(0.0, 1.0 - abs(fx - fy) / cap)


def ref_compare(comparator, x, y):
    """The comparator's similarity of one value pair, from the references above."""
    kind = comparator.kind
    if kind == "levenshtein_normalized":
        n = max(len(x), len(y))
        return 1.0 - ref_levenshtein(x, y) / n if n else 1.0
    if kind == "jaro":
        return ref_jaro(x, y)
    if kind == "jaro_winkler":
        return ref_jaro_winkler(x, y, comparator.prefix_scale, comparator.prefix_cap)
    if kind == "exact":
        return 1.0 if x == y else 0.0
    return ref_absolute_difference_normalized(x, y, comparator.cap)


def ref_load_table(path, schema, source_label):
    """load_table through csv.DictReader: one dict per row, its checks on the dict."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh, delimiter=schema.delimiter)
        header = reader.fieldnames or []
        required = [schema.id_field, *schema.field_names]
        for col in required:
            if col not in header:
                raise IngestError(f"{path}: missing required column {col!r}")
            if header.count(col) > 1:
                raise IngestError(f"{path}: column {col!r} appears more than once")
        read = dropped = 0
        records = []
        seen = {}
        for row in reader:
            lineno = reader.line_num
            if any(v is None for v in row.values()):
                raise IngestError(f"{path}:{lineno}: row has fewer fields than header")
            if None in row:
                raise IngestError(f"{path}:{lineno}: row has more fields than header")
            read += 1
            rid = row[schema.id_field].strip()
            if schema.is_missing(rid) or any(
                schema.is_missing(row[f]) for f in schema.field_names
            ):
                dropped += 1
                continue
            if rid in seen:
                raise IngestError(
                    f"{path}: duplicate identifier {rid!r} on lines {seen[rid]} and {lineno}"
                )
            seen[rid] = lineno
            values = {f: schema.normalize(row[f]) for f in schema.field_names}
            records.append((rid, values))
    table = RecordTable(source_label, tuple(schema.field_names), tuple(records))
    return table, LoadReport(str(path), source_label, read, dropped)


# --- the per-pair pipeline the columnar PairBlock replaced, kept as plain loops ---


def ref_distinct_cells(table):
    """The numbering _distinct_cells once made with np.unique: the distinct bit
    patterns of a float64 table, ascending as int64, and each cell's int32 index."""
    bits, cell = np.unique(table.view(np.int64), return_inverse=True)
    return bits.view(np.float64), cell.reshape(table.shape).astype(np.int32)


def ref_distinct_rows(columns, states):
    """Each row's tuple of states, one per column, and the distinct tuples in
    ascending order: the numbering core.distinct_rows makes, by dict."""
    n = len(columns[0][1])
    rows = [tuple(int(state[index[r]]) for state, (_, index) in zip(states, columns))
            for r in range(n)]
    return rows, sorted(set(rows))


def ref_label_cells(inverse, labels):
    """{(distinct row, label): row count}, counted one row at a time."""
    cells = {}
    for row, label in zip(inverse.tolist(), labels.tolist()):
        cells[row, label] = cells.get((row, label), 0) + 1
    return cells


def block_from_columns(ids_a, ids_b, X, truth):
    """The PairBlock of ids_a x ids_b whose pair p performs X[p], in row-major order.

    Every column of X becomes one (len(ids_a), len(ids_b)) table over the record
    positions (codes arange), so each pair has a cell of its own.
    """
    na, nb = len(ids_a), len(ids_b)
    fields = [(np.arange(na), np.arange(nb), *_distinct_cells(col.reshape(na, nb)))
              for col in np.array(X, dtype=float).T]
    return PairBlock(tuple(ids_a), tuple(ids_b), tuple(fields), np.asarray(truth, dtype=np.int8))


def block_of_rows(block, rows):
    """The pairs of block at positions rows, in their order, as a whole block of their own:
    one A record a pair, whose id is the pair, and one B record."""
    rows = np.arange(len(block))[rows]
    return block_from_columns(tuple(block.pair(r) for r in rows.tolist()), ("",),
                              block.X[rows], block.truth[rows])


def ref_side(block, positions, y, model, p=3):
    """A side of block as it was read when it was held as positions: its pairs gathered
    into a column form, one (values, int32 index) per field, in the given order, with
    category indices y. Returns its X, the per-category counts, the per-criterion
    (values, counts) histograms, and the (kernel row, label) and (pattern, label) cells
    (core.label_cells) of the column form's kernel rows and agreement patterns."""
    a, b = np.divmod(np.asarray(positions, dtype=np.intp), max(len(block.ids_b), 1))
    columns = [(values, cell[code_a[a], code_b[b]].astype(np.int32))
               for code_a, code_b, values, cell in block.fields]
    y = np.asarray(y, dtype=int)
    histograms = []
    for values, index in columns:
        counts = np.bincount(index * p + (y - 1), minlength=len(values) * p)
        counts = counts.reshape(len(values), p)
        taken = np.flatnonzero(counts.any(axis=1))
        order = taken[np.argsort(values[taken], kind="stable")]
        histograms.append((values[order], counts[order]))
    fields = column_fields(columns)
    return (np.column_stack([values[index] for values, index in columns]),
            np.bincount(y, minlength=p + 1)[1:], histograms,
            label_cells(*kernel_rows(model, fields), y),
            label_cells(*agreement_patterns(fields), y))


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
                    cache[key] = ref_compare(comparator, *key)
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


def ref_evaluate(predicted, truth, cutting_level=None, procedure=""):
    """The confusion report by one dict update per pair, cells in first-seen order."""
    predicted = np.asarray(predicted, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if predicted.shape != truth.shape:
        raise EvaluationError("predicted and truth lengths differ")
    if len(predicted) == 0:
        raise EvaluationError("nothing to evaluate")
    contingency = {}
    for t, p in zip(truth.tolist(), predicted.tolist()):
        contingency[(t, p)] = contingency.get((t, p), 0) + 1
    correct = int((predicted == truth).sum())
    pred_c3 = int((predicted == 3).sum())
    true_c3 = int((truth == 3).sum())
    hit_c3 = int(((predicted == 3) & (truth == 3)).sum())
    return EvalReport(
        accuracy=correct / len(predicted),
        contingency=contingency,
        precision_c3=hit_c3 / pred_c3 if pred_c3 else 0.0,
        recall_c3=hit_c3 / true_c3 if true_c3 else 0.0,
        missed_links=true_c3 - hit_c3,
        false_links=pred_c3 - hit_c3,
        total=len(predicted),
        cutting_level=cutting_level,
        procedure=procedure,
    )


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
        for i in range(len(block)):
            row = list(block.pair(i))
            row += [repr(float(v)) for v in X[i]]
            row += [repr(float(v)) for v in sigma[i]]
            row.append(f"C{cats[i]}")
            row.append(f"C{truth[i]}" if truth[i] else "")
            writer.writerow(row)

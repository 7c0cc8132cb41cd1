"""Hot numeric kernels: the two split scans, batched tree traversal and the
tank farm step loop, one numpy implementation each.

The split scans work on a node's rows presorted per feature (SLIQ, Mehta et
al. 1996): the tree builder sorts every feature once per fit and keeps each
node's rows as one contiguous slice of that presort, so no scan sorts.
Their three positional arguments are

* ``order``: (m, d) int array; column j lists the node's m distinct rows
  (indices into ``X`` and the target) in ascending order of ``X[:, j]``.
  This is the layout of ``np.argsort(X, axis=0, kind="mergesort")`` for a
  node holding every row;
* the target indexed by row: 0/1 labels for Gini, float residuals for SSE;
* ``feature_indices``: candidate columns in ascending order;

and the keyword ``columns`` is ``X.T`` as a C-contiguous (d, n) array, so
each feature's values are one contiguous row to gather from. The Gini scan
also takes ``counts``, an integer weight per row: a bootstrap tree keeps
each drawn row once and weighs it by its draw count (Breiman 2001; Louppe
2014, ch. 5), every other tree weighs each row 1.

Split-scan conventions shared by both criteria:

* candidate thresholds are midpoints of consecutive distinct sorted values,
  kept only when the midpoint lies strictly below the upper value (adjacent
  floats can collapse the midpoint onto the upper value, which would leak
  the upper block into the left child);
* rows with value <= threshold go left;
* ties on gain break toward the lowest feature index, then the lowest
  threshold: the scan takes the first maximum over candidates laid out
  feature by feature, thresholds ascending.

Gini gains depend only on class counts at boundaries between distinct
values, so the order of tied rows within ``order`` does not change them.
Those counts are integers, exact in float64, so a row of weight c scores
every cut exactly as c copies of the row would.
SSE gains add residuals in ``order``'s sequence, so a caller that needs
reproducible bits must fix the tie order (the builder keeps ties in fit
order, as a fresh stable sort of the node would).
"""
from __future__ import annotations

import numpy as np

# most sorted cells (rows x candidate features) one scan step holds, so a
# scan's temporaries stay near 1 MB however many features a node weighs
_CHUNK_CELLS = 1 << 13


def _scan(order, feature_indices, columns):
    """Gather the node's rows and sorted values for every candidate feature
    and locate the valid cuts.

    Returns (rows, valid, thr): the (k, m) rows in sorted order; the
    (k, m - 1) mask of valid cuts (a cut at [c, i] falls between sorted
    positions i and i + 1 of candidate c); and the thresholds of the valid
    cuts in scan order (candidate by candidate, thresholds ascending).
    """
    rows = order.T[feature_indices]
    sv = np.empty(rows.shape)
    for c, j in enumerate(feature_indices):
        columns[j].take(rows[c], out=sv[c])
    hi = sv[:, 1:]
    thr = (sv[:, :-1] + hi) * 0.5
    # equal neighbours give thr == hi, so this also skips ties
    valid = thr < hi
    return rows, valid, thr[valid]


def _first_max(gain, feature_indices, valid, thr):
    """The first maximum of gain in scan order, if it beats the -1.0 floor."""
    if gain.size == 0:
        return -1, 0.0, -1.0
    k = int(np.argmax(gain))
    if not gain[k] > -1.0:
        return -1, 0.0, -1.0
    per_candidate = np.cumsum(np.count_nonzero(valid, axis=1))
    c = int(np.searchsorted(per_candidate, k, side="right"))
    return int(feature_indices[c]), float(thr[k]), float(gain[k])


def _chunks(feature_indices, n):
    """Candidate features in runs of at most ``_CHUNK_CELLS`` sorted cells,
    one feature per run when a single column is larger."""
    step = max(1, _CHUNK_CELLS // n)
    for c in range(0, len(feature_indices), step):
        yield feature_indices[c:c + step]


def gini_best_split(order, y, feature_indices, *, columns, counts):
    """Best (feature, threshold, gain) under Gini impurity for one node.

    y: int64 labels in {0, 1} indexed by row; counts: int64 row weights
    indexed by row. Returns feature -1 (gain -1.0) when no candidate split
    exists. gain is parent impurity minus the weighted child impurity.
    """
    node_rows = order[:, 0]
    node_counts = counts.take(node_rows)
    n = int(node_counts.sum())
    n1 = int((node_counts * y.take(node_rows)).sum())
    n0 = n - n1
    fn = float(n)
    p0 = n0 / fn
    p1 = n1 / fn
    g_parent = 1.0 - p0 * p0 - p1 * p1

    best = (-1, 0.0, -1.0)
    for feats in _chunks(feature_indices, order.shape[0]):
        rows, valid, thr = _scan(order, feats, columns)
        sc = counts.take(rows)
        nl = np.cumsum(sc, axis=1)[:, :-1][valid].astype(np.float64)
        n1l = np.cumsum(sc * y.take(rows), axis=1)[:, :-1][valid].astype(np.float64)
        n0l = nl - n1l
        nr = fn - nl
        n1r = float(n1) - n1l
        n0r = nr - n1r
        p0l = n0l / nl
        p1l = n1l / nl
        gl = 1.0 - p0l * p0l - p1l * p1l
        p0r = n0r / nr
        p1r = n1r / nr
        gr = 1.0 - p0r * p0r - p1r * p1r
        gain = g_parent - ((nl / fn) * gl + (nr / fn) * gr)
        found = _first_max(gain, feats, valid, thr)
        if found[2] > best[2]:
            best = found
    return best


def sse_best_split(order, r, feature_indices, *, columns, parent_sums):
    """Best (feature, threshold, gain) by SSE reduction for one node.

    r: float64 regression target indexed by row. parent_sums: the node's
    (sum of r, sum of r * r). gain is parent SSE minus the sum of child
    SSEs (absolute reduction, not sample-weighted variance).
    """
    n = order.shape[0]
    fn = float(n)
    total_s, total_q = parent_sums
    sse_parent = total_q - total_s * total_s / fn

    best = (-1, 0.0, -1.0)
    for feats in _chunks(feature_indices, n):
        rows, valid, thr = _scan(order, feats, columns)
        sr = r.take(rows)
        # rows left of each valid cut
        nl = np.broadcast_to(np.arange(1.0, sr.shape[1]), valid.shape)[valid]
        sl = np.cumsum(sr, axis=1)[:, :-1][valid]
        ql = np.cumsum(sr * sr, axis=1)[:, :-1][valid]
        nr = fn - nl
        sse_l = ql - sl * sl / nl
        sr_sum = total_s - sl
        sse_r = (total_q - ql) - sr_sum * sr_sum / nr
        gain = sse_parent - (sse_l + sse_r)
        found = _first_max(gain, feats, valid, thr)
        if found[2] > best[2]:
            best = found
    return best


def tree_apply(feature, threshold, left, right, value, X):
    """Evaluate an array-encoded binary tree on every row of X.

    feature[i] == -1 marks node i as a leaf carrying value[i]; internal
    nodes route rows with X[:, feature] <= threshold to ``left``.
    """
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    while True:
        feat = feature[node]
        live = feat >= 0
        if not live.any():
            break
        lr = rows[live]
        ln = node[live]
        go_left = X[lr, feat[live]] <= threshold[ln]
        node[live] = np.where(go_left, left[ln], right[ln])
    return value[node]


def tank_loop(level0, rates, noise, flips, n_steps):
    """Tank farm simulation: a python loop over the state each step carries.

    rates: (inflow_rate, outflow_rate, level_low, level_high, capacity, dt)
    noise: (level_noise, inflow_noise, outflow_noise), each (n_steps, n_tanks)
    flips: (pump_flip, valve_flip) boolean (n_steps, n_tanks)
    Returns (level_meas, inflow_meas, outflow_meas, pump, valve).

    Per step: read noisy level, run the hysteresis pump controller on the
    reading, apply actuator-flip overrides, integrate the true level from
    the (possibly forced) actuator states. Controller memory keeps its own
    command so forcing an actuator does not corrupt the hysteresis state.

    Only two values pass from one step to the next: each tank's true level
    and its controller command. The tanks are independent, so the loop runs
    one tank at a time over plain floats; the valve state and both flow
    readings depend on no carried state and are computed as whole columns,
    each element by the same float64 operations as a step would. The loop
    reads and writes its columns through memoryviews, so it holds no list
    of float objects: lists of 100k floats per column left the heap
    fragmented, and peak RSS rose with every call.
    """
    inflow_rate, outflow_rate, level_low, level_high, capacity, dt = rates
    level_noise, inflow_noise, outflow_noise = noise
    pump_flip, valve_flip = flips
    n_tanks = level0.shape[0]
    # one contiguous row per tank, filled in step order, returned transposed
    level_meas = np.empty((n_tanks, n_steps), dtype=np.float64)
    pump_out = np.empty((n_tanks, n_steps), dtype=np.int64)
    valve_out = np.where(valve_flip, 0, 2)
    q_out = np.where(valve_flip, 0.0, outflow_rate)
    for k in range(n_tanks):
        level = float(level0[k])
        cmd = 0
        meas_k, pump_k = memoryview(level_meas[k]), memoryview(pump_out[k])
        for t, (noise_t, pflip, q_out_t) in enumerate(zip(
            memoryview(np.ascontiguousarray(level_noise[:, k])),
            memoryview(np.ascontiguousarray(pump_flip[:, k])),
            memoryview(np.ascontiguousarray(q_out[:, k])),
        )):
            meas = level + noise_t
            if meas < level_low:
                cmd = 2
            elif meas > level_high:
                cmd = 0
            pump_act = (0 if cmd >= 1 else 2) if pflip else cmd
            q_in = inflow_rate if pump_act == 2 else 0.0
            meas_k[t] = meas
            pump_k[t] = pump_act
            level += (q_in - q_out_t) * dt
            if level < 0.0:
                level = 0.0
            elif level > capacity:
                level = capacity
    level_meas, pump_out = level_meas.T, pump_out.T
    inflow_meas = np.where(pump_out == 2, inflow_rate, 0.0) + inflow_noise
    outflow_meas = q_out + outflow_noise
    return level_meas, inflow_meas, outflow_meas, pump_out, valve_out

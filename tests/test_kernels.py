"""Kernel-level tests: presorted split scans, tree traversal, tank loop."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icsadv import kernels as K
from icsadv import trees


def presorted(X):
    """Every row of X as one node: (n, d) stable per-feature sort order."""
    return np.argsort(X, axis=0, kind="mergesort")


def gini_split(X, y, feats):
    X = np.asarray(X, dtype=np.float64)
    return K.gini_best_split(
        presorted(X), y, feats, columns=np.ascontiguousarray(X.T),
        counts=np.ones(X.shape[0], dtype=np.int64),
    )


def sse_split(X, r, feats):
    X = np.asarray(X, dtype=np.float64)
    sums = (float(np.cumsum(r)[-1]), float(np.cumsum(r * r)[-1]))
    return K.sse_best_split(
        presorted(X), r, feats, columns=np.ascontiguousarray(X.T),
        parent_sums=sums,
    )


def _random_split_case(seed: int, quantize: bool):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 120))
    d = int(rng.integers(1, 7))
    X = rng.random((n, d))
    if quantize:
        # coarse grid forces duplicate feature values and gain ties
        X = np.round(X * 4) / 4
    y = rng.integers(0, 2, n).astype(np.int64)
    feats = np.arange(d, dtype=np.int64)
    return X, y, feats


def exhaustive_gini_split(X, y, feature_indices):
    """Brute-force oracle: evaluate every candidate midpoint directly."""
    n = X.shape[0]
    parent = _gini(y)
    best = (-1, 0.0, -1.0)
    best_gain = -1.0
    for f in feature_indices:
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            if not thr < b:
                continue
            mask = X[:, f] <= thr
            nl = int(mask.sum())
            weighted = (nl / n) * _gini(y[mask]) + ((n - nl) / n) * _gini(y[~mask])
            gain = parent - weighted
            if gain > best_gain:
                best_gain = gain
                best = (int(f), thr, gain)
    return best


def _gini(y) -> float:
    if y.size == 0:
        return 0.0
    p = y.mean()
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


class TestGiniSplit:
    def test_matches_exhaustive_oracle(self):
        for seed in range(25):
            X, y, feats = _random_split_case(seed, quantize=seed % 2 == 0)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            feat, thr, gain = gini_split(X, y, feats)
            efeat, ethr, egain = exhaustive_gini_split(X, y, feats)
            assert (feat, thr) == (efeat, ethr)
            assert gain == pytest.approx(egain, abs=1e-12)

    def test_textbook_case(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1], dtype=np.int64)
        feat, thr, gain = gini_split(X, y, np.array([0], dtype=np.int64))
        assert feat == 0
        assert thr == 2.5
        assert gain == pytest.approx(0.5)

    def test_constant_feature_gives_no_split(self):
        X = np.ones((10, 1))
        y = np.array([0, 1] * 5, dtype=np.int64)
        feat, _, gain = gini_split(X, y, np.array([0], dtype=np.int64))
        assert feat == -1
        assert gain == -1.0  # sentinel: no candidate at all

    def test_tie_prefers_lowest_feature(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        X = np.hstack([X, X])  # identical columns, identical gains
        y = np.array([0, 0, 1, 1], dtype=np.int64)
        feat, _, _ = gini_split(X, y, np.array([0, 1], dtype=np.int64))
        assert feat == 0

    def test_tie_prefers_lowest_threshold(self):
        # gains at thresholds 1.5 and 3.5 are equal by symmetry
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 1, 1, 0], dtype=np.int64)
        _, thr, _ = gini_split(X, y, np.array([0], dtype=np.int64))
        assert thr == 1.5

    def test_adjacent_float_midpoint_skipped(self):
        # (a + b) / 2 rounds onto b here, so the only candidate threshold
        # would leak b into the left child and must be rejected
        b = 1.0
        a = np.nextafter(b, 0.0)
        assert (a + b) / 2.0 == b
        X = np.array([[a], [b]])
        y = np.array([0, 1], dtype=np.int64)
        feat, _, _ = gini_split(X, y, np.array([0], dtype=np.int64))
        assert feat == -1


class TestSseSplit:
    def test_matches_direct_scan(self):
        rng = np.random.default_rng(3)
        X = np.round(rng.random((40, 3)), 2)
        r = rng.normal(size=40)
        feats = np.arange(3, dtype=np.int64)
        feat, thr, gain = sse_split(X, r, feats)
        best = (-1, 0.0, 0.0)
        parent = float(((r - r.mean()) ** 2).sum())
        for f in feats:
            vals = np.unique(X[:, f])
            for a, b in zip(vals[:-1], vals[1:]):
                t = (a + b) / 2.0
                if not t < b:
                    continue
                m = X[:, f] <= t
                sl = float(((r[m] - r[m].mean()) ** 2).sum())
                sr = float(((r[~m] - r[~m].mean()) ** 2).sum())
                g = parent - sl - sr
                if g > best[2]:
                    best = (int(f), t, g)
        assert (feat, thr) == best[:2]
        assert gain == pytest.approx(best[2], abs=1e-9)


class TestScanRuns:
    """A scan cut into runs of one feature each must pick exactly what a
    single run over every feature picks, ties across runs included."""

    def test_one_feature_runs_agree(self, monkeypatch):
        cases = []
        for seed in range(25):
            X, y, feats = _random_split_case(seed, quantize=seed % 2 == 0)
            X = np.hstack([X, X])  # every gain tied with a later run's
            feats = np.arange(X.shape[1], dtype=np.int64)
            cases.append((X, y, y - 0.5 * X[:, 0], feats))
        whole = [(gini_split(X, y, f), sse_split(X, r, f)) for X, y, r, f in cases]
        monkeypatch.setattr(K, "_CHUNK_CELLS", 1)
        runs = [(gini_split(X, y, f), sse_split(X, r, f)) for X, y, r, f in cases]
        assert runs == whole


def node_slice(X, idx):
    """A node holding rows ``idx`` (duplicates allowed) as tree growth
    lays it out: the global presort cut down to the distinct drawn rows,
    plus every row's draw count."""
    counts = np.bincount(idx, minlength=X.shape[0])
    P = presorted(X).T
    return P[counts[P] > 0].reshape(X.shape[1], -1).T, counts


def direct_gini_split(X, y, feature_indices):
    """Every candidate midpoint scored straight from masks, with the
    kernel's float formula, so the result must match bit for bit."""
    n = X.shape[0]
    fn = float(n)
    n1 = int(y.sum())
    p0, p1 = (n - n1) / fn, n1 / fn
    g_parent = 1.0 - p0 * p0 - p1 * p1
    best = (-1, 0.0, -1.0)
    for f in feature_indices:
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) * 0.5
            if not thr < b:
                continue
            mask = X[:, f] <= thr
            nl = float(mask.sum())
            n1l = float(y[mask].sum())
            nr = fn - nl
            n1r = float(n1) - n1l
            p0l, p1l = (nl - n1l) / nl, n1l / nl
            p0r, p1r = (nr - n1r) / nr, n1r / nr
            gl = 1.0 - p0l * p0l - p1l * p1l
            gr = 1.0 - p0r * p0r - p1r * p1r
            gain = g_parent - ((nl / fn) * gl + (nr / fn) * gr)
            if gain > best[2]:
                best = (int(f), float(thr), float(gain))
    return best


def direct_sse_gain(X, r, f, thr):
    m = X[:, f] <= thr
    parent = float(((r - r.mean()) ** 2).sum())
    sl = float(((r[m] - r[m].mean()) ** 2).sum())
    sr = float(((r[~m] - r[~m].mean()) ** 2).sum())
    return parent - sl - sr


node_cases = st.tuples(
    st.integers(0, 2**32 - 1),  # data seed
    st.integers(2, 80),  # rows in the fit
    st.integers(1, 6),  # features
    st.integers(1, 8),  # grid levels per feature: few levels, many ties
    st.booleans(),  # bootstrap draw (duplicate rows) or a plain subset
)


def draw_node(case):
    seed, n, d, levels, bootstrap = case
    rng = np.random.default_rng(seed)
    X = np.round(rng.random((n, d)) * levels) / levels
    m = int(rng.integers(1, n + 1))
    if bootstrap:
        idx = rng.integers(0, n, size=m)
    else:
        idx = np.sort(rng.choice(n, size=m, replace=False))
    feats = np.flatnonzero(rng.random(d) < 0.7)
    if feats.size == 0:
        feats = np.array([d - 1])
    return rng, X, idx, feats


class TestPresortedNodes:
    @settings(max_examples=150, deadline=None)
    @given(node_cases)
    def test_gini_matches_oracles_on_node_slices(self, case):
        """Weighted distinct rows score every cut as the drawn rows with
        their repeats do, bit for bit."""
        rng, X, idx, feats = draw_node(case)
        y = rng.integers(0, 2, X.shape[0]).astype(np.int64)
        order, counts = node_slice(X, idx)
        got = K.gini_best_split(
            order, y, feats, columns=np.ascontiguousarray(X.T), counts=counts
        )
        assert got == direct_gini_split(X[idx], y[idx], feats)
        efeat, _, egain = exhaustive_gini_split(X[idx], y[idx], feats)
        assert (got[0] < 0) == (efeat < 0)
        assert got[2] == pytest.approx(egain, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(node_cases)
    def test_sse_finds_an_optimal_split_on_node_slices(self, case):
        rng, X, idx, feats = draw_node(case)
        r = rng.normal(size=X.shape[0])
        # boosting fits every row once, so the scan sees the distinct rows
        order, _ = node_slice(X, idx)
        rows = np.unique(idx)
        rn = r[rows]
        sums = (float(np.cumsum(rn)[-1]), float(np.cumsum(rn * rn)[-1]))
        feat, thr, gain = K.sse_best_split(
            order, r, feats, columns=np.ascontiguousarray(X.T),
            parent_sums=sums,
        )
        Xn = X[rows]
        cands = [
            direct_sse_gain(Xn, rn, f, (a + b) * 0.5)
            for f in feats
            for a, b in zip(np.unique(Xn[:, f])[:-1], np.unique(Xn[:, f])[1:])
        ]
        if not cands:
            assert (feat, gain) == (-1, -1.0)
            return
        assert feat in feats
        assert gain == pytest.approx(max(cands), abs=1e-9)
        assert direct_sse_gain(Xn, rn, feat, thr) == pytest.approx(gain, abs=1e-9)


def reference_tree_apply(feature, threshold, left, right, value, X):
    """One row at a time, straight down the tree."""
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        node = 0
        while feature[node] >= 0:
            node = left[node] if x[feature[node]] <= threshold[node] else right[node]
        out[i] = value[node]
    return out


class TestTreeApply:
    def _stump(self):
        feature = np.array([0, -1, -1], dtype=np.int64)
        threshold = np.array([0.5, 0.0, 0.0])
        left = np.array([1, -1, -1], dtype=np.int64)
        right = np.array([2, -1, -1], dtype=np.int64)
        value = np.array([0.0, 0.25, 0.75])
        return feature, threshold, left, right, value

    def test_routing_and_boundary(self):
        tree = self._stump()
        X = np.array([[0.2], [0.5], [0.7]])
        out = K.tree_apply(*tree, X)
        # x == threshold goes left
        assert out.tolist() == [0.25, 0.25, 0.75]

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(11)
        # random well-formed tree: nodes 0..6, leaves 3..6
        feature = np.array([1, 0, 2, -1, -1, -1, -1], dtype=np.int64)
        threshold = np.array([0.4, 0.6, 0.2, 0.0, 0.0, 0.0, 0.0])
        left = np.array([1, 3, 5, -1, -1, -1, -1], dtype=np.int64)
        right = np.array([2, 4, 6, -1, -1, -1, -1], dtype=np.int64)
        value = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
        X = rng.random((200, 3))
        a = K.tree_apply(feature, threshold, left, right, value, X)
        b = reference_tree_apply(feature, threshold, left, right, value, X)
        assert np.array_equal(a, b)


def random_tree(rng, n_leaves, n_features, grid, bfs):
    """A random tree with n_leaves leaves, thresholds drawn from grid, in
    pre-order or, if bfs, renumbered breadth first."""
    feature, threshold, left, right = [], [], [], []

    def grow(k):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        if k > 1:
            feature[node] = int(rng.integers(n_features))
            threshold[node] = float(rng.choice(grid))
            cut = int(rng.integers(1, k))
            left[node] = grow(cut)
            right[node] = grow(k - cut)
        return node

    grow(n_leaves)
    feature, left, right = (np.array(a, dtype=np.int64) for a in (feature, left, right))
    threshold = np.array(threshold)
    value = rng.random(feature.shape[0])
    if bfs:
        order = [0]
        for node in order:
            if feature[node] >= 0:
                order += [int(left[node]), int(right[node])]
        renumber = np.empty(len(order), dtype=np.int64)
        renumber[order] = np.arange(len(order))
        split = feature[order] >= 0
        left = np.where(split, renumber[left[order]], -1)
        right = np.where(split, renumber[right[order]], -1)
        feature, threshold, value = feature[order], threshold[order], value[order]
    return feature, threshold, left, right, value


def exit_ranks(tree, X):
    """Each row's exit leaf, as its rank among the leaves left to right."""
    feature, threshold, left, right, _ = tree
    rank, stack = {}, [0]
    while stack:
        node = stack.pop()
        if feature[node] < 0:
            rank[node] = len(rank)
        else:
            stack += [right[node], left[node]]
    out = []
    for x in X:
        node = 0
        while feature[node] >= 0:
            node = left[node] if x[feature[node]] <= threshold[node] else right[node]
        out.append(rank[node])
    return out


def _pre_order(tree):
    """Whether each internal node's left child directly follows it."""
    feature, _, left, _, _ = tree
    inner = np.flatnonzero(feature >= 0)
    return bool((left[inner] == inner + 1).all())


# thresholds and row values share a grid, so rows often equal a threshold,
# and the grid holds both zeros
GRID = np.array([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])

ensemble_cases = st.tuples(
    st.integers(0, 2**32 - 1),  # data seed
    st.integers(1, 80),  # trees: 65 or more single-word trees fill two groups
    st.integers(1, 300),  # most leaves per tree: over 64 spans several words
    st.integers(1, 40),  # rows
    st.floats(0.0, 1.0),  # share of trees numbered breadth first
)


def draw_ensemble(case):
    seed, n_trees, max_leaves, n_rows, p_bfs = case
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    ensemble = [
        random_tree(rng, int(rng.integers(1, max_leaves + 1)), d, GRID,
                    rng.random() < p_bfs)
        for _ in range(n_trees)
    ]
    X = np.where(rng.random((n_rows, d)) < 0.5,
                 rng.choice(GRID, (n_rows, d)), rng.uniform(-1.5, 1.5, (n_rows, d)))
    return ensemble, X


class TestEnsembleApply:
    @settings(max_examples=60, deadline=None)
    @given(ensemble_cases)
    @example((1, 80, 300, 40, 0.5))  # four groups of multi-word trees
    @example((2, 70, 64, 40, 0.5))  # single-word trees over two groups
    @example((3, 5, 1, 10, 0.0))  # single-leaf trees only
    def test_matches_one_tree_at_a_time(self, case):
        ensemble, X = draw_ensemble(case)
        want = [reference_tree_apply(*tree, X) for tree in ensemble]
        got = np.concatenate(
            [values for _, values in K.ensemble_apply(ensemble, X)], axis=1
        )
        assert got.shape == (len(ensemble), X.shape[0])
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        assert K.tree_apply(*ensemble[-1], X).tobytes() == want[-1].tobytes()

        models = [trees.TreeModel(*tree, n_features=X.shape[1]) for tree in ensemble]
        forest = trees.ForestModel(models, trees.ForestParams(n_trees=len(models)), 0)
        votes = np.zeros(X.shape[0], dtype=np.int64)
        for w in want:
            votes += w >= 0.5
        assert np.array_equal(trees.predict_classes(forest, X),
                              (2 * votes > len(models)).astype(np.int64))

        params = trees.GbcParams(n_stages=len(models), learning_rate=0.3)
        gbc = trees.GbcModel(-0.7, models, params)
        scores = np.full(X.shape[0], -0.7)
        for w in want:
            scores += 0.3 * w
        assert gbc.decision_scores(X).tobytes() == scores.tobytes()

    def test_cases_cross_words_and_groups(self):
        """The examples above hold more than 64 words, multi-word trees in
        both numberings, and rows that exit past a tree's first word."""
        for case, words in [((1, 80, 300, 40, 0.5), 128), ((2, 70, 64, 40, 0.5), 64)]:
            ensemble, X = draw_ensemble(case)
            assert sum(-(-int((t[0] < 0).sum()) // 64) for t in ensemble) > words
        ensemble, X = draw_ensemble((1, 80, 300, 40, 0.5))
        late = [max(exit_ranks(tree, X)) >= 64 for tree in ensemble]
        bfs = [not _pre_order(tree) for tree in ensemble]
        assert any(a and b for a, b in zip(late, bfs))
        assert any(a and not b for a, b in zip(late, bfs))

    def test_no_trees(self):
        assert list(K.ensemble_apply([], np.zeros((3, 2)))) == []


class TestTankLoopNumpy:
    def _run(self, n_steps=50, noise_std=0.0, pump_flip=None, valve_flip=None):
        n_tanks = 1
        z = np.zeros((n_steps, n_tanks))
        noise = (z.copy() + noise_std, z.copy(), z.copy())
        flips = (
            pump_flip if pump_flip is not None else np.zeros((n_steps, 1), bool),
            valve_flip if valve_flip is not None else np.zeros((n_steps, 1), bool),
        )
        rates = (1.2, 0.8, 40.0, 60.0, 100.0, 1.0)
        return K.tank_loop(np.array([50.0]), rates, noise, flips, n_steps)

    def test_noise_free_sawtooth(self):
        level, inflow, outflow, pump, valve = self._run(n_steps=60)
        # pump starts off (mid-band), level drains 0.8/step until below 40
        expect = []
        lv = 50.0
        for _ in range(60):
            expect.append(lv)
            lv -= 0.8
            if lv < 40.0:
                break
        drain = np.array(expect)
        assert np.array_equal(level[: len(expect), 0], drain)
        assert (pump[: len(expect) - 1, 0] == 0).all()
        # first reading below the low mark turns the pump on
        t_on = len(expect)
        assert level[t_on, 0] < 40.0
        assert pump[t_on, 0] == 2
        assert inflow[t_on, 0] == 1.2
        assert (valve[:, 0] == 2).all()
        assert (outflow[:, 0] == 0.8).all()

    def test_band_invariant(self):
        level, _, _, _, _ = self._run(n_steps=400)
        assert level[:, 0].min() >= 40.0 - 0.8
        assert level[:, 0].max() <= 60.0 + 1.2

    def test_pump_flip_drains_tank(self):
        flip = np.zeros((400, 1), bool)
        flip[100:, 0] = True
        level, _, _, pump, _ = self._run(n_steps=400, pump_flip=flip)
        assert (pump[100:, 0] == 0).all()
        assert level[-1, 0] == 0.0  # clamped at empty

    def test_valve_flip_fills_tank(self):
        flip = np.zeros((400, 1), bool)
        flip[100:, 0] = True
        level, _, outflow, _, valve = self._run(n_steps=400, valve_flip=flip)
        assert (valve[100:, 0] == 0).all()
        assert (outflow[100:, 0] == 0.0).all()
        # inflow stops once the reading passes level_high; level parks there
        assert 60.0 <= level[-1, 0] <= 60.0 + 1.2


def reference_tank_loop(level0, rates, noise, flips, n_steps):
    """Tank farm simulation, one python step at a time."""
    inflow_rate, outflow_rate, level_low, level_high, capacity, dt = rates
    level_noise, inflow_noise, outflow_noise = noise
    pump_flip, valve_flip = flips
    n_tanks = level0.shape[0]
    shape = (n_steps, n_tanks)
    level_meas = np.empty(shape, dtype=np.float64)
    inflow_meas = np.empty(shape, dtype=np.float64)
    outflow_meas = np.empty(shape, dtype=np.float64)
    pump_out = np.empty(shape, dtype=np.int64)
    valve_out = np.empty(shape, dtype=np.int64)
    level = level0.copy()
    pump_cmd = np.zeros(n_tanks, dtype=np.int64)
    for t in range(n_steps):
        for k in range(n_tanks):
            meas = level[k] + level_noise[t, k]
            cmd = pump_cmd[k]
            if meas < level_low:
                cmd = 2
            elif meas > level_high:
                cmd = 0
            pump_cmd[k] = cmd
            if pump_flip[t, k]:
                pump_act = 0 if cmd >= 1 else 2
            else:
                pump_act = cmd
            valve_act = 0 if valve_flip[t, k] else 2
            q_in = inflow_rate if pump_act == 2 else 0.0
            q_out = outflow_rate if valve_act == 2 else 0.0
            level_meas[t, k] = meas
            inflow_meas[t, k] = q_in + inflow_noise[t, k]
            outflow_meas[t, k] = q_out + outflow_noise[t, k]
            pump_out[t, k] = pump_act
            valve_out[t, k] = valve_act
            level[k] += (q_in - q_out) * dt
            if level[k] < 0.0:
                level[k] = 0.0
            elif level[k] > capacity:
                level[k] = capacity
    return level_meas, inflow_meas, outflow_meas, pump_out, valve_out


tank_cases = st.tuples(
    st.integers(0, 2**32 - 1),  # data seed
    st.integers(1, 3),  # tanks
    st.integers(1, 300),  # steps
    st.booleans(),  # noisy readings, else all-zero noise
    st.floats(0.0, 1.0),  # share of steps with the pump flipped
    st.floats(0.0, 1.0),  # share of steps with the valve flipped
)


def draw_tank_case(case):
    """Arguments for tank_loop. Flow rates reach 5-60% of capacity per
    step and start levels span [0, capacity], so runs hit both clamps."""
    seed, n_tanks, n_steps, noisy, p_pump, p_valve = case
    rng = np.random.default_rng(seed)
    capacity = float(rng.uniform(5.0, 100.0))
    level_low = float(rng.uniform(0.05, 0.5)) * capacity
    level_high = float(rng.uniform(level_low, 0.95 * capacity))
    inflow, outflow = (float(v) * capacity for v in rng.uniform(0.05, 0.6, 2))
    dt = float(rng.choice([0.5, 1.0, 1.7]))
    rates = (inflow, outflow, level_low, level_high, capacity, dt)
    shape = (n_steps, n_tanks)
    std = 0.1 * capacity if noisy else 0.0
    noise = tuple(rng.normal(0.0, std, shape) if noisy else np.zeros(shape)
                  for _ in range(3))
    flips = (rng.random(shape) < p_pump, rng.random(shape) < p_valve)
    level0 = rng.uniform(0.0, capacity, n_tanks)
    return level0, rates, noise, flips, n_steps


class TestTankLoopReference:
    @settings(max_examples=200, deadline=None)
    @given(tank_cases)
    def test_matches_step_by_step_loop(self, case):
        args = draw_tank_case(case)
        got = K.tank_loop(*args)
        want = reference_tank_loop(*args)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_cases_reach_both_clamps(self):
        """The drawn cases do drive levels to 0 and to capacity."""
        empty = full = 0
        for seed in range(40):
            # without noise the level reading is the true level
            args = draw_tank_case((seed, 2, 300, False, 0.3, 0.3))
            level = reference_tank_loop(*args)[0]
            capacity = args[1][4]
            empty += bool((level == 0.0).any())
            full += bool((level == capacity).any())
        assert empty > 0 and full > 0

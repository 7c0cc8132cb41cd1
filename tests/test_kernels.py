"""Kernel-level tests: presorted split scans and tree traversal."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icsadv import kernels as K
from icsadv import trees


def presorted(X):
    """Every row of X as one node: (d, n) stable per-feature sort order."""
    return np.argsort(X.T, axis=1, kind="mergesort")


def gini_split(X, y, feats):
    X = np.asarray(X, dtype=np.float64)
    return K.gini_best_split(
        presorted(X), K.pack_counts(np.ones(X.shape[0], dtype=np.int64), y), feats,
        columns=np.ascontiguousarray(X.T), parent_sums=(X.shape[0], int(y.sum())),
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
    P = presorted(X)
    return P[counts[P] > 0].reshape(X.shape[1], -1), counts


def direct_gini_split(X, y, feature_indices, weights=None):
    """Every candidate midpoint scored straight from masks, with the
    kernel's float formula, so the result must match bit for bit; with
    integer ``weights`` per row, every count is a sum of weights."""
    w = np.ones(X.shape[0], dtype=np.int64) if weights is None else weights
    n = int(w.sum())
    fn = float(n)
    n1 = int(w[y == 1].sum())
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
            nl = float(w[mask].sum())
            n1l = float(w[mask & (y == 1)].sum())
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
            order, K.pack_counts(counts, y), feats, columns=np.ascontiguousarray(X.T),
            parent_sums=(len(idx), int(y[idx].sum())),
        )
        assert got == direct_gini_split(X[idx], y[idx], feats)
        efeat, _, egain = exhaustive_gini_split(X[idx], y[idx], feats)
        assert (got[0] < 0) == (efeat < 0)
        assert got[2] == pytest.approx(egain, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 15),
           d=st.integers(1, 4), levels=st.integers(1, 8))
    def test_gini_packs_heavy_weights_exactly(self, seed, n, d, levels):
        """Row weights up to 2^28 over at most 15 rows: a node weighs up to
        just under 2^32, so the packed left sums fill the low 32 bits and
        class-1 sums past 2^31 the high ones, and every cut must still
        score bit for bit as its weight sums do."""
        rng = np.random.default_rng(seed)
        X = np.round(rng.random((n, d)) * levels) / levels
        y = rng.integers(0, 2, n).astype(np.int64)
        counts = rng.integers(2**27, 2**28 + 1, n)
        assert counts.sum() < 2**32
        feats = np.arange(d, dtype=np.int64)
        got = K.gini_best_split(
            presorted(X), K.pack_counts(counts, y), feats,
            columns=np.ascontiguousarray(X.T),
            parent_sums=(int(counts.sum()), int(counts[y == 1].sum())),
        )
        assert got == direct_gini_split(X, y, feats, counts)

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
    """TreeModel.apply: one tree scored as an ensemble of one."""

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
        out = trees.TreeModel(*tree, n_features=1).apply(X)
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
        a = trees.TreeModel(feature, threshold, left, right, value, 3).apply(X)
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
        models = [trees.TreeModel(*tree, n_features=X.shape[1]) for tree in ensemble]
        assert models[-1].apply(X).tobytes() == want[-1].tobytes()
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

    def test_more_words_than_a_chunk_holds(self, monkeypatch):
        """An ensemble of more words than ``_CHUNK_WORDS`` scores one row a
        chunk instead of a chunk of zero rows."""
        monkeypatch.setattr(K, "_CHUNK_WORDS", 64)
        rng = np.random.default_rng(5)
        ensemble = [random_tree(rng, 2, 2, GRID, False) for _ in range(65)]
        X = rng.choice(GRID, (3, 2))
        chunks = list(K.ensemble_apply(ensemble, X))
        assert [rows for rows, _ in chunks] == [slice(0, 1), slice(1, 2), slice(2, 3)]
        got = np.concatenate([values for _, values in chunks], axis=1)
        want = [reference_tree_apply(*tree, X) for tree in ensemble]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

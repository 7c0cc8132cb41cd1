"""Hot numeric kernels of the tree detectors: the two split scans and
ensemble traversal (QuickScorer; one tree is an ensemble of one), one numpy
implementation each.

The split scans work on a node's rows presorted per feature (SLIQ, Mehta et
al. 1996): the tree builder sorts every feature once per fit and keeps each
node's rows as one contiguous slice of that presort, so no scan sorts.
Their three positional arguments are

* ``order``: (d, m) int array, the builder's buffer slice as it is stored;
  row j lists the node's m distinct rows (indices into ``X`` and the
  target) in ascending order of ``X[:, j]``. This is the layout of
  ``np.argsort(X.T, axis=1, kind="mergesort")`` for a node holding every
  row;
* the target indexed by row: 0/1 labels for Gini, float residuals for SSE;
* ``feature_indices``: candidate columns in ascending order;

and the keywords are ``columns``, ``X.T`` as a C-contiguous (d, n) array,
so each feature's values are one contiguous row to gather from, and
``parent_sums``, the node's totals the builder has already summed: its
(weight, class-1 weight) for Gini, its (sum of r, sum of r * r) for SSE.
The Gini scan also takes ``counts``, an integer weight per row: a bootstrap
tree keeps each drawn row once and weighs it by its draw count (Breiman
2001; Louppe 2014, ch. 5), every other tree weighs each row 1.

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
# most cells (rows x 64-bit words, at least 64 a row) one prediction chunk
# holds, so each of its bit, exit and value arrays stays within 512 kB; an
# ensemble of more words still scores one row a chunk
_CHUNK_WORDS = 1 << 16


def _scan(order, feature_indices, columns):
    """Gather the node's rows and sorted values for every candidate feature
    and locate the valid cuts.

    Returns (rows, valid, thr): the (k, m) rows in sorted order; the
    (k, m - 1) mask of valid cuts (a cut at [c, i] falls between sorted
    positions i and i + 1 of candidate c); and the thresholds of the valid
    cuts in scan order (candidate by candidate, thresholds ascending).
    """
    rows = order[feature_indices]
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


def gini_best_split(order, y, feature_indices, *, columns, counts, parent_sums):
    """Best (feature, threshold, gain) under Gini impurity for one node.

    y: int64 labels in {0, 1} indexed by row; counts: int64 row weights
    indexed by row; parent_sums: the node's (weight, class-1 weight) as
    ints. Returns feature -1 (gain -1.0) when no candidate split exists.
    gain is parent impurity minus the weighted child impurity.
    """
    n, n1 = parent_sums
    n0 = n - n1
    fn = float(n)
    p0 = n0 / fn
    p1 = n1 / fn
    g_parent = 1.0 - p0 * p0 - p1 * p1

    best = (-1, 0.0, -1.0)
    for feats in _chunks(feature_indices, order.shape[1]):
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
    n = order.shape[1]
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


def _leaf_bits(trees):
    """Flatten the trees and give each one's leaves bits left to right.

    Tree t owns the 64-bit words [words[t], words[t + 1]): its leaves take
    bits 64 * words[t], 64 * words[t] + 1, ... in left-to-right order, and
    the bits after its last leaf are padding. Only nodes reachable from a
    tree's root count, so any numbering in which the reachable nodes form a
    tree works: pre-order, breadth-first or other.

    Returns (feature, threshold, lo, hi, bit_value, words) over the
    flattened nodes. At a reachable internal node i, [lo[i], hi[i]) are the
    bits of its left subtree's leaves, which a row that goes right at i
    rules out; hi is 0 at every other node. bit_value[b] is the value of
    the leaf with bit b, 0.0 at padding bits.
    """
    sizes = [len(t[0]) for t in trees]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    feature, threshold, left, right, value = (
        np.concatenate([t[k] for t in trees]) for k in range(5)
    )
    split = feature >= 0
    shift = np.repeat(roots, sizes)
    left = np.where(split, left + shift, -1)
    right = np.where(split, right + shift, -1)
    # every tree's reachable internal nodes and leaves, depth by depth
    levels = []
    level = roots
    while level.size:
        inner = level[split[level]]
        levels.append((inner, level[~split[level]]))
        level = np.concatenate((left[inner], right[inner]))
    n_leaves = np.ones(feature.shape[0], dtype=np.int64)
    for inner, _ in reversed(levels):
        n_leaves[inner] = n_leaves[left[inner]] + n_leaves[right[inner]]
    words = np.concatenate(([0], np.cumsum(-(-n_leaves[roots] // 64))))
    lo = np.zeros(feature.shape[0], dtype=np.int64)
    lo[roots] = 64 * words[:-1]
    hi = np.zeros_like(lo)
    bit_value = np.zeros(64 * int(words[-1]))
    for inner, leaves in levels:
        hi[inner] = lo[inner] + n_leaves[left[inner]]
        lo[left[inner]] = lo[inner]
        lo[right[inner]] = hi[inner]
        bit_value[lo[leaves]] = value[leaves]
    return feature, threshold, lo, hi, bit_value, words


# _LOW_BITS[k] has its k lowest bits set, k = 0..64
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)


def _group_tables(feature, threshold, lo, hi, w0, w1):
    """QuickScorer tables of the words [w0, w1): one (f, thresholds, masks)
    per feature f tested by a node whose ruled-out bits reach these words.

    thresholds holds those nodes' thresholds ascending; masks[k] is the AND
    of the first k nodes' masks over the words (masks[0] is all ones), and
    a node's mask clears the bits a row going right at it rules out.
    """
    nodes = np.flatnonzero((hi > 64 * w0) & (lo < 64 * w1))
    nodes = nodes[np.lexsort((threshold[nodes], feature[nodes]))]
    starts = 64 * np.arange(w0, w1)
    tables = []
    for run in np.split(nodes, np.flatnonzero(np.diff(feature[nodes])) + 1):
        if not run.size:
            continue
        masks = np.empty((run.size + 1, w1 - w0), dtype=np.uint64)
        masks[0] = _LOW_BITS[64]
        cleared = ~_LOW_BITS[np.clip(hi[run, None] - starts, 0, 64)]
        cleared |= _LOW_BITS[np.clip(lo[run, None] - starts, 0, 64)]
        np.bitwise_and.accumulate(cleared, axis=0, out=masks[1:])
        tables.append((int(feature[run[0]]), threshold[run], masks))
    return tables


def ensemble_apply(trees, X):
    """Leaf values of every tree of an ensemble on the rows of X, in row
    chunks: QuickScorer (Lucchese et al., SIGIR 2015).

    trees: a sequence of (feature, threshold, left, right, value) arrays,
    one tree each: feature[i] == -1 marks node i as a leaf carrying
    value[i], internal nodes send rows with X[:, feature] <= threshold to
    ``left``, and the nodes reachable from node 0 form a tree. Yields (rows,
    values) per chunk: a slice of X's rows and the (n_trees, chunk) leaf
    values of the trees in order.

    Each tree's leaves are bits in its own 64-bit words (see _leaf_bits) and
    the words are cut into groups of 64. A row starts with every bit set;
    at each internal node it goes right at, it clears the bits of the
    leaves in that node's left subtree. The leftmost leaf left standing, the
    lowest set bit of the tree's first non-zero word, is the row's exit
    leaf (Lucchese et al., Theorem 3.1). The nodes a row goes right at on
    feature f are those with threshold < x[f], a prefix of the thresholds
    sorted ascending, so one search and one lookup of a prefix-AND mask
    clear every bit that feature rules out in a whole group.
    """
    if not trees:
        return
    feature, threshold, lo, hi, bit_value, words = _leaf_bits(trees)
    n_words = int(words[-1])
    groups = []
    for w0 in range(0, n_words, 64):
        w1 = min(w0 + 64, n_words)
        groups.append((w0, w1, _group_tables(feature, threshold, lo, hi, w0, w1)))
    # a multi-word tree's exit is its least leaf bit over its words
    several = n_words > len(trees)
    chunk = max(_CHUNK_WORDS // max(n_words, 64), 1)
    for start in range(0, X.shape[0], chunk):
        rows = slice(start, min(start + chunk, X.shape[0]))
        columns = X[rows].T.copy()
        exit_bit = np.empty((columns.shape[1], n_words), dtype=np.int64)
        for w0, w1, tables in groups:
            bits = np.full((columns.shape[1], w1 - w0), _LOW_BITS[64])
            for f, thr, masks in tables:
                bits &= masks.take(np.searchsorted(thr, columns[f]), axis=0)
            # keep each word's lowest set bit; as a float, its exponent
            # field is 1023 + the bit's index
            bits &= np.negative(bits)
            bit = bits.astype(np.float64).view(np.int64)
            bit >>= 52
            bit += 64 * np.arange(w0, w1) - 1023
            if several:
                # a word with no bit left holds no exit
                bit[bits == 0] = 64 * n_words
            exit_bit[:, w0:w1] = bit
        if several:
            exit_bit = np.minimum.reduceat(exit_bit, words[:-1], axis=1)
        yield rows, bit_value.take(exit_bit.T)

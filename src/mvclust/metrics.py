"""Clustering evaluation: ACC via optimal label matching, NMI, ARI, purity.

All four scores are invariant under relabeling of either argument. ACC uses
a minimum-cost assignment on the negated contingency table, padded with
zero-count rows/columns when the two sides use different numbers of
clusters.
"""

from __future__ import annotations

import numpy as np


def _as_labels(x, what) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be a 1-D label sequence")
    return arr


def _check_pair(pred, true):
    p = _as_labels(pred, "pred")
    t = _as_labels(true, "true")
    if p.shape[0] != t.shape[0]:
        raise ValueError(f"label sequences differ in length: {p.shape[0]} vs {t.shape[0]}")
    if p.shape[0] == 0:
        raise ValueError("label sequences must be non-empty")
    return p, t


def contingency(pred, true) -> np.ndarray:
    """Count matrix C[i, j] = |pred cluster i  ∩  true class j|.

    Label alphabets are compressed, so any hashable-as-int labels work.
    """
    p, t = _check_pair(pred, true)
    _, pi = np.unique(p, return_inverse=True)
    _, ti = np.unique(t, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def hungarian(cost) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect matching on a square cost matrix.

    Potential-based shortest augmenting path, O(n^3). Returns
    (assignment, total) where assignment[i] is the column matched to row i;
    the total cost is the unique optimum even when the matching is not.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix must be finite")
    n = c.shape[0]
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)  # p[j] = row matched to column j (1-based)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, INF)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = c[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    assignment = np.zeros(n, dtype=np.int64)
    for j in range(1, n + 1):
        assignment[p[j] - 1] = j - 1
    total = float(c[np.arange(n), assignment].sum())
    return assignment, total


def accuracy(pred, true) -> float:
    """Fraction correct under the best one-to-one cluster-to-class mapping."""
    table = contingency(pred, true)
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.float64)
    padded[: table.shape[0], : table.shape[1]] = table
    _, total = hungarian(-padded)
    return -total / table.sum()


def nmi(pred, true) -> float:
    """Mutual information normalized by the arithmetic mean of the entropies.

    Both entropies zero means two single-cluster partitions, which always
    match: 1.0. Exactly one zero entropy carries no mutual information: 0.0.
    """
    table = contingency(pred, true).astype(np.float64)
    n = table.sum()
    pxy = table / n
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    hx = -np.sum(px[px > 0] * np.log(px[px > 0]))
    hy = -np.sum(py[py > 0] * np.log(py[py > 0]))
    if hx == 0.0 and hy == 0.0:
        return 1.0
    if hx == 0.0 or hy == 0.0:
        return 0.0
    mask = pxy > 0
    outer = np.outer(px, py)
    info = np.sum(pxy[mask] * (np.log(pxy[mask]) - np.log(outer[mask])))
    # the ratio is in [0, 1] mathematically; float noise must not leak out
    return float(min(1.0, max(0.0, info / (0.5 * (hx + hy)))))


def ari(pred, true) -> float:
    """Adjusted Rand index from pair counts via the contingency table."""
    p, _ = _check_pair(pred, true)
    if p.shape[0] < 2:
        raise ValueError("ari needs at least two samples")
    table = contingency(pred, true).astype(np.float64)
    n = table.sum()

    def comb2(x):
        return (x * (x - 1.0)) / 2.0

    pairs = comb2(table).sum()
    row_pairs = comb2(table.sum(axis=1)).sum()
    col_pairs = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = row_pairs * col_pairs / total
    maximum = 0.5 * (row_pairs + col_pairs)
    if maximum == expected:
        # both partitions trivial in the same way (all-singleton or all-one),
        # hence identical
        return 1.0
    return float((pairs - expected) / (maximum - expected))


def purity(pred, true) -> float:
    """Mean over predicted clusters of the majority true-class fraction."""
    table = contingency(pred, true)
    return float(table.max(axis=1).sum() / table.sum())


SCORE_NAMES = ("acc", "nmi", "ari", "purity")


def scores(pred, true) -> dict:
    """All four scores, keyed by ``SCORE_NAMES`` in that order."""
    return dict(zip(SCORE_NAMES, (accuracy(pred, true), nmi(pred, true), ari(pred, true), purity(pred, true))))

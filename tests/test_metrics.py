"""Metric correctness against enumeration oracles and hand-worked instances."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvclust import accuracy, ari, contingency, hungarian, nmi, purity

from helpers import brute_force_accuracy


# -- hungarian ---------------------------------------------------------------


def test_hungarian_identity_cost():
    cost = np.ones((4, 4)) - np.eye(4)
    assignment, total = hungarian(cost)
    assert np.array_equal(assignment, [0, 1, 2, 3])
    assert total == 0.0


def test_hungarian_swap():
    assignment, total = hungarian(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(assignment, [1, 0])
    assert total == 0.0


def test_hungarian_matches_brute_force_minimum():
    rng = np.random.default_rng(42)
    for _ in range(40):
        cost = rng.integers(0, 20, size=(5, 5)).astype(float)
        _, total = hungarian(cost)
        best = min(
            sum(cost[i, perm[i]] for i in range(5))
            for perm in itertools.permutations(range(5))
        )
        assert total == pytest.approx(best, abs=1e-9)


def test_hungarian_assignment_is_a_permutation():
    rng = np.random.default_rng(9)
    cost = rng.standard_normal((6, 6))
    assignment, total = hungarian(cost)
    assert sorted(assignment) == list(range(6))
    assert total == pytest.approx(cost[np.arange(6), assignment].sum())


def test_hungarian_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError):
        hungarian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hungarian(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# -- accuracy -----------------------------------------------------------------


def test_accuracy_perfect_and_relabeled():
    true = [0, 1, 2, 0, 1, 2]
    assert accuracy(true, true) == 1.0
    relabeled = [2, 0, 1, 2, 0, 1]
    assert accuracy(relabeled, true) == 1.0


def test_accuracy_hand_instance():
    # best of the six injective mappings scores 4/5
    pred = [0, 0, 1, 1, 2]
    true = [1, 1, 0, 2, 2]
    assert accuracy(pred, true) == pytest.approx(0.8)
    assert accuracy(pred, true) == pytest.approx(brute_force_accuracy(pred, true))


def test_accuracy_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        kp = int(rng.integers(1, 7))
        kt = int(rng.integers(1, 7))
        pred = rng.integers(0, kp, size=n)
        true = rng.integers(0, kt, size=n)
        assert accuracy(pred, true) == pytest.approx(brute_force_accuracy(pred, true), abs=1e-12)


def test_accuracy_rectangular_label_sets():
    pred = [0, 0, 0, 0]
    true = [0, 1, 2, 3]
    assert accuracy(pred, true) == pytest.approx(0.25)
    assert accuracy(true, pred) == pytest.approx(0.25)


def test_length_mismatch_raises():
    for fn in (accuracy, nmi, ari, purity):
        with pytest.raises(ValueError):
            fn([0, 1], [0, 1, 2])


@pytest.mark.parametrize("labels", [[[0, 1], [1, 0]], 3], ids=["2-d", "0-d"])
def test_labels_must_be_one_dimensional(labels):
    for fn in (accuracy, nmi, ari, purity):
        with pytest.raises(ValueError, match="^pred must be a 1-D label sequence$"):
            fn(labels, [0, 1])
        with pytest.raises(ValueError, match="^true must be a 1-D label sequence$"):
            fn([0, 1], labels)


def test_empty_labels_raise():
    for fn in (accuracy, nmi, purity):
        with pytest.raises(ValueError):
            fn([], [])


# -- nmi -----------------------------------------------------------------------


def test_nmi_identical_partitions():
    assert nmi([0, 0, 1, 1, 2], [5, 5, 9, 9, 7]) == pytest.approx(1.0)


def test_nmi_independent_partitions_is_zero():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_hand_instance():
    # contingency [[2,0,0],[0,1,1]]: I = ln 2, H(pred) = ln 2,
    # H(true) = 1.5 ln 2 -> nmi = ln2 / (1.25 ln2) = 0.8
    assert nmi([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(0.8)


def test_nmi_zero_entropy_edge_cases():
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [0, 0, 0]) == 0.0


def test_nmi_symmetric():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 4, 30)
    b = rng.integers(0, 3, 30)
    assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


# -- ari -----------------------------------------------------------------------


def test_ari_identical_nontrivial():
    assert ari([0, 0, 1, 1, 2], [3, 3, 0, 0, 9]) == pytest.approx(1.0)


def test_ari_single_cluster_vs_balanced_split_is_zero():
    # row pairs = C(6,2) = 15, col pairs = 2*C(3,2) = 6, joint pairs = 6;
    # expected = 15*6/15 = 6 -> numerator 0
    assert ari([0] * 6, [0, 0, 0, 1, 1, 1]) == pytest.approx(0.0, abs=1e-12)


def test_ari_hand_instance():
    # contingency [[1,1],[1,1]]: joint pairs 0, row = col = 2, total = 6,
    # expected = 2/3, max = 2 -> (0 - 2/3)/(2 - 2/3) = -0.5
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_ari_symmetric():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 3, 40)
    b = rng.integers(0, 5, 40)
    assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)


def test_ari_degenerate_identical_cases():
    assert ari([0, 0, 0], [1, 1, 1]) == 1.0  # both single-cluster
    assert ari([0, 1, 2], [2, 0, 1]) == 1.0  # both all-singletons


def test_ari_needs_two_samples():
    with pytest.raises(ValueError):
        ari([0], [0])


# -- purity ----------------------------------------------------------------------


def test_purity_identical():
    assert purity([0, 1, 1, 2], [4, 7, 7, 5]) == 1.0


def test_purity_single_cluster_balanced():
    assert purity([0] * 9, [0, 0, 0, 1, 1, 1, 2, 2, 2]) == pytest.approx(1.0 / 3.0)


def test_purity_hand_instance():
    # cluster {0,1}: majority count 1; cluster {1,1,2}: majority count 2
    assert purity([0, 0, 1, 1, 1], [0, 1, 1, 1, 2]) == pytest.approx(0.6)


def test_contingency_counts():
    table = contingency([0, 0, 1, 1, 1], [0, 1, 1, 1, 2])
    assert np.array_equal(table, [[1, 1, 0], [0, 2, 1]])
    assert table.sum() == 5


# -- shared invariants -------------------------------------------------------------

label_lists = st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=40)


@settings(max_examples=60, deadline=None)
@given(label_lists, label_lists, st.randoms(use_true_random=False))
def test_relabeling_invariance(pred, true, rnd):
    n = min(len(pred), len(true))
    pred, true = pred[:n], true[:n]
    perm = list(range(5))
    rnd.shuffle(perm)
    pred_renamed = [perm[p] for p in pred]
    true_renamed = [perm[t] for t in true]
    for fn in (accuracy, nmi, purity):
        assert fn(pred, true) == pytest.approx(fn(pred_renamed, true), abs=1e-12)
        assert fn(pred, true) == pytest.approx(fn(pred, true_renamed), abs=1e-12)
    assert ari(pred, true) == pytest.approx(ari(pred_renamed, true_renamed), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(label_lists)
def test_scores_bounded(labels):
    n = len(labels)
    other = [(v + 1) % 3 for v in labels]
    assert 0.0 <= accuracy(labels, other) <= 1.0
    assert -1e-12 <= nmi(labels, other) <= 1.0 + 1e-12
    assert -1.0 - 1e-12 <= ari(labels, other) <= 1.0 + 1e-12
    assert 0.0 < purity(labels, other) <= 1.0

"""Tests for the inverse and the condition number of the collocation system."""

import numpy as np
import pytest

from lagdde.collocation import SINGULAR_CONDITION, SingularSystemError, _invert


def _solve(W, G):
    inverse, _ = _invert(W)
    return inverse @ G


def test_gauss_identity_system():
    got = _solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(got, [1.0, 2.0, 3.0])


def test_gauss_forces_row_pivot():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = _solve(W, np.array([3.0, 4.0]))
    np.testing.assert_array_equal(got, [4.0, 3.0])


def test_round_trip_random_well_conditioned():
    rng = np.random.default_rng(31)
    for _ in range(100):
        W = rng.uniform(-1.0, 1.0, (10, 10)) + 10.0 * np.eye(10)
        G = rng.uniform(-1.0, 1.0, 10)
        A = _solve(W, G)
        assert np.abs(W @ A - G).max() < 1e-10


def test_permutation_invariance():
    rng = np.random.default_rng(37)
    W = rng.uniform(-1.0, 1.0, (8, 8)) + 8.0 * np.eye(8)
    G = rng.uniform(-1.0, 1.0, 8)
    base = _solve(W, G)
    perm = rng.permutation(8)
    permuted = _solve(W[perm], G[perm])
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_block_diagonal_preserves_solutions():
    rng = np.random.default_rng(41)
    a = rng.uniform(-1.0, 1.0, (3, 3)) + 3.0 * np.eye(3)
    b = rng.uniform(-1.0, 1.0, (4, 4)) + 4.0 * np.eye(4)
    ga = rng.uniform(-1.0, 1.0, 3)
    gb = rng.uniform(-1.0, 1.0, 4)
    W = np.block([[a, np.zeros((3, 4))], [np.zeros((4, 3)), b]])
    joint = _solve(W, np.concatenate([ga, gb]))
    np.testing.assert_allclose(joint[:3], _solve(a, ga), atol=1e-12)
    np.testing.assert_allclose(joint[3:], _solve(b, gb), atol=1e-12)


def test_condition_identity():
    assert _invert(np.eye(4))[1] == pytest.approx(1.0)


def test_condition_diagonal():
    assert _invert(np.diag([1.0, 1e-6]))[1] == pytest.approx(1e6)


def test_condition_hilbert_segment():
    # W = [[1, 1/2], [1/2, 1/3]]: ||W||_inf = 3/2, W^{-1} = [[4, -6], [-6, 12]]
    # (det = 1/12), ||W^{-1}||_inf = 18, so the infinity-norm condition is 27
    W = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    assert _invert(W)[1] == pytest.approx(27.0, rel=1e-10)


def test_condition_propagates_singularity():
    with pytest.raises(SingularSystemError, match="singular system") as info:
        _invert(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert info.value.condition > SINGULAR_CONDITION


def test_condition_bound_on_both_sides():
    # the bound is cond * eps = 1e-2, about 4.5e13, whatever the scale of W
    for scale in (1e-6, 1.0, 1e6):
        assert _invert(scale * np.diag([1.0, 1e-13]))[1] == pytest.approx(1e13)
        with pytest.raises(SingularSystemError) as info:
            _invert(scale * np.diag([1.0, 1e-14]))
        assert info.value.condition == pytest.approx(1e14)
    with pytest.raises(SingularSystemError):
        _invert(np.array([[1.0, np.nan], [0.0, 1.0]]))

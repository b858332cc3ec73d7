"""Tests for the dense elimination kernel and the condition diagnostic."""

import numpy as np
import pytest

from lagdde.linalg import (
    SINGULAR_PIVOT_FACTOR,
    SingularSystemError,
    condition_estimate,
    lu_factor,
    lu_solve,
)


def test_gauss_identity_system():
    got = lu_solve(lu_factor(np.eye(3)), np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(got, [1.0, 2.0, 3.0])


def test_gauss_forces_row_pivot():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = lu_solve(lu_factor(W), np.array([3.0, 4.0]))
    np.testing.assert_array_equal(got, [4.0, 3.0])


def test_gauss_singular_system_reports_column():
    W = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularSystemError) as info:
        lu_solve(lu_factor(W), np.array([1.0, 2.0]))
    assert info.value.column == 1
    assert info.value.pivot <= 1e-13


def test_round_trip_random_well_conditioned():
    rng = np.random.default_rng(31)
    for _ in range(100):
        W = rng.uniform(-1.0, 1.0, (10, 10)) + 10.0 * np.eye(10)
        G = rng.uniform(-1.0, 1.0, 10)
        A = lu_solve(lu_factor(W), G)
        assert np.abs(W @ A - G).max() < 1e-10


def test_permutation_invariance():
    rng = np.random.default_rng(37)
    W = rng.uniform(-1.0, 1.0, (8, 8)) + 8.0 * np.eye(8)
    G = rng.uniform(-1.0, 1.0, 8)
    base = lu_solve(lu_factor(W), G)
    perm = rng.permutation(8)
    permuted = lu_solve(lu_factor(W[perm]), G[perm])
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_block_diagonal_preserves_solutions():
    rng = np.random.default_rng(41)
    a = rng.uniform(-1.0, 1.0, (3, 3)) + 3.0 * np.eye(3)
    b = rng.uniform(-1.0, 1.0, (4, 4)) + 4.0 * np.eye(4)
    ga = rng.uniform(-1.0, 1.0, 3)
    gb = rng.uniform(-1.0, 1.0, 4)
    W = np.block([[a, np.zeros((3, 4))], [np.zeros((4, 3)), b]])
    joint = lu_solve(lu_factor(W), np.concatenate([ga, gb]))
    np.testing.assert_allclose(joint[:3], lu_solve(lu_factor(a), ga), atol=1e-12)
    np.testing.assert_allclose(joint[3:], lu_solve(lu_factor(b), gb), atol=1e-12)


def test_condition_identity():
    assert condition_estimate(np.eye(4)) == pytest.approx(1.0)


def test_condition_diagonal():
    assert condition_estimate(np.diag([1.0, 1e-6])) == pytest.approx(1e6)


def test_condition_hilbert_segment():
    # W = [[1, 1/2], [1/2, 1/3]]: ||W||_inf = 3/2, W^{-1} = [[4, -6], [-6, 12]]
    # (det = 1/12), ||W^{-1}||_inf = 18, so the infinity-norm condition is 27
    W = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    assert condition_estimate(W) == pytest.approx(27.0, rel=1e-10)


def test_condition_propagates_singularity():
    with pytest.raises(SingularSystemError):
        condition_estimate(np.array([[1.0, 1.0], [1.0, 1.0]]))


# ---------------------------------------------------------------------------
# LU factors: lu_solve(lu_factor(W), G) repeats the one-shot elimination


def _gauss_solve_reference(W, G):
    """The one-shot elimination the solver ran before it was split into
    lu_factor and lu_solve, frozen as the bit-for-bit reference."""
    W = np.array(W, dtype=float)
    G = np.array(G, dtype=float)
    n = W.shape[0]
    threshold = SINGULAR_PIVOT_FACTOR * np.abs(W).max()
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(W[col:, col])))
        pivot = abs(W[pivot_row, col])
        if pivot <= threshold:
            raise SingularSystemError(col, pivot)
        if pivot_row != col:
            W[[col, pivot_row]] = W[[pivot_row, col]]
            G[[col, pivot_row]] = G[[pivot_row, col]]
        factors = W[col + 1:, col] / W[col, col]
        W[col + 1:, col:] -= np.outer(factors, W[col, col:])
        G[col + 1:] -= factors * G[col]
    A = np.zeros(n)
    for row in range(n - 1, -1, -1):
        A[row] = (G[row] - W[row, row + 1:] @ A[row + 1:]) / W[row, row]
    return A


def test_lu_solve_bit_identical_to_reference_elimination():
    rng = np.random.default_rng(43)
    for n in range(2, 64):
        # a small first row and row scales spread over six decades force swaps
        W = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        W[0] *= 1e-3
        G = rng.uniform(-1.0, 1.0, n)
        expected = _gauss_solve_reference(W, G)
        factors = lu_factor(W)
        assert not np.array_equal(factors.perm, np.arange(n))
        assert np.array_equal(lu_solve(factors, G), expected)


def test_lu_factor_singular_matches_reference_column_and_pivot():
    rng = np.random.default_rng(47)
    for n in (3, 7, 20, 63):
        W = rng.uniform(-1.0, 1.0, (n, n))
        zero_column = W.copy()
        zero_column[:, n // 2] = 0.0
        dependent_row = W.copy()
        dependent_row[-1] = 0.5 * W[0] - 2.0 * W[1]
        for singular in (zero_column, dependent_row):
            with pytest.raises(SingularSystemError) as expected:
                _gauss_solve_reference(singular, np.ones(n))
            with pytest.raises(SingularSystemError) as got:
                lu_factor(singular)
            assert got.value.column == expected.value.column
            assert got.value.pivot == expected.value.pivot


def test_lu_solve_many_right_hand_sides_match_single_solves():
    rng = np.random.default_rng(53)
    W = rng.uniform(-1.0, 1.0, (12, 12))
    G = rng.uniform(-1.0, 1.0, (12, 5))
    factors = lu_factor(W)
    together = lu_solve(factors, G)
    for k in range(5):
        np.testing.assert_allclose(together[:, k], lu_solve(factors, G[:, k]),
                                   rtol=1e-12, atol=1e-14)


def test_lu_factor_leaves_input_untouched_and_validates():
    W = np.array([[0.0, 1.0], [2.0, 3.0]])
    copy = W.copy()
    lu_factor(W)
    np.testing.assert_array_equal(W, copy)
    with pytest.raises(ValueError):
        lu_factor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        lu_solve(lu_factor(W), np.ones(3))

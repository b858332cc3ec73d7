"""Tests for the dense elimination kernel and block assembly."""

import numpy as np
import pytest

from lagdde.linalg import (
    SINGULAR_PIVOT_FACTOR,
    AugmentedSystem,
    SingularSystemError,
    block_diagonal,
    condition_estimate,
    gauss_solve,
    lu_factor,
    lu_solve,
)


def test_block_diagonal_single_block():
    np.testing.assert_array_equal(block_diagonal([np.array([[2.0]])]), [[2.0]])


def test_block_diagonal_identity_blocks():
    np.testing.assert_array_equal(
        block_diagonal([np.eye(2), np.eye(2)]), np.eye(4))


def test_block_diagonal_off_blocks_exactly_zero():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    out = block_diagonal([a, b])
    np.testing.assert_array_equal(out[:2, :2], a)
    np.testing.assert_array_equal(out[2:, 2:], b)
    assert np.all(out[:2, 2:] == 0.0)
    assert np.all(out[2:, :2] == 0.0)


def test_block_diagonal_rejects_bad_input():
    with pytest.raises(ValueError):
        block_diagonal([])
    with pytest.raises(ValueError):
        block_diagonal([np.ones((2, 3))])


def test_gauss_identity_system():
    got = gauss_solve(AugmentedSystem(np.eye(3), np.array([1.0, 2.0, 3.0])))
    np.testing.assert_array_equal(got, [1.0, 2.0, 3.0])


def test_gauss_forces_row_pivot():
    system = AugmentedSystem(np.array([[0.0, 1.0], [1.0, 0.0]]),
                             np.array([3.0, 4.0]))
    np.testing.assert_array_equal(gauss_solve(system), [4.0, 3.0])


def test_gauss_singular_system_reports_column():
    system = AugmentedSystem(np.array([[1.0, 1.0], [1.0, 1.0]]),
                             np.array([1.0, 2.0]))
    with pytest.raises(SingularSystemError) as info:
        gauss_solve(system)
    assert info.value.column == 1
    assert info.value.pivot <= 1e-13


def test_augmented_system_validation():
    with pytest.raises(ValueError):
        AugmentedSystem(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        AugmentedSystem(np.eye(2), np.ones(3))


def test_round_trip_random_well_conditioned():
    rng = np.random.default_rng(31)
    for _ in range(100):
        W = rng.uniform(-1.0, 1.0, (10, 10)) + 10.0 * np.eye(10)
        G = rng.uniform(-1.0, 1.0, 10)
        A = gauss_solve(AugmentedSystem(W, G))
        assert np.abs(W @ A - G).max() < 1e-10


def test_permutation_invariance():
    rng = np.random.default_rng(37)
    W = rng.uniform(-1.0, 1.0, (8, 8)) + 8.0 * np.eye(8)
    G = rng.uniform(-1.0, 1.0, 8)
    base = gauss_solve(AugmentedSystem(W, G))
    perm = rng.permutation(8)
    permuted = gauss_solve(AugmentedSystem(W[perm], G[perm]))
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_block_diagonal_preserves_solutions():
    rng = np.random.default_rng(41)
    a = rng.uniform(-1.0, 1.0, (3, 3)) + 3.0 * np.eye(3)
    b = rng.uniform(-1.0, 1.0, (4, 4)) + 4.0 * np.eye(4)
    ga = rng.uniform(-1.0, 1.0, 3)
    gb = rng.uniform(-1.0, 1.0, 4)
    joint = gauss_solve(AugmentedSystem(block_diagonal([a, b]),
                                        np.concatenate([ga, gb])))
    np.testing.assert_allclose(joint[:3], gauss_solve(AugmentedSystem(a, ga)),
                               atol=1e-12)
    np.testing.assert_allclose(joint[3:], gauss_solve(AugmentedSystem(b, gb)),
                               atol=1e-12)


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
    """The one-shot elimination gauss_solve ran before it was split into
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
        assert np.array_equal(gauss_solve(AugmentedSystem(W, G)), expected)


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

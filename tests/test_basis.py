"""Tests for Laguerre rows and the structural matrices."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lagdde import collocation, reference
from lagdde.collocation import collocation_points


# ---------------------------------------------------------------------------
# Laguerre evaluation: entry n of basis_row(N, t) is L_n(t)

def test_laguerre_degree_zero_is_one():
    assert collocation.basis_row(2, 3.7)[0] == 1.0
    np.testing.assert_array_equal(collocation.basis_row(0, 3.7), [1.0])


def test_laguerre_degree_one_root():
    # L_1(t) = 1 - t
    assert collocation.basis_row(2, 1.0)[1] == 0.0


def test_laguerre_degree_two():
    # L_2(t) = (t^2 - 4t + 2) / 2, so L_2(2) = -1
    assert collocation.basis_row(2, 2.0)[2] == pytest.approx(-1.0, abs=1e-14)


def _laguerre_exact(n, t_frac):
    """Exact rational evaluation of the alternating sum."""
    return sum(
        Fraction(-1) ** k * Fraction(math.comb(n, k), math.factorial(k)) * t_frac**k
        for k in range(n + 1)
    )


def test_laguerre_recurrence_matches_exact_sum():
    # rational points in [0, 10], degrees up to the supported maximum
    for num in (0, 3, 17, 50, 100):
        t = Fraction(num, 10)
        row = collocation.basis_row(collocation.MAX_TRUNCATION, float(t))
        for n in range(collocation.MAX_TRUNCATION + 1):
            exact = float(_laguerre_exact(n, t))
            assert row[n] == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_laguerre_sum_oracle_agrees_for_small_degrees():
    rng = np.random.default_rng(3)
    for n in range(13):
        for t in rng.uniform(0.0, 10.0, 5):
            assert collocation.basis_row(12, t)[n] == pytest.approx(
                reference.laguerre_eval_sum(n, t), rel=1e-10, abs=1e-10)


def test_laguerre_at_zero_is_one_up_to_degree_twenty():
    np.testing.assert_array_equal(collocation.basis_row(20, 0.0), np.ones(21))


def test_laguerre_rejects_bad_input():
    with pytest.raises(ValueError):
        reference.laguerre_eval_sum(-1, 1.0)
    with pytest.raises(ValueError):
        collocation.basis_row(20, math.inf)
    with pytest.raises(ValueError):
        collocation.basis_row(20, math.nan)


# ---------------------------------------------------------------------------
# structural matrices

def test_change_matrix_n2():
    H = reference.laguerre_change_matrix(2)
    expected = np.array([[1.0, 1.0, 1.0],
                         [0.0, -1.0, -2.0],
                         [0.0, 0.0, 0.5]])
    np.testing.assert_allclose(H, expected, rtol=0, atol=0)


def test_laguerre_diff_matrix_n2():
    C = reference.laguerre_diff_matrix(2)
    expected = np.array([[0.0, -1.0, -1.0],
                         [0.0, 0.0, -1.0],
                         [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(C, expected)


def test_delay_shift_matrix_n2_tau1():
    T = reference.delay_shift_matrix(2, 1.0)
    expected = np.array([[1.0, -1.0, 1.0],
                         [0.0, 1.0, -2.0],
                         [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(T, expected)


def test_delay_shift_identity_at_zero():
    for n in (2, 5, 9):
        np.testing.assert_array_equal(
            reference.delay_shift_matrix(n, 0.0), np.eye(n + 1))


def test_monomial_diff_matrix_superdiagonal():
    B = reference.monomial_diff_matrix(4)
    assert np.count_nonzero(B) == 4
    for k in range(4):
        assert B[k, k + 1] == k + 1


def test_delay_shift_matrix_rejects_negative_delay():
    with pytest.raises(ValueError):
        reference.delay_shift_matrix(3, -0.5)


def test_polynomial_basis_rejects_small_truncation():
    # a truncation is posed on its collocation grid, which needs N >= 2
    for n in (-1, 0, 1):
        with pytest.raises(ValueError, match="must be >= 2"):
            collocation_points(n, 1.0)
    assert len(collocation_points(2, 1.0)) == 3
    # and an interval end that is not finite and positive
    for b in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite and positive"):
            collocation_points(4, b)


def test_row_vector_identities_random_points():
    rng = np.random.default_rng(17)
    for n in range(2, 11):
        H = reference.laguerre_change_matrix(n)
        B = reference.monomial_diff_matrix(n)
        for t in rng.uniform(0.0, 5.0, 100):
            X = reference.monomial_row(n, t)
            L = collocation.basis_row(n, t)
            np.testing.assert_allclose(X @ H, L, atol=1e-9 * max(1, abs(L).max()))
            dX = np.array([k * t ** (k - 1) if k else 0.0 for k in range(n + 1)])
            np.testing.assert_allclose(X @ B, dX, atol=1e-9 * max(1, abs(dX).max()))


def test_derivative_identity_against_termwise_and_finite_difference():
    rng = np.random.default_rng(19)
    for n in range(2, 11):
        C = reference.laguerre_diff_matrix(n)
        for t in rng.uniform(0.1, 5.0, 20):
            analytic = np.array([
                sum((-1) ** k / math.factorial(k) * math.comb(m, k) * k * t ** (k - 1)
                    for k in range(1, m + 1))
                for m in range(n + 1)
            ])
            via_matrix = collocation.basis_row(n, t) @ C
            np.testing.assert_allclose(via_matrix, analytic, atol=1e-8)
            h = 1e-6
            fd = (collocation.basis_row(n, t + h)
                  - collocation.basis_row(n, t - h)) / (2 * h)
            np.testing.assert_allclose(via_matrix, fd, atol=1e-6 * max(1, abs(fd).max()))


def test_delay_identity_relative_to_monomial_scale():
    rng = np.random.default_rng(23)
    for n in range(2, 11):
        for tau in (0.5, 1.0, 2.0):
            T = reference.delay_shift_matrix(n, tau)
            for t in rng.uniform(0.0, 5.0, 30):
                shifted = np.power(t - tau, np.arange(n + 1))
                got = reference.monomial_row(n, t) @ T
                scale = max(1.0, np.abs(shifted).max())
                np.testing.assert_allclose(got, shifted, atol=1e-9 * scale)


def test_bh_equals_hc():
    for n in range(2, 11):
        B = reference.monomial_diff_matrix(n)
        H = reference.laguerre_change_matrix(n)
        C = reference.laguerre_diff_matrix(n)
        np.testing.assert_allclose(B @ H, H @ C, atol=1e-12)


# ---------------------------------------------------------------------------
# basis rows

def test_basis_row_laguerre_at_zero():
    np.testing.assert_array_equal(collocation.basis_row(2, 0.0), [1.0, 1.0, 1.0])


def test_basis_row_laguerre_at_one():
    # L_0(1) = 1, L_1(1) = 0
    row = collocation.basis_row(2, 1.0)
    np.testing.assert_allclose(row[:2], [1.0, 0.0], atol=1e-14)


def test_basis_row_rejects_negative_laguerre_argument():
    with pytest.raises(ValueError):
        collocation.basis_row(2, -0.1)

"""Laguerre polynomial rows and the structural matrices of the paper's
row-vector relations, which ``lagdde validate`` checks.

All matrices act on *row* vectors of basis values, i.e. the identities have
the shape ``row_new = row_old @ M``:

* ``H``  maps the monomial row ``[1, t, ..., t^N]`` to the Laguerre row.
* ``B``  differentiates the monomial row.
* ``C``  differentiates the Laguerre row.
* ``T``  shifts the monomial row by a delay: ``[1, (t-tau), ..., (t-tau)^N]``.
"""

from __future__ import annotations

import math

import numpy as np

MAX_TRUNCATION = 20


def laguerre_eval_sum(n: int, t: float) -> float:
    """Explicit alternating-sum form of L_n(t).

    Numerically inferior to the recurrence of :func:`basis_row` for large n;
    kept as an independent cross-check.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    return float(
        sum((-1) ** k / math.factorial(k) * math.comb(n, k) * t**k
            for k in range(n + 1))
    )


def laguerre_change_matrix(n_max: int) -> np.ndarray:
    """Monomial-to-Laguerre change of basis: laguerre_row = monomial_row @ H."""
    H = np.zeros((n_max + 1, n_max + 1))
    for k in range(n_max + 1):
        fact = math.factorial(k)
        for n in range(k, n_max + 1):
            H[k, n] = (-1.0) ** k / fact * math.comb(n, k)
    return H


def monomial_diff_matrix(n_max: int) -> np.ndarray:
    """Differentiation of the monomial row: d/dt monomial_row = monomial_row @ B."""
    B = np.zeros((n_max + 1, n_max + 1))
    for k in range(n_max):
        B[k, k + 1] = k + 1
    return B


def laguerre_diff_matrix(n_max: int) -> np.ndarray:
    """Differentiation of the Laguerre row: d/dt laguerre_row = laguerre_row @ C.

    C is strictly upper triangular with every entry above the diagonal -1,
    which encodes L_n'(t) = -sum_{m<n} L_m(t).
    """
    C = np.zeros((n_max + 1, n_max + 1))
    for p in range(n_max + 1):
        C[p, p + 1:] = -1.0
    return C


def delay_shift_matrix(n_max: int, tau: float) -> np.ndarray:
    """Delay shift of the monomial row: [1, (t-tau), ...] = monomial_row @ T."""
    if tau < 0:
        raise ValueError(f"delay must be non-negative, got {tau}")
    T = np.zeros((n_max + 1, n_max + 1))
    for k in range(n_max + 1):
        for n in range(k, n_max + 1):
            T[k, n] = math.comb(n, k) * (-tau) ** (n - k)
    return T


def monomial_row(n_max: int, t: float) -> np.ndarray:
    """The row [1, t, t^2, ..., t^n_max]."""
    return np.power(float(t), np.arange(n_max + 1))


def basis_row(n_max: int, t: float) -> np.ndarray:
    """The Laguerre row [L_0(t), ..., L_n_max(t)] for t >= 0.

    The recurrence (n+1) L_{n+1} = (2n+1-t) L_n - n L_{n-1} is stable where
    the alternating explicit sum loses digits for n beyond ~15.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evaluation point must be finite, got {t}")
    if t < 0:
        raise ValueError(f"Laguerre basis requires t >= 0, got {t}")
    row = np.empty(n_max + 1)
    row[0] = 1.0
    if n_max:
        row[1] = 1.0 - t
    for k in range(1, n_max):
        row[k + 1] = ((2 * k + 1 - t) * row[k] - k * row[k - 1]) / (k + 1)
    return row

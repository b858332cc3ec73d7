"""Minimal dense linear algebra for the collocation system.

System sizes never exceed 3*(N+1) <= 63, so a textbook O(n^3) elimination
with partial pivoting is ample and keeps the pivot-failure diagnostics
under our control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SINGULAR_PIVOT_FACTOR = 1e-13


class SingularSystemError(Exception):
    """Raised when elimination finds no usable pivot.

    Attributes
    ----------
    column : int
        Elimination column at which the pivot search failed.
    pivot : float
        Magnitude of the best available pivot.
    """

    def __init__(self, column: int, pivot: float):
        self.column = column
        self.pivot = pivot
        super().__init__(
            f"singular system: pivot magnitude {pivot:.3e} in column {column}"
        )


@dataclass(frozen=True)
class LUFactors:
    """Row-pivoted LU factors of a square matrix, P @ W = L @ U.

    ``lu`` holds U on and above the diagonal and the unit-lower multipliers
    of L below it; ``perm`` lists, for each row of P @ W, the row of W it
    came from.
    """

    lu: np.ndarray
    perm: np.ndarray

    @property
    def size(self) -> int:
        return self.lu.shape[0]


def lu_factor(W: np.ndarray) -> LUFactors:
    """Factor W by Gauss elimination with partial (row) pivoting.

    A pivot whose magnitude falls below SINGULAR_PIVOT_FACTOR times the
    largest entry of W signals rank deficiency.
    """
    W = np.array(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"W must be square, got shape {W.shape}")
    n = W.shape[0]
    perm = np.arange(n)
    threshold = SINGULAR_PIVOT_FACTOR * np.abs(W).max()
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(W[col:, col])))
        pivot = abs(W[pivot_row, col])
        if pivot <= threshold:
            raise SingularSystemError(col, pivot)
        if pivot_row != col:
            W[[col, pivot_row]] = W[[pivot_row, col]]
            perm[[col, pivot_row]] = perm[[pivot_row, col]]
        factors = W[col + 1:, col] / W[col, col]
        W[col + 1:, col + 1:] -= np.outer(factors, W[col, col + 1:])
        W[col + 1:, col] = factors
    return LUFactors(W, perm)


def lu_solve(factors: LUFactors, G: np.ndarray) -> np.ndarray:
    """Solve W @ A = G from the factors of W.

    G is one right-hand side of length n or an (n, k) array of k of them.
    """
    LU = factors.lu
    n = factors.size
    G = np.asarray(G, dtype=float)
    if G.ndim not in (1, 2) or G.shape[0] != n:
        raise ValueError(f"G shape {G.shape} does not match W size {n}")
    G = G[factors.perm]
    # forward substitution with the unit-lower multipliers
    for col in range(n - 1):
        G[col + 1:] -= np.multiply.outer(LU[col + 1:, col], G[col])
    # back substitution
    A = np.zeros(G.shape)
    for row in range(n - 1, -1, -1):
        A[row] = (G[row] - LU[row, row + 1:] @ A[row + 1:]) / LU[row, row]
    return A


def condition_estimate(W: np.ndarray) -> float:
    """Infinity-norm condition number ||W||_inf * ||W^{-1}||_inf.

    The inverse comes from one factorisation solved against the identity;
    exact for these small dense systems.
    """
    W = np.asarray(W, dtype=float)
    inverse = lu_solve(lu_factor(W), np.eye(W.shape[0]))
    norm = np.abs(W).sum(axis=1).max()
    inv_norm = np.abs(inverse).sum(axis=1).max()
    return float(norm * inv_norm)

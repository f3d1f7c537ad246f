"""Dense matrix kernels shared by the rest of the package.

Thin wrappers over numpy/scipy LAPACK drivers that pin down the contracts the
other modules rely on: inputs are validated as finite, near-symmetric inputs
are symmetrized before a symmetric decomposition, and ill-conditioned solves
raise instead of returning garbage.

Only `balance` (scipy's `matrix_balance`) needs scipy. It imports it at its
first call, so that a process that never reaches it, such as any NI, SNI,
PR or loop verdict, runs on numpy alone and skips scipy's import time.
"""

from __future__ import annotations

import numpy as np

COND_LIMIT = 1e12
# cond(V) * eps stays about 45 times under the NI sweep tolerance (1e-8)
COND_MAX = 1e6


class NumericsError(ValueError):
    pass


def as_matrix(A, square: bool = False, name: str = "matrix") -> np.ndarray:
    M = np.atleast_2d(np.asarray(A))
    if M.ndim != 2:
        raise NumericsError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NumericsError(f"{name} contains NaN or Inf entries")
    if square and M.shape[0] != M.shape[1]:
        raise NumericsError(f"{name} must be square, got shape {M.shape}")
    return M


def eigendecomposition(A):
    """(lam, basis) from one eigensolve: the eigenvalues lam of A, and
    basis = (V, V^{-1}, cond) with A = V diag(lam) V^{-1} and
    cond = ||V||_1 ||V^{-1}||_1, or None when lam or V is not finite, V is
    singular or cond > COND_MAX: A is defective or nearly so."""
    A = as_matrix(A, square=True, name="A")
    lam, V = np.linalg.eig(A)
    if not np.isfinite(lam).all():
        return lam, None
    try:
        Vi = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return lam, None
    # a non-finite V gives a NaN cond, which fails the comparison
    cond = np.linalg.norm(V, 1) * np.linalg.norm(Vi, 1)
    return lam, ((V, Vi, cond) if cond <= COND_MAX else None)


def eig_symmetric(S, vectors: bool = False, sym_tol: float = 1e-8):
    """Ascending eigenvalues of a symmetric/Hermitian matrix.

    The input is symmetrized before decomposition; asymmetry beyond
    sym_tol * ||S|| is an error rather than a silent fix.
    """
    S = as_matrix(S, square=True, name="S")
    if S.shape[0] == 0:
        return (np.zeros(0), np.zeros((0, 0))) if vectors else np.zeros(0)
    nrm = np.linalg.norm(S)
    if np.linalg.norm(S - S.conj().T) > sym_tol * max(1.0, nrm):
        raise NumericsError("input is not symmetric/Hermitian within tolerance")
    H = 0.5 * (S + S.conj().T)
    if vectors:
        w, V = np.linalg.eigh(H)
        return w, V
    return np.linalg.eigvalsh(H)


def solve(A, B) -> np.ndarray:
    """X with AX = B. Rejects condition estimates beyond COND_LIMIT."""
    A = as_matrix(A, square=True, name="A")
    B = np.asarray(B)
    if A.shape[0] == 0:
        return np.zeros_like(B)
    c = np.linalg.cond(A)
    if not np.isfinite(c) or c > COND_LIMIT:
        raise NumericsError(f"matrix is singular or ill-conditioned (cond ~ {c:.2e})")
    return np.linalg.solve(A, B)


def sigma_max(A) -> float:
    A = as_matrix(A, name="A")
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def balance(A):
    """Diagonal similarity scaling (Ab, T) with Ab = inv(T) A T, T diagonal."""
    A = as_matrix(A, square=True, name="A")
    if A.shape[0] == 0:
        return A.copy(), np.eye(0)
    from scipy.linalg import matrix_balance

    Ab, T = matrix_balance(A, permute=False)
    return Ab, T

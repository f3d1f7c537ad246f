"""Dense matrix kernels shared by the rest of the package.

Thin wrappers over numpy's LAPACK routines that pin down the contracts the
other modules rely on: inputs are validated as finite, near-symmetric inputs
are symmetrized before a symmetric decomposition, and ill-conditioned solves
raise instead of returning garbage. `balance` is LAPACK's diagonal
balancing, written in numpy.
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


# gebal's bounds on a scale factor: safe minimum over precision, and its inverse
_SFMIN1 = np.finfo(float).tiny / np.finfo(float).eps
_SFMAX1 = 1.0 / _SFMIN1


def _norm2(x):
    """np.linalg.norm(x), bit for bit where that is finite, summed at a
    power-of-2 scale so that the squares neither overflow nor underflow."""
    e = np.frexp(np.abs(x).max())[1]
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e))


def balance(A):
    """Diagonal similarity scaling (Ab, T) with Ab = inv(T) A T, T diagonal:
    LAPACK's gebal, job 'S', no permutation (Parlett & Reinsch 1969; James,
    Langou & Lowery 2014). Column i times f and row i over f, f the power of
    2 that brings their 2-norms closest, kept when their sum drops below
    0.95 of its old value; sweeps over i repeat until none is kept."""
    A = as_matrix(A, square=True, name="A")
    Ab, t = A.astype(float), np.ones(A.shape[0])
    converged = False
    while not converged:
        converged = True
        for i in range(t.size):
            c, r = _norm2(Ab[:, i]), _norm2(Ab[i])
            if c == 0 or r == 0:
                continue
            ca, ra, s, f, g = np.abs(Ab[:, i]).max(), np.abs(Ab[i]).max(), c + r, 1.0, r / 2
            while c < g and max(f, c, ca) < _SFMAX1 / 2 and min(r, g, ra) > 2 * _SFMIN1:
                f, c, ca, r, g, ra = 2 * f, 2 * c, 2 * ca, r / 2, g / 2, ra / 2
            g = c / 2
            while g >= r and max(r, ra) < _SFMAX1 / 2 and min(f, c, g, ca) > 2 * _SFMIN1:
                f, c, g, ca, r, ra = f / 2, c / 2, g / 2, ca / 2, 2 * r, 2 * ra
            # the product of the scale factors stays within [_SFMIN1, _SFMAX1]
            if (c + r < 0.95 * s and not (f < 1 and t[i] < 1 and f * t[i] <= _SFMIN1)
                    and not (f > 1 and t[i] > 1 and t[i] >= _SFMAX1 / f)):
                t[i] *= f
                Ab[i] /= f
                Ab[:, i] *= f
                converged = False
    return Ab, np.diag(t)

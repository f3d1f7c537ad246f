"""Frequency-sweep kernels.

`eval_grid` takes the real system matrices and a frequency grid and returns
the transfer matrix at every grid point. `sweep_eigmin` returns, per grid
point, the smallest eigenvalue of the tested Hermitian form plus the
Frobenius norm of the transfer matrix (used for relative tolerances).
mode 0: H = j (P - P^*)   (negative-imaginary test)
mode 1: H = P + P^*       (positive-real test)

The n x n resolvent is solved one grid point at a time: stacking the solves
would hold an (nw, n, n) complex array, about 1 GB at n = 200 on a default
grid. The small (nw, m, m) forms are stacked into one eigensolve.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    return "numpy"


def eval_grid(A, B, C, D, ws):
    """Transfer matrix values P(jw) over the grid, shape (nw, p, m).

    Frequencies must avoid poles of the system (caller's responsibility).
    """
    A = np.ascontiguousarray(A, dtype=float)
    B = np.ascontiguousarray(B, dtype=float)
    C = np.ascontiguousarray(C, dtype=float)
    D = np.ascontiguousarray(D, dtype=float)
    ws = np.ascontiguousarray(ws, dtype=float)
    if ws.size == 0:
        return np.zeros((0, C.shape[0], B.shape[1]), dtype=np.complex128)
    if A.shape[0] == 0:
        return np.broadcast_to(D.astype(np.complex128), (ws.size,) + D.shape).copy()
    out = np.empty((ws.size, C.shape[0], B.shape[1]), dtype=np.complex128)
    In = np.eye(A.shape[0], dtype=np.complex128)
    Bc = B.astype(np.complex128)
    for i in range(ws.size):
        out[i] = C @ np.linalg.solve(1j * ws[i] * In - A, Bc) + D
    return out


def sweep_eigmin(A, B, C, D, ws, mode: int = 0):
    """Per-frequency smallest eigenvalue of the mode's Hermitian form.

    Frequencies must avoid poles of the system (caller's responsibility).
    Returns (lam_min, pnorm) arrays aligned with ws.
    """
    P = eval_grid(A, B, C, D, ws)
    Ph = P.conj().transpose(0, 2, 1)
    H = (P + Ph) if mode == 1 else 1j * (P - Ph)
    lam = np.linalg.eigvalsh(H)[:, 0]
    # per point: the stacked norm over axes (1, 2) sums in another order
    pnorm = np.array([np.linalg.norm(Pk) for Pk in P], dtype=float)
    return lam, pnorm

"""Frequency-sweep kernels.

`eval_grid` takes the real system matrices and a frequency grid and returns
the transfer matrix at every grid point. `sweep_eigmin` returns, per grid
point, the smallest eigenvalue of the tested Hermitian form plus the
Frobenius norm of the transfer matrix (used for relative tolerances).
mode 0: H = j (P - P^*)   (negative-imaginary test)
mode 1: H = P + P^*       (positive-real test)

The n x n resolvent is solved for a chunk of grid points per stacked LAPACK
call, with values bit-for-bit those of a per-point solve. A chunk holds at
most CHUNK complex entries of (jw I - A), 1 MB: stacking the whole grid would
hold an (nw, n, n) complex array, about 1 GB at n = 200 on a default grid.
The small (nw, m, m) forms are stacked into one eigensolve.
"""

from __future__ import annotations

import numpy as np

# complex entries of the resolvent buffer per chunk: 1 MB
CHUNK = 1 << 16


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
    n = A.shape[0]
    if n == 0:
        return np.broadcast_to(D.astype(np.complex128), (ws.size,) + D.shape).copy()
    out = np.empty((ws.size, C.shape[0], B.shape[1]), dtype=np.complex128)
    Bc = B.astype(np.complex128)
    step = max(1, CHUNK // (n * n))
    R = np.empty((step, n, n), dtype=np.complex128)
    d = np.arange(n)
    # 0.0 - A, not jw I - A in one broadcast: the same signed zeros as the
    # per-point form, and no (k, n, n) product temporary
    negA = 0.0 - A
    for s in range(0, ws.size, step):
        w = ws[s:s + step]
        k = w.size
        M = R[:k]
        M[...] = negA
        M[:, d, d] += 1j * w[:, None]
        out[s:s + k] = C @ np.linalg.solve(M, np.broadcast_to(Bc, (k,) + Bc.shape)) + D
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
    if P.shape[1] == P.shape[2] == 1:
        # one entry: the same two products and sqrt as np.linalg.norm
        x = P[:, 0, 0]
        pnorm = np.sqrt(x.real * x.real + x.imag * x.imag)
    else:
        # per point: a stacked sum of squares rounds differently in the last bit
        pnorm = np.array([np.linalg.norm(Pk) for Pk in P], dtype=float)
    return lam, pnorm

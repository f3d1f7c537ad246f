"""Frequency-sweep kernels.

`eval_grid` takes the real system matrices, a frequency grid and the
eigendecomposition of A kept on the system (`lti.eigensystem`), and returns
the transfer matrix at every grid point. `sweep_eigmin` reads both
Hermitian forms of that one evaluation, per grid point: the smallest
eigenvalues of j (P - P^*) (the negative-imaginary test) and of P + P^*
(the positive-real test), plus the Frobenius norm of P (used for relative
tolerances).

With the kept A = V diag(lam) V^{-1}, `eval_grid` reads
P(jw) = (C V) diag(1 / (jw - lam)) (V^{-1} B) + D at O(n p m) per point
instead of an O(n^3) resolvent solve. Its values agree with a per-point
solve to about cond(V) * eps relative, not bit for bit. When the kept basis
is None (A defective or nearly so), or a grid point lies within the rounding
error of an eigenvalue, the call falls back to the resolvent solve: a chunk
of grid points per stacked LAPACK call, bit-for-bit a per-point solve,
raising `LinAlgError` on an exactly singular point. Either path holds at
most CHUNK complex entries (1 MB) per chunk temporary: stacking the
resolvent over the whole grid would hold an (nw, n, n) array, about 1 GB at
n = 200 on a default grid. The small (nw, 2, m, m) forms are stacked into
one eigensolve.
"""

from __future__ import annotations

import numpy as np

# complex entries of a per-chunk temporary: 1 MB
CHUNK = 1 << 16


def backend() -> str:
    return "numpy"


def eval_grid(A, B, C, D, ws, eig):
    """Transfer matrix values P(jw) over the grid, shape (nw, p, m), read
    from eig = (lam, basis), the kept decomposition of A (`lti.eigensystem`).

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
    lam, basis = eig
    out = None
    if basis is not None:
        V, Vi, cond = basis
        out = _modal(lam, Vi @ B, C @ V, D, ws, _eig_radius(A, cond))
    return _resolvent(A, B, C, D, ws) if out is None else out


def _eig_radius(A, cond):
    """cond(V) n eps ||A||_1, V the kept eigenbasis: by Bauer-Fike, an
    eigenvalue of A lies within about this of each computed lam."""
    return cond * A.shape[0] * np.finfo(float).eps * np.linalg.norm(A, 1)


def _modal(lam, W, CV, D, ws, near):
    """P(jw) from the eigendecomposition, or None when some jw lies within
    `near` of some lam, where only the resolvent solve can say whether the
    point is a pole."""
    p, n = CV.shape
    m = W.shape[1]
    out = np.empty((ws.size, p, m), dtype=np.complex128)
    step = max(1, CHUNK // max(p * n, 1))
    for s in range(0, ws.size, step):
        w = ws[s:s + step]
        k = w.size
        den = 1j * w[:, None] - lam
        if np.abs(den).min() <= near:
            return None
        # (k, p, n) scaled copies of C V as one (k p, n) x (n, m) product
        T = (1.0 / den)[:, None, :] * CV
        out[s:s + k] = (T.reshape(k * p, n) @ W).reshape(k, p, m) + D
    return out


def _resolvent(A, B, C, D, ws):
    n = A.shape[0]
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


def sweep_eigmin(A, B, C, D, ws, eig):
    """Per-frequency smallest eigenvalues of both Hermitian forms of one
    evaluation of P(jw): (lam_ni, lam_pr, pnorm) arrays aligned with ws,
    lambda_min of j (P - P^*) and of P + P^*, and ||P||_F.

    Frequencies must avoid poles of the system (caller's responsibility);
    eig is as in `eval_grid`.
    """
    P = eval_grid(A, B, C, D, ws, eig)
    if P.shape[1] == P.shape[2] == 1:
        # the 1 x 1 forms are real: what eigvalsh returns, signed zeros
        # included (0.0 - y, not -y, gives +0.0 at Im P = 0), and the same
        # two products and sqrt as np.linalg.norm
        x = P[:, 0, 0]
        return (0.0 - 2.0 * x.imag, 2.0 * x.real,
                np.sqrt(x.real * x.real + x.imag * x.imag))
    Ph = P.conj().transpose(0, 2, 1)
    lam = np.linalg.eigvalsh(np.stack((1j * (P - Ph), P + Ph), axis=1))[..., 0]
    # per point: a stacked sum of squares rounds differently in the last bit
    pnorm = np.array([np.linalg.norm(Pk) for Pk in P], dtype=float)
    return lam[:, 0], lam[:, 1], pnorm

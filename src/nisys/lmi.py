"""Feasibility solver and certificate checks for small dense LMI systems.

The solver maximizes the worst normalized eigenvalue margin over the affine
subspace satisfying all equality constraints. Pipeline: extract the affine
structure of every constraint by basis evaluation, eliminate equalities by
SVD, run a softmin-weighted Polyak subgradient ascent on the min-eigenvalue
objective, and periodically polish with a cluster-aware Gauss-Newton step.
The Gauss-Newton polish takes full steps with no line search; convergence on
boundary-feasible problems is inherently non-monotone (transient violation
spikes when eigenvalue clusters hand off), so the polish tracks the best
iterate by violation and only reverts on divergence. Deterministic, no RNG.

Problems here have at most ~100 scalar unknowns; everything is dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics


class SymVar:
    """Symmetric matrix decision variable, packed as the upper triangle."""

    def __init__(self, name, n):
        self.name, self.n = name, int(n)
        self.size = self.n * (self.n + 1) // 2
        self._iu = np.triu_indices(self.n)

    def materialize(self, x):
        M = np.zeros((self.n, self.n))
        M[self._iu] = x
        return M + M.T - np.diag(np.diag(M))


class RectVar:
    """General rectangular decision variable."""

    def __init__(self, name, p, q):
        self.name, self.p, self.q = name, int(p), int(q)
        self.size = self.p * self.q

    def materialize(self, x):
        return x.reshape(self.p, self.q)


class LmiProblem:
    """Cone and equality constraints, all affine in the declared variables.

    Constraint functions receive a dict {name: matrix} of variable values and
    return the constraint matrix. require_psd/require_nsd add semidefinite
    cones (strict=True requests a positive margin rather than tolerance
    zero); require_zero adds an equality. boundary_kernel marks directions in
    which a cone block is known to be pinned to the boundary: those
    directions are handled as equalities and the cone is deflated onto the
    complement, which is what makes boundary-feasible problems tractable for
    the margin-maximizing solver.
    """

    def __init__(self, variables):
        self.variables = list(variables)
        self.offsets = {}
        off = 0
        for v in self.variables:
            self.offsets[v.name] = (off, off + v.size)
            off += v.size
        self.dim = off
        self.cones = []
        self.eqs = []

    def unpack(self, x):
        return {v.name: v.materialize(x[self.offsets[v.name][0]:self.offsets[v.name][1]])
                for v in self.variables}

    def require_psd(self, fn, strict=False, boundary_kernel=None):
        self.cones.append(dict(fn=fn, sense=+1, strict=strict, kernel=boundary_kernel))

    def require_nsd(self, fn, strict=False, boundary_kernel=None):
        self.cones.append(dict(fn=fn, sense=-1, strict=strict, kernel=boundary_kernel))

    def require_zero(self, fn):
        self.eqs.append(fn)


@dataclass
class SolveResult:
    feasible: bool
    values: dict | None
    margin: float
    iters: int
    eq_residual: float
    reason: str | None = None


def _complement(Q, m):
    """Orthonormal basis of the orthogonal complement of the columns of Q in R^m."""
    Qm = np.atleast_2d(np.asarray(Q, float))
    if Qm.shape[0] != m:
        Qm = Qm.T
    U, s, _ = np.linalg.svd(Qm, full_matrices=True)
    r = int(np.sum(s > max(Qm.shape) * np.finfo(float).eps * (s[0] if s.size else 1)))
    return Qm, U[:, r:]


def solve_feasibility(problem: LmiProblem, max_iter=20000, stall_iters=500,
                      stall_tol=1e-10, psd_tol=1e-9, strict_margin=1e-8) -> SolveResult:
    """Search for a feasible point of the problem.

    Acceptance: every non-strict cone block has min eigenvalue
    >= -psd_tol * scale and every strict block >= strict_margin * scale,
    with scale = max(1, ||block||_F). Infeasibility is reported as
    best-found margin, not proved.
    """
    N = problem.dim
    z = np.zeros(N)
    basis = np.eye(N)
    # affine extraction: F(x) = F0 + sum_j x_j Fj by evaluating on the basis
    cones = []
    for c in problem.cones:
        fn, sense = c["fn"], c["sense"]
        F0 = sense * np.asarray(fn(problem.unpack(z)), float)
        F0 = 0.5 * (F0 + F0.T)
        m = F0.shape[0]
        Fj = np.empty((N, m, m))
        for j in range(N):
            Mj = sense * np.asarray(fn(problem.unpack(basis[j])), float) - F0
            Fj[j] = 0.5 * (Mj + Mj.T)
        cones.append(dict(F0=F0, Fj=Fj, strict=c["strict"], kernel=c["kernel"], m=m))
    eL, e0 = [], []
    for fn in problem.eqs:
        E0 = np.asarray(fn(problem.unpack(z)), float).ravel()
        rows = np.empty((E0.size, N))
        for j in range(N):
            rows[:, j] = np.asarray(fn(problem.unpack(basis[j])), float).ravel() - E0
        eL.append(rows)
        e0.append(E0)
    # kernel directions of boundary-pinned cones become equalities
    for c in cones:
        if c["kernel"] is None or np.size(c["kernel"]) == 0:
            c["P"] = None
            continue
        Qm, P = _complement(c["kernel"], c["m"])
        E0 = (c["F0"] @ Qm).ravel()
        rows = np.empty((E0.size, N))
        for j in range(N):
            rows[:, j] = (c["Fj"][j] @ Qm).ravel()
        eL.append(rows)
        e0.append(E0)
        c["P"] = P
    if eL:
        L = np.vstack(eL)
        r = -np.concatenate(e0)
        U, s, Vt = np.linalg.svd(L, full_matrices=True)
        tol = max(L.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
        rank = int(np.sum(s > tol))
        xp = Vt[:rank].T @ ((U[:, :rank].T @ r) / s[:rank])
        Z = Vt[rank:].T
        eq_resid = float(np.linalg.norm(L @ xp - r))
        if eq_resid > 1e-8 * (1.0 + np.linalg.norm(r)):
            return SolveResult(False, None, -np.inf, 0, eq_resid,
                               reason="inconsistent equality constraints")
    else:
        L = np.zeros((0, N))
        r = np.zeros(0)
        xp = np.zeros(N)
        Z = np.eye(N)
        eq_resid = 0.0
    k = Z.shape[1]

    # reduced (deflated) blocks drive the optimizer; acceptance is always
    # evaluated on the original undeflated blocks
    red, full = [], []
    for c in cones:
        F0, Fj, P = c["F0"], c["Fj"], c["P"]
        H0f = F0 + np.tensordot(xp, Fj, axes=(0, 0))
        Hkf = np.tensordot(Z.T, Fj, axes=(1, 0)) if k else np.zeros((0,) + F0.shape)
        full.append(dict(H0=H0f, Hk=Hkf, strict=c["strict"]))
        if P is not None:
            H0 = P.T @ H0f @ P
            Hk = np.einsum('ab,jbc,cd->jad', P.T, Hkf, P) if k else np.zeros((0, P.shape[1], P.shape[1]))
        else:
            H0, Hk = H0f, Hkf
        s_i = max(1.0, np.linalg.norm(H0),
                  max((np.linalg.norm(Hk[j]) for j in range(k)), default=0.0))
        red.append(dict(H0=H0, Hk=Hk, strict=c["strict"], s=s_i))

    def dblocks(xi):
        return [d["H0"] + np.tensordot(xi, d["Hk"], axes=(0, 0)) for d in red]

    def f_of(xi):
        vals = [np.linalg.eigvalsh(M)[0] / d["s"] for d, M in zip(red, dblocks(xi)) if M.size]
        return min(vals) if vals else 0.0

    def accepted(xi):
        for d in full:
            M = d["H0"] + (np.tensordot(xi, d["Hk"], axes=(0, 0)) if k else 0.0)
            if not M.size:
                continue
            w = np.linalg.eigvalsh(M)
            scale = max(1.0, np.linalg.norm(M))
            thr = strict_margin * scale if d["strict"] else -psd_tol * scale
            if w[0] < thr:
                return False
        return True

    if k == 0:
        xi0 = np.zeros(0)
        return SolveResult(accepted(xi0), problem.unpack(xp), f_of(xi0), 0, eq_resid)

    # least-squares init aiming each block at tau * scale * I
    best_init, best_init_f = None, -np.inf
    for tau in (0.1, 0.0, 0.5):
        rows, rhs = [], []
        for d in red:
            m = d["H0"].shape[0]
            if m == 0:
                continue
            rows.append(d["Hk"].reshape(k, m * m).T / d["s"])
            rhs.append((tau * d["s"] * np.eye(m) - d["H0"]).ravel() / d["s"])
        if not rows:
            break
        xi0 = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)[0]
        f0 = f_of(xi0)
        if f0 > best_init_f:
            best_init, best_init_f = xi0, f0
    if best_init is None:
        best_init, best_init_f = np.zeros(k), f_of(np.zeros(k))
    xi, best_f = best_init.copy(), best_init_f
    best_xi = xi.copy()

    def _viol_and_rows(xq, want_rows=False, strict_lift=None):
        viol2 = 0.0
        rows, rhs = [], []
        for d, M in zip(red, dblocks(xq)):
            if not M.size:
                continue
            w, V = np.linalg.eigh(M)
            scale = max(1.0, np.linalg.norm(M))
            lift = (strict_lift if strict_lift is not None else 2 * strict_margin) * scale if d["strict"] else 0.0
            if w[0] >= lift:
                continue
            viol2 += sum(((lift - w[l]) / d["s"]) ** 2 for l in range(len(w)) if w[l] < lift)
            if want_rows:
                cw = lift + (lift - w[0])
                cl = [l for l in range(len(w)) if w[l] < cw][:16]
                for ii, a in enumerate(cl):
                    va = V[:, a]
                    for b in cl[ii:]:
                        vb = V[:, b]
                        g = np.einsum('i,kij,j->k', va, d["Hk"], vb)
                        rows.append(g / d["s"])
                        rhs.append(((lift - w[a]) if a == b else 0.0) / d["s"])
        return viol2, rows, rhs

    def gn_polish(x0, max_steps=40, strict_lift=None):
        # full non-monotone Newton steps on the active eigenvalue cluster;
        # track the best iterate by violation, revert only on divergence
        xq = x0.copy()
        vq, _, _ = _viol_and_rows(xq, strict_lift=strict_lift)
        vmin = vq
        best_x, best_v = xq.copy(), vq
        for _ in range(max_steps):
            if vq <= 1e-30:
                break
            _, rows, rhs = _viol_and_rows(xq, want_rows=True, strict_lift=strict_lift)
            if not rows:
                break
            dxi, *_ = np.linalg.lstsq(np.vstack(rows), np.array(rhs), rcond=None)
            xq = xq + dxi
            vq, _, _ = _viol_and_rows(xq, strict_lift=strict_lift)
            if vq < best_v:
                best_x, best_v = xq.copy(), vq
            vmin = min(vmin, vq)
            if vq > 1e6 * max(vmin, 1e-300):
                xq = best_x.copy()
                break
        xq = best_x
        return xq, f_of(xq)

    delta = max(1e-3, abs(best_f) * 0.5)
    since = 0
    it = 0
    while it < max_iter:
        it += 1
        mlist = []
        for d, M in zip(red, dblocks(xi)):
            if not M.size:
                continue
            w, V = np.linalg.eigh(M)
            mlist.append((d, w, V))
        if not mlist:
            break
        f_cur = min(mm[1][0] / mm[0]["s"] for mm in mlist)
        # softmin weights over all eigenpairs near the active margin
        T = max(1e-14, 0.05 * abs(f_cur))
        g = np.zeros(k)
        wsum = 0.0
        for d, w, V in mlist:
            marg = w / d["s"]
            wts = np.exp(-(marg - f_cur) / T)
            for l in np.nonzero(wts > 1e-3)[0]:
                vv = V[:, l]
                gl = np.einsum('i,kij,j->k', vv, d["Hk"], vv) / d["s"]
                g += wts[l] * gl
                wsum += wts[l]
        g /= max(wsum, 1e-300)
        gn = g @ g
        if gn < 1e-300:
            break
        xi = xi + (best_f + delta - f_cur) / gn * g  # Polyak step toward target
        fnew = f_of(xi)
        if fnew > best_f:
            since = 0 if fnew > best_f + stall_tol else since + 1
            best_f = fnew
            best_xi = xi.copy()
        else:
            since += 1
        if since and since % 100 == 0:
            delta *= 0.5
        if it % 50 == 0:
            xq, fq = gn_polish(best_xi)
            if fq > best_f:
                best_f, best_xi = fq, xq.copy()
                xi = xq.copy()
                since = 0
            if accepted(best_xi):
                break
        if since > stall_iters:
            break
    xq, fq = gn_polish(best_xi, max_steps=15)
    if fq > best_f:
        best_f, best_xi = fq, xq
    if accepted(best_xi) and any(d["strict"] for d in red):
        # recenter strict blocks away from their acceptance floor when possible
        for lift in (1e-3, 1e-4, 1e-5):
            xq, fq = gn_polish(best_xi, max_steps=25, strict_lift=lift)
            if accepted(xq) and fq > best_f:
                best_f, best_xi = fq, xq
                break
    x = xp + Z @ best_xi
    eqr = float(np.linalg.norm(L @ x - r)) if L.shape[0] else 0.0
    return SolveResult(accepted(best_xi), problem.unpack(x), best_f, it, eqr)


@dataclass
class ConstraintCheck:
    kind: str  # "psd", "nsd", or "zero"
    ok: bool
    margin: float  # min eigenvalue of the sense-adjusted block, or -residual
    scale: float
    strict: bool = False


@dataclass
class CertificateReport:
    ok: bool
    checks: list = field(default_factory=list)

    def cone_margins(self):
        return [c.margin for c in self.checks if c.kind != "zero"]


def verify_certificate(problem: LmiProblem, values: dict, psd_tol=1e-9,
                       strict_margin=1e-8, eq_tol=1e-8) -> CertificateReport:
    """Recompute every constraint of the problem at the given variable values.

    Independent of solver state: uses only the constraint functions and the
    supplied values. Cone blocks pass when the sense-adjusted smallest
    eigenvalue is >= -psd_tol * scale (non-strict) or >= strict_margin *
    scale (strict); equalities pass when the residual norm is
    <= eq_tol * (1 + scale). scale = max(1, ||block||_F).
    """
    checks = []
    for c in problem.cones:
        M = c["sense"] * np.asarray(c["fn"](values), float)
        M = 0.5 * (M + M.T)
        if M.size:
            wmin = float(numerics.eig_symmetric(M)[0])
            scale = max(1.0, float(np.linalg.norm(M)))
        else:
            wmin, scale = 0.0, 1.0
        thr = strict_margin * scale if c["strict"] else -psd_tol * scale
        checks.append(ConstraintCheck("psd" if c["sense"] > 0 else "nsd",
                                      wmin >= thr, wmin, scale, c["strict"]))
    for fn in problem.eqs:
        E = np.asarray(fn(values), float)
        resid = float(np.linalg.norm(E))
        zero_vals = {v.name: np.zeros((v.n, v.n)) if isinstance(v, SymVar)
                     else np.zeros((v.p, v.q)) for v in problem.variables}
        scale = max(1.0, float(np.linalg.norm(np.asarray(fn(zero_vals), float))),
                    *(float(np.linalg.norm(values[v.name])) for v in problem.variables))
        ok = resid <= eq_tol * (1.0 + scale)
        checks.append(ConstraintCheck("zero", ok, -resid, scale))
    return CertificateReport(all(c.ok for c in checks), checks)


def finsler_tau(M, N, tol=1e-8) -> float:
    """Smallest tau (within bisection tol) with N + tau M positive semidefinite.

    Requires M PSD and N PSD on the kernel of M; otherwise no finite tau
    exists and a ValueError is raised.
    """
    M = np.asarray(M, float)
    N = np.asarray(N, float)
    wM, VM = numerics.eig_symmetric(M, vectors=True)
    sM = max(1.0, float(np.abs(wM).max()) if wM.size else 1.0)
    if wM.size and wM[0] < -1e-9 * sM:
        raise ValueError("first argument is not positive semidefinite")
    ker = VM[:, wM <= 1e-9 * sM]
    if ker.size:
        wk = numerics.eig_symmetric(ker.T @ N @ ker)
        if wk[0] < -1e-9 * max(1.0, np.linalg.norm(N)):
            raise ValueError("second argument is indefinite on the kernel; no finite tau exists")
    if numerics.eig_symmetric(N)[0] >= 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while numerics.eig_symmetric(N + hi * M)[0] < 0:
        hi *= 2.0
        if hi > 1e16:
            raise ValueError("no finite tau found")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if numerics.eig_symmetric(N + mid * M)[0] >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def ni_problem(A, B, C) -> LmiProblem:
    """Certificate problem for the negative-imaginary lemma on (A, B, C):
    find Y > 0 with A Y + Y A^T <= 0 and B + A Y C^T = 0.

    The Lyapunov block is necessarily singular along C^T w for w in the
    kernel of sym(CB); those directions are declared as boundary kernel so
    the solver pins them exactly and optimizes on the complement.
    """
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    C = np.asarray(C, float)
    prob = LmiProblem([SymVar("Y", A.shape[0])])
    CB = C @ B
    S = CB + CB.T
    w_, V_ = np.linalg.eigh(0.5 * (S + S.T))
    ker = V_[:, np.abs(w_) <= 1e-10 * max(1.0, np.abs(w_).max())] if w_.size else V_
    Q = C.T @ ker if ker.size else None
    if Q is not None and (Q.size == 0 or np.linalg.norm(Q) < 1e-14):
        Q = None
    prob.require_psd(lambda v: v["Y"], strict=True)
    prob.require_nsd(lambda v: A @ v["Y"] + v["Y"] @ A.T, boundary_kernel=Q)
    prob.require_zero(lambda v: B + A @ v["Y"] @ C.T)
    return prob

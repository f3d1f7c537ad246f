"""Feasibility solver and certificate checks for small dense LMI systems.

`solve_feasibility` extracts the affine structure of every constraint by
basis evaluation, eliminates the equalities by SVD, deflates the declared
boundary kernels, and then runs one log-barrier path-following method
(Vandenberghe & Boyd, SIAM Review 1996; Boyd & Vandenberghe, Convex
Optimization, ch. 11) on the reduced blocks: maximize the scaled margin t of
the blocks, with t <= 1 and the free coordinates in a ball. Phase 0 lifts
every block until the non-strict ones are within tolerance; phase 1 holds
those there and maximizes the margin of the strict blocks. A solve ends in
one of three ways: a point that passes the acceptance test on the original,
undeflated blocks; a dual (Farkas) certificate, independent of the ball,
whose bound lies below the acceptance floor; or a fixed budget of Newton
steps. Deterministic, no RNG, no wall clock.

Problems here have a few hundred scalar unknowns at most; everything is dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics

PSD_TOL = 1e-9         # acceptance floor of non-strict blocks, relative to scale
STRICT_MARGIN = 1e-8   # acceptance floor of strict blocks, relative to scale
HOLD = PSD_TOL / 2     # phase 1 holds non-strict blocks at -HOLD s I
MAX_NEWTON_STEPS = 200
MIN_GAP = 1e-12        # barrier gap below which double precision has nothing left to give
MU = 10.0              # barrier weight growth per centering
BALL = (1e2, 1e6)      # |xi| <= R = BALL * max(1, |x_p|): start, widest


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
    """How a solve ended. reason is "certificate" (feasible: values pass the
    acceptance test), "infeasible" (dual holds the Farkas matrices, one per
    cone in its sense-adjusted coordinates, whose bound margin lies below the
    acceptance floor), "budget exhausted" (MAX_NEWTON_STEPS Newton steps, or
    double precision spent), or names the inconsistent equalities. margin is
    the lifted blocks' scaled floor t at the last iterate, or the dual bound
    when infeasible; iters counts Newton steps."""

    feasible: bool
    values: dict | None
    margin: float
    iters: int
    eq_residual: float
    reason: str | None = None
    dual: list | None = None


def _complement(Q, m):
    """Orthonormal basis of the orthogonal complement of the columns of Q in R^m."""
    Qm = np.atleast_2d(np.asarray(Q, float))
    if Qm.shape[0] != m:
        Qm = Qm.T
    U, s, _ = np.linalg.svd(Qm, full_matrices=True)
    r = int(np.sum(s > max(Qm.shape) * np.finfo(float).eps * (s[0] if s.size else 1)))
    return Qm, U[:, r:]


def solve_feasibility(problem: LmiProblem) -> SolveResult:
    """Search for a feasible point of the problem.

    Acceptance: every non-strict cone block has min eigenvalue
    >= -PSD_TOL * scale and every strict block >= STRICT_MARGIN * scale,
    with scale = max(1, ||block||_F). Infeasibility is reported only with a
    dual certificate: PSD matrices W_i, one per cone in its sense-adjusted
    coordinates, such that sum_i <W_i, F_i(x)> is constant where the
    equalities hold and bounds the blocks' scaled margin below the floor of
    the phase that found it (-HOLD/2 over all blocks in phase 0,
    STRICT_MARGIN over the strict blocks in phase 1).
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
        Hkf = np.tensordot(Z.T, Fj, axes=(1, 0))
        full.append(dict(H0=H0f, Hk=Hkf, strict=c["strict"]))
        if P is not None:
            H0 = P.T @ H0f @ P
            Hk = P.T @ Hkf @ P
        else:
            H0, Hk = H0f, Hkf
        s_i = max(1.0, np.linalg.norm(H0),
                  max((np.linalg.norm(Hk[j]) for j in range(k)), default=0.0))
        red.append(dict(H0=H0, Hk=Hk, strict=c["strict"], s=s_i))

    def block(d, xi):
        return d["H0"] + np.tensordot(xi, d["Hk"], axes=(0, 0))

    def accepted(xi):
        for d in full:
            if not d["H0"].size:
                continue
            M = block(d, xi)
            scale = max(1.0, np.linalg.norm(M))
            thr = STRICT_MARGIN * scale if d["strict"] else -PSD_TOL * scale
            if np.linalg.eigvalsh(M)[0] < thr:
                return False
        return True

    def lowest(d, xi):
        return np.linalg.eigvalsh(block(d, xi))[0] / d["s"]

    # Barrier path-following on  max t  s.t.  G_i = block_i + c_i I - w_i t s_i I >= 0,
    # t <= 1, |xi| <= R.  Phase 0 lifts every block (w = 1, c = 0) until the
    # non-strict ones clear -HOLD/2; phase 1 holds those at -HOLD (c = HOLD s,
    # w = 0) and lifts the strict blocks alone.
    live = [(i, d) for i, d in enumerate(red) if d["H0"].size]
    theta = sum(d["H0"].shape[0] for _, d in live) + 2
    R2, R2max = (np.array(BALL) * max(1.0, np.linalg.norm(xp))) ** 2
    xi, t, tau, phase, steps = np.zeros(k), None, None, 0, 0
    w = np.ones(len(live))
    c = np.zeros(len(live))

    def result(ok, margin, reason, dual=None):
        x = xp + Z @ xi
        return SolveResult(ok, problem.unpack(x), float(margin), steps,
                           float(np.linalg.norm(L @ x - r)), reason, dual)

    while True:
        if phase == 0 and all(lowest(d, xi) >= -HOLD / 2 for _, d in live if not d["strict"]):
            phase, t = 1, None
            w = np.array([float(d["strict"]) for _, d in live])
            c = np.array([0.0 if d["strict"] else HOLD * d["s"] for _, d in live])
        if t is None:
            # strictly feasible start: t one unit below the lowest lifted block
            tmin = min((lowest(d, xi) for (_, d), wi in zip(live, w) if wi), default=1.0)
            t, tau = min(tmin, 1.0) - 1.0, None
        elif phase == 1 and t >= theta / tau and accepted(xi):  # t within 2x of its optimum
            return result(True, t, "certificate")
        if steps == MAX_NEWTON_STEPS or (tau and theta / tau < MIN_GAP):
            return result(False, t, "budget exhausted")

        # Newton step on  -tau t - sum log det G_i - log(1 - t) - log(R^2 - |xi|^2);
        # with G = L L^T the Schur matrix is the Gram matrix of L^-1 D_j L^-T
        g = np.zeros(k + 1)
        H = np.zeros((k + 1, k + 1))
        hats = []
        for (_, d), wi, ci in zip(live, w, c):
            m = d["H0"].shape[0]
            G = block(d, xi) + (ci - wi * t * d["s"]) * np.eye(m)
            try:
                Li = np.linalg.inv(np.linalg.cholesky(G))
            except np.linalg.LinAlgError:
                # a slack below the rounding of the block: precision is spent
                return result(False, t, "budget exhausted")
            Hh = np.concatenate([Li @ d["Hk"] @ Li.T, (-wi * d["s"] * (Li @ Li.T))[None]])
            F = Hh.reshape(k + 1, m * m)
            g -= np.trace(Hh, axis1=1, axis2=2)
            H += F @ F.T
            hats.append((Li, Hh))
        if tau is None:
            tau = g[k] + 1.0 / (1.0 - t)  # centered in t
        rho = R2 - xi @ xi
        g[:k] += 2.0 * xi / rho
        H[:k, :k] += 2.0 / rho * np.eye(k) + 4.0 / rho ** 2 * np.outer(xi, xi)
        g[k] += 1.0 / (1.0 - t) - tau
        H[k, k] += 1.0 / (1.0 - t) ** 2
        # Jacobi-scaled; the 1e-13 floor keeps the solve defined where the
        # barrier's curvature near the optimum outruns double precision
        sc = 1.0 / np.sqrt(np.diag(H))
        step = -sc * np.linalg.solve(H * np.outer(sc, sc) + 1e-13 * np.eye(k + 1), sc * g)
        dec = -g @ step
        dG = [np.tensordot(step, Hh, axes=(0, 0)) for _, Hh in hats]
        gam = [np.linalg.eigvalsh(x) for x in dG]

        floor = -HOLD / 2 if phase == 0 else STRICT_MARGIN
        if dec < 1.0 and t + theta / tau < floor:
            # Farkas candidate: the dual point of the Newton step,
            # Z_i = L^-T (I - sum_j step_j Hh_j) L^-1 / tau, PSD inside the
            # Dikin ellipsoid. Its pairing with the Hk_j is the ball's pull;
            # cancel it in Z's own metric, Z_i -= Z_i S_i Z_i with
            # S_i = sum_j a_j Hk_ij, which barely moves Z where Z is small
            # (the range of a recession direction of the blocks)
            Zs = [Li.T @ (np.eye(len(Li)) - x) @ Li / tau for (Li, _), x in zip(hats, dG)]
            if k:
                ZH = [Zi @ d["Hk"] for (_, d), Zi in zip(live, Zs)]
                pull = sum(np.einsum('jaa->j', x) for x in ZH)
                MZ = sum(np.tensordot(x, x, axes=([1, 2], [2, 1])) for x in ZH)
                coef = np.linalg.lstsq(MZ, pull, rcond=None)[0]
                Zs = [Zi - np.tensordot(coef, x, axes=(0, 0)) @ Zi for Zi, x in zip(Zs, ZH)]
            Zs = [0.5 * (Zi + Zi.T) for Zi in Zs]
            pull = sum(np.tensordot(d["Hk"], Zi, axes=([1, 2], [0, 1])) for (_, d), Zi in zip(live, Zs))
            norm = sum(wi * d["s"] * np.trace(Zi) for (_, d), wi, Zi in zip(live, w, Zs))
            size = sum(d["s"] * np.linalg.norm(Zi) for (_, d), Zi in zip(live, Zs))
            if (norm > 0 and np.linalg.norm(pull) <= PSD_TOL * size
                    and all(np.linalg.eigvalsh(Zi)[0] >= -1e-12 * np.linalg.norm(Zi) for Zi in Zs)):
                # no pull left: the ball's multiplier is zero and
                # sum_i <Z_i, G_i> = b norm - t norm >= 0 bounds t on all of R^k
                b = sum(np.vdot(Zi, d["H0"]) + ci * np.trace(Zi)
                        for (_, d), ci, Zi in zip(live, c, Zs)) / norm
                if b < floor:
                    dual = [np.zeros((cn["m"], cn["m"])) for cn in cones]
                    for (i, _), Zi in zip(live, Zs):
                        P = cones[i]["P"]
                        dual[i] = (Zi if P is None else P @ Zi @ P.T) / norm
                    return result(False, b, "infeasible", dual)
            if xi @ xi > R2 / 2 and R2 < R2max:
                # no proof while the iterate leans on the ball: widen it
                R2 *= 100.0

        # backtracking on the exact barrier along the step, inside the domain
        dxi, dt = step[:k], step[k]
        amax = min([np.inf] + [-1.0 / x[0] for x in gam if x[0] < 0] + ([(1.0 - t) / dt] if dt > 0 else []))
        a2, a1 = dxi @ dxi, 2.0 * xi @ dxi
        if a2 > 0:
            amax = min(amax, (-a1 + np.sqrt(a1 * a1 + 4.0 * a2 * rho)) / (2.0 * a2))
        a = min(1.0, 0.99 * amax)

        def drop(a):
            return (-tau * a * dt - sum(np.log1p(a * x).sum() for x in gam)
                    - np.log1p(-a * dt / (1.0 - t)) - np.log1p(-(a * a1 + a * a * a2) / rho))
        while dec > 0.25 and drop(a) > -0.25 * a * dec:
            a *= 0.5
        xi, t, steps = xi + a * dxi, t + a * dt, steps + 1
        if dec <= 0.25:
            tau *= MU


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


def verify_certificate(problem: LmiProblem, values: dict, psd_tol=PSD_TOL,
                       strict_margin=STRICT_MARGIN, eq_tol=1e-8) -> CertificateReport:
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

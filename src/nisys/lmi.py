"""Feasibility solver and certificate checks for small dense LMI systems.

`solve_feasibility` unpacks the variables at 0 and at each unit vector once,
reads the affine form of every constraint off its values there, eliminates
the equalities by SVD, deflates the declared boundary kernels, and then runs
one log-barrier path-following method (Vandenberghe & Boyd, SIAM Review
1996; Boyd & Vandenberghe, Convex Optimization, ch. 11) on the reduced
blocks, the only copy of them kept: maximize the scaled margin t of the
blocks, with t <= 1 and the free coordinates in a ball. The blocks are
stacked into one array, each padded to the largest size, so a Newton step
factors, inverts and bounds every cone in one batched call of each. Phase 0 lifts every block until the non-strict ones
are within tolerance; phase 1 holds those there and maximizes the margin of
the strict blocks. A solve ends in one of three ways: a point at which the
problem's own constraint functions pass the cone test of
`verify_certificate`; a dual (Farkas) certificate, independent of the ball,
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


def _pinned_directions(B, C):
    """Q = C^T ker(sym(CB)), the state directions along which a block
    A Y + Y A^T with B + A Y C^T = 0 is singular (eigenvalues of CB + (CB)^T
    below 1e-10 of the largest read as zero); None when Q is empty or below
    a norm of 1e-14."""
    CB = C @ B
    w, V = np.linalg.eigh(CB + CB.T)
    Q = C.T @ V[:, np.abs(w) <= 1e-10 * max(1.0, np.abs(w).max(initial=0.0))]
    if Q.size == 0 or np.linalg.norm(Q) < 1e-14:
        return None
    return Q


def _affine(f, units, sym=False):
    """(F0, Fj) with f(v) = F0 + sum_j x_j Fj[j], read off f at units[0], the
    variable values at x = 0, and at units[1 + j], those at the j-th unit
    vector of R^dim. sym=True symmetrizes F0 before it is subtracted, and
    each Fj. A solve unpacks the unit vectors once, for all its constraints."""
    F0 = np.asarray(f(units[0]), float)
    if sym:
        F0 = 0.5 * (F0 + F0.T)
    Fj = np.empty((len(units) - 1,) + F0.shape)
    for j, v in enumerate(units[1:]):
        Fj[j] = f(v)
    Fj -= F0
    if sym:
        Fj += Fj.swapaxes(1, 2)
        Fj *= 0.5
    return F0, Fj


def solve_feasibility(problem: LmiProblem) -> SolveResult:
    """Search for a feasible point of the problem.

    Acceptance is the cone test of `verify_certificate` on the problem's own
    constraint functions at the point: every non-strict cone block has min
    eigenvalue >= -PSD_TOL * scale and every strict block >= STRICT_MARGIN *
    scale, with scale = max(1, ||block||_F). Infeasibility is reported only
    with a dual certificate: PSD matrices W_i, one per cone in its
    sense-adjusted coordinates, such that sum_i <W_i, F_i(x)> is constant
    where the equalities hold and bounds the blocks' scaled margin below the
    floor of the phase that found it (-HOLD/2 over all blocks in phase 0,
    STRICT_MARGIN over the strict blocks in phase 1).
    """
    N = problem.dim
    # affine forms F(x) = F0 + sum_j x_j Fj, read off the variable values at
    # 0 and at each unit vector, unpacked once from the rows of one array
    # (a RectVar value is a view of its row); the kernel directions of
    # boundary-pinned cones become equalities, rows F(x) Q = 0
    units = [problem.unpack(x) for x in np.eye(N + 1, N, -1)]
    cones, eqs = [], [_affine(fn, units) for fn in problem.eqs]
    for c in problem.cones:
        F0, Fj = _affine(lambda v: c["sense"] * np.asarray(c["fn"](v), float), units, sym=True)
        P = None
        if c["kernel"] is not None and np.size(c["kernel"]):
            Qm, P = _complement(c["kernel"], F0.shape[0])
            eqs.append((F0 @ Qm, Fj @ Qm))
        cones.append(dict(F0=F0, Fj=Fj, strict=c["strict"], P=P, m=F0.shape[0]))
    del units
    if eqs:
        L = np.vstack([Ej.reshape(N, -1).T for _, Ej in eqs])
        r = -np.concatenate([E0.ravel() for E0, _ in eqs])
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
    k = Z.shape[1]

    # the reduced (deflated) blocks drive the optimizer, and are the only
    # copy kept: the affine forms go as each is reduced
    red = []
    for c in cones:
        F0, Fj, P = c.pop("F0"), c.pop("Fj"), c["P"]
        H0 = F0 + np.tensordot(xp, Fj, axes=(0, 0))
        Hk = np.tensordot(Z.T, Fj, axes=(1, 0))
        del F0, Fj
        if P is not None:
            H0, Hk = P.T @ H0 @ P, P.T @ Hk @ P
        s_i = max(1.0, np.linalg.norm(H0),
                  max((np.linalg.norm(Hk[j]) for j in range(k)), default=0.0))
        red.append((H0, Hk, c["strict"], s_i))

    # one stack of the nonempty blocks, each padded to the largest size mb:
    # H0 (nb, mb, mb) with the identity on its padding, so G has it there
    # too, and Hk (nb, k, mb, mb) with zeros, so a step's dG has eigenvalue
    # 0 there
    live = [i for i, (H0, *_) in enumerate(red) if H0.size]
    nb = len(live)
    ms = np.array([red[i][0].shape[0] for i in live], int)
    mb = int(ms.max(initial=0))
    strict = np.array([red[i][2] for i in live], bool)
    s = np.array([red[i][3] for i in live], float)
    own = np.arange(mb) < ms[:, None]          # each block's own diagonal
    own2 = own[:, :, None] & own[:, None, :]   # and its own entries
    I_own = own[:, :, None] * np.eye(mb)
    H0 = np.eye(mb) - I_own
    Hk = np.zeros((nb, k, mb, mb))
    for b, i in enumerate(live):
        m = ms[b]
        H0[b, :m, :m], Hk[b, :, :m, :m] = red[i][:2]
        red[i] = None
    del red
    Hk2 = Hk.reshape(nb, k, mb * mb)

    def blocks(x):
        return H0 + (x @ Hk2).reshape(nb, mb, mb)

    def lowest(x, which):
        """Lowest eigenvalue over scale of the chosen blocks, each read off
        its own slice: a pad eigenvalue would cap it."""
        B = blocks(x)
        return np.array([np.linalg.eigvalsh(B[b, :ms[b], :ms[b]])[0] / s[b]
                         for b in np.flatnonzero(which)])

    # Barrier path-following on  max t  s.t.  G_i = block_i + c_i I - w_i t s_i I >= 0,
    # t <= 1, |xi| <= R.  Phase 0 lifts every block (w = 1, c = 0) until the
    # non-strict ones clear -HOLD/2; phase 1 holds those at -HOLD (c = HOLD s,
    # w = 0) and lifts the strict blocks alone.
    theta = int(ms.sum()) + 2
    R2, R2max = (np.array(BALL) * max(1.0, np.linalg.norm(xp))) ** 2
    xi, t, tau, phase, steps = np.zeros(k), None, None, 0, 0
    w = np.ones(nb)
    c = np.zeros(nb)
    # the scaled blocks L^-1 D_j L^-T of a step, j < k, and of t last
    Hh = np.empty((nb, k + 1, mb, mb))

    def result(ok, margin, reason, dual=None):
        x = xp + Z @ xi
        return SolveResult(ok, problem.unpack(x), float(margin), steps,
                           float(np.linalg.norm(L @ x - r)), reason, dual)

    while True:
        if phase == 0 and np.all(lowest(xi, ~strict) >= -HOLD / 2):
            phase, t = 1, None
            w = strict.astype(float)
            c = np.where(strict, 0.0, HOLD * s)
        if t is None:
            # strictly feasible start: t one unit below the lowest lifted block
            tmin = lowest(xi, w > 0).min(initial=1.0)
            t, tau = min(tmin, 1.0) - 1.0, None
        elif phase == 1 and t >= theta / tau and all(  # t within 2x of its optimum
                ch.ok for ch in _cone_checks(problem, problem.unpack(xp + Z @ xi))):
            return result(True, t, "certificate")
        if steps == MAX_NEWTON_STEPS or (tau and theta / tau < MIN_GAP):
            return result(False, t, "budget exhausted")

        # Newton step on  -tau t - sum log det G_i - log(1 - t) - log(R^2 - |xi|^2);
        # with G = L L^T the Schur matrix is the Gram matrix of L^-1 D_j L^-T.
        # One batched Cholesky and inverse serve every block
        G = blocks(xi) + (c - w * t * s)[:, None, None] * I_own
        try:
            Li = np.linalg.inv(np.linalg.cholesky(G))
        except np.linalg.LinAlgError:
            # a slack below the rounding of a block: precision is spent
            return result(False, t, "budget exhausted")
        LiT = Li.swapaxes(1, 2)
        np.multiply(Li @ LiT, -(w * s)[:, None, None] * own2, out=Hh[:, k])
        H = np.zeros((k + 1, k + 1))
        for b in range(nb):
            # block by block, so Li Hk Li^T's temporary stays one block in size
            np.matmul(Li[b] @ Hk[b], LiT[b], out=Hh[b, :k])
            F = Hh[b].reshape(k + 1, mb * mb)
            H += F @ F.T
        g = -np.trace(Hh, axis1=2, axis2=3).sum(axis=0)
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
        dG = (step @ Hh.reshape(nb, k + 1, mb * mb)).reshape(nb, mb, mb)
        gam = np.linalg.eigvalsh(dG)

        floor = -HOLD / 2 if phase == 0 else STRICT_MARGIN
        if dec < 1.0 and t + theta / tau < floor:
            # Farkas candidate: the dual point of the Newton step,
            # Z_i = L^-T (I - sum_j step_j Hh_j) L^-1 / tau, PSD inside the
            # Dikin ellipsoid, with its padding masked to zero. Its pairing
            # with the Hk_j is the ball's pull; cancel it in Z's own metric,
            # Z_i -= Z_i S_i Z_i with S_i = sum_j a_j Hk_ij, which barely
            # moves Z where Z is small (the range of a recession direction
            # of the blocks)
            Zs = own2 * (LiT @ (np.eye(mb) - dG) @ Li) / tau
            if k:
                ZH = Zs[:, None] @ Hk
                pull = np.einsum('bjaa->j', ZH)
                MZ = np.tensordot(ZH, ZH, axes=([0, 2, 3], [0, 3, 2]))
                coef = np.linalg.lstsq(MZ, pull, rcond=None)[0]
                Zs = Zs - (coef @ ZH.reshape(nb, k, mb * mb)).reshape(nb, mb, mb) @ Zs
                del ZH
            Zs = 0.5 * (Zs + Zs.swapaxes(1, 2))
            pull = (Hk2 @ Zs.reshape(nb, mb * mb, 1)).sum(axis=0)[:, 0]
            trZ = np.trace(Zs, axis1=1, axis2=2)
            norm = (w * s) @ trZ
            nZ = np.linalg.norm(Zs, axis=(1, 2))
            size = s @ nZ
            # the padding's eigenvalue 0 passes this test as the block would
            if (norm > 0 and np.linalg.norm(pull) <= PSD_TOL * size
                    and np.all(np.linalg.eigvalsh(Zs)[:, 0] >= -1e-12 * nZ)):
                # no pull left: the ball's multiplier is zero and
                # sum_i <Z_i, G_i> = b norm - t norm >= 0 bounds t on all of R^k
                b = (np.vdot(Zs, H0) + c @ trZ) / norm
                if b < floor:
                    dual = [np.zeros((cn["m"], cn["m"])) for cn in cones]
                    for i, Zi, m in zip(live, Zs, ms):
                        P = cones[i]["P"]
                        Zi = Zi[:m, :m]
                        dual[i] = (Zi if P is None else P @ Zi @ P.T) / norm
                    return result(False, b, "infeasible", dual)
            if xi @ xi > R2 / 2 and R2 < R2max:
                # no proof while the iterate leans on the ball: widen it
                R2 *= 100.0

        # backtracking on the exact barrier along the step, inside the
        # domain; the padding's eigenvalue 0 adds log1p(0) = 0 and no bound
        dxi, dt = step[:k], step[k]
        gmin = gam.min(initial=0.0)
        amax = -1.0 / gmin if gmin < 0 else np.inf
        if dt > 0:
            amax = min(amax, (1.0 - t) / dt)
        a2, a1 = dxi @ dxi, 2.0 * xi @ dxi
        if a2 > 0:
            amax = min(amax, (-a1 + np.sqrt(a1 * a1 + 4.0 * a2 * rho)) / (2.0 * a2))
        a = min(1.0, 0.99 * amax)

        def drop(a):
            return (-tau * a * dt - np.log1p(a * gam).sum()
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


def _cone_checks(problem, values, psd_tol=PSD_TOL, strict_margin=STRICT_MARGIN):
    """The cone test of `verify_certificate`: one ConstraintCheck per cone of
    the problem at the given values. An empty block has no eigenvalue, so it
    passes, with margin +inf."""
    checks = []
    for c in problem.cones:
        M = c["sense"] * np.asarray(c["fn"](values), float)
        M = 0.5 * (M + M.T)
        if M.size:
            wmin = float(numerics.eig_symmetric(M)[0])
            scale = max(1.0, float(np.linalg.norm(M)))
        else:
            wmin, scale = np.inf, 1.0
        thr = strict_margin * scale if c["strict"] else -psd_tol * scale
        checks.append(ConstraintCheck("psd" if c["sense"] > 0 else "nsd",
                                      wmin >= thr, wmin, scale, c["strict"]))
    return checks


def verify_certificate(problem: LmiProblem, values: dict, psd_tol=PSD_TOL,
                       strict_margin=STRICT_MARGIN, eq_tol=1e-8) -> CertificateReport:
    """Recompute every constraint of the problem at the given variable values.

    Independent of solver state: uses only the constraint functions and the
    supplied values. Cone blocks pass when the sense-adjusted smallest
    eigenvalue is >= -psd_tol * scale (non-strict) or >= strict_margin *
    scale (strict); equalities pass when the residual norm is
    <= eq_tol * (1 + scale). scale = max(1, ||block||_F).
    """
    checks = _cone_checks(problem, values, psd_tol, strict_margin)
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
    Q = _pinned_directions(B, C)
    prob.require_psd(lambda v: v["Y"], strict=True)
    prob.require_nsd(lambda v: A @ v["Y"] + v["Y"] @ A.T, boundary_kernel=Q)
    prob.require_zero(lambda v: B + A @ v["Y"] @ C.T)
    return prob

"""State-space and modal LTI system types plus interconnection algebra.

Systems are immutable value objects. All operations return new systems; a
StateSpace with n = 0 states is a static gain D. Facts of a system that do
not depend on a tolerance are computed at their first read and kept on it
(`_kept`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import NumericsError

# resolvent is treated as singular when the smallest singular value of
# (sI - A) drops below this times the largest
_RESOLVENT_RTOL = 1e-12


class LtiError(ValueError):
    pass


@dataclass(frozen=True)
class StateSpace:
    """Real state-space system (A, B, C, D), held as read-only copies of
    the caller's arrays.

    Each tol-free fact that a verdict reads is computed at its first read
    and kept on the system, read-only (`_kept`): the eigensystem of A, B
    and C projected on its basis, the balanced realization, the DC gain and
    the feedthrough's norm and sign (`lti`, `stability`); the pole status,
    the grouped modal residues, the modal term table (bound, note, stack
    of term matrices, their negative parts and sizes) and its SNI note,
    the finite zeros of Phi and Psi, and the breakpoint sweep (`analysis`).
    Every verdict is rebuilt from them at its own tol on each call."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.array(self.A, dtype=float))
        if A.size == 0:
            A = np.zeros((0, 0))
        if A.shape[0] != A.shape[1]:
            raise LtiError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        D = np.atleast_2d(np.array(self.D, dtype=float))
        B = np.atleast_2d(np.array(self.B, dtype=float))
        C = np.atleast_2d(np.array(self.C, dtype=float))
        if B.size == 0:
            B = np.zeros((n, D.shape[1]))
        if C.size == 0:
            C = np.zeros((D.shape[0], n))
        if B.ndim == 2 and B.shape[0] != n and B.shape[1] == n and B.shape[0] == 1:
            B = B.T  # accept a single input given as a row
        if B.shape[0] != n:
            raise LtiError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise LtiError(f"C has {C.shape[1]} columns, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise LtiError(f"D has shape {D.shape}, expected {(C.shape[0], B.shape[1])}")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            if not np.all(np.isfinite(M)):
                raise LtiError(f"{name} contains NaN or Inf entries")
            # copies, so that no edit of the caller's array leaves a kept fact stale
            M.flags.writeable = False
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def inputs(self) -> int:
        return self.B.shape[1]

    @property
    def outputs(self) -> int:
        return self.C.shape[0]

    @property
    def is_siso(self) -> bool:
        return self.inputs == 1 and self.outputs == 1

    def __call__(self, s):
        return evaluate(self, s)

    def __repr__(self):
        return f"StateSpace(n={self.n}, inputs={self.inputs}, outputs={self.outputs})"


def static_gain(D) -> StateSpace:
    D = np.atleast_2d(np.asarray(D, dtype=float))
    return StateSpace(np.zeros((0, 0)), np.zeros((0, D.shape[1])), np.zeros((D.shape[0], 0)), D)


@dataclass(frozen=True)
class ModalModel:
    """Truncated modal model: a sum of resonant terms psi_i psi_i^T weighted
    by 1/(s^2 + kappa_i s + omega_i^2) for position output, or by
    s/(s^2 + kappa_i s + omega_i^2) for velocity output.
    """

    modes: tuple  # of (omega, kappa, psi)
    output: str = "position"
    channels: int = field(default=0)

    def __post_init__(self):
        if self.output not in ("position", "velocity"):
            raise LtiError("output must be 'position' or 'velocity'")
        norm = []
        m = None
        for omega, kappa, psi in self.modes:
            omega = float(omega)
            kappa = float(kappa)
            psi = np.ravel(np.asarray(psi, dtype=float))
            if omega <= 0 or kappa <= 0:
                raise LtiError("modal frequencies and damping coefficients must be positive")
            if not np.all(np.isfinite(psi)):
                raise LtiError("mode shape contains NaN or Inf")
            if m is None:
                m = psi.size
            elif psi.size != m:
                raise LtiError("all mode shapes must have the same length")
            norm.append((omega, kappa, psi))
        if not norm:
            raise LtiError("at least one mode is required")
        object.__setattr__(self, "modes", tuple(norm))
        object.__setattr__(self, "channels", m)

    def eval_sum(self, s):
        """Direct evaluation of the modal sum, independent of any realization."""
        s = complex(s)
        m = self.channels
        P = np.zeros((m, m), dtype=complex)
        for omega, kappa, psi in self.modes:
            den = s * s + kappa * s + omega * omega
            num = s if self.output == "velocity" else 1.0
            P += (num / den) * np.outer(psi, psi)
        return P


def modal_to_ss(model: ModalModel) -> StateSpace:
    """Block-diagonal realization, one 2x2 companion block per mode."""
    m = model.channels
    k = len(model.modes)
    A = np.zeros((2 * k, 2 * k))
    B = np.zeros((2 * k, m))
    C = np.zeros((m, 2 * k))
    sel = np.array([1.0, 0.0]) if model.output == "position" else np.array([0.0, 1.0])
    for i, (omega, kappa, psi) in enumerate(model.modes):
        r = 2 * i
        A[r, r + 1] = 1.0
        A[r + 1, r] = -omega * omega
        A[r + 1, r + 1] = -kappa
        B[r + 1, :] = psi
        C[:, r:r + 2] = np.outer(psi, sel)
    return StateSpace(A, B, C, np.zeros((m, m)))


def evaluate(sys: StateSpace, s) -> np.ndarray:
    """Transfer matrix C (sI - A)^{-1} B + D at the complex point s."""
    s = complex(s)
    if sys.n == 0:
        return sys.D.astype(complex)
    R = s * np.eye(sys.n) - sys.A
    sv = np.linalg.svd(R, compute_uv=False)
    if sv[-1] <= _RESOLVENT_RTOL * max(sv[0], 1.0):
        raise LtiError(f"evaluation point s={s} is at or numerically near a pole")
    return sys.C @ np.linalg.solve(R, sys.B.astype(complex)) + sys.D


def add(sys1: StateSpace, sys2: StateSpace) -> StateSpace:
    """Parallel sum: same input applied to both, outputs added."""
    if sys1.inputs != sys2.inputs or sys1.outputs != sys2.outputs:
        raise LtiError("parallel sum requires matching I/O dimensions")
    n1, n2 = sys1.n, sys2.n
    A = np.block([[sys1.A, np.zeros((n1, n2))], [np.zeros((n2, n1)), sys2.A]])
    B = np.vstack([sys1.B, sys2.B])
    C = np.hstack([sys1.C, sys2.C])
    return StateSpace(A, B, C, sys1.D + sys2.D)


def paraconjugate_transpose(sys: StateSpace) -> StateSpace:
    """Realization of M^T(-s): (-A^T, C^T, -B^T, D^T)."""
    return StateSpace(-sys.A.T, sys.C.T, -sys.B.T, sys.D.T)


def _kept(sys: StateSpace, key: str, make):
    """The fact make() of sys, computed at the first call and kept in
    sys.__dict__[key], with every array in it (also in nested tuples)
    read-only. A kept fact holds no tolerance: each verdict compares it
    with its own tol on every call."""
    d = sys.__dict__
    if key not in d:
        d[key] = _frozen(make())
    return d[key]


def _frozen(x):
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, tuple):
        for y in x:
            _frozen(y)
    return x


def eigensystem(sys: StateSpace):
    """(poles, basis) of `numerics.eigendecomposition(A)`, kept (`_kept`):
    the pole test, every frequency sweep and the zeros of Phi read this one
    decomposition."""
    return _kept(sys, "_eig", lambda: numerics.eigendecomposition(sys.A))


def _projection(sys: StateSpace):
    """(W, CV) = (V^{-1} B, C V): B and C projected onto the basis of the
    kept `eigensystem`, of a system whose A has one, kept. `dc_gain` and the
    modal residues (`analysis._residues`) read this one projection."""
    def make():
        V, Vi, _ = eigensystem(sys)[1]
        return Vi @ sys.B, sys.C @ V
    return _kept(sys, "_proj", make)


def _balanced(sys: StateSpace):
    """(Ab, Bb, Cb, T): the realization in the coordinates of
    `numerics.balance(A)`, Ab = T^{-1} A T, Bb = T^{-1} B and Cb = C T,
    kept: `is_minimal` tests it and `check_ni_lmi` solves in it."""
    def make():
        Ab, T = numerics.balance(sys.A)
        t = np.diag(T)
        return Ab, sys.B / t[:, None], sys.C * t[None, :], T
    return _kept(sys, "_bal", make)


def poles(sys: StateSpace) -> np.ndarray:
    """Eigenvalues of A, read-only, from the kept `eigensystem`."""
    return eigensystem(sys)[0]


def dc_gain(sys: StateSpace) -> np.ndarray:
    """D - C A^{-1} B, kept (`_kept`); each call returns a copy. A pole at
    the origin is an error, not infinity.

    Read from the kept `eigensystem` and its kept `_projection` as
    D - (C V) diag(1/lam) (V^{-1} B) when its error bound
    cond(V) max|lam| / min|lam| is at most `numerics.COND_LIMIT`; otherwise,
    and without an eigenbasis, from a conditioned solve with A."""
    return _kept(sys, "_dc", lambda: _dc_gain(sys)).copy()


def _dc_gain(sys):
    if sys.n == 0:
        return sys.D
    lam, basis = eigensystem(sys)
    if basis is not None:
        mag = np.abs(lam)
        if mag.min() > 0 and basis[2] * mag.max() <= numerics.COND_LIMIT * mag.min():
            W, CV = _projection(sys)
            return sys.D - (CV / lam @ W).real
    try:
        X = numerics.solve(sys.A, sys.B)
    except NumericsError as e:
        raise LtiError(f"dc gain undefined, A is singular or near-singular ({e})") from e
    return sys.D - sys.C @ X


def inf_gain(sys: StateSpace) -> np.ndarray:
    return sys.D.copy()


def is_minimal(sys: StateSpace, rtol: float = 1e-8) -> bool:
    """Popov-Belevitch-Hautus tests: [A - lam I, B] and [A - lam I; C] have
    rank n at every eigenvalue lam of A. Done in balanced coordinates, where
    the tests are well scaled for lightly damped modes far apart in
    frequency; a Krylov matrix of such a system is too ill-conditioned to
    rank; the balanced realization is the kept `_balanced`. The conjugate of
    lam gives the conjugate test, so one eigenvalue of each pair is tested.

    With A = V diag(lam) V^{-1} well conditioned (`eigendecomposition`),
    the tests read each cluster K of eigenvalues equal to within rtol ||A||:
    C V_K and U_K B (unit right and left eigenvectors) must have |K|
    singular values above rtol ||C|| and rtol ||B||. Each mode is so
    measured on its own scale, not against ||A - lam I||, under which a fast
    mode's small position output falls. A defective or nearly defective A takes the rank
    of the PBH matrices, smallest singular value above rtol times the
    largest."""
    n = sys.n
    if n == 0:
        return True
    Ab, Bb, Cb, _ = _balanced(sys)
    lam, basis = numerics.eigendecomposition(Ab)
    if basis is not None:
        V, U, _ = basis
        U = U / np.linalg.norm(U, axis=1)[:, None]
        near = rtol * np.linalg.norm(Ab, 1)
        for li in lam[lam.imag >= 0]:
            K = np.abs(lam - li) <= near
            for M, scale in ((Cb @ V[:, K], np.linalg.norm(Cb)),
                             (U[K] @ Bb, np.linalg.norm(Bb))):
                sv = np.linalg.svd(M, compute_uv=False)
                if sv.size < K.sum() or sv[-1] <= rtol * scale:
                    return False
        return True
    for li in lam[lam.imag >= 0]:
        R = Ab - li * np.eye(n)
        for M in (np.hstack([R, Bb]), np.vstack([R, Cb])):
            sv = np.linalg.svd(M, compute_uv=False)
            if sv[n - 1] <= rtol * sv[0]:
                return False
    return True


def diagonal_replicate(siso_sys: StateSpace, m: int) -> StateSpace:
    """Block-diagonal m copies of a SISO system, realizing M(s) * I_m."""
    if not siso_sys.is_siso:
        raise LtiError("diagonal_replicate requires a SISO system")
    if m < 1:
        raise LtiError("replication order must be >= 1")
    A = np.kron(np.eye(m), siso_sys.A) if siso_sys.n else np.zeros((0, 0))
    B = np.kron(np.eye(m), siso_sys.B)
    C = np.kron(np.eye(m), siso_sys.C)
    D = np.kron(np.eye(m), siso_sys.D)
    return StateSpace(A, B, C, D)


def _well_posed_inverse(E):
    # singular loop-elimination matrix means an algebraic loop
    sv = np.linalg.svd(E, compute_uv=False)
    if sv.size and sv[-1] <= 1e-10 * max(1.0, sv[0]):
        raise LtiError("interconnection is ill-posed (algebraic loop)")
    return np.linalg.inv(E)


def positive_feedback(M: StateSpace, N: StateSpace) -> StateSpace:
    """Two-port closure of the positive-feedback loop of M and N.

    Inputs (w1, w2) enter as u1 = w1 + y2 and u2 = w2 + y1 with y1 = M u1,
    y2 = N u2; outputs are (y1, y2). For square M, N of size m the result is
    the 2m x 2m interconnection transfer matrix with blocks
    M(I-NM)^{-1}, M(I-NM)^{-1}N, N(I-MN)^{-1}M, N(I-MN)^{-1}.
    """
    if M.inputs != N.outputs or M.outputs != N.inputs:
        raise LtiError("feedback loop requires M: p x m against N: m x p")
    Am, Bm, Cm, Dm = M.A, M.B, M.C, M.D
    An, Bn, Cn, Dn = N.A, N.B, N.C, N.D
    nm = M.n
    m = M.inputs
    E = _well_posed_inverse(np.eye(m) - Dn @ Dm)
    # y1 = C1y [xm; xn] + D1y [w1; w2]
    C1y = np.hstack([Cm + Dm @ E @ Dn @ Cm, Dm @ E @ Cn])
    D1y = np.hstack([Dm @ E, Dm @ E @ Dn])
    C2y = np.hstack([Dn @ C1y[:, :nm], Cn + Dn @ C1y[:, nm:]])
    D2y = np.hstack([Dn @ D1y[:, :m], Dn + Dn @ D1y[:, m:]])
    A = np.block([
        [Am + Bm @ E @ Dn @ Cm, Bm @ E @ Cn],
        [Bn @ C1y[:, :nm], An + Bn @ C1y[:, nm:]],
    ])
    B = np.block([
        [Bm @ E, Bm @ E @ Dn],
        [Bn @ D1y[:, :m], Bn + Bn @ D1y[:, m:]],
    ])
    C = np.vstack([C1y, C2y])
    D = np.vstack([D1y, D2y])
    return StateSpace(A, B, C, D)


def star_product(M: StateSpace, N: StateSpace) -> StateSpace:
    """Redheffer star product of two partitioned two-port systems.

    M maps (w1, u1) to (y1, u2) and N maps (u2, w2) to (u1, y2); the inner
    signals u1, u2 are eliminated. Partitions split each system's inputs and
    outputs in half, so both must have even I/O counts.
    """
    if M.inputs % 2 or M.outputs % 2 or N.inputs % 2 or N.outputs % 2:
        raise LtiError("star product requires even input/output counts")
    mw = M.inputs // 2
    py = M.outputs // 2
    pu, mu = N.inputs // 2, N.outputs // 2
    if pu != py or mu != mw:
        raise LtiError("star product partitions are not conformable")
    Am, An = M.A, N.A
    nm = M.n
    Bm1, Bm2 = M.B[:, :mw], M.B[:, mw:]
    Cm1, Cm2 = M.C[:py, :], M.C[py:, :]
    Dm11, Dm12 = M.D[:py, :mw], M.D[:py, mw:]
    Dm21, Dm22 = M.D[py:, :mw], M.D[py:, mw:]
    Bn1, Bn2 = N.B[:, :pu], N.B[:, pu:]
    Cn1, Cn2 = N.C[:mu, :], N.C[mu:, :]
    Dn11, Dn12 = N.D[:mu, :pu], N.D[:mu, pu:]
    Dn21, Dn22 = N.D[mu:, :pu], N.D[mu:, pu:]
    E = _well_posed_inverse(np.eye(mu) - Dn11 @ Dm22)
    # u1 = Cu1 [xm; xn] + Du1 [w1; w2]; u2 follows from the M-side equations
    Cu1 = np.hstack([E @ Dn11 @ Cm2, E @ Cn1])
    Du1 = np.hstack([E @ Dn11 @ Dm21, E @ Dn12])
    Cu2 = np.hstack([Cm2 + Dm22 @ Cu1[:, :nm], Dm22 @ Cu1[:, nm:]])
    Du2 = np.hstack([Dm21 + Dm22 @ Du1[:, :mw], Dm22 @ Du1[:, mw:]])
    A = np.block([
        [Am + Bm2 @ Cu1[:, :nm], Bm2 @ Cu1[:, nm:]],
        [Bn1 @ Cu2[:, :nm], An + Bn1 @ Cu2[:, nm:]],
    ])
    B = np.block([
        [Bm1 + Bm2 @ Du1[:, :mw], Bm2 @ Du1[:, mw:]],
        [Bn1 @ Du2[:, :mw], Bn2 + Bn1 @ Du2[:, mw:]],
    ])
    C = np.vstack([
        np.hstack([Cm1 + Dm12 @ Cu1[:, :nm], Dm12 @ Cu1[:, nm:]]),
        np.hstack([Dn21 @ Cu2[:, :nm], Cn2 + Dn21 @ Cu2[:, nm:]]),
    ])
    D = np.vstack([
        np.hstack([Dm11 + Dm12 @ Du1[:, :mw], Dm12 @ Du1[:, mw:]]),
        np.hstack([Dn21 @ Du2[:, :mw], Dn22 + Dn21 @ Du2[:, mw:]]),
    ])
    return StateSpace(A, B, C, D)

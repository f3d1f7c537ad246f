"""Classification of LTI systems by frequency-domain sign properties.

Covers the negative-imaginary family (NI, strictly NI) and the positive-real
family (PR, strictly PR). The NI and SNI verdicts of record read the
transmission zeros of Phi(s) = M(s) - M^T(-s): the eigenvalues of
H(w) = j Phi(jw) change sign only at its imaginary-axis zeros, so H is
tested once between each pair of them (`check_ni`), and an NI system is SNI
iff Phi has no such zero away from s = 0 (`check_sni_zeros`).

The zeros come from the eigenbasis of A = V diag(lam) V^{-1}. When D and
every residue R_i = (C V)_i (V^{-1} B)_i are symmetric, as for collocated
plants and SISO ones, Phi(s) = 2s G(s^2) with
G(t) = sum_i R_i / (t - lam_i^2), and the zeros of G in t = s^2 are the
eigenvalues of a deflated matrix of order at most n (`_t_zeros`). Residues
of rank below m make H(w) singular at every w; G is then restricted to
their joint range. The QZ pencil of the doubled realization, of order
2n + m, is the fallback in three cases, each named in the verdict's `note`:
non-symmetric residues or D, no well-conditioned eigenbasis, and no
nonsingular leading Markov parameter of G.

PR and SPR are decided from one sweep of P(jw) + P(jw)^* on a grid: PR by
its sign, SPR by its strict sign at every w > 0 plus the limit conditions at
w = 0 and w -> infinity (`check_strictly_positive_real`). The NI lemma LMI
(`check_ni_lmi`) and the lag-augmentation sufficient conditions for
strictness are certificates on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lmi as lmimod
from . import numerics
from ._kernels import sweep_eigmin
from .lti import StateSpace, eigensystem, evaluate, is_minimal, poles

AXIS_TOL = 1e-7       # imaginary-axis decision band for poles and zeros
ORIGIN_TOL = 1e-8     # zeros with |z| below this count as the origin
NI_SWEEP_TOL = 1e-8   # relative, scaled by 1 + ||P(jw)||
SYM_TOL = 1e-8        # relative asymmetry of D and of each residue read as rounding
MARKOV_TOL = 1e-9     # relative size of a Markov parameter of G read as rounding
DEFAULT_PPD = 200


def default_grid(sys: StateSpace, points_per_decade: int = DEFAULT_PPD,
                 wmin=None, wmax=None, include_zero: bool = True) -> np.ndarray:
    """Logarithmic grid bracketing all finite nonzero pole magnitudes by three
    decades on each side, with w = 0 prepended."""
    mags = np.abs(poles(sys))
    mags = mags[mags > 0]
    lo = 1e-3 * mags.min() if mags.size else 1e-3
    hi = 1e3 * mags.max() if mags.size else 1e3
    if wmin is not None:
        lo = float(wmin)
    if wmax is not None:
        hi = float(wmax)
    if not (0 < lo < hi):
        raise ValueError("grid bounds must satisfy 0 < wmin < wmax")
    npts = max(2, int(math.ceil(math.log10(hi / lo) * points_per_decade)) + 1)
    g = np.geomspace(lo, hi, npts)
    if include_zero:
        g = np.concatenate(([0.0], g))
    return g


def _as_grid(sys, grid, include_zero=True):
    if grid is None:
        return default_grid(sys, include_zero=include_zero)
    g = np.asarray(grid, dtype=float).ravel()
    if g.size == 0:
        raise ValueError("frequency grid is empty")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise ValueError("frequency grid must be finite and nonnegative")
    if np.any(np.diff(g) <= 0):
        raise ValueError("frequency grid must be strictly increasing")
    return g


@dataclass
class FreqVerdict:
    """Outcome of a sweep test: verdict, where it was worst, and how bad."""

    holds: bool
    worst_frequency: float
    worst_margin: float
    grid: np.ndarray
    reason: str | None = None
    note: str | None = None

    def __bool__(self):
        return self.holds


def hermitian_imaginary_part(sys: StateSpace, w: float) -> np.ndarray:
    """H(w) = j (P(jw) - P(jw)^*), Hermitian with real eigenvalues."""
    P = evaluate(sys, 1j * float(w))
    return 1j * (P - P.conj().T)


def _pole_status(p):
    """(the poles among p in the AXIS_TOL band of the imaginary axis, whether
    another lies right of it): p is Hurwitz iff neither."""
    on_axis = np.abs(p.real) <= AXIS_TOL * (1.0 + np.abs(p))
    return p[on_axis], bool(np.any((p.real > 0) & ~on_axis))


def _square(sys):
    if sys.inputs != sys.outputs:
        raise ValueError("this test requires a square system")


def _refused(reason, grid=None):
    # a verdict decided before or without a sweep
    return FreqVerdict(False, np.nan, -np.inf, np.zeros(0) if grid is None else grid, reason)


def _pole_verdict(sys):
    # poles of sys, and a verdict that is False before any grid point when
    # a pole is on or right of the imaginary axis (else None)
    p = poles(sys)
    axis, in_rhp = _pole_status(p)
    if axis.size or in_rhp:
        return p, _refused("imaginary-axis pole" if axis.size else "right-half-plane pole")
    return p, None


def _ni_on_grid(sys, g, tol):
    lam, pn = sweep_eigmin(sys.A, sys.B, sys.C, sys.D, g, 0, eigensystem(sys))
    rel = lam / (1.0 + pn)
    i = int(np.argmin(rel))
    return FreqVerdict(bool(rel[i] >= -tol), float(g[i]), float(lam[i]), g)


def check_ni_sweep(sys: StateSpace, grid=None, tol: float = NI_SWEEP_TOL) -> FreqVerdict:
    """Poles in the open left half-plane and lambda_min(H(w)) >= -tol
    relative at every grid frequency (w >= 0)."""
    _square(sys)
    _, bad = _pole_verdict(sys)
    if bad is not None:
        return bad
    return _ni_on_grid(sys, _as_grid(sys, grid), tol)


def _breakpoint_grid(zeros, p):
    """Test frequencies that decide NI: w = 0, the midpoint of each interval
    between breakpoints (0 and |Im z| of every finite zero z of Phi), the
    point 2 * last + 1 past them, and every pole magnitude, where a light
    resonance peaks between two far-apart breakpoints."""
    b = np.unique(np.concatenate(([0.0], np.abs(zeros.imag))))
    return np.unique(np.concatenate((b[:1], 0.5 * (b[:-1] + b[1:]),
                                     [2.0 * b[-1] + 1.0], np.abs(p))))


def _ni_spectral(sys, tol=NI_SWEEP_TOL):
    """check_ni(sys, tol) and the imaginary-axis zeros of Phi, from one zero
    solve. The zeros are None when poles decide the verdict or H(w) is
    singular at every w."""
    _square(sys)
    p, bad = _pole_verdict(sys)
    if bad is not None:
        return bad, None
    try:
        z = phi_imaginary_axis_zeros(sys)
    except numerics.NumericsError:
        v = check_ni_sweep(sys, tol=tol)
        v.note = "zero pencil singular (H(w) singular at every w), default-grid sweep used"
        return v, None
    axis, fin = z
    v = _ni_on_grid(sys, _breakpoint_grid(fin, p), tol)
    if z.singular:
        v.note = ("H(w) singular at every w: breakpoints from the zeros of Phi "
                  "on the joint range of the residues")
        return v, None
    v.note = z.note
    return v, axis


def check_ni(sys: StateSpace, tol: float = NI_SWEEP_TOL) -> FreqVerdict:
    """NI verdict of record: poles in the open left half-plane and
    lambda_min(H(w)) >= -tol relative at every w >= 0, decided by testing H
    once in each interval between the imaginary-axis zeros of
    Phi(s) = M(s) - M^T(-s) and at each pole magnitude. `note` says when the
    zeros came from the QZ fallback and why, or when H(w) is singular at
    every w, so the zeros are those on the joint range of the residues. When
    the QZ pencil is singular, falls back to check_ni_sweep on the default
    grid and says so in `note`."""
    return _ni_spectral(sys, tol)[0]


@dataclass
class NiLmiResult:
    is_ni: bool
    Y: np.ndarray | None
    reason: str | None
    minimal: bool
    solver: lmimod.SolveResult | None = None
    verification: lmimod.CertificateReport | None = None

    def __bool__(self):
        return self.is_ni


def check_ni_lmi(sys: StateSpace) -> NiLmiResult:
    """Certificate route: NI iff D is symmetric, A has no imaginary-axis
    eigenvalues, and Y > 0 exists with A Y + Y A^T <= 0, B + A Y C^T = 0.

    Solved in balanced coordinates (unbalanced, plants with spread mode
    frequencies exhaust the solver's step budget); the returned Y is
    transformed back, so it certifies the original realization. Non-minimal
    realizations are attempted anyway and flagged. When no certificate is
    found, `reason` carries the solver's: infeasible, or budget exhausted.
    """
    _square(sys)
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    minimal = is_minimal(sys)
    if np.linalg.norm(D - D.T) > 1e-9 * (1.0 + np.linalg.norm(D)):
        return NiLmiResult(False, None, "feedthrough matrix is not symmetric", minimal)
    axis, in_rhp = _pole_status(poles(sys))
    if axis.size:
        return NiLmiResult(False, None, "imaginary-axis eigenvalue of A", minimal)
    if in_rhp:
        return NiLmiResult(False, None, "right-half-plane pole", minimal)
    if sys.n == 0:
        return NiLmiResult(True, np.zeros((0, 0)), None, minimal)
    Ab, T = numerics.balance(A)
    t = np.diag(T)
    res = lmimod.solve_feasibility(lmimod.ni_problem(Ab, B / t[:, None], C * t[None, :]))
    if not res.feasible:
        return NiLmiResult(False, None, f"no certificate: {res.reason}", minimal, res)
    Yb = res.values["Y"]
    Y = T @ Yb @ T.T
    ver = lmimod.verify_certificate(lmimod.ni_problem(A, B, C), {"Y": Y},
                                    psd_tol=1e-7, strict_margin=0.0, eq_tol=1e-6)
    return NiLmiResult(True, Y, None, minimal, res, ver)


def phi_system(sys: StateSpace) -> StateSpace:
    """Realization of Phi(s) = M(s) - M^T(-s)."""
    n = sys.n
    A = np.block([[sys.A, np.zeros((n, n))], [np.zeros((n, n)), -sys.A.T]])
    B = np.vstack([sys.B, sys.C.T])
    C = np.hstack([sys.C, sys.B.T])
    return StateSpace(A, B, C, sys.D - sys.D.T)


class PhiZeros(tuple):
    """The pair (axis_zeros, all_finite) of phi_imaginary_axis_zeros, with
    `note`: None when the t = s^2 form computed the zeros, else why the QZ
    pencil did; and `singular`: True when H(w) is singular at every w, so the
    zeros are those of Phi on the joint range of the residues."""

    def __new__(cls, axis, fin, note=None, singular=False):
        self = super().__new__(cls, (axis, fin))
        self.note, self.singular = note, singular
        return self


def _split(fin, axis_tol, singular=False):
    on_axis = fin[np.abs(fin.real) <= axis_tol * (1.0 + np.abs(fin))]
    return PhiZeros(np.sort_complex(on_axis), fin, singular=singular)


def phi_imaginary_axis_zeros(sys: StateSpace, axis_tol: float = AXIS_TOL) -> PhiZeros:
    """Invariant zeros of Phi(s) = M(s) - M^T(-s) lying on the imaginary axis.

    Returns (axis_zeros, all_finite) as a PhiZeros. When D and every residue
    R_i of M are symmetric, Phi(s) = 2s G(s^2) with
    G(t) = sum_i R_i / (t - lam_i^2), and the zeros are s = +-sqrt(t) over
    the zeros t of G, from one eigenproblem of order n (see `_t_zeros`),
    plus one zero at the origin per channel from the factor 2s. When the
    residues span fewer than m directions, H(w) is singular at every w: the
    zeros are then those of Phi on the joint range of the residues, and
    `singular` is True. When the residues are not symmetric, A has no
    well-conditioned eigenbasis, or G has no nonsingular leading Markov
    parameter, the zeros are the finite generalized eigenvalues of the
    system-matrix pencil of the doubled realization (QZ, order 2n + m), and
    `note` says why; that path raises NumericsError when the pencil is
    singular.
    """
    why = "A has no well-conditioned eigenbasis"
    lam, basis = eigensystem(sys)
    if basis is not None:
        why, t, k = _t_zeros(sys, lam, *basis)
    if why is not None:
        z = _phi_zeros_qz(sys, axis_tol)
        z.note = f"zeros of Phi from the QZ pencil: {why}"
        return z
    s = np.sqrt(t)
    return _split(np.concatenate((s, -s, np.zeros(k, dtype=complex))), axis_tol,
                  singular=k < sys.inputs)


def _t_zeros(sys, lam, V, Vi, cond):
    """(None, t, k): the zeros t of G(t) = sum_i R_i / (t - lam_i^2), with
    Phi(s) = 2s G(s^2), and the rank k of the joint range of the residues
    R_i = (C V)_i (V^{-1} B)_i; or (reason, None, None) when this form does
    not apply.

    G = (C V) (t I - diag(lam^2))^{-1} (V^{-1} B) is first restricted to the
    joint range of the R_i. With mu = lam^2 / max|lam^2|, the first
    nonsingular Markov parameter K = C V diag(mu)^r V^{-1} B, all earlier ones
    zero, makes the common kernel of C V diag(mu)^j (j = 0..r) invariant
    under (I - V^{-1} B K^{-1} C V diag(mu)^r) diag(mu), and the zeros are its
    eigenvalues there, times max|lam^2|. The kernel, of dimension
    n - (r + 1) k, is deflated exactly by an orthonormal SVD basis: left in,
    its complement would show as zeros at infinity read as finite. The
    Markov parameters, the kernel and the eigensolve are real: each pair of
    conjugate columns (v, conj v) of V is replaced by (Re v, Im v), and
    diag(mu) by the block-diagonal matrix of A^2 / max|lam^2| in that basis.
    """
    n, m = sys.n, sys.inputs
    if np.linalg.norm(sys.D - sys.D.T) > SYM_TOL * (1.0 + np.linalg.norm(sys.D)):
        return "residues or feedthrough not symmetric", None, None
    if n == 0:
        return None, np.zeros(0, dtype=complex), 0
    W, CV = Vi @ sys.B, sys.C @ V
    # eigenvalues within rounding of each other are one pole, and only the
    # sum of their residues is defined: group them under the first
    near = cond * n * np.finfo(float).eps * np.linalg.norm(sys.A, 1)
    rep = (np.abs(lam[:, None] - lam) <= near).argmax(axis=1)
    R = np.zeros((n, m, m), dtype=complex)
    np.add.at(R, rep, CV.T[:, :, None] * W[:, None, :])
    size = np.zeros(n)
    np.add.at(size, rep, np.linalg.norm(CV, axis=0) * np.linalg.norm(W, axis=1))
    if np.any(np.linalg.norm(R - R.transpose(0, 2, 1), axis=(1, 2)) > SYM_TOL * size):
        return "residues or feedthrough not symmetric", None, None
    pair = np.flatnonzero(lam.imag > 0)
    lam = lam[rep]
    # the joint range of the R_i is spanned by the columns (C V)_i with
    # (V^{-1} B)_i != 0; it is closed under conjugation, so a real basis spans it
    X = CV * np.linalg.norm(W, axis=1)
    U, sv = np.linalg.svd(np.hstack((X.real, X.imag)))[:2]
    k = int(np.count_nonzero(sv > MARKOV_TOL * sv[0])) if sv.size and sv[0] > 0 else 0
    if k == 0:
        return None, np.zeros(0, dtype=complex), 0
    if k < m:
        CV, W = U[:, :k].T @ CV, W @ U[:, :k]
    mu = lam * lam
    c = np.abs(mu).max() or 1.0
    mu = mu / c
    size = np.linalg.norm(CV, axis=0) * np.linalg.norm(W, axis=1)
    # G(0) = P'(0). A rank drop of G(0) by d puts d zeros at t = 0, which the
    # eigensolve leaves at rounding level, far off the origin once rooted
    d = 0
    if np.all(mu != 0):
        sv = np.linalg.svd((CV / mu) @ W, compute_uv=False)
        d = np.count_nonzero(sv <= MARKOV_TOL * (size @ (1.0 / np.abs(mu))))
    # real coordinates: eig of a real A puts conj(v) right after each complex
    # column v of V; on (Re v, Im v), A^2 acts as [[Re mu, Im mu], [-Im mu, Re mu]]
    M = np.diag(mu.real)
    M[pair, pair + 1], M[pair + 1, pair] = mu[pair].imag, -mu[pair].imag
    Cc, Wc = CV, W
    CV, W = Cc.real.copy(), Wc.real.copy()
    CV[:, pair + 1] = Cc[:, pair].imag
    W[pair], W[pair + 1] = 2.0 * Wc[pair].real, -2.0 * Wc[pair].imag
    F, rows = CV, []
    for r in range(n):
        rows.append(F)
        K = F @ W
        floor = MARKOV_TOL * (size @ np.abs(mu) ** r)
        sv = np.linalg.svd(K, compute_uv=False)
        if sv[-1] > floor:
            break
        if sv[0] > floor:
            return "G has no nonsingular leading Markov parameter", None, None
        F = F @ M
    else:
        return "G has no nonsingular leading Markov parameter", None, None
    Hk = np.vstack(rows)
    Q = np.linalg.svd(Hk)[2][Hk.shape[0]:].T
    MQ = M @ Q
    Z = Q.T @ MQ - (Q.T @ W) @ np.linalg.solve(K, F @ MQ)
    t = c * np.linalg.eigvals(Z).astype(complex)
    t[np.argsort(np.abs(t))[:d]] = 0.0
    return None, t, k


def _phi_zeros_qz(sys: StateSpace, axis_tol: float = AXIS_TOL) -> PhiZeros:
    """The zeros of phi_imaginary_axis_zeros as the finite generalized
    eigenvalues of the system-matrix pencil of the doubled realization.
    Raises NumericsError when the pencil is singular."""
    phi = phi_system(sys)
    n2, m = phi.n, phi.inputs
    M1 = np.block([[phi.A, phi.B], [phi.C, phi.D]])
    M2 = np.block([[np.eye(n2), np.zeros((n2, m))], [np.zeros((m, n2 + m))]])
    return _split(numerics.generalized_eigenvalues(M1, M2), axis_tol)


@dataclass
class SniZerosResult:
    is_sni: bool
    axis_zeros: np.ndarray
    violating_zeros: np.ndarray
    reason: str | None = None
    ni: FreqVerdict | None = None

    def __bool__(self):
        return self.is_sni


def check_sni_zeros(sys: StateSpace) -> SniZerosResult:
    """Strictness verdict of record: an NI system is SNI iff M(s) - M^T(-s)
    has no imaginary-axis transmission zeros except possibly at s = 0. The
    NI verdict is check_ni's, from the same zero pencil."""
    return _sni_zeros(*_ni_spectral(sys))


def _sni_zeros(ni, axis):
    # check_sni_zeros given the NI verdict `ni` and the axis zeros of Phi
    none = np.zeros(0, dtype=complex)
    if not ni.holds:
        why = ni.reason or f"lambda_min(H) = {ni.worst_margin:.3g} at w = {ni.worst_frequency:g}"
        return SniZerosResult(False, none, none, reason=f"not NI ({why})", ni=ni)
    if axis is None:
        return SniZerosResult(False, none, none, ni=ni,
                              reason="zero pencil singular: H(w) is singular at every w")
    violating = axis[np.abs(axis) > ORIGIN_TOL]
    return SniZerosResult(violating.size == 0, axis, violating, ni=ni)


def _filtered_grid(g, axis):
    # drop grid points within 1e-9 (1 + w) of an axis pole; no other pole p
    # is that near: |jw - p| >= |Re p| > 1e-7 (1 + |p|) >= 1e-9 (1 + w) up to
    # w = 100 (1 + |p|) - 1, and |jw - p| > 0.99 (1 + w) beyond
    if axis.size == 0:
        return g, np.ones(g.size, dtype=bool)
    d = np.abs(1j * g[:, None] - axis[None, :]).min(axis=1)
    keep = d > 1e-9 * (1.0 + g)
    return g[keep], keep


def _pr_spr(sys, grid, tol):
    """(check_positive_real, check_strictly_positive_real) from one sweep of
    P(jw) + P(jw)^* on the grid."""
    _square(sys)
    axis, in_rhp = _pole_status(poles(sys))
    if in_rhp:
        return _refused("right-half-plane pole"), _refused("right-half-plane pole")
    note = spr = None
    if axis.size:
        spr = _refused("imaginary-axis pole")
        ap = np.sort(axis.imag)
        if ap.size > 1 and np.any(np.diff(ap) <= 1e-6 * (1.0 + np.abs(ap[:-1]))):
            return _refused("repeated imaginary-axis pole"), spr
        note = "imaginary-axis pole(s) present, grid points near them skipped"
    g = _as_grid(sys, grid)
    # only grid points within rounding of an imaginary-axis pole are dropped,
    # so an empty grid means an axis pole, and spr is already decided
    ge, _ = _filtered_grid(g, axis)
    if ge.size == 0:
        return _refused("no evaluable grid points", g), spr
    lam, pn = sweep_eigmin(sys.A, sys.B, sys.C, sys.D, ge, 1, eigensystem(sys))
    rel = lam / (1.0 + pn)
    i = int(np.argmin(rel))
    pr = FreqVerdict(bool(rel[i] >= -tol), float(ge[i]), float(lam[i]), ge, note=note)
    return pr, spr if spr is not None else _spr_hurwitz(sys, ge, lam, pn, tol)


def _spr_hurwitz(sys, g, lam, pn, tol):
    """check_strictly_positive_real of a system with A Hurwitz, given
    lambda_min(P(jw) + P(jw)^*) and ||P(jw)|| on the grid g."""
    X = np.linalg.solve(sys.A, sys.B)
    P0 = sys.D - sys.C @ X
    dc = np.linalg.eigvalsh(P0 + P0.T)[0]
    # the scale of P(0) before cancellation: the exact zero of a velocity
    # plant cannot pass on rounding
    scale = np.linalg.norm(sys.D) + np.linalg.norm(sys.C) * np.linalg.norm(X)
    pos = g > 0
    ws = np.concatenate(([0.0], g[pos]))
    margins = np.concatenate(([dc], lam[pos]))
    rel = margins / np.maximum(np.concatenate(([scale], pn[pos])), np.finfo(float).tiny)
    # a scaled margin at w = 0 only; at w > 0 the sign alone, since on the
    # kernel of D + D^T the P + P^* of an SPR plant may decay like 1/w^2
    # while ||P(jw)|| decays like 1/w; the limit at infinity covers large w
    fail = margins <= np.concatenate(([tol * scale], np.zeros(ws.size - 1)))
    i = int(np.argmax(fail)) if fail.any() else int(np.argmin(rel))
    if fail[i]:
        return FreqVerdict(False, float(ws[i]), float(margins[i]), g,
                           f"P(jw) + P(jw)^* is not positive definite at w = {ws[i]:g}")
    why = _spr_at_infinity(sys, tol)
    if why is not None:
        return FreqVerdict(False, np.nan, why[1], g, "w -> infinity: " + why[0])
    return FreqVerdict(True, float(ws[i]), float(margins[i]), g)


def _spr_at_infinity(sys, tol):
    """None when D + D^T > 0, or when on an orthonormal basis M of its
    kernel M^T (CB - (CB)^T) M = 0 and -M^T (CAB + (CAB)^T) M > 0; else
    (why not, margin)."""
    S = sys.D + sys.D.T
    ev, U = np.linalg.eigh(S)
    cut = tol * np.linalg.norm(S)
    if ev[0] > cut:
        return None
    if ev[0] < -cut:
        return "D + D^T is not positive semidefinite", float(ev[0])
    M = U[:, ev <= cut]
    # scales of the products restricted to the kernel, so that a channel of
    # small gain there is not measured against the others
    CM, BM = M.T @ sys.C, sys.B @ M
    ABM = sys.A @ BM
    K = CM @ BM
    asym = np.linalg.norm(K - K.T)
    if asym > tol * np.linalg.norm(CM) * np.linalg.norm(BM):
        return "CB is not symmetric on the kernel of D + D^T", float(-asym)
    L = CM @ ABM
    lim = np.linalg.eigvalsh(-(L + L.T))[0]
    if not lim > tol * np.linalg.norm(CM) * np.linalg.norm(ABM):
        return ("-(CAB + (CAB)^T) is not positive definite on the kernel of D + D^T",
                float(lim))
    return None


def check_positive_real(sys: StateSpace, grid=None, tol: float = NI_SWEEP_TOL) -> FreqVerdict:
    """Poles in the closed left half-plane (simple imaginary-axis poles
    tolerated, noted) and lambda_min(P(jw) + P(jw)^*) >= -tol relative on the
    grid."""
    return _pr_spr(sys, grid, tol)[0]


def check_strictly_positive_real(sys: StateSpace, grid=None,
                                 tol: float = NI_SWEEP_TOL) -> FreqVerdict:
    """Strictly positive real (Khalil, Nonlinear Systems, Lemma 6.1), from
    the sweep of check_positive_real:
    1. A is Hurwitz;
    2. lambda_min(P(jw) + P(jw)^*) > 0 at every grid point w > 0;
    3. lambda_min(P(0) + P(0)^T) > tol (||D|| + ||C|| ||A^{-1} B||);
    4. at w -> infinity, D + D^T > 0, or on an orthonormal basis M of the
       kernel of D + D^T, M^T (CB - (CB)^T) M = 0 and
       -M^T (CAB + (CAB)^T) M > 0.
    `reason` names the failed condition: a pole, the frequency (0 for the DC
    condition), or the limit at infinity, where `worst_frequency` is NaN.
    An imaginary-axis zero of P + P^* at some w > 0 is found only when a grid
    point lands on it."""
    return _pr_spr(sys, grid, tol)[1]


def rotated_system(sys: StateSpace) -> StateSpace:
    """Realization of Q(s) = s (P(s) - P(inf)); for symmetric feedthrough,
    Q(jw) + Q(jw)^* = w H(w) exactly, linking the NI and PR sweeps."""
    return StateSpace(sys.A, sys.B, sys.C @ sys.A, sys.C @ sys.B)


def _augmented_lag(sys, shifts, eps):
    A, B, C = sys.A, sys.B, sys.C
    n, m = sys.n, sys.inputs
    k = len(shifts)
    At = np.zeros((n + k * m, n + k * m))
    At[:n, :n] = A
    Bt = np.vstack([B] + [eps * np.eye(m)] * k)
    Ct = np.hstack([C] + [-np.eye(m)] * k)
    for i, a in enumerate(shifts):
        r = n + i * m
        At[r:r + m, r:r + m] = -a * np.eye(m)
    return At, Bt, Ct


def _lag_feasible(sys, shifts, eps):
    _square(sys)
    if eps <= 0 or any(a <= 0 for a in shifts):
        raise ValueError("shift and eps parameters must be positive")
    if np.linalg.norm(sys.D - sys.D.T) > 1e-9 * (1.0 + np.linalg.norm(sys.D)):
        return False
    ev = poles(sys)
    for a in shifts:
        if ev.size and np.min(np.abs(ev + a)) <= 1e-9 * (1.0 + a):
            raise ValueError(f"-{a:g} is an eigenvalue of A; pick a different shift")
    At, Bt, Ct = _augmented_lag(sys, shifts, eps)
    CB = Ct @ Bt
    S = CB + CB.T
    # necessary condition for the augmented certificate; fails fast when
    # sym(CB) of the original system is not positive definite enough
    if numerics.eig_symmetric(S)[0] < -1e-9 * max(1.0, np.linalg.norm(S)):
        return False
    res = lmimod.solve_feasibility(lmimod.ni_problem(At, Bt, Ct))
    return bool(res.feasible)


def sni_sufficient_lag(sys: StateSpace, alpha: float, eps: float) -> bool:
    """Sufficient SNI test by single-lag augmentation: feasibility of the NI
    certificate for the system with eps/(s+alpha) I subtracted. True implies
    SNI; False is inconclusive."""
    return _lag_feasible(sys, (float(alpha),), float(eps))


def sni_sufficient_lag2(sys: StateSpace, alpha: float, beta: float, eps: float) -> bool:
    """Double-lag variant with two distinct shifts alpha != beta."""
    alpha, beta = float(alpha), float(beta)
    if alpha == beta:
        raise ValueError("the two shifts must be distinct")
    return _lag_feasible(sys, (alpha, beta), float(eps))


@dataclass
class Classification:
    ni: bool
    sni: bool
    pr: bool
    spr: bool
    ni_sweep: FreqVerdict
    ni_spectral: FreqVerdict
    sni_zeros: SniZerosResult
    pr_sweep: FreqVerdict
    spr_sweep: FreqVerdict

    def to_dict(self):
        def fv(v):
            d = {"holds": bool(v.holds),
                 "worst_frequency": None if np.isnan(v.worst_frequency) else float(v.worst_frequency),
                 "worst_margin": None if not np.isfinite(v.worst_margin) else float(v.worst_margin)}
            if v.reason:
                d["reason"] = v.reason
            if v.note:
                d["note"] = v.note
            return d

        out = {
            "ni": self.ni, "sni": self.sni, "pr": self.pr, "spr": self.spr,
            "ni_spectral": fv(self.ni_spectral), "ni_sweep": fv(self.ni_sweep),
            "pr_sweep": fv(self.pr_sweep), "spr_sweep": fv(self.spr_sweep),
            "sni_zeros": {"is_sni": self.sni_zeros.is_sni,
                          "reason": self.sni_zeros.reason,
                          "axis_zeros": [[z.real, z.imag] for z in np.asarray(self.sni_zeros.axis_zeros)]},
        }
        return out


def classify(sys: StateSpace, grid=None, tol: float = NI_SWEEP_TOL) -> Classification:
    """Run the full battery. check_ni and check_sni_zeros, sharing one zero
    pencil, are the verdicts of record for NI/SNI; one sweep of
    P(jw) + P(jw)^* on `grid` decides PR and SPR, and the NI sweep on `grid`
    is evidence. Each field equals what the standalone check returns at this
    tol (check_sni_zeros: at the default)."""
    ni, axis = _ni_spectral(sys, tol)
    sni_z = _sni_zeros(ni, axis)
    pr, spr = _pr_spr(sys, grid, tol)
    return Classification(
        ni=bool(ni.holds), sni=bool(sni_z.is_sni), pr=bool(pr.holds), spr=bool(spr.holds),
        ni_sweep=check_ni_sweep(sys, grid=grid, tol=tol), ni_spectral=ni,
        sni_zeros=sni_z, pr_sweep=pr, spr_sweep=spr)

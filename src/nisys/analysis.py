"""Classification of LTI systems by frequency-domain sign properties.

Covers the negative-imaginary family (NI, strictly NI) and the positive-real
family (PR, strictly PR). The residues R_i = (C V)_i (V^{-1} B)_i of the
kept A = V diag(lam) V^{-1}, grouped where eigenvalues agree to rounding,
and their sizes are computed once per system (`_residues`): every verdict
below reads them, and so do the IRC root locus and design (`controllers`).

Each NI verdict is one path: the pole test, then the modal terms, then
the zeros of Phi. P is D plus one term per real pole and per conjugate
pair, and when each term is NI on its own up to a bound that sums to at
most tol, so is P (`_ni_by_terms`, from the kept table `_terms`). That is
a finite test on the residues, and no zero is solved for; the structural
plants of the paper, modes sensed at the actuator, and the IRC and PPF
controllers pass it. Otherwise, and whenever A has no eigenbasis, check_ni
reads the transmission zeros of Phi(s) = M(s) - M^T(-s): the eigenvalues
of H(w) = j Phi(jw) change sign only at its imaginary-axis zeros, so H is
tested once between each pair of them (`_ni_by_zeros`). SNI is read from
an NI verdict (`_sni_verdict`): when the terms decided it, and each term
is moreover positive semidefinite at every w > 0 with kernels that meet
only in 0, P is SNI (`_sni_by_terms`); otherwise an NI system is SNI iff
Phi has no imaginary-axis zero away from s = 0 (`check_sni_zeros`).

All zeros come from one rank-revealing staircase in numpy (`_zeros`). When
D and every grouped residue are symmetric, as for collocated and SISO
plants, Phi(s) = 2s G(s^2) with G(t) = sum_i R_i / (t - lam_i^2), and the
staircase runs on G, of order n (`_t_zeros`); otherwise on the doubled
realization, of order 2n, in the real eigenbasis or, without one, that of
`phi_system`, and the verdict's `note` says why. A Phi of normal rank below
m makes H(w) singular at every w.

One evaluation of P(jw) on a grid is read as j (P - P^*), the NI sweep
(evidence), and as P + P^*, which decides PR by its sign and the grouped
residues at imaginary-axis poles, and SPR by its strict sign at every
w > 0, the limits at w = 0 and w -> infinity, and no axis zero of
Psi(s) = P(s) + P^T(-s) (`check_strictly_positive_real`). The NI lemma LMI
(`check_ni_lmi`) is a certificate on demand.

Every tol-free fact that these verdicts read is kept on the system at its
first read (`lti._kept`), read-only: the pole status (`_pole_facts`), the
grouped residues (`_residues`), the term table (`_terms`) and the terms'
SNI note, the finite zeros of Phi and of Psi with their note
(`_axis_zeros`), and the sweep on the breakpoints of Phi's zeros
(`_ni_by_zeros`). Each call compares them with its own tol and builds a
fresh FreqVerdict or SniZerosResult, so a repeated verdict on one system
solves for nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lmi as lmimod
from ._kernels import _eig_radius, sweep_eigmin
from .lti import (StateSpace, _balanced, _frozen, _kept, _projection, eigensystem, evaluate,
                  is_minimal, poles)

AXIS_TOL = 1e-7       # imaginary-axis decision band for poles and zeros
ORIGIN_TOL = 1e-8     # zeros with |z| below this count as the origin
NI_SWEEP_TOL = 1e-8   # relative, scaled by 1 + ||P(jw)||
SYM_TOL = 1e-8        # relative asymmetry of D and of each residue read as rounding
RANK_TOL = 1e-9       # relative singular value read as rounding by the zero staircase
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
    if not points_per_decade >= 1:
        raise ValueError("points_per_decade must be at least 1")
    npts = max(2, int(math.ceil(math.log10(hi / lo) * points_per_decade)) + 1)
    g = np.geomspace(lo, hi, npts)
    if include_zero:
        g = np.concatenate(([0.0], g))
    return g


def _check_tol(tol):
    """tol as a float; a NaN, infinite or negative tolerance is an error,
    since every comparison with it would decide the verdict."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    return tol


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


def _pole_facts(sys):
    """_pole_status of the poles of sys, kept (`lti._kept`)."""
    return _kept(sys, "_pst", lambda: _pole_status(poles(sys)))


def _pole_verdict(sys):
    # the NI verdict, False before any grid point, when a pole of sys is on
    # or right of the imaginary axis; else None
    axis, in_rhp = _pole_facts(sys)
    if axis.size or in_rhp:
        return _refused("imaginary-axis pole" if axis.size else "right-half-plane pole")
    return None


def _sweep_verdict(g, lam, pn, tol, reason=None, note=None):
    # holds when lambda_min >= -tol (1 + ||P||) at every grid point; worst
    # where that relative margin is least
    rel = lam / (1.0 + pn)
    i = int(np.argmin(rel))
    return FreqVerdict(bool(rel[i] >= -tol) and reason is None, float(g[i]), float(lam[i]), g,
                       reason, note)


def check_ni_sweep(sys: StateSpace, grid=None, tol: float = NI_SWEEP_TOL) -> FreqVerdict:
    """Poles in the open left half-plane and lambda_min(H(w)) >= -tol
    relative at every grid frequency (w >= 0), read from the evaluation of
    P(jw) that decides check_positive_real and its SPR sibling."""
    return _grid_verdicts(sys, grid, _check_tol(tol))[0]


def _breakpoint_grid(zeros, p):
    """Test frequencies that decide NI: w = 0, the midpoint of each interval
    between breakpoints (0 and |Im z| of every finite zero z of Phi), the
    point 2 * last + 1 past them, and every pole magnitude, where a light
    resonance peaks between two far-apart breakpoints."""
    b = np.unique(np.concatenate(([0.0], np.abs(zeros.imag))))
    return np.unique(np.concatenate((b[:1], 0.5 * (b[:-1] + b[1:]),
                                     [2.0 * b[-1] + 1.0], np.abs(p))))


def _ni_by_zeros(sys, z, tol):
    """check_ni from the zeros z of Phi (`phi_imaginary_axis_zeros`): H is
    tested at each point of their `_breakpoint_grid`. That sweep is kept
    with the finite zeros it was made from, and made again for any other
    (an oracle's zeros, in the tests)."""
    fin = z[1]
    sweep = sys.__dict__.get("_bps")
    if sweep is None or sweep[0] is not fin:
        g = _breakpoint_grid(fin, poles(sys))
        lam, _, pn = sweep_eigmin(sys.A, sys.B, sys.C, sys.D, g, eigensystem(sys))
        sweep = sys.__dict__["_bps"] = _frozen((fin, g, lam, pn))
    v = _sweep_verdict(*sweep[1:], tol, note=z.note)
    if z.singular:
        v.note = "; ".join(filter(None, (
            "H(w) singular at every w: breakpoints from the zeros of Phi below its normal rank",
            z.note)))
    return v


def _ni_by_terms(sys, tol):
    """check_ni's verdict when the modal terms of P are NI on their own, up
    to tol; None when they are not, or when P has no terms. Their bound is
    kept on the system (`_terms`). With the grouped residues R_k of
    A = V diag(lam) V^{-1} (`_residues`),
    H(w) = sum_k H_k(w), one term per real pole lam < 0,
    H_k = 2w R_k / (w^2 + lam^2), and one per conjugate pair (Im lam > 0),
    with a = -2 Re lam, b = |lam|^2, F = 2 Re R_k and
    G = -2 Re(R_k conj(lam)):

        H_k(w) = 2w (c0 + w^2 F) / ((b - w^2)^2 + a^2 w^2),  c0 = aG - bF,

    for symmetric R_k. So lambda_min(H_k(w)) >= -(e0 b0 + eF bF) at every
    w, where e0 and eF are max(0, -lambda_min) of c0 and F (of R_k for a
    real pole), and b0 = max(4 sqrt2 b^-3/2, 2 sqrt2 / (a^2 sqrt b)) and
    bF = max(4 sqrt2 b^-1/2, 2 sqrt2 sqrt(b) / a^2) bound 2w / den and
    2w^3 / den over w (b0 = 1 / |lam| for a real pole).

    The symmetry check admits skew parts above rounding, and each adds to
    H a Hermitian j (K - K^T), whose lambda_min is at least -||K - K^T||_F:
    K of D as it stands, 2 |lam| K / (w^2 + lam^2) of a real pole's R_k,
    and 2 (K_G (b - w^2) + a w^2 K_F) / den of a pair's F and G, so the
    bound adds ||D - D^T||_F, ||R_k - R_k^T||_F / |lam|, and
    ||G - G^T||_F / sqrt(min den) + ||F - F^T||_F / a. The terms also put
    every eigenvalue lam_i of a group at its first, lam_r, which moves H by
    at most 2 ||R_i|| |lam_i - lam_r| / (|Re lam_i| |Re lam_r|). When the
    bound sums to at most tol, lambda_min(H(w)) >= -tol at every w for the
    modal P that check_ni's sweep reads, which is check_ni's criterion. A
    sum of NI terms is NI (Lanzon & Petersen, IEEE TAC 2008), so the test is
    sufficient, never necessary: it declines a plant with a term that is
    not NI, as a non-collocated plant usually has.
    """
    t = _terms(sys)
    if t is None or not t.bound <= tol:
        return None
    return FreqVerdict(True, 0.0, 0.0, np.zeros(0), note=t.note)


class _Terms(NamedTuple):
    """The tol-free part of the term tests: the bound of `_ni_by_terms` and
    its note; X, the R_k of the real poles, then the c0 and F of the pairs;
    neg, their negative parts; size, their norms before cancellation."""

    bound: float
    note: str
    X: np.ndarray
    neg: np.ndarray
    size: np.ndarray


def _terms(sys):
    """The `_Terms` of sys, kept (`lti._kept`); None when the residues have
    no terms (no eigenbasis, a residue not symmetric, or a group that mixes
    sides)."""
    return _kept(sys, "_terms", lambda: _make_terms(sys))


def _make_terms(sys):
    res = _residues(sys)
    if res is None or not res.symmetric:
        return None
    lam, rep = res.lam, res.rep
    side = np.sign(lam.imag)
    real, pair = side == 0, side > 0
    if res.grouped:
        # a group that holds a pole and the conjugate of another is neither
        # a real pole nor one of a pair
        if np.any(side != side[rep]):
            return None
        first = rep == np.arange(lam.size)
        real, pair = first & real, first & pair
    Rr, ir = res.R[real].real, 1.0 / np.abs(lam[real].real)
    R, lp = res.R[pair], lam[pair]
    a, b = -2.0 * lp.real, np.abs(lp) ** 2
    F, G = 2.0 * R.real, -2.0 * (R * lp.conj()[:, None, None]).real
    c0 = a[:, None, None] * G - b[:, None, None] * F
    r2 = 2.0 * math.sqrt(2.0)
    b0 = np.maximum(2.0 * r2 * b ** -1.5, r2 / (a * a * np.sqrt(b)))
    bF = np.maximum(2.0 * r2 / np.sqrt(b), r2 * np.sqrt(b) / (a * a))
    # one stack of every term's matrices: R_k of the real poles, c0 and F of
    # the pairs, with the bound on each one's weight in H
    X = np.concatenate((Rr, c0, F))
    neg = _neg_part(X)
    bound = neg @ np.concatenate((ir, b0, bF))
    if sys.inputs > 1:   # a 1 x 1 matrix has no skew part
        # sqrt of the least den over w: b, or a Im lam at w^2 = b - a^2 / 2
        root = np.where(a * a >= 2.0 * b, b, a * lp.imag)
        bound += (_skew(sys.D[None])[0] + _skew(Rr) @ ir
                  + _skew(G) @ (1.0 / root) + _skew(F) @ (1.0 / a))
    if res.grouped:
        moved = np.flatnonzero(~first)
        lm, lr = lam[moved], lam[rep[moved]]
        bound += 2.0 * np.sum(res.term[moved] * np.abs(lm - lr) / (lm.real * lr.real))
    note = ("NI term by term from the modal residues: "
            f"-lambda_min(H(w)) <= {bound:.3g} at every w")
    # with s the group's sum of `term`: s for R_k, 2 s (a |lam| + b) for c0, 2 s for F
    term = np.bincount(rep, res.term, lam.size) if res.grouped else res.term
    size = np.concatenate((term[real], 2.0 * term[pair] * (a * np.abs(lp) + b), 2.0 * term[pair]))
    return _Terms(bound, note, X, neg, size)


def _sni_by_terms(sys, t):
    """The SNI note of the modal terms t (`_terms`) of an NI sys, or None.

    When every R_k, c0 and F is PSD, each H_k(w) is PSD at every w > 0 with
    kernel ker R_k, or ker c0 & ker F, so H(w) > 0 at every w > 0, the
    strictness of Lanzon & Petersen, iff those kernels meet only in 0, that
    is iff the sum S of every R_k, c0 and F, each divided by its size, is
    definite. A negative part up to n eps times its size is rounding (a
    position pair's F is 2 Re R_k = +-1e-20, not 0), as the skew parts are
    for the t-form of the zeros (`_t_zeros`). A larger one, or
    lambda_min(S) at most RANK_TOL max(1, lambda_max(S)), leaves SNI to the
    zeros: None."""
    m, size = sys.inputs, t.size
    if m == 0 or np.any(t.neg > max(sys.n, 1) * np.finfo(float).eps * size):
        return None
    # a matrix of size 0 is 0, and adds nothing
    S = (t.X.reshape(len(t.X), m * m).T @ (1.0 / np.where(size > 0, size, np.inf))).reshape(m, m)
    ev = S[0] if m == 1 else np.linalg.eigvalsh(0.5 * (S + S.T))
    if not ev[0] > RANK_TOL * max(1.0, ev[-1]):
        return None
    return ("SNI term by term from the modal residues: each term PSD, lambda_min of "
            f"their normalized sum {ev[0]:.3g}")


def _skew(S):
    # ||S - S^T||_F of each matrix of the stack S
    return np.linalg.norm(S - S.transpose(0, 2, 1), axis=(1, 2))


def _neg_part(S):
    # max(0, -lambda_min) of the symmetric part of each matrix of the stack S
    if S.shape[0] == 0:
        return np.zeros(0)
    if S.shape[1] == 1:
        return np.maximum(0.0, -S[:, 0, 0])
    return np.maximum(0.0, -np.linalg.eigvalsh(0.5 * (S + S.transpose(0, 2, 1)))[:, 0])


def check_ni(sys: StateSpace, tol: float = NI_SWEEP_TOL) -> FreqVerdict:
    """NI verdict of record: poles in the open left half-plane and
    lambda_min(H(w)) >= -tol relative at every w >= 0.

    A pole on or right of the imaginary axis decides first. Then, when
    every term of the modal expansion of P is NI on its own, a finite test
    on the residues of the kept eigenbasis decides, and no zero solve runs
    (`_ni_by_terms`): `note` names this route and gives its bound, and
    `worst_frequency` and `worst_margin` are 0, H(0) being 0 up to that
    bound. Otherwise, and whenever A has no eigenbasis, H is tested once in
    each interval between the imaginary-axis zeros of
    Phi(s) = M(s) - M^T(-s) and at each pole magnitude (`_ni_by_zeros`).
    There `note` says when the zeros came from the doubled realization and
    why, and when H(w) is singular at every w, so the zeros are those below
    the normal rank of Phi."""
    tol = _check_tol(tol)
    _square(sys)
    v = _pole_verdict(sys)
    if v is None:
        v = _ni_by_terms(sys, tol)
    if v is None:
        v = _ni_by_zeros(sys, phi_imaginary_axis_zeros(sys), tol)
    return v


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
    found, `reason` carries the solver's: infeasible, budget exhausted, or
    problem too large, refused before the solve (`lmi.MAX_SOLVE_BYTES`).
    """
    _square(sys)
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    minimal = is_minimal(sys)
    if np.linalg.norm(D - D.T) > 1e-9 * (1.0 + np.linalg.norm(D)):
        return NiLmiResult(False, None, "feedthrough matrix is not symmetric", minimal)
    axis, in_rhp = _pole_facts(sys)
    if axis.size:
        return NiLmiResult(False, None, "imaginary-axis eigenvalue of A", minimal)
    if in_rhp:
        return NiLmiResult(False, None, "right-half-plane pole", minimal)
    if sys.n == 0:
        return NiLmiResult(True, np.zeros((0, 0)), None, minimal)
    Ab, Bb, Cb, T = _balanced(sys)
    res = lmimod.solve_feasibility(lmimod.ni_problem(Ab, Bb, Cb))
    if not res.feasible:
        return NiLmiResult(False, None, f"no certificate: {res.reason}", minimal, res)
    Yb = res.values["Y"]
    Y = T @ Yb @ T.T
    ver = lmimod.verify_certificate(lmimod.ni_problem(A, B, C), {"Y": Y},
                                    psd_tol=1e-7, strict_margin=0.0, eq_tol=1e-6)
    return NiLmiResult(True, Y, None, minimal, res, ver)


def phi_system(sys: StateSpace) -> StateSpace:
    """Realization of Phi(s) = M(s) - M^T(-s)."""
    return StateSpace(*_doubled(sys.A, sys.B, sys.C, sys.D, -1.0))


def _doubled(A, B, C, D, sign):
    """(A2, B2, C2, D2) realizing P(s) + sign P^T(-s) for P = (A, B, C, D):
    Phi for sign -1, the PR function Psi for sign +1."""
    Z = np.zeros_like(A)
    return (np.block([[A, Z], [Z, -A.T]]), np.vstack([B, -sign * C.T]),
            np.hstack([C, B.T]), D + sign * D.T)


class PhiZeros(tuple):
    """The pair (axis_zeros, all_finite) of phi_imaginary_axis_zeros, with
    `note`: None when the t = s^2 form computed the zeros, else why the
    doubled realization did; and `singular`: True when H(w) is singular at
    every w, so the zeros are those where Phi drops below its normal rank."""

    def __new__(cls, axis, fin, note=None, singular=False):
        self = super().__new__(cls, (axis, fin))
        self.note, self.singular = note, singular
        return self


def _split(fin, axis_tol, singular=False):
    on_axis = fin[np.abs(fin.real) <= axis_tol * (1.0 + np.abs(fin))]
    return PhiZeros(np.sort_complex(on_axis), fin, singular=singular)


def phi_imaginary_axis_zeros(sys: StateSpace, axis_tol: float = AXIS_TOL) -> PhiZeros:
    """Invariant zeros of Phi(s) = M(s) - M^T(-s) lying on the imaginary axis.

    Returns (axis_zeros, all_finite) as a PhiZeros, from one staircase
    (`_zeros`). When D and every residue R_i of M are symmetric, the zeros
    are s = +-sqrt(t) over the zeros t of G(t) = sum_i R_i / (t - lam_i^2)
    (`_t_zeros`), plus one at the origin per unit of normal rank of G.
    Otherwise they come from the doubled realization of order 2n, in the
    real eigenbasis of A or, when it has no well-conditioned one, that of
    phi_system, and `note` says which and why. When Phi has normal rank
    below m, `singular` is True and the zeros are those below it.
    """
    return _axis_zeros(sys, -1.0, axis_tol)


def _axis_zeros(sys, sign, axis_tol=AXIS_TOL):
    """The zeros of phi_imaginary_axis_zeros for P(s) + sign P^T(-s): Phi
    for sign -1, the PR function Psi for sign +1, split by axis_tol from
    the finite zeros kept on the system (`_finite_zeros`)."""
    fin, note, singular = _kept(sys, "_phi" if sign < 0 else "_psi",
                                lambda: _finite_zeros(sys, sign))
    z = _split(fin, axis_tol, singular)
    z.note = note
    return z


def _finite_zeros(sys, sign):
    """(all finite zeros, note, singular) of P(s) + sign P^T(-s), as
    `phi_imaginary_axis_zeros` describes them."""
    why = "A has no well-conditioned eigenbasis"
    res = _residues(sys)
    if res is not None:
        why, t, k = _t_zeros(sys, res, sign)
    if why is None:
        s = np.sqrt(t)
        origin = np.zeros(k if sign < 0 else 0, dtype=complex)
        return np.concatenate((s, -s, origin)), None, k < sys.inputs
    if res is None:
        how, (A, B, C) = "the doubled realization", (sys.A, sys.B, sys.C)
    else:
        how = "the doubled real modal realization"
        A, B, C = _real_form(res.lam, res.CV, res.W, np.flatnonzero(res.lam.imag > 0))
    # B and C meet in one block of the doubled realization: balance them
    a = np.sqrt((np.linalg.norm(B) or 1.0) / (np.linalg.norm(C) or 1.0))
    z, k = _zeros(*_doubled(A, B / a, C * a, sys.D, sign))
    return z, f"zeros from {how}, order 2n: {why}", k < sys.inputs


def _real_form(lam, CV, W, pair):
    """(L, B, C): a real realization C (sI - L)^{-1} B of
    CV (sI - diag(lam))^{-1} W (the t-form passes lam^2). eig of a real A puts
    conj(v) right after each complex column v of V, with its index in `pair`;
    on (Re v, Im v), diag(lam) acts as [[Re lam, Im lam], [-Im lam, Re lam]]."""
    L = np.diag(lam.real)
    L[pair, pair + 1], L[pair + 1, pair] = lam[pair].imag, -lam[pair].imag
    C, B = CV.real.copy(), W.real.copy()
    C[:, pair + 1] = CV[:, pair].imag
    B[pair], B[pair + 1] = 2.0 * W[pair].real, -2.0 * W[pair].imag
    return L, B, C


class _Residues(NamedTuple):
    """The modal residues of P from the kept A = V diag(lam) V^{-1}: W =
    V^{-1} B and CV = C V; rep[i], the first eigenvalue within rounding of
    lam[i] (Bauer-Fike: `_eig_radius`), under which the group's residues
    are summed; R[k], the sum of R_i = CV_i W_i over the group of k, zero
    where rep[k] != k; term[i] = ||CV_i|| ||W_i||, the size of R_i before
    cancellation; bound[k], the group's sum of ||C|| ||B|| ||V_i||
    ||(V^{-1})_i||, which bound the ||R_i||, zero where rep[k] != k;
    symmetric: D and every R[k] are symmetric within SYM_TOL (times the
    group's sum of term, for R[k]); and grouped: some rep[k] != k."""

    lam: np.ndarray
    rep: np.ndarray
    W: np.ndarray
    CV: np.ndarray
    R: np.ndarray
    term: np.ndarray
    bound: np.ndarray
    symmetric: bool
    grouped: bool


def _residues(sys):
    """The `_Residues` of a square system, kept (`lti._kept`); None when A
    has no eigenbasis. Eigenvalues within rounding of each other are one
    pole, and only the sum of their residues is defined: every reader takes
    the groups from here (the term test, the zeros of Phi and Psi, the PR
    axis residues, and the IRC root locus and design of `controllers`)."""
    return _kept(sys, "_res", lambda: _make_residues(sys))


def _make_residues(sys):
    lam, basis = eigensystem(sys)
    if basis is None:
        return None
    V, Vi, cond = basis
    n = sys.n
    W, CV = _projection(sys)
    near = _eig_radius(sys.A, cond)
    rep = (np.abs(lam[:, None] - lam) <= near).argmax(axis=1) if n else np.zeros(0, int)
    term = np.linalg.norm(CV, axis=0) * np.linalg.norm(W, axis=1)
    bound = (np.linalg.norm(sys.C) * np.linalg.norm(sys.B)
             * np.linalg.norm(V, axis=0) * np.linalg.norm(Vi, axis=1))
    R, size = CV.T[:, :, None] * W[:, None, :], term
    grouped = bool(np.any(rep != np.arange(n)))
    if grouped:
        R, size, bound = np.zeros_like(R), np.bincount(rep, term, n), np.bincount(rep, bound, n)
        np.add.at(R, rep, CV.T[:, :, None] * W[:, None, :])
    symmetric = bool(
        np.linalg.norm(sys.D - sys.D.T) <= SYM_TOL * (1.0 + np.linalg.norm(sys.D))
        # a 1 x 1 residue is symmetric
        and (sys.inputs == 1 or np.all(
            np.linalg.norm(R - R.transpose(0, 2, 1), axis=(1, 2)) <= SYM_TOL * size)))
    return _Residues(lam, rep, W, CV, R, term, bound, symmetric, grouped)


def _t_zeros(sys, res, sign=-1.0):
    """(None, t, k): the zeros t of G(t) = sum_i R_i / (t - lam_i^2), with
    Phi(s) = 2s G(s^2), and the normal rank k of G; or (reason, None, None)
    when D or a grouped residue (`_residues`) is not symmetric. With sign
    +1, G is the PR function Psi(s) = D + D^T + sum_i 2 lam_i R_i /
    (s^2 - lam_i^2) in t = s^2 instead. G is realized in real coordinates
    (`_real_form`), of order n, for the staircase (`_zeros`).
    """
    m = sys.inputs
    if not res.symmetric:
        return "residues or feedthrough not symmetric", None, None
    W, CV, term = res.W, res.CV, res.term
    pair = np.flatnonzero(res.lam.imag > 0)
    lam = res.lam[res.rep]
    mu = lam * lam
    if sign < 0:
        Dt = np.zeros((m, m))
    else:
        Dt, W, term = sys.D + sys.D.T, 2.0 * lam[:, None] * W, 2.0 * np.abs(lam) * term
    t, k = _zeros(*_real_form(mu, CV, W, pair), Dt)
    # A rank drop of G(0) by d puts d zeros at t = 0, which the eigensolve
    # leaves at rounding level, far off the origin once rooted
    if np.all(mu != 0):
        sv = np.linalg.svd(Dt - (CV / mu) @ W, compute_uv=False)
        floor = RANK_TOL * (np.linalg.norm(Dt) + term @ (1.0 / np.abs(mu)))
        d = np.count_nonzero(sv <= floor) - (m - k)
        t[np.argsort(np.abs(t))[:max(d, 0)]] = 0.0
    return None, t, k


def _zeros(A, B, C, D):
    """(z, r): the finite invariant zeros z of the realization (A, B, C, D)
    and the normal rank r of its transfer function, by the rank-revealing
    staircase of Emami-Naeini & Van Dooren (Automatica 1982). s is scaled
    by ||A||_1, the inputs by ||B|| and the outputs by ||C||, so that each
    block is of order one and a singular value below RANK_TOL max(1, ||D||)
    reads as rounding. `_reduce`, on the system and on its dual in turn,
    leaves D square and invertible; z are the eigenvalues of A - B D^{-1} C."""
    c = np.abs(A).sum(axis=0).max(initial=0.0) or 1.0
    b, g = np.linalg.norm(B) or 1.0, np.linalg.norm(C) or 1.0
    A, B, C, D = A / c, B / b, C / g, D * (c / (b * g))
    tol = RANK_TOL * max(1.0, np.linalg.norm(D))
    A, B, C, D = _reduce(A, B, C, D, tol)
    while D.shape[0] != D.shape[1]:
        A, C, B, D = (X.T for X in _reduce(A.T, C.T, B.T, D.T, tol))
        A, B, C, D = _reduce(A, B, C, D, tol)
    z = np.linalg.eigvals(A - B @ np.linalg.solve(D, C))
    return c * z.astype(complex), D.shape[0]


def _reduce(A, B, C, D, tol):
    """A system with the same finite zeros as (A, B, C, D) whose D has full
    row rank. Outputs in the left kernel of D fix the mu state directions
    (rows of V2) that their C part spans: those states leave, their rows
    [V2 A V1, V2 B] become outputs (V1 spans the states that stay), and zero
    output rows go."""
    while True:
        U, sv = np.linalg.svd(D)[:2] if D.any() else (np.eye(len(D)), ())
        r = np.count_nonzero(np.greater(sv, tol))
        if r == len(D):
            return A, B, C, D
        UC = U.T @ C
        sc, Vt = np.linalg.svd(UC[r:])[1:]
        mu = np.count_nonzero(sc > tol)
        if mu == 0:
            return A, B, UC[:r], U[:, :r].T @ D
        V1, V2 = Vt[mu:].T, Vt[:mu]
        AV1 = A @ V1
        A, B, C, D = (V1.T @ AV1, V1.T @ B, np.vstack((V2 @ AV1, UC[:r] @ V1)),
                      np.vstack((V2 @ B, U[:, :r].T @ D)))


@dataclass
class SniZerosResult:
    is_sni: bool
    axis_zeros: np.ndarray
    violating_zeros: np.ndarray
    reason: str | None = None
    ni: FreqVerdict | None = None
    note: str | None = None

    def __bool__(self):
        return self.is_sni


def check_sni_zeros(sys: StateSpace) -> SniZerosResult:
    """Strictness verdict of record: an NI system is SNI iff H(w) > 0 at
    every w > 0. The NI verdict, held in `ni`, is check_ni(sys) at its
    default tol. When the modal terms decided it, each term is positive
    semidefinite and their sum is definite (`_sni_by_terms`), the residues
    decide: `note` names this route, and `axis_zeros` is empty, since no
    zero was solved for. Otherwise SNI iff M(s) - M^T(-s) has no
    imaginary-axis transmission zeros except possibly at s = 0, and `note`
    is None."""
    return _sni_verdict(sys, check_ni(sys), NI_SWEEP_TOL)


def _sni_verdict(sys, ni, tol):
    """check_sni_zeros' test on ni = check_ni(sys, tol): not SNI when ni
    fails; when the terms decided ni, their SNI note, kept on sys, when
    they give one; else the imaginary-axis zeros of Phi, kept on sys."""
    none = np.zeros(0, dtype=complex)
    if not ni.holds:
        why = ni.reason or f"lambda_min(H) = {ni.worst_margin:.3g} at w = {ni.worst_frequency:g}"
        return SniZerosResult(False, none, none, reason=f"not NI ({why})", ni=ni)
    t = _terms(sys)
    if t is not None and t.bound <= tol:
        note = _kept(sys, "_sni", lambda: _sni_by_terms(sys, t))
        if note is not None:
            return SniZerosResult(True, none, none, ni=ni, note=note)
    z = phi_imaginary_axis_zeros(sys)
    if z.singular:
        return SniZerosResult(False, none, none, ni=ni,
                              reason="Phi has normal rank below m: H(w) is singular at every w")
    violating = z[0][np.abs(z[0]) > ORIGIN_TOL]
    return SniZerosResult(violating.size == 0, z[0], violating, ni=ni)


def _filtered_grid(g, axis):
    # drop grid points within 1e-9 (1 + w) of an axis pole; no other pole p
    # is that near: |jw - p| >= |Re p| > 1e-7 (1 + |p|) >= 1e-9 (1 + w) up to
    # w = 100 (1 + |p|) - 1, and |jw - p| > 0.99 (1 + w) beyond
    if axis.size == 0:
        return g, np.ones(g.size, dtype=bool)
    d = np.abs(1j * g[:, None] - axis[None, :]).min(axis=1)
    keep = d > 1e-9 * (1.0 + g)
    return g[keep], keep


def _grid_verdicts(sys, grid, tol):
    """(check_ni_sweep, check_positive_real, spr) from one pole test and one
    evaluation of P(jw) on the grid, which `sweep_eigmin` reads as both
    j (P - P^*) and P + P^*. spr() builds check_strictly_positive_real,
    whose further solves no other verdict reads."""
    _square(sys)
    axis, in_rhp = _pole_facts(sys)
    ni = _pole_verdict(sys)
    if in_rhp:
        return ni, _refused("right-half-plane pole"), lambda: _refused("right-half-plane pole")
    note = spr = None
    if axis.size:
        spr = _refused("imaginary-axis pole")
        note = "imaginary-axis pole(s) present, grid points near them skipped"
    g = _as_grid(sys, grid)
    # only grid points within rounding of an imaginary-axis pole are dropped,
    # so an empty grid means an axis pole, and ni and spr are already decided
    ge, _ = _filtered_grid(g, axis)
    if ge.size == 0:
        return ni, _refused("no evaluable grid points", g), lambda: spr
    lam_ni, lam, pn = sweep_eigmin(sys.A, sys.B, sys.C, sys.D, ge, eigensystem(sys))
    why = _axis_residue_fault(sys, axis) if axis.size else None
    pr = _sweep_verdict(ge, lam, pn, tol, why, note)
    if ni is not None:
        return ni, pr, lambda: spr
    return _sweep_verdict(ge, lam_ni, pn, tol), pr, lambda: _spr_hurwitz(sys, ge, lam, pn, tol)


def _axis_residue_fault(sys, axis):
    """Why the residue of a pole in axis is not Hermitian PSD; None when
    every one is. Eigenvalues within rounding of each other are one pole,
    semisimple since A has an eigenbasis, whose residue is the sum R_k of
    its group (`_residues`): R_k must be Hermitian PSD within SYM_TOL times
    its `bound`, the group's size before cancellation. A conjugate pole's
    residue is the conjugate, and passes or fails with it."""
    res = _residues(sys)
    if res is None:
        return "imaginary-axis pole, and A has no eigenbasis to read its residue from"
    for k in np.flatnonzero(np.isin(res.lam, axis) & (res.rep == np.arange(sys.n))):
        R, tol = res.R[k], SYM_TOL * res.bound[k]
        if (np.linalg.norm(R - R.conj().T) > tol
                or np.linalg.eigvalsh(R + R.conj().T)[0] < -2.0 * tol):
            return (f"imaginary-axis pole at s = j{abs(res.lam[k].imag):g}: "
                    "residue not Hermitian PSD")
    return None


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
    # the grid sees P + P^* singular at some w > 0 only on a grid point; the
    # imaginary-axis zeros of Psi(s) = P(s) + P^T(-s) are those w. Psi is
    # not singular at every w here, since P(0) + P(0)^T passed as definite
    z = _axis_zeros(sys, 1.0)
    if z[0].size:
        w = float(np.abs(z[0].imag).min())
        return FreqVerdict(False, w, 0.0, g,
                           f"P(jw) + P(jw)^* is not positive definite at w = {w:g}")
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
    """Positive real (Anderson & Vongpanitlerd 1973): poles in the closed
    left half-plane, each imaginary-axis pole semisimple (noted) with a
    Hermitian PSD residue, read from the eigenbasis of A (not PR without
    one; a repeated pole's residue is the sum over its group), and
    lambda_min(P(jw) + P(jw)^*) >= -tol relative on the grid, read from
    the evaluation of P(jw) that check_ni_sweep reads too."""
    return _grid_verdicts(sys, grid, _check_tol(tol))[1]


def check_strictly_positive_real(sys: StateSpace, grid=None,
                                 tol: float = NI_SWEEP_TOL) -> FreqVerdict:
    """Strictly positive real (Khalil, Nonlinear Systems, Lemma 6.1), from
    the grid evaluation of check_positive_real and check_ni_sweep:
    1. A is Hurwitz;
    2. lambda_min(P(jw) + P(jw)^*) > 0 at every grid point w > 0;
    3. lambda_min(P(0) + P(0)^T) > tol (||D|| + ||C|| ||A^{-1} B||);
    4. at w -> infinity, D + D^T > 0, or on an orthonormal basis M of the
       kernel of D + D^T, M^T (CB - (CB)^T) M = 0 and
       -M^T (CAB + (CAB)^T) M > 0.
    5. (tested last) Psi(s) = P(s) + P^T(-s) has no imaginary-axis zero:
       P(jw) + P(jw)^* is nonsingular between grid points too.
    `reason` names the failed condition: a pole, the frequency (0 for the DC
    condition), or the limit at infinity, where `worst_frequency` is NaN."""
    return _grid_verdicts(sys, grid, _check_tol(tol))[2]()


def rotated_system(sys: StateSpace) -> StateSpace:
    """Realization of Q(s) = s (P(s) - P(inf)); for symmetric feedthrough,
    Q(jw) + Q(jw)^* = w H(w) exactly, linking the NI and PR sweeps."""
    return StateSpace(sys.A, sys.B, sys.C @ sys.A, sys.C @ sys.B)


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
                          "note": self.sni_zeros.note,
                          "axis_zeros": [[z.real, z.imag] for z in np.asarray(self.sni_zeros.axis_zeros)]},
        }
        return out


def classify(sys: StateSpace, grid=None, tol: float = NI_SWEEP_TOL) -> Classification:
    """Run the full battery. `ni_spectral` is check_ni(sys, tol), the NI
    verdict of record; `sni_zeros` applies check_sni_zeros' test to that
    verdict, so it equals check_sni_zeros(sys) at the default tol only: at
    another tol, NI and so SNI may differ where H(w) dips between the two
    tols. Both read the kept modal terms and, when the terms do not decide
    both, one zero solve. One evaluation of P(jw) on `grid` decides PR and
    SPR and gives the NI sweep as evidence; `ni_sweep`, `pr_sweep` and
    `spr_sweep` equal the standalone checks at this grid and tol."""
    tol = _check_tol(tol)
    ni = check_ni(sys, tol)
    sni_z = _sni_verdict(sys, ni, tol)
    ni_sweep, pr, spr = _grid_verdicts(sys, grid, tol)
    spr = spr()
    return Classification(
        ni=bool(ni.holds), sni=bool(sni_z.is_sni), pr=bool(pr.holds), spr=bool(spr.holds),
        ni_sweep=ni_sweep, ni_spectral=ni, sni_zeros=sni_z, pr_sweep=pr, spr_sweep=spr)

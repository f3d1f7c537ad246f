"""State-feedback synthesis that renders the loop from disturbance input to
performance output negative imaginary with a DC gain contraction.

Plant class: x' = A x + B1 w + B2 u, z = C1 x, with w the port that an
uncertain but (strictly) negative-imaginary system closes in positive
feedback. Find K so that A + B2 K is Hurwitz and the closed loop
(A + B2 K, B1, C1, 0) is NI with lambda_max of its DC gain below one; the
DC-gain stability test then certifies the loop against every admissible
uncertainty with compatible gain at zero frequency.

The search is a feasibility problem in Y = Y^T and M = K Y. When
sym(C1 B1) is singular, the standard perturbed inequality is infeasible in
exact arithmetic along the pinned directions C1^T ker(sym(C1 B1)); the
problem posed here therefore pins those directions as equalities and
perturbs only the complement, which is equivalent for every eps > 0 and is
what makes the search numerically solvable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lmi as lmimod
from .analysis import FreqVerdict, _pole_status, check_ni
from .lti import StateSpace, dc_gain, poles
from .numerics import eig_symmetric


@dataclass(frozen=True)
class UncertainPlant:
    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        B1 = np.asarray(self.B1, dtype=float).reshape(n, -1)
        B2 = np.asarray(self.B2, dtype=float).reshape(n, -1)
        C1 = np.atleast_2d(np.asarray(self.C1, dtype=float))
        if C1.shape[1] != n:
            raise ValueError("C1 column count must match the state dimension")
        if C1.shape[0] != B1.shape[1]:
            raise ValueError("the uncertainty port must be square (B1 columns == C1 rows)")
        for name, Mx in (("A", A), ("B1", B1), ("B2", B2), ("C1", C1)):
            if not np.all(np.isfinite(Mx)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B1", B1)
        object.__setattr__(self, "B2", B2)
        object.__setattr__(self, "C1", C1)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def controls(self):
        return self.B2.shape[1]

    @property
    def port_size(self):
        return self.C1.shape[0]


def closed_loop(plant: UncertainPlant, K) -> StateSpace:
    K = np.asarray(K, dtype=float).reshape(plant.controls, plant.n)
    return StateSpace(plant.A + plant.B2 @ K, plant.B1, plant.C1,
                      np.zeros((plant.port_size, plant.port_size)))


def synth_problem(plant: UncertainPlant, eps: float) -> lmimod.LmiProblem:
    """Feasibility problem actually solved. Variables Y (sym, n) and
    M (controls x n); K = M Y^{-1} on success.

    Constraints: B1 + A Y C1^T + B2 M C1^T = 0; Y > 0;
    C1 Y C1^T - I < 0; and S = sym(A Y + B2 M) <= -eps I, except that along
    any pinned directions Q (see module docstring) the rows S Q are required
    to vanish exactly and the -eps I margin applies on the complement only.
    """
    return _synth_lmis(plant, eps, lmimod._pinned_directions(plant.B1, plant.C1))


def synth_verification_problem(plant: UncertainPlant, eps: float) -> lmimod.LmiProblem:
    """Unpinned statement of the same conditions, for checking a given
    (Y, M) pair at whatever tolerance the caller wants: equality
    B1 + A Y C1^T + B2 M C1^T = 0, sym(A Y + B2 M) + eps I <= 0, Y > 0,
    C1 Y C1^T - I < 0."""
    return _synth_lmis(plant, eps, None)


def _synth_lmis(plant, eps, Q):
    """The constraints of both problems above, the S block pinned along the
    columns of Q unless Q is None."""
    A, B1, B2, C1 = plant.A, plant.B1, plant.B2, plant.C1
    n, mu, q = plant.n, plant.controls, plant.port_size
    prob = lmimod.LmiProblem([lmimod.SymVar("Y", n), lmimod.RectVar("M", mu, n)])

    def S(v):
        return A @ v["Y"] + v["Y"] @ A.T + B2 @ v["M"] + v["M"].T @ B2.T

    prob.require_zero(lambda v: B1 + A @ v["Y"] @ C1.T + B2 @ v["M"] @ C1.T)
    if Q is None:
        prob.require_nsd(lambda v: S(v) + eps * np.eye(n))
    else:
        _, Zc = lmimod._complement(Q, n)
        prob.require_zero(lambda v: S(v) @ Q)
        prob.require_nsd(lambda v: Zc.T @ (S(v) + eps * np.eye(n)) @ Zc)
    prob.require_psd(lambda v: v["Y"], strict=True)
    prob.require_nsd(lambda v: C1 @ v["Y"] @ C1.T - np.eye(q), strict=True)
    return prob


@dataclass
class SynthesisResult:
    feasible: bool
    K: np.ndarray | None
    Y: np.ndarray | None
    M: np.ndarray | None
    eps: float
    cond_Y: float
    solver: lmimod.SolveResult | None
    verification: lmimod.CertificateReport | None
    reason: str | None = None

    def __bool__(self):
        return self.feasible


def synthesize_state_feedback(plant: UncertainPlant, eps: float = 1e-6) -> SynthesisResult:
    """Solve for K at the requested eps; the solver maximizes the strict
    margins in the one solve. On failure `reason` is the solver's:
    "infeasible" (with a dual certificate on `solver.dual`) or
    "budget exhausted"."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    eps = float(eps)
    res = lmimod.solve_feasibility(synth_problem(plant, eps))
    if not res.feasible:
        return SynthesisResult(False, None, None, None, eps, np.inf, res, None,
                               reason=res.reason)
    Y, Mv = res.values["Y"], res.values["M"]
    K = np.linalg.solve(Y, Mv.T).T
    # pinned directions carry sym(A Y + B2 M) = 0 exactly, so the eps-margin
    # form is checked at zero margin (its honest unpinned statement); the eps
    # margin itself is enforced on the complement inside the solved problem
    ver = lmimod.verify_certificate(
        synth_verification_problem(plant, 0.0), res.values,
        psd_tol=1e-7, strict_margin=0.0, eq_tol=1e-6)
    return SynthesisResult(True, K, Y, Mv, eps, float(np.linalg.cond(Y)), res, ver)


@dataclass
class ClosedLoopReport:
    """Independent checks of a candidate gain on the original plant data.

    `ok` gates on: Hurwitz A + B2 K by the pole test of check_ni, the NI
    verdict of record (check_ni), DC gain contraction sigma_max < 1 with a
    symmetric PSD DC gain, and the DC identity Gcl(0) = C1 Y C1^T when Y is
    supplied. By the DC-gain theorem these certify the loop against every
    admissible strictly-NI uncertainty.
    """

    ok: bool
    hurwitz: bool
    ni: FreqVerdict
    dc_sigma_max: float
    dc_contraction: bool
    dc_psd: bool
    dc_identity_error: float | None


def verify_closed_loop(plant: UncertainPlant, K, Y=None) -> ClosedLoopReport:
    K = np.asarray(K, dtype=float).reshape(plant.controls, plant.n)
    gcl = closed_loop(plant, K)

    axis, in_rhp = _pole_status(poles(gcl))
    hurwitz = not (axis.size or in_rhp)

    ni = check_ni(gcl)

    if hurwitz:
        G0 = dc_gain(gcl)
        smax = float(np.linalg.svd(G0, compute_uv=False)[0]) if G0.size else 0.0
        sym_err = np.linalg.norm(G0 - G0.T)
        Gs = 0.5 * (G0 + G0.T)
        lmin = eig_symmetric(Gs)[0] if G0.size else 0.0
        dc_psd = bool(sym_err <= 1e-8 * (1.0 + np.linalg.norm(G0))
                      and lmin >= -1e-8 * (1.0 + np.linalg.norm(G0)))
        contraction = bool(smax < 1.0)
    else:
        G0, smax, dc_psd, contraction = None, np.inf, False, False

    ident = None
    if Y is not None and G0 is not None:
        Y = np.asarray(Y, dtype=float)
        ident = float(np.linalg.norm(G0 - plant.C1 @ Y @ plant.C1.T)
                      / (1.0 + np.linalg.norm(Y)))

    ok = bool(hurwitz and ni.holds and contraction and dc_psd
              and (ident is None or ident <= 1e-6))
    return ClosedLoopReport(ok=ok, hurwitz=hurwitz, ni=ni, dc_sigma_max=smax,
                            dc_contraction=contraction, dc_psd=dc_psd,
                            dc_identity_error=ident)

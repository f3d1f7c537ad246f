"""Closed-loop stability of positive feedback between two stable systems.

The main result: for M negative-imaginary and N strictly negative-imaginary
with M(inf) N(inf) = 0 and N(inf) >= 0, the positive feedback loop [M, N] is
internally stable if and only if lambda_max(M(0) N(0)) < 1. The DC gain
product alone decides stability, no frequency sweep of the loop required.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _pole_status, check_ni, check_sni_zeros
from .lti import StateSpace, dc_gain, inf_gain, positive_feedback

MARGINAL_BAND = 1e-6


def internal_stability(M: StateSpace, N: StateSpace, sign: str = "positive") -> dict:
    """Direct pole test of the feedback interconnection of M and N.

    sign="positive" closes u_M = y_N + w, u_N = y_M + v; "negative" negates
    N's output first. Returns {"stable": bool, "poles": ndarray}.
    """
    if sign == "negative":
        N = StateSpace(N.A, N.B, -N.C, -N.D)
    elif sign != "positive":
        raise ValueError("sign must be 'positive' or 'negative'")
    cl = positive_feedback(M, N)
    # eigenvalues alone: no verdict reads a basis of the closure
    p = np.linalg.eigvals(cl.A) if cl.n else np.zeros(0, dtype=complex)
    axis, in_rhp = _pole_status(p)
    return {"stable": not (axis.size or in_rhp), "poles": p}


@dataclass
class StabilityReport:
    """Verdict of the DC-gain test plus every hypothesis it rests on.

    `stable` is the verdict of record: the DC-gain iff when the hypotheses
    hold and the spectrum is not marginal, otherwise the direct pole test.
    """

    stable: bool
    lambda_max_dc: float
    marginal: bool
    hypotheses_hold: bool
    m_is_ni: bool
    n_is_sni: bool
    gain_product_zero: bool
    n_inf_psd: bool
    dc_eigs_real: bool
    internally_stable: bool
    closed_loop_poles: np.ndarray
    note: str | None = None

    def __bool__(self):
        return self.stable

    def to_json(self) -> dict:
        return {
            "stable": bool(self.stable),
            "lambda_max_dc": float(self.lambda_max_dc),
            "marginal": bool(self.marginal),
            "hypotheses_hold": bool(self.hypotheses_hold),
            "m_is_ni": bool(self.m_is_ni),
            "n_is_sni": bool(self.n_is_sni),
            "gain_product_zero": bool(self.gain_product_zero),
            "n_inf_psd": bool(self.n_inf_psd),
            "dc_eigs_real": bool(self.dc_eigs_real),
            "internally_stable": bool(self.internally_stable),
            "closed_loop_poles": [[p.real, p.imag] for p in np.asarray(self.closed_loop_poles)],
            "note": self.note,
        }


def _dc_gain_hypotheses(M: StateSpace, N: StateSpace, m_ni: bool, n_sni: bool) -> dict:
    """The DC-gain test of the loop [M, N] without a pole test: the
    StabilityReport fields that say whether the theorem's hypotheses hold
    and what lambda_max(M(0) N(0)) is, given the NI verdict m_ni of M and
    the SNI verdict n_sni of N."""
    Minf, Ninf = inf_gain(M), inf_gain(N)
    prod = Minf @ Ninf
    gain_zero = np.linalg.norm(prod) <= 1e-9 * (1.0 + np.linalg.norm(Minf) * np.linalg.norm(Ninf))
    Ns = 0.5 * (Ninf + Ninf.T)
    sym_ok = np.linalg.norm(Ninf - Ninf.T) <= 1e-9 * (1.0 + np.linalg.norm(Ninf))
    psd_ok = Ns.size == 0 or np.linalg.eigvalsh(Ns).min() >= -1e-9 * (1.0 + np.linalg.norm(Ns))
    n_inf_psd = bool(sym_ok and psd_ok)

    M0, N0 = dc_gain(M), dc_gain(N)
    P0 = M0 @ N0
    if P0.size:
        ev = np.linalg.eigvals(P0)
        i = int(np.argmax(ev.real))
        lam = float(ev[i].real)
        eigs_real = bool(abs(ev[i].imag) <= 1e-8 * (1.0 + abs(ev[i])))
    else:
        lam, eigs_real = 0.0, True

    return {"lambda_max_dc": lam, "marginal": abs(lam - 1.0) < MARGINAL_BAND,
            "hypotheses_hold": bool(m_ni and n_sni and gain_zero and n_inf_psd and eigs_real),
            "m_is_ni": bool(m_ni), "n_is_sni": bool(n_sni),
            "gain_product_zero": bool(gain_zero), "n_inf_psd": n_inf_psd,
            "dc_eigs_real": eigs_real}


def dc_gain_verdict(M: StateSpace, N: StateSpace) -> StabilityReport:
    """Apply the DC-gain stability test to the positive feedback loop [M, N].

    M must be NI and N strictly NI (check_ni and check_sni_zeros), with
    M(inf) N(inf) = 0 and N(inf) >= 0. Then stability of the loop is
    equivalent to lambda_max(M(0) N(0)) < 1. When a hypothesis fails, or
    lambda_max sits within 1e-6 of 1, the verdict falls back to the direct
    pole test and says so.
    """
    if M.inputs != N.outputs or M.outputs != N.inputs:
        raise ValueError("loop dimensions do not match")
    h = _dc_gain_hypotheses(M, N, check_ni(M).holds, check_sni_zeros(N).is_sni)
    direct = internal_stability(M, N)
    if h["hypotheses_hold"] and not h["marginal"]:
        stable = h["lambda_max_dc"] < 1.0
        note = None
    else:
        stable = direct["stable"]
        note = ("lambda_max within the marginal band, pole test used"
                if h["hypotheses_hold"] else "hypotheses not satisfied, pole test used")
    return StabilityReport(stable=stable, internally_stable=direct["stable"],
                           closed_loop_poles=direct["poles"], note=note, **h)

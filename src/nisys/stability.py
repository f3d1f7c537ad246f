"""Closed-loop stability of positive feedback between two stable systems.

The main result: for M negative-imaginary and N strictly negative-imaginary
with M(inf) N(inf) = 0 and N(inf) >= 0, the positive feedback loop [M, N] is
internally stable if and only if lambda_max(M(0) N(0)) < 1. The DC gain
product alone decides stability, no frequency sweep of the loop required.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .analysis import _pole_status, check_ni, check_sni_zeros
from .lti import LtiError, StateSpace, dc_gain, inf_gain, positive_feedback

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
    `note` is None when the theorem decided; otherwise it says that the pole
    test decided, and why. `lambda_max_dc` is NaN when M(0) or N(0) is
    undefined (a pole at the origin).

    `internally_stable` and `closed_loop_poles` are the pole test's own
    answer, never read from `stable`. When the pole test decides they are
    computed with the verdict; when the theorem decides, at their first
    read (`to_json` reads them). Only a report made by `dc_gain_verdict`
    holds the loop they are computed from.
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
    note: str | None = None
    _loop: tuple = field(default=(), repr=False, compare=False)

    def __bool__(self):
        return self.stable

    @functools.cached_property
    def _pole_test(self) -> dict:
        if not self._loop:
            raise ValueError("this StabilityReport holds no loop to pole-test; "
                             "make it with dc_gain_verdict")
        return internal_stability(*self._loop)

    @property
    def internally_stable(self) -> bool:
        return self._pole_test["stable"]

    @property
    def closed_loop_poles(self) -> np.ndarray:
        return self._pole_test["poles"]

    def to_json(self) -> dict:
        lam = float(self.lambda_max_dc)
        return {
            "stable": bool(self.stable),
            "lambda_max_dc": lam if np.isfinite(lam) else None,
            "marginal": bool(self.marginal),
            "hypotheses_hold": bool(self.hypotheses_hold),
            "m_is_ni": bool(self.m_is_ni),
            "n_is_sni": bool(self.n_is_sni),
            "gain_product_zero": bool(self.gain_product_zero),
            "n_inf_psd": bool(self.n_inf_psd),
            "dc_eigs_real": bool(self.dc_eigs_real),
            "internally_stable": bool(self.internally_stable),
            "closed_loop_poles": [[p.real, p.imag] for p in self.closed_loop_poles],
            "note": self.note,
        }


def _dc_gain_hypotheses(M: StateSpace, N: StateSpace, m_ni: bool, n_sni: bool):
    """The DC-gain test of the loop [M, N] without a pole test, given the NI
    verdict m_ni of M and the SNI verdict n_sni of N: (fields, why), where
    fields are the StabilityReport fields that say whether the theorem's
    hypotheses hold and what lambda_max(M(0) N(0)) is. why is None, or the
    reason M(0) N(0) is undefined, in which case lambda_max_dc is NaN and
    the hypotheses do not hold."""
    Minf, Ninf = inf_gain(M), inf_gain(N)
    prod = Minf @ Ninf
    gain_zero = np.linalg.norm(prod) <= 1e-9 * (1.0 + np.linalg.norm(Minf) * np.linalg.norm(Ninf))
    Ns = 0.5 * (Ninf + Ninf.T)
    sym_ok = np.linalg.norm(Ninf - Ninf.T) <= 1e-9 * (1.0 + np.linalg.norm(Ninf))
    psd_ok = Ns.size == 0 or np.linalg.eigvalsh(Ns).min() >= -1e-9 * (1.0 + np.linalg.norm(Ns))
    n_inf_psd = bool(sym_ok and psd_ok)

    lam, eigs_real, why = np.nan, False, None
    try:
        P0 = dc_gain(M) @ dc_gain(N)
    except LtiError as e:
        why = str(e)
    else:
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
            "dc_eigs_real": eigs_real}, why


def dc_gain_verdict(M: StateSpace, N: StateSpace) -> StabilityReport:
    """Apply the DC-gain stability test to the positive feedback loop [M, N].

    M must be NI and N strictly NI (check_ni and check_sni_zeros), with
    M(inf) N(inf) = 0 and N(inf) >= 0. For a structural M, whose modal
    terms are each NI, check_ni reads only the residues of its kept
    eigenbasis, with no zero solve, and so does check_sni_zeros for an IRC,
    PPF or PPF-MIMO N, whose terms are each positive semidefinite with a
    definite sum. Then stability of the loop is
    equivalent to lambda_max(M(0) N(0)) < 1, and the closure is not
    eigensolved: its poles are computed at the first read of the report's
    `internally_stable` or `closed_loop_poles`. When a hypothesis fails
    (also when M(0) or N(0) is undefined), or lambda_max sits within 1e-6
    of 1, the verdict falls back to the direct pole test, run here, and
    `note` says so; it is None when the theorem decides.
    """
    if M.inputs != N.outputs or M.outputs != N.inputs:
        raise ValueError("loop dimensions do not match")
    h, why = _dc_gain_hypotheses(M, N, check_ni(M).holds, check_sni_zeros(N).is_sni)
    if h["hypotheses_hold"] and not h["marginal"]:
        return StabilityReport(stable=h["lambda_max_dc"] < 1.0, _loop=(M, N), **h)
    if h["hypotheses_hold"]:
        note = "lambda_max within the marginal band, pole test used"
    else:
        note = "hypotheses not satisfied, pole test used" + (f": {why}" if why else "")
    rep = StabilityReport(stable=False, note=note, _loop=(M, N), **h)
    rep.stable = rep.internally_stable  # the pole test decides, so it runs now
    return rep

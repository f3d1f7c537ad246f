import json

import numpy as np
import pytest

from nisys import (StabilityReport, StateSpace, dc_gain_verdict, internal_stability, irc,
                   stability)
from conftest import counting, tf


def test_internal_stability_direct():
    M = tf([1.0], [1.0, 1.0])          # 1/(s+1), DC gain 1
    N_small = irc(np.array([[1.0]]), np.array([[2.0]]))   # DC gain 0.5
    N_big = irc(np.array([[1.0]]), np.array([[0.5]]))     # DC gain 2
    assert internal_stability(M, N_small)["stable"]
    assert not internal_stability(M, N_big)["stable"]


def test_internal_stability_negative_sign():
    # negative feedback of 1/(s+1) with gain 2 is stable even though the
    # positive loop is not
    M = tf([1.0], [1.0, 1.0])
    N = StateSpace([[-10.0]], [[1.0]], [[0.0]], [[2.0]])
    assert not internal_stability(M, N, sign="positive")["stable"]
    assert internal_stability(M, N, sign="negative")["stable"]
    with pytest.raises(ValueError):
        internal_stability(M, N, sign="sideways")


def test_dc_gain_verdict_basic_stable(flexible_plant):
    Gamma = np.array([[9.6584e5]])
    Phi = np.array([[1.8597e-4]])
    rep = dc_gain_verdict(flexible_plant, irc(Gamma, Phi))
    assert rep.stable
    assert rep.hypotheses_hold
    assert rep.m_is_ni and rep.n_is_sni
    assert rep.gain_product_zero and rep.n_inf_psd
    assert not rep.marginal
    assert abs(rep.lambda_max_dc - 0.8333) < 1e-3
    assert rep.note is None
    assert rep.internally_stable
    j = rep.to_json()
    assert j["stable"] is True and j["internally_stable"] is True
    assert len(j["closed_loop_poles"]) == flexible_plant.n + 1
    assert json.loads(json.dumps(j)) == j


def test_dc_gain_verdict_unstable_branch():
    M = tf([1.0], [1.0, 1.0])
    N = irc(np.array([[1.0]]), np.array([[0.5]]))  # lambda_max = 2 > 1
    rep = dc_gain_verdict(M, N)
    assert not rep.stable
    assert rep.hypotheses_hold
    assert np.isclose(rep.lambda_max_dc, 2.0, atol=1e-9)
    assert not rep.internally_stable


def test_dc_gain_verdict_matches_pole_test_on_gain_family():
    # family crossing lambda_max = 1: stable iff g < 1
    M = tf([1.0], [1.0, 1.0])
    for g in (0.3, 0.9, 0.999, 1.001, 1.1, 3.0):
        N = irc(np.array([[1.0]]), np.array([[1.0 / g]]))
        rep = dc_gain_verdict(M, N)
        assert rep.hypotheses_hold
        assert np.isclose(rep.lambda_max_dc, g, atol=1e-9)
        assert rep.stable == rep.internally_stable == (g < 1.0)


def test_dc_gain_verdict_marginal_band_falls_back():
    M = tf([1.0], [1.0, 1.0])
    g = 1.0 + 1e-8  # inside the 1e-6 marginal band
    N = irc(np.array([[1.0]]), np.array([[1.0 / g]]))
    rep = dc_gain_verdict(M, N)
    assert rep.marginal
    assert rep.note is not None and "marginal" in rep.note
    # verdict comes from the pole test in the band
    assert rep.stable == rep.internally_stable


def test_dc_gain_verdict_hypothesis_failure_falls_back(unstable):
    # M not NI: DC-gain test not applicable, pole test decides
    N = irc(np.array([[1.0]]), np.array([[2.0]]))
    rep = dc_gain_verdict(unstable, N)
    assert not rep.hypotheses_hold
    assert not rep.m_is_ni
    assert rep.note is not None and "hypotheses" in rep.note
    assert rep.stable == rep.internally_stable


def test_dc_gain_verdict_dimension_check(first_order):
    N2 = irc(np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        dc_gain_verdict(first_order, N2)


@pytest.mark.parametrize("g, hypotheses", [(1.0 + 1e-8, True), (0.5, False), (2.0, False)])
def test_dc_gain_verdict_fallbacks_run_the_pole_test_eagerly(monkeypatch, unstable, g,
                                                             hypotheses):
    # the marginal band (hypotheses hold), and an M that is not NI
    M = tf([1.0], [1.0, 1.0]) if hypotheses else unstable
    N = irc(np.array([[1.0]]), np.array([[1.0 / g]]))
    calls = counting(monkeypatch, stability, "internal_stability")
    rep = dc_gain_verdict(M, N)
    assert len(calls) == 1
    assert rep.hypotheses_hold == hypotheses and rep.note.endswith("pole test used")
    assert rep.stable == rep.internally_stable == internal_stability(M, N)["stable"]
    j = rep.to_json()
    assert j["internally_stable"] is rep.stable and len(j["closed_loop_poles"]) == M.n + N.n
    assert len(calls) == 1


def test_dc_gain_verdict_theorem_runs_no_pole_test_until_read(monkeypatch):
    M = tf([1.0], [1.0, 1.0])
    calls = counting(monkeypatch, stability, "internal_stability")
    for g in (0.5, 2.0):
        rep = dc_gain_verdict(M, irc(np.array([[1.0]]), np.array([[1.0 / g]])))
        assert rep.hypotheses_hold and rep.note is None and rep.stable == (g < 1.0)
        assert calls == []
        # the lazy answer is the pole test's own, not a copy of the verdict
        assert rep.internally_stable == (g < 1.0)
        assert rep.closed_loop_poles.size == 2
        assert len(calls) == 1
        calls.clear()


def test_dc_gain_verdict_pole_at_origin_falls_back():
    # M = 1/s has no DC gain: the hypotheses are not satisfied and the
    # pole test decides; s (s + 2) - 1 has a root at -1 + sqrt(2) > 0
    M = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    rep = dc_gain_verdict(M, irc(np.array([[1.0]]), np.array([[2.0]])))
    assert not rep.hypotheses_hold and np.isnan(rep.lambda_max_dc)
    assert not rep.stable and not rep.internally_stable
    assert rep.note.startswith("hypotheses not satisfied, pole test used: ")
    assert "dc gain undefined" in rep.note
    assert np.isclose(rep.closed_loop_poles.real.max(), np.sqrt(2.0) - 1.0)
    j = json.loads(json.dumps(rep.to_json(), allow_nan=False))
    assert j["lambda_max_dc"] is None and j["stable"] is False
    # against N = -1/(s + 1) the loop is s^2 + s + 1: stable, by the pole test
    rep = dc_gain_verdict(M, StateSpace([[-1.0]], [[1.0]], [[-1.0]], [[0.0]]))
    assert not rep.hypotheses_hold and np.isnan(rep.lambda_max_dc)
    assert rep.stable and rep.internally_stable


def test_hand_built_report_has_no_pole_test():
    # a report not made by dc_gain_verdict holds no loop to pole-test
    fields = dict(lambda_max_dc=0.5, marginal=False, hypotheses_hold=True, m_is_ni=True,
                  n_is_sni=True, gain_product_zero=True, n_inf_psd=True, dc_eigs_real=True)
    rep = StabilityReport(stable=True, **fields)
    assert rep and not rep.marginal
    for read in (lambda: rep.internally_stable, lambda: rep.closed_loop_poles, rep.to_json):
        with pytest.raises(ValueError, match="holds no loop"):
            read()

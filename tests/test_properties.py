"""Randomized invariant suites, 50+ cases each, fixed seeds throughout.

Generators draw from controller families and modal models that are NI (or
strictly NI) by construction, so every case has a known expected verdict
with a solid margin; the suites then check that the implementation's sweeps,
certificates, and interconnection algebra reproduce the known closure facts.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nisys import (StateSpace, add, check_ni, check_ni_sweep, check_positive_real,
                   check_sni_zeros, check_strictly_positive_real, dc_gain,
                   dc_gain_verdict, default_grid, diagonal_replicate, evaluate,
                   hermitian_imaginary_part, inf_gain, internal_stability, irc,
                   modal_to_ss, positive_feedback, ppf, ppf_mimo, resonant_acc,
                   resonant_vel_type, rotated_system, star_product)
from nisys import ModalModel, analysis, phi_imaginary_axis_zeros, poles
from nisys import closed_loop, synthesize_state_feedback, verify_closed_loop
from nisys.analysis import ORIGIN_TOL
from nisys.lti import eigensystem
from conftest import FAULT3_PLANT, PORT_PLANT, SYNTH_PLANT, flexible_modes, random_pd, tf


def lag_block(rng, m):
    eps = float(rng.uniform(0.05, 1.0))
    alpha = float(rng.uniform(0.2, 5.0))
    return StateSpace(-alpha * np.eye(m), eps * np.eye(m), np.eye(m),
                      np.zeros((m, m)))


def double_lag_siso(rng):
    eps = float(rng.uniform(0.05, 1.0))
    alpha = float(rng.uniform(0.2, 5.0))
    beta = float(rng.uniform(0.2, 5.0))
    return tf([eps], np.polymul([1.0, alpha], [1.0, beta]))


def modal_position(rng, m):
    k = int(rng.integers(1, 4))
    modes = tuple((float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.1, 2.0)),
                   tuple(rng.uniform(-1.5, 1.5, size=m)))
                  for _ in range(k))
    return modal_to_ss(ModalModel(modes=modes, output="position"))


def sni_draw(rng, m):
    """Strictly negative-imaginary by construction."""
    pick = rng.integers(0, 4)
    if pick == 0:
        return lag_block(rng, m)
    if pick == 1:
        return irc(random_pd(rng, m), random_pd(rng, m))
    if pick == 2:
        r = m + 1
        K = rng.standard_normal((r, m)) + np.vstack([np.eye(m), np.zeros((1, m))])
        return ppf_mimo(K, random_pd(rng, r), random_pd(rng, r))
    return diagonal_replicate(double_lag_siso(rng), m)


def ni_draw(rng, m):
    """Negative imaginary (possibly strictly)."""
    pick = rng.integers(0, 4)
    if pick == 0:
        return modal_position(rng, m)
    if pick == 1:
        g = rng.uniform(0.2, 2.0, size=m)
        z = float(rng.uniform(0.2, 1.0))
        w = float(rng.uniform(0.5, 10.0))
        return resonant_acc([(g, z, w)]) if m > 1 else \
            resonant_acc([(float(g[0]), z, w)])
    if pick == 2:
        g = rng.uniform(0.2, 2.0, size=m)
        z = float(rng.uniform(0.2, 1.0))
        w = float(rng.uniform(0.5, 10.0))
        return resonant_vel_type([(g, z, w)]) if m > 1 else \
            resonant_vel_type([(float(g[0]), z, w)])
    return sni_draw(rng, m)


def scale_output(sys, c):
    # positive output scaling preserves the NI property
    return StateSpace(sys.A, sys.B, c * sys.C, c * sys.D)


# ---------------------------------------------------------------- additivity

def test_additivity_ni_plus_ni_is_ni():
    rng = np.random.default_rng(101)
    for _ in range(60):
        m = int(rng.integers(1, 3))
        s = add(ni_draw(rng, m), ni_draw(rng, m))
        v = check_ni_sweep(s)
        assert v.holds, f"NI sum violated at w={v.worst_frequency}"


def test_additivity_sni_plus_ni_is_sni():
    rng = np.random.default_rng(103)
    for _ in range(50):
        m = int(rng.integers(1, 3))
        s = add(sni_draw(rng, m), ni_draw(rng, m))
        r = check_sni_zeros(s)
        assert r.is_sni, f"SNI sum lost strictness: {r.reason}"


# ------------------------------------------------- interconnection closures

def test_positive_feedback_closure_is_ni():
    rng = np.random.default_rng(107)
    accepted = 0
    attempts = 0
    while accepted < 50 and attempts < 500:
        attempts += 1
        m = int(rng.integers(1, 3))
        M = ni_draw(rng, m)
        N = ni_draw(rng, m)
        lam = np.linalg.eigvals(dc_gain(M) @ dc_gain(N)).real.max()
        if lam > 0:
            N = scale_output(N, float(rng.uniform(0.2, 0.8)) / lam)
        if np.linalg.norm(inf_gain(N) @ inf_gain(M)) > 0.9:
            continue
        if not internal_stability(M, N)["stable"]:
            continue
        accepted += 1
        T = positive_feedback(M, N)
        v = check_ni_sweep(T)
        assert v.holds, f"closed two-port not NI at w={v.worst_frequency}"
    assert accepted >= 50


def test_star_product_closure_is_ni():
    rng = np.random.default_rng(109)
    accepted = 0
    attempts = 0
    while accepted < 50 and attempts < 600:
        attempts += 1
        M = ni_draw(rng, 2)
        N = scale_output(ni_draw(rng, 2), 0.4)
        q = 1
        loop_D = np.eye(q) - N.D[:q, :q] @ M.D[q:, q:]
        if np.linalg.svd(loop_D, compute_uv=False)[-1] < 0.3:
            continue
        T = star_product(M, N)
        p = np.linalg.eigvals(T.A)
        if p.size and p.real.max() >= -1e-7:
            continue
        accepted += 1
        v = check_ni_sweep(T)
        assert v.holds, f"star product not NI at w={v.worst_frequency}"
    assert accepted >= 50


# -------------------------------------------------------- SNI constructions

def test_lag_identity_blocks_are_sni():
    rng = np.random.default_rng(113)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        r = check_sni_zeros(lag_block(rng, m))
        assert r.is_sni


def test_double_lag_is_sni():
    rng = np.random.default_rng(127)
    for _ in range(50):
        r = check_sni_zeros(double_lag_siso(rng))
        assert r.is_sni


def test_replicated_siso_sni_is_sni():
    rng = np.random.default_rng(131)
    for _ in range(50):
        m = int(rng.integers(2, 4))
        base = double_lag_siso(rng) if rng.integers(0, 2) else \
            ppf([(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 1.0)),
                  float(rng.uniform(0.5, 8.0)))])
        r = check_sni_zeros(diagonal_replicate(base, m))
        assert r.is_sni


def test_irc_is_sni_for_random_pd_gains():
    rng = np.random.default_rng(137)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        c = irc(random_pd(rng, m), random_pd(rng, m))
        r = check_sni_zeros(c)
        assert r.is_sni


# ------------------------------------------------------------ DC orderings

def test_ni_dc_dominates_inf_gain():
    rng = np.random.default_rng(139)
    for _ in range(60):
        m = int(rng.integers(1, 3))
        M = ni_draw(rng, m)
        M0, Minf = dc_gain(M), inf_gain(M)
        assert np.linalg.norm(M0 - M0.T) <= 1e-9 * (1.0 + np.linalg.norm(M0))
        assert np.linalg.norm(Minf - Minf.T) <= 1e-9 * (1.0 + np.linalg.norm(Minf))
        gap = M0 - Minf
        assert np.linalg.eigvalsh(0.5 * (gap + gap.T))[0] >= \
            -1e-9 * (1.0 + np.linalg.norm(gap))


def test_sni_dc_strictly_dominates_and_product_eigs_real():
    rng = np.random.default_rng(149)
    for _ in range(50):
        m = int(rng.integers(1, 3))
        N = sni_draw(rng, m)
        gap = dc_gain(N) - inf_gain(N)
        assert np.linalg.eigvalsh(0.5 * (gap + gap.T))[0] > 0
        # here N(inf) = 0 >= 0, so N(0) > 0 and eig(M(0) N(0)) are all real
        M = ni_draw(rng, m)
        assert np.linalg.eigvalsh(dc_gain(N))[0] > 0
        ev = np.linalg.eigvals(dc_gain(M) @ dc_gain(N))
        assert np.all(np.abs(ev.imag) <= 1e-8 * (1.0 + np.abs(ev)))


# --------------------------------------------------------- rotation identity

def test_rotation_identity_pointwise():
    rng = np.random.default_rng(151)
    for _ in range(50):
        m = int(rng.integers(1, 3))
        P = ni_draw(rng, m)
        Q = rotated_system(P)
        for _ in range(3):
            w = float(rng.uniform(0.01, 50.0))
            Qv = evaluate(Q, 1j * w)
            H = hermitian_imaginary_part(P, w)
            assert np.allclose(Qv + Qv.conj().T, w * H,
                               atol=1e-8 * (1.0 + np.linalg.norm(H)))


def test_rotation_links_ni_and_pr_verdicts():
    rng = np.random.default_rng(157)
    for i in range(50):
        m = int(rng.integers(1, 3))
        P = ni_draw(rng, m)
        if i % 2:
            P = scale_output(P, -1.0)  # negated: solidly not NI
        expect = check_ni_sweep(P).holds
        got = check_positive_real(rotated_system(P)).holds
        assert got == expect
        # SPR implies PR
        assert check_positive_real(P).holds or not check_strictly_positive_real(P).holds


def test_check_ni_agrees_with_dense_sweep():
    # the zero-pencil verdict against a 2000-points-per-decade sweep, on NI
    # draws, their sums, and the negated (not NI) draws
    rng = np.random.default_rng(163)
    for i in range(30):
        m = int(rng.integers(1, 3))
        P = ni_draw(rng, m) if i % 3 else add(ni_draw(rng, m), ni_draw(rng, m))
        if i % 2:
            P = scale_output(P, -1.0)
        dense = check_ni_sweep(P, grid=default_grid(P, points_per_decade=2000))
        assert check_ni(P).holds == dense.holds == (i % 2 == 0)


# ------------------------------------------- t = s^2 zeros against QZ oracle

def _qz_verdict(P, monkeypatch):
    # check_ni with the zeros of Phi from the QZ pencil
    with monkeypatch.context() as mp:
        mp.setattr(analysis, "phi_imaginary_axis_zeros", analysis._phi_zeros_qz)
        return check_ni(P)


def _off_origin(z, p):
    # QZ splits a multiple zero at the origin by up to about 1e-7 of the
    # slowest pole's magnitude
    return z[np.abs(z) > 1e-6 * p.min()]


def test_phi_zeros_agree_with_qz_oracle(monkeypatch):
    # NI and SNI draws, their negations, and sums of a draw and a scaled
    # negated draw, which put zeros of Phi on the axis
    rng = np.random.default_rng(167)
    crossings = 0
    for i in range(90):
        m = int(rng.integers(1, 3))
        P = (ni_draw, sni_draw)[i % 2](rng, m)
        if i % 3 == 1:
            P = scale_output(P, -1.0)
        elif i % 3 == 2:
            P = add(P, scale_output(ni_draw(rng, m), -float(rng.uniform(0.05, 0.5))))
        ni, sni = check_ni(P), check_sni_zeros(P)
        qni = _qz_verdict(P, monkeypatch)
        assert ni.holds == qni.holds
        z = phi_imaginary_axis_zeros(P)
        if z.singular:
            continue
        p = np.abs(poles(P))
        axis = z[0][np.abs(z[0]) > ORIGIN_TOL]
        assert _off_origin(axis, p).size == axis.size
        q = _off_origin(analysis._phi_zeros_qz(P)[0], p)
        assert sni.is_sni == (qni.holds and q.size == 0)
        a, b = np.sort(np.abs(axis.imag)), np.sort(np.abs(q.imag))
        assert a.size == b.size
        assert np.all(np.abs(a - b) <= 1e-8 * b)
        crossings += a.size > 0
    assert crossings >= 10


def test_t_zeros_residual_on_paper_plant():
    # every zero t of G(t) = sum_i R_i / (t - lam_i^2) on the 100-mode plant
    # leaves sigma_min(G(t)) at most 1e-9 of its largest term
    P = modal_to_ss(ModalModel(flexible_modes(100)))
    lam, (V, Vi, cond) = eigensystem(P)
    why, t, k = analysis._t_zeros(P, lam, V, Vi, cond)
    assert why is None and k == 1 and t.size == P.n - 2
    CV, W = P.C @ V, Vi @ P.B
    for tk in t:
        f = 1.0 / (tk - lam * lam)
        G = (CV * f) @ W
        terms = np.linalg.norm(CV, axis=0) * np.linalg.norm(W, axis=1) * np.abs(f)
        assert np.linalg.svd(G, compute_uv=False)[-1] <= 1e-9 * terms.max()


# ------------------------------------------------- DC-gain verdict iff test

def test_dc_verdict_agrees_with_pole_test_across_gain_family():
    # lambda_max crosses 1 as g sweeps; outside the 1e-6 marginal band the
    # DC-gain verdict and the direct pole test must agree exactly
    M = tf([1.0], [1.0, 1.0])  # NI with M(0) = 1
    gs = np.geomspace(0.05, 20.0, 50)
    assert not np.any(np.abs(gs - 1.0) < 1e-6)
    for g in gs:
        N = irc(np.array([[1.0]]), np.array([[1.0 / g]]))  # N(0) = g
        rep = dc_gain_verdict(M, N)
        assert rep.hypotheses_hold
        assert not rep.marginal
        assert np.isclose(rep.lambda_max_dc, g, rtol=1e-9)
        assert rep.stable == rep.internally_stable == (g < 1.0)


@given(eps=st.floats(0.01, 2.0), alpha=st.floats(0.1, 10.0),
       m=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_lag_block_sni_over_parameter_box(eps, alpha, m):
    sys = StateSpace(-alpha * np.eye(m), eps * np.eye(m), np.eye(m),
                     np.zeros((m, m)))
    assert check_sni_zeros(sys).is_sni


@given(g=st.floats(0.05, 20.0))
@settings(max_examples=60, deadline=None)
def test_dc_verdict_iff_over_gain_interval(g):
    assume(abs(g - 1.0) > 1e-5)
    M = tf([1.0], [1.0, 1.0])
    N = irc(np.array([[1.0]]), np.array([[1.0 / g]]))
    rep = dc_gain_verdict(M, N)
    assert rep.hypotheses_hold and not rep.marginal
    assert rep.stable == rep.internally_stable == (g < 1.0)


def test_dc_verdict_gain_family_mimo():
    M = diagonal_replicate(tf([1.0], [1.0, 1.0]), 2)
    for g in np.geomspace(0.1, 10.0, 25):
        N = irc(np.eye(2), np.eye(2) / g)
        rep = dc_gain_verdict(M, N)
        assert rep.hypotheses_hold
        assert rep.stable == rep.internally_stable == (g < 1.0)


# ------------------------------------- synthesized gains against the theorem

def unstable_sni_closures(plant, K, samples=50, seed=20260819):
    """Close random first-order strictly-NI uncertainties D(s) = dinf +
    kg/(s+p) (scaled identity on the port) around the loop of gain K and
    count unstable closures. Draws keep D(0) < 1 and D(inf) >= 0, the
    admissible class for a contractive loop."""
    rng = np.random.default_rng(seed)
    Acl, B1, C1 = closed_loop(plant, K).A, plant.B1, plant.C1
    Iq = np.eye(plant.port_size)
    fails = 0
    for _ in range(samples):
        p = rng.uniform(0.1, 5.0)
        dinf = rng.uniform(0.0, 0.3)
        dc = rng.uniform(dinf, 1.0 - 1e-3)
        Abig = np.block([[Acl + dinf * B1 @ C1, (dc - dinf) * p * B1], [C1, -p * Iq]])
        fails += np.linalg.eigvals(Abig).real.max() >= 0
    return fails


@pytest.mark.parametrize("plant", [SYNTH_PLANT, FAULT3_PLANT, PORT_PLANT],
                         ids=["paper", "fault3", "port"])
def test_synthesized_gains_survive_random_sni_closures(plant):
    # verify_closed_loop certifies every admissible uncertainty by the DC-gain
    # theorem; random closures are the independent check of that claim
    res = synthesize_state_feedback(plant)
    assert res.feasible and verify_closed_loop(plant, res.K, Y=res.Y).ok
    assert unstable_sni_closures(plant, res.K) == 0

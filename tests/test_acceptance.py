"""End-to-end acceptance gates.

Each test pins one headline result of the package at its stated tolerance:
the flexible-structure DC gain, the feedthrough selection and DC stability
verdict, the resonant-gain search, the classification golden set, published
certificate verification, state-feedback synthesis, the rank-completion
constant, and the modal two-path oracle. The randomized invariant suites are
tests/test_properties.py, collected with the rest of the suite.
Run with -v for one pass/fail line per gate.
"""

import time

import numpy as np

from nisys import (UncertainPlant, check_sni_zeros, choose_phi, classify,
                   dc_gain, dc_gain_verdict, design_irc_gamma, evaluate,
                   finsler_tau, irc, modal_to_ss, ni_problem,
                   synth_verification_problem, synthesize_state_feedback,
                   verify_certificate, verify_closed_loop)
from conftest import (FLEXIBLE_DC_EXACT, SECOND_ORDER_Y, SYNTH_K_PUBLISHED,
                      SYNTH_M_PUBLISHED, SYNTH_Y_PUBLISHED, flexible_modes,
                      random_modal, tf)
from nisys import ModalModel


def test_flexible_plant_dc_gain(flexible_plant):
    t0 = time.perf_counter()
    dc = dc_gain(flexible_plant)[0, 0]
    elapsed = time.perf_counter() - t0
    assert abs(dc - 1.5498e-4) / 1.5498e-4 <= 1e-4
    assert np.isclose(dc, FLEXIBLE_DC_EXACT, rtol=1e-12)
    assert elapsed < 1.0


def test_phi_selection_and_dc_verdict(flexible_plant):
    Phi = choose_phi(flexible_plant, margin=1.2)
    assert abs(Phi[0, 0] - 1.8597e-4) / 1.8597e-4 <= 1e-4
    rep = dc_gain_verdict(flexible_plant, irc(np.array([[9.6584e5]]), Phi))
    assert rep.stable and rep.hypotheses_hold
    # Phi = 1.2 P(0), so lambda_max(P(0) Phi^{-1}) = 1/1.2 = 5/6 exactly
    assert abs(rep.lambda_max_dc - 5.0 / 6.0) < 1e-6


def test_irc_gain_search_recovers_peak(flexible_plant):
    Phi = choose_phi(flexible_plant, margin=1.2)
    t0 = time.perf_counter()
    des = design_irc_gamma(flexible_plant, Phi, points_per_decade=200)
    elapsed = time.perf_counter() - t0
    assert des.feasible
    assert abs(des.gamma_star - 9.6584e5) / 9.6584e5 <= 0.05
    # first-mode damping at the selected gain: open loop has zeta = 0.01
    assert des.zeta_at_star >= 5 * 0.01
    assert elapsed < 60.0


def test_classification_golden_set(second_order, velocity_mode):
    c = classify(tf([1.0], [1.0, 1.0]))
    assert c.ni and c.sni and c.pr and c.spr
    c = classify(second_order)
    assert c.ni and not c.sni
    z = check_sni_zeros(second_order)
    near_j = np.abs(z.axis_zeros - 1j) < 1e-4
    assert near_j.sum() == 2  # double zero at s = j
    c = classify(velocity_mode)  # s/(s^2+s+1)
    assert c.pr and not c.spr
    assert not classify(tf([1.0], [1.0, -1.0])).ni


def test_published_certificates_verify(second_order, second_order_Y, synth_plant):
    # values printed to ~5 digits, so tolerances are loose
    rep = verify_certificate(
        ni_problem(second_order.A, second_order.B, second_order.C),
        {"Y": second_order_Y}, psd_tol=1e-6, strict_margin=-1e-6, eq_tol=1e-5)
    assert rep.ok
    rep = verify_certificate(
        synth_verification_problem(synth_plant, 1e-6),
        {"Y": SYNTH_Y_PUBLISHED, "M": SYNTH_M_PUBLISHED},
        psd_tol=1e-6, strict_margin=-1e-6, eq_tol=1e-5)
    assert rep.ok


def test_synthesis_and_closed_loop_checks(synth_plant):
    res = synthesize_state_feedback(synth_plant, eps=1e-6)
    assert res.feasible and res.verification.ok
    rep = verify_closed_loop(synth_plant, res.K, Y=res.Y)
    assert rep.ok
    assert rep.hurwitz and rep.ni
    assert rep.dc_contraction and rep.dc_psd and rep.mc_failures == 0
    # a fixed reference gain must pass the same checks (the certificate
    # itself is non-unique, so entrywise match of Y, M, K is not required)
    rep = verify_closed_loop(synth_plant, SYNTH_K_PUBLISHED)
    assert rep.ok
    assert rep.hurwitz and rep.ni
    assert rep.dc_sigma_max < 1.0


def test_rank_completion_constant_exact():
    tau = finsler_tau(np.diag([1.0, 0.0]), np.diag([-1.0, 1.0]))
    assert abs(tau - 1.0) <= 1e-8


def test_modal_two_path_oracle():
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        channels = int(rng.integers(1, 4))
        output = "position" if rng.integers(0, 2) else "velocity"
        model = random_modal(rng, channels=channels, output=output)
        ss = modal_to_ss(model)
        for _ in range(3):
            s = complex(rng.uniform(0.1, 5.0), rng.uniform(-50.0, 50.0))
            direct = model.eval_sum(s)
            via_ss = evaluate(ss, s)
            assert np.linalg.norm(via_ss - direct) <= \
                1e-10 * (1.0 + np.linalg.norm(direct))

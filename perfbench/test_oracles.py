"""Each oracle of the benchmark against a value worked out by hand.

Run: python3 -m pytest -q perfbench/test_oracles.py
"""

import numpy as np

import oracles

PAPER = [(100.0 * k, 2.0, (1.0,)) for k in range(1, 11)]
NARROW = [(1.0, 0.5, 1.0), (10.0577, 1e-4, -1e-3)]


def test_paper_dc_gain_is_sum_of_inverse_squares():
    expected = 1e-4 * sum(1.0 / k**2 for k in range(1, 11))
    got = oracles.modal_dc_gain(PAPER)[0, 0]
    assert abs(got - expected) <= 1e-15 * expected


def test_modal_response_by_hand():
    # 1 / (s^2 + 2 s + 4) at s = j is 1 / (3 + 2j)
    got = oracles.modal_response([(2.0, 2.0, (1.0,))], [1j])[0, 0, 0]
    assert abs(got - 1.0 / (3.0 + 2.0j)) <= 1e-15
    # velocity output s / (s^2 + 2 s + 4) at s = j is j / (3 + 2j)
    got = oracles.modal_response([(2.0, 2.0, (1.0,))], [1j], "velocity")[0, 0, 0]
    assert abs(got - 1j / (3.0 + 2.0j)) <= 1e-15


def test_ss_response_matches_companion_form_by_hand():
    A, B, C = oracles.modal_realization([(2.0, 2.0, (1.0,))])
    assert np.array_equal(A, [[0.0, 1.0], [-4.0, -2.0]])
    assert np.array_equal(B, [[0.0], [1.0]]) and np.array_equal(C, [[1.0, 0.0]])
    got = oracles.ss_response(A, B, C, np.zeros((1, 1)), [1j])[0, 0, 0]
    assert abs(got - 1.0 / (3.0 + 2.0j)) <= 1e-14


def test_narrow_band_violation_is_found():
    ws = oracles.modal_grid(NARROW)
    rel, w, lam = oracles.ni_margin(oracles.modal_response(NARROW, 1j * ws), ws)
    assert abs(w - 10.0577) <= 1e-3
    assert abs(lam - (-1.99)) <= 0.01
    assert rel < 0


def test_dense_grid_is_ten_times_the_program_grid():
    ws = oracles.frequency_grid([1.0, 10.0])
    # 1e-3 .. 1e4 is 7 decades; 2000 points per decade plus w = 0
    assert ws.size == 7 * 2000 + 2
    assert ws[0] == 0.0


def test_positive_feedback_lag_loop_by_hand():
    # k/(s+1) in positive feedback with 1/(s+1): poles -1 +- sqrt(k)
    one = np.array([[1.0]])
    for k, stable in ((0.5, True), (0.99, True), (1.01, False), (1.5, False)):
        A = oracles.feedback_matrix(-one, one, one, -one, one, k * one)
        assert oracles.is_hurwitz(A) is stable
        assert abs(oracles.max_real_part(A) - (-1.0 + np.sqrt(k))) <= 1e-12


def test_position_modal_class_facts():
    for modes in (PAPER[:3], [(3.0, 0.1, (1.0, -0.5)), (7.0, 0.3, (0.2, 1.0))]):
        ws = oracles.modal_grid(modes)
        P = oracles.modal_response(modes, 1j * ws)
        assert oracles.ni_margin(P, ws)[0] >= -oracles.SIGN_TOL        # NI
        assert oracles.ni_margin(P, ws, positive_only=True)[2] > 0      # SNI
        assert oracles.pr_margin(P, ws)[0] < 0                          # not PR


def test_velocity_modal_class_facts():
    modes = PAPER[:2]
    ws = oracles.modal_grid(modes)
    P = oracles.modal_response(modes, 1j * ws, "velocity")
    assert oracles.pr_margin(P, ws)[0] >= -oracles.SIGN_TOL             # PR
    assert oracles.ni_margin(P, ws)[0] < 0                              # not NI
    # P(-eps) < 0, so P(s - eps) is not PR for any eps > 0: not SPR
    assert oracles.velocity_shift_value(modes)[0, 0] < 0


def test_irc_loop_lambda_is_one_over_margin():
    # an IRC loop with Phi = margin * M(0) has lambda_max(M(0) Phi^{-1}) = 1 / margin
    M0 = oracles.modal_dc_gain([(3.0, 0.1, (1.0, -0.5)), (7.0, 0.3, (0.2, 1.0))])
    for margin in (1.25, 2.0, 0.8):
        N0 = np.linalg.inv(margin * M0)
        assert abs(oracles.lambda_max(M0, N0) - 1.0 / margin) <= 1e-12


def test_irc_decay_bound():
    decays = np.array([np.nan, 1.0, 3.0, 2.0])
    assert oracles.irc_decay_ok(3.0, decays)
    assert oracles.irc_decay_ok(3.5, decays)
    assert not oracles.irc_decay_ok(2.9, decays)

import numpy as np
import pytest

from nisys import (UncertainPlant, closed_loop, dc_gain, synth_problem,
                   synth_verification_problem, synthesize_state_feedback,
                   verify_certificate, verify_closed_loop)
from conftest import (FAULT3_PLANT, PORT_PLANT, SYNTH_K_PUBLISHED, SYNTH_M_PUBLISHED,
                      SYNTH_Y_PUBLISHED, assert_farkas)


def test_uncertain_plant_validation():
    with pytest.raises(ValueError):
        UncertainPlant(np.ones((2, 3)), np.ones((2, 1)), np.ones((2, 1)),
                       np.ones((1, 2)))
    with pytest.raises(ValueError):
        # port not square: B1 has 2 columns, C1 one row
        UncertainPlant(np.eye(2), np.ones((2, 2)), np.ones((2, 1)),
                       np.ones((1, 2)))
    with pytest.raises(ValueError):
        UncertainPlant(np.array([[np.inf, 0], [0, 1]]), np.ones((2, 1)),
                       np.ones((2, 1)), np.ones((1, 2)))


def test_synthesis_feasible_and_certified(synth_plant):
    res = synthesize_state_feedback(synth_plant)
    assert res.feasible
    assert res.eps == 1e-6
    assert res.verification.ok
    assert res.K.shape == (1, 3)
    # closed loop is Hurwitz with contractive symmetric DC gain
    gcl = closed_loop(synth_plant, res.K)
    assert np.all(np.linalg.eigvals(gcl.A).real < 0)
    G0 = dc_gain(gcl)
    assert np.linalg.svd(G0, compute_uv=False)[0] < 1.0
    # DC identity G(0) = C1 Y C1^T holds for the synthesized pair
    assert np.allclose(G0, synth_plant.C1 @ res.Y @ synth_plant.C1.T,
                       atol=1e-8)


def test_pinned_rows_vanish(synth_plant):
    # sym(C1 B1) = 0 here, so sym(A Y + B2 M) C1^T must vanish exactly
    res = synthesize_state_feedback(synth_plant)
    Y, M = res.Y, res.M
    A, B2, C1 = synth_plant.A, synth_plant.B2, synth_plant.C1
    S = A @ Y + Y @ A.T + B2 @ M + M.T @ B2.T
    assert np.linalg.norm(S @ C1.T) <= 1e-8 * (1.0 + np.linalg.norm(S))


def test_verify_closed_loop_on_synthesized_gain(synth_plant):
    res = synthesize_state_feedback(synth_plant)
    rep = verify_closed_loop(synth_plant, res.K, Y=res.Y)
    assert rep.ok
    assert rep.hurwitz and rep.ni.holds
    assert rep.dc_contraction and rep.dc_psd
    assert rep.dc_identity_error < 1e-10


def test_verify_closed_loop_published_gain(synth_plant):
    rep = verify_closed_loop(synth_plant, SYNTH_K_PUBLISHED, Y=SYNTH_Y_PUBLISHED)
    assert rep.ok
    assert np.isclose(rep.dc_sigma_max, 0.72850, atol=1e-4)


def test_published_pair_verifies_loose(synth_plant):
    rep = verify_certificate(
        synth_verification_problem(synth_plant, 1e-6),
        {"Y": SYNTH_Y_PUBLISHED, "M": SYNTH_M_PUBLISHED},
        psd_tol=1e-6, strict_margin=-1e-6, eq_tol=1e-5)
    assert rep.ok
    # note: M Y^{-1} does NOT reproduce the printed K here; cond(Y) ~ 1e11
    # amplifies 5-digit print rounding to O(1), so the gain is checked
    # separately through verify_closed_loop instead


def test_verify_closed_loop_rejects_destabilizing_gain(synth_plant):
    K_bad = np.array([[100.0, 0.0, 0.0]])
    rep = verify_closed_loop(synth_plant, K_bad)
    assert not rep.ok


def test_verify_closed_loop_near_marginal_pole_is_not_hurwitz():
    # K = 0 leaves the pole -1e-13 inside the imaginary-axis band of the
    # pole test of check_ni: not Hurwitz, and no DC gain is taken
    plant = UncertainPlant(np.diag([-1e-13, -1.0]), [[1.0], [1.0]], [[1.0], [0.0]],
                           [[1.0, 1.0]])
    rep = verify_closed_loop(plant, np.zeros((1, 2)))
    assert not rep.hurwitz and not rep.ok
    assert rep.ni.reason == "imaginary-axis pole"


@pytest.mark.parametrize("plant", [FAULT3_PLANT, PORT_PLANT], ids=["fault3", "port"])
def test_ports_passing_with_zero_gain_are_feasible(plant):
    assert verify_closed_loop(plant, np.zeros((1, plant.n))).ok
    res = synthesize_state_feedback(plant)
    assert res.feasible and res.eps == 1e-6 and res.verification.ok
    assert verify_closed_loop(plant, res.K, Y=res.Y).ok


def test_zero_disturbance_port_is_infeasible(synth_plant):
    # B1 = 0 forces Y C1^T = 0 through the equality, contradicting Y > 0
    plant = UncertainPlant(synth_plant.A, np.zeros((3, 1)), synth_plant.B2,
                           synth_plant.C1)
    res = synthesize_state_feedback(plant)
    assert not res.feasible and res.reason == "infeasible"
    assert_farkas(synth_problem(plant, res.eps), res.solver)
    # ... but any stabilizing gain trivially passes closed-loop checks:
    # the loop transfer is identically zero (A alone has an eigenvalue at 0,
    # so K = 0 is not stabilizing; the published gain is)
    rep = verify_closed_loop(plant, SYNTH_K_PUBLISHED)
    assert rep.hurwitz and rep.ni.holds and rep.ok


def test_unstabilizable_plant_infeasible():
    plant = UncertainPlant(np.diag([1.0, -1.0]), [[1.0], [0.0]],
                           [[0.0], [1.0]], [[1.0, 0.0]])
    res = synthesize_state_feedback(plant)
    assert not res.feasible and res.reason == "infeasible"
    assert_farkas(synth_problem(plant, res.eps), res.solver)

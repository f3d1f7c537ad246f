import tracemalloc

import numpy as np
import pytest

from nisys import (LmiProblem, ModalModel, RectVar, SymVar, check_ni_lmi, finsler_tau, lmi,
                   modal_to_ss, ni_problem, numerics, solve_feasibility, synthesis,
                   verify_certificate)
from conftest import SYNTH_PLANT, assert_farkas, counting, flexible_modes


def test_first_order_analytic_certificate():
    # 1/(s+1): A=-1, B=C=1; B + A Y C^T = 0 forces Y = 1 exactly
    res = solve_feasibility(ni_problem([[-1.0]], [[1.0]], [[1.0]]))
    assert res.feasible
    assert np.isclose(res.values["Y"][0, 0], 1.0, atol=1e-8)


def test_lag_block_analytic_certificate():
    # eps/(s+alpha) I: Y = (eps/alpha) I satisfies both constraints exactly
    for m, eps, alpha in ((1, 0.3, 2.0), (3, 0.05, 1.0)):
        A = -alpha * np.eye(m)
        B = eps * np.eye(m)
        C = np.eye(m)
        res = solve_feasibility(ni_problem(A, B, C))
        assert res.feasible
        assert np.linalg.norm(res.values["Y"] - (eps / alpha) * np.eye(m)) < 1e-7


def test_fourth_order_feasible_and_verifies(second_order):
    res = solve_feasibility(ni_problem(second_order.A, second_order.B, second_order.C))
    assert res.feasible and res.reason == "certificate"
    rep = verify_certificate(
        ni_problem(second_order.A, second_order.B, second_order.C), res.values)
    assert rep.ok


def test_published_certificate_verifies_loose(second_order, second_order_Y):
    # printed to ~5 digits, so loose tolerances
    prob = ni_problem(second_order.A, second_order.B, second_order.C)
    rep = verify_certificate(prob, {"Y": second_order_Y},
                             psd_tol=1e-6, strict_margin=-1e-6, eq_tol=1e-5)
    assert rep.ok


def test_verify_rejects_wrong_certificate(second_order):
    prob = ni_problem(second_order.A, second_order.B, second_order.C)
    rep = verify_certificate(prob, {"Y": np.eye(4)})
    assert not rep.ok


def test_empty_strict_block_passes_solver_and_verification():
    # a 0 x 0 block has no eigenvalue, so no margin to fall short of
    prob = LmiProblem([SymVar("Y", 2)])
    prob.require_psd(lambda v: v["Y"], strict=True)
    prob.require_psd(lambda v: np.zeros((0, 0)), strict=True)
    res = solve_feasibility(prob)
    assert res.feasible and res.reason == "certificate"
    rep = verify_certificate(prob, res.values)
    assert rep.ok and rep.checks[1].ok


def test_solver_keeps_one_copy_of_each_block():
    # the affine forms are released once the reduced blocks exist, and no
    # undeflated copy of a block lives through the Newton steps: on the
    # balanced 15-mode paper plant (n = 30) the peak traced allocation
    # stays under 24 MB, which a solve keeping both (about 30 MB) exceeds
    sys = modal_to_ss(ModalModel(flexible_modes(15)))
    Ab, T = numerics.balance(sys.A)
    t = np.diag(T)
    prob = ni_problem(Ab, sys.B / t[:, None], sys.C * t[None, :])
    tracemalloc.start()
    try:
        res = solve_feasibility(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.reason == "certificate"
    assert peak < 24e6, peak


def test_ni_lmi_refuses_a_problem_over_the_memory_budget():
    # the 100-mode paper plant (n = 200): 20100 unknowns, whose affine
    # stacks alone would take 6.4 GB per cone and the Schur matrix 3.2 GB;
    # the refusal reads the estimate and builds none of them
    plant = modal_to_ss(ModalModel(flexible_modes(100)))
    tracemalloc.start()
    try:
        r = check_ni_lmi(plant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not r.is_ni and r.reason.startswith("no certificate: problem too large: ")
    assert "20100 unknowns" in r.reason and "200, 200" in r.reason
    assert r.solver.iters == 0 and r.solver.values is None
    assert peak < 8e6, peak
    # the n = 60 paper plant (1830 unknowns, about 370 MB at its peak)
    # still solves; n = 200 is far over the budget
    assert lmi._solve_bytes(1830, [60, 60], [60]) <= lmi.MAX_SOLVE_BYTES
    assert lmi._solve_bytes(20100, [200, 200], [200]) > 9e9


def test_size_refusal_unpacks_no_unit_vector(second_order, monkeypatch):
    # the estimate comes from the constraints at x = 0 alone
    prob = ni_problem(second_order.A, second_order.B, second_order.C)
    n = second_order.n
    need = lmi._solve_bytes(prob.dim, [n, n], [n])
    unpacked = counting(monkeypatch, prob, "unpack")
    monkeypatch.setattr(lmi, "MAX_SOLVE_BYTES", need - 1)
    res = solve_feasibility(prob)
    assert not res.feasible and res.reason.startswith("problem too large: ")
    assert res.iters == 0 and unpacked == [(prob.dim,)]
    monkeypatch.setattr(lmi, "MAX_SOLVE_BYTES", need)
    assert solve_feasibility(prob).reason == "certificate"


@pytest.mark.parametrize("build, cones", [
    (lambda plant: synthesis.synth_problem(SYNTH_PLANT, 1e-6), 3),
    (lambda plant: ni_problem(plant.A, plant.B, plant.C), 2),
], ids=["synth_problem", "ni_problem"])
def test_newton_step_factors_every_cone_in_one_call(build, cones, second_order, monkeypatch):
    # the cones' blocks are stacked, so each Newton step makes one batched
    # Cholesky of all of them, not one per cone
    prob = build(second_order)
    assert len(prob.cones) == cones
    calls = counting(monkeypatch, np.linalg, "cholesky")
    res = solve_feasibility(prob)
    assert res.reason == "certificate" and res.iters > 0
    assert len(calls) == res.iters, (len(calls), res.iters)
    assert all(len(shape) == 3 and shape[0] == cones for shape in calls), calls


def _mixed_sizes(top):
    """Cones of sizes 1, 2 and 3, and a 3 x 3 cone deflated to 2 x 2 by its
    boundary kernel, on Y (2 x 2): tr Y + top >= 0 (strict), Y >= 0, and
    tr Y <= 1 in the corner of a 3 x 3 block. Infeasible for top < -1."""
    prob = LmiProblem([SymVar("Y", 2)])
    prob.require_psd(lambda v: np.array([[np.trace(v["Y"]) + top]]), strict=True)
    prob.require_psd(lambda v: v["Y"])
    prob.require_psd(lambda v: np.array([[1.0 - np.trace(v["Y"]), 0.0, 0.0],
                                         [0.0, 1.0, v["Y"][0, 1]],
                                         [0.0, v["Y"][0, 1], 1.0]]))
    prob.require_psd(lambda v: np.pad(np.eye(2) + v["Y"], ((0, 1), (0, 1))),
                     boundary_kernel=np.array([[0.0], [0.0], [1.0]]))
    return prob


def test_unequal_cone_sizes_keep_their_own_dual_and_start(monkeypatch):
    # the blocks are zero-padded to one size in the stack: the Farkas dual
    # of each cone keeps the cone's own shape, and the start reads each
    # block's own eigenvalues, not a pad's
    prob = _mixed_sizes(-2.0)
    res = solve_feasibility(prob)
    assert_farkas(prob, res)
    assert [W.shape for W in res.dual] == [(1, 1), (2, 2), (3, 3), (3, 3)]
    assert np.allclose(res.dual[3][2], 0.0) and np.allclose(res.dual[3][:, 2], 0.0)

    # Y = 0 passes every non-strict block, so the 1 x 1 strict block alone
    # is lifted; its scaled margin at the start is top / top = 1, and t
    # starts one unit below it
    prob = _mixed_sizes(1e3)
    res = solve_feasibility(prob)
    assert res.reason == "certificate" and verify_certificate(prob, res.values).ok
    monkeypatch.setattr(lmi, "MAX_NEWTON_STEPS", 0)
    start = solve_feasibility(prob)
    assert start.reason == "budget exhausted" and start.iters == 0
    assert start.margin == 0.0, start.margin


@pytest.mark.parametrize("pinned", [1, 3])
def test_only_cone_empty_with_equalities(pinned):
    # no block to stack: the step runs on the t and ball barriers alone
    prob = LmiProblem([SymVar("Y", 2)])
    prob.require_psd(lambda v: np.zeros((0, 0)), strict=True)
    prob.require_zero(lambda v: v["Y"].ravel()[[0, 1, 3][:pinned]] - 1.0)
    res = solve_feasibility(prob)
    assert res.feasible and res.reason == "certificate"
    assert np.allclose(res.values["Y"].ravel()[[0, 1, 3][:pinned]], 1.0)
    assert verify_certificate(prob, res.values).ok


def test_solver_is_deterministic(second_order):
    r1 = solve_feasibility(ni_problem(second_order.A, second_order.B, second_order.C))
    r2 = solve_feasibility(ni_problem(second_order.A, second_order.B, second_order.C))
    assert r1.feasible and r2.feasible
    assert np.array_equal(r1.values["Y"], r2.values["Y"])
    assert r1.iters == r2.iters


def test_unstable_system_infeasible():
    # A = +1: the equality pins Y = -1, contradicting Y > 0
    prob = ni_problem([[1.0]], [[1.0]], [[1.0]])
    assert_farkas(prob, solve_feasibility(prob))


def test_infeasible_dual_cancels_the_balls_pull():
    # a stable plant that is not NI, on which the search leans on the ball:
    # the Newton step's dual proves infeasibility only once the ball's pull
    # along the Hk_j is cancelled
    A = np.array([[-1.5083, 1.5969, -0.3235, 0.0916, -0.6511, -0.8257],
                  [-0.615, -0.9953, 0.3084, -0.3625, -0.1228, 0.1556],
                  [0.1121, 1.4961, -0.4736, 0.2181, -0.4415, 0.2092],
                  [1.5309, 1.4942, 0.4944, -0.8004, 0.9003, 2.0333],
                  [1.7955, -0.4875, -0.7939, -1.7716, -1.6782, 0.0596],
                  [1.3119, -0.7581, -1.1126, -0.2761, 0.3891, -1.2001]])
    B = np.array([[0.2175], [-1.5408], [-0.7282], [-1.0148], [1.4128], [0.842]])
    C = np.array([[1.721, -1.3916, 1.1012, 0.054, 0.0335, -0.0749]])
    prob = ni_problem(A, B, C)
    assert_farkas(prob, solve_feasibility(prob))


def test_budget_exhausted_at_step_cap(second_order, monkeypatch):
    monkeypatch.setattr(lmi, "MAX_NEWTON_STEPS", 3)
    res = solve_feasibility(ni_problem(second_order.A, second_order.B, second_order.C))
    assert not res.feasible and res.reason == "budget exhausted"
    assert res.iters == 3 and res.dual is None


def test_inconsistent_equalities_reported():
    prob = LmiProblem([SymVar("Y", 1)])
    prob.require_psd(lambda v: v["Y"], strict=True)
    prob.require_zero(lambda v: v["Y"] - 1.0)
    prob.require_zero(lambda v: v["Y"] + 1.0)
    res = solve_feasibility(prob)
    assert not res.feasible
    assert res.reason is not None and "equalit" in res.reason


def test_equalities_fully_determined_path():
    # equalities pin the variable completely; no free parameters remain
    prob = LmiProblem([SymVar("Y", 1)])
    prob.require_psd(lambda v: v["Y"])
    prob.require_zero(lambda v: v["Y"] - 2.0)
    res = solve_feasibility(prob)
    assert res.feasible
    assert np.isclose(res.values["Y"][0, 0], 2.0)


def test_rect_vars_enter_problems():
    # find Y > 0 and M with M = 3 Y on a scalar problem
    prob = LmiProblem([SymVar("Y", 1), RectVar("M", 1, 1)])
    prob.require_psd(lambda v: v["Y"], strict=True)
    prob.require_zero(lambda v: v["M"] - 3.0 * v["Y"])
    res = solve_feasibility(prob)
    assert res.feasible
    assert np.isclose(res.values["M"][0, 0], 3.0 * res.values["Y"][0, 0], atol=1e-9)


def test_finsler_diag_exact():
    t = finsler_tau(np.diag([1.0, 0.0]), np.diag([-1.0, 1.0]))
    assert abs(t - 1.0) <= 1e-8


def test_finsler_psd_second_argument_zero():
    assert finsler_tau(np.eye(3), np.eye(3)) == 0.0


def test_finsler_requires_psd_first():
    with pytest.raises(ValueError):
        finsler_tau(np.diag([-1.0, 1.0]), np.eye(2))


def test_finsler_indefinite_on_kernel_has_no_tau():
    # N negative on ker(M): no finite tau works
    with pytest.raises(ValueError):
        finsler_tau(np.diag([1.0, 0.0]), np.diag([1.0, -1.0]))


def test_finsler_random_brackets():
    rng = np.random.default_rng(7)
    for _ in range(10):
        G = rng.standard_normal((4, 4))
        M = G @ G.T
        N0 = rng.standard_normal((4, 4))
        N = N0 + N0.T + 0.5 * np.eye(4)
        t = finsler_tau(M, N - 3.0 * M)
        d = 1e-6
        target = N - 3.0 * M
        assert np.linalg.eigvalsh(target + (t + d) * M)[0] >= -1e-12
        if t > d:
            assert np.linalg.eigvalsh(target + (t - d) * M)[0] < 1e-12

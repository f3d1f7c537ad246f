import numpy as np
import pytest

from nisys import analysis
from nisys import lmi as lmimod
from nisys import numerics
from nisys import (UncertainPlant, add, check_ni, check_ni_lmi, check_ni_sweep,
                   check_positive_real, check_sni_zeros, check_strictly_positive_real,
                   classify, dc_gain_verdict, default_grid, hermitian_imaginary_part,
                   irc, phi_system, poles, ppf_mimo, resonant_acc, rotated_system,
                   sni_sufficient_lag, sni_sufficient_lag2, verify_closed_loop)
from nisys.analysis import _breakpoint_grid, _phi_zeros_qz, phi_imaginary_axis_zeros
from nisys.lti import ModalModel, StateSpace, evaluate, modal_to_ss
from conftest import CLUSTER_MODES, flexible_modes, same, tf


def test_default_grid_brackets_poles(second_order):
    g = default_grid(second_order)
    assert g[0] == 0.0
    mags = np.abs(poles(second_order))
    assert g[1] <= 1e-3 * mags.min() * 1.0001
    assert g[-1] >= 1e3 * mags.max() * 0.9999
    assert np.all(np.diff(g) > 0)


def test_default_grid_overrides():
    sys = tf([1.0], [1.0, 1.0])
    g = default_grid(sys, points_per_decade=10, wmin=1.0, wmax=100.0,
                     include_zero=False)
    assert np.isclose(g[0], 1.0) and np.isclose(g[-1], 100.0)
    with pytest.raises(ValueError):
        default_grid(sys, wmin=10.0, wmax=1.0)


def test_hermitian_imaginary_part_siso_sign():
    sys = tf([1.0], [1.0, 1.0])
    # SISO: H = -2 Im P; for 1/(s+1), Im P(jw) = -w/(1+w^2)
    w = 2.0
    H = hermitian_imaginary_part(sys, w)
    assert np.isclose(H[0, 0].real, 2 * w / (1 + w * w))
    assert abs(H[0, 0].imag) < 1e-15


def test_golden_first_order(first_order):
    c = classify(first_order)
    assert c.ni and c.sni and c.pr and c.spr


def test_golden_second_order(second_order):
    c = classify(second_order)
    assert c.ni and not c.sni
    # blocking zeros at +-j (double): strictness fails away from the origin
    z = c.sni_zeros.violating_zeros
    near_j = z[np.abs(z - 1j) < 1e-4]
    assert near_j.size == 2


def test_golden_velocity_mode(velocity_mode):
    c = classify(velocity_mode)
    assert c.pr and not c.spr
    assert not c.ni  # velocity output makes it PR, not NI


def test_golden_unstable(unstable):
    c = classify(unstable)
    assert not c.ni and not c.sni and not c.pr
    assert c.ni_sweep.reason == "right-half-plane pole"


def _counting(monkeypatch, module, name):
    # one entry per call: the shape of its first argument
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]) if args else None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# not symmetric: P(s) = [[1/(s+1), 1/(s+2)], [0, 1/(s+2)]]
NONSYMMETRIC = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), [[1.0, 1.0], [0.0, 1.0]],
                          np.zeros((2, 2)))


def test_classify_computes_each_fact_once(first_order, second_order, velocity_mode,
                                          unstable, monkeypatch):
    solves = _counting(monkeypatch, lmimod, "solve_feasibility")
    pencils = _counting(monkeypatch, numerics, "generalized_eigenvalues")
    decomps = _counting(monkeypatch, numerics, "eigendecomposition")
    eigs = _counting(monkeypatch, np.linalg, "eig")
    sweeps = _counting(monkeypatch, analysis, "sweep_eigmin")
    grid = np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 50)))
    # symmetric plants read the zeros of Phi in t = s^2, without a QZ pencil
    cases = [(first_order, None, 0), (second_order, None, 0), (velocity_mode, None, 0),
             (second_order, grid, 0), (unstable, None, 0), (NONSYMMETRIC, None, 1)]
    for sys, g, want in cases:
        # a fresh system, so no poles are kept from an earlier case
        sys = StateSpace(sys.A, sys.B, sys.C, sys.D)
        solves.clear()
        pencils.clear()
        decomps.clear()
        eigs.clear()
        sweeps.clear()
        c = classify(sys, grid=g)
        assert len(solves) == 0 and len(pencils) == want
        # A is decomposed once: the poles, every sweep and the zeros of Phi
        # read that one eigensolve. A stable system is swept for NI on the
        # breakpoints and on the grid, and for PR and SPR together on the grid
        assert len(decomps) == 1 and len(eigs) == 1
        assert poles(sys).tobytes() == np.linalg.eigvals(sys.A).tobytes()
        assert len(sweeps) == (3 if np.all(poles(sys).real < 0) else 0)
        ni = check_ni(sys)
        sni_zeros = check_sni_zeros(sys)
        assert same(c.ni_sweep, check_ni_sweep(sys, grid=g))
        assert same(c.ni_spectral, ni)
        assert same(c.sni_zeros, sni_zeros)
        assert same(c.pr_sweep, check_positive_real(sys, grid=g))
        assert same(c.spr_sweep, check_strictly_positive_real(sys, grid=g))
        assert c.ni == ni.holds and c.sni == sni_zeros.is_sni
        # the LMI certificate stays as an independent oracle of the verdict
        assert ni.holds == check_ni_lmi(sys).is_ni
    # the hot path at n = 200 stays off the QZ pencil
    pencils.clear()
    decomps.clear()
    plant = modal_to_ss(ModalModel(flexible_modes(100)))
    assert check_ni(plant).holds
    assert len(pencils) == 0 and len(decomps) == 1
    assert poles(plant).tobytes() == np.linalg.eigvals(plant.A).tobytes()


def test_dc_gain_verdict_decomposes_each_side_once(monkeypatch):
    M = modal_to_ss(ModalModel(flexible_modes()))
    N = irc(np.array([[1e5]]), np.array([[2e-4]]))
    decomps = _counting(monkeypatch, numerics, "eigendecomposition")
    eigs = _counting(monkeypatch, np.linalg, "eig")
    eigvals = _counting(monkeypatch, np.linalg, "eigvals")
    rep = dc_gain_verdict(M, N)
    assert rep.hypotheses_hold and rep.stable
    # one eigensolve per side, and the eigenvalues alone of the closure
    assert decomps == eigs == [(M.n, M.n), (N.n, N.n)]
    n = M.n + N.n
    assert eigvals.count((n, n)) == 1


def test_verify_closed_loop_decomposes_once(monkeypatch):
    plant = UncertainPlant(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0], [0.0]],
                           [[1.0, 1.0]])
    decomps = _counting(monkeypatch, numerics, "eigendecomposition")
    eigs = _counting(monkeypatch, np.linalg, "eig")
    rep = verify_closed_loop(plant, np.zeros((1, 2)))
    assert rep.hurwitz and rep.ni.holds
    # the pole test and check_ni read one decomposition of the closed loop
    assert decomps == eigs == [(2, 2)]


def _second_order_term(k, zeta2, w2):
    # k / (s^2 + zeta2 s + w2)
    return StateSpace([[0.0, 1.0], [-w2, -zeta2]], [[0.0], [1.0]], [[k, 0.0]], [[0.0]])


# 1/(s^2 + 0.5 s + 1) - 1e-3/(s^2 + 1e-4 s + 10.0577^2): H(w) < 0 only in a
# narrow band at w = 10.0577 that falls between the default grid's points
NARROW_BAND = add(_second_order_term(1.0, 0.5, 1.0),
                  _second_order_term(-1e-3, 1e-4, 10.0577 ** 2))


def test_check_ni_finds_narrow_band():
    assert check_ni_sweep(NARROW_BAND).holds  # the grid steps over the band
    v = check_ni(NARROW_BAND)
    assert not v.holds
    assert abs(v.worst_frequency - 10.0577) < 1e-3
    rep = dc_gain_verdict(NARROW_BAND, StateSpace([[-1.0]], [[1.0]], [[0.5]], [[0.0]]))
    assert not rep.m_is_ni and not rep.hypotheses_hold
    assert rep.note == "hypotheses not satisfied, pole test used"
    assert rep.stable == rep.internally_stable


def test_check_ni_tests_pole_magnitudes():
    # a negated light mode: H(w) < 0 for all w > 0, but far below the
    # tolerance at the midpoints between the zeros of Phi
    neg = StateSpace([[0.0, 1.0], [-147.5374, -0.29679]], [[0.0], [0.0054297]],
                     [[-0.0054297, 0.0]], [[0.0]])
    assert not check_ni(neg).holds
    _, fin = phi_imaginary_axis_zeros(neg)
    b = np.unique(np.concatenate(([0.0], np.abs(fin.imag))))
    without_poles = np.unique(np.concatenate(([0.0], 0.5 * (b[:-1] + b[1:]),
                                              [2.0 * b[-1] + 1.0])))
    assert check_ni_sweep(neg, grid=without_poles).holds


def _qz_verdict(sys):
    # check_ni's verdict from the breakpoints of the QZ pencil's zeros
    return check_ni_sweep(sys, grid=_breakpoint_grid(_phi_zeros_qz(sys)[1], poles(sys))).holds


def test_singular_zero_pencil():
    # rank-one 2 x 2 systems: H(w) has a zero eigenvalue at every w
    p = ppf_mimo([[1.0, 0.5]], [[0.6]], [[4.0]])
    r = check_sni_zeros(p)
    assert not r.is_sni and "singular at every w" in r.reason
    assert phi_imaginary_axis_zeros(p).singular
    with pytest.raises(numerics.NumericsError):
        _phi_zeros_qz(p)
    acc = resonant_acc([(np.array([1.0, 0.5]), 0.3, 2.0)])
    v = check_ni(acc)
    assert v.holds and "joint range of the residues" in v.note
    r = check_sni_zeros(acc)
    assert not r.is_sni and "singular at every w" in r.reason


def test_rank_one_narrow_band():
    # v v^T P(s) for the narrow-band P: H(w) is singular at every w, and the
    # zeros on the range of the residues still find the band
    v = np.array([[1.0], [0.5]])
    nb = NARROW_BAND
    p = StateSpace(nb.A, nb.B @ v.T, v @ nb.C, v @ nb.D @ v.T)
    ni = check_ni(p)
    assert not ni.holds and abs(ni.worst_frequency - 10.0577) < 1e-3
    assert "joint range of the residues" in ni.note
    assert not check_sni_zeros(p).is_sni


def test_sni_zeros_ignore_zeros_at_infinity():
    # position output, so CB = 0: the QZ pencil reads two of its infinite
    # zeros as finite ones near 1e8 j, on the axis within AXIS_TOL (1 + |z|)
    p = modal_to_ss(ModalModel(((24.05, 1.4968, (-0.0926, 0.3121)),
                                (110.001, 8.8231, (-0.1918, -0.8351)),
                                (994.049, 49.9876, (-0.6457, -0.1423)))))
    r = check_sni_zeros(p)
    assert r.is_sni and r.violating_zeros.size == 0
    assert np.all(np.abs(r.axis_zeros) <= 1e-8)


def test_repeated_poles_take_the_t_form(monkeypatch):
    # a MIMO PPF controller, each pole twice, in rotated coordinates: eig
    # returns a mixed basis of each double eigenspace, whose single residues
    # are not symmetric, while their sum is
    c = ppf_mimo([[1.0, 0.3], [-0.4, 0.8]], 60.0 * np.eye(2), 1e4 * np.eye(2))
    T = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
    c = StateSpace(T @ c.A @ T.T, T @ c.B, c.C @ T.T, c.D)
    pencils = _counting(monkeypatch, numerics, "generalized_eigenvalues")
    z = phi_imaginary_axis_zeros(c)
    assert z.note is None and len(pencils) == 0
    # the two zeros at the origin from the factor 2s; K = C A^2 B deflates
    # the other four, at infinity
    assert z[1].size == 2 and np.all(z[1] == 0)
    assert check_sni_zeros(c).is_sni and _qz_verdict(c)


@pytest.mark.parametrize("sys, why", [
    (NONSYMMETRIC, "residues or feedthrough not symmetric"),
    # 1/(s+1)^2 from a Jordan block
    (StateSpace([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]),
     "no well-conditioned eigenbasis"),
    # diag(1/(s+1), 1/((s+2)(s+3))): CB = diag(1, 0) is singular but not zero
    (StateSpace(np.diag([-1.0, -2.0, -3.0]), [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                [[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]], np.zeros((2, 2))),
     "no nonsingular leading Markov parameter"),
])
def test_qz_fallback_is_named(sys, why):
    z = phi_imaginary_axis_zeros(sys)
    assert why in z.note
    q = _phi_zeros_qz(sys)
    assert same(z[0], q[0]) and same(z[1], q[1])
    v = check_ni(sys)
    assert why in v.note and v.holds == _qz_verdict(sys)


def test_ni_sweep_rejects_axis_pole():
    sys = StateSpace([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                     [[1.0, 0.0]], [[0.0]])
    v = check_ni_sweep(sys)
    assert not v.holds and v.reason == "imaginary-axis pole"


def test_ni_sweep_requires_square():
    sys = StateSpace([[-1.0]], [[1.0]], [[1.0], [2.0]], [[0.0], [0.0]])
    with pytest.raises(ValueError):
        check_ni_sweep(sys)


def test_ni_lmi_nonsymmetric_feedthrough():
    sys = StateSpace(-np.eye(2), np.eye(2), np.eye(2),
                     [[0.0, 1.0], [0.0, 0.0]])
    r = check_ni_lmi(sys)
    assert not r.is_ni and "symmetric" in r.reason


def test_ni_lmi_certificate_transforms_back(second_order):
    r = check_ni_lmi(second_order)
    assert r.is_ni and r.verification.ok
    Y = r.Y
    # the returned certificate satisfies the original-coordinate conditions
    assert np.linalg.eigvalsh(Y)[0] > 0
    lyap = second_order.A @ Y + Y @ second_order.A.T
    assert np.linalg.eigvalsh(lyap)[-1] <= 1e-7 * max(1.0, np.linalg.norm(lyap))
    resid = second_order.B + second_order.A @ Y @ second_order.C.T
    assert np.linalg.norm(resid) <= 1e-6 * (1.0 + np.linalg.norm(Y))


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-6, 1.0 - 1e-6, 1.001])
def test_ni_lmi_clustered_modes_certified_at_every_scale(scale):
    P = modal_to_ss(ModalModel(tuple((w * scale, k, (p,)) for w, k, p in CLUSTER_MODES)))
    r = check_ni_lmi(P)
    assert r.is_ni and r.verification.ok and r.solver.reason == "certificate"


def test_ni_lmi_answers_paper_plant_n30():
    # a verified certificate or a named budget reason, within the step cap
    r = check_ni_lmi(modal_to_ss(ModalModel(flexible_modes(15))))
    assert (r.is_ni and r.verification.ok) or r.reason == "no certificate: budget exhausted"
    assert r.solver.iters <= lmimod.MAX_NEWTON_STEPS


def test_ni_lmi_flags_nonminimal():
    A = np.diag([-1.0, -1.0])
    sys = StateSpace(A, [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    r = check_ni_lmi(sys)
    assert not r.minimal


def test_phi_system_realization(second_order):
    phi = phi_system(second_order)
    s = 0.6 + 0.0j
    ref = evaluate(second_order, s) - evaluate(second_order, -s).T
    assert np.allclose(evaluate(phi, s), ref, atol=1e-10)


def test_phi_zeros_quadruple(second_order):
    axis, fin = phi_imaginary_axis_zeros(second_order)
    # one zero at the origin plus a double pair at +-j
    at_origin = axis[np.abs(axis) <= 1e-8]
    off = axis[np.abs(axis) > 1e-8]
    assert at_origin.size == 1
    assert off.size == 4
    assert np.all(np.abs(np.abs(off.imag) - 1.0) < 1e-6)


def test_sni_zeros_requires_ni(unstable):
    r = check_sni_zeros(unstable)
    assert not r.is_sni and "not NI" in r.reason


def test_pr_velocity_and_integrator_handling(velocity_mode):
    assert check_positive_real(velocity_mode).holds
    # 1/s: simple pole on the axis, tolerated with a note
    integ = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    v = check_positive_real(integ)
    assert v.holds
    assert v.note is not None


def test_pr_rejects_repeated_axis_pole():
    # 1/s^2 is not PR
    sys = StateSpace([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                     [[1.0, 0.0]], [[0.0]])
    v = check_positive_real(sys)
    assert not v.holds and "repeated" in v.reason


# a rotation by 0.3 rad, to couple the channels of a diagonal plant
ROT = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])


# (system, grid, PR, SPR, a phrase of the SPR reason): each SPR condition
# fails in at least one row. The short grids stop where P + P^* is still
# positive, so only the limit at w -> infinity can fail
SPR_CASES = [
    # P(0) = 0: the velocity paper plants are PR but not SPR
    *[pytest.param(modal_to_ss(ModalModel(flexible_modes(k), output="velocity")), None,
                   True, False, "at w = 0", id=f"velocity-n{2 * k}") for k in (1, 2, 3)],
    # c b^T / (s + 1): P + P^* is singular at every w
    pytest.param(StateSpace([[-1.0]], [[1.0, 2.0]], [[1.0], [2.0]], np.zeros((2, 2))), None,
                 True, False, "not positive definite at w = ", id="rank-one"),
    pytest.param(tf([1e-6], [1.0, 1.0]), None, True, True, None, id="1e-6/(s+1)"),
    pytest.param(tf([1e6], [1.0, 1.0]), None, True, True, None, id="1e6/(s+1)"),
    # P + P^* decays like 1/w^2 in one direction while ||P(jw)|| stays larger
    pytest.param(StateSpace(-np.eye(2), np.eye(2), np.diag([1.0, 1e-6]), np.zeros((2, 2))),
                 None, True, True, None, id="diag(1,1e-6)/(s+1)"),
    pytest.param(StateSpace(-np.eye(2), ROT.T, ROT @ np.diag([1.0, 1e-6]), np.zeros((2, 2))),
                 None, True, True, None, id="rotated diag(1,1e-6)/(s+1)"),
    # D + D^T = diag(2, 0): CB = 1e-3 and -2 CAB > 0 on its kernel
    pytest.param(StateSpace([[-1.0]], [[0.0, 1.0]], [[0.0], [1e-3]], np.diag([1.0, 0.0])),
                 None, True, True, None, id="diag(1,1e-3/(s+1))"),
    # the same limit, beside a fast channel with a large CAB off the kernel
    pytest.param(StateSpace(np.diag([-1e4, -1.0]), np.eye(2), np.diag([1e4, 1e-3]),
                            np.diag([1.0, 0.0])),
                 None, True, True, None, id="diag(1+1e4/(s+1e4),1e-3/(s+1))"),
    pytest.param(tf([1.0], [1.0, 1.0]), default_grid(tf([1.0], [1.0, 1.0]), wmax=1e9),
                 True, True, None, id="1/(s+1) to 1e9"),
    # D + D^T > 0 decides the limit
    pytest.param(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]]), None, True, True, None,
                 id="(s+2)/(s+1)"),
    pytest.param(tf([1.0], [1.0, 0.0, 1.0]), None, False, False, "imaginary-axis pole",
                 id="1/(s^2+1)"),
    pytest.param(tf([1.0], [1.0, -1.0]), None, False, False, "right-half-plane pole",
                 id="1/(s-1)"),
    # CB = 0 and -2 CAB < 0
    pytest.param(tf([1.0], [1.0, 11.0, 10.0]), [0.0, 1.0], True, False,
                 "-(CAB + (CAB)^T) is not positive definite", id="1/((s+1)(s+10))"),
    # CB is not symmetric
    pytest.param(StateSpace(-np.eye(2), [[1.0, 1.0], [-1.0, 1.0]], np.eye(2), np.zeros((2, 2))),
                 [0.0, 0.5], True, False, "CB is not symmetric", id="[[1,1],[-1,1]]/(s+1)"),
    pytest.param(StateSpace([[-1.0]], [[1.0]], [[2.0]], [[-1.0]]), [0.0, 0.5], True, False,
                 "D + D^T is not positive semidefinite", id="2/(s+1)-1"),
]


@pytest.mark.parametrize("sys, grid, pr, spr, why", SPR_CASES)
def test_spr_conditions(sys, grid, pr, spr, why):
    v = check_strictly_positive_real(sys, grid=grid)
    assert v.holds == spr and check_positive_real(sys, grid=grid).holds == pr
    assert v.reason is None if spr else why in v.reason
    if why == "at w = 0":
        assert v.worst_frequency == 0.0
    if not spr and v.reason.startswith("w -> infinity"):
        assert np.isnan(v.worst_frequency)
    c = classify(sys, grid=grid)
    assert (c.pr, c.spr) == (pr, spr)


def test_rotated_system_identity(second_order):
    q = rotated_system(second_order)
    for w in (0.3, 1.7, 12.0):
        Q = evaluate(q, 1j * w)
        H = hermitian_imaginary_part(second_order, w)
        assert np.allclose(Q + Q.conj().T, w * H, atol=1e-10)


def test_lag_sufficiency_on_irc():
    c = irc(np.array([[2.0]]), np.array([[1.5]]))
    assert sni_sufficient_lag(c, 1.0, 0.1)
    assert sni_sufficient_lag(c, 1.0, 0.01)
    assert sni_sufficient_lag(c, 10.0, 0.5)


def test_lag_sufficiency_fails_fast_on_zero_cb(second_order):
    # CB = 0: the necessary condition lmin(sym(CB)) >= 2 eps cannot hold
    # (shifts chosen off the plant poles -1, -0.5, -1 +- 2j)
    assert not sni_sufficient_lag(second_order, 3.0, 0.1)
    assert not sni_sufficient_lag2(second_order, 3.0, 4.0, 0.05)


def test_lag_sufficiency_rejects_eigenvalue_shift(first_order):
    with pytest.raises(ValueError):
        sni_sufficient_lag(first_order, 1.0, 0.1)  # -1 is an eigenvalue of A
    with pytest.raises(ValueError):
        sni_sufficient_lag2(first_order, 2.0, 2.0, 0.1)  # equal shifts


def test_lag_two_variant_on_irc():
    c = irc(np.array([[2.0]]), np.array([[1.5]]))
    assert sni_sufficient_lag2(c, 1.0, 2.0, 0.05)

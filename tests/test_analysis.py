import numpy as np
import pytest
from scipy.linalg import block_diag

from nisys import analysis
from nisys import lmi as lmimod
from nisys import numerics
from nisys import (UncertainPlant, add, check_ni, check_ni_lmi, check_ni_sweep,
                   check_positive_real, check_sni_zeros, check_strictly_positive_real,
                   classify, dc_gain, dc_gain_verdict, default_grid,
                   hermitian_imaginary_part, irc, phi_system, poles, ppf, ppf_mimo,
                   resonant_acc, rotated_system,
                   verify_closed_loop)
from nisys.analysis import _breakpoint_grid, phi_imaginary_axis_zeros
from nisys.lti import ModalModel, StateSpace, evaluate, modal_to_ss
from conftest import CLUSTER_MODES, counting, flexible_modes, phi_zeros_qz, same, tf


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
    for ppd in (0, -3):
        with pytest.raises(ValueError, match="points_per_decade"):
            default_grid(sys, points_per_decade=ppd)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("check", [classify, check_ni, check_ni_sweep, check_positive_real,
                                   check_strictly_positive_real])
def test_checks_reject_a_tol_not_finite_and_nonnegative(check, tol):
    # a NaN tol crashed the SPR limit test, and -1 passed a plant as SPR
    # but not PR: no comparison with such a tol means anything
    with pytest.raises(ValueError, match="tol"):
        check(tf([1.0], [1.0, 1.0]), tol=tol)


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


# not symmetric: P(s) = [[1/(s+1), 1/(s+2)], [0, 1/(s+2)]]
NONSYMMETRIC = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), [[1.0, 1.0], [0.0, 1.0]],
                          np.zeros((2, 2)))


def test_classify_computes_each_fact_once(first_order, second_order, velocity_mode,
                                          unstable, monkeypatch):
    solves = counting(monkeypatch, lmimod, "solve_feasibility")
    zeros = counting(monkeypatch, analysis, "_zeros")
    decomps = counting(monkeypatch, numerics, "eigendecomposition")
    eigs = counting(monkeypatch, np.linalg, "eig")
    sweeps = counting(monkeypatch, analysis, "sweep_eigmin")
    grid = np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 50)))
    # one staircase per zero set: Phi in t = s^2 (order n) for symmetric
    # plants and in the doubled realization (order 2n) for NONSYMMETRIC, and
    # Psi for the SPR plant, whose grid conditions all pass. 1/(s+1) is SNI
    # term by term, so the zeros of Phi are not solved for
    cases = [(first_order, None, [(1, 1)]), (second_order, None, [(4, 4)]),
             (velocity_mode, None, [(2, 2)]), (second_order, grid, [(4, 4)]),
             (unstable, None, []), (NONSYMMETRIC, None, [(4, 4)])]
    for sys, g, want in cases:
        # a fresh system, so no poles are kept from an earlier case
        sys = StateSpace(sys.A, sys.B, sys.C, sys.D)
        solves.clear()
        zeros.clear()
        decomps.clear()
        eigs.clear()
        sweeps.clear()
        c = classify(sys, grid=g)
        assert len(solves) == 0 and zeros == want
        # A is decomposed once: the poles, every sweep and the zeros of Phi
        # read that one eigensolve. A stable system is swept once on the
        # grid, for the NI sweep, PR and SPR together, and on the
        # breakpoints unless its modal terms decide NI on their own
        assert len(decomps) == 1 and len(eigs) == 1
        assert poles(sys).tobytes() == np.linalg.eigvals(sys.A).tobytes()
        by_terms = c.ni_spectral.note is not None and "term by term" in c.ni_spectral.note
        assert len(sweeps) == ((1 if by_terms else 2) if np.all(poles(sys).real < 0) else 0)
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
    # 1/(s+1) is NI term by term; second_order is NI with a term that is
    # not, and the others are not NI: they take the zeros
    assert [classify(s).ni_spectral.note is not None
            and "term by term" in classify(s).ni_spectral.note
            for s, _, _ in cases] == [True, False, False, False, False, False]
    # the hot path at n = 200 is decided by its terms, NI and SNI, with no
    # zero solve
    zeros.clear()
    decomps.clear()
    plant = modal_to_ss(ModalModel(flexible_modes(100)))
    assert check_ni(plant).holds
    assert zeros == [] and len(decomps) == 1
    assert check_sni_zeros(plant).is_sni and zeros == []
    assert poles(plant).tobytes() == np.linalg.eigvals(plant.A).tobytes()


def test_dc_gain_verdict_decomposes_each_side_once(monkeypatch):
    M = modal_to_ss(ModalModel(flexible_modes()))
    N = irc(np.array([[1e5]]), np.array([[2e-4]]))
    decomps = counting(monkeypatch, numerics, "eigendecomposition")
    eigs = counting(monkeypatch, np.linalg, "eig")
    eigvals = counting(monkeypatch, np.linalg, "eigvals")
    rep = dc_gain_verdict(M, N)
    assert rep.hypotheses_hold and rep.stable and rep.note is None
    # one eigensolve per side, and none of the closure: the theorem decided
    assert decomps == eigs == [(M.n, M.n), (N.n, N.n)]
    n = M.n + N.n
    assert eigvals.count((n, n)) == 0
    # the first read runs the pole test, the eigenvalues alone of the
    # closure, once; the report keeps its answer
    assert rep.internally_stable
    assert rep.closed_loop_poles.shape == (n,)
    assert rep.internally_stable
    assert eigvals.count((n, n)) == 1
    assert decomps == eigs == [(M.n, M.n), (N.n, N.n)]


def test_verify_closed_loop_decomposes_once(monkeypatch):
    plant = UncertainPlant(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0], [0.0]],
                           [[1.0, 1.0]])
    decomps = counting(monkeypatch, numerics, "eigendecomposition")
    eigs = counting(monkeypatch, np.linalg, "eig")
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
    return check_ni_sweep(sys, grid=_breakpoint_grid(phi_zeros_qz(sys)[1], poles(sys))).holds


def _by_terms(v):
    return v.note is not None and "term by term" in v.note


# non-collocated: actuator and sensor see the second mode with opposite
# signs, so its residue is negative
NON_COLLOCATED = StateSpace(block_diag([[0.0, 1.0], [-1.0, -0.2]], [[0.0, 1.0], [-9.0, -0.6]]),
                            [[0.0], [1.0], [0.0], [0.5]], [[1.0, 0.0, -0.5, 0.0]], [[0.0]])


def test_ni_route_is_named(second_order, monkeypatch):
    zeros = counting(monkeypatch, analysis, "_zeros")
    # the paper plant: every mode's residue is PSD, so its terms decide
    # with no zero solve, and H(0) = 0 is the reported worst point
    paper = check_ni(modal_to_ss(ModalModel(flexible_modes(100))))
    assert paper.holds and _by_terms(paper) and zeros == []
    assert paper.worst_frequency == 0.0 and paper.worst_margin == 0.0
    # NARROW_BAND has a term of residue -1e-3: the zeros decide, and find
    # its band; second_order is NI with a term that is not NI on its own
    for sys, ni in ((NARROW_BAND, False), (second_order, True)):
        zeros.clear()
        v = check_ni(sys)
        assert v.holds == ni and not _by_terms(v) and len(zeros) == 1
    # non-collocated: the zeros decide
    nc = NON_COLLOCATED
    zeros.clear()
    v = check_ni(nc)
    dense = check_ni_sweep(nc, grid=default_grid(nc, points_per_decade=2000))
    assert not _by_terms(v) and len(zeros) == 1 and v.holds == dense.holds


def test_velocity_leak_is_not_ni():
    # psi^2 (1 - 1e-10 s) / (s^2 + 2 s + 1e4), psi = 1e4: the leak makes
    # H(w) = 2w psi^2 (2 - 1e-10 w^2 + 1e-6) / den negative past w = 1.4e5,
    # where lambda_min(H) reaches -5.3e-8 near 2.8e5 against a tolerance of
    # about 1e-8. A band of SYM_TOL times the term's size on the residues
    # would call it NI; the terms decline, and the zeros decide
    psi = 1e4
    leak = StateSpace([[0.0, 1.0], [-1e4, -2.0]], [[0.0], [psi]], [[psi, -1e-10 * psi]],
                      [[0.0]])
    v = check_ni(leak)
    assert not v.holds and not _by_terms(v)
    assert abs(v.worst_frequency - 2.83e5) < 1e3 and v.worst_margin < -5e-8
    assert analysis._ni_by_terms(leak, 1e-8)[0] is None


@pytest.mark.parametrize("sys", [
    # A = -I2 is one group whose residue R = CB ~ [[0, -1], [1, 1/M]]
    # passes the symmetry check against its size before cancellation, M,
    # yet H(0) = j (R - R^T) has lambda_min = -2
    pytest.param(StateSpace(-np.eye(2), [[1.0, 0.0], [1.0, 1 / 1.5e8]],
                            [[1.5e8, -1.5e8], [0.0, 1.0]], np.zeros((2, 2))),
                 id="grouped-skew-residue"),
    # D = -10 I + K, with ||K - K^T||_F just inside SYM_TOL (1 + ||D||_F),
    # and PSD terms that cancel D at w = 0: H(0) = j (K - K^T) has
    # lambda_min = -1.28e-7 while ||P(0)|| is about 1e-7
    pytest.param(StateSpace(np.diag([-1.0, -2.0, -3.0]), np.eye(3), np.diag([10.0, 20.0, 30.0]),
                            -10.0 * np.eye(3) + 0.99e-8 * (1.0 + np.sqrt(300.0)) / np.sqrt(8.0)
                            * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])),
                 id="skew-feedthrough"),
])
def test_admitted_skew_is_not_ni(sys, monkeypatch):
    # the symmetry check admits these skew parts, and the terms count them:
    # both are not NI at w = 0, as the zero route finds
    assert analysis._residues(sys).symmetric
    v = check_ni(sys)
    assert not v.holds and not _by_terms(v) and v.worst_frequency == 0.0
    assert analysis._ni_by_terms(sys, 1e-8)[0] is None
    with monkeypatch.context() as mp:
        mp.setattr(analysis, "_ni_by_terms", lambda sys, tol: (None, None))
        assert not check_ni(sys).holds


def _paper_plant(count, m, scale=1.0):
    # the paper's modes, with seeded mode shapes of m channels
    rng = np.random.default_rng(11)
    return modal_to_ss(ModalModel(tuple(
        (w, k, psi if m == 1 else tuple(scale * rng.standard_normal(m)))
        for w, k, psi in flexible_modes(count))))


@pytest.mark.parametrize("m", [1, 3])
def test_sni_by_terms_makes_no_zero_solve(m, monkeypatch):
    # every modal term of the paper plant is PSD and their sum is definite,
    # as for the IRC, PPF and PPF-MIMO controllers: classify and the DC-gain
    # verdict decide NI and SNI from the residues, with no zero of Phi
    zeros = counting(monkeypatch, analysis, "_zeros")
    M = _paper_plant(100, m)
    c = classify(M)
    assert c.ni and c.sni and zeros == []
    assert "term by term" in c.sni_zeros.note and c.sni_zeros.axis_zeros.size == 0
    # each controller puts lambda_max(M(0) N(0)) at 1/2
    M0 = dc_gain(M)
    wc = 100.0
    K = np.sqrt(0.5) * wc * np.linalg.inv(np.linalg.cholesky(M0))
    loops = [irc(1e3 * np.eye(m), 2.0 * M0), ppf_mimo(K, 60.0 * np.eye(m), wc * wc * np.eye(m))]
    if m == 1:
        loops.append(ppf([(0.5 * wc * wc / M0[0, 0], 0.3, wc)]))
    for N in loops:
        zeros.clear()
        rep = dc_gain_verdict(M, N)
        assert rep.hypotheses_hold and rep.note is None and rep.stable
        assert abs(rep.lambda_max_dc - 0.5) < 1e-9 and zeros == []
    # a term that is not NI (NARROW_BAND's negative residue, the velocity
    # plant's c0 < 0, the non-collocated plant's second mode): the zeros
    # decide, in one staircase
    for sys in (NARROW_BAND, modal_to_ss(ModalModel(flexible_modes(3), output="velocity")),
                NON_COLLOCATED):
        zeros.clear()
        r = check_sni_zeros(StateSpace(sys.A, sys.B, sys.C, sys.D))
        assert r.note is None and len(zeros) == 1


def test_large_gain_plant_reaches_the_zeros(monkeypatch):
    # mode shapes scaled by 1e5, residues about 1e10: rounding alone takes
    # the terms' absolute NI bound past tol, so NI and SNI both go to the
    # zeros and get the zero route's verdicts, never an SNI from terms
    # whose NI bound passed only on rounding
    zeros = counting(monkeypatch, analysis, "_zeros")
    P = _paper_plant(50, 3, scale=1e5)
    assert analysis._ni_by_terms(P, analysis.NI_SWEEP_TOL) == (None, None)
    ni, sni = check_ni(P), check_sni_zeros(P)
    assert not _by_terms(ni) and sni.note is None and len(zeros) == 2
    with monkeypatch.context() as mp:
        mp.setattr(analysis, "_ni_by_terms", lambda sys, tol: (None, None))
        assert same(check_ni(P), ni) and same(check_sni_zeros(P), sni)
    assert ni.holds and sni.is_sni


def test_singular_zero_pencil():
    # rank-one 2 x 2 systems: H(w) has a zero eigenvalue at every w
    p = ppf_mimo([[1.0, 0.5]], [[0.6]], [[4.0]])
    r = check_sni_zeros(p)
    assert not r.is_sni and "singular at every w" in r.reason
    assert phi_imaginary_axis_zeros(p).singular
    with pytest.raises(numerics.NumericsError):
        phi_zeros_qz(p)
    acc = resonant_acc([(np.array([1.0, 0.5]), 0.3, 2.0)])
    v = check_ni(acc)
    # its one pair has a PSD rank-one residue: NI term by term, no zeros
    assert v.holds and "term by term" in v.note
    r = check_sni_zeros(acc)
    assert not r.is_sni and "singular at every w" in r.reason


def test_static_plant_verdicts():
    # n = 0: Phi = D - D^T = 0, so H(w) is singular at every w; P + P^* = 2 D
    z = phi_imaginary_axis_zeros(StateSpace(np.zeros((0, 0)), np.zeros((0, 2)),
                                            np.zeros((2, 0)), [[1.0, 0.5], [0.5, 2.0]]))
    assert z.singular and z[1].size == 0
    for D, spr in (([[1.0, 0.5], [0.5, 2.0]], True), ([[0.0]], False)):
        m = len(D)
        c = classify(StateSpace(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((m, 0)), D))
        assert (c.ni, c.sni, c.pr, c.spr) == (True, False, True, spr)


def test_rank_one_narrow_band():
    # v v^T P(s) for the narrow-band P: H(w) is singular at every w, and the
    # zeros on the range of the residues still find the band
    v = np.array([[1.0], [0.5]])
    nb = NARROW_BAND
    p = StateSpace(nb.A, nb.B @ v.T, v @ nb.C, v @ nb.D @ v.T)
    ni = check_ni(p)
    assert not ni.holds and abs(ni.worst_frequency - 10.0577) < 1e-3
    assert "below its normal rank" in ni.note
    assert not check_sni_zeros(p).is_sni


def test_singular_nonsymmetric_narrow_band():
    # diag(NARROW_BAND, Q, 0): Q = I/(s+1) + I/(s+2) + X s/((s+1)(s+2)), X
    # skew, is NI with non-symmetric residues, and the zero channel makes
    # H(w) singular at every w. The QZ pencil is singular; the zeros of Phi
    # below its normal rank still find the band between default-grid points
    nb = NARROW_BAND
    X = 0.1 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    A = np.zeros((nb.n + 4, nb.n + 4))
    A[:nb.n, :nb.n] = nb.A
    A[nb.n:, nb.n:] = np.diag([-1.0, -1.0, -2.0, -2.0])
    B = np.zeros((nb.n + 4, 4))
    B[:nb.n, :1] = nb.B
    B[nb.n:, 1:3] = np.vstack((np.eye(2), np.eye(2)))
    C = np.zeros((4, nb.n + 4))
    C[:1, :nb.n] = nb.C
    C[1:3, nb.n:] = np.hstack((np.eye(2) - X, np.eye(2) + 2.0 * X))
    p = StateSpace(A, B, C, np.zeros((4, 4)))
    with pytest.raises(numerics.NumericsError):
        phi_zeros_qz(p)
    assert check_ni_sweep(p).holds
    z = phi_imaginary_axis_zeros(p)
    assert z.singular and "not symmetric" in z.note
    ni = check_ni(p)
    assert not ni.holds and abs(ni.worst_frequency - 10.0577) < 1e-3
    assert "below its normal rank" in ni.note
    # without the band, the same structure is NI
    q = StateSpace(A[1:, 1:], B[1:, 1:], C[1:, 1:], np.zeros((3, 3)))
    assert check_ni(q).holds and check_ni_sweep(q).holds


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
    zeros = counting(monkeypatch, analysis, "_zeros")
    z = phi_imaginary_axis_zeros(c)
    assert z.note is None and zeros == [(4, 4)]
    # the two zeros at the origin from the factor 2s; the other four are at
    # infinity (K = C A^2 B is the first nonzero Markov parameter)
    assert z[1].size == 2 and np.all(z[1] == 0)
    assert check_sni_zeros(c).is_sni and _qz_verdict(c)


@pytest.mark.parametrize("sys, why", [
    pytest.param(NONSYMMETRIC, "residues or feedthrough not symmetric", id="nonsymmetric"),
    # 1/(s+1)^2 from a Jordan block
    pytest.param(StateSpace([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]),
                 "no well-conditioned eigenbasis", id="jordan"),
    # diag(1/(s+1), 1/((s+2)(s+3))): CB = diag(1, 0) is singular but not
    # zero, and the staircase keeps it on the t-form
    pytest.param(StateSpace(np.diag([-1.0, -2.0, -3.0]), [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                            [[1.0, 0.0, 0.0], [0.0, 1.0, -1.0]], np.zeros((2, 2))),
                 None, id="singular-cb"),
])
def test_zero_realization_is_named(sys, why):
    # the t-form leaves `note` None; the doubled realization names why
    z = phi_imaginary_axis_zeros(sys)
    assert z.note is None if why is None else why in z.note
    q = phi_zeros_qz(sys)
    assert np.allclose(np.sort_complex(z[1]), np.sort_complex(q[1]), rtol=0, atol=1e-12)
    assert z[0].size == q[0].size
    # B and C meet in one block of the doubled realization; scaled by 1e6 and
    # 1e-6 they realize the same plant, with the same zeros
    s = phi_imaginary_axis_zeros(StateSpace(sys.A, 1e6 * sys.B, 1e-6 * sys.C, sys.D))
    assert not s.singular
    assert np.allclose(np.sort_complex(s[1]), np.sort_complex(z[1]), rtol=0, atol=1e-9)
    v = check_ni(sys)
    assert v.note == z.note and v.holds == _qz_verdict(sys)


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


def test_ni_lmi_balances_a_once(monkeypatch):
    # the minimality test and the solve read one balanced realization
    balances = counting(monkeypatch, numerics, "balance")
    r = check_ni_lmi(modal_to_ss(ModalModel(flexible_modes(3))))
    assert r.is_ni and r.minimal and r.verification.ok
    assert len(balances) == 1


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


@pytest.mark.parametrize("sys, pole", [
    pytest.param(StateSpace([[0.0]], [[1.0]], [[-1.0]], [[0.0]]), "j0", id="-1/s"),
    pytest.param(tf([1.0, 0.0], [1.0, 0.0, 1.0]), None, id="s/(s^2+1)"),
    pytest.param(tf([-1.0, 0.0], [1.0, 0.0, 1.0]), "j1", id="-s/(s^2+1)"),
    # residue [[1, 1], [1, 1]], and the residue [[1, 0], [1, 0]], not symmetric
    pytest.param(StateSpace([[0.0]], [[1.0, 1.0]], [[1.0], [1.0]], np.zeros((2, 2))), None,
                 id="ones/s"),
    pytest.param(StateSpace([[0.0]], [[1.0, 0.0]], [[1.0], [1.0]], np.zeros((2, 2))), "j0",
                 id="e1-column/s"),
])
def test_pr_reads_the_residues_of_axis_poles(sys, pole):
    # on the SISO plants P(jw) + P(jw)^* = 0 away from the pole, so only the
    # residue there tells the plants that are not PR (1/s: the test above)
    v = check_positive_real(sys)
    assert v.holds == (pole is None) and classify(sys).pr == v.holds
    assert v.note.startswith("imaginary-axis pole(s) present")
    if pole is not None:
        assert v.reason == f"imaginary-axis pole at s = {pole}: residue not Hermitian PSD"


def test_pr_refuses_an_axis_pole_without_an_eigenbasis():
    # 1/(s+1)^2 + 1/s, the double pole in a Jordan block: the residue at
    # s = 0 is not read, and the verdict says so
    sys = StateSpace([[-1.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
                     [[0.0], [1.0], [1.0]], [[1.0, 0.0, 1.0]], [[0.0]])
    v = check_positive_real(sys)
    assert not v.holds and v.reason.endswith("A has no eigenbasis to read its residue from")


def test_pr_rejects_repeated_axis_pole():
    # 1/s^2 is not PR: its Jordan block leaves no residue to read
    sys = StateSpace([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                     [[1.0, 0.0]], [[0.0]])
    v = check_positive_real(sys)
    assert not v.holds
    assert v.reason == "imaginary-axis pole, and A has no eigenbasis to read its residue from"


def _rotated(sys):
    T = np.linalg.qr(np.random.default_rng(3).standard_normal((sys.n, sys.n)))[0]
    return StateSpace(T @ sys.A @ T.T, T @ sys.B, sys.C @ T.T, sys.D)


@pytest.mark.parametrize("sys, pr", [
    pytest.param(StateSpace(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2))), True,
                 id="I/s"),
    # non-minimal: two states at s = 0 with residues 1 and 1
    pytest.param(StateSpace(np.zeros((2, 2)), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]]), True,
                 id="1/s+1/s"),
    pytest.param(StateSpace(np.zeros((2, 2)), np.eye(2), -np.eye(2), np.zeros((2, 2))), False,
                 id="-I/s"),
    # I s/(s^2 + 1), each pole twice, in rotated coordinates: eig returns a
    # mixed basis of each double eigenspace, whose summed residue is I / 2
    pytest.param(_rotated(StateSpace(np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]),
                                     [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
                                     [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
                                     np.zeros((2, 2)))),
                 True, id="Is/(s^2+1)"),
])
def test_pr_reads_a_semisimple_axis_cluster(sys, pr):
    # a repeated axis pole with an eigenbasis is one pole whose residue is
    # the sum over its group: PR iff that sum is Hermitian PSD
    v = check_positive_real(sys)
    assert v.holds == pr and classify(sys).pr == pr
    assert v.note.startswith("imaginary-axis pole(s) present")
    if not pr:
        assert v.reason == "imaginary-axis pole at s = j0: residue not Hermitian PSD"
    # the dense sweep agrees away from the poles
    g = default_grid(sys, points_per_decade=2000, wmin=1e-3, wmax=1e3)
    assert check_positive_real(sys, grid=g).holds == pr


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
    # P + P^* vanishes at w = 1, between the default grid's points: only the
    # imaginary-axis zeros of P(s) + P^T(-s) see it
    pytest.param(tf([1.0, 0.0, 1.0], [1.0, 2.5, 1.0]), None, True, False, "at w = 1",
                 id="(s^2+1)/((s+0.5)(s+2))"),
    # (s^2 + 1)/(s + 1)^2 = 1 - 2/(s+1) + 2/(s+1)^2, from a Jordan block
    pytest.param(StateSpace([[-1.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], [[2.0, -2.0]], [[1.0]]),
                 None, True, False, "at w = 1", id="(s^2+1)/(s+1)^2"),
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


def test_spr_is_built_only_for_its_readers(first_order, monkeypatch):
    # 1/(s+1) passes every grid condition of SPR, so its SPR verdict solves
    # for the zeros of Psi; the NI sweep and PR, read from the same
    # evaluation of P(jw), build no SPR verdict and solve for no zero
    spr = counting(monkeypatch, analysis, "_spr_hurwitz")
    zeros = counting(monkeypatch, analysis, "_zeros")
    assert check_ni_sweep(first_order).holds and check_positive_real(first_order).holds
    assert spr == [] and zeros == []
    assert check_strictly_positive_real(first_order).holds
    assert len(spr) == 1 and zeros == [(1, 1)]


def test_rotated_system_identity(second_order):
    q = rotated_system(second_order)
    for w in (0.3, 1.7, 12.0):
        Q = evaluate(q, 1j * w)
        H = hermitian_imaginary_part(second_order, w)
        assert np.allclose(Q + Q.conj().T, w * H, atol=1e-10)


def _lag_certified(sys, shifts, eps):
    """The sufficient SNI test by lag augmentation: the NI lemma LMI is
    feasible for sys with eps / (s + a) I subtracted for each shift a."""
    m = sys.inputs
    A = block_diag(sys.A, *(-a * np.eye(m) for a in shifts))
    B = np.vstack([sys.B] + [eps * np.eye(m)] * len(shifts))
    C = np.hstack([sys.C] + [-np.eye(m)] * len(shifts))
    return lmimod.solve_feasibility(lmimod.ni_problem(A, B, C)).feasible


IRC = irc([[2.0]], [[1.5]])
# B^T (sI + diag(1, 2))^{-1} B, SNI since B has full rank
LAG_B = np.array([[1.0, 0.5], [-0.3, 2.0]])
COLLOCATED = StateSpace(-np.diag([1.0, 2.0]), LAG_B, LAG_B.T, np.zeros((2, 2)))


@pytest.mark.parametrize("sys, shifts, eps", [
    pytest.param(IRC, (1.0,), 0.1, id="irc"),
    pytest.param(IRC, (1.0,), 0.01, id="irc-small-eps"),
    pytest.param(IRC, (10.0,), 0.5, id="irc-fast-lag"),
    pytest.param(IRC, (1.0, 2.0), 0.05, id="irc-two-lags"),
    pytest.param(COLLOCATED, (3.0,), 0.1, id="collocated"),
    pytest.param(COLLOCATED, (3.0, 4.0), 0.05, id="collocated-two-lags"),
])
def test_lag_certificate_implies_sni_zeros(sys, shifts, eps):
    # the lag LMI is sufficient for SNI: where it is feasible, the exact
    # zeros test must say SNI
    assert _lag_certified(sys, shifts, eps)
    assert check_sni_zeros(sys).is_sni

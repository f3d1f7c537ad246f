import warnings

import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from nisys import (LtiError, ModalModel, StateSpace, add, analysis, choose_phi, controllers,
                   dc_gain, design_irc_gamma, evaluate, irc, irc_root_locus, modal_to_ss,
                   ppf, ppf_mimo, resonant_acc, resonant_vel_type)
from nisys._kernels import CHUNK
from nisys.lti import eigensystem
from conftest import (FLEXIBLE_DC_EXACT, assignment_match, flexible_modes, irc_eigensolve_locus,
                      irc_eigensolve_sweep, random_pd, tf)


def _den(s, z, w):
    return s * s + 2 * z * w * s + w * w


def test_ppf_matches_formula():
    terms = [(2.0, 0.3, 5.0), (0.7, 0.8, 1.2)]
    c = ppf(terms)
    for s in (0.4 + 1.1j, 2.0 - 0.5j):
        ref = sum(k / _den(s, z, w) for k, z, w in terms)
        assert np.isclose(evaluate(c, s)[0, 0], ref, rtol=1e-12)


def test_ppf_rejects_bad_gains():
    with pytest.raises(ValueError):
        ppf([(-1.0, 0.3, 5.0)])
    with pytest.raises(ValueError):
        ppf([(1.0, 0.0, 5.0)])
    with pytest.raises(ValueError):
        ppf([])


def test_ppf_mimo_matches_formula():
    rng = np.random.default_rng(3)
    K = rng.standard_normal((2, 3))
    D = random_pd(rng, 2)
    Om = random_pd(rng, 2)
    c = ppf_mimo(K, D, Om)
    s = 0.2 + 0.9j
    ref = K.T @ np.linalg.inv(s * s * np.eye(2) + D * s + Om) @ K
    assert np.allclose(evaluate(c, s), ref, rtol=1e-10, atol=1e-12)


def test_resonant_acc_matches_formula():
    terms = [(1.5, 0.4, 3.0)]
    c = resonant_acc(terms)
    s = 0.6 + 2.0j
    k, z, w = terms[0]
    ref = -k * s * s / _den(s, z, w)
    assert np.isclose(evaluate(c, s)[0, 0], ref, rtol=1e-12)
    assert np.isclose(c.D[0, 0], -k)


def test_resonant_acc_rank_one_mimo():
    alpha = np.array([1.0, -2.0])
    c = resonant_acc([(alpha, 0.5, 4.0)])
    s = 1.0 + 1.0j
    ref = -s * s / _den(s, 0.5, 4.0) * np.outer(alpha, alpha)
    assert np.allclose(evaluate(c, s), ref, rtol=1e-12)


def test_resonant_vel_matches_formula():
    terms = [(0.8, 0.6, 2.0)]
    c = resonant_vel_type(terms)
    s = 0.4 + 1.5j
    k, z, w = terms[0]
    ref = -k * s * (s + 2 * z * w) / _den(s, z, w)
    assert np.isclose(evaluate(c, s)[0, 0], ref, rtol=1e-12)


def test_resonant_vel_rank_one_mimo():
    beta = np.array([0.5, 1.0, -1.0])
    c = resonant_vel_type([(beta, 0.3, 1.0)])
    s = 2.0 + 0.3j
    ref = -s * (s + 2 * 0.3 * 1.0) / _den(s, 0.3, 1.0) * np.outer(beta, beta)
    assert np.allclose(evaluate(c, s), ref, rtol=1e-12)


def test_controller_families_are_ni():
    from nisys import check_ni_sweep, check_sni_zeros
    # ppf is strictly NI; its sweep margin decays ~1/w^3 so the zeros
    # certificate is the right strictness check
    assert check_sni_zeros(ppf([(2.0, 0.3, 5.0)])).is_sni
    assert check_ni_sweep(resonant_acc([(1.5, 0.4, 3.0)])).holds
    assert check_ni_sweep(resonant_vel_type([(0.8, 0.6, 2.0)])).holds


def test_irc_dc_gain_is_phi_inverse():
    rng = np.random.default_rng(5)
    G = random_pd(rng, 3)
    P = random_pd(rng, 3)
    c = irc(G, P)
    assert np.allclose(dc_gain(c), np.linalg.inv(P), rtol=1e-10)
    with pytest.raises(ValueError):
        irc(G, -P)
    with pytest.raises(ValueError):
        irc(np.array([[1.0, 0.5], [0.4, 1.0]]), np.eye(2))  # not symmetric


def test_choose_phi_margin(flexible_plant):
    Phi = choose_phi(flexible_plant)
    assert np.isclose(Phi[0, 0], 1.2 * FLEXIBLE_DC_EXACT, rtol=1e-12)
    Phi2 = choose_phi(flexible_plant, margin=2.0)
    assert np.isclose(Phi2[0, 0], 2.0 * FLEXIBLE_DC_EXACT, rtol=1e-12)
    with pytest.raises(ValueError):
        choose_phi(flexible_plant, margin=0.9)


def test_design_irc_gamma_coarse(flexible_plant):
    Phi = choose_phi(flexible_plant)
    des = design_irc_gamma(flexible_plant, Phi, points_per_decade=60)
    assert des.feasible and des.note is None
    assert des.stable.all()
    assert irc_root_locus(flexible_plant, Phi, des.gammas).shape == (
        len(des.gammas), flexible_plant.n + 1)
    # selected gain maximizes the tracked decay rate on the grid
    k = np.nanargmax(des.decays)
    assert des.decay_at_star >= des.decays[k] - 1e-12
    assert des.zeta_at_star > 0.05
    assert des.controller is not None
    assert np.isclose(-des.controller.A[0, 0],
                      des.gamma_star * Phi[0, 0], rtol=1e-12)


def test_design_irc_gamma_infeasible_when_phi_undersized(flexible_plant):
    # Phi below the plant DC gain: lambda_max(P(0)/Phi) > 1, so the loop is
    # unstable at every gamma and no gain can be selected
    Phi = 0.5 * dc_gain(flexible_plant)
    des = design_irc_gamma(flexible_plant, Phi, gamma_min=1e3,
                           gamma_max=1e5, points_per_decade=40)
    assert not des.feasible
    assert des.controller is None
    assert not des.stable.any()


def test_design_irc_gamma_requires_siso():
    from nisys import ModalModel, modal_to_ss
    mm = ModalModel(modes=((1.0, 0.5, (1.0, 0.5)),), output="position")
    with pytest.raises(ValueError):
        design_irc_gamma(modal_to_ss(mm), np.eye(2))


@pytest.mark.parametrize("Phi, limits", [(np.eye(2), {}), ([[np.nan]], {}), ([[np.inf]], {}),
                                         ([[2.0]], {"gamma_max": np.inf}),
                                         ([[2.0]], {"gamma_min": np.nan}),
                                         ([[2.0]], {"points_per_decade": 0}),
                                         ([[2.0]], {"points_per_decade": -3})])
def test_design_irc_gamma_rejects_bad_phi_and_limits(flexible_plant, Phi, limits):
    # a 2 x 2 Phi on a SISO plant was read at [0, 0], a NaN Phi failed
    # deep in the sweep, and fewer than one gain per decade swept 2 gains
    with pytest.raises(ValueError):
        design_irc_gamma(flexible_plant, Phi, **limits)
    if not limits:
        with pytest.raises(ValueError):
            irc_root_locus(flexible_plant, Phi, [1e3, 1e4])


def test_design_irc_gamma_rejects_a_static_plant():
    static = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[2.0]])
    with pytest.raises(ValueError, match="static plant"):
        design_irc_gamma(static, [[2.4]])


def _paper_plant(count, seed=7):
    # position modes at the paper frequencies 100 k rad/s, seeded damping and gains
    rng = np.random.default_rng(seed)
    return modal_to_ss(ModalModel(tuple(
        (100.0 * k, float(rng.uniform(1.5, 2.5)), (float(rng.uniform(0.8, 1.2)),))
        for k in range(1, count + 1))))


def _sweep_case(name):
    """(plant, Phi) of a sweep compared with the eigensolve sweep."""
    flex = modal_to_ss(ModalModel(flexible_modes()))
    if name == "flexible":
        return flex, choose_phi(flex)
    if name.startswith("paper-n"):
        plant = _paper_plant(int(name[7:]) // 2)
        return plant, choose_phi(plant)
    if name == "feedthrough":
        plant = StateSpace(flex.A, flex.B, flex.C, 0.3 * dc_gain(flex))
        return plant, choose_phi(plant)
    if name == "undersized-phi":
        # unstable at every gain; the first pair splits on the real axis near 7.6e6
        return flex, 0.5 * dc_gain(flex)
    if name == "unobservable-mode":
        # the third mode has zero output, so a zero residue: its poles are
        # closed-loop poles at every gain
        four = modal_to_ss(ModalModel(flexible_modes(4)))
        C = four.C.copy()
        C[0, 4:6] = 0.0
        plant = StateSpace(four.A, four.B, C, four.D)
        return plant, choose_phi(plant)
    raise ValueError(name)


def _assert_same_loci(loci, ref, rtol=1e-10):
    """Row by row the same poles in the same columns, real exactly where the
    reference's are real. Two real poles may trade columns: where a pair
    splits on the real axis, which column takes which is a tie of the
    assignment that rounding breaks, in either sweep."""
    for a, b in zip(loci, ref):
        _, c = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
        moved = c != np.arange(c.size)
        assert np.all(a[moved].imag == 0) and np.all(b[moved].imag == 0)
        np.testing.assert_allclose(a, b[c], rtol=rtol)
        assert np.array_equal(a.imag == 0, b[c].imag == 0)


SWEEP_CASES = ["flexible", "paper-n10", "paper-n40", "paper-n60", "feedthrough",
               "undersized-phi", "unobservable-mode"]


@pytest.mark.parametrize("name", SWEEP_CASES)
def test_design_irc_gamma_matches_eigensolve_sweep(name):
    # every case is decided by the DC-gain theorem: undersized-phi is
    # infeasible with no sweep, the others continue the dominant pair alone
    plant, Phi = _sweep_case(name)
    des = design_irc_gamma(plant, Phi)
    assert des.note is None
    _assert_same_design(des, irc_eigensolve_sweep(plant, Phi))


def _assert_same_design(des, ref):
    assert des.feasible == ref.feasible
    assert np.array_equal(des.stable, ref.stable)
    assert np.array_equal(des.gamma_star, ref.gamma_star, equal_nan=True)
    np.testing.assert_allclose(des.decays, ref.decays, rtol=1e-9)
    np.testing.assert_allclose(des.zetas, ref.zetas, rtol=1e-9)
    assert des.decay_at_star == pytest.approx(ref.decay_at_star, rel=1e-12, nan_ok=True)
    assert des.zeta_at_star == pytest.approx(ref.zeta_at_star, rel=1e-9, nan_ok=True)


@pytest.mark.parametrize("name", SWEEP_CASES)
def test_irc_root_locus_matches_eigensolve_sweep(name, monkeypatch):
    plant, Phi = _sweep_case(name)
    gammas = np.geomspace(1e3, 1e8, 1001)
    ref = irc_eigensolve_locus(plant, Phi, gammas)

    blocks = []
    newton = controllers._newton

    def spy(z, before, lam, r, g, *args):
        p, ok = newton(z, before, lam, r, g, *args)
        blocks.append((z, before, lam.size, g, p, ok))
        return p, ok
    eigensolves = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(controllers, "_newton", spy)
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: eigensolves.append(1) or eigvals(M))
    loci = irc_root_locus(plant, Phi, gammas)
    monkeypatch.undo()

    _assert_same_loci(loci, ref)
    # each accepted root is the eigensolve root nearest its start or its
    # column of the row before, and also the one nearest that column: the
    # predictor extrapolates earlier rows, column by column, and the row
    # before is the branch an assignment would continue
    assert any(ok.any() for *_, ok in blocks)
    for z, before, _, g, p, ok in blocks:
        for j in np.flatnonzero(ok):
            e = ref[np.searchsorted(gammas, g[j])]
            start, last = (e[np.abs(x[:, None] - e).argmin(1)]
                           for x in (z[j], before if j == 0 else p[j - 1]))
            assert np.allclose(p[j], last, rtol=1e-9)
            assert (np.isclose(p[j], start, rtol=1e-9) | np.isclose(p[j], last, rtol=1e-9)).all()
    # the stacked step advances several gains at once, but its (b k, n)
    # temporaries stay within CHUNK complex entries
    assert max(len(z) for z, *_ in blocks) > 1
    assert all(4 * z.size * n <= CHUNK for z, _, n, *_ in blocks)
    if name != "undersized-phi":
        # no breakaway: not one eigensolve, and no assignment
        assert eigensolves == []
    if name == "unobservable-mode":
        # the zero residue's poles are deflated out of the iteration and
        # stand in their own columns of every row as the eigenbasis of A
        # gives them
        ol = eigensystem(plant)[0]
        cols = np.abs(ol[:, None] - np.linalg.eigvals(plant.A[4:6, 4:6])).argmin(0)
        assert (loci[:, cols] == ol[cols]).all()


def test_design_irc_gamma_theorem_path_is_pair_continuation(monkeypatch):
    # on the paper plants the design runs no all-root iteration, no
    # eigensolve of the closed loop and no assignment: only Newton on the
    # dominant pair
    calls = []
    eigvals = np.linalg.eigvals
    newton = controllers._newton
    monkeypatch.setattr(controllers, "_newton", lambda z, *a: newton(z, *a) if z.shape[1] == 1
                        else calls.append("all-root"))
    monkeypatch.setattr(controllers, "_match", lambda *a: calls.append("matching"))
    for count in (5, 10, 30):
        plant = _paper_plant(count)
        n = plant.n
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(
            "closed-loop eigvals") if len(M) == n + 1 else eigvals(M))
        des = design_irc_gamma(plant, choose_phi(plant))
        assert des.feasible and des.note is None
    assert calls == []


@pytest.mark.parametrize("n", [10, 20, 40])
def test_design_irc_gamma_seeds_match_the_sweep(n):
    for seed in range(10):
        plant = _paper_plant(n // 2, seed)
        Phi = choose_phi(plant)
        des = design_irc_gamma(plant, Phi)
        assert des.note is None
        assert des.gamma_star == irc_eigensolve_sweep(plant, Phi).gamma_star
        g = des.gamma_star
        p = np.linalg.eigvals(np.block([[plant.A, plant.B], [g * plant.C, -g * Phi]]))
        assert (p.real < 0).all()
        assert np.abs(-p.real - des.decay_at_star).min() <= 1e-9 * des.decay_at_star


def _assert_fallback(plant, note):
    # gains 1e-2 to 1e3 suit poles of modulus about 1; the best gain lies
    # inside the grid
    Phi = choose_phi(plant)
    des = design_irc_gamma(plant, Phi, gamma_min=1e-2, gamma_max=1e3)
    assert des.note == note
    assert des.feasible and 1e-2 < des.gamma_star < 1e3
    _assert_same_design(des, irc_eigensolve_sweep(plant, Phi, gamma_min=1e-2, gamma_max=1e3))


def test_design_irc_gamma_falls_back_for_a_plant_not_ni():
    # a right-half-plane zero: P(s) = (1 - s/5) / (s^2 + 0.2 s + 1) is not NI
    _assert_fallback(tf([-0.2, 1.0], [1.0, 0.2, 1.0]), "plant not NI, all-root sweep")


def test_design_irc_gamma_falls_back_for_real_slowest_poles():
    # NI, two real slowest poles at -1 and -2 and a mode at 100 rad/s: the
    # real poles meet on the axis and split into a pair, where which column
    # takes which is a tie; the sweep, not the pair continuation, decides it
    _assert_fallback(add(tf([1.0], [1.0, 3.0, 2.0]), tf([1.0], [1.0, 2.0, 1e4])),
                     "two slowest poles not a conjugate pair with a nonzero residue, "
                     "all-root sweep")


def test_design_irc_gamma_falls_back_for_a_near_singular_A():
    # NI, with poles at -1e-5 and -1e8: cond(A) is 1e13, so P(0) is undefined
    # in working precision; the all-root sweep decides and the note says why
    plant = add(add(tf([1e-5], [1.0, 1e-5]), tf([1.0], [1.0, 0.2, 1.0])),
                tf([1e7], [1.0, 1e8]))
    with pytest.raises(LtiError):
        dc_gain(plant)
    Phi = np.array([[2.5]])
    des = design_irc_gamma(plant, Phi)
    assert des.note.startswith("DC-gain hypotheses not satisfied: dc gain undefined, ")
    assert des.note.endswith(", all-root sweep")
    assert des.feasible
    assert (des.stable == irc_eigensolve_sweep(plant, Phi).stable).all()


def test_design_irc_gamma_defective_A_is_the_eigensolve_sweep():
    # a double pole at -50 in a Jordan block, plus one mode: no eigenbasis
    A = np.array([[-50.0, 1.0, 0, 0], [0, -50.0, 0, 0], [0, 0, 0, 1.0], [0, 0, -1e4, -2.0]])
    plant = StateSpace(A, [[0.0], [1.0], [0.0], [1.0]], [[1.0, 0.0, 1.0, 0.0]], [[0.0]])
    assert eigensystem(plant)[1] is None
    Phi = choose_phi(plant)
    des = design_irc_gamma(plant, Phi)
    ref = irc_eigensolve_sweep(plant, Phi)
    assert des.feasible and ref.feasible
    assert des.note == "no eigenbasis of A, all-root sweep"
    for field in ("gammas", "decays", "zetas", "stable"):
        assert getattr(des, field).tobytes() == getattr(ref, field).tobytes()
    assert (des.gamma_star, des.decay_at_star, des.zeta_at_star) == (
        ref.gamma_star, ref.decay_at_star, ref.zeta_at_star)
    assert (irc_root_locus(plant, Phi, des.gammas).tobytes()
            == irc_eigensolve_locus(plant, Phi, des.gammas).tobytes())


def test_newton_pair_accepts_only_the_nearest_root(flexible_plant):
    # Newton's iteration from starts all over the upper left of the plane,
    # each start its own row before: most starts lead to another root than
    # the nearest, or nowhere, and none of those is accepted
    A, B, C = flexible_plant.A, flexible_plant.B, flexible_plant.C
    g, d = np.array([1e5]), -choose_phi(flexible_plant)[0, 0]
    lam, (V, Vi, _) = eigensystem(flexible_plant)
    r = (C @ V)[0] * (Vi @ B)[:, 0]
    roots = np.linalg.eigvals(np.block([[A, B], [g * C, g[None] * d]]))
    x, y = np.meshgrid(np.linspace(-150.0, 10.0, 17), np.linspace(-50.0, 450.0, 51))
    starts = (x + 1j * y).ravel()
    runs = [controllers._newton(np.array([[s]]), np.array([s]), lam, r, g, g * d)
            for s in starts]
    z, ok = np.concatenate([z[0] for z, _ in runs]), np.concatenate([ok for _, ok in runs])
    nearest = np.isclose(z, roots[np.abs(starts[:, None] - roots).argmin(1)], rtol=1e-9)
    assert ok.sum() > 20 and (~nearest).sum() > starts.size // 2
    assert not (ok & ~nearest).any()


def test_newton_rejects_a_root_counted_twice(flexible_plant):
    # from starts near the closed-loop poles the iteration returns them;
    # with the second start moved near the first pole, both roots converge
    # to that pole, each certified the nearest root to its own start, and
    # the second pole is lost: only the closed-loop trace tells
    A, B, C = flexible_plant.A, flexible_plant.B, flexible_plant.C
    g, d = 1e5, -choose_phi(flexible_plant)[0, 0]
    lam, (V, Vi, _) = eigensystem(flexible_plant)
    r = (C @ V)[0] * (Vi @ B)[:, 0]
    roots = np.linalg.eigvals(np.block([[A, B], [g * C, np.array([[g * d]])]]))
    g, gd, trace = np.array([g]), np.array([g * d]), np.array([np.trace(A) + g * d])
    z = roots * (1 + 1e-7)
    p, ok = controllers._newton(z[None], z, lam, r, g, gd, trace)
    assert ok[0]
    np.testing.assert_allclose(p[0], roots, rtol=1e-12)
    z[1] = roots[0] * (1 - 1e-7)
    p, ok = controllers._newton(z[None], z, lam, r, g, gd)
    assert ok[0] and p[0, 0] == pytest.approx(p[0, 1], rel=1e-12)
    assert not controllers._newton(z[None], z, lam, r, g, gd, trace)[1][0]


def test_newton_rejects_starts_that_crossed(flexible_plant):
    # two starts extrapolated past each other: each root converges to the
    # one its start lies nearest, and the trace holds, but each is nearer the
    # other's column of the row before, so the row is the swapped one
    A, B, C = flexible_plant.A, flexible_plant.B, flexible_plant.C
    g, d = 1e5, -choose_phi(flexible_plant)[0, 0]
    lam, (V, Vi, _) = eigensystem(flexible_plant)
    r = (C @ V)[0] * (Vi @ B)[:, 0]
    roots = np.linalg.eigvals(np.block([[A, B], [g * C, np.array([[g * d]])]]))
    g, gd, trace = np.array([g]), np.array([g * d]), np.array([np.trace(A) + g * d])
    z = roots * (1 + 1e-7)
    assert controllers._newton(z[None], roots, lam, r, g, gd, trace)[1][0]
    z[[0, 2]] = z[[2, 0]]
    p, ok = controllers._newton(z[None], roots, lam, r, g, gd, trace)
    np.testing.assert_allclose(np.sort_complex(p[0]), np.sort_complex(roots), rtol=1e-12)
    assert not ok[0]


def test_match_pairs_each_root_with_its_nearest():
    # shuffled eigensolve rows of a locus where two real poles meet and
    # split into a pair, and shuffled perturbations of random rows of 201
    # roots: where each root of the row before has a different nearest
    # root, the pairing is scipy's assignment, bit for bit; at a breakaway
    # tie, two roots sharing a nearest one, it is a permutation of the row
    # that takes the nearest pair first
    rng = np.random.default_rng(11)
    plant = add(tf([1.0], [1.0, 3.0, 2.0]), tf([1.0], [1.0, 2.0, 1e4]))
    loci = irc_eigensolve_locus(plant, choose_phi(plant), np.geomspace(1e-2, 1e3, 1001))
    rows = [(prev, rng.permutation(p)) for prev, p in zip(loci, loci[1:])]
    for _ in range(20):
        prev = rng.standard_normal(201) + 1j * rng.standard_normal(201)
        rows.append((prev, rng.permutation(prev + 1e-3 * rng.standard_normal(201))))
    ties = 0
    for prev, p in rows:
        cost = np.abs(prev[:, None] - p)
        out = controllers._match(prev, p)
        if np.unique(cost.argmin(1)).size == p.size:
            assert out.tobytes() == assignment_match(prev, p).tobytes()
        else:
            ties += 1
            assert np.array_equal(np.sort_complex(out), np.sort_complex(p))
            i, j = np.unravel_index(cost.argmin(), cost.shape)
            assert out[i] == p[j]
    assert ties == 2


def test_irc_root_locus_takes_repeated_gains(flexible_plant, monkeypatch):
    # a gain listed twice repeats its row: no zero step in log gamma reaches
    # the predictor, and the grid stays on the iteration
    Phi = choose_phi(flexible_plant)
    gammas = np.repeat(np.geomspace(1e3, 1e4, 41), 2)
    eigensolves = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: eigensolves.append(1) or eigvals(M))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loci = irc_root_locus(flexible_plant, Phi, gammas)
    monkeypatch.undo()
    assert eigensolves == []
    assert np.array_equal(loci[::2], loci[1::2])
    _assert_same_loci(loci, irc_eigensolve_locus(flexible_plant, Phi, gammas))


def test_irc_root_locus_of_a_plant_with_no_input(flexible_plant):
    # B = 0: every residue is zero, the open-loop poles are closed-loop
    # poles at every gain, and only the controller pole g (D - Phi) moves
    plant = StateSpace(flexible_plant.A, 0.0 * flexible_plant.B, flexible_plant.C,
                       flexible_plant.D)
    Phi, gammas = np.array([[2.0]]), np.geomspace(1e3, 1e5, 41)
    loci = irc_root_locus(plant, Phi, gammas)
    _assert_same_loci(loci, irc_eigensolve_locus(plant, Phi, gammas))


# position modes (omega, 2, 1), one omega listed twice, and the minimal
# realization of the same transfer function, whose repeated mode has gain 2
REPEATED_MODES = [((100, 100, 300), (100, 300)), ((100, 200, 200, 300), (100, 200, 300))]


def _repeated_and_minimal(freqs, merged):
    minimal = modal_to_ss(ModalModel(tuple(
        (w, 2.0, (np.sqrt(freqs.count(w)),)) for w in merged)))
    return modal_to_ss(ModalModel(tuple((w, 2.0, (1.0,)) for w in freqs))), minimal


def test_design_irc_gamma_of_repeated_modes_is_that_of_the_minimal_plant():
    # a repeated mode is one pole with the summed residue; its copy is
    # uncontrollable, a closed-loop pole at every gain, and the dominant
    # pair is followed as on the minimal plant
    for freqs, merged in REPEATED_MODES:
        plant, minimal = _repeated_and_minimal(freqs, merged)
        Phi = choose_phi(minimal)
        des, ref = design_irc_gamma(plant, Phi), design_irc_gamma(minimal, Phi)
        assert des.note is None and ref.note is None
        _assert_same_design(des, ref)


def test_irc_root_locus_of_repeated_modes_fixes_the_copies(monkeypatch):
    for freqs, merged in REPEATED_MODES:
        plant, minimal = _repeated_and_minimal(freqs, merged)
        Phi = choose_phi(minimal)
        gammas = np.geomspace(1e3, 1e8, 1001)
        ref = [np.linalg.eigvals(np.block([[plant.A, plant.B], [g * plant.C, g * (plant.D - Phi)]]))
               for g in gammas]
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append("eigvals") or eigvals(M))
        monkeypatch.setattr(controllers, "_match", lambda *a: calls.append("matching"))
        loci = irc_root_locus(plant, Phi, gammas)
        monkeypatch.undo()
        assert calls == []
        for row, e in zip(loci, ref):
            e = e[linear_sum_assignment(np.abs(row[:, None] - e))[1]]
            assert np.all(np.abs(row - e) <= 1e-10 * np.abs(e))
        # the copy of each repeated eigenvalue stands in its own column
        ol = eigensystem(plant)[0]
        copies = np.flatnonzero(analysis._residues(plant).rep != np.arange(plant.n))
        assert copies.size == 2 and (loci[:, copies] == ol[copies]).all()


def test_design_irc_gamma_falls_back_in_the_marginal_band():
    # Phi = P(0) (1 + 1e-8): lambda = 1 - 1e-8 is too near 1 for the
    # theorem to decide, so every row's stability is read from all its poles
    plant = _paper_plant(5)
    Phi = dc_gain(plant) * (1 + 1e-8)
    des = design_irc_gamma(plant, Phi)
    assert des.note == "lambda_max within the marginal band, all-root sweep"
    ref = irc_eigensolve_sweep(plant, Phi)
    assert np.array_equal(des.stable, ref.stable) and des.gamma_star == ref.gamma_star


def test_design_irc_gamma_falls_back_when_the_pair_is_lost(monkeypatch):
    # a dominant-pair row rejected at one gain, in its block and again on
    # its own, hands the design to the all-root sweep
    plant = _paper_plant(5)
    Phi = choose_phi(plant)
    lost = np.geomspace(1e3, 1e8, 1001)[300]
    newton = controllers._newton

    def reject(z, before, lam, r, g, *args):
        p, ok = newton(z, before, lam, r, g, *args)
        return p, ok & ((g != lost) | (z.shape[1] > 1))
    monkeypatch.setattr(controllers, "_newton", reject)
    des = design_irc_gamma(plant, Phi)
    assert des.note == f"dominant pair lost at gamma = {lost:.6g}, all-root sweep"
    ref = irc_eigensolve_sweep(plant, Phi)
    assert np.array_equal(des.stable, ref.stable) and des.gamma_star == ref.gamma_star

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
from scipy.optimize import linear_sum_assignment

from nisys import (StateSpace, add, check_ni, check_ni_sweep, check_positive_real,
                   check_sni_zeros, check_strictly_positive_real, dc_gain,
                   dc_gain_verdict, default_grid, diagonal_replicate, evaluate,
                   hermitian_imaginary_part, inf_gain, internal_stability, irc,
                   modal_to_ss, positive_feedback, ppf, ppf_mimo, resonant_acc,
                   resonant_vel_type, rotated_system, star_product)
from nisys import ModalModel, analysis, phi_imaginary_axis_zeros, phi_system, poles
from nisys import closed_loop, synthesize_state_feedback, verify_closed_loop
from nisys._kernels import sweep_eigmin
from nisys.analysis import ORIGIN_TOL
from nisys.lti import eigensystem
from conftest import (FAULT3_PLANT, PORT_PLANT, SYNTH_PLANT, flexible_modes, phi_zeros_qz,
                      random_pd, random_stable, tf)


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


def test_spr_rotated_channels_of_spread_gain():
    # Q diag(g_i / (s + a_i) + d_i) Q^T, Q a rotation, is SPR for every
    # g_i, a_i > 0 and d_i >= 0: channel gains four decades apart, half
    # of the plants with d_i = 0, where the limit at infinity decides on
    # the kernel of D + D^T
    rng = np.random.default_rng(13)
    for k in range(400):
        t = rng.uniform(0.0, np.pi)
        Q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        g, a = 10.0 ** rng.uniform(-4, 0, 2), 10.0 ** rng.uniform(-1, 1, 2)
        d = 10.0 ** rng.uniform(-4, 0, 2) if k % 2 else np.zeros(2)
        P = StateSpace(-np.diag(a), np.sqrt(g)[:, None] * Q.T, Q * np.sqrt(g),
                       (Q * d) @ Q.T)
        assert check_strictly_positive_real(P).holds, (k, g, a, d)


def test_check_ni_agrees_with_dense_sweep():
    # the zeros-of-Phi verdict against a 2000-points-per-decade sweep, on NI
    # draws, their sums, and the negated (not NI) draws
    rng = np.random.default_rng(163)
    for i in range(30):
        m = int(rng.integers(1, 3))
        P = ni_draw(rng, m) if i % 3 else add(ni_draw(rng, m), ni_draw(rng, m))
        if i % 2:
            P = scale_output(P, -1.0)
        dense = check_ni_sweep(P, grid=default_grid(P, points_per_decade=2000))
        assert check_ni(P).holds == dense.holds == (i % 2 == 0)


# ------------------------------------------------- NI term by term

def _by_terms(v):
    return v.note is not None and "term by term" in v.note


def _zero_route(P, monkeypatch):
    # check_ni decided by the zeros of Phi, as where the terms decline
    with monkeypatch.context() as mp:
        mp.setattr(analysis, "_ni_by_terms", lambda sys, tol: (None, None))
        return check_ni(P)


def collocated_modal(rng, m):
    """Position modes with random shapes psi (residues psi psi^T / (2j Im
    lam)), frequencies over five decades and damping ratios 1e-3 to 0.5,
    scaled by 1e-3 to 1e5; a third carry a velocity leak of either sign
    (1e-12 to 1e-3 of the scale), a fifth a lag term, and a quarter are
    negated."""
    modes = []
    for _ in range(int(rng.integers(1, 6))):
        w = 10.0 ** rng.uniform(-1.0, 4.0)
        modes.append((w, 2.0 * 10.0 ** rng.uniform(-3.0, -0.3) * w,
                      tuple(rng.standard_normal(m))))
    c = 10.0 ** rng.uniform(-3.0, 5.0)
    P = scale_output(modal_to_ss(ModalModel(tuple(modes))), c)
    if rng.uniform() < 1 / 3:
        v = modal_to_ss(ModalModel(tuple(modes), output="velocity"))
        P = add(P, scale_output(v, c * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -3)))
    if rng.uniform() < 1 / 5:
        P = add(P, scale_output(lag_block(rng, m), c))
    return scale_output(P, -1.0) if rng.uniform() < 1 / 4 else P


def test_term_route_never_overrules_the_zeros(monkeypatch):
    # wherever the modal terms say NI, the zeros of Phi and a
    # 2000-points-per-decade sweep say NI too
    rng = np.random.default_rng(181)
    accepted = declined = 0
    for i in range(240):
        P = collocated_modal(rng, 1 + i % 3)
        v = check_ni(P)
        if not _by_terms(v):
            declined += 1
            continue
        accepted += 1
        assert v.holds and _zero_route(P, monkeypatch).holds
        assert check_ni_sweep(P, grid=default_grid(P, points_per_decade=2000)).holds
    assert accepted >= 80 and declined >= 80


def test_term_bound_covers_the_worst_dip():
    # the terms' bound is a bound: on plants whose H(w) dips below 0 by more
    # than rounding, a tol under the deepest dip seen on a dense grid is
    # never accepted
    rng = np.random.default_rng(191)
    dips = 0
    for i in range(160):
        P = collocated_modal(rng, 1 + i % 3)
        if analysis._ni_by_terms(P, np.inf)[0] is None:
            continue    # not symmetric: no terms
        g = default_grid(P, points_per_decade=2000)
        lam, _, pn = sweep_eigmin(P.A, P.B, P.C, P.D, g, eigensystem(P))
        worst = -lam.min()
        if worst <= 1e-9 * (1.0 + pn.max()):
            continue
        dips += 1
        assert analysis._ni_by_terms(P, 0.999 * worst)[0] is None
    assert dips >= 40


def test_term_bound_covers_skew_parts():
    # the skew parts of D and of the residues, and the grouping of repeated
    # eigenvalues, are bounded too: on random MIMO plants, a third of them
    # with every pole twice, read as if the symmetry check had passed, no
    # point of a dense grid dips below minus the terms' bound
    rng = np.random.default_rng(197)
    for i in range(200):
        m, n = 2 + i % 2, int(rng.integers(1, 7))
        A = rng.standard_normal((n, n))
        A -= (np.linalg.eigvals(A).real.max() + 10.0 ** rng.uniform(-2.0, 0.5)) * np.eye(n)
        if i % 3 == 0:
            A, n = np.kron(np.eye(2), A), 2 * n
        P = StateSpace(A, rng.standard_normal((n, m)), rng.standard_normal((m, n)),
                       rng.standard_normal((m, m)))
        P.__dict__["_res"] = analysis._residues(P)._replace(symmetric=True)
        v = analysis._ni_by_terms(P, np.inf)[0]
        bound = float(v.note.split("<= ")[1].split()[0])
        g = np.concatenate(([0.0], np.logspace(-4.0, 6.0, 3000)))
        lam = sweep_eigmin(P.A, P.B, P.C, P.D, g, eigensystem(P))[0]
        assert -lam.min() <= 1.001 * bound


def _zeros_say_sni(P, monkeypatch):
    """check_sni_zeros decided by the zeros of Phi, as where the terms
    decline; where the staircase reads a normal rank below m, the QZ pencil
    of Phi, which raises when it is singular, has no axis zero off the
    origin. The staircase misreads that rank on some MIMO plants whose modes
    spread over three decades or more (CHANGES.md, FOUND)."""
    with monkeypatch.context() as mp:
        mp.setattr(analysis, "_ni_by_terms", lambda sys, tol: (None, None))
        r = check_sni_zeros(P)
    if r.is_sni or not r.ni.holds or "singular at every w" not in r.reason:
        return r.is_sni
    return _off_origin(phi_zeros_qz(P)[0], np.abs(poles(P))).size == 0


def _pushed(rng, m, delta):
    """Position modes over three decades, damping ratios 0.05 to 0.5, where
    one mode of frequency w senses velocity too, (1 - delta s / w) psi psi^T
    / den: its F = 2 Re R_k is negative by about delta times its size, and
    H(w) < 0 for large w."""
    modes = []
    for _ in range(int(rng.integers(1, 5))):
        w = 10.0 ** rng.uniform(0.0, 3.0)
        modes.append((w, 2.0 * rng.uniform(0.05, 0.5) * w, tuple(rng.standard_normal(m))))
    P = modal_to_ss(ModalModel(tuple(modes)))
    j = int(rng.integers(len(modes)))
    C = P.C.copy()
    C[:, 2 * j + 1] = -delta / modes[j][0] * np.asarray(modes[j][2])
    return StateSpace(P.A, P.B, C, P.D)


def test_strict_term_route_never_overrules_the_zeros(monkeypatch):
    # wherever the modal terms say SNI, the zeros of Phi say SNI too; terms
    # pushed negative past rounding, a sum of terms of rank below m, and a
    # plant with no terms are never SNI by terms
    rng = np.random.default_rng(199)

    def by_terms(P):
        r = check_sni_zeros(P)
        if r.note is None:
            assert analysis._ni_by_terms(P, analysis.NI_SWEEP_TOL)[1] is None
            return False
        assert "term by term" in r.note and r.is_sni and r.axis_zeros.size == 0
        assert _zeros_say_sni(P, monkeypatch)
        return True

    accepted = sum(by_terms(collocated_modal(rng, 1 + i % 3)) for i in range(150))
    assert 40 <= accepted <= 110
    pushed_ni = 0
    for i in range(60):
        P = _pushed(rng, 1 + i % 3, (1e-12, 1e-6)[i % 2])
        assert not by_terms(P)
        pushed_ni += _by_terms(check_ni(P))
    # most of them are NI term by term, up to tol: only the test of each
    # term's negative part keeps them from SNI
    assert pushed_ni >= 30
    for i in range(30):
        # m = 3 or 2 channels, and fewer modes: H(w) is singular at every w
        m = 3 - i % 2
        modes = tuple((10.0 ** rng.uniform(0.0, 3.0), rng.uniform(0.1, 10.0),
                       tuple(rng.standard_normal(m))) for _ in range(m - 1))
        P = modal_to_ss(ModalModel(modes))
        assert not by_terms(P) and not check_sni_zeros(P).is_sni
    for m in (1, 2, 3):
        P = StateSpace(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((m, 0)), random_pd(rng, m))
        assert not by_terms(P) and not check_sni_zeros(P).is_sni


# ------------------------------------------- zeros of Phi against QZ oracle

def _qz_verdict(P, monkeypatch):
    # check_ni with the zeros of Phi from the QZ pencil, also where the
    # modal terms would decide
    with monkeypatch.context() as mp:
        mp.setattr(analysis, "phi_imaginary_axis_zeros", phi_zeros_qz)
        mp.setattr(analysis, "_ni_by_terms", lambda sys, tol: (None, None))
        return check_ni(P)


def _off_origin(z, p):
    # QZ splits a multiple zero at the origin by up to about 1e-7 of the
    # slowest pole's magnitude
    return z[np.abs(z) > 1e-6 * p.min()]


def _jordan_plant(rng, m):
    # a Jordan block of order 2 or 3 beside a random stable part: A has no
    # eigenbasis, so the zeros come from phi_system
    k = int(rng.integers(2, 4))
    J = -float(rng.uniform(0.5, 5.0)) * np.eye(k) + np.eye(k, k=1)
    R = random_stable(rng, int(rng.integers(1, 3)), m)
    A = np.block([[J, np.zeros((k, R.n))], [np.zeros((R.n, k)), R.A]])
    B = np.vstack((rng.standard_normal((k, m)), R.B))
    C = np.hstack((rng.standard_normal((m, k)), R.C))
    return StateSpace(A, B, C, np.zeros((m, m)))


def test_phi_zeros_agree_with_qz_oracle(monkeypatch):
    # NI and SNI draws, their negations, and sums of a draw and a scaled
    # negated draw, which put zeros of Phi on the axis; then sums of two
    # draws, whose first Markov parameter may be singular but not zero,
    # non-symmetric MIMO plants, and plants whose A is a Jordan block
    rng = np.random.default_rng(167)
    plants = []
    for i in range(90):
        m = int(rng.integers(1, 3))
        P = (ni_draw, sni_draw)[i % 2](rng, m)
        if i % 3 == 1:
            P = scale_output(P, -1.0)
        elif i % 3 == 2:
            P = add(P, scale_output(ni_draw(rng, m), -float(rng.uniform(0.05, 0.5))))
        plants.append(P)
    for i in range(90):
        m = int(rng.integers(2, 4))
        plants.append((add(ni_draw(rng, m), ni_draw(rng, m)),
                       random_stable(rng, int(rng.integers(1, 7)), m),
                       _jordan_plant(rng, m))[i % 3])
    crossings = regular = 0
    for P in plants:
        ni, sni = check_ni(P), check_sni_zeros(P)
        z = phi_imaginary_axis_zeros(P)
        if z.singular:
            # the QZ pencil is singular too: a dense sweep is the NI oracle
            dense = check_ni_sweep(P, grid=default_grid(P, points_per_decade=2000))
            assert ni.holds == dense.holds and not sni.is_sni
            continue
        qni = _qz_verdict(P, monkeypatch)
        assert ni.holds == qni.holds
        p = np.abs(poles(P))
        q = phi_zeros_qz(P)
        # the t-form puts a multiple zero at the origin exactly there, and
        # QZ splits it by up to about 1e-5 of the slowest pole's magnitude
        near = 1e-4 * p.min()
        got, fin = z[1][np.abs(z[1]) > near], q[1][np.abs(q[1]) > near]
        assert z[1].size - got.size == q[1].size - fin.size
        cost = np.abs(got[:, None] - fin) / np.abs(fin)
        rows, cols = linear_sum_assignment(cost)
        assert rows.size == got.size and np.all(cost[rows, cols] <= 1e-6)
        # QZ reads infinite zeros as finite ones: beyond 1e12, and, where the
        # leading Markov parameter of Phi is singular, as a cluster far past
        # the poles (60 such points here, at 4.9e3 |p|max and beyond; in
        # 60-digit arithmetic sigma_min / sigma_max of Phi at each is within
        # 3 % of its value 1 % off it, so none is a zero)
        assert np.all(np.abs(np.delete(fin, cols)) > 1e3 * p.max())
        axis = z[0][np.abs(z[0]) > ORIGIN_TOL]
        assert _off_origin(axis, p).size == axis.size
        qaxis = _off_origin(q[0][np.isin(q[0], fin[cols])], p)
        assert sni.is_sni == (qni.holds and qaxis.size == 0)
        a, b = np.sort(np.abs(axis.imag)), np.sort(np.abs(qaxis.imag))
        assert a.size == b.size
        assert np.all(np.abs(a - b) <= 1e-8 * b)
        crossings += a.size > 0
        regular += 1
    assert crossings >= 10 and regular >= 150


def test_t_zeros_residual_on_paper_plant():
    # every zero t of G(t) = sum_i R_i / (t - lam_i^2) on the 100-mode plant
    # leaves sigma_min(G(t)) at most 1e-9 of its largest term
    P = modal_to_ss(ModalModel(flexible_modes(100)))
    lam, (V, Vi, _) = eigensystem(P)
    why, t, k = analysis._t_zeros(P, analysis._residues(P))
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

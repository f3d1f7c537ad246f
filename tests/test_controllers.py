import numpy as np
import pytest

from nisys import (choose_phi, dc_gain, design_irc_gamma,
                   evaluate, irc, ppf, ppf_mimo, resonant_acc,
                   resonant_vel_type)
from conftest import FLEXIBLE_DC_EXACT, random_pd


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
    assert des.feasible
    assert des.stable.any()
    assert des.loci.shape == (len(des.gammas), flexible_plant.n + 1)
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

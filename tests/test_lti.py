import time

import numpy as np
import pytest

from nisys import (LtiError, ModalModel, StateSpace, add, dc_gain,
                   diagonal_replicate, evaluate, inf_gain, is_minimal,
                   modal_to_ss, paraconjugate_transpose, poles,
                   positive_feedback, star_product)
from nisys import numerics
from nisys.lti import eigensystem, static_gain
from conftest import counting, flexible_modes, random_modal, random_stable, tf


def test_statespace_validation():
    with pytest.raises(LtiError):
        StateSpace(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
    with pytest.raises(LtiError):
        StateSpace([[np.nan]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(LtiError):
        StateSpace([[-1.0]], [[1.0, 2.0]], [[1.0]], [[0.0]])  # B/D mismatch


def test_statespace_static_gain():
    g = static_gain([[2.0, 0.0], [0.0, 3.0]])
    assert g.n == 0
    assert np.allclose(evaluate(g, 1j * 7.0), [[2.0, 0.0], [0.0, 3.0]])
    assert poles(g).size == 0


def test_poles_are_kept_read_only():
    sys = StateSpace([[-1.0, 2.0], [0.0, -3.0]], [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    p = poles(sys)
    assert poles(sys) is p
    assert np.array_equal(np.sort(p), [-3.0, -1.0])
    with pytest.raises(ValueError, match="read-only"):
        p[0] = 0.0
    # the eigenbasis is kept with the poles, read-only too
    lam, (V, Vi, _) = eigensystem(sys)
    assert lam is p
    for M in (V, Vi):
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 0.0


def test_row_vector_b_normalized():
    # a single-input B given as a row is accepted and transposed
    s1 = StateSpace([[-1.0, 0.0], [0.0, -2.0]], [1.0, 2.0], [[1.0, 1.0]], [[0.0]])
    assert s1.B.shape == (2, 1)


def test_evaluate_matches_resolvent_and_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sys = random_stable(rng, 4, 2, 2)
        s = complex(rng.standard_normal(), rng.standard_normal())
        direct = sys.C @ np.linalg.solve(s * np.eye(4) - sys.A, sys.B) + sys.D
        assert np.allclose(evaluate(sys, s), direct, atol=1e-10)
        # real coefficients: P(conj(s)) = conj(P(s))
        assert np.allclose(evaluate(sys, np.conj(s)), np.conj(evaluate(sys, s)),
                           atol=1e-10)


def test_evaluate_rejects_pole():
    sys = tf([1.0], [1.0, 1.0])
    with pytest.raises(LtiError):
        evaluate(sys, -1.0)


def test_add_is_parallel_sum():
    rng = np.random.default_rng(2)
    a = random_stable(rng, 3, 1, 1)
    b = random_stable(rng, 2, 1, 1)
    s = 0.3 + 0.7j
    tot = add(a, b)
    assert tot.n == 5
    assert np.allclose(evaluate(tot, s), evaluate(a, s) + evaluate(b, s))


def test_paraconjugate_transpose_identity():
    rng = np.random.default_rng(4)
    sys = random_stable(rng, 3, 2, 2)
    pc = paraconjugate_transpose(sys)
    s = 0.2 + 1.3j
    assert np.allclose(evaluate(pc, s), evaluate(sys, -s).T, atol=1e-10)


def test_dc_and_inf_gain():
    sys = tf([3.0], [1.0, 2.0])     # 3/(s+2)
    assert np.isclose(dc_gain(sys)[0, 0], 1.5)
    assert np.isclose(inf_gain(sys)[0, 0], 0.0)
    integ = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(LtiError):
        dc_gain(integ)


def test_dc_gain_from_eigenbasis_matches_solve(monkeypatch):
    rng = np.random.default_rng(11)
    systems = [modal_to_ss(ModalModel(flexible_modes(k))) for k in (1, 10, 100)]
    systems += [modal_to_ss(random_modal(rng, 6, channels=m)) for m in (1, 2, 3)
                for _ in range(10)]
    systems += [random_stable(rng, n, m, p) for n, m, p in
                ((1, 1, 1), (5, 2, 3), (12, 3, 2), (30, 2, 2)) for _ in range(5)]
    solves = counting(monkeypatch, numerics, "solve")
    for sys in systems:
        got = dc_gain(sys)
        assert got.dtype == float and got.shape == sys.D.shape
        ref = sys.D - sys.C @ np.linalg.solve(sys.A, sys.B)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
    # every one of them took the kept eigenbasis, none the solve
    assert solves == []


def test_dc_gain_falls_back_to_solve(monkeypatch):
    solves = counting(monkeypatch, numerics, "solve")
    # a Jordan block has no eigenbasis: the conditioned solve decides
    jordan = StateSpace([[-2.0, 1.0], [0.0, -2.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.5]])
    assert eigensystem(jordan)[1] is None
    assert np.isclose(dc_gain(jordan)[0, 0], 0.5 + 0.25, rtol=1e-14)
    assert solves == [(2, 2)]
    # an eigenvalue 1e13 times under the largest: beyond the eigenbasis
    # route's bound, and the solve rejects A as near-singular
    near = StateSpace(np.diag([-1.0, -1e-13]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    with pytest.raises(LtiError, match="near-singular"):
        dc_gain(near)
    assert solves == [(2, 2), (2, 2)]
    # a pole at the origin: min|lam| = 0 takes the solve, which raises
    integ = StateSpace(np.diag([-1.0, 0.0]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    with pytest.raises(LtiError, match="dc gain undefined"):
        dc_gain(integ)
    assert len(solves) == 3


def test_is_minimal():
    assert is_minimal(tf([1.0], [1.0, 1.0]))
    # duplicated state, unobservable copy
    A = np.diag([-1.0, -1.0])
    sys = StateSpace(A, [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    assert not is_minimal(sys)
    # two copies of one system in rotated coordinates: the computed
    # eigenvalues of each pair differ by rounding
    rng = np.random.default_rng(3)
    dup = add(*[random_stable(rng, 2, 1, 1)] * 2)
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    assert not is_minimal(StateSpace(Q.T @ dup.A @ Q, Q.T @ dup.B, dup.C @ Q, dup.D))
    # pole-zero cancellation (s+1)/((s+1)(s+2))
    assert not is_minimal(tf([1.0, 1.0], [1.0, 3.0, 2.0]))
    # defective A: 1/(s+1)^2 is minimal; a Jordan chain the input misses is not
    assert is_minimal(tf([1.0], [1.0, 2.0, 1.0]))
    assert not is_minimal(StateSpace([[-1.0, 1.0], [0.0, -1.0]], [[1.0], [0.0]],
                                     [[1.0, 1.0]], [[0.0]]))
    # lightly damped modes at 100 k rad/s: distinct poles, nonzero residues;
    # the 30-mode plant overflows a Krylov matrix, and at 100 modes the
    # position output of the fastest mode is 3.8e-9 of ||A - lam I||
    for count in (1, 2, 3, 5, 10, 30):
        modes = tuple((100.0 * k, 2.0, (1.0,)) for k in range(1, count + 1))
        assert is_minimal(modal_to_ss(ModalModel(modes)))
    plant = modal_to_ss(ModalModel(tuple((100.0 * k, 2.0, (1.0,)) for k in range(1, 101))))
    t0 = time.perf_counter()
    assert is_minimal(plant)
    assert time.perf_counter() - t0 < 0.5


def test_diagonal_replicate():
    sys = tf([1.0], [1.0, 1.0])
    rep = diagonal_replicate(sys, 3)
    s = 1.0 + 2.0j
    assert rep.inputs == rep.outputs == 3
    assert np.allclose(evaluate(rep, s), evaluate(sys, s)[0, 0] * np.eye(3))


def test_modal_two_path_eval():
    rng = np.random.default_rng(9)
    for output in ("position", "velocity"):
        mm = random_modal(rng, max_modes=3, channels=2, output=output)
        sys = modal_to_ss(mm)
        for _ in range(5):
            s = complex(rng.uniform(0.1, 2.0), rng.uniform(-5.0, 5.0))
            ref = mm.eval_sum(s)
            got = evaluate(sys, s)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_modal_validation():
    with pytest.raises(LtiError):
        ModalModel(modes=((0.0, 1.0, (1.0,)),), output="position")  # omega > 0
    with pytest.raises(LtiError):
        ModalModel(modes=((1.0, -1.0, (1.0,)),), output="position")  # kappa >= 0
    with pytest.raises(LtiError):
        ModalModel(modes=((1.0, 1.0, (1.0,)),), output="acceleration")


def _two_port(rng, n, p1, m1, p2, m2):
    # stable block two-port for star product tests
    sys = random_stable(rng, n, m1 + m2, p1 + p2)
    return sys


def test_positive_feedback_matches_transfer_algebra():
    rng = np.random.default_rng(17)
    for _ in range(20):
        M = random_stable(rng, rng.integers(1, 5), 2, 2)
        N = random_stable(rng, rng.integers(1, 5), 2, 2)
        # keep the loop well posed
        if np.linalg.norm(N.D @ M.D) > 0.7:
            N = StateSpace(N.A, N.B, 0.1 * N.C, 0.1 * N.D)
        cl = positive_feedback(M, N)
        s = complex(rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0))
        Ms, Ns = evaluate(M, s), evaluate(N, s)
        I = np.eye(2)
        T11 = Ms @ np.linalg.inv(I - Ns @ Ms)
        T12 = T11 @ Ns
        T22 = Ns @ np.linalg.inv(I - Ms @ Ns)
        T21 = T22 @ Ms
        ref = np.block([[T11, T12], [T21, T22]])
        assert np.allclose(evaluate(cl, s), ref, rtol=1e-9, atol=1e-9)


def test_positive_feedback_rejects_algebraic_loop():
    M = static_gain([[1.0]])
    N = static_gain([[1.0]])
    with pytest.raises(LtiError):
        positive_feedback(M, N)


def test_star_product_matches_transfer_algebra():
    # partitions are half/half: M maps (w1, u1) -> (y1, u2), N maps
    # (u2, w2) -> (u1, y2), all channels width q
    rng = np.random.default_rng(23)
    done = 0
    while done < 20:
        q = int(rng.integers(1, 3))
        M = random_stable(rng, int(rng.integers(1, 4)), 2 * q, 2 * q)
        N = random_stable(rng, int(rng.integers(1, 4)), 2 * q, 2 * q)
        # well-posedness is a feedthrough condition
        loop_D = np.eye(q) - N.D[:q, :q] @ M.D[q:, q:]
        if np.linalg.svd(loop_D, compute_uv=False)[-1] < 0.2:
            continue
        s = complex(rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0))
        Ms, Ns = evaluate(M, s), evaluate(N, s)
        M11, M12 = Ms[:q, :q], Ms[:q, q:]
        M21, M22 = Ms[q:, :q], Ms[q:, q:]
        N11, N12 = Ns[:q, :q], Ns[:q, q:]
        N21, N22 = Ns[q:, :q], Ns[q:, q:]
        if np.linalg.svd(np.eye(q) - N11 @ M22, compute_uv=False)[-1] < 0.1:
            continue
        done += 1
        cl = star_product(M, N)
        E = np.linalg.inv(np.eye(q) - N11 @ M22)
        F = np.linalg.inv(np.eye(q) - M22 @ N11)
        S11 = M11 + M12 @ E @ N11 @ M21
        S12 = M12 @ E @ N12
        S21 = N21 @ F @ M21
        S22 = N22 + N21 @ F @ M22 @ N12
        ref = np.block([[S11, S12], [S21, S22]])
        assert np.allclose(evaluate(cl, s), ref, rtol=1e-9, atol=1e-9)

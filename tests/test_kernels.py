import tracemalloc

import numpy as np
import pytest

from nisys import ModalModel, StateSpace, evaluate, modal_to_ss, poles
from nisys._kernels import CHUNK, eval_grid, sweep_eigmin
from nisys.analysis import _breakpoint_grid, phi_imaginary_axis_zeros
from nisys.lti import eigensystem
from nisys.numerics import eigendecomposition
from conftest import flexible_modes, random_stable


def _assert_bytes_match_evaluate(sys, ws):
    # the resolvent fallback and n = 0: tobytes, not array_equal, so the
    # sign of a zero counts too
    vals = eval_grid(sys.A, sys.B, sys.C, sys.D, ws, eigensystem(sys))
    assert vals.shape == (ws.size, sys.outputs, sys.inputs)
    for k, w in enumerate(ws):
        assert vals[k].tobytes() == evaluate(sys, 1j * w).tobytes(), (sys.n, k, w)


def _assert_close_to_evaluate(sys, ws):
    # the modal path: entrywise |P - evaluate| <= 1e-12 (1 + |evaluate|)
    vals = eval_grid(sys.A, sys.B, sys.C, sys.D, ws, eigensystem(sys))
    assert vals.shape == (ws.size, sys.outputs, sys.inputs)
    for k, w in enumerate(ws):
        ref = evaluate(sys, 1j * w)
        assert np.all(np.abs(vals[k] - ref) <= 1e-12 * (1.0 + np.abs(ref))), (sys.n, k, w)


def _jordan(rng, n, m, p):
    # 2x2 Jordan blocks at -1: V is singular, so eval_grid takes the fallback
    A = np.kron(np.eye(n // 2), [[-1.0, 1.0], [0.0, -1.0]])
    assert eigendecomposition(A)[1] is None
    return StateSpace(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
                      rng.standard_normal((p, m)))


def test_sweep_values_match_direct_eigh():
    # per-point reference: resolvent solve, both Hermitian forms, eigvalsh,
    # norm; one call gives both forms
    rng = np.random.default_rng(41)
    systems = [random_stable(rng, 4, 2, 2)]
    rng = np.random.default_rng(31)
    systems += [random_stable(rng, int(rng.integers(1, 7)), 2, 2) for _ in range(10)]
    # m = 1 reads the 1 x 1 forms without an eigensolve. P(0) of 1/(s + 1)
    # has Im P = +0.0 exactly, where eigvalsh gives lambda_min(j (P - P^*))
    # = +0.0 and -2 Im P would give -0.0
    first_order = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    systems += [first_order]
    systems += [random_stable(rng, int(rng.integers(1, 7)), 1, 1) for _ in range(6)]
    ws = np.concatenate(([0.0, 0.3, 2.0, 11.0], np.geomspace(1e-2, 1e2, 60)))
    for sys in systems:
        lam_ni, lam_pr, pn = sweep_eigmin(sys.A, sys.B, sys.C, sys.D, ws, eigensystem(sys))
        for k, w in enumerate(ws):
            P = sys.C @ np.linalg.solve(1j * w * np.eye(sys.n) - sys.A, sys.B) + sys.D
            Ph = P.conj().T
            assert np.isclose(lam_ni[k], np.linalg.eigvalsh(1j * (P - Ph))[0], atol=1e-12)
            assert np.isclose(lam_pr[k], np.linalg.eigvalsh(P + Ph)[0], atol=1e-12)
            assert np.isclose(pn[k], np.linalg.norm(P), atol=1e-12)
        if sys.inputs == 1:
            # bytes, signed zeros included: eigvalsh of the forms built from
            # eval_grid's own P
            P = eval_grid(sys.A, sys.B, sys.C, sys.D, ws, eigensystem(sys))
            Ph = P.conj().transpose(0, 2, 1)
            assert lam_ni.tobytes() == np.linalg.eigvalsh(1j * (P - Ph))[:, 0].tobytes()
            assert lam_pr.tobytes() == np.linalg.eigvalsh(P + Ph)[:, 0].tobytes()
    f = first_order
    P0 = eval_grid(f.A, f.B, f.C, f.D, ws[:1], eigensystem(f))[0, 0, 0]
    lam_ni = sweep_eigmin(f.A, f.B, f.C, f.D, ws[:1], eigensystem(f))[0]
    assert P0.imag == 0.0 and lam_ni[0] == 0.0 and not np.signbit(lam_ni[0])


def _modal_with_zeros(rng):
    # exact +0.0 and -0.0 entries in A, zero diagonal in the position rows,
    # and a zero feedthrough
    A = np.zeros((6, 6))
    for i, (om, z) in enumerate(((1.0, 0.1), (4.0, 0.02), (9.0, 0.5))):
        A[2 * i, 2 * i + 1] = 1.0
        A[2 * i + 1, 2 * i] = -om * om
        A[2 * i + 1, 2 * i + 1] = -2.0 * z * om
    A[0, 4] = -0.0
    A[5, 2] = -0.0
    return StateSpace(A, rng.standard_normal((6, 2)), rng.standard_normal((2, 6)),
                      np.zeros((2, 2)))


def test_eval_grid_matches_evaluate():
    rng = np.random.default_rng(37)
    ws = np.concatenate(([0.0], np.geomspace(1e-1, 1e1, 40)))
    for sys in (random_stable(rng, 5, 2, 3), random_stable(rng, 3, 1, 1),
                _modal_with_zeros(rng)):
        _assert_close_to_evaluate(sys, ws)
    # the fallback is the per-point solve, byte for byte
    for sys in (_jordan(rng, 4, 2, 3), _jordan(rng, 2, 1, 1)):
        _assert_bytes_match_evaluate(sys, ws)


def test_eval_grid_chunk_boundaries():
    rng = np.random.default_rng(43)
    # modal, n = 4, p = 3: two full chunks of CHUNK // 12 points and a short one
    step = CHUNK // 12
    ws = np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 2 * step + 98)))
    _assert_close_to_evaluate(random_stable(rng, 4, 2, 3), ws)
    # fallback, n = 4: three full chunks of CHUNK // 16 points and a short one
    step = CHUNK // 16
    ws = np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 3 * step + 99)))
    _assert_bytes_match_evaluate(_jordan(rng, 4, 2, 1), ws)
    # n = 0: the static gain D at every point
    static = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)),
                        rng.standard_normal((3, 2)))
    _assert_bytes_match_evaluate(static, ws[:50])
    # no outputs, no inputs: empty values at every point
    A = np.array([[-1.0]])
    eig = eigendecomposition(A)
    P = eval_grid(A, np.ones((1, 2)), np.zeros((0, 1)), np.zeros((0, 2)), ws, eig)
    assert P.shape == (ws.size, 0, 2)
    P = eval_grid(A, np.ones((1, 0)), np.ones((2, 1)), np.zeros((2, 0)), ws, eig)
    assert P.shape == (ws.size, 2, 0)
    # fallback, n * n = CHUNK: every chunk is a single point
    n = int(np.sqrt(CHUNK))
    assert CHUNK // (n * n) == 1
    _assert_bytes_match_evaluate(_jordan(rng, n, 1, 1), np.array([0.0, 0.7, 30.0]))


def test_eval_grid_paper_plant_breakpoint_grid():
    # the 100-mode paper plant, n = 200, on the grid that decides its NI verdict
    sys = modal_to_ss(ModalModel(flexible_modes(100)))
    assert eigensystem(sys)[1] is not None
    _, fin = phi_imaginary_axis_zeros(sys)
    ws = _breakpoint_grid(fin, poles(sys))
    # w = 0, 2 * last + 1, the 100 pole magnitudes and a midpoint after each
    # |Im s| of the 99 conjugate pairs among the 198 zeros t = s^2 of G
    assert ws.size == 201
    _assert_close_to_evaluate(sys, ws)


def test_eval_grid_on_an_eigenvalue_raises():
    # a grid point on an eigenvalue: w = 0 on an integrator, and w = 2 on an
    # undamped mode whose computed eigenvalue misses 2j by rounding; the
    # fallback raises as the per-point solve does
    for A, w in (([[0.0]], 0.0), ([[0.0, 2.0], [-2.0, 0.0]], 2.0)):
        A = np.array(A)
        n = A.shape[0]
        with pytest.raises(np.linalg.LinAlgError):
            eval_grid(A, np.ones((n, 1)), np.ones((1, n)), np.zeros((1, 1)),
                      np.array([0.5, w]), eigendecomposition(A))


def test_eval_grid_non_finite_eigenvectors_fall_back(monkeypatch):
    rng = np.random.default_rng(47)
    sys = random_stable(rng, 5, 2, 2)
    eig = np.linalg.eig

    def eig_nan(A):
        lam, V = eig(A)
        V[0, 0] = np.nan
        return lam, V
    monkeypatch.setattr(np.linalg, "eig", eig_nan)
    assert eigensystem(sys)[1] is None
    _assert_bytes_match_evaluate(sys, np.concatenate(([0.0], np.geomspace(1e-1, 1e1, 30))))


def test_sweep_norm_matches_linalg_norm():
    rng = np.random.default_rng(53)
    ws = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 400)))
    for m in (1, 2, 3):
        for n in (1, 4, 9):
            sys = random_stable(rng, n, m, m)
            P = eval_grid(sys.A, sys.B, sys.C, sys.D, ws, eigensystem(sys))
            pn = sweep_eigmin(sys.A, sys.B, sys.C, sys.D, ws, eigensystem(sys))[2]
            ref = np.array([np.linalg.norm(Pk) for Pk in P], dtype=float)
            assert pn.tobytes() == ref.tobytes(), (m, n)


def test_eval_grid_memory_is_chunked():
    # whole-grid temporaries: (4000, 2, 150) complex for the modal path,
    # 19 MB; (400, 150, 150) for the fallback's resolvent, 144 MB
    rng = np.random.default_rng(59)
    for sys, ws in ((random_stable(rng, 150, 2, 2), np.geomspace(1e-2, 1e2, 4000)),
                    (_jordan(rng, 150, 2, 2), np.geomspace(1e-2, 1e2, 400))):
        eig = eigensystem(sys)
        tracemalloc.start()
        try:
            eval_grid(sys.A, sys.B, sys.C, sys.D, ws, eig)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


def test_static_system_and_empty_grid():
    D = np.array([[1.0, 0.0], [0.0, -2.0]])
    eig = eigendecomposition(np.zeros((0, 0)))
    lam_ni, lam_pr, pn = sweep_eigmin(np.zeros((0, 0)), np.zeros((0, 2)),
                                      np.zeros((2, 0)), D, np.array([1.0]), eig)
    assert np.isclose(lam_pr[0], np.linalg.eigvalsh(D + D.T)[0])
    assert lam_ni[0] == 0.0 and np.isclose(pn[0], np.linalg.norm(D))
    out = sweep_eigmin(np.zeros((0, 0)), np.zeros((0, 2)),
                       np.zeros((2, 0)), D, np.zeros(0), eig)
    assert len(out) == 3 and all(x.size == 0 for x in out)

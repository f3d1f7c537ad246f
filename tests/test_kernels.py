import tracemalloc

import numpy as np

from nisys import StateSpace, evaluate
from nisys._kernels import CHUNK, eval_grid, sweep_eigmin
from conftest import random_stable


def _assert_bytes_match_evaluate(sys, ws):
    # tobytes, not array_equal: the sign of a zero counts too
    vals = eval_grid(sys.A, sys.B, sys.C, sys.D, ws)
    assert vals.shape == (ws.size, sys.outputs, sys.inputs)
    for k, w in enumerate(ws):
        assert vals[k].tobytes() == evaluate(sys, 1j * w).tobytes(), (sys.n, k, w)


def test_sweep_values_match_direct_eigh():
    # per-point reference: resolvent solve, Hermitian form, eigvalsh, norm
    rng = np.random.default_rng(41)
    systems = [random_stable(rng, 4, 2, 2)]
    rng = np.random.default_rng(31)
    systems += [random_stable(rng, int(rng.integers(1, 7)), 2, 2) for _ in range(10)]
    ws = np.concatenate(([0.0, 0.3, 2.0, 11.0], np.geomspace(1e-2, 1e2, 60)))
    for sys in systems:
        for mode in (0, 1):
            lam, pn = sweep_eigmin(sys.A, sys.B, sys.C, sys.D, ws, mode)
            for k, w in enumerate(ws):
                P = sys.C @ np.linalg.solve(1j * w * np.eye(sys.n) - sys.A, sys.B) + sys.D
                H = (P + P.conj().T) if mode == 1 else 1j * (P - P.conj().T)
                assert np.isclose(lam[k], np.linalg.eigvalsh(H)[0], atol=1e-12)
                assert np.isclose(pn[k], np.linalg.norm(P), atol=1e-12)


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
        _assert_bytes_match_evaluate(sys, ws)


def test_eval_grid_chunk_boundaries():
    rng = np.random.default_rng(43)
    # n = 3: three full chunks and a short last one
    step = CHUNK // 9
    ws = np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 3 * step + 99)))
    _assert_bytes_match_evaluate(random_stable(rng, 3, 2, 1), ws)
    # n = 0: the static gain D at every point
    static = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)),
                        rng.standard_normal((3, 2)))
    _assert_bytes_match_evaluate(static, ws[:50])
    # n * n = CHUNK: every chunk is a single point
    n = int(np.sqrt(CHUNK))
    assert CHUNK // (n * n) == 1
    _assert_bytes_match_evaluate(random_stable(rng, n, 1, 1), np.array([0.0, 0.7, 30.0]))


def test_sweep_norm_matches_linalg_norm():
    rng = np.random.default_rng(53)
    ws = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 400)))
    for m in (1, 2, 3):
        for n in (1, 4, 9):
            sys = random_stable(rng, n, m, m)
            P = eval_grid(sys.A, sys.B, sys.C, sys.D, ws)
            _, pn = sweep_eigmin(sys.A, sys.B, sys.C, sys.D, ws, 0)
            ref = np.array([np.linalg.norm(Pk) for Pk in P], dtype=float)
            assert pn.tobytes() == ref.tobytes(), (m, n)


def test_eval_grid_memory_is_chunked():
    # stacking the whole grid would hold 400 x 150 x 150 complex, about 144 MB
    rng = np.random.default_rng(59)
    sys = random_stable(rng, 150, 2, 2)
    ws = np.geomspace(1e-2, 1e2, 400)
    tracemalloc.start()
    try:
        eval_grid(sys.A, sys.B, sys.C, sys.D, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_static_system_and_empty_grid():
    D = np.array([[1.0, 0.0], [0.0, -2.0]])
    lam, pn = sweep_eigmin(np.zeros((0, 0)), np.zeros((0, 2)),
                           np.zeros((2, 0)), D, np.array([1.0]), 1)
    assert np.isclose(lam[0], np.linalg.eigvalsh(D + D.T)[0])
    lam0, pn0 = sweep_eigmin(np.zeros((0, 0)), np.zeros((0, 2)),
                             np.zeros((2, 0)), D, np.zeros(0), 0)
    assert lam0.size == 0 and pn0.size == 0

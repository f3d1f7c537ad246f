import numpy as np

from nisys import evaluate
from nisys._kernels import eval_grid, sweep_eigmin
from conftest import random_stable


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


def test_eval_grid_matches_evaluate():
    rng = np.random.default_rng(37)
    ws = np.concatenate(([0.0], np.geomspace(1e-1, 1e1, 40)))
    for sys in (random_stable(rng, 5, 2, 3), random_stable(rng, 3, 1, 1)):
        vals = eval_grid(sys.A, sys.B, sys.C, sys.D, ws)
        assert vals.shape == (ws.size, sys.outputs, sys.inputs)
        for k, w in enumerate(ws):
            assert np.array_equal(vals[k], evaluate(sys, 1j * w))


def test_static_system_and_empty_grid():
    D = np.array([[1.0, 0.0], [0.0, -2.0]])
    lam, pn = sweep_eigmin(np.zeros((0, 0)), np.zeros((0, 2)),
                           np.zeros((2, 0)), D, np.array([1.0]), 1)
    assert np.isclose(lam[0], np.linalg.eigvalsh(D + D.T)[0])
    lam0, pn0 = sweep_eigmin(np.zeros((0, 0)), np.zeros((0, 2)),
                             np.zeros((2, 0)), D, np.zeros(0), 0)
    assert lam0.size == 0 and pn0.size == 0

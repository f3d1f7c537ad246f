import dataclasses

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.signal import tf2ss

from nisys import ModalModel, NumericsError, StateSpace, UncertainPlant, modal_to_ss, phi_system
from nisys.analysis import AXIS_TOL, _split
from nisys.controllers import IrcDesign


def same(a, b):
    """Exact equality through dataclasses, containers and arrays (NaN == NaN)."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, (np.ndarray, float, complex)):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records, per call, the shape
    of its first argument; returns that list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]) if args else None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def generalized_eigenvalues(M1, M2) -> np.ndarray:
    """Finite generalized eigenvalues of the pencil (M1, M2), by the QZ of
    scipy.linalg.eig. A singular pencil (det(M1 - s M2) = 0 for every s)
    shows as a pair (alpha, beta) with both at rounding level, and raises
    NumericsError."""
    from scipy.linalg import eig

    alpha, beta = eig(M1, M2, right=False, homogeneous_eigvals=True)
    tol = M1.shape[0] * np.finfo(float).eps
    if np.any((np.abs(alpha) <= tol * np.linalg.norm(M1))
              & (np.abs(beta) <= tol * np.linalg.norm(M2))):
        raise NumericsError("singular pencil")
    with np.errstate(divide="ignore", invalid="ignore"):
        ev = alpha / beta
    return ev[np.isfinite(ev)]


def phi_zeros_qz(sys, axis_tol=AXIS_TOL):
    """The oracle of phi_imaginary_axis_zeros: the finite generalized
    eigenvalues of the system-matrix pencil of phi_system, of order 2n + m.
    QZ may read infinite zeros as finite ones far past the poles, and splits
    a multiple zero at the origin. Raises NumericsError when the pencil is
    singular."""
    phi = phi_system(sys)
    n2, m = phi.n, phi.inputs
    M1 = np.block([[phi.A, phi.B], [phi.C, phi.D]])
    M2 = np.block([[np.eye(n2), np.zeros((n2, m))], [np.zeros((m, n2 + m))]])
    return _split(generalized_eigenvalues(M1, M2), axis_tol)


def tf(num, den) -> StateSpace:
    A, B, C, D = tf2ss(num, den)
    return StateSpace(A, B, C, D)


@pytest.fixture
def first_order():
    # 1/(s+1)
    return StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


@pytest.fixture
def second_order():
    # (2s^2+s+1)/((s^2+2s+5)(s+1)(2s+1)), in the realization whose
    # published certificate is checked below
    A = np.array([[-3.5, -8.5, -8.5, -2.5],
                  [1.0, 0, 0, 0],
                  [0, 1.0, 0, 0],
                  [0, 0, 1.0, 0]])
    B = np.array([[2.5], [-3.0], [1.0], [0.0]])
    C = np.array([[0.0, 0.0, 0.0, 1.0]])
    return StateSpace(A, B, C, [[0.0]])


SECOND_ORDER_Y = np.array([
    [100.375, -36.75, 2.5, 3.0],
    [-36.75, 18.5, -3.0, -1.0],
    [2.5, -3.0, 1.0, 0.0],
    [3.0, -1.0, 0.0, 0.2],
])


@pytest.fixture
def second_order_Y():
    return SECOND_ORDER_Y.copy()


@pytest.fixture
def velocity_mode():
    # s/(s^2+s+1): one mode, velocity output
    return modal_to_ss(ModalModel(modes=((1.0, 1.0, (1.0,)),), output="velocity"))


@pytest.fixture
def unstable():
    # 1/(s-1)
    return StateSpace([[1.0]], [[1.0]], [[1.0]], [[0.0]])


def flexible_modes(n_modes=10):
    return tuple((100.0 * k, 2.0, (1.0,)) for k in range(1, n_modes + 1))


@pytest.fixture
def flexible_plant():
    # ten lightly damped modes, position output:
    # P(s) = sum_k 1/(s^2 + 2 s + 1e4 k^2)
    return modal_to_ss(ModalModel(modes=flexible_modes(), output="position"))


FLEXIBLE_DC_EXACT = 1e-4 * sum(1.0 / k**2 for k in range(1, 11))


def assignment_match(prev, p):
    """p reordered by scipy's linear_sum_assignment on the distances to
    prev: the pairing of least total distance, the oracle of
    controllers._match."""
    return p[linear_sum_assignment(np.abs(prev[:, None] - p[None, :]))[1]]


def irc_eigensolve_locus(plant, Phi, gammas):
    """Closed-loop poles of [plant, irc(gamma, Phi)] at each gain, by one
    dense eigensolve of the closed loop per gain, each row
    assignment-matched to the one before (the first to the open-loop poles
    and -gammas[0] Phi): the reference irc_root_locus reproduces."""
    prev = np.append(np.linalg.eigvals(plant.A), -gammas[0] * float(Phi[0, 0]))
    loci = np.zeros((len(gammas), plant.n + 1), dtype=complex)
    for k, g in enumerate(gammas):
        loci[k] = prev = assignment_match(prev, _closed_loop_poles(plant, Phi, g))
    return loci


def _closed_loop_poles(plant, Phi, g):
    A, B, C, D = plant.A, plant.B, plant.C, plant.D
    return np.linalg.eigvals(np.block([[A, B], [g * C, g * (D - float(Phi[0, 0]))]]))


def irc_eigensolve_sweep(plant, Phi, gamma_min=1e3, gamma_max=1e8, points_per_decade=200):
    """The integral resonant gain design from the eigensolve locus, each
    row's stability read from all its poles: the reference design_irc_gamma
    reproduces. The controller field is left None."""
    npts = max(2, int(np.ceil(np.log10(gamma_max / gamma_min) * points_per_decade)) + 1)
    gammas = np.geomspace(gamma_min, gamma_max, npts)
    tracked = np.argsort(np.abs(np.linalg.eigvals(plant.A)))[:2]
    loci = irc_eigensolve_locus(plant, Phi, gammas)
    decays, zetas = np.full(npts, np.nan), np.full(npts, np.nan)
    for k, row in enumerate(loci):
        if np.all(row.real < 0):
            pair = row[tracked]
            decays[k] = (-pair.real).min()
            zetas[k] = (-pair.real / np.abs(pair)).min()
    stable = ~np.isnan(decays)
    if not stable.any():
        return IrcDesign(False, np.nan, np.nan, np.nan, gammas, zetas, decays, stable, None)
    bd = int(np.nanargmax(decays))
    g_star, d_star, z_star = gammas[bd], decays[bd], zetas[bd]
    prev = loci[max(bd - 1, 0)]
    for g in np.geomspace(gammas[max(bd - 1, 0)], gammas[min(bd + 1, npts - 1)], 400):
        prev = assignment_match(prev, _closed_loop_poles(plant, Phi, g))
        pair = prev[tracked]
        if np.all(prev.real < 0) and (-pair.real).min() > d_star:
            g_star, d_star = float(g), float((-pair.real).min())
            z_star = float((-pair.real / np.abs(pair)).min())
    return IrcDesign(True, float(g_star), float(z_star), float(d_star), gammas, zetas, decays,
                     stable, None)


SYNTH_PLANT = UncertainPlant(
    A=np.array([[-1.0, 0, 0], [1, -1, 1], [0, 1, -1]]),
    B1=np.array([[0.0], [0.0], [1.0]]),
    B2=np.array([[-2.0], [1.0], [0.0]]),
    C1=np.array([[0.0, 1.0, 0.0]]),
)


@pytest.fixture
def synth_plant():
    return SYNTH_PLANT


SYNTH_Y_PUBLISHED = np.array([
    [3.9594e9, -2.0008, -3.9594e9],
    [-2.0008, 0.72850, 1.7293],
    [-3.9594e9, 1.7293, 3.9594e9],
])
SYNTH_M_PUBLISHED = np.array([[-2.8122, 1.0000, 2.6260]])
SYNTH_K_PUBLISHED = np.array([[0.22927, 1.4581, 0.22927]])


def port_plant(modes, dc, B2):
    """Uncertainty port of modal position-output modes (omega, kappa, psi),
    psi rescaled so the port's DC gain is dc; state (q, q') per mode."""
    c = np.sqrt(dc / sum(p * p / (w * w) for w, _, p in modes))
    A = np.zeros((2 * len(modes), 2 * len(modes)))
    B1 = np.zeros((2 * len(modes), 1))
    C1 = np.zeros((1, 2 * len(modes)))
    for i, (w, k, p) in enumerate(modes):
        A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[0.0, 1.0], [-w * w, -k]]
        B1[2 * i + 1, 0] = C1[0, 2 * i] = p * c
    return UncertainPlant(A, B1, np.asarray(B2, float).reshape(-1, 1), C1)


# regression plants where K = 0 passes verify_closed_loop, yet synthesis
# once reported infeasible: a three-mode port and a random two-mode port
FAULT3_PLANT = port_plant([(9.0749, 1.5962, 1.0), (3.0269, 0.7403, 1.0), (8.862, 0.2095, 1.0)],
                          0.5, [1.3402, -0.4922, -0.6205, 0.4898, 0.3569, 0.1054])
PORT_PLANT = port_plant([(1.8724, 1.1723, 1.0), (9.4081, 0.3066, 1.0)], 0.5833,
                        [-1.9176, -0.7312, 0.6775, -0.9667])

# clustered modes (omega, kappa, psi) of an NI plant on which the NI
# certificate search once failed, and flipped under a 1e-6 scale of omega
CLUSTER_MODES = ((28.8696, 1.53127, 0.8254), (29.7918, 1.87277, 1.4945),
                 (30.5093, 2.3151, 0.5297), (327.8529, 12.96961, 1.3382),
                 (371.8733, 10.71296, 1.3992), (645.774, 45.30938, 0.9785))


def random_stable(rng, n, m=1, p=None):
    p = m if p is None else p
    A = rng.standard_normal((n, n))
    A = A - (np.abs(np.linalg.eigvals(A).real).max() + 0.5 + rng.uniform(0, 1)) * np.eye(n)
    return StateSpace(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
                      rng.standard_normal((p, m)))


def random_modal(rng, max_modes=4, channels=1, output="position"):
    k = rng.integers(1, max_modes + 1)
    modes = []
    for _ in range(k):
        omega = float(rng.uniform(0.5, 50.0))
        kappa = float(rng.uniform(0.05, 2.0))
        psi = tuple(rng.uniform(-2.0, 2.0, size=channels))
        modes.append((omega, kappa, psi))
    return ModalModel(modes=tuple(modes), output=output)


def random_pd(rng, m, shift=0.5):
    G = rng.standard_normal((m, m))
    return G @ G.T + shift * np.eye(m)


def assert_farkas(problem, res):
    """Check the dual of an infeasible solve against the problem's own
    constraint functions (cones without a boundary kernel): each W_i is PSD,
    sum_i <W_i, F_i(x)> (F_i the sense-adjusted cone blocks) is constant on
    the affine set where the equalities hold, and that constant is negative,
    so no x satisfies every cone and equality."""
    assert not res.feasible and res.reason == "infeasible"
    N = problem.dim
    basis = np.vstack([np.zeros(N), np.eye(N)])

    def pair(x):
        v = problem.unpack(x)
        return sum(np.vdot(W, c["sense"] * np.asarray(c["fn"](v), float))
                   for W, c in zip(res.dual, problem.cones))

    def eqs(x):
        v = problem.unpack(x)
        return np.concatenate([np.ravel(fn(v)) for fn in problem.eqs] + [np.zeros(0)])

    assert len(res.dual) == len(problem.cones)
    for W in res.dual:
        assert np.allclose(W, W.T)
        assert np.linalg.eigvalsh(W)[0] >= -1e-9 * np.linalg.norm(W)
    p = np.array([pair(x) for x in basis])
    E = np.array([eqs(x) for x in basis])
    g, Lr = p[1:] - p[0], (E[1:] - E[0]).T
    y = np.linalg.lstsq(Lr.T, g, rcond=None)[0] if Lr.size else np.zeros(0)
    assert np.linalg.norm(g - Lr.T @ y) <= 1e-9 * max(1.0, np.abs(p).max())
    assert p[0] - y @ E[0] < 0

"""Controller families with the negative-imaginary property, and a tuning
loop for the integral resonant controller.

All constructors return StateSpace realizations. Gains are validated so that
the returned controller is (strictly) negative-imaginary by construction:
positive position feedback and the resonant families need positive gains and
damping, the integral resonant controller needs symmetric positive definite
gain matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._kernels import eigenbasis
from .lti import StateSpace, add, dc_gain
from .numerics import eig_symmetric


def _check_pos(name, v):
    if not (np.isscalar(v) and np.isreal(v) and v > 0):
        raise ValueError(f"{name} must be a positive scalar")
    return float(v)


def _sym_pd(name, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    if np.linalg.norm(M - M.T) > 1e-12 * (1.0 + np.linalg.norm(M)):
        raise ValueError(f"{name} must be symmetric")
    if eig_symmetric(M)[0] <= 0:
        raise ValueError(f"{name} must be positive definite")
    return M


def _term_den(zeta, omega):
    z = _check_pos("zeta", zeta)
    w = _check_pos("omega", omega)
    A = np.array([[0.0, 1.0], [-w * w, -2.0 * z * w]])
    return A, z, w


def _parallel_sum(parts) -> StateSpace:
    if not parts:
        raise ValueError("need at least one term")
    return functools.reduce(add, parts)


def _ppf_term(k, zeta, omega):
    k = _check_pos("k", k)
    A, _, _ = _term_den(zeta, omega)
    return StateSpace(A, [[0.0], [1.0]], [[k, 0.0]], [[0.0]])


def ppf(terms) -> StateSpace:
    """Positive position feedback: sum of k / (s^2 + 2 zeta omega s + omega^2)
    over terms (k, zeta, omega), all parameters positive. SNI."""
    return _parallel_sum([_ppf_term(k, zeta, omega) for k, zeta, omega in terms])


def ppf_mimo(K, D, Omega) -> StateSpace:
    """Multivariable positive position feedback K^T (s^2 I + D s + Omega)^{-1} K
    with D, Omega symmetric positive definite. SNI when K has full column rank."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    D = _sym_pd("D", D)
    Omega = _sym_pd("Omega", Omega)
    r = D.shape[0]
    if Omega.shape[0] != r or K.shape[0] != r:
        raise ValueError("K, D, Omega row dimensions must agree")
    Z, I = np.zeros((r, r)), np.eye(r)
    A = np.block([[Z, I], [-Omega, -D]])
    B = np.vstack([np.zeros_like(K), K])
    C = np.hstack([K.T, np.zeros((K.shape[1], r))])
    return StateSpace(A, B, C, np.zeros((K.shape[1], K.shape[1])))


def _gain_vector(g):
    # scalar gain k > 0, or a nonzero vector alpha for the rank-one MIMO form
    if np.ndim(g) == 0:
        return None, _check_pos("gain", g)
    v = np.asarray(g, dtype=float).ravel()
    if v.size == 0 or not np.any(v):
        raise ValueError("gain vector must be nonzero")
    return v, None


def _resonant_term(g, zeta, omega, accel):
    # the two resonant types differ only in the second entry of C: with
    # 2 zeta omega the s term of -g + C (sI - A)^{-1} B cancels, giving
    # -g s^2 / den; with 0 it stays, giving -g s (s + 2 zeta omega) / den
    v, k = _gain_vector(g)
    A, z, w = _term_den(zeta, omega)
    if v is None:
        return StateSpace(A, [[0.0], [1.0]],
                          [[k * w * w, 2.0 * k * z * w if accel else 0.0]], [[-k]])
    B = np.vstack([np.zeros((1, v.size)), v[None, :]])
    C = np.outer(v, [w * w, 2.0 * z * w if accel else 0.0])
    return StateSpace(A, B, C, -np.outer(v, v))


def resonant_acc(terms) -> StateSpace:
    """Resonant acceleration-type feedback, sum over (g, zeta, omega) of
    -g s^2 / (s^2 + 2 zeta omega s + omega^2) for scalar g = k > 0, or the
    rank-one form with g = alpha (vector) giving -s^2/den alpha alpha^T. NI
    with feedthrough -k (resp. -alpha alpha^T)."""
    return _parallel_sum([_resonant_term(g, zeta, omega, True) for g, zeta, omega in terms])


def resonant_vel_type(terms) -> StateSpace:
    """Resonant velocity-type feedback, sum over (g, zeta, omega) of
    -g s (s + 2 zeta omega) / (s^2 + 2 zeta omega s + omega^2), scalar or
    rank-one vector gain as in resonant_acc. NI."""
    return _parallel_sum([_resonant_term(g, zeta, omega, False) for g, zeta, omega in terms])


def irc(Gamma, Phi) -> StateSpace:
    """Integral resonant controller (-Gamma Phi, Gamma, I, 0) with Gamma and
    Phi symmetric positive definite. SNI, with DC gain Phi^{-1}."""
    G = _sym_pd("Gamma", Gamma)
    P = _sym_pd("Phi", Phi)
    if G.shape != P.shape:
        raise ValueError("Gamma and Phi dimensions must agree")
    m = G.shape[0]
    return StateSpace(-G @ P, G, np.eye(m), np.zeros((m, m)))


def choose_phi(plant: StateSpace, margin: float = 1.2) -> np.ndarray:
    """Pick Phi = margin * P(0) so the DC-gain stability product
    lambda_max(P(0) Phi^{-1}) = 1/margin < 1 for any positive Gamma."""
    if margin <= 1.0:
        raise ValueError("margin must exceed 1")
    P0 = dc_gain(plant)
    return _sym_pd("plant DC gain", P0) * float(margin)


@dataclass
class IrcDesign:
    """Gain sweep result: the locus of closed-loop poles over gamma, the
    damping and decay-rate profiles of the dominant pair, and the selected
    gain (decay-rate argmax, then locally refined)."""

    feasible: bool
    gamma_star: float
    zeta_at_star: float
    decay_at_star: float
    gammas: np.ndarray
    loci: np.ndarray          # (len(gammas), n+1), assignment-matched rows
    zetas: np.ndarray
    decays: np.ndarray
    stable: np.ndarray
    controller: StateSpace | None


def linear_sum_assignment(cost):
    """scipy.optimize.linear_sum_assignment, imported at the first call: the
    gain sweep is the only user of scipy in this module, and a process that
    never runs one does not pay for importing scipy."""
    from scipy.optimize import linear_sum_assignment as assign

    return assign(cost)


def _match(prev, p):
    cost = np.abs(prev[:, None] - p[None, :])
    r, c = linear_sum_assignment(cost)
    perm = np.empty(len(p), dtype=int)
    perm[r] = c
    return p[perm]


# An accepted root moved by at most this fraction of its modulus in the last
# Aberth step; the step is cubically convergent, so the error it leaves is
# far below that
_STEP_TOL = 1e-6
# a gain takes one or two steps from the predicted start, at most five on the
# plants of the tests; one that needs more is left to the eigensolve
_MAX_ITERS = 8
# the accepted roots sum to the closed-loop trace to within this fraction of
# sum |z_k|: a root lost or counted twice moves the sum by a root spacing
_TRACE_TOL = 1e-12


def _aberth(z, lam, r, g, gd, trace):
    """The n + 1 roots of p_g(s) = prod(s - lam_i) (s - g d - g sum_i r_i /
    (s - lam_i)), refined from the starting points z by Aberth's
    simultaneous iteration on that product/secular form, never on expanded
    coefficients; gd = g d. O(n^2) per step. The roots come back exactly
    real or in exactly conjugate pairs, as a real eigensolve gives them.
    Returns None unless they are finite, the last step moved each by at most
    _STEP_TOL of its modulus, and they sum to the closed-loop trace,
    trace(A) + g d."""
    gr = g * r
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_ITERS):
            Q = 1.0 / (z[:, None] - lam)
            f = (z - gd) - Q @ gr
            # Newton ratio p / p' = f / (f' + f sum_i 1 / (z - lam_i))
            N = f / (1.0 + (Q * Q) @ gr + f * Q.sum(1))
            # Aberth's step N / (1 - N sum_{j != k} 1 / (z_k - z_j)); the
            # infinite diagonal drops the j = k term
            Z = z[:, None] - z
            np.fill_diagonal(Z, np.inf)
            w = N / (1.0 - N * (1.0 / Z).sum(1))
            z = z - w
            step = np.abs(w / z).max()
            if not step > _STEP_TOL:
                break
        if not (step <= _STEP_TOL and np.isfinite(z).all()
                and abs(z.sum() - trace) <= _TRACE_TOL * np.abs(z).sum()):
            return None
    # average each root with the conjugate of the root whose conjugate lies
    # nearest: itself for a real root, its partner for a pair
    return 0.5 * (z + z[np.abs(z[:, None] - z.conj()).argmin(1)].conj())


def _without(z, fixed):
    """z less the entry nearest to each value of fixed, in order."""
    keep = np.ones(z.size, dtype=bool)
    for f in fixed:
        dist = np.where(keep, np.abs(z - f), np.inf)
        keep[dist.argmin()] = False
    return z[keep]


def design_irc_gamma(plant: StateSpace, Phi, gamma_min: float = 1e3,
                     gamma_max: float = 1e8,
                     points_per_decade: int = 200) -> IrcDesign:
    """Sweep the integral resonant gain gamma on a log grid, track each
    closed-loop pole across the sweep by nearest-neighbor assignment, and
    select the gamma that maximizes the decay rate of the dominant pair (the
    two slowest open-loop poles), refined on a local fine grid.

    Scalar-gain (single-input single-output plant) form: the closed loop is
    [[A, B], [gamma C, gamma D - gamma Phi]]. With A = V diag(lam) V^{-1}
    (`eigenbasis`), its poles are the roots of prod(s - lam_i) (s - gamma d
    - gamma sum_i r_i / (s - lam_i)), with residues r = (C V) * (V^{-1} B)
    and d = D - Phi. Each gain after the first starts Aberth's iteration
    (`_aberth`) from the linear extrapolation in log gamma of the last two
    matched rows, at O(n^2) per step against O(n^3) for an eigensolve. An
    eigenvalue whose residue is zero to rounding (a mode without output or
    input) is a closed-loop pole at every gain: it is deflated out of the
    iteration and appended to each row as it is. A dense eigensolve of the
    closed loop gives the poles instead at the first gain, at any gain
    whose roots fail `_aberth`'s acceptance (a double root at a breakaway
    point), and at every gain when A has no well-conditioned eigenbasis;
    that last sweep is bit for bit the eigensolve sweep. The accepted poles
    agree with an eigensolve's to rounding (at worst 6e-12 relative on the
    benchmark's paper plants), real poles are exactly real and pairs
    exactly conjugate. Where a pair splits on the real axis, which column
    takes which of the two real poles is a tie of the assignment, broken by
    rounding in either path.
    """
    if not plant.is_siso:
        raise ValueError("gain sweep is defined for single-input single-output plants")
    if plant.n == 0:
        raise ValueError("gain sweep needs a dynamic plant: a static plant has no poles to damp")
    phi = float(np.atleast_2d(np.asarray(Phi, dtype=float))[0, 0])
    if phi <= 0:
        raise ValueError("Phi must be positive")
    if not (0 < gamma_min < gamma_max):
        raise ValueError("need 0 < gamma_min < gamma_max")
    A, B, C, D = plant.A, plant.B, plant.C, plant.D
    n = plant.n
    d = D[0, 0] - phi

    def closed_A(g):
        Acl = np.zeros((n + 1, n + 1))
        Acl[:n, :n] = A
        Acl[:n, n:] = B
        Acl[n:, :n] = g * C
        Acl[n, n] = g * d
        return Acl

    ndec = np.log10(gamma_max / gamma_min)
    npts = max(2, int(np.ceil(ndec * points_per_decade)) + 1)
    gammas = np.geomspace(gamma_min, gamma_max, npts)

    eb = eigenbasis(A)
    if eb is None:
        ol = np.linalg.eigvals(A)
    else:
        ol, V, Vi, _ = eb
        CV, W = (C @ V)[0], (Vi @ B)[:, 0]
        # a mode with no output or no input, to rounding, has a zero residue:
        # its eigenvalue is a closed-loop pole at every gain, and a root
        # iterated onto it stalls, so it is deflated out of the iteration
        tol = n * np.finfo(float).eps
        zero = ((np.abs(CV) <= tol * np.linalg.norm(C) * np.linalg.norm(V, axis=0))
                | (np.abs(W) <= tol * np.linalg.norm(B) * np.linalg.norm(Vi, axis=1)))
        lam, r, fixed = ol[~zero], (CV * W)[~zero], ol[zero]
        trA = np.trace(A) - fixed.sum().real

    def track(gs, prev, hist):
        """Matched pole rows at the gains gs: prev is the row the first is
        matched to, hist the (log gamma, row) pairs (at most two) that
        precede gs."""
        for g in gs:
            p = None
            t = np.log(g)
            if eb is not None and hist:
                (t0, z0), (t1, z1) = hist[0], hist[-1]
                z = z1 if t1 == t0 else z1 + (z1 - z0) * ((t - t1) / (t1 - t0))
                if fixed.size:
                    z = _without(z, fixed)
                p = _aberth(z, lam, r, g, g * d, trA + g * d)
                if fixed.size and p is not None:
                    p = np.concatenate((p, fixed))
            if p is None:
                p = np.linalg.eigvals(closed_A(g))
            prev = _match(prev, p)
            hist = [hist[-1], (t, prev)] if hist else [(t, prev)]
            yield prev

    order = np.argsort(np.abs(ol))
    tracked = order[:2] if n >= 2 else order[:1]

    loci = np.zeros((npts, n + 1), dtype=complex)
    decays = np.full(npts, np.nan)
    zetas = np.full(npts, np.nan)
    stable = np.zeros(npts, dtype=bool)
    for k, pm in enumerate(track(gammas, np.append(ol, -gammas[0] * phi), [])):
        loci[k] = pm
        if np.any(pm.real >= 0):
            continue
        stable[k] = True
        pair = pm[tracked]
        decays[k] = (-pair.real).min()
        zetas[k] = (-pair.real / np.abs(pair)).min()

    if not stable.any():
        return IrcDesign(False, np.nan, np.nan, np.nan, gammas, loci,
                         zetas, decays, stable, None)

    bd = int(np.nanargmax(decays))
    lo = gammas[max(bd - 1, 0)]
    hi = gammas[min(bd + 1, npts - 1)]
    fine = np.geomspace(lo, hi, 400)
    # the fine grid starts at lo, whose coarse row and its predecessor
    # continue into it
    start = range(max(bd - 2, 0), max(bd - 1, 0) + 1)
    hist = [(np.log(gammas[i]), loci[i]) for i in start]
    g_star, d_star, z_star = gammas[bd], decays[bd], zetas[bd]
    for g, pm in zip(fine, track(fine, loci[max(bd - 1, 0)], hist)):
        if np.any(pm.real >= 0):
            continue
        pair = pm[tracked]
        dec = (-pair.real).min()
        if dec > d_star:
            g_star, d_star = float(g), float(dec)
            z_star = float((-pair.real / np.abs(pair)).min())

    return IrcDesign(True, float(g_star), float(z_star), float(d_star),
                     gammas, loci, zetas, decays, stable,
                     irc(np.array([[g_star]]), np.array([[phi]])))

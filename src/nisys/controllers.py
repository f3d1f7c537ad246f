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

from ._kernels import CHUNK
from .lti import StateSpace, add, dc_gain, eigensystem
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
    loci: np.ndarray          # (len(gammas), n+1), column j one branch of the locus
    zetas: np.ndarray
    decays: np.ndarray
    stable: np.ndarray
    controller: StateSpace | None


def linear_sum_assignment(cost):
    """scipy.optimize.linear_sum_assignment, imported at the first call: only
    a gain-sweep row that takes the eigensolve needs it, and a process that
    never has one does not pay for importing scipy."""
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
# a gain takes one or two steps from a start predicted one gain ahead; a row
# that needs more than this starts the next block, and if it needs more there
# too it is left to the eigensolve
_MAX_ITERS = 8
# the accepted roots sum to the closed-loop trace to within this fraction of
# sum |z_k|: a root lost or counted twice moves the sum by a root spacing
_TRACE_TOL = 1e-12


def _aberth(z, before, lam, r, g, gd, trace):
    """Aberth's simultaneous iteration for b consecutive gains at once. Row j
    of z, shape (b, k), starts the k roots of p_g(s) = prod(s - lam_i) (s -
    g d - g sum_i r_i / (s - lam_i)) at g = g[j]; g, gd = g d and trace =
    trace(A) + g d are (b,) arrays, and before (k,) holds the roots at the
    gain that precedes g[0]. The iteration runs on that product/secular
    form, never on expanded coefficients, at O(n^2) per row and step; a row
    stops once its step is small. The roots come back exactly real or in
    exactly conjugate pairs, as a real eigensolve gives them.

    Returns the roots and a (b,) mask of accepted rows: the roots are
    finite, the last step moved each by at most _STEP_TOL of its modulus,
    they sum to the closed-loop trace, and each lies nearer its own start,
    and nearer its own column of the row before (before, for row 0), than
    any other root does. Column j of an accepted row then continues branch j
    of the locus, as an assignment to the row before would have matched
    it."""
    b, k = z.shape
    start, z = z, z.copy()
    gr = g[:, None] * r
    step = np.full(b, np.nan)
    act = np.arange(b)
    diag = np.arange(k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_ITERS):
            za, gra = z[act], gr[act, :, None]
            # the (b, k, n) and (b, k, k) temporaries are reused in place
            Q = za[:, :, None] - lam
            np.reciprocal(Q, out=Q)
            f = (za - gd[act, None]) - (Q @ gra)[..., 0]
            Qsum = Q.sum(2)
            np.multiply(Q, Q, out=Q)
            # Newton ratio p / p' = f / (f' + f sum_i 1 / (z - lam_i))
            N = f / (1.0 + (Q @ gra)[..., 0] + f * Qsum)
            # Aberth's step N / (1 - N sum_{j != k} 1 / (z_k - z_j)); the
            # infinite diagonal drops the j = k term
            Z = za[:, :, None] - za[:, None, :]
            Z[:, diag, diag] = np.inf
            np.reciprocal(Z, out=Z)
            w = N / (1.0 - N * Z.sum(2))
            z[act] = za = za - w
            step[act] = s = np.abs(w / za).max(1)
            act = act[s > _STEP_TOL]
            if not act.size:
                break
        ok = ((step <= _STEP_TOL) & np.isfinite(z).all(1)
              & (np.abs(z.sum(1) - trace) <= _TRACE_TOL * np.abs(z).sum(1)))
    # average each root with the conjugate of the root whose conjugate lies
    # nearest: itself for a real root, its partner for a pair
    partner = np.abs(z[:, :, None] - z.conj()[:, None, :]).argmin(2)
    z = 0.5 * (z + np.take_along_axis(z, partner, 1).conj())
    for ref in (start, np.concatenate((before[None], z[:-1]))):
        ok &= (np.abs(ref[:, :, None] - z[:, None, :]).argmin(2) == diag).all(1)
    return z, ok


def design_irc_gamma(plant: StateSpace, Phi, gamma_min: float = 1e3,
                     gamma_max: float = 1e8,
                     points_per_decade: int = 200) -> IrcDesign:
    """Sweep the integral resonant gain gamma on a log grid, follow each
    closed-loop pole across the sweep in its own column, and select the
    gamma that maximizes the decay rate of the dominant pair (the two
    slowest open-loop poles), refined on a local fine grid.

    Scalar-gain (single-input single-output plant) form: the closed loop is
    [[A, B], [gamma C, gamma D - gamma Phi]]. With A = V diag(lam) V^{-1}
    (`eigensystem`), its poles are the roots of prod(s - lam_i) (s - gamma d
    - gamma sum_i r_i / (s - lam_i)), with residues r = (C V) * (V^{-1} B)
    and d = D - Phi. The first gain starts Aberth's iteration (`_aberth`)
    from the first-order roots lam_i + gamma r_i / (lam_i - gamma d) and
    gamma d + gamma sum_i r_i / (gamma d - lam_i). After that the sweep
    advances a block of consecutive gains per stacked iteration, each row
    started from the linear extrapolation in log gamma of the last two
    accepted rows, at O(n^2) per row and step against O(n^3) for an
    eigensolve. The iteration's temporaries together hold at most CHUNK
    complex entries, so a block shrinks to one gain from n = 90 up, where
    arithmetic, not call overhead, sets the cost. A row is accepted, in
    order, while its roots pass `_aberth`'s tests, which include that each
    root lies nearest its own start and its own column of the row before:
    an accepted row keeps its columns with no assignment. The first row that
    fails starts the next block; if it fails there too (a double root at a
    breakaway point), a dense eigensolve of the closed loop gives its poles,
    matched to the row before by assignment, the only use of scipy here.
    Every gain takes the eigensolve when A has no well-conditioned
    eigenbasis; that sweep is bit for bit the eigensolve sweep. An
    eigenvalue whose residue is zero to rounding (a mode without output or
    input) is a closed-loop pole at every gain: it is deflated out of the
    iteration and stands in its own column of each continued row. The
    accepted poles agree with an eigensolve's to rounding (at worst 6e-12
    relative on the benchmark's paper plants), real poles are exactly real
    and pairs exactly conjugate. Where a pair splits on the real axis or
    two real poles join into a pair, the roots fail the nearest-start test
    and the assignment decides the columns; which column takes which of two
    real poles is a tie there, broken by rounding in either path.
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

    ol, basis = eigensystem(plant)
    if basis is not None:
        V, Vi, _ = basis
        CV, W = (C @ V)[0], (Vi @ B)[:, 0]
        # a mode with no output or no input, to rounding, has a zero residue:
        # its eigenvalue is a closed-loop pole at every gain, and a root
        # iterated onto it stalls, so it is deflated out of the iteration and
        # kept in its own column
        tol = n * np.finfo(float).eps
        zero = ((np.abs(CV) <= tol * np.linalg.norm(C) * np.linalg.norm(V, axis=0))
                | (np.abs(W) <= tol * np.linalg.norm(B) * np.linalg.norm(Vi, axis=1)))
        lam, r, fixed = ol[~zero], (CV * W)[~zero], ol[zero]
        trA = np.trace(A) - fixed.sum().real
        live, dead = np.append(np.flatnonzero(~zero), n), np.flatnonzero(zero)
        # gains per stacked step: one step holds about four (b, k, k)
        # temporaries at once, which together stay within CHUNK complex
        # entries; a longer block predicts its last rows too far ahead
        block = max(1, CHUNK // (4 * live.size * live.size))

    def track(gs, prev, hist):
        """Pole rows at the gains gs, shape (len(gs), n + 1), column j one
        branch of the locus throughout: prev is the row before gs[0], hist
        the (log gamma, row) pairs (at most two) that precede gs. Rows the
        iteration continued keep their columns; an eigensolve row is matched
        to the row before it by assignment."""
        ts = np.log(gs)
        out = np.empty((gs.size, n + 1), dtype=complex)
        i = 0
        while i < gs.size:
            acc = 0
            if basis is not None:
                if len(hist) == 2:
                    # a block of gains, each started from the linear
                    # extrapolation in log gamma of the last two rows
                    (t0, z0), (t1, z1) = hist
                    z0, z1 = z0[live], z1[live]
                    b = min(block, gs.size - i)
                    Z = z1 + (z1 - z0) * ((ts[i:i + b] - t1) / (t1 - t0))[:, None]
                elif hist:
                    Z = hist[0][1][None, live]
                else:
                    # first-order roots: lam_i + g r_i / (lam_i - g d), and
                    # g d + g sum_i r_i / (g d - lam_i) for the controller pole
                    g, gd = gs[0], gs[0] * d
                    Z = np.append(lam + g * r / (lam - gd), gd + g * (r / (gd - lam)).sum())[None]
                g = gs[i:i + len(Z)]
                p, ok = _aberth(Z, prev[live], lam, r, g, g * d, trA + g * d)
                acc = ok.size if ok.all() else int(ok.argmin())
                out[i:i + acc, live] = p[:acc]
                out[i:i + acc, dead] = fixed
            if acc:
                i += acc
            else:
                # no eigenbasis, or the iteration failed at its first row
                out[i] = _match(prev, np.linalg.eigvals(closed_A(gs[i])))
                i += 1
            prev = out[i - 1]
            hist = (hist + [(ts[0], out[0])])[-2:] if i == 1 else [
                (ts[i - 2], out[i - 2]), (ts[i - 1], prev)]
        return out

    order = np.argsort(np.abs(ol))
    tracked = order[:2] if n >= 2 else order[:1]

    def decay_zeta(rows):
        """Decay rate and damping ratio of the tracked pair in each row, NaN
        where the row has a pole with nonnegative real part."""
        pair = rows[:, tracked]
        stable = (rows.real < 0).all(1)
        with np.errstate(divide="ignore", invalid="ignore"):
            zeta = (-pair.real / np.abs(pair)).min(1)
        return (np.where(stable, (-pair.real).min(1), np.nan),
                np.where(stable, zeta, np.nan))

    loci = track(gammas, np.append(ol, -gammas[0] * phi), [])
    decays, zetas = decay_zeta(loci)
    stable = ~np.isnan(decays)
    if not stable.any():
        return IrcDesign(False, np.nan, np.nan, np.nan, gammas, loci,
                         zetas, decays, stable, None)

    bd = int(np.nanargmax(decays))
    lo = max(bd - 1, 0)
    # the fine grid starts at gammas[lo], whose row is known: the rows lo - 1
    # and lo continue into the rest of it
    fine = np.geomspace(gammas[lo], gammas[min(bd + 1, npts - 1)], 400)[1:]
    hist = [(np.log(gammas[i]), loci[i]) for i in range(max(lo - 1, 0), lo + 1)]
    fdec, fzeta = decay_zeta(track(fine, loci[lo], hist))
    g_star, d_star, z_star = gammas[bd], decays[bd], zetas[bd]
    # the first fine gain whose decay rate beats the coarse best
    k = int(np.argmax(np.where(np.isnan(fdec), -np.inf, fdec)))
    if fdec[k] > d_star:
        g_star, d_star, z_star = float(fine[k]), float(fdec[k]), float(fzeta[k])

    return IrcDesign(True, float(g_star), float(z_star), float(d_star),
                     gammas, loci, zetas, decays, stable,
                     irc(np.array([[g_star]]), np.array([[phi]])))

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
from .analysis import _residues, check_ni
from .lti import StateSpace, add, dc_gain, eigensystem
from .numerics import eig_symmetric
from .stability import _dc_gain_hypotheses


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
    """Gain sweep result: the damping and decay-rate profiles of the
    dominant pair over the gain grid, the gains at which the loop is stable,
    and the selected gain (decay-rate argmax, then locally refined). `note`
    is None when the DC-gain theorem decided stability and only the dominant
    pair was continued; otherwise it names the all-root sweep that ran, and
    why."""

    feasible: bool
    gamma_star: float
    zeta_at_star: float
    decay_at_star: float
    gammas: np.ndarray
    zetas: np.ndarray
    decays: np.ndarray
    stable: np.ndarray
    controller: StateSpace | None
    note: str | None = None


def _match(prev, p):
    """p reordered so that p[j] continues the branch prev[j]: each prev[j]'s
    nearest root when those all differ, the unique pairing of least total
    distance (its cost, the sum of the row minima, bounds every pairing's);
    otherwise, at a breakaway tie, nearest pair first, each root used once."""
    cost = np.abs(prev[:, None] - p[None, :])
    near = cost.argmin(1)
    if np.bincount(near, minlength=p.size).max() == 1:
        return p[near]
    perm = np.empty(p.size, dtype=int)
    rows = cols = np.arange(p.size)
    while rows.size:
        sub = cost[np.ix_(rows, cols)]
        r = sub.argmin(1)
        mutual = sub.argmin(0)[r] == np.arange(rows.size)
        perm[rows[mutual]] = cols[r[mutual]]
        rows, cols = rows[~mutual], np.delete(cols, r[mutual])
    return p[perm]


# Newton's step stops once it moves each root by at most this fraction of
# its modulus: the error it leaves is about the square of that, below
# rounding
_NEWTON_TOL = 1e-9
# a gain takes one or two steps from a start predicted one gain ahead; a row
# that needs more than this starts the next block, and if it needs more there
# too it is left to the fallback
_MAX_ITERS = 8
# the accepted roots sum to the closed-loop trace to within this fraction of
# sum |z_k|: a root lost or counted twice moves the sum by a root spacing
_TRACE_TOL = 1e-12
# the linear predictor carries a branch over some 50 to 300 gains of a
# 200-per-decade grid before Newton needs more than _MAX_ITERS steps; rows of
# a longer block past that point are iterated and then dropped
_BLOCK = 128


def _newton(z, before, lam, r, g, gd, trace=None):
    """Newton's iteration on the secular equation f(s) = s - g d - g sum_i
    r_i / (s - lam_i) for b consecutive gains at once, at O(n) per root and
    step: row j of z, shape (b, k), starts k roots at the gain g[j], gd = g d
    (both (b,)), and before (k,) holds the roots at the gain before g[0]. A
    row stops once all its roots have converged.

    Returns the roots and a (b,) mask of accepted rows. In an accepted row
    the last step moved each root by at most _NEWTON_TOL of its modulus, and
    each is the only root of f within rho = 2 min(|z - start|, |z - its
    column of the row before|), so the root nearest one of the two. Rouche's
    theorem shows that, when the disk |s - z| <= rho holds no lam_i: on its
    boundary, f(s) differs from f(z) + f'(z) (s - z) by
    g (s - z)^2 sum_i r_i / ((s - lam_i) (z - lam_i)^2), at most
    g rho^2 sum_i |r_i| / ((|z - lam_i| - rho) |z - lam_i|^2), and that must
    be less than |f'(z)| rho - |f(z)|. Two starts may still reach one root,
    and two that crossed each other's. Given trace, the (b,) closed-loop
    traces, an accepted row also sums to it, so that it holds every root of
    f once, and each root is the nearest of them to its own column of the
    row before."""
    b, k = z.shape
    start = z.ravel()
    z = start.copy()
    if k > 1:
        g, gd = np.repeat(g, k), np.repeat(gd, k)
    step = np.full(z.size, np.nan)
    act = np.arange(z.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_ITERS):
            Q = 1.0 / (z[act, None] - lam)
            w = (z[act] - gd[act] - g[act] * (Q @ r)) / (1.0 + g[act] * ((Q * Q) @ r))
            z[act] -= w
            s = np.abs(w / z[act])
            if k > 1:
                # each root of a row steps on until the row's slowest has converged
                s = np.repeat(s.reshape(-1, k).max(1), k)
            step[act] = s
            act = act[s > _NEWTON_TOL]
            if not act.size:
                break
        Q = 1.0 / (z[:, None] - lam)
        f = z - gd - g * (Q @ r)
        fp = 1.0 + g * ((Q * Q) @ r)
        dist = np.abs(z[:, None] - lam)
        rho = 2.0 * np.minimum(np.abs(z - start), np.abs(z - np.append(before, z[:-k])))
        rest = g * rho * rho * (np.abs(r) / ((dist - rho[:, None]) * dist * dist)).sum(1)
        ok = ((step <= _NEWTON_TOL) & np.isfinite(z) & (dist > rho[:, None]).all(1)
              & (np.abs(f) + rest < np.abs(fp) * rho)).reshape(b, k).all(1)
        z = z.reshape(b, k)
        if trace is not None:
            ok &= np.abs(z.sum(1) - trace) <= _TRACE_TOL * np.abs(z).sum(1)
            last = np.concatenate((before[None], z[:-1]))
            ok &= (np.abs(last[:, :, None] - z[:, None, :]).argmin(2) == np.arange(k)).all(1)
    return z, ok


def _continue(gs, prev, hist, block, solve, fallback):
    """Rows at the gains gs, shape (len(gs),) + prev.shape, continued from
    prev, the row before gs[0], and hist, the (log gamma, row) pairs (at
    most two) that precede gs. With two, a block of up to `block` gains
    starts from the linear extrapolation in log gamma of the last two rows;
    with one, one gain from that row; with none, one gain from the start
    solve(None, ...) picks. solve(Z, prev, g) returns the rows at the gains
    g and a mask of accepted rows, and the leading accepted rows are kept.
    The first row that fails starts the next block; if it fails there too,
    fallback(g, prev) gives it. A gain equal to the one before it repeats
    that row, and is not iterated."""
    keep = np.append(True, gs[1:] != gs[:-1])
    gs = gs[keep]
    ts = np.log(gs)
    out = np.empty((gs.size,) + prev.shape, dtype=complex)
    i = 0
    while i < gs.size:
        if len(hist) == 2:
            (t0, z0), (t1, z1) = hist
            b = min(block, gs.size - i)
            Z = z1 + (z1 - z0) * ((ts[i:i + b] - t1) / (t1 - t0))[:, None]
        else:
            Z = hist[0][1][None] if hist else None
        rows, ok = solve(Z, prev, gs[i:i + (1 if Z is None else len(Z))])
        acc = ok.size if ok.all() else int(ok.argmin())
        if acc:
            out[i:i + acc] = rows[:acc]
            i += acc
        else:
            out[i] = fallback(gs[i], prev)
            i += 1
        prev = out[i - 1]
        hist = (hist + [(ts[0], out[0])])[-2:] if i == 1 else [
            (ts[i - 2], out[i - 2]), (ts[i - 1], prev)]
    return out[np.cumsum(keep) - 1]


def _moving(plant):
    """(r, live): r the grouped residues of a SISO plant (`_residues`), and
    live the poles k with |r[k]| > n eps bound[k], which leaves out each
    copy in a group (r and bound zero) and each residue zero to rounding.
    Every other eigenvalue is a closed-loop pole at every gain."""
    res = _residues(plant)
    r = res.R[:, 0, 0]
    return r, np.abs(r) > plant.n * np.finfo(float).eps * res.bound


def _locus_tracker(plant, phi):
    """rows(gs, prev, hist), the `_continue` of all n + 1 closed-loop poles
    of [plant, irc(gamma, phi)]: column j one branch of the locus
    throughout. `_newton` iterates every root, and the closed-loop trace
    keeps a row from counting one root twice. A root iterated onto an
    eigenvalue that does not move (`_moving`) stalls, so such eigenvalues
    are deflated out of `_newton` and kept in their own columns. A row that
    fails the continuation twice, and every row when A has no eigenbasis,
    is a dense eigensolve of the closed loop, matched to the row before by
    `_match`."""
    A, B, C, n = plant.A, plant.B, plant.C, plant.n
    d = plant.D[0, 0] - phi
    ol, basis = eigensystem(plant)

    def eigensolve(g, prev):
        return _match(prev, np.linalg.eigvals(np.block([[A, B], [g * C, np.array([[g * d]])]])))

    if basis is None:
        # no row is continued: every row is an eigensolve
        return lambda gs, prev, hist: _continue(
            gs, prev, hist, 1, lambda Z, p, g: (None, np.zeros(1, bool)), eigensolve)
    r, live = _moving(plant)
    lam, r, fixed = ol[live], r[live], ol[~live]
    trA = np.trace(A) - fixed.sum().real
    cols, dead = np.append(np.flatnonzero(live), n), np.flatnonzero(~live)
    # (b k, n) and (b, k, k) temporaries stay within CHUNK complex entries,
    # and a block within _BLOCK gains; lam is empty when no pole moves
    block = max(1, min(_BLOCK, CHUNK // (4 * cols.size * max(lam.size, 1))))

    def solve(Z, prev, g):
        if Z is None:
            # first-order roots: lam_i + g r_i / (lam_i - g d), and
            # g d + g sum_i r_i / (g d - lam_i) for the controller pole
            gd = g[0] * d
            Z = np.append(lam + g[0] * r / (lam - gd), gd + g[0] * (r / (gd - lam)).sum())[None]
        else:
            Z = Z[:, cols]
        p, ok = _newton(Z, prev[cols], lam, r, g, g * d, trA + g * d)
        # average each root with the conjugate of the root whose conjugate
        # lies nearest: itself for a real root, its partner for a pair, so
        # that the roots come back exactly real or exactly conjugate, as a
        # real eigensolve gives them
        partner = np.abs(p[:, :, None] - p.conj()[:, None, :]).argmin(2)
        p = 0.5 * (p + np.take_along_axis(p, partner, 1).conj())
        rows = np.empty((len(p), n + 1), dtype=complex)
        rows[:, cols], rows[:, dead] = p, fixed
        return rows, ok

    return lambda gs, prev, hist: _continue(gs, prev, hist, block, solve, eigensolve)


class _PairLost(Exception):
    """The dominant pair's continuation failed at the gain args[0]."""


def _pair_tracker(lam, r, lam0, r0, d):
    """rows(gs, prev, hist), the `_continue` of the upper root of the
    dominant pair alone, in rows of one column: the branch from the
    open-loop pole lam0, of residue r0. Its conjugate is the other root. A
    row that fails the continuation twice raises _PairLost."""
    # (b, n) temporaries stay within CHUNK complex entries, and a block
    # stays within _BLOCK gains
    block = max(1, min(_BLOCK, CHUNK // (4 * lam.size)))

    def solve(Z, before, g):
        if Z is None:
            # the first-order root lam0 + g r0 / (lam0 - g d)
            Z = (lam0 + g * r0 / (lam0 - g * d))[:, None]
            before = Z[0]
        return _newton(Z, before, lam, r, g, g * d)

    def lost(g, prev):
        raise _PairLost(g)

    return lambda gs, prev, hist: _continue(gs, prev, hist, block, solve, lost)


def _decay_zeta(rows, cols):
    """Decay rate and damping ratio of the poles in columns cols of each
    row, NaN where the row has a pole with nonnegative real part."""
    pair = rows[:, cols]
    stable = (rows.real < 0).all(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        zeta = (-pair.real / np.abs(pair)).min(1)
    return (np.where(stable, (-pair.real).min(1), np.nan),
            np.where(stable, zeta, np.nan))


def _select(gammas, phi, rows, prev, cols, note):
    """The design from rows(...) of `_locus_tracker` or `_pair_tracker`,
    started from prev on the grid gammas: the grid gain at which the poles
    in columns cols decay fastest, then the fastest of 399 gains between the
    grid gains beside it, continued from the grid rows."""
    coarse = rows(gammas, prev, [])
    decays, zetas = _decay_zeta(coarse, cols)
    stable = ~np.isnan(decays)
    if not stable.any():
        return IrcDesign(False, np.nan, np.nan, np.nan, gammas, zetas, decays, stable,
                         None, note)

    npts = gammas.size
    bd = int(np.nanargmax(decays))
    lo = max(bd - 1, 0)
    # the fine grid starts at gammas[lo], whose row is known: the rows lo - 1
    # and lo continue into the rest of it
    fine = np.geomspace(gammas[lo], gammas[min(bd + 1, npts - 1)], 400)[1:]
    hist = [(np.log(gammas[i]), coarse[i]) for i in range(max(lo - 1, 0), lo + 1)]
    fdec, fzeta = _decay_zeta(rows(fine, coarse[lo], hist), cols)
    g_star, d_star, z_star = gammas[bd], decays[bd], zetas[bd]
    # the first fine gain whose decay rate beats the coarse best
    k = int(np.argmax(np.where(np.isnan(fdec), -np.inf, fdec)))
    if fdec[k] > d_star:
        g_star, d_star, z_star = float(fine[k]), float(fdec[k]), float(fzeta[k])

    return IrcDesign(True, float(g_star), float(z_star), float(d_star),
                     gammas, zetas, decays, stable,
                     irc(np.array([[g_star]]), np.array([[phi]])), note)


def _irc_phi(plant, Phi):
    """The scalar Phi of an IRC gain sweep on plant, validated."""
    if not plant.is_siso:
        raise ValueError("gain sweep is defined for single-input single-output plants")
    if plant.n == 0:
        raise ValueError("gain sweep needs a dynamic plant: a static plant has no poles to damp")
    P = np.atleast_2d(np.asarray(Phi, dtype=float))
    if P.shape != (1, 1) or not (np.isfinite(P[0, 0]) and P[0, 0] > 0):
        raise ValueError("Phi must be a finite positive 1 x 1 gain")
    return float(P[0, 0])


def irc_root_locus(plant: StateSpace, Phi, gammas) -> np.ndarray:
    """Closed-loop poles of [plant, irc(gamma, Phi)] for a single-input
    single-output plant at each gain of the 1-D array gammas, shape
    (len(gammas), n + 1). Column j is one branch of the locus throughout,
    from the open-loop pole j (`eigensystem` order) and, in column n, from
    the controller pole -gamma Phi.

    With A = V diag(lam) V^{-1}, the grouped residues r of
    `analysis._residues` and d = D - Phi, the poles at gain g are the roots
    of prod(s - lam_i) times the secular function
    s - g d - g sum_i r_i / (s - lam_i) over the poles that move
    (`_moving`). Eigenvalues equal to rounding are one pole, at the first of
    them, with their summed residue; each other copy, and each pole whose
    summed residue is zero to rounding, is a closed-loop pole at every
    gain, in its own column. `_newton` finds the other roots, at O(n^2) per
    row and step against O(n^3) for an eigensolve: from the first-order
    roots at the first gain, then for a block of gains at once, each row
    started from the linear extrapolation in log gamma of the last two
    rows; a repeated gain repeats its row. Temporaries hold at most CHUNK
    complex entries. A row is accepted, in order, when its roots are
    certified, sum to the closed-loop trace, and are each the nearest to
    their own column of the row before: it keeps its columns with no
    matching. The first row that fails starts the next block; if it fails
    there too (a double root at a breakaway point), a dense eigensolve gives
    its poles, matched to the row before by `_match`. Every gain takes the
    eigensolve when A has no well-conditioned eigenbasis. The poles agree
    with an eigensolve's to rounding, real poles exactly real and pairs
    exactly conjugate. Where two real poles meet, which column takes which
    is a tie, broken by rounding, and nearest pair first where an
    eigensolve row takes it."""
    phi = _irc_phi(plant, Phi)
    gs = np.asarray(gammas, dtype=float)
    if gs.ndim != 1 or not gs.size or not np.all(np.isfinite(gs) & (gs > 0)):
        raise ValueError("gammas must be a nonempty 1-D array of finite positive gains")
    return _locus_tracker(plant, phi)(gs, np.append(eigensystem(plant)[0], -gs[0] * phi), [])


def design_irc_gamma(plant: StateSpace, Phi, gamma_min: float = 1e3,
                     gamma_max: float = 1e8,
                     points_per_decade: int = 200) -> IrcDesign:
    """Select the integral resonant gain gamma for a single-input
    single-output plant and a 1 x 1 Phi: the gamma of a log grid that
    maximizes the decay rate of the dominant pair, refined on 399 gains
    between the grid gains beside it. The pair is the two slowest open-loop
    poles, eigenvalues equal to rounding counting as one pole, at the first
    of them (`irc_root_locus`). The objective is that of Aphale, Fleming &
    Moheimani (Smart Mater. Struct. 2007).

    Stability is decided once, by the DC-gain theorem, when A has an
    eigenbasis: the plant is NI (`check_ni`, decided from the grouped
    residues that the sweep reads, with no zero solve, when each modal term
    of the plant is NI on its own, as for collocated modes),
    irc(gamma, Phi) is SNI by construction with zero feedthrough, and
    lambda = P(0) / Phi, the same for every gamma, lies outside
    MARGINAL_BAND of 1. Then the loop is stable at every gain when
    lambda < 1, and at none when lambda > 1: the design is infeasible and
    no sweep runs. Stable, the design follows only the upper root of the
    dominant pair, its conjugate being the other, by the iteration of
    `irc_root_locus` on that one root, at O(n) per gain and step. `note` is
    None on this path.

    Every other case takes the all-root sweep of `irc_root_locus`, which
    decides stability row by row, and `note` names the case: A without an
    eigenbasis, a plant that is not NI, a failed hypothesis, lambda in the
    marginal band, slowest poles that are not a conjugate pair with nonzero
    residue (two real poles, whose tie `irc_root_locus` breaks), and a pair
    row that fails twice. Both paths select the same gain on the same grid.
    """
    phi = _irc_phi(plant, Phi)
    if not (np.isfinite(gamma_min) and np.isfinite(gamma_max) and 0 < gamma_min < gamma_max):
        raise ValueError("need finite 0 < gamma_min < gamma_max")
    if not points_per_decade >= 1:
        raise ValueError("points_per_decade must be at least 1")
    ndec = np.log10(gamma_max / gamma_min)
    npts = max(2, int(np.ceil(ndec * points_per_decade)) + 1)
    gammas = np.geomspace(gamma_min, gamma_max, npts)

    ol, basis = eigensystem(plant)
    first = np.arange(plant.n) if basis is None else np.unique(_residues(plant).rep)
    tracked = first[np.argsort(np.abs(ol[first]))[:2]]
    note = None
    if basis is None:
        note = "no eigenbasis of A"
    elif not check_ni(plant).holds:
        note = "plant not NI"
    else:
        h, why = _dc_gain_hypotheses(plant, irc(gammas[:1, None], [[phi]]), True, True)
        if not h["hypotheses_hold"]:
            note = "DC-gain hypotheses not satisfied" + (f": {why}" if why else "")
        elif h["marginal"]:
            note = "lambda_max within the marginal band"
        elif h["lambda_max_dc"] > 1.0:
            nan = np.full(npts, np.nan)
            return IrcDesign(False, np.nan, np.nan, np.nan, gammas, nan, nan.copy(),
                             np.zeros(npts, dtype=bool), None)
        else:
            r, live = _moving(plant)
            lam0 = ol[tracked[0]]
            if not (tracked.size == 2 and lam0.imag != 0 and ol[tracked[1]] == lam0.conj()
                    and live[tracked].all()):
                note = "two slowest poles not a conjugate pair with a nonzero residue"
            else:
                t0 = tracked[0] if lam0.imag > 0 else tracked[1]
                rows = _pair_tracker(ol[live], r[live], ol[t0], r[t0], plant.D[0, 0] - phi)
                try:
                    return _select(gammas, phi, rows, ol[[t0]], [0], None)
                except _PairLost as e:
                    note = f"dominant pair lost at gamma = {e.args[0]:.6g}"
    return _select(gammas, phi, _locus_tracker(plant, phi),
                   np.append(ol, -gammas[0] * phi), tracked, note + ", all-root sweep")

"""Independent oracles for the nisys benchmark.

Nothing here imports nisys. Each function recomputes a quantity from the
parameters the benchmark generated, by a route that shares no code with the
program: modal sums instead of realizations, one eigendecomposition instead of
a linear solve per frequency point, and grids ten times denser than the
program's default plus a fine band around every lightly damped resonance.
"""

from __future__ import annotations

import numpy as np

GRID_PPD = 2000        # ten times the program's default of 200 points per decade
BAND_HALF_WIDTH = 20.0  # half-width of the band around a resonance, in units of kappa
BAND_POINTS = 401
SIGN_TOL = 1e-8        # relative sign tolerance, scaled by 1 + ||P(jw)||_F

# Class facts of the generated families (see README.md).
POSITION_CLASS = {"ni": True, "sni": True, "pr": False, "spr": False}
VELOCITY_CLASS = {"ni": False, "sni": False, "pr": True, "spr": False}


def modal_terms(modes):
    """Normalise (omega, kappa, r) triples. A vector r is a mode shape psi,
    giving the residue psi psi^T; a scalar or a matrix r is the residue
    itself, which may be negative or indefinite."""
    out = []
    for omega, kappa, r in modes:
        r = np.asarray(r, dtype=float)
        R = np.outer(r, r) if r.ndim == 1 else r
        out.append((float(omega), float(kappa), np.atleast_2d(R)))
    return out


def modal_response(modes, s, output="position"):
    """Sum of R num(s) / (s^2 + kappa s + omega^2) at the points s, with
    num(s) = 1 for position and s for velocity output. Shape (len(s), m, m)."""
    terms = modal_terms(modes)
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    m = terms[0][2].shape[0]
    P = np.zeros((s.size, m, m), dtype=complex)
    for omega, kappa, R in terms:
        num = s if output == "velocity" else np.ones_like(s)
        P += (num / (s * s + kappa * s + omega * omega))[:, None, None] * R
    return P


def modal_dc_gain(modes, output="position"):
    """P(0): the sum of R / omega^2 for position output, zero for velocity."""
    terms = modal_terms(modes)
    G = np.zeros_like(terms[0][2])
    if output == "position":
        for omega, _, R in terms:
            G = G + R / (omega * omega)
    return G


def modal_realization(modes, output="position"):
    """Block-diagonal companion realization, state (q, q') per mode. A mode
    shape psi gives input and output vectors psi; a scalar residue r gives
    input 1 and output r."""
    blocks = []
    for omega, kappa, r in modes:
        r = np.asarray(r, dtype=float)
        b, c = (r, r) if r.ndim == 1 else (np.ones(1), np.atleast_1d(r))
        blocks.append((float(omega), float(kappa), b, c))
    k, m = len(blocks), blocks[0][2].size
    A, B, C = np.zeros((2 * k, 2 * k)), np.zeros((2 * k, m)), np.zeros((m, 2 * k))
    col = 0 if output == "position" else 1
    for i, (omega, kappa, b, c) in enumerate(blocks):
        A[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[0.0, 1.0], [-omega * omega, -kappa]]
        B[2 * i + 1] = b
        C[:, 2 * i + col] = c
    return A, B, C


def ss_response(A, B, C, D, s):
    """C (sI - A)^{-1} B + D at the points s through one eigendecomposition
    of A (A must be diagonalizable). Shape (len(s), p, m)."""
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    lam, V = np.linalg.eig(np.asarray(A, dtype=float))
    W = np.linalg.solve(V, np.asarray(B, dtype=complex))
    CV = np.asarray(C, dtype=complex) @ V
    inv = 1.0 / (s[:, None] - lam[None, :])
    return np.einsum("ik,pk,kj->pij", CV, inv, W) + np.asarray(D, dtype=complex)


def frequency_grid(magnitudes, bands=()):
    """w = 0, a log grid three decades beyond the given frequency magnitudes
    on each side at GRID_PPD points per decade, and a linear band of
    BAND_POINTS points over omega +- BAND_HALF_WIDTH kappa for each
    (omega, kappa) in bands."""
    mags = np.abs(np.asarray(magnitudes, dtype=float))
    mags = mags[mags > 0]
    lo, hi = 1e-3 * mags.min(), 1e3 * mags.max()
    n = int(np.ceil(np.log10(hi / lo) * GRID_PPD)) + 1
    parts = [np.zeros(1), np.geomspace(lo, hi, n)]
    for omega, kappa in bands:
        half = BAND_HALF_WIDTH * kappa
        band = np.linspace(omega - half, omega + half, BAND_POINTS)
        parts.append(band[band > 0])
    return np.unique(np.concatenate(parts))


def modal_grid(modes):
    terms = modal_terms(modes)
    return frequency_grid([w for w, _, _ in terms], [(w, k) for w, k, _ in terms])


def _margin(P, ws, form):
    Ph = np.conj(np.swapaxes(P, 1, 2))
    H = 1j * (P - Ph) if form == "ni" else P + Ph
    lam = np.linalg.eigvalsh(H)[:, 0]
    rel = lam / (1.0 + np.linalg.norm(P, axis=(1, 2)))
    i = int(np.argmin(rel))
    return float(rel[i]), float(ws[i]), float(lam[i])


def ni_margin(P, ws, positive_only=False):
    """(relative margin, frequency, raw lambda_min) of H(w) = j (P - P^*) at
    its worst grid point; with positive_only, w = 0 is left out."""
    keep = ws > 0 if positive_only else np.ones(ws.size, dtype=bool)
    return _margin(P[keep], ws[keep], "ni")


def pr_margin(P, ws):
    """(relative margin, frequency, raw lambda_min) of P + P^* at its worst
    grid point."""
    return _margin(P, ws, "pr")


def max_real_part(A):
    A = np.asarray(A, dtype=float)
    return float(np.linalg.eigvals(A).real.max()) if A.size else -np.inf


def is_hurwitz(A):
    return max_real_part(A) < 0.0


def feedback_matrix(AM, BM, CM, AN, BN, CN):
    """State matrix of the positive-feedback loop of two strictly proper
    systems M = (AM, BM, CM) and N = (AN, BN, CN): u_M = y_N, u_N = y_M."""
    return np.block([[AM, BM @ CN], [BN @ CM, AN]])


def lambda_max(M0, N0):
    """Largest real part among the eigenvalues of M(0) N(0)."""
    return float(np.linalg.eigvals(np.asarray(M0) @ np.asarray(N0)).real.max())


def irc_decay_ok(decay_at_star, decays):
    """The refined gain can only improve on the coarse grid's best decay."""
    decays = np.asarray(decays, dtype=float)
    return bool(np.all(np.isnan(decays))) or decay_at_star >= np.nanmax(decays)


def velocity_shift_value(modes, eps=1e-6):
    """P(-eps) of a velocity-output modal plant: negative definite for small
    eps, which is why such a plant is not strictly positive real."""
    return modal_response(modes, np.array([-eps]), "velocity")[0].real

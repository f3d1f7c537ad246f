"""Seeded inputs, timed operations and output checks of the three workloads.

`prepare(workload, seed, nisys, workdir)` builds one round: a fixed list of
operations, each a call into nisys plus a check of its output. The check
returns the names of the properties the output got wrong, judged against
oracles.py (computations made apart from the program) or against a class
fact of the generated family, never against a stored copy of an output.

Three operations use fixed inputs that reproduce known faults of the
program; they fail in every round and are counted as failed, not as wrong.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracles

WORKLOADS = ("analyze", "loop-verdict", "design")
SS_CORPUS_SEED = 20260818   # random state-space plants are a fixed corpus
REDRAW_BAND = 1e-6          # redraw a state-space plant this close to a verdict boundary
TOL = oracles.SIGN_TOL

FAULT_SPR = "velocity-output modal plant at paper frequencies reported SPR"
FAULT_NARROW = "narrow-band plant passes the NI hypothesis of the DC-gain test"
FAULT_SYNTH = "synthesis infeasible although K = 0 is a witness"


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]        # failed property -> message
    fault: str | None = None            # known fault reproduced by these fixed inputs
    symptoms: frozenset = field(default_factory=frozenset)


def _rng(seed, slot):
    return np.random.default_rng([int(seed) % 2**63, slot])


def _lazy(fn):
    """Compute an oracle the first time a check needs it, then reuse it."""
    memo = []

    def get():
        if not memo:
            memo.append(fn())
        return memo[0]
    return get


def _expect(fails, name, got, want):
    if bool(got) != bool(want):
        fails[name] = f"got {got}, expected {want}"


def _close(fails, name, got, want, rtol):
    if not abs(got - want) <= rtol * (1.0 + abs(want)):
        fails[name] = f"got {got!r}, expected {want!r}"


# ---------------------------------------------------------------- families

def paper_modes(rng, count, channels=1):
    """Position modes at the paper frequencies 100 k rad/s with seeded
    damping and mode shapes."""
    modes = []
    for k in range(1, count + 1):
        psi = (rng.uniform(0.8, 1.2, 1) if channels == 1
               else rng.standard_normal(channels))
        modes.append((100.0 * k, float(rng.uniform(1.5, 2.5)), tuple(psi)))
    return modes


def random_modes(rng, count):
    """SISO position modes at random frequencies, one log-uniform in each of
    `count` equal log-bands of [10, 1000] rad/s, with damping ratios in
    [0.01, 0.05]. One mode per band keeps modes from clustering, where
    check_ni_lmi misses certificates (CHANGES.md, FOUND)."""
    edges = np.linspace(np.log(10.0), np.log(1000.0), count + 1)
    modes = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        w = float(np.exp(rng.uniform(lo, hi)))
        psi = rng.uniform(0.5, 1.5, 1)
        modes.append((w, float(2.0 * rng.uniform(0.01, 0.05) * w), tuple(psi)))
    return modes


def fixed_paper_modes(count):
    return [(100.0 * k, 2.0, (1.0,)) for k in range(1, count + 1)]


def ss_corpus_plant(n):
    """Stable random (A, B, C) with poles at real part <= -1, drawn from a
    fixed seed; draws within REDRAW_BAND of a verdict boundary are redrawn.
    Returns (A, B, C, ni, pr, redrawn)."""
    for draw in range(100):
        rng = np.random.default_rng([SS_CORPUS_SEED, n, draw])
        G = rng.standard_normal((n, n))
        A = G - (np.abs(np.linalg.eigvals(G).real).max() + 1.0) * np.eye(n)
        B, C = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
        ws = oracles.frequency_grid(np.abs(np.linalg.eigvals(A)))
        P = oracles.ss_response(A, B, C, np.zeros((1, 1)), 1j * ws)
        ni = oracles.ni_margin(P, ws, positive_only=True)[0]
        pr = oracles.pr_margin(P, ws)[0]
        if min(abs(ni), abs(pr)) > REDRAW_BAND:
            return A, B, C, ni >= -TOL, pr >= -TOL, draw
    raise RuntimeError(f"no unambiguous state-space draw of order {n}")


def harmonic_port_modes(rng, count):
    """1 to 3 position modes near harmonics of w1 in [1, 3] rad/s, damping
    ratios in [0.05, 0.3], scaled to a DC gain in [0.3, 0.8]."""
    w1 = rng.uniform(1.0, 3.0)
    raw = []
    for k in range(1, count + 1):
        w = w1 * k * rng.uniform(0.95, 1.05)
        raw.append((float(w), float(2.0 * rng.uniform(0.05, 0.3) * w),
                    float(rng.uniform(0.5, 1.5))))
    return _scale_dc(raw, rng.uniform(0.3, 0.8))


def _scale_dc(raw, target):
    g0 = sum(p * p / (w * w) for w, _, p in raw)
    c = np.sqrt(target / g0)
    return [(w, k, (p * c,)) for w, k, p in raw]


NARROW_BAND = [(1.0, 0.5, 1.0), (10.0577, 1e-4, -1e-3)]
FAULT3_MODES = _scale_dc([(9.0749, 1.5962, 1.0), (3.0269, 0.7403, 1.0),
                          (8.862, 0.2095, 1.0)], 0.5)
FAULT3_B2 = np.array([[1.3402], [-0.4922], [-0.6205], [0.4898], [0.3569], [0.1054]])
PAPER_SYNTH = dict(A=np.array([[-1.0, 0.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, -1.0]]),
                   B1=np.array([[0.0], [0.0], [1.0]]),
                   B2=np.array([[-2.0], [1.0], [0.0]]),
                   C1=np.array([[0.0, 1.0, 0.0]]))


# ------------------------------------------------------------------ analyze

def _write(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)


def _modal_file(modes, output):
    return {"kind": "modal", "output": output,
            "modes": [{"omega": w, "kappa": k, "psi": list(p)} for w, k, p in modes]}


def _analyze_op(nisys, workdir, name, spec, expected, extra_check=None,
                fault=None, symptoms=()):
    src = os.path.join(workdir, name + ".json")
    out = os.path.join(workdir, name + ".out.json")
    _write(src, spec)

    def run():
        return nisys.cli.main(["analyze", src, "--out", out])

    def check(rc):
        if rc not in (0, 2):
            return {"exit_code": f"got {rc}, an error"}
        fails = {}
        with open(out) as f:
            rep = json.load(f)
        for key in ("ni", "sni", "pr", "spr"):
            if key in expected:
                _expect(fails, key, rep[key], expected[key])
        if "ni" in expected and rc != (0 if expected["ni"] else 2):
            fails["exit_code"] = f"got {rc}"
        if extra_check:
            extra_check(rep, fails)
        return fails
    return Op(name, run, check, fault, frozenset(symptoms))


def _modal_analyze_op(nisys, workdir, name, modes, output):
    cls = oracles.POSITION_CLASS if output == "position" else oracles.VELOCITY_CLASS
    channels = len(modes[0][2])

    def facts():
        # the class fact must hold on this very instance, by the dense grid
        ws = oracles.modal_grid(modes)
        P = oracles.modal_response(modes, 1j * ws, output)
        ni = oracles.ni_margin(P, ws)[0] >= -TOL
        sni = oracles.ni_margin(P, ws, positive_only=True)[2] > 0
        pr = oracles.pr_margin(P, ws)[0] >= -TOL
        spr = False   # a position plant is not PR; see velocity_shift_value
        if output == "velocity" and pr:
            spr = bool(np.all(np.linalg.eigvalsh(oracles.velocity_shift_value(modes)) >= 0))
        return {"ni": ni, "sni": sni, "pr": pr, "spr": spr}
    facts = _lazy(facts)

    def extra(rep, fails):
        got = facts()
        for key, want in cls.items():
            if got[key] != want:
                fails["oracle_" + key] = f"dense grid says {got[key]}, class fact {want}"
        _expect(fails, "ni_sweep", rep["ni_sweep"]["holds"], cls["ni"])
        _expect(fails, "pr_sweep", rep["pr_sweep"]["holds"], cls["pr"])
        if (rep["system"]["states"], rep["system"]["inputs"]) != (2 * len(modes), channels):
            fails["system"] = f"got {rep['system']}"

    fault = FAULT_SPR if output == "velocity" else None
    return _analyze_op(nisys, workdir, name, _modal_file(modes, output), cls, extra,
                       fault, ("spr",) if fault else ())


# (family, states, copies). The small plants come first and outnumber the
# rest, so the median operation is a small plant whose cost does not depend
# on the seed (README.md, "Choices and why").
ANALYZE_SEEDED = (("paper-siso", 2, 3), ("paper-siso", 4, 3), ("paper-siso", 6, 2),
                  ("paper-siso", 8, 1), ("paper-siso", 10, 2), ("paper-siso", 12, 1),
                  ("paper-siso", 14, 1), ("random-siso", 4, 1), ("paper-siso", 16, 1),
                  ("random-siso", 12, 1))


def prepare_analyze(seed, nisys, workdir):
    # SISO only: MIMO plants hit a seed-dependent SNI fault (CHANGES.md, FOUND)
    ops = []
    slot = 0
    for family, states, copies in ANALYZE_SEEDED:
        draw = paper_modes if family == "paper-siso" else random_modes
        for copy in range(copies):
            modes = draw(_rng(seed, slot), states // 2)
            slot += 1
            ops.append(_modal_analyze_op(nisys, workdir, f"pos-{family}-n{states}-{copy}",
                                         modes, "position"))
    for count in (1, 2, 3):
        ops.append(_modal_analyze_op(nisys, workdir, f"vel-paper-n{2 * count}",
                                     fixed_paper_modes(count), "velocity"))
    redrawn = 0
    for n in (4, 8):
        A, B, C, ni, pr, r = ss_corpus_plant(n)
        redrawn += r
        spec = {"kind": "ss", "A": A.tolist(), "B": B.tolist(), "C": C.tolist(),
                "D": [[0.0]]}
        # SNI and SPR of these plants have no independent truth here: unchecked
        ops.append(_analyze_op(nisys, workdir, f"ss-corpus-n{n}", spec,
                               {"ni": ni, "pr": pr}))
    return ops, {"redrawn": redrawn}


# ------------------------------------------------------------- loop-verdict

def _controller(nisys, rng, kind, M0, lam):
    """Controller of the given family whose DC gain puts lambda_max(M(0) N(0))
    at lam. Returns (StateSpace, oracle realization (A, B, C), N(0))."""
    m = M0.shape[0]
    if kind == "irc":
        Gamma = 10.0 ** rng.uniform(2.0, 4.0) * np.eye(m)
        Phi = M0 / lam
        return (nisys.irc(Gamma, Phi), (-Gamma @ Phi, Gamma, np.eye(m)),
                np.linalg.inv(Phi))
    wc, zeta = rng.uniform(50.0, 150.0), rng.uniform(0.3, 0.7)
    if kind == "ppf":
        k = lam * wc * wc / M0[0, 0]
        A = np.array([[0.0, 1.0], [-wc * wc, -2.0 * zeta * wc]])
        real = (A, np.array([[0.0], [1.0]]), np.array([[k, 0.0]]))
        return nisys.ppf([(k, zeta, wc)]), real, np.array([[k / (wc * wc)]])
    K = rng.standard_normal((m, m))
    K *= np.sqrt(lam / oracles.lambda_max(M0, K.T @ K / (wc * wc)))
    D, Om = 2.0 * zeta * wc * np.eye(m), wc * wc * np.eye(m)
    Z, I = np.zeros((m, m)), np.eye(m)
    real = (np.block([[Z, I], [-Om, -D]]), np.vstack([Z, K]), np.hstack([K.T, Z]))
    return nisys.ppf_mimo(K, D, Om), real, K.T @ K / (wc * wc)


def _loop_op(nisys, name, modes, M, N, n_real, N0, lam=None, fault=None, symptoms=()):
    def run():
        return nisys.stability.dc_gain_verdict(M, N)

    def truth():
        ws = oracles.modal_grid(modes)
        m_ni = oracles.ni_margin(oracles.modal_response(modes, 1j * ws), ws,
                                 positive_only=True)[0] >= -TOL
        M0 = oracles.modal_dc_gain(modes)
        Acl = oracles.feedback_matrix(*oracles.modal_realization(modes), *n_real)
        return m_ni, oracles.lambda_max(M0, N0), oracles.is_hurwitz(Acl)
    truth = _lazy(truth)

    def check(rep):
        fails = {}
        m_ni, lam_true, stable = truth()
        if m_ni and stable != (lam_true < 1.0):
            fails["oracle_theorem"] = f"lambda {lam_true} but Hurwitz {stable}"
        if lam is not None:
            _close(fails, "oracle_lambda", lam_true, lam, 1e-9)
        _close(fails, "lambda_max_dc", rep.lambda_max_dc, lam_true, 1e-8)
        _expect(fails, "m_is_ni", rep.m_is_ni, m_ni)
        _expect(fails, "n_is_sni", rep.n_is_sni, True)
        _expect(fails, "hypotheses_hold", rep.hypotheses_hold, m_ni)
        _expect(fails, "stable", rep.stable, stable)
        _expect(fails, "internally_stable", rep.internally_stable, stable)
        return fails
    return Op(name, run, check, fault, frozenset(symptoms))


# (channels, modes, controller family, target lambda_max(M(0) N(0)))
LOOP_SLOTS = ((1, 10, "irc", 1 / 1.25), (1, 20, "ppf", 1 / 2), (1, 30, "irc", 1.25),
              (1, 50, "ppf", 1.25), (1, 100, "irc", 1 / 2), (2, 10, "irc", 1 / 2),
              (3, 20, "ppf_mimo", 1.25), (2, 30, "ppf_mimo", 1 / 1.25))


def prepare_loop(seed, nisys):
    ops = []
    for slot, (ch, count, kind, lam) in enumerate(LOOP_SLOTS):
        rng = _rng(seed, 100 + slot)
        modes = paper_modes(rng, count, channels=ch)
        N, n_real, N0 = _controller(nisys, rng, kind, oracles.modal_dc_gain(modes), lam)
        M = nisys.modal_to_ss(nisys.ModalModel(tuple(modes)))
        layout = "siso" if ch == 1 else f"mimo{ch}"
        ops.append(_loop_op(nisys, f"{layout}-n{2 * count}-{kind}-lam{lam:g}",
                            modes, M, N, n_real, N0, lam))
    A, B, C = oracles.modal_realization(NARROW_BAND)
    M = nisys.StateSpace(A, B, C, np.zeros((1, 1)))
    lag = (np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.5]]))
    N = nisys.StateSpace(*lag, np.zeros((1, 1)))
    ops.append(_loop_op(nisys, "narrow-band-lag", NARROW_BAND, M, N, lag,
                        np.array([[0.5]]), fault=FAULT_NARROW,
                        symptoms=("m_is_ni", "hypotheses_hold")))
    return ops, {}


# ------------------------------------------------------------------- design

def _irc_design_op(nisys, name, modes):
    plant = nisys.modal_to_ss(nisys.ModalModel(tuple(modes)))
    phi = 1.2 * oracles.modal_dc_gain(modes)[0, 0]
    Phi = np.array([[phi]])
    AM, BM, CM = oracles.modal_realization(modes)

    def run():
        return nisys.controllers.design_irc_gamma(plant, Phi)

    def check(des):
        fails = {}
        _expect(fails, "feasible", des.feasible, True)
        if not des.feasible:
            return fails
        if not oracles.irc_decay_ok(des.decay_at_star, des.decays):
            fails["decay_at_star"] = f"{des.decay_at_star} below the coarse-grid best"
        g = des.gamma_star
        if not 1e3 <= g <= 1e8:
            fails["gamma_star"] = f"{g} outside the swept range"
        c = des.controller
        if c is None or not (np.allclose(c.A, -g * Phi, rtol=1e-12)
                             and np.allclose(c.B, g, rtol=1e-12)
                             and np.allclose(c.C, 1.0)):
            fails["controller"] = "not irc(gamma_star, Phi)"
        Acl = np.block([[AM, BM], [g * CM, -g * Phi]])
        p = np.linalg.eigvals(Acl)
        if not np.all(p.real < 0):
            fails["closed_loop_hurwitz"] = f"max real part {p.real.max()}"
        if np.min(np.abs(-p.real - des.decay_at_star)) > 1e-6 * (1.0 + des.decay_at_star):
            fails["decay_is_a_pole"] = f"no closed-loop pole decays at {des.decay_at_star}"
        return fails
    return Op(name, run, check)


def _k_checks(fails, prefix, A, B1, B2, C1, K):
    """The benchmark's own checks of a state-feedback gain K."""
    Acl = A + B2 @ K
    if not oracles.is_hurwitz(Acl):
        fails[prefix + "hurwitz"] = f"max real part {oracles.max_real_part(Acl)}"
        return
    ws = oracles.frequency_grid(np.abs(np.linalg.eigvals(Acl)))
    P = oracles.ss_response(Acl, B1, C1, np.zeros((C1.shape[0], B1.shape[1])), 1j * ws)
    rel = oracles.ni_margin(P, ws, positive_only=True)[0]
    if rel < -TOL:
        fails[prefix + "ni"] = f"lambda_min(H) / (1 + |P|) = {rel}"
    G0 = -C1 @ np.linalg.solve(Acl, B1)
    scale = 1.0 + np.linalg.norm(G0)
    if (np.linalg.norm(G0 - G0.T) > 1e-8 * scale
            or np.linalg.eigvalsh(0.5 * (G0 + G0.T))[0] < -1e-8 * scale):
        fails[prefix + "dc_psd"] = f"DC gain {G0.tolist()}"
    if np.linalg.norm(G0, 2) >= 1.0:
        fails[prefix + "dc_contraction"] = f"sigma_max = {np.linalg.norm(G0, 2)}"


def _certificate_checks(fails, A, B1, B2, C1, res):
    Y, Mv = res.Y, res.M
    scale = 1.0 + np.linalg.norm(Y) + np.linalg.norm(Mv)
    if np.linalg.eigvalsh(0.5 * (Y + Y.T))[0] <= 0:
        fails["certificate_Y"] = "Y is not positive definite"
    q = C1.shape[0]
    if np.linalg.eigvalsh(C1 @ Y @ C1.T - np.eye(q))[-1] >= 0:
        fails["certificate_dc"] = "C1 Y C1^T - I is not negative definite"
    if np.linalg.norm(B1 + A @ Y @ C1.T + B2 @ Mv @ C1.T) > 1e-6 * scale:
        fails["certificate_eq"] = "B1 + A Y C1^T + B2 M C1^T != 0"
    S = A @ Y + Y @ A.T + B2 @ Mv + Mv.T @ B2.T
    if np.linalg.eigvalsh(0.5 * (S + S.T))[-1] > 1e-7 * (1.0 + np.linalg.norm(S)):
        fails["certificate_lyap"] = "sym(A Y + B2 M) is not negative semidefinite"
    if not np.allclose(res.K @ Y, Mv, rtol=1e-6, atol=1e-9 * scale):
        fails["certificate_K"] = "K != M Y^{-1}"


def _synth_op(nisys, name, A, B1, B2, C1, witness=True, fault=None, symptoms=()):
    plant = nisys.UncertainPlant(A, B1, B2, C1)

    def run():
        res = nisys.synthesis.synthesize_state_feedback(plant)
        rep = nisys.synthesis.verify_closed_loop(plant, res.K, Y=res.Y) if res.feasible else None
        return res, rep

    def witness_fails():
        fails = {}
        if witness:
            _k_checks(fails, "oracle_witness_", A, B1, B2, C1, np.zeros((B2.shape[1], A.shape[0])))
        return fails
    witness_fails = _lazy(witness_fails)

    def check(out):
        res, rep = out
        fails = dict(witness_fails())
        _expect(fails, "feasible", res.feasible, True)
        if not res.feasible:
            return fails
        _certificate_checks(fails, A, B1, B2, C1, res)
        _expect(fails, "verify_ok", rep.ok, True)
        _k_checks(fails, "closed_loop_", A, B1, B2, C1, res.K)
        return fails
    return Op(name, run, check, fault, frozenset(symptoms))


def prepare_design(seed, nisys):
    ops = []
    # three n = 20 designs (deterministic cost) hold the median operation
    for slot, count in enumerate((5, 10, 10, 10, 20, 30)):
        modes = paper_modes(_rng(seed, 200 + slot), count)
        ops.append(_irc_design_op(nisys, f"irc-n{2 * count}-{slot}", modes))
    p = PAPER_SYNTH
    ops.append(_synth_op(nisys, "synth-paper-n3", p["A"], p["B1"], p["B2"], p["C1"],
                         witness=False))
    for slot, count in enumerate((1, 2, 3)):
        rng = _rng(seed, 210 + slot)
        A, B1, C1 = oracles.modal_realization(harmonic_port_modes(rng, count))
        B2 = rng.standard_normal((2 * count, 1))
        ops.append(_synth_op(nisys, f"synth-port-n{2 * count}", A, B1, B2, C1))
    A, B1, C1 = oracles.modal_realization(FAULT3_MODES)
    ops.append(_synth_op(nisys, "synth-fault-n6", A, B1, FAULT3_B2, C1,
                         fault=FAULT_SYNTH, symptoms=("feasible",)))
    return ops, {}


def prepare(workload, seed, nisys, workdir):
    """Build one round of the workload. Returns (ops, info)."""
    if workload == "analyze":
        return prepare_analyze(seed, nisys, workdir)
    if workload == "loop-verdict":
        return prepare_loop(seed, nisys)
    if workload == "design":
        return prepare_design(seed, nisys)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

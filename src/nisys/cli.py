"""Command line front end.

Subcommands: analyze, nyquist, bode, stability, design-irc, synth-sf.
Exit codes: 0 the command ran and the property of interest holds (or the
command is purely informational), 2 the command ran but the property is
false (not NI / unstable / infeasible / no stabilizing gain), 1 usage or
input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from ._kernels import eval_grid
from .analysis import _filtered_grid, _pole_facts, classify, default_grid
from .controllers import choose_phi, design_irc_gamma, irc_root_locus
from .lti import LtiError, StateSpace, eigensystem
from .numerics import NumericsError
from .stability import dc_gain_verdict
from .synthesis import synthesize_state_feedback, verify_closed_loop
from .sysfile import SystemFileError, load_lti, load_uncertain

OK, PROPERTY_FALSE, ERROR = 0, 2, 1


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _grid_args(p):
    p.add_argument("--grid-min", type=float, default=None,
                   help="lowest frequency, rad/s (default: from pole magnitudes)")
    p.add_argument("--grid-max", type=float, default=None,
                   help="highest frequency, rad/s")
    p.add_argument("--ppd", type=int, default=200,
                   help="grid points per decade (default 200)")


def _build_grid(sys_, args, include_zero=True):
    return default_grid(sys_, points_per_decade=args.ppd, wmin=args.grid_min,
                        wmax=args.grid_max, include_zero=include_zero)


def _ss_json(sys_: StateSpace) -> dict:
    return {"A": sys_.A.tolist(), "B": sys_.B.tolist(),
            "C": sys_.C.tolist(), "D": sys_.D.tolist()}


def cmd_analyze(args) -> int:
    sys_ = load_lti(args.system)
    grid = _build_grid(sys_, args)
    c = classify(sys_, grid=grid, tol=args.tol)
    rep = c.to_dict()
    rep["system"] = {"states": sys_.n, "inputs": sys_.inputs, "outputs": sys_.outputs}
    _emit(_json_dump(rep), args.out)
    return OK if c.ni else PROPERTY_FALSE


def _response_rows(sys_: StateSpace, grid):
    """Evaluate on the grid; points that sit on a pole give blank rows."""
    ge, ok = _filtered_grid(grid, _pole_facts(sys_)[0])
    vals = np.full((grid.size, sys_.outputs, sys_.inputs), np.nan + 0j)
    vals[ok] = eval_grid(sys_.A, sys_.B, sys_.C, sys_.D, ge, eigensystem(sys_))
    if not ok.all():
        skipped = ", ".join(f"{w:g}" for w in grid[~ok][:5])
        print(f"warning: {np.count_nonzero(~ok)} grid point(s) lie on a pole "
              f"and are left blank (first few: {skipped})", file=sys.stderr)
    return vals, ok


def _response_csv(sys_, grid, vals, ok, parts) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    head = ["omega"]
    for name, _ in parts:
        if sys_.is_siso:
            head.append(name)
        else:
            head += [f"{name}_{i + 1}{j + 1}" for i in range(sys_.outputs)
                     for j in range(sys_.inputs)]
    w.writerow(head)
    for k, om in enumerate(grid):
        row = [_fmt(om)]
        if ok[k]:
            for _, fn in parts:
                row += [_fmt(x) for x in fn(vals[k]).ravel()]
        else:
            row += [""] * (len(head) - 1)
        w.writerow(row)
    return buf.getvalue()


def _response_json(sys_, grid, vals, ok, parts) -> str:
    rows = []
    for k, om in enumerate(grid):
        entry = {"omega": float(om)}
        if ok[k]:
            for name, fn in parts:
                entry[name] = fn(vals[k]).tolist()
        else:
            for name, _ in parts:
                entry[name] = None
        rows.append(entry)
    return _json_dump({"system": {"inputs": sys_.inputs, "outputs": sys_.outputs},
                       "points": rows})


# each frequency-response command: its help, the parts of P(jw) it writes,
# and whether its grid starts at w = 0
_RESPONSES = {
    "nyquist": ("frequency response, real/imag parts", (("re", np.real), ("im", np.imag)), True),
    "bode": ("frequency response, magnitude/phase", (("mag", np.abs), ("phase", np.angle)), False),
}


def cmd_response(args) -> int:
    _, parts, include_zero = _RESPONSES[args.command]
    sys_ = load_lti(args.system)
    grid = _build_grid(sys_, args, include_zero=include_zero)
    vals, ok = _response_rows(sys_, grid)
    text = (_response_csv(sys_, grid, vals, ok, parts) if args.format == "csv"
            else _response_json(sys_, grid, vals, ok, parts))
    _emit(text, args.out)
    return OK


def cmd_stability(args) -> int:
    M = load_lti(args.m_system)
    N = load_lti(args.n_system)
    rep = dc_gain_verdict(M, N)
    _emit(_json_dump(rep.to_json()), args.out)
    return OK if rep.stable else PROPERTY_FALSE


def cmd_design_irc(args) -> int:
    plant = load_lti(args.system)
    Phi = choose_phi(plant, margin=args.margin)
    des = design_irc_gamma(plant, Phi, gamma_min=args.gamma_min,
                           gamma_max=args.gamma_max,
                           points_per_decade=args.ppd)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["gamma", "pole_index", "re", "im", "zeta"])
        for g, row in zip(des.gammas, irc_root_locus(plant, Phi, des.gammas)):
            for i, pole in enumerate(row):
                z = -pole.real / abs(pole) if abs(pole) > 0 else float("nan")
                w.writerow([_fmt(g), i, _fmt(pole.real), _fmt(pole.imag), _fmt(z)])
        _emit(buf.getvalue(), args.out)
    else:
        rep = {
            "feasible": bool(des.feasible),
            "phi": float(Phi[0, 0]),
            "gamma_star": None if not des.feasible else des.gamma_star,
            "zeta_at_star": None if not des.feasible else des.zeta_at_star,
            "decay_at_star": None if not des.feasible else des.decay_at_star,
            "controller": None if des.controller is None else _ss_json(des.controller),
            "note": des.note,
        }
        _emit(_json_dump(rep), args.out)
    return OK if des.feasible else PROPERTY_FALSE


def cmd_synth_sf(args) -> int:
    plant = load_uncertain(args.system)
    res = synthesize_state_feedback(plant, eps=args.eps)
    if not res.feasible:
        _emit(_json_dump({"feasible": False, "eps": res.eps,
                          "reason": res.reason}), args.out)
        return PROPERTY_FALSE
    rep_cl = verify_closed_loop(plant, res.K, Y=res.Y)
    rep = {
        "feasible": True,
        "eps": res.eps,
        "K": res.K.tolist(),
        "Y": res.Y.tolist(),
        "cond_Y": res.cond_Y,
        "certificate_ok": bool(res.verification.ok),
        "closed_loop": {
            "ok": bool(rep_cl.ok),
            "hurwitz": bool(rep_cl.hurwitz),
            "ni_holds": bool(rep_cl.ni.holds),
            "ni_worst_margin": float(rep_cl.ni.worst_margin),
            "dc_sigma_max": float(rep_cl.dc_sigma_max),
            "dc_identity_error": rep_cl.dc_identity_error,
        },
    }
    _emit(_json_dump(rep), args.out)
    return OK if rep_cl.ok else PROPERTY_FALSE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nisys",
        description="negative-imaginary analysis, stability tests, and synthesis")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a system (NI/SNI/PR/SPR)")
    p.add_argument("system", help="system JSON file")
    _grid_args(p)
    p.add_argument("--tol", type=float, default=1e-8, help="sweep tolerance")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_analyze)

    for name, (hlp, _, _) in _RESPONSES.items():
        p = sub.add_parser(name, help=hlp)
        p.add_argument("system")
        _grid_args(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        p.set_defaults(fn=cmd_response)

    p = sub.add_parser("stability",
                       help="DC-gain stability test of positive feedback [M, N]")
    p.add_argument("m_system", help="M: the NI side")
    p.add_argument("n_system", help="N: the strictly NI side")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("design-irc",
                       help="tune an integral resonant controller gain sweep")
    p.add_argument("system")
    p.add_argument("--margin", type=float, default=1.2,
                   help="DC gain margin for Phi selection (default 1.2)")
    p.add_argument("--gamma-min", type=float, default=1e3)
    p.add_argument("--gamma-max", type=float, default=1e8)
    p.add_argument("--ppd", type=int, default=200, help="gamma points per decade")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="json report or csv pole locus")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_design_irc)

    p = sub.add_parser("synth-sf",
                       help="state feedback making the uncertainty loop NI")
    p.add_argument("system", help="uncertain plant JSON file")
    p.add_argument("--eps", type=float, default=1e-6,
                   help="strictness margin for the synthesis inequality")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_synth_sf)
    return ap


# one parser per process: building it costs about as much as the rest of a
# small analyze call, and parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits with 0 after --help and with 2 on a usage error,
        # which would read as "property false"
        return OK if e.code == 0 else ERROR
    try:
        return args.fn(args)
    except (SystemFileError, LtiError, NumericsError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())

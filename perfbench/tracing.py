"""Spans around the public functions of every nisys module.

`Tracer.install(nisys)` replaces each public function of each module, in
every module namespace that holds it (so `synthesis.check_ni_lmi`, imported
with `from .analysis import`, is traced as `analysis.check_ni_lmi`), by a
wrapper that records a span: name, start, end and parent. Spans stay in
memory until `dump`. `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("_kernels", "numerics", "lti", "lmi", "analysis", "stability",
           "controllers", "synthesis", "sysfile", "cli")
# names from outside nisys that stand for a step of a layer
EXTERNAL = {("controllers", "linear_sum_assignment")}


def _layer(module_name):
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _attrs(name, args, out):
    """Facts a span keeps besides its times, by function."""
    if name == "kernels.sweep_eigmin":
        A, B, C, ws = args[0], args[1], args[2], args[4]
        return {"n": len(A), "m": len(B[0]) if len(B) else 0, "p": len(C), "points": len(ws)}
    if name == "lmi.solve_feasibility":
        return {"iters": out.iters, "feasible": bool(out.feasible)}
    if name == "stability.dc_gain_verdict":
        return {"fallback": out.note is not None}
    return None


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, attrs]
        self._stack = []
        self.active = False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            rec[4] = _attrs(name, args, out)
            return out
        return traced

    def install(self, nisys):
        mods = [importlib.import_module(f"nisys.{m}") for m in MODULES] + [nisys]
        wrappers = {}
        for mod in mods[:-1]:
            layer = _layer(mod.__name__)
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                own = inspect.isfunction(val) and val.__module__.startswith("nisys.")
                if own and id(val) not in wrappers:
                    wrappers[id(val)] = self._wrap(f"{_layer(val.__module__)}.{attr}", val)
                elif (layer, attr) in EXTERNAL:
                    wrappers[id(val)] = self._wrap(f"{layer}.{attr}", val)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and not attr.startswith("__"):
                    setattr(mod, attr, wrappers[id(val)])

    def dump(self, path, meta):
        with open(path, "w") as f:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, f)


def _sweep_flops(n, m, p):
    """Real flops of one kernel grid point, computed (not counted): complex
    LU of sI - A, m triangular solve pairs, C X, and the eigenvalues of H."""
    return 4 * (2 * n**3 / 3 + 2 * n * n * m + 2 * p * n * m) + 4 * 9 * m**3


def layer_metrics(spans, rounds):
    """Per-layer metrics of a traced run, per round of the workload."""
    R = float(rounds)
    n = len(spans)
    child = [0.0] * n
    kids = [[] for _ in range(n)]
    for i, (_, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            kids[parent].append(i)
    dur = [s[2] - s[1] for s in spans]
    own = [dur[i] - child[i] for i in range(n)]
    names = [s[0] for s in spans]

    def subtree(root_name):
        """Indices of spans under (and including) every span named root_name."""
        out, todo = [], [i for i in range(n) if names[i] == root_name]
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(kids[i])
        return out

    def total(idx, name=None, prefix=None, self_time=False):
        vals = own if self_time else dur
        return sum(vals[i] for i in idx
                   if (name is None or names[i] == name)
                   and (prefix is None or names[i].startswith(prefix)))

    def count(idx, name):
        return sum(1 for i in idx if names[i] == name)

    def per(a, b):
        return a / b if b else 0.0

    every = range(n)
    sweeps = [i for i in every if names[i] == "kernels.sweep_eigmin"]
    solves = [i for i in every if names[i] == "lmi.solve_feasibility"]
    iters = sum(spans[i][4]["iters"] for i in solves)
    infeasible = [i for i in solves if not spans[i][4]["feasible"]]
    classify = subtree("analysis.classify")
    n_classify = count(every, "analysis.classify")
    spr_roots = [i for i in every if names[i] == "analysis.check_strictly_positive_real"]
    verdict = subtree("stability.dc_gain_verdict")
    n_verdict = count(every, "stability.dc_gain_verdict")
    design = subtree("controllers.design_irc_gamma")
    n_design = count(every, "controllers.design_irc_gamma")
    synth = subtree("synthesis.synthesize_state_feedback")
    n_synth = count(every, "synthesis.synthesize_state_feedback")
    verify = subtree("synthesis.verify_closed_loop")
    n_verify = count(every, "synthesis.verify_closed_loop")
    sysfile_roots = [i for i in every if names[i].startswith("sysfile.")
                     and not (spans[i][3] >= 0 and names[spans[i][3]].startswith("sysfile."))]

    return {
        "kernels.sweep_calls": (len(sweeps) / R, "count"),
        "kernels.sweep_points": (sum(spans[i][4]["points"] for i in sweeps) / R, "count"),
        "kernels.sweep_s": (total(sweeps) / R, "s"),
        "kernels.sweep_gflop_computed": (sum(
            spans[i][4]["points"] * _sweep_flops(spans[i][4]["n"], spans[i][4]["m"],
                                                 spans[i][4]["p"]) for i in sweeps) / 1e9 / R,
            "GFLOP"),
        "lmi.solves": (len(solves) / R, "count"),
        "lmi.iters": (iters / R, "count"),
        "lmi.solve_s": (total(solves) / R, "s"),
        "lmi.ms_per_iter": (per(1e3 * total(solves), iters), "ms"),
        "lmi.infeasible_solves": (len(infeasible) / R, "count"),
        "lmi.infeasible_solve_s": (total(infeasible) / R, "s"),
        "lmi.verify_certificate_s": (total(every, "lmi.verify_certificate") / R, "s"),
        "analysis.classify_self_s": (total(classify, prefix="analysis.", self_time=True) / R, "s"),
        "analysis.lmi_solves_per_classify": (per(count(classify, "lmi.solve_feasibility"),
                                                 n_classify), "count"),
        "analysis.sweeps_per_classify": (per(count(classify, "kernels.sweep_eigmin"),
                                             n_classify), "count"),
        "analysis.spr_ladder_steps": (per(sum(1 for r in spr_roots for k in kids[r]
                                              if names[k] == "lti.poles"), n_classify), "count"),
        "analysis.phi_zeros_s": (total(every, "analysis.phi_imaginary_axis_zeros") / R, "s"),
        "stability.verdict_self_s": (total(verdict, prefix="stability.dc_gain_verdict",
                                           self_time=True) / R, "s"),
        "stability.sweeps_per_verdict": (per(count(verdict, "kernels.sweep_eigmin"),
                                             n_verdict), "count"),
        "stability.pole_test_s": (total(every, "stability.internal_stability") / R, "s"),
        "stability.pole_tests_deciding_per_run": (sum(
            1 for i in every if names[i] == "stability.dc_gain_verdict"
            and spans[i][4]["fallback"]) / R, "count"),
        "controllers.design_self_s": (total(design, prefix="controllers.design_irc_gamma",
                                            self_time=True) / R, "s"),
        "controllers.eigensolves_per_design": (per(count(design,
                                                         "controllers.linear_sum_assignment"),
                                                   n_design), "count"),
        "controllers.assignment_s": (total(every, "controllers.linear_sum_assignment") / R, "s"),
        "synthesis.synth_self_s": (total(synth, prefix="synthesis.", self_time=True) / R, "s"),
        "synthesis.ladder_solves_per_synth": (per(count(synth, "lmi.solve_feasibility"),
                                                  n_synth), "count"),
        "synthesis.verify_self_s": (total(verify, prefix="synthesis.", self_time=True) / R, "s"),
        "synthesis.verify_lmi_s": (total(verify, "analysis.check_ni_lmi") / R, "s"),
        "synthesis.evaluate_calls_per_verify": (per(count(verify, "lti.evaluate"), n_verify),
                                                "count"),
        "lti.evaluate_calls": (count(every, "lti.evaluate") / R, "count"),
        "lti.evaluate_s": (total(every, "lti.evaluate") / R, "s"),
        "lti.poles_s": (total(every, "lti.poles") / R, "s"),
        "lti.is_minimal_s": (total(every, "lti.is_minimal") / R, "s"),
        "lti.dc_gain_s": (total(every, "lti.dc_gain") / R, "s"),
        "numerics.generalized_eigenvalues_s": (total(every, "numerics.generalized_eigenvalues")
                                               / R, "s"),
        "numerics.eig_symmetric_calls": (count(every, "numerics.eig_symmetric") / R, "count"),
        "sysfile.load_s": (total(sysfile_roots) / R, "s"),
        "cli.self_s": (total(every, prefix="cli.", self_time=True) / R, "s"),
    }


"""The import floor: every verdict, on any plant, and a gain sweep on a
diagonalizable plant run on numpy alone, and the two calls that need scipy
import it at their first use. Each check runs in a fresh interpreter, since
this process has imported scipy already."""

import json
import os
import pickle
import subprocess
import sys

import pytest

import nisys
from nisys.cli import main
from conftest import same

PRELUDE = """
import numpy as np
from nisys import (ModalModel, StateSpace, check_ni, check_sni_zeros, choose_phi,
                   dc_gain_verdict, design_irc_gamma, irc, is_minimal, modal_to_ss)
PLANT = modal_to_ss(ModalModel(tuple((100.0 * k, 2.0, (1.0,)) for k in (1, 2, 3))))
NONSYMMETRIC = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), [[1.0, 1.0], [0.0, 1.0]],
                          np.zeros((2, 2)))
# a double pole at -50 in a Jordan block, plus one mode: no eigenbasis
JORDAN = StateSpace([[-50.0, 1.0, 0, 0], [0, -50.0, 0, 0], [0, 0, 0, 1.0], [0, 0, -1e4, -2.0]],
                    [[0.0], [1.0], [0.0], [1.0]], [[1.0, 0.0, 1.0, 0.0]], [[0.0]])
"""

SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"

SISO = {"kind": "modal", "output": "position",
        "modes": [{"omega": 100.0 * k, "kappa": 2.0, "psi": [1.0]} for k in (1, 2, 3)]}


def _fresh(code):
    """Run code in a new interpreter that imports the same nisys as this
    process; returns the JSON object its last line of output prints."""
    src = os.path.dirname(os.path.dirname(nisys.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_siso_verdicts_import_no_scipy(tmp_path):
    system = tmp_path / "siso.json"
    system.write_text(json.dumps(SISO))
    design = tmp_path / "design.pickle"
    child = _fresh(f"""
import json, pickle, sys
import nisys, nisys.cli
{PRELUDE}
rc = nisys.cli.main(["analyze", {str(system)!r}, "--out", {str(tmp_path / "child.json")!r}])
rep = dc_gain_verdict(PLANT, irc([[1e5]], choose_phi(PLANT)))
with open({str(design)!r}, "wb") as f:
    pickle.dump(design_irc_gamma(PLANT, choose_phi(PLANT)), f)
print(json.dumps({{"rc": rc, "stable": rep.stable, "note": rep.note, "scipy": {SCIPY}}}))
""")
    assert child["scipy"] == []
    # the loop verdict was the DC-gain test, not the fallback pole test
    assert child["stable"] and child["note"] is None
    # the gain design took the DC-gain theorem and the dominant pair alone
    ns = {}
    exec(PRELUDE, ns)
    with open(design, "rb") as f:
        des = pickle.load(f)
    assert des.note is None and same(des, eval("design_irc_gamma(PLANT, choose_phi(PLANT))", ns))
    assert main(["analyze", str(system), "--out", str(tmp_path / "here.json")]) == child["rc"]
    assert (tmp_path / "child.json").read_bytes() == (tmp_path / "here.json").read_bytes()


def _first_use(call, tmp_path):
    """The scipy modules loaded before and after `call` in a fresh
    interpreter; checks that its result equals this process's."""
    out = tmp_path / "out.pickle"
    child = _fresh(f"""
import json, pickle, sys
{PRELUDE}
before = {SCIPY}
result = {call}
after = {SCIPY}
with open({str(out)!r}, "wb") as f:
    pickle.dump(result, f)
print(json.dumps({{"before": before, "after": after}}))
""")
    ns = {}
    exec(PRELUDE, ns)
    with open(out, "rb") as f:
        assert same(pickle.load(f), eval(call, ns))
    return child["before"], child["after"]


@pytest.mark.parametrize("call", ["check_ni(NONSYMMETRIC)", "check_sni_zeros(JORDAN)"])
def test_zero_verdicts_import_no_scipy(call, tmp_path):
    # the zeros of Phi of a non-symmetric plant, and of a plant without an
    # eigenbasis, come from the numpy staircase
    assert _first_use(call, tmp_path) == ([], [])


@pytest.mark.parametrize("call", ["is_minimal(PLANT)",
                                  "design_irc_gamma(JORDAN, choose_phi(JORDAN))"])
def test_scipy_loads_at_first_use(call, tmp_path):
    # is_minimal balances A (matrix_balance), and a gain sweep on a plant
    # without an eigenbasis matches its eigensolve rows by assignment
    before, after = _first_use(call, tmp_path)
    assert before == [] and "scipy" in after

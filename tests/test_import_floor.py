"""numpy is the only runtime dependency. A verdict and a gain design on a
diagonalizable plant load no scipy module, and with scipy made unimportable
every CLI subcommand and the library calls that balance A, solve the NI
certificate LMI or match eigensolve rows give the results of this process,
where the tests have loaded scipy. Each check runs in a fresh interpreter."""

import json
import os
import pickle
import subprocess
import sys

import pytest

import nisys
from nisys.cli import ERROR, main
from conftest import same

PRELUDE = """
import numpy as np
from nisys import (ModalModel, StateSpace, check_ni, check_ni_lmi, check_sni_zeros, choose_phi,
                   dc_gain_verdict, design_irc_gamma, irc, irc_root_locus, is_minimal,
                   modal_to_ss)
PLANT = modal_to_ss(ModalModel(tuple((100.0 * k, 2.0, (1.0,)) for k in (1, 2, 3))))
NONSYMMETRIC = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), [[1.0, 1.0], [0.0, 1.0]],
                          np.zeros((2, 2)))
# a double pole at -50 in a Jordan block, plus one mode: no eigenbasis
JORDAN = StateSpace([[-50.0, 1.0, 0, 0], [0, -50.0, 0, 0], [0, 0, 0, 1.0], [0, 0, -1e4, -2.0]],
                    [[0.0], [1.0], [0.0], [1.0]], [[1.0, 0.0, 1.0, 0.0]], [[0.0]])
"""

SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"
# an import of scipy or of any scipy module raises ImportError after this
NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"

SISO = {"kind": "modal", "output": "position",
        "modes": [{"omega": 100.0 * k, "kappa": 2.0, "psi": [1.0]} for k in (1, 2, 3)]}
NONSYMMETRIC = {"kind": "ss", "A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
                "C": [[1.0, 1.0], [0.0, 1.0]], "D": [[0.0, 0.0], [0.0, 0.0]]}
JORDAN = {"kind": "ss", "A": [[-50.0, 1.0, 0, 0], [0, -50.0, 0, 0], [0, 0, 0, 1.0],
                              [0, 0, -1e4, -2.0]],
          "B": [[0.0], [1.0], [0.0], [1.0]], "C": [[1.0, 0.0, 1.0, 0.0]], "D": [[0.0]]}
FIRST = {"kind": "ss", "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}
SECOND = {"kind": "ss", "A": [[-2.0]], "B": [[1.0]], "C": [[1.0]]}
UPLANT = {"kind": "uncertain", "A": [[-1, 0, 0], [1, -1, 1], [0, 1, -1]],
          "B1": [[0], [0], [1]], "B2": [[-2], [1], [0]], "C1": [[0, 1, 0]]}


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


def _without_scipy(call, tmp_path):
    """Run `call` in a fresh interpreter where scipy is unimportable, and
    check that its result equals this process's."""
    out = tmp_path / "out.pickle"
    _fresh(f"""
{NO_SCIPY}
import pickle
{PRELUDE}
with open({str(out)!r}, "wb") as f:
    pickle.dump({call}, f)
print("{{}}")
""")
    ns = {}
    exec(PRELUDE, ns)
    with open(out, "rb") as f:
        assert same(pickle.load(f), eval(call, ns))


@pytest.mark.parametrize("call", [
    # the zeros of Phi of a non-symmetric plant, and of a plant without an
    # eigenbasis, come from the numpy staircase
    "check_ni(NONSYMMETRIC)", "check_sni_zeros(JORDAN)",
    # is_minimal and check_ni_lmi balance A
    "is_minimal(PLANT)", "is_minimal(JORDAN)", "check_ni_lmi(JORDAN)",
    # without an eigenbasis every gain is an eigensolve, matched to the row before
    "design_irc_gamma(JORDAN, choose_phi(JORDAN))",
    "irc_root_locus(JORDAN, choose_phi(JORDAN), np.geomspace(1e3, 1e8, 101))"])
def test_zero_verdicts_import_no_scipy(call, tmp_path):
    _without_scipy(call, tmp_path)


def test_every_subcommand_runs_without_scipy(tmp_path):
    paths = {}
    for name, obj in (("siso", SISO), ("nonsym", NONSYMMETRIC), ("jordan", JORDAN),
                      ("m", FIRST), ("n", SECOND), ("uplant", UPLANT)):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    runs = [["analyze", paths["siso"]], ["analyze", paths["nonsym"]],
            ["analyze", paths["jordan"]], ["nyquist", paths["siso"]],
            ["bode", paths["siso"], "--format", "json"], ["stability", paths["m"], paths["n"]],
            ["design-irc", paths["siso"]], ["design-irc", paths["jordan"], "--format", "csv"],
            ["synth-sf", paths["uplant"]]]
    child = _fresh(f"""
{NO_SCIPY}
import json
import nisys.cli
runs = {runs!r}
print(json.dumps([nisys.cli.main(argv + ["--out", {str(tmp_path / "child")!r} + str(i)])
                  for i, argv in enumerate(runs)]))
""")
    assert child == [main(argv + ["--out", str(tmp_path / "here") + str(i)])
                     for i, argv in enumerate(runs)]
    assert ERROR not in child
    for i in range(len(runs)):
        assert (tmp_path / f"child{i}").read_bytes() == (tmp_path / f"here{i}").read_bytes()

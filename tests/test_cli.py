import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nisys
from nisys import check_positive_real, choose_phi, default_grid, evaluate
from nisys._kernels import eval_grid
from nisys.cli import _response_rows, main
from nisys.lti import eigensystem
from nisys.sysfile import SystemFileError, load_lti, load_system, load_uncertain
from conftest import flexible_modes, irc_eigensolve_locus, tf


FIRST = {"kind": "ss", "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
UNSTABLE = {"kind": "ss", "A": [[1.0]], "B": [[1.0]], "C": [[1.0]]}
FLEX = {"kind": "modal", "output": "position",
        "modes": [{"omega": w, "kappa": k, "psi": list(p)}
                  for w, k, p in flexible_modes()]}
UPLANT = {"kind": "uncertain",
          "A": [[-1, 0, 0], [1, -1, 1], [0, 1, -1]],
          "B1": [[0], [0], [1]], "B2": [[-2], [1], [0]], "C1": [[0, 1, 0]]}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run_main(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_load_system_kinds(tmp_path):
    ss = load_system(write(tmp_path, "a.json", FIRST))
    assert ss.n == 1
    flex = load_system(write(tmp_path, "b.json", FLEX))
    assert flex.n == 20
    up = load_system(write(tmp_path, "c.json", UPLANT))
    assert up.n == 3 and up.port_size == 1


def test_load_system_errors(tmp_path):
    with pytest.raises(SystemFileError):
        load_system(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemFileError):
        load_system(str(bad))
    with pytest.raises(SystemFileError):
        load_system(write(tmp_path, "k.json", {"kind": "nope"}))
    with pytest.raises(SystemFileError):
        load_system(write(tmp_path, "m.json", {"kind": "ss", "A": [[1]],
                                               "B": [["x"]], "C": [[1]]}))
    with pytest.raises(SystemFileError):
        load_lti(write(tmp_path, "u.json", UPLANT))
    with pytest.raises(SystemFileError):
        load_uncertain(write(tmp_path, "s.json", FIRST))


def test_analyze_golden(tmp_path, capsys):
    rc, out, _ = run_main(["analyze", write(tmp_path, "f.json", FIRST)], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["ni"] and rep["sni"] and rep["pr"] and rep["spr"]
    assert rep["system"] == {"states": 1, "inputs": 1, "outputs": 1}


def test_analyze_json_keys(tmp_path, capsys):
    rc, out, _ = run_main(["analyze", write(tmp_path, "f.json", FIRST)], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert set(rep) == {"ni", "sni", "pr", "spr", "ni_spectral", "ni_sweep", "pr_sweep",
                        "spr_sweep", "sni_zeros", "system"}
    # 1/(s+1) is NI term by term, and `note` says so
    assert set(rep["ni_spectral"]) == {"holds", "worst_frequency", "worst_margin", "note"}
    assert "term by term" in rep["ni_spectral"]["note"]
    # and SNI term by term: no zero of Phi was solved for
    assert set(rep["sni_zeros"]) == {"is_sni", "reason", "axis_zeros", "note"}
    assert "term by term" in rep["sni_zeros"]["note"] and rep["sni_zeros"]["axis_zeros"] == []


def test_analyze_two_channel_plant_is_sni(tmp_path, capsys):
    # CB = 0: QZ read two infinite zeros of Phi as axis zeros near 1e8 j
    modes = [(24.05, 1.4968, [-0.0926, 0.3121]), (110.001, 8.8231, [-0.1918, -0.8351]),
             (994.049, 49.9876, [-0.6457, -0.1423])]
    spec = {"kind": "modal", "output": "position",
            "modes": [{"omega": w, "kappa": k, "psi": p} for w, k, p in modes]}
    rc, out, _ = run_main(["analyze", write(tmp_path, "b.json", spec)], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["ni"] and rep["sni"]


def test_analyze_not_ni_exit_code(tmp_path, capsys):
    rc, out, _ = run_main(["analyze", write(tmp_path, "u.json", UNSTABLE)], capsys)
    assert rc == 2
    assert not json.loads(out)["ni"]


def test_analyze_error_exit_code(tmp_path, capsys):
    rc, _, err = run_main(["analyze", str(tmp_path / "nope.json")], capsys)
    assert rc == 1
    assert "error:" in err


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--tol", "-1"], ["--ppd", "0"]])
def test_analyze_rejects_a_bad_tol_or_ppd(tmp_path, capsys, flags):
    rc, out, err = run_main(["analyze", write(tmp_path, "f.json", FIRST)] + flags, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["analyze"], ["analyze", "x.json", "--bogus"],
                                  ["frobnicate"], ["design-irc", "x.json", "--ppd", "many"]])
def test_usage_error_exit_code(argv, capsys):
    # a usage error is an error (1), not "property false" (2)
    rc, out, err = run_main(argv, capsys)
    assert rc == 1 and out == ""
    assert "error:" in err and "usage:" in err


def test_help_exit_code(capsys):
    rc, out, _ = run_main(["analyze", "--help"], capsys)
    assert rc == 0 and "--grid-min" in out


def test_repeated_calls_write_the_same_report(tmp_path, capsys):
    # the parser is built once per process; a second call reads its own argv
    path = write(tmp_path, "f.json", FIRST)
    flex = write(tmp_path, "flex.json", FLEX)
    reports = [tmp_path / f"r{i}.json" for i in range(3)]
    for target, system in zip(reports, (path, flex, path)):
        assert run_main(["analyze", system, "--out", str(target)], capsys)[0] == 0
    assert reports[0].read_bytes() == reports[2].read_bytes()
    assert reports[0].read_bytes() != reports[1].read_bytes()


def test_nyquist_csv_matches_library(tmp_path, capsys):
    path = write(tmp_path, "f.json", FIRST)
    rc, out, _ = run_main(["nyquist", path, "--ppd", "10"], capsys)
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    sys_ = load_lti(path)
    g = default_grid(sys_, points_per_decade=10)
    assert len(rows) == g.size
    vals = eval_grid(sys_.A, sys_.B, sys_.C, sys_.D, g, eigensystem(sys_))[:, 0, 0]
    for row, w, v in zip(rows, g, vals):
        assert float(row["omega"]) == w
        # 17 significant digits round-trip doubles exactly
        assert float(row["re"]) == v.real
        assert float(row["im"]) == v.imag
        ref = evaluate(sys_, 1j * w)[0, 0]
        assert abs(v - ref) <= 1e-12 * (1.0 + abs(ref))


def test_nyquist_blank_rows_on_pole(tmp_path, capsys):
    integ = {"kind": "ss", "A": [[0.0]], "B": [[1.0]], "C": [[1.0]]}
    rc, out, err = run_main(["nyquist", write(tmp_path, "i.json", integ),
                             "--ppd", "5"], capsys)
    assert rc == 0
    assert "warning:" in err
    first_data = out.splitlines()[1]
    assert first_data.split(",")[0] == "0"
    assert first_data.split(",")[1] == ""  # blank where the pole sits


@pytest.mark.parametrize("plant, on_pole", [(tf([1.0], [1.0, 0.0, 1.0]), [1.0]),
                                             (tf([1.0], [1.0, 1.0]), [])],
                         ids=["1/(s^2+1)", "1/(s+1)"])
def test_grid_points_on_an_axis_pole_are_dropped(plant, on_pole):
    # the response rows and the PR sweep drop the grid point on the pole
    # +-j of 1/(s^2+1), and keep the whole grid of a stable plant
    g = np.array([0.0, 0.5, 1.0, 2.0])
    keep = ~np.isin(g, on_pole)
    vals, ok = _response_rows(plant, g)
    assert np.array_equal(ok, keep) and np.isnan(vals[~ok]).all()
    assert np.array_equal(check_positive_real(plant, grid=g).grid, g[keep])


def test_bode_json(tmp_path, capsys):
    path = write(tmp_path, "f.json", FIRST)
    rc, out, _ = run_main(["bode", path, "--ppd", "5", "--format", "json"], capsys)
    assert rc == 0
    rep = json.loads(out)
    pt = rep["points"][0]
    v = evaluate(load_lti(path), 1j * pt["omega"])[0, 0]
    assert np.isclose(pt["mag"][0][0], abs(v))
    assert np.isclose(pt["phase"][0][0], np.angle(v))


def test_stability_command(tmp_path, capsys):
    mp = write(tmp_path, "m.json", FLEX)
    nc = {"kind": "ss", "A": [[-179.6379]], "B": [[965840.0]],
          "C": [[1.0]], "D": [[0.0]]}
    np_ = write(tmp_path, "n.json", nc)
    rc, out, _ = run_main(["stability", mp, np_], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["stable"] and rep["hypotheses_hold"]
    assert abs(rep["lambda_max_dc"] - 0.8332471) < 1e-4
    # the theorem decided; the poles are computed for the report all the same
    assert rep["note"] is None
    assert rep["internally_stable"] is True
    assert len(rep["closed_loop_poles"]) == 21
    assert all(len(p) == 2 and p[0] < 0 for p in rep["closed_loop_poles"])


def test_stability_unstable_exit_code(tmp_path, capsys):
    m = write(tmp_path, "m.json", FIRST)
    n = write(tmp_path, "n.json",
              {"kind": "ss", "A": [[-1.0]], "B": [[1.0]], "C": [[2.0]]})
    rc, out, _ = run_main(["stability", m, n], capsys)
    assert rc == 2
    rep = json.loads(out)
    assert not rep["stable"] and rep["hypotheses_hold"]
    assert rep["internally_stable"] is False and len(rep["closed_loop_poles"]) == 2


def test_stability_pole_at_origin(tmp_path, capsys):
    # M = 1/s has no DC gain: the pole test decides, exit 2 (unstable), not 1
    m = write(tmp_path, "m.json", {"kind": "ss", "A": [[0.0]], "B": [[1.0]], "C": [[1.0]]})
    n = write(tmp_path, "n.json", {"kind": "ss", "A": [[-2.0]], "B": [[1.0]], "C": [[1.0]]})
    rc, out, err = run_main(["stability", m, n], capsys)
    assert rc == 2 and err == ""
    rep = json.loads(out)
    assert rep["lambda_max_dc"] is None and not rep["hypotheses_hold"]
    assert rep["internally_stable"] is False and len(rep["closed_loop_poles"]) == 2
    assert "dc gain undefined" in rep["note"]


def test_design_irc_json_and_csv(tmp_path, capsys):
    path = write(tmp_path, "flex.json", FLEX)
    rc, out, _ = run_main(["design-irc", path, "--ppd", "40"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["feasible"] and rep["note"] is None
    assert 0.9 * 9.6584e5 < rep["gamma_star"] < 1.1 * 9.6584e5
    assert rep["controller"]["A"][0][0] == pytest.approx(
        -rep["gamma_star"] * rep["phi"])

    outfile = tmp_path / "locus.csv"
    rc, _, _ = run_main(["design-irc", path, "--ppd", "40", "--format", "csv",
                         "--out", str(outfile)], capsys)
    assert rc == 0
    rows = list(csv.DictReader(outfile.open()))
    assert set(rows[0].keys()) == {"gamma", "pole_index", "re", "im", "zeta"}
    # 21 poles per gamma point
    per_gamma = {}
    for r in rows:
        per_gamma.setdefault(r["gamma"], []).append(r)
    assert all(len(v) == 21 for v in per_gamma.values())
    # irc_root_locus on the design's grid: the rows of the eigensolve sweep,
    # in its pole order; real poles print their imaginary part as exactly 0,
    # as an eigensolve gives them
    plant = load_lti(path)
    gammas = np.geomspace(1e3, 1e8, 201)
    ref = irc_eigensolve_locus(plant, choose_phi(plant), gammas)
    assert len(rows) == ref.size == 201 * 21
    assert [float(r["gamma"]) for r in rows[::21]] == list(gammas)
    assert [int(r["pole_index"]) for r in rows] == list(range(21)) * 201
    got = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    np.testing.assert_allclose(got, ref.ravel(), rtol=1e-9)
    assert [r["im"] == "0" for r in rows] == list(ref.imag.ravel() == 0)
    assert (ref.imag == 0).any()


@pytest.mark.parametrize("flags", [["--margin", "nan"], ["--gamma-max", "inf"]])
def test_design_irc_bad_phi_or_limit_is_an_input_error(tmp_path, capsys, flags):
    path = write(tmp_path, "flex.json", FLEX)
    rc, out, err = run_main(["design-irc", path] + flags, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ")


def test_design_irc_static_plant_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "static.json",
                 {"kind": "ss", "A": [], "B": [], "C": [], "D": [[2.0]]})
    rc, out, err = run_main(["design-irc", path], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "static plant" in err


def test_synth_sf_command(tmp_path, capsys):
    path = write(tmp_path, "up.json", UPLANT)
    rc, out, _ = run_main(["synth-sf", path], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["feasible"] and rep["certificate_ok"] and rep["closed_loop"]["ok"]
    assert np.asarray(rep["K"]).shape == (1, 3)
    assert set(rep["closed_loop"]) == {"ok", "hurwitz", "ni_holds", "ni_worst_margin",
                                       "dc_sigma_max", "dc_identity_error"}
    assert rep["closed_loop"]["ni_holds"]

    # matches the library call exactly (determinism)
    from nisys import UncertainPlant, synthesize_state_feedback
    res = synthesize_state_feedback(UncertainPlant(**{k: np.array(UPLANT[k], dtype=float)
                                                      for k in ("A", "B1", "B2", "C1")}))
    assert np.array_equal(np.asarray(rep["K"]), res.K)


def test_synth_sf_infeasible_exit_code(tmp_path, capsys):
    bad = dict(UPLANT)
    bad["B1"] = [[0], [0], [0]]
    rc, out, _ = run_main(["synth-sf", write(tmp_path, "b.json", bad)], capsys)
    assert rc == 2
    assert not json.loads(out)["feasible"]


def test_out_flag_writes_file(tmp_path, capsys):
    path = write(tmp_path, "f.json", FIRST)
    target = tmp_path / "report.json"
    rc, out, _ = run_main(["analyze", path, "--out", str(target)], capsys)
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["ni"]


def test_console_script_entry_point():
    # the child imports the same nisys as this process, installed or not
    src = os.path.dirname(os.path.dirname(nisys.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-m", "nisys.cli", "--help"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "analyze" in out.stdout and "synth-sf" in out.stdout

"""Batch front end: configs, artifacts, sweeps, verification, exit codes."""
import csv
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from canomap import cli, hamilton, scenarios
from canomap.cli import (ConfigError, RunConfig, _write_csv, _write_json, main, run,
                         sweep, verify)
from canomap.hamilton import hamiltonian, integrate
from canomap.mapping import MappingSpec
from canomap.phasecore import ControllingFunction, PhaseState, verify_derivatives
from canomap.scenarios import ballistic_system, rotation_example


@pytest.fixture(autouse=True)
def isolated_output(monkeypatch):
    monkeypatch.delenv("CANOMAP_OUT", raising=False)


def write_cfg(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------
# run
# ---------------------------------------------------------------------

def test_rotation_run_is_canonical(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="rotation", t1=1.0, step=1e-2,
                    output_dir=str(out))
    assert main(["run", "--config", cfg]) == 0
    line = capsys.readouterr().out.strip()
    m = re.fullmatch(r"VERDICT=canonical max_residual=(\S+)", line)
    assert m and float(m.group(1)) < 1e-9
    inv = json.loads((out / "invariants.json").read_text())
    assert inv["verdict"] == "canonical"
    assert inv["verdict_basis"] == "symplectic"
    assert set(inv) == set("action_S canonicity_max_residual energy_drift "
                           "jacobian_min_abs_det loop_drift rotation_image_error "
                           "scenario symplectic_defect_max verdict verdict_basis".split())
    # y = lam alone, so the differential criterion's block determinants vanish
    assert inv["jacobian_min_abs_det"] == 0
    assert inv["rotation_image_error"] < 1e-12
    assert inv["symplectic_defect_max"] < 1e-9
    for artifact in ("trajectory.csv", "canonicity.csv", "invariants.json"):
        assert (out / artifact).exists()


@pytest.mark.parametrize("n", [1, 2])
def test_rotation_image_error_flags_a_wrong_map(n):
    # the stdlib cloud still catches a map that is not the quarter-turn
    spec = rotation_example(dim=n)
    cf = spec.cf
    off = ControllingFunction(n, cf.u, ux=cf.ux, ulam=lambda x, lam, t: 1.01 * (lam + x))
    err = lambda s: cli._rotation_image_error(RunConfig(scenario="rotation", n=n, seed=3),
                                              None, s, None)["rotation_image_error"]
    assert err(spec) == 0.0
    assert err(MappingSpec("Std116", cf)) > 1e-3
    assert err(MappingSpec("Cross220", off)) > 1e-3


def test_ballistic_defaults_to_four_dimensions(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="ballistic", t1=0.1, step=1e-2,
                    output_dir=str(out))
    assert main(["run", "--config", cfg]) == 0
    assert read_rows(out / "trajectory.csv")[0] == [
        "t", "x_1", "x_2", "x_3", "x_4", "lam_1", "lam_2", "lam_3", "lam_4", "H"]


def test_artifact_headers_and_shapes(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="linear", n=2, t1=0.5, step=1e-2,
                    output_dir=str(out))
    assert main(["run", "--config", cfg]) == 0
    rows = read_rows(out / "trajectory.csv")
    assert rows[0] == ["t", "x_1", "x_2", "lam_1", "lam_2", "H"]
    assert len(rows) == 1 + 51
    can = read_rows(out / "canonicity.csv")
    assert can[0] == ["t", "residual", "det_y", "det_mu"]
    assert len(can) == len(rows)


def test_ballistic_run_conserves_everything(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="ballistic", t1=1.0, step=1e-3,
                    output_dir=str(out))
    assert main(["run", "--config", cfg]) == 0
    inv = json.loads((out / "invariants.json").read_text())
    assert inv["scenario"] == "ballistic"
    assert set(inv) == set("action_S adjoint_agreement area_integral_drift_rel "
                           "canonicity_max_residual energy_drift jacobian_min_abs_det "
                           "lam4_drift loop_drift scenario symplectic_defect_max "
                           "verdict".split())
    assert inv["area_integral_drift_rel"] < 1e-9
    assert inv["lam4_drift"] == 0.0
    assert inv["adjoint_agreement"] < 1e-12
    rows = read_rows(out / "trajectory.csv")[1:]
    radii = np.array([float(r[3]) for r in rows])
    assert np.max(np.abs(radii - 1.0)) < 1e-9


def test_straightening_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="straightening", t1=1.0, step=1e-3,
                    output_dir=str(out))
    assert main(["run", "--config", cfg]) == 0
    assert "VERDICT=canonical" in capsys.readouterr().out
    inv = json.loads((out / "invariants.json").read_text())
    assert set(inv) == set("boundary energy_mismatch loop_drift mu_defect "
                           "pde_residual_max scenario verdict ydot_max_err".split())
    assert inv["pde_residual_max"] < 1e-8
    assert inv["ydot_max_err"] < 1e-6
    assert inv["mu_defect"] < 1e-6
    assert "lam_b=1.0" in inv["boundary"]


def test_gnuplot_emission(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="linear", t1=0.2, step=1e-2,
                    output_dir=str(out), emit_gnuplot=True)
    assert main(["run", "--config", cfg]) == 0
    script = (out / "plot.gp").read_text()
    assert "trajectory.csv" in script


# ---------------------------------------------------------------------
# config errors
# ---------------------------------------------------------------------

def test_zero_step_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario="linear", step=0.0)
    assert main(["run", "--config", cfg]) == 2
    assert "config error: step must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tolerances", [{"canonicity": 1e-6}, None, [1e-6, 1e-6, 1e-12]])
def test_library_run_requires_every_tolerance(tmp_path, tolerances):
    out = tmp_path / "out"
    want = "tolerances must be an object holding each of ['canonicity', 'symplectic', 'degenerate']"
    for call in (run, verify, lambda cfg: sweep(cfg, "step", ["0.01"])):
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            call(RunConfig(tolerances=tolerances, output_dir=str(out)))
    assert not out.exists()


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario="linear", stepp=1e-3)
    assert main(["run", "--config", cfg]) == 2
    assert "unknown config field 'stepp'" in capsys.readouterr().err


def test_unknown_scenario_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario="spiral")
    assert main(["run", "--config", cfg]) == 2
    assert "scenario must be one of" in capsys.readouterr().err


def test_custom_scenario_has_no_batch_path(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario="custom")
    assert main(["run", "--config", cfg]) == 2
    assert "scenario must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("fields, name", [
    ({"step": "fast"}, "step"),
    ({"t1": None}, "t1"),
    ({"x0": ["a"]}, "x0"),
    ({"n": True}, "n"),
    ({"scenario": "ballistic", "sigma": "x"}, "sigma"),
    ({"loop_vertices": 8.5}, "loop_vertices"),
    ({"tolerances": {"canonicity": True}}, "canonicity"),
    ({"output_dir": 5}, "output_dir"),
    ({"emit_gnuplot": "no"}, "emit_gnuplot"),
    ({"t1": 0.0}, "t1 must exceed t0"),
    ({"map_variant": "Symplectic119"}, "map_variant must be one of"),
    ({"tolerances": {"energy": 1.0}}, "unknown tolerance 'energy'"),
    ({"scenario": "ballistic", "sigma": -1.0}, "sigma must be positive"),   # from the factory
])
def test_wrongly_typed_field_is_a_config_error(tmp_path, capsys, fields, name):
    cfg = write_cfg(tmp_path, **{"output_dir": str(tmp_path / "out"), **fields})
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed, argv", [(-1, ["run"]), (-1, ["verify"]),
                                        (0, ["sweep", "--param", "seed", "--values", "-1"])])
def test_negative_seed_is_a_config_error(tmp_path, capsys, seed, argv):
    # caught before anything is written, not as a traceback from the cloud
    cfg = write_cfg(tmp_path, scenario="rotation", t1=0.1, step=0.01, seed=seed,
                    output_dir=str(tmp_path / "out"))
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
    assert capsys.readouterr().err == "config error: seed must be a non-negative integer\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario, n", [("ballistic", 4), ("straightening", 1)])
def test_scenario_dimension_is_enforced(tmp_path, capsys, scenario, n):
    cfg = write_cfg(tmp_path, scenario=scenario, n=2)
    assert main(["run", "--config", cfg]) == 2
    assert f"requires n={n}" in capsys.readouterr().err


def test_missing_and_malformed_configs(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    bad.write_text("[1.0]", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


_SWEEP = ["sweep", "--param", "step", "--values", "0.01,0.005"]


@pytest.mark.parametrize("argv", [["run"], ["verify"], _SWEEP], ids=["run", "verify", "sweep"])
def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, argv):
    # UnicodeDecodeError, like JSONDecodeError, is a ValueError of json.load
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main([argv[0], "--config", str(bad), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {str(bad)!r} is not valid JSON: 'utf-8' codec")
    assert err.count("\n") == 1


@pytest.mark.parametrize("output_dir, argv, err", [
    ("", ["run"], r"output_dir must be a nonempty string"),
    ("", _SWEEP, r"output_dir must be a nonempty string"),
    ("", ["verify"], r"output_dir must be a nonempty string"),
    ("a-file", ["run"], r"\[Errno \d+\] File exists: 'a-file'"),
    ("a-file", _SWEEP, r"\[Errno \d+\] Not a directory: 'a-file/step=0\.01'"),
], ids=["empty-run", "empty-sweep", "empty-verify", "file-run", "file-sweep"])
def test_an_unusable_output_path_is_a_config_error(tmp_path, monkeypatch, capsys, output_dir,
                                                   argv, err):
    # "" is refused by validate; a file in place of the directory fails in
    # os.makedirs.  Either way nothing is written, in the working directory
    # or over the file, and one line is printed, not a traceback.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-file").write_text("kept", encoding="utf-8")
    cfg = write_cfg(tmp_path, scenario="linear", t1=0.1, step=0.01, output_dir=output_dir)
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
    out, stderr = capsys.readouterr()
    assert out == "" and re.fullmatch(f"config error: {err}\n", stderr)
    assert sorted(os.listdir(tmp_path)) == ["a-file", "cfg.json"]
    assert (tmp_path / "a-file").read_text(encoding="utf-8") == "kept"


@pytest.mark.parametrize("argv", [[], ["run"], ["walk", "--config", "cfg.json"],
                                  ["sweep", "--config", "cfg.json", "--param", "step"]])
def test_bad_arguments_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage: canomap")


def test_loop_vertices_floor(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario="linear", loop_vertices=4)
    assert main(["run", "--config", cfg]) == 2
    assert "at least 8" in capsys.readouterr().err


@pytest.mark.parametrize("t0, t1, step", [
    (1e9, 1000000001.0, 5e-8),
    # half the spacing 2**-23 at 1e9: t0 and t1 have odd last bits, so each
    # rounds up by a whole spacing, but the even t after the first step stays
    (1000000000.0000001, 1000000000.0011922, 2.0 ** -24),
], ids=["below-half-spacing", "half-spacing-tie"])
def test_step_below_float_spacing_is_a_config_error(tmp_path, capsys, t0, t1, step):
    # the march would never advance t
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="linear", t0=t0, t1=t1,
                    step=step, output_dir=str(out))
    assert main(["run", "--config", cfg]) == 2
    assert "below the float spacing of t" in capsys.readouterr().err
    assert not out.exists()


def test_straightening_starts_at_t0(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="straightening", t0=0.5, t1=1.0,
                    step=1e-2, output_dir=str(out))
    assert main(["run", "--config", cfg]) == 0
    rows = read_rows(out / "trajectory.csv")
    assert float(rows[1][0]) == 0.5 and float(rows[-1][0]) == 1.0
    assert len(rows) == 1 + 51


def test_truncated_orbit_keeps_its_exit_stderr_and_trajectory(tmp_path, capsys):
    # radial infall: RK4's later stages fall inside the radius guard, so the
    # last sample's derivative is the one evaluated after the march
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="ballistic", t1=2.0, step=0.01,
                    x0=[0.0, 0.0, 1.0, 0.0], output_dir=str(out))
    assert main(["run", "--config", cfg]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: trajectory truncated at t=1.1100000000000008 "
        "(radius -0.06377078217562995 at or below the guard 1e-06)\n")
    sysb = ballistic_system(1.0)
    traj = integrate(sysb, PhaseState([0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], 0.0), 2.0, 0.01)
    rows = [(s.t, *s.x, *s.lam, hamiltonian(sysb, s)) for s in traj]
    assert len(rows) == 112
    header = "t,x_1,x_2,x_3,x_4,lam_1,lam_2,lam_3,lam_4,H\n"
    assert (out / "trajectory.csv").read_text() == header + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
    assert not (out / "canonicity.csv").exists()


def test_a_start_beyond_the_blowup_limit_truncates_at_t0(tmp_path, capsys):
    # the march tests its start against the 1e12 bound, so it takes no step
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="linear", x0=[1e13], t1=0.1, step=0.01,
                    output_dir=str(out))
    assert main(["run", "--config", cfg]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: trajectory truncated at t=0.0 (state magnitude exceeded 1e12)\n")
    assert read_rows(out / "trajectory.csv") == [["t", "x_1", "lam_1", "H"],
                                                 ["0", "10000000000000", "1", "10000000000000"]]


def test_adjoint_agreement_sees_a_wrong_sign_in_the_lift(tmp_path, monkeypatch):
    # the march and the hand-written adjoint both come from the ballistic
    # lift, so adjoint_agreement can fail only because it reads the jac form
    real = scenarios.ballistic_system

    def mutant(sigma):
        sysb = real(sigma)

        def lift(x, lam, t):   # lam_2' with its sign flipped
            k = np.array(sysb.lift(x, lam, t))
            k[5] = -k[5]
            return k
        return dataclasses.replace(sysb, lift=lift)
    monkeypatch.setattr(scenarios, "ballistic_system", mutant)
    monkeypatch.setattr(cli, "ballistic_system", mutant)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="ballistic", t1=0.5, step=0.01,
                    x0=[0.0, 1.1, 1.0, 0.0], output_dir=str(out))
    assert main(["run", "--config", cfg]) == 0
    assert json.loads((out / "invariants.json").read_text())["adjoint_agreement"] > 1e-12


def test_python_dash_m_exits_with_the_status_of_main(tmp_path):
    # the module's __main__ guard, which only a child interpreter reaches
    cfg = write_cfg(tmp_path, scenario="nope")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-B", "-m", "canomap.cli", "run", "--config", cfg],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")


def test_loop_vertex_blowup_is_a_numerical_failure(tmp_path, capsys):
    # the centre trajectory stays finite; vertices at radius 0.5 cross 1e12
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="linear", t1=29.0, step=0.01,
                    x0=[0.01], lam0=[1.0], output_dir=str(out))
    assert main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: loop flow truncated at t=")
    assert "exceeded 1e12" in err
    assert not (out / "invariants.json").exists()


def test_straightening_needs_nonzero_lam0(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario="straightening", lam0=[1e-9],
                    output_dir=str(tmp_path / "out"))
    assert main(["run", "--config", cfg]) == 2
    assert "away from zero" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()   # rejected before the march


@pytest.mark.parametrize("state", [{"x0": [1e15]}, {"lam0": [2e14]}, {"x0": [-1e14]},
                                   {"x0": [9.99e13]}, {"lam0": [-2e12]}])
def test_straightening_state_beyond_its_grids_is_a_config_error(tmp_path, capsys, state):
    # integrate's blow-up guard would truncate the march at its start
    # (and beyond 1e14 the 0.02-step grids repeat nodes); checked before the
    # march, so nothing is written
    cfg = write_cfg(tmp_path, scenario="straightening", output_dir=str(tmp_path / "out"),
                    **state)
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: straightening scenario needs |x0[0]| and |lam0[0]| at most 1e12\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lam0", [1e12, -1e12])
def test_straightening_at_the_guard_is_degenerate_not_nan(tmp_path, capsys, lam0):
    # residual_check's lam0 +- 1e-5 rounds to lam0, so pde_residual_max is
    # NaN: no verdict rests on it, no warning is raised, and invariants.json
    # holds null, which any JSON parser reads, in place of a bare nan
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, scenario="straightening", lam0=[lam0], output_dir=str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", cfg]) == 3
    assert capsys.readouterr() == ("VERDICT=degenerate max_residual=nan\n",
                                   "numerical failure: pde_residual_max not finite\n")

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    inv = json.loads((out / "invariants.json").read_text(encoding="utf-8"),
                     parse_constant=refuse)
    assert inv["verdict"] == "degenerate" and inv["pde_residual_max"] is None


@pytest.mark.parametrize("argv", [["run"], ["verify"], ["sweep", "--param", "step",
                                                        "--values", "0.01"]])
def test_sigma_whose_square_overflows_is_a_config_error(tmp_path, capsys, argv):
    cfg = write_cfg(tmp_path, scenario="ballistic", sigma=1e200, output_dir=str(tmp_path / "out"))
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
    assert capsys.readouterr().err == (
        "config error: sigma=1e+200 is too large: sigma^2 overflows\n")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------

def test_sweep_step_refinement(tmp_path, capsys):
    base = tmp_path / "sw"
    cfg = write_cfg(tmp_path, scenario="linear", t1=1.0,
                    output_dir=str(base))
    assert main(["sweep", "--config", cfg, "--param", "step",
                 "--values", "1e-2,1e-3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("step=1e-2: VERDICT=canonical")
    assert lines[1].startswith("step=1e-3: VERDICT=canonical")
    rows = read_rows(base / "index.csv")
    assert rows[0] == ["value", "verdict", "max_residual", "energy_drift",
                       "exit_status"]
    drifts = [float(r[3]) for r in rows[1:]]
    # fourth-order integrator: a 10x finer step cuts the drift far more
    # than 10x (until rounding noise takes over)
    assert drifts[1] < drifts[0] / 10.0
    for token in ("step=1e-2", "step=1e-3"):
        assert (base / token / "invariants.json").exists()


def test_sweep_seed_does_not_change_the_physics(tmp_path, capsys):
    base = tmp_path / "sw"
    cfg = write_cfg(tmp_path, scenario="rotation", t1=0.5, step=1e-2,
                    output_dir=str(base))
    assert main(["sweep", "--config", cfg, "--param", "seed",
                 "--values", "1,2,3"]) == 0
    rows = read_rows(base / "index.csv")[1:]
    assert len({(r[1], r[2]) for r in rows}) == 1


def test_sweep_rejects_bad_requests(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario="linear", output_dir=str(tmp_path / "o"))
    assert main(["sweep", "--config", cfg, "--param", "scenario",
                 "--values", "linear"]) == 2
    assert "cannot sweep" in capsys.readouterr().err
    assert main(["sweep", "--config", cfg, "--param", "step",
                 "--values", ","]) == 2
    assert "nonempty" in capsys.readouterr().err
    assert main(["sweep", "--config", cfg, "--param", "step",
                 "--values", "fast"]) == 2
    assert "cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("values, err", [
    ("0.01,-1", "step must be positive"),
    ("0.01,fast", "cannot parse 'fast' as float for 'step'"),
], ids=["invalid", "unparsable"])
def test_sweep_checks_every_value_before_the_first_run(tmp_path, monkeypatch, capsys,
                                                        values, err):
    # a bad later value is refused before the good first one writes anything
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, scenario="linear", t1=0.1, step=0.01, output_dir="out")
    assert main(["sweep", "--config", cfg, "--param", "step", "--values", values]) == 2
    assert capsys.readouterr() == ("", f"config error: {err}\n")
    assert os.listdir(tmp_path) == ["cfg.json"]


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------

def test_verify_rotation_blocks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario="rotation")
    assert main(["verify", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    pat = re.compile(r"^(sys|cf)\.\w+: max rel err \d\.\d{3}e[+-]\d{2} OK$")
    assert lines and all(pat.fullmatch(ln) for ln in lines)
    assert any(ln.startswith("cf.ux:") for ln in lines)


def test_verify_linear_has_no_cf_lines(tmp_path, capsys):
    cfg = write_cfg(tmp_path, scenario="linear")
    assert main(["verify", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(ln.startswith("sys.") for ln in lines)


@pytest.mark.parametrize("scenario", ["ballistic", "straightening"])
def test_verify_system_only_scenarios(tmp_path, capsys, scenario):
    cfg = write_cfg(tmp_path, scenario=scenario)
    assert main(["verify", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    pat = re.compile(r"^sys\.\w+: max rel err \d\.\d{3}e[+-]\d{2} OK$")
    # both systems supply a lift, checked against f and jac
    assert [ln.split(":")[0] for ln in lines] == ["sys.ft", "sys.jac", "sys.lift"]
    assert all(pat.fullmatch(ln) for ln in lines)


def _straightening_system(lift=None):
    system = cli.SCENARIOS["straightening"].system(RunConfig(scenario="straightening"))
    return system if lift is None else dataclasses.replace(system, lift=lift)


def _lift_bit_differences(system):
    """Where system's lift and the array route of the same system built
    without it, (f, (-A^T) lam), differ in any bit, signed zeros included:
    _stage at lam of both signs, zero and -0.0, and integrate's columns."""
    plain = dataclasses.replace(system, lift=None)
    lifted, arrays = hamilton._stage(system), hamilton._stage(plain)
    bits = lambda k: struct.pack(f"{len(k)}d", *k)
    lams = (0.7, -0.7, 0.0, -0.0, 1e12, -5e-324)
    diffs = [("stage", x, lam) for x in (0.3, -0.3) for lam in lams
             if bits(lifted([x, lam], 0.1)) != bits(arrays([x, lam], 0.1))]
    for lam in lams[:4]:
        a, b = (integrate(s, PhaseState([0.3], [lam], 0.0), 0.5, 0.01) for s in (system, plain))
        diffs += [(col, 0.3, lam) for col in ("x", "lam", "xdot", "lamdot")
                  if not (np.array_equal(getattr(a, col), getattr(b, col)) and np.array_equal(
                      np.signbit(getattr(a, col)), np.signbit(getattr(b, col))))]
    return diffs


def test_straightening_lift_is_the_array_route_bit_for_bit():
    system = _straightening_system()
    assert system.lift is not None
    assert _lift_bit_differences(system) == []


@pytest.mark.parametrize("lift, exit_code, caught", [
    # an offset lamdot: verify's lift block fails
    (lambda x, lam, t: [0.0, 1e-3], 1, ("lamdot", 0.3, 0.7)),
    # lamdot = -0.0 for lam > 0, where (-A^T) lam is +0.0: verify reads 0
    # error, and only the bit comparison sees it
    (lambda x, lam, t: [0.0, -0.0 * lam[0]], 0, ("stage", 0.3, 0.7)),
], ids=["offset", "signed-zero"])
def test_a_wrong_straightening_lift_is_caught(tmp_path, capsys, monkeypatch, lift, exit_code,
                                              caught):
    mutant = _straightening_system(lift)
    assert caught in _lift_bit_differences(mutant)
    rep = verify_derivatives(mutant, [PhaseState([0.3], [0.7], 0.0)])
    assert rep.failing == (("lift",) if exit_code else ())
    monkeypatch.setitem(cli.SCENARIOS, "straightening", dataclasses.replace(
        cli.SCENARIOS["straightening"], system=lambda cfg: mutant))
    assert main(["verify", "--config", write_cfg(tmp_path, scenario="straightening")]) == exit_code
    lift_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert lift_line.startswith("sys.lift: ")
    assert lift_line.endswith(" FAIL" if exit_code else "max rel err 0.000e+00 OK")


# ---------------------------------------------------------------------
# determinism and output routing
# ---------------------------------------------------------------------

def test_repeat_runs_are_bit_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_a = write_cfg(tmp_path, "a.json", scenario="rotation", t1=0.5,
                      step=1e-2, output_dir=str(out_a))
    cfg_b = write_cfg(tmp_path, "b.json", scenario="rotation", t1=0.5,
                      step=1e-2, output_dir=str(out_b))
    assert main(["run", "--config", cfg_a]) == 0
    assert main(["run", "--config", cfg_b]) == 0
    for artifact in ("trajectory.csv", "canonicity.csv", "invariants.json"):
        assert (out_a / artifact).read_bytes() == (out_b / artifact).read_bytes()


def test_output_dir_env_override(tmp_path, monkeypatch):
    configured = tmp_path / "configured"
    actual = tmp_path / "actual"
    monkeypatch.setenv("CANOMAP_OUT", str(actual))
    cfg = write_cfg(tmp_path, scenario="linear", t1=0.2, step=1e-2,
                    output_dir=str(configured))
    assert main(["run", "--config", cfg]) == 0
    assert (actual / "invariants.json").exists()
    assert not configured.exists()


# ---------------------------------------------------------------------
# invariants.json and CSV formatting
# ---------------------------------------------------------------------

def test_invariants_writer_bytes(tmp_path):
    path = tmp_path / "invariants.json"
    _write_json(path, {"b": 0.1, "a": None, "c": "x"})
    assert path.read_bytes() == b'{\n  "a": null,\n  "b": 0.10000000000000001,\n  "c": "x"\n}\n'
    _write_json(path, {"nan": float("nan"), "np": np.float64(-2.5), "s": 'say "hi"'})
    assert path.read_bytes() == b'{\n  "nan": null,\n  "np": -2.5,\n  "s": "say \\"hi\\""\n}\n'
    # a non-finite float is null, so the file stays JSON that any parser reads
    _write_json(path, {"a": np.float64(np.inf), "b": -np.inf})
    assert path.read_bytes() == b'{\n  "a": null,\n  "b": null\n}\n'


@pytest.mark.parametrize("value", [True, 1, [1.0], {"a": 1.0}],
                         ids=["bool", "int", "list", "dict"])
def test_invariants_writer_refuses_what_no_producer_emits(tmp_path, value):
    path = tmp_path / "invariants.json"
    with pytest.raises(TypeError, match="^cannot serialize"):
        _write_json(path, {"a": 0.5, "b": value})
    assert not path.exists()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 123456789.0]


def _csv_bytes(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        _write_csv(path, ["a"] * rows.shape[1], rows)
        with open(path, "rb") as fh:
            return fh.read()


def _assert_per_value_format(rows):
    text = _csv_bytes(rows).decode()
    want = "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)
    assert text == ",".join(["a"] * rows.shape[1]) + "\n" + want
    back = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])
    assert back.reshape(rows.shape).tobytes() == rows.tobytes()   # sign bits included


@given(k=st.integers(1, 10), data=st.data())
def test_block_formatting_is_the_per_value_format(k, data):
    floats = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    n = data.draw(st.integers(1, 12))
    _assert_per_value_format(np.array(data.draw(st.lists(floats, min_size=n * k,
                                                         max_size=n * k))).reshape(n, k))


def test_block_formatting_across_block_seams():
    rng = np.random.default_rng(11)
    for k in (1, 4, 10):
        rows = rng.standard_normal((2500, k)) * 10.0 ** rng.integers(-320, 300, (2500, k))
        rows[::97] = EDGE_FLOATS[rng.integers(len(EDGE_FLOATS))]
        _assert_per_value_format(rows)

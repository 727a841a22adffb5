"""The CLI's input contract, over drawn configs through run, sweep and verify.

Whatever a flat-JSON config holds, `canomap` answers with an exit code
0-3 and no traceback; it raises no warning; it prints at most one stderr
line per run; on exit 2 it writes nothing; every JSON artifact it writes
is strict JSON (no NaN or Infinity); and with exit 0 or 1 its stdout holds
no nan.  Each run marches at most 2e4 steps and n is at most 4 (the
one-state march compiles code whose size grows with n), so the 120
examples take a few seconds.
"""
import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from canomap import cli

MAX_STEPS = 20_000
SCENARIOS = ("linear", "rotation", "ballistic", "straightening")

# Values at the edges that earlier defects sat on: signed zeros, subnormals,
# integrate's blow-up limit 1e12 and the float after it, and values whose
# square or difference quotient overflows.
EDGES = (0.0, -0.0, 5e-324, 1e-300, 0.05, 1e6, 1e9, 1e11, 1e12, -1e12,
         math.nextafter(1e12, math.inf), 1e100, -1e100)
floats = st.floats(-3.0, 3.0) | st.sampled_from(EDGES)
# Not a finite number of the right type: validate must refuse each.
odd = st.sampled_from([None, "x", True, [], {}, math.nan, math.inf, -math.inf])
# sigma up to its overflow guard (sigma^2 finite up to about 1.34e154)
sigmas = st.floats(1e-3, 10.0) | st.sampled_from(
    [5e-324, 1e-300, 1e150, 1e154, 1.3e154, 1.34e154, 0.0, -1.0])
# output_dir names relative to a fresh working directory; no "/" or ".." can
# leave it.  "", an embedded NUL and a lone surrogate must be config errors.
out_dirs = (st.sampled_from(["out", ".", "out=1", " ", "é"])
            | st.text(st.characters(exclude_characters="/\0"), min_size=1, max_size=6)
            .filter(lambda s: s != ".."))
bad_out_dirs = st.sampled_from(["", "a\0b", "\ud800"])


@st.composite
def cases(draw):
    """A config dict and the command line that runs it."""
    scenario = draw(st.sampled_from(SCENARIOS))
    own = {"ballistic": 4, "straightening": 1}.get(scenario)   # the one n it admits
    # None: the scenario's own n; a fixed-n scenario meets another n rarely
    n = draw(st.none() | (st.integers(1, 3) if own is None else st.sampled_from([own, own, 2])))
    dim = n or own or 1
    step = draw(st.sampled_from([1e-3, 0.01, 0.1, 0.5, 1e-6]) | st.floats(1e-4, 1.0))
    t0 = draw(st.sampled_from([0.0, -1.0, 0.2, 1e6]))
    steps = 2 ** draw(st.integers(0, 14))   # at most 16,384 steps
    cfg = {"scenario": scenario, "t0": t0, "t1": t0 + steps * step, "step": step,
           "output_dir": draw(out_dirs), **({} if n is None else {"n": n})}
    optional = {
        "x0": st.lists(floats, min_size=dim, max_size=dim),
        "lam0": st.lists(floats, min_size=dim, max_size=dim),
        "sigma": sigmas,
        "seed": st.integers(0, 2 ** 64) | st.sampled_from([2 ** 200]),
        "map_variant": st.sampled_from(["Std116", "Cross220", "Symplectic119"]),
        "loop_vertices": st.sampled_from([8, 9, 64, 100]),
        "emit_gnuplot": st.booleans(),
    }
    for name in draw(st.sets(st.sampled_from(sorted(optional)))):
        cfg[name] = draw(optional[name])
    if draw(st.integers(0, 3)) == 0:   # one field of a wrong type
        name = draw(st.sampled_from(sorted(cfg)))
        cfg[name] = draw(bad_out_dirs | odd if name == "output_dir" else odd)
    command = draw(st.sampled_from(["run", "sweep", "verify"]))
    if command != "sweep":
        return cfg, [command]
    param = draw(st.sampled_from(sorted(cli._SWEEP_PARAMS)))
    tokens = {"n": st.integers(0, 4).map(str), "seed": st.integers(-1, 9).map(str),
              "loop_vertices": st.sampled_from(["7", "8", "16", "8.5"]),
              "sigma": sigmas.map(repr), "step": st.sampled_from(["0.01", "0.1", "0.5", "0"]),
              "t0": st.sampled_from(["0", "-0.5", "0.1", "nan"]),
              "t1": st.sampled_from(["0.5", "2", "1e999", "x"])}[param]
    values = draw(st.lists(tokens, min_size=1, max_size=2))
    return cfg, ["sweep", "--param", param, "--values", ",".join(values)]


def _steps(cfg, argv):
    """The largest step count of any run the command starts (0 where the
    grid fields are not finite numbers: validate refuses those first)."""
    runs = [cfg]
    if argv[0] == "sweep" and argv[2] in ("t0", "t1", "step"):
        for token in argv[4].split(","):
            try:
                runs.append(dict(cfg, **{argv[2]: float(token)}))
            except ValueError:
                pass
    counts = [0.0]
    for c in runs:
        t0, t1, step = (c.get(k, getattr(cli.RunConfig, k)) for k in ("t0", "t1", "step"))
        if all(isinstance(v, float) and math.isfinite(v) for v in (t0, t1, step)) and step > 0:
            counts.append((t1 - t0) / step)
    return max(counts)


def _refuse(token):
    raise ValueError(f"not strict JSON: {token}")


@settings(derandomize=True, max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
@example(case=({"scenario": "linear", "output_dir": "a\0b"}, ["run"]))
@example(case=({"scenario": "linear", "output_dir": "a\0b"},
               ["sweep", "--param", "step", "--values", "0.01"]))
@example(case=({"scenario": "linear", "output_dir": "\ud800"}, ["run"]))
@example(case=({"scenario": "ballistic", "sigma": 1.3e154, "lam0": [2.0, 0.0, 0.0, 0.0]},
               ["run"]))   # lam . f overflows in the energy check
@example(case=({"scenario": "ballistic", "sigma": 1e154}, ["verify"]))
@example(case=({"scenario": "ballistic", "sigma": 1.3e154}, ["verify"]))
@example(case=({"scenario": "linear", "t1": 0.1, "step": 0.01, "output_dir": "out"},
               ["sweep", "--param", "seed", "--values", "0,1" + "0" * 300]))   # a name > 255 bytes
def test_cli_keeps_its_input_contract(case):
    cfg, argv = case
    assume(_steps(cfg, argv) <= MAX_STEPS)
    runs = len(argv[4].split(",")) if argv[0] == "sweep" else 1
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as conf, tempfile.TemporaryDirectory() as work:
        path = os.path.join(conf, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = cli.main([argv[0], "--config", path, *argv[1:]])
        finally:
            os.chdir(here)
        assert code in (0, 1, 2, 3)
        assert len(err.getvalue().splitlines()) <= runs, err.getvalue()
        if code == 2:
            assert not os.listdir(work)
        if code in (0, 1):
            assert "nan" not in out.getvalue().lower()
        for root, _dirs, files in os.walk(work):
            for name in (f for f in files if f.endswith(".json")):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    json.loads(fh.read(), parse_constant=_refuse)

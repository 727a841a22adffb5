"""The benchmark's tracer still binds every name it patches in canomap, and
its `synthesis` session still passes its own gate and does the same work."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from canomap.phasecore import ControllingFunction

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src"), str(ROOT / "perfbench")]))


def test_tracer_installs_over_the_source_tree():
    # perfbench/tracing.py patches names where callers look them up, such as
    # liemap.compose_flow, invariants.integrate and cli.hamiltonian; install()
    # raises AttributeError once a rename or deletion in src/ loses one.
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


SESSION = """
import json, os, sys, tempfile
import gate, session
from workloads import EXPECT_VERDICT, WORKLOADS
work = WORKLOADS["synthesis"]
with tempfile.TemporaryDirectory() as out:
    verdict = session.run(work.inputs(0), os.path.join(out, "session.json"))
    attempted, failed, reasons = gate.check(work, 0, f"VERDICT={verdict}\\n", out,
                                            EXPECT_VERDICT)
    json.dump({"attempted": attempted, "failed": failed, "reasons": reasons,
               "invert_counts": gate.invert_counts(out)}, sys.stdout)
"""


def test_synthesis_session_passes_its_gate():
    # The library session reads Trajectory.times(), Trajectory.samples and
    # FundamentalMatrix.values.  The gate still forgives an FD-backed
    # invert_map that raises ConvergenceError, so every inversion's
    # convergence is asserted here as well.
    proc = subprocess.run([sys.executable, "-c", SESSION], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["failed"] == 0, res["reasons"]
    assert res["attempted"] == 157
    assert res["invert_counts"] == {"analytic": [50, 50], "fd": [50, 50]}


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # for dataclasses
    spec.loader.exec_module(module)
    return module


def test_fd_backed_inversions_evaluate_u_a_fixed_number_of_times():
    # The session's 50 FD-backed round trips (seed 0): apply_map, then
    # invert_map, with U given by value alone.  Work around U's calls, such
    # as the central-difference kernel or Newton's bookkeeping, may get
    # cheaper; the calls themselves stay 12,707 (400 of them forward).
    session, workloads = _perfbench_module("session"), _perfbench_module("workloads")
    params = workloads.WORKLOADS["synthesis"].inputs(0)
    fd = session._test_functions(params["invert_eps"])[1]
    calls = []
    counted = ControllingFunction(2, lambda x, lam, t: calls.append(None) or fd.u(x, lam, t))
    ops = []
    session._invert(params, {"fd": counted}, ops)
    assert [op["converged"] for op in ops] == [True] * 50
    assert len(calls) == 12707

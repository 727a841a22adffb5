"""The benchmark's tracer still binds every name it patches in canomap, and
its `synthesis` session still passes its own gate."""
import json
import os
import subprocess
import sys
from pathlib import Path

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

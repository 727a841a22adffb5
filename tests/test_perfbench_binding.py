"""The benchmark's tracer still binds every name it patches in canomap."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_over_the_source_tree():
    # perfbench/tracing.py patches names where callers look them up, such as
    # liemap.compose_flow, invariants.integrate and cli.hamiltonian; install()
    # raises AttributeError once a rename or deletion in src/ loses one.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

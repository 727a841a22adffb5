"""canomap benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (canomap is imported from ./src).  Each
iteration runs in a fresh child process, one child at a time, with BLAS
threads pinned to 1.  New iterations start until S seconds have passed
(at least MIN_ITERATIONS), and every iteration's outputs go through the
correctness gate.  With --trace 0 the end-to-end metrics are printed; with
--trace 1 iterations alternate untraced and traced, and the per-layer
metrics of the traced ones are printed together with trace.overhead_s.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Details (provenance, every sample, gate reasons, spans) go to
perfbench/.work/<workload>-seed<N>-trace<T>/.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from workloads import EXPECT_VERDICT, WORKLOADS  # noqa: E402

MIN_ITERATIONS = {0: 3, 1: 4}
# Time of child.kernel_s() at the reference host speed.  The host's speed
# swings by about 1.5x within seconds, so every time is also reported
# scaled to this speed: t * K_REF_S / (kernel time measured next to t).
K_REF_S = 0.024
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0          # every child is killed before the run exceeds this
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("CANOMAP_OUT", "PYTHONPATH", "PYTHONSTARTUP")}
    env.update(BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Launches iterations of one workload, one child at a time."""

    def __init__(self, workload, src, work, input_path, deadline):
        self.workload = workload
        self.src = src
        self.work = work
        self.input_path = input_path
        self.deadline = deadline
        self.env = _child_env()
        self.count = 0

    def launch(self, setup_only=False, trace=False):
        """Run one child; return its outcome dict (None on crash or timeout)."""
        idir = os.path.join(self.work, f"iter-{self.count:03d}")
        self.count += 1
        os.makedirs(idir)
        spec = {"src": self.src, "kind": self.workload.kind, "input": self.input_path,
                "setup_only": setup_only, "trace": trace}
        spec_path = os.path.join(idir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                cwd=idir, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"perfbench: iteration timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        try:
            with open(os.path.join(idir, "result.json"), encoding="utf-8") as fh:
                res = json.load(fh)
        except (OSError, ValueError):
            print(f"perfbench: child failed (exit {proc.returncode}):\n{stderr[-2000:]}",
                  file=sys.stderr)
            return None
        res.update(dir=idir, out_dir=os.path.join(idir, "out"), stdout=stdout, traced=trace)
        res["setup_raw_s"] = res["t_ready"] - t_spawn
        res["setup_s"] = res["setup_raw_s"] * K_REF_S / res["k_before"]
        if "wall_s" in res:
            res["wall_raw_s"] = res["wall_s"]
            res["wall_s"] *= K_REF_S / (0.5 * (res["k_before"] + res["k_after"]))
        return res


def _git_commit(root):
    """HEAD of the checkout if it is a git repository, else None."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if "_frac" in name:
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that Runner.launch kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    run_start = time.monotonic()
    root = os.path.dirname(HERE)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "canomap", "__init__.py")):
        print(f"perfbench: no canomap sources under {src}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    provenance = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loadavg_start": _loadavg(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": _git_commit(root), "blas_threads": BLAS_ENV,
    }

    work = os.path.join(HERE, ".work", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    input_path = os.path.join(work, "input.json")
    with open(input_path, "w", encoding="utf-8") as fh:
        json.dump(workload.inputs(args.seed), fh, indent=1, sort_keys=True)
    runner = Runner(workload, src, work, input_path, run_start + RUN_LIMIT_S)

    # The first child compiles bytecode; its setup time is not a sample.
    setups = []
    for i in range(SETUP_PROBES + 1):
        res = runner.launch(setup_only=True)
        if res is None:
            return 3
        if i:
            setups.append((res["setup_s"], res["setup_raw_s"]))
        shutil.rmtree(res["dir"])

    attempted = failed = 0
    reasons = []
    samples = []
    ref_hashes = None
    selftest = {}
    invert = None
    spans = None
    t_loop = time.monotonic()
    while (len(samples) < MIN_ITERATIONS[args.trace]
           or time.monotonic() - t_loop < args.seconds):
        res = runner.launch(trace=trace and len(samples) % 2 == 1)
        if res is None:
            attempted += 1
            failed += 1
            reasons.append(f"iteration {len(samples)}: child crashed or timed out")
            break
        a, f, why = gate.check(workload, res["exit_code"], res["stdout"], res["out_dir"],
                               EXPECT_VERDICT, ref_hashes)
        attempted += a
        failed += f
        reasons += [f"iteration {len(samples)}: {r}" for r in why]
        if ref_hashes is None:
            ref_hashes = gate.sha256s(res["out_dir"], workload.artifacts)
            selftest = gate.self_test(workload, res["exit_code"], res["stdout"],
                                      res["out_dir"], ref_hashes, work)
            if workload.kind == "session":
                invert = gate.invert_counts(res["out_dir"])
        setups.append((res["setup_s"], res["setup_raw_s"]))
        samples.append({k: res.get(k) for k in
                        ("wall_s", "wall_raw_s", "setup_s", "setup_raw_s", "k_before",
                         "k_after", "maxrss_kb", "exit_code", "traced", "layers")})
        if spans is None:
            spans = res.get("spans")
        shutil.rmtree(res["dir"])

    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    provenance["iterations"] = {"untraced": len(plain), "traced": len(traced),
                                "setup_probes": SETUP_PROBES}
    correct = failed == 0 and bool(selftest) and all(selftest.values())

    if trace:
        names = sorted({k for s in traced for k in (s["layers"] or {})})
        metrics = {n: {"value": _median([s["layers"][n] for s in traced]),
                       "unit": _layer_unit(n)} for n in names}
        metrics["trace.overhead_s"] = {
            "value": _median([s["wall_s"] for s in traced]) - _median([s["wall_s"] for s in plain]),
            "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": _median([s["wall_s"] for s in plain]), "unit": "s"},
            "setup_s": {"value": _median([s for s, _raw in setups]), "unit": "s"},
            "peak_rss_mb": {"value": _median([s["maxrss_kb"] / 1024.0 for s in plain]),
                            "unit": "MB"},
        }

    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    raw = {"wall_raw_s": _median([s["wall_raw_s"] for s in plain]),
           "setup_raw_s": _median([r for _s, r in setups]),
           "kernel_s": _median([s["k_before"] for s in samples])}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "raw": raw, "provenance": provenance, "samples": samples,
                   "setup_samples": setups, "gate_reasons": reasons,
                   "gate_selftest": selftest, "invert_map_converged": invert},
                  fh, indent=1)
    if spans is not None:
        with open(os.path.join(work, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "layers": metrics}, fh, indent=1)

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced iterations, "
          f"{len(setups)} setup samples")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"  {name:<44} {value:.6g} s (measured, not scaled)")
    print(f"  {'ops_failed_frac':<44} {failed / max(attempted, 1):.6g} ratio "
          f"({failed}/{attempted})")
    print("  gate self-test: " + ", ".join(
        f"{k} {'caught' if v else 'MISSED'}" for k, v in selftest.items()))
    if invert:
        print("  known defect: invert_map converged on " + ", ".join(
            f"{ok_}/{n} points with {kind} U" for kind, (ok_, n) in sorted(invert.items())))
    for r in reasons[:10]:
        print(f"  gate: {r}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

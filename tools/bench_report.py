"""Collate one perfbench pass over every workload into BENCH_<pr>.json.

    python3 tools/bench_report.py --pr N [--seed S] [--out PATH]

Run from the root of a checkout.  For each workload that BENCHMARK.json
declares, perfbench/run.py runs unchanged for BENCHMARK.json's run_seconds,
first with --trace 0 (end-to-end metrics) and then with --trace 1 (per-layer
metrics).  This script reads the
result.json that each run leaves in perfbench/.work/ and keeps:

- the run's provenance (host, versions, commit, iteration counts);
- the median and quartiles of every end-to-end sample, scaled to the
  reference host speed and as measured (`*_raw_s`);
- the traced per-layer metrics;
- the verdict of the benchmark's gate (correct, attempted, failed).

Last, it times the Tier-1 suite and records the size of the package:
`src_lines`, the `wc -l src/canomap/*.py` total; `src_tokens`, each
module's count of `tokenize` tokens without COMMENT and NL (the parser
grows its token array in doublings, past 4,096 entries the first that a
module here reaches); and `all_size`, the length of `canomap.__all__` as a
fresh interpreter imports it.  Next to the commit
that perfbench names, `src_sha256` (a sha256 over the sorted names and bytes
of src/canomap/*.py) and `src_dirty` (whether `git status --porcelain -- src`
prints anything; null outside git) say which source was measured, also when
it was not committed.  Standard library only; it measures nothing itself
besides the Tier-1 wall time.
"""
import argparse
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
import tokenize

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
# -B: the timed suite writes no bytecode into the source tree.
TIER1 = [sys.executable, "-B", "-m", "pytest", "-q", "--continue-on-collection-errors"]


def spread(values):
    """Median and quartiles (inclusive method) of the samples."""
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def perfbench(workload, seed, seconds, trace):
    """Run perfbench/run.py once; return its result.json and exit code."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # 0 correct, 1 gate failed; else no result
        sys.exit(f"bench_report: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    path = os.path.join(ROOT, "perfbench", ".work", f"{workload}-seed{seed}-trace{trace}",
                        "result.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh), proc.returncode


def end_to_end(result):
    plain = [s for s in result["samples"] if not s["traced"]]
    out = {name: dict(spread([s[name] for s in plain]), unit="s")
           for name in ("wall_s", "wall_raw_s")}
    for i, name in enumerate(("setup_s", "setup_raw_s")):
        out[name] = dict(spread([pair[i] for pair in result["setup_samples"]]), unit="s")
    out["peak_rss_mb"] = dict(spread([s["maxrss_kb"] / 1024.0 for s in plain]), unit="MB")
    return out


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))


def src_files():
    """(name, bytes) of every src/canomap/*.py, sorted by name."""
    pkg = os.path.join(ROOT, "src", "canomap")
    out = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                out.append((name, fh.read()))
    return out


def src_lines(files):
    """Newlines in the files, the total that `wc -l` prints."""
    return sum(data.count(b"\n") for _name, data in files)


def src_tokens(files):
    """{file name: tokenize tokens that are not COMMENT or NL}."""
    return {name: sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                      for tok in tokenize.tokenize(io.BytesIO(data).readline))
            for name, data in files}


def src_sha256(files):
    """sha256 over each file's name, a NUL, and its bytes, in name order."""
    digest = hashlib.sha256()
    for name, data in files:
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


def src_dirty():
    """Whether `git status --porcelain -- src` prints anything; None outside git."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def all_size():
    """len(canomap.__all__), read in a child interpreter."""
    code = "import canomap; print(len(canomap.__all__))"
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, check=True)
    return int(proc.stdout)


def tier1():
    start = time.monotonic()
    proc = subprocess.run(TIER1, cwd=ROOT, env=src_env(), capture_output=True, text=True)
    wall = time.monotonic() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|errors?|skipped)", tail)}
    return {"command": "PYTHONPATH=src python -B -m pytest -q --continue-on-collection-errors",
            "wall_s": wall, "exit_code": proc.returncode, "counts": counts, "summary": tail}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="default: BENCH_<pr>.json at the root")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    files = src_files()   # read before the runs: the source they measure
    report = {"pr": args.pr, "seed": args.seed, "seconds": seconds,
              "perfbench": " ".join(bench["command"]), "workloads": {},
              "src_lines": src_lines(files), "src_tokens": src_tokens(files),
              "src_sha256": src_sha256(files),
              "src_dirty": src_dirty()}
    for w in bench["workloads"]:
        name = w["name"]
        entry = {}
        for trace in (0, 1):
            print(f"bench_report: {name} --trace {trace}", file=sys.stderr, flush=True)
            result, code = perfbench(name, args.seed, seconds, trace)
            summary = result["summary"]
            run = {"exit_code": code, "correct": summary["correct"],
                   "attempted": summary["attempted"], "failed": summary["failed"],
                   "provenance": result["provenance"]}
            if trace:
                run["layers"] = summary["metrics"]
            else:
                run["end_to_end"] = end_to_end(result)
                if result.get("invert_map_converged"):
                    run["invert_map_converged"] = result["invert_map_converged"]
            entry[f"trace{trace}"] = run
        report["workloads"][name] = entry
    print("bench_report: tier-1", file=sys.stderr, flush=True)
    report["tier1"] = tier1()
    report["all_size"] = all_size()
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    ok = all(run["correct"] for entry in report["workloads"].values() for run in entry.values())
    print(f"bench_report: wrote {out}; every run correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

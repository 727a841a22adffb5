"""sha256 of every `canomap run`/`sweep`/`verify` output, per source tree.

    python3 tools/cli_digest.py ROOT [ROOT ...]

ROOT is a checkout holding src/canomap.  Each case runs in a fresh
interpreter; one line per artifact, stdout, stderr and exit code.  Besides
the CLI cases, the benchmark's `synthesis` library session (perfbench/
session.py, seeds 0-2) runs against each tree, which reaches the layers no
CLI case does: fundamental_matrix, synthesize_lambda0, FD-backed invert_map,
verify_derivatives and compose_flow.  The session code is read from this
checkout's perfbench/ for every tree, and nothing is written there.  The
`api` case writes api.json, {name: "type name signature"} for each name of
the sorted `canomap.__all__` (the type name alone where inspect.signature
fails, the repr in place of a signature for a value that is not callable),
so a lost or gained public name, and a changed signature or dataclass
field, is listed by key.  With
two or more roots, exits 1 unless every tree matches the first byte for byte,
and names each tag (case, command, artifact) whose digest differs.  Under a
differing `.json` artifact it lists the top-level keys the tree lost and
gained, and each key whose value changed as `old -> new` (a nested value by
its key alone); under a differing `.csv` artifact, each column that changed,
with its largest absolute change where both trees wrote the same number of
numeric cells; under a differing `stdout` or `stderr` stream, the lines it
lost (`- `) and gained (`+ `).  So a declared re-baseline can be audited key
by key, column by column and line by line.
"""
import csv
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

CASES = {
    "linear": {"scenario": "linear", "t1": 0.5, "step": 0.01, "emit_gnuplot": True},
    "linear-n2": {"scenario": "linear", "n": 2, "t1": 0.5, "step": 0.01,
                  "map_variant": "Cross220", "lam0": [0.5, -1.0]},
    # 2n = 80: one state of 80 floats, far wider than the other cases' march
    "linear-n40": {"scenario": "linear", "n": 40, "t1": 0.5, "step": 0.01},
    # n = 80: the canonicity pass takes 2^16 / n^2 = 10 samples at a time, so
    # its 21 samples cross three passes
    "linear-n80": {"scenario": "linear", "n": 80, "t1": 0.2, "step": 0.01},
    # the verdict gates at their fixed values in a "tolerances" object, which no
    # config may hold: run, sweep and verify exit 2 with one line, writing nothing
    "linear-tolerances": {"scenario": "linear", "t1": 0.5, "step": 0.01, "tolerances": {
        "canonicity": 1e-6, "symplectic": 1e-6, "degenerate": 1e-12}},
    "rotation": {"scenario": "rotation", "t1": 0.5, "step": 0.01, "seed": 3},
    "rotation-n2": {"scenario": "rotation", "n": 2, "t1": 0.3, "step": 0.01},
    "rotation-wide": {"scenario": "rotation", "t1": 0.5, "step": 0.01, "seed": 5,
                      "loop_vertices": 200, "x0": [0.7], "lam0": [-1.3]},
    # seed < 0: run, sweep and verify exit 2 before anything is written
    "rotation-negseed": {"scenario": "rotation", "t1": 0.5, "step": 0.01, "seed": -1},
    "ballistic": {"scenario": "ballistic", "t1": 1.0, "step": 0.01,
                  "x0": [0.0, 1.1, 1.0, 0.0], "emit_gnuplot": True},
    "ballistic-fall": {"scenario": "ballistic", "t1": 2.0, "step": 0.01,
                       "x0": [0.0, 0.0, 1.0, 0.0]},
    "ballistic-n2": {"scenario": "ballistic", "n": 2},
    # the benchmark's ballistic-long shape: 5,001 samples cross the 1,024-row
    # blocks of the canonicity pass, and lam0 has both signs
    "ballistic-long": {"scenario": "ballistic", "t1": 5.0, "step": 1e-3,
                       "x0": [0.0, 1.1, 1.0, 0.0], "lam0": [0.3, -0.7, 0.5, -0.2]},
    "straightening": {"scenario": "straightening", "t1": 0.5, "step": 0.01,
                      "x0": [0.3], "map_variant": "Cross220", "emit_gnuplot": True},
    "straightening-late": {"scenario": "straightening", "t0": 0.2, "t1": 0.7, "step": 0.01,
                           "x0": [-0.4], "lam0": [2.5]},
    # c = lam0 = 0.05: the weight e^{(s - b)/c} falls by e^-0.4 across each 0.02-wide
    # cell, the steepest integrating factor of these cases
    "straightening-refine": {"scenario": "straightening", "t1": 0.5, "step": 0.01,
                             "lam0": [0.05]},
    # c = lam0 < 0: the weight is heavier at each cell's start
    "straightening-backward": {"scenario": "straightening", "t1": 0.5, "step": 0.01,
                               "x0": [0.2], "lam0": [-0.8]},
    # lam0 = c too close to zero: run and sweep exit 2 before the march and
    # write nothing, while verify checks the field's derivatives and exits 0
    "straightening-lam0-zero": {"scenario": "straightening", "lam0": [1e-9]},
    # x0 beyond integrate's blow-up limit (1e12): run and sweep exit 2 before
    # the march and write nothing, where the march would truncate at once
    "straightening-at-guard": {"scenario": "straightening", "x0": [2e12]},
    # lam0 at the guard: residual_check's lam +- 1e-5 rounds to lam, so the
    # PDE residual is NaN and the verdict degenerate (exit 3)
    "straightening-lam0-1e12": {"scenario": "straightening", "lam0": [1e12]},
    # a NUL character in output_dir: run, sweep and verify exit 2 with one
    # line and write nothing (a case's own output_dir replaces the default)
    "linear-outdir-nul": {"scenario": "linear", "output_dir": "out/a\u0000b"},
    # sigma^2 = 1e308 is finite, but 2 sigma^2 in the Jacobian is not: verify
    # exits 3 with one numerical-failure line
    "ballistic-sigma-1e154": {"scenario": "ballistic", "sigma": 1e154},
    # lam . f overflows at the start: run exits 3 with one line, and sweep
    # records each value as a degenerate row of index.csv
    "ballistic-hamiltonian-overflow": {"scenario": "ballistic", "sigma": 1e150,
                                       "lam0": [1e10, 0.0, 0.0, 0.0]},
}
COMMANDS = {"run": [], "sweep": ["--param", "step", "--values", "0.01,0.005"], "verify": []}
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
SESSION_SEEDS = (0, 1, 2)
SESSION = ("import sys, session, workloads\n"
           "session.run(workloads.WORKLOADS['synthesis'].inputs(int(sys.argv[1])), sys.argv[2])")
API = """import inspect, json, sys, canomap
def entry(value):
    if not callable(value):
        return f"{type(value).__name__} {value!r}"
    try:
        return f"{type(value).__name__} {inspect.signature(value)}"
    except (TypeError, ValueError):
        return type(value).__name__
json.dump({n: entry(getattr(canomap, n)) for n in sorted(canomap.__all__)},
          open(sys.argv[1], 'w'), indent=1)
"""


def digest(root):
    sha = lambda data: hashlib.sha256(data).hexdigest()
    env = {k: v for k, v in os.environ.items() if k != "CANOMAP_OUT"}
    src = os.path.join(os.path.abspath(root), "src")
    lines, docs = [], {}   # docs: tag -> parsed content of each stream and artifact

    def record(tag, args, tmp, pythonpath):
        """Run the interpreter on args in tmp, then digest its exit code,
        streams and every file it wrote under tmp/out.  -B: no bytecode is
        written into the tree's src/ or into perfbench/."""
        out = os.path.join(tmp, "out")
        proc = subprocess.run([sys.executable, "-B", *args], capture_output=True, cwd=tmp,
                              env=dict(env, PYTHONPATH=pythonpath))
        lines.append(f"{tag} exit {proc.returncode}")
        for stream, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            lines.append(f"{tag} {stream} {sha(data)}")
            docs[f"{tag} {stream}"] = data.decode(errors="replace").splitlines()
        for dirpath, _dirs, files in sorted(os.walk(out)):
            for name in sorted(files):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    rel, data = os.path.relpath(os.path.join(dirpath, name), out), fh.read()
                    lines.append(f"{tag} {rel} {sha(data)}")
                    if name.endswith(".json"):
                        try:
                            docs[f"{tag} {rel}"] = json.loads(data)
                        except ValueError:   # e.g. a bare nan: compared by digest only
                            docs[f"{tag} {rel}"] = None
                    elif name.endswith(".csv"):
                        rows = list(csv.reader(io.StringIO(data.decode())))
                        docs[f"{tag} {rel}"] = dict(zip(rows[0], zip(*rows[1:]))) if rows else {}

    for (case, cfg), (cmd, extra) in ((c, m) for c in CASES.items() for m in COMMANDS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            out, path = os.path.join(tmp, "out"), os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"output_dir": out, **cfg}, fh)
            record(f"{case} {cmd}", ["-m", "canomap.cli", cmd, "--config", path, *extra],
                   tmp, src)
    for seed in SESSION_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            os.mkdir(out)
            record(f"synthesis-seed{seed} session",
                   ["-c", SESSION, str(seed), os.path.join(out, "session.json")], tmp,
                   os.pathsep.join([src, os.path.abspath(PERFBENCH)]))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        record("api", ["-c", API, os.path.join(out, "api.json")], tmp, src)
    return lines, docs


def key_changes(old, new):
    """Lines naming the top-level keys lost, gained and changed from the
    JSON document old to new; a scalar shows its value, a nested value
    (list or object) only its key."""
    old, new = (d if isinstance(d, dict) else {} for d in (old, new))
    scalar = lambda v: not isinstance(v, (dict, list))
    show = lambda k, d: f"{k}: {json.dumps(d[k])}" if scalar(d[k]) else k
    out = [f"lost {show(k, old)}" for k in sorted(old.keys() - new.keys())]
    out += [f"gained {show(k, new)}" for k in sorted(new.keys() - old.keys())]
    for k in sorted(k for k in old.keys() & new.keys() if old[k] != new[k]):
        both = scalar(old[k]) and scalar(new[k])
        out.append(f"changed {k}: {json.dumps(old[k])} -> {json.dumps(new[k])}" if both
                   else f"changed {k}")
    return out


def column_changes(old, new):
    """Lines naming the columns lost, gained and changed from the CSV table
    old to new (column -> cells); a changed numeric column of unchanged
    length shows its largest absolute change."""
    out = [f"lost column {k}" for k in old if k not in new]
    out += [f"gained column {k}" for k in new if k not in old]
    for k in (k for k in old if k in new and old[k] != new[k]):
        try:
            dev = max(abs(float(a) - float(b)) for a, b in zip(old[k], new[k]))
        except ValueError:
            dev = None
        same = dev is not None and len(old[k]) == len(new[k])
        out.append(f"changed column {k}" + (f": max |change| {dev:.3e}" if same else ""))
    return out


def line_changes(old, new):
    """The lines lost (`- `) and gained (`+ `) from the list old to new."""
    return [line for line in difflib.ndiff(old, new) if line[:2] in ("- ", "+ ")]


if __name__ == "__main__":
    roots = sys.argv[1:]
    if not roots:
        sys.exit(__doc__)
    results = [digest(root) for root in roots]
    for root, (lines, _docs) in zip(roots, results):
        print(f"# {root}", *lines, sep="\n")
    lines0, docs0 = results[0]
    bad = [root for root, (lines, _docs) in zip(roots, results) if lines != lines0]
    for root, (lines, docs) in zip(roots, results):
        if root in bad:
            # one line per tag (case, command, artifact) whose digest differs,
            # and under it what differs: JSON keys, CSV columns or stream lines
            first, this = (dict(line.rsplit(" ", 1) for line in ls) for ls in (lines0, lines))
            for tag in sorted(set(first) | set(this)):
                if first.get(tag) != this.get(tag):
                    print(f"  differs: {tag}")
                    if tag.endswith(".json"):
                        for line in key_changes(docs0.get(tag), docs.get(tag)):
                            print(f"    {line}")
                    elif tag.endswith(".csv"):
                        for line in column_changes(docs0.get(tag, {}), docs.get(tag, {})):
                            print(f"    {line}")
                    elif tag.endswith(("stdout", "stderr")):
                        for line in line_changes(docs0.get(tag, []), docs.get(tag, [])):
                            print(f"    {line}")
            print(f"DIFFERS from {roots[0]}: {root}")
    if len(roots) > 1 and not bad:
        print(f"IDENTICAL: {len(lines0)} digests in each of {len(roots)} trees")
    sys.exit(1 if bad else 0)

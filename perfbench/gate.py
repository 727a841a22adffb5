"""Correctness gate for one benchmark iteration, and its self-test.

The gate reads what the program wrote: the exit code, the printed
`VERDICT=` line and the artifacts.  It checks them against the workload's
expected outcome and declared checks, and compares the artifacts' sha256
with the run's first iteration (the same input must give the same bytes).
It returns (attempted, failed, reasons).  An operation is one CLI iteration,
or one checked library call of the session.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import shutil

from workloads import EXPECT_EXIT, EXPECT_VERDICT

_VERDICT = re.compile(r"^VERDICT=(\S+)", re.MULTILINE)


def sha256s(out_dir: str, names) -> dict:
    out = {}
    for name in names:
        path = os.path.join(out_dir, name)
        try:
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            out[name] = None
    return out


def _passes(value, op, limit) -> bool:
    if op == "==":
        return value == limit
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if op == "<":
        return value < limit
    if op == "in":
        return limit[0] < value < limit[1]
    raise ValueError(f"unknown check operator {op!r}")


def check(workload, exit_code: int, stdout: str, out_dir: str,
          expect_verdict: str, ref_hashes=None):
    """Judge one iteration; see the module docstring."""
    reasons = []
    if exit_code != EXPECT_EXIT:
        reasons.append(f"exit code {exit_code}, expected {EXPECT_EXIT}")
    printed = _VERDICT.findall(stdout or "")
    if printed != [expect_verdict]:
        reasons.append(f"printed verdicts {printed}, expected [{expect_verdict!r}]")
    if ref_hashes is not None:
        now = sha256s(out_dir, workload.artifacts)
        for name in workload.artifacts:
            if now[name] != ref_hashes[name]:
                reasons.append(f"{name} differs from the run's first iteration")
    name = workload.artifacts[-1]
    try:
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        reasons.append(f"cannot read {name}: {exc}")
        return 1, 1, reasons
    if workload.kind == "cli":
        return _check_cli(workload, data, expect_verdict, reasons)
    return _check_session(workload, data, expect_verdict, reasons)


def _check_cli(workload, inv, expect_verdict, reasons):
    if inv.get("verdict") != expect_verdict:
        reasons.append(f"invariants verdict {inv.get('verdict')!r}, expected {expect_verdict!r}")
    for field, op, limit, source in workload.checks:
        if not _passes(inv.get(field), op, limit):
            reasons.append(f"{field}={inv.get(field)!r} fails {op} {limit!r} ({source})")
    return 1, int(bool(reasons)), reasons


def _op_failures(rec, checks, expect_verdict):
    out = []
    for field, (op, limit, source) in checks.items():
        if field in rec and rec[field] is not None and not _passes(rec[field], op, limit):
            out.append(f"{rec['call']}: {field}={rec[field]!r} fails {op} {limit!r} ({source})")
    call = rec["call"]
    if call == "synthesize_lambda0" and rec["status"] != "ok":
        out.append(f"synthesize_lambda0 status {rec['status']!r}")
    if call == "verify_derivatives" and rec["ok"] is not True:
        out.append(f"verify_derivatives failed on the {rec['kind']} blocks")
    if call == "synthesize_ulam" and rec["verdict"] != expect_verdict:
        out.append(f"synthesized verdict {rec['verdict']!r}, expected {expect_verdict!r}")
    # Known defect: with FD-backed U, invert_map's 1e-12 stopping tolerance is
    # below the finite-difference noise, so it may raise ConvergenceError.
    # That typed error is the documented outcome and is counted in
    # mapping.invert_map.converged_frac.fd; any other outcome fails.
    if call == "invert_map" and not rec["converged"] and not (
            rec["kind"] == "fd" and rec["error"] == "ConvergenceError"):
        out.append(f"invert_map ({rec['kind']} U) did not converge: {rec['error']}")
    return out


def _check_session(workload, data, expect_verdict, reasons):
    ops = data.get("ops") or []
    checks = {field: (op, limit, source) for field, op, limit, source in workload.checks}
    seen = {key for rec in ops for key, value in rec.items() if value is not None}
    # Failures of the session as a whole (exit code, printed verdict,
    # artifact bytes, a check with nothing to judge) count as one failed op.
    whole = list(reasons)
    whole += [f"no op reported {field}" for field in checks if field not in seen]
    if data.get("verdict") != expect_verdict:
        whole.append(f"session verdict {data.get('verdict')!r}, expected {expect_verdict!r}")
    failed = int(bool(whole))
    per_op = []
    for rec in ops:
        bad = _op_failures(rec, checks, expect_verdict)
        failed += int(bool(bad))
        per_op += bad
    attempted = max(len(ops), 1)
    return attempted, min(failed, attempted), whole + per_op


def invert_counts(out_dir: str) -> dict:
    """{kind: (converged, attempted)} of the session's invert_map calls."""
    with open(os.path.join(out_dir, "session.json"), encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    out = {}
    for rec in ops:
        if rec["call"] == "invert_map":
            ok, n = out.get(rec["kind"], (0, 0))
            out[rec["kind"]] = (ok + int(rec["converged"]), n + 1)
    return out


# ---------------------------------------------------------------------
# Self-test: the gate must fail on broken outputs
# ---------------------------------------------------------------------

def _flip_digit(path):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    start = data.index(b"\n") + 1
    i = next(k for k in range(start, len(data)) if chr(data[k]).isdigit())
    data[i] = ord(str((int(chr(data[i])) + 1) % 10))
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def _break_value(workload, path):
    """Set the first '<'-checked field to 1.0, beyond every such limit."""
    field = next(f for f, op, _limit, _src in workload.checks if op == "<")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    for rec in data.get("ops", [data]):
        if field in rec:
            rec[field] = 1.0
            break
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def self_test(workload, exit_code, stdout, out_dir, ref_hashes, scratch) -> dict:
    """Feed the gate a corrupted artifact (bytes, then a checked value) and
    a wrong expected verdict; report for each case whether it counted a
    failed operation."""
    caught = {}
    cases = (
        ("artifact_bytes", lambda d: _flip_digit(os.path.join(d, workload.artifacts[0])),
         ref_hashes, EXPECT_VERDICT),
        ("artifact_value", lambda d: _break_value(workload, os.path.join(d, workload.artifacts[-1])),
         None, EXPECT_VERDICT),
        ("wrong_verdict", lambda d: None, ref_hashes, "violated"),
    )
    for name, corrupt, hashes, verdict in cases:
        copy = os.path.join(scratch, name)
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out_dir, copy)
        corrupt(copy)
        _attempted, failed, _reasons = check(workload, exit_code, stdout, copy, verdict, hashes)
        caught[name] = failed > 0
        shutil.rmtree(copy, ignore_errors=True)
    return caught

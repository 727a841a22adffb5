"""Spans and counters at canomap's layer boundaries, installed from outside.

The program is not changed: `install` replaces module and class attributes
with wrappers, at the place where the caller looks the name up (for example
`canomap.cli.flow_loop` for the CLI and `canomap.invariants.integrate` for
the integrations inside `flow_loop`).  Coarse calls get spans with parent
links; hot calls (one per RK4 stage or quadrature node) get counters only.

Spans are kept in memory as [id, parent, name, start, end] and written out
when the iteration ends.  Calls are sequential and properly nested, so a
span's self time is its duration minus the summed durations of its direct
children.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

from canomap import cli, hamilton, invariants, liemap, mapping, phasecore, scenarios

# (owners, attribute, span name): each owner is patched separately, so a call
# passes through exactly one wrapper.
SPANS = (
    ((cli,), "run", "cli.run"),
    ((cli, invariants, scenarios, hamilton), "integrate", "hamilton.integrate"),
    ((hamilton, mapping), "fundamental_matrix", "hamilton.fundamental_matrix"),
    ((cli,), "energy_drift", "hamilton.energy_drift"),
    ((cli, mapping), "canonicity_residual", "mapping.canonicity_residual"),
    ((mapping,), "canonicity_residual_points", "mapping.canonicity_residual_points"),
    ((mapping,), "synthesize_lambda0", "mapping.synthesize_lambda0"),
    ((mapping,), "synthesize_ulam", "mapping.synthesize_ulam"),
    ((mapping,), "invert_map", "mapping.invert_map"),
    ((cli, invariants), "symplectic_test", "invariants.symplectic_test"),
    ((cli,), "flow_loop", "invariants.flow_loop"),
    ((cli,), "action_function", "invariants.action_function"),
    ((cli,), "poincare_cartan_loop", "invariants.poincare_cartan_loop"),
    ((cli,), "constant_field_reduction", "scenarios.constant_field_reduction"),
    ((scenarios,), "straightening_solve", "scenarios.straightening_solve"),
    ((scenarios.StraighteningSolution,), "residual_check", "scenarios.residual_check"),
    ((liemap,), "compose_flow", "liemap.compose_flow"),
    ((phasecore,), "verify_derivatives", "phasecore.verify_derivatives"),
)

COUNTERS = (
    ((phasecore.PhaseState,), "__post_init__", "phasecore.PhaseState.count"),
    ((phasecore.DynamicSystem,), "f_at", "phasecore.f_at.count"),
    ((hamilton, cli, invariants), "hamiltonian", "hamilton.hamiltonian.count"),
    ((mapping, invariants, cli), "apply_map", "mapping.apply_map.count"),
    ((scenarios.StraighteningSolution,), "evaluate", "scenarios.evaluate.count"),
)

# Work counts taken from a spanned call's arguments or result.
_WORK = {
    "hamilton.integrate": lambda a, kw, out: {"hamilton.integrate.steps": len(out) - 1},
    "mapping.canonicity_residual": lambda a, kw, out: {
        "mapping.canonicity_residual.samples": len(out.times)},
    "mapping.synthesize_lambda0": lambda a, kw, out: {
        "mapping.synthesize_lambda0.ok": int(out.status == "ok")},
    "invariants.flow_loop": lambda a, kw, out: {
        "invariants.flow_loop.vertices": (len(out.loop0) - 1) * len(out.flowed)},
    "liemap.compose_flow": lambda a, kw, out: {
        "liemap.compose_flow.steps": int(a[3] if len(a) > 3 else kw["N"])},
}


def _invert_kind(spec):
    """'fd' when a gradient that apply_map needs is FD-backed, else 'analytic'."""
    return "fd" if {"ux", "ulam"} & spec.cf.fd_backed else "analytic"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._clock = time.perf_counter

    def add(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    @contextmanager
    def span(self, name):
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.spans), parent, name, self._clock(), None]
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec[4] = self._clock()
            self._stack.pop()

    def spanned(self, fn, name):
        work = _WORK.get(name)
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            self.add(calls)
            if name == "mapping.invert_map":
                kind = _invert_kind(args[0])
                self.add(f"{name}.calls.{kind}")
            with self.span(name):
                out = fn(*args, **kwargs)
            if work is not None:
                for key, value in work(args, kwargs, out).items():
                    self.add(key, value)
            if name == "mapping.invert_map":
                self.add(f"{name}.converged.{kind}")
            return out
        return wrapper

    def counted(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def self_times_by_span(self) -> list:
        child = [0.0] * len(self.spans)
        for _id, parent, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(end - start) - child[sid] for sid, _p, _n, start, end in self.spans]

    def self_times(self) -> dict:
        out: dict = {}
        for rec, own in zip(self.spans, self.self_times_by_span()):
            out[rec[2]] = out.get(rec[2], 0.0) + own
        return out

    def dump_spans(self) -> list:
        return [{"id": sid, "parent": parent, "name": name, "start": start,
                 "end": end, "self_s": own}
                for (sid, parent, name, start, end), own
                in zip(self.spans, self.self_times_by_span())]


def install(tracer: Tracer):
    """Patch every boundary in SPANS and COUNTERS, plus the two that need
    custom logic: Jacobian calls (which may be FD-backed) and the FD
    fallbacks a ControllingFunction installs for missing blocks."""
    for owners, attr, name in SPANS:
        for owner in owners:
            setattr(owner, attr, tracer.spanned(getattr(owner, attr), name))
    for owners, attr, name in COUNTERS:
        for owner in owners:
            setattr(owner, attr, tracer.counted(getattr(owner, attr), name))

    counts = tracer.counts
    for key in ("phasecore.jac_at.count", "phasecore.fd_blocks"):
        counts.setdefault(key, 0)
    jac_at = phasecore.DynamicSystem.jac_at
    ft_at = phasecore.DynamicSystem.ft_at

    def traced_jac_at(self, x, t):
        counts["phasecore.jac_at.count"] += 1
        if self.jac is None:
            counts["phasecore.fd_blocks"] += 1
        return jac_at(self, x, t)

    def traced_ft_at(self, x, t):
        if "ft" in self.fd_backed:
            counts["phasecore.fd_blocks"] += 1
        return ft_at(self, x, t)

    phasecore.DynamicSystem.jac_at = traced_jac_at
    phasecore.DynamicSystem.ft_at = traced_ft_at

    install_fd = phasecore.ControllingFunction._install_fd

    def traced_install_fd(cf):
        backed = install_fd(cf)
        for block in backed:
            setattr(cf, block, tracer.counted(getattr(cf, block), "phasecore.fd_blocks"))
        return backed

    phasecore.ControllingFunction._install_fd = traced_install_fd


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced iteration, keyed by metric name."""
    c = tracer.counts
    selfs = tracer.self_times()
    out = {f"{name}.self_s": selfs.get(name, 0.0)
           for _owners, _attr, name in SPANS}
    for key in ("phasecore.PhaseState.count", "phasecore.f_at.count",
                "phasecore.jac_at.count", "phasecore.fd_blocks",
                "hamilton.integrate.calls", "hamilton.integrate.steps",
                "hamilton.fundamental_matrix.calls", "hamilton.hamiltonian.count",
                "mapping.canonicity_residual.samples", "mapping.apply_map.count",
                "mapping.synthesize_lambda0.calls", "mapping.invert_map.calls",
                "invariants.flow_loop.vertices", "invariants.symplectic_test.calls",
                "scenarios.evaluate.count", "liemap.compose_flow.steps"):
        out[key] = c.get(key, 0)

    def frac(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    out["mapping.synthesize_lambda0.ok_frac"] = frac(
        "mapping.synthesize_lambda0.ok", "mapping.synthesize_lambda0.calls")
    for kind in ("analytic", "fd"):
        out[f"mapping.invert_map.converged_frac.{kind}"] = frac(
            f"mapping.invert_map.converged.{kind}", f"mapping.invert_map.calls.{kind}")
    return out

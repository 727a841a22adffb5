"""Batch experiment runner: configure a scenario, run checks, persist results.

Artifacts per run (all deterministic for a fixed config):

    trajectory.csv   t, x_1..x_n, lam_1..lam_n, H
    canonicity.csv   t, residual, det_y, det_mu
    invariants.json  verdict, canonicity and symplectic defects, energy drift,
                     action, loop drift (straightening: PDE, ydot, mu defects):
                     one flat object of floats (17 significant digits),
                     strings and null
    plot.gp          optional gnuplot script referencing the CSVs

Exit codes: 0 ok, 1 verdict=violated, 2 usage/config error, 3 numerical
failure.  The environment variable CANOMAP_OUT overrides output_dir.
"""
from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import random
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .phasecore import (DomainError, DynamicSystem, PhaseState, _is_int, _subsample,
                        zero_controlling_function, verify_derivatives)
# hamiltonian and apply_map are unused here but stay importable:
# perfbench/tracing.py patches canomap.cli.hamiltonian and .apply_map.
from .hamilton import _BLOWUP_LIMIT, canonical_rhs, energy_drift, hamiltonian, integrate
from .mapping import _CRITERION_VARIANTS, MappingSpec, _images, apply_map, canonicity_residual
from .invariants import (action_function, circle_loop, flow_loop,
                         poincare_cartan_loop, symplectic_test)
from .scenarios import (StraighteningProblem, ballistic_system,
                        constant_field_reduction, make_ballistic_adjoint,
                        rotation_example)

__all__ = ["ConfigError", "RunConfig", "run", "sweep", "verify", "main"]


class ConfigError(ValueError):
    """Invalid or unusable run configuration."""


_DEFAULT_TOLERANCES = {"canonicity": 1e-6, "symplectic": 1e-6, "degenerate": 1e-12}


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _scenario(name) -> "Scenario":
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {tuple(SCENARIOS)}, got {name!r}")
    return SCENARIOS[name]


# RunConfig's scalar fields and their types: validate checks each value,
# and sweep casts each --values token with the type.
_SWEEP_PARAMS = {"n": int, "t0": float, "t1": float, "step": float, "sigma": float,
                 "seed": int, "loop_vertices": int}


@dataclass
class RunConfig:
    scenario: str = "linear"
    n: int = 1
    t0: float = 0.0
    t1: float = 1.0
    step: float = 1e-3
    map_variant: str = "Std116"
    tolerances: dict = field(default_factory=lambda: dict(_DEFAULT_TOLERANCES))
    output_dir: str = "."
    seed: int = 0
    sigma: float = 1.0
    loop_vertices: int = 64
    emit_gnuplot: bool = False
    x0: Optional[list] = None
    lam0: Optional[list] = None

    def validate(self):
        scenario = _scenario(self.scenario)
        for name, kind in _SWEEP_PARAMS.items():
            ok, what = (_is_real, "a finite number") if kind is float else (_is_int, "an integer")
            if not ok(getattr(self, name)):
                raise ConfigError(f"{name} must be {what}")
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ConfigError("output_dir must be a nonempty string")
        if not isinstance(self.emit_gnuplot, bool):
            raise ConfigError("emit_gnuplot must be true or false")
        if self.step <= 0:
            raise ConfigError("step must be positive")
        if self.t1 <= self.t0:
            raise ConfigError("t1 must exceed t0")
        # At or below half the float spacing of the largest |t|, t + step
        # rounds back to t somewhere in the run and the march would stall.
        if 2 * self.step <= np.spacing(max(abs(self.t0), abs(self.t1))):
            raise ConfigError(f"step {self.step} is below the float spacing of t")
        if self.map_variant not in _CRITERION_VARIANTS:
            raise ConfigError(
                f"map_variant must be one of {_CRITERION_VARIANTS} for batch runs")
        if not (isinstance(self.tolerances, dict)
                and self.tolerances.keys() >= _DEFAULT_TOLERANCES.keys()):
            raise ConfigError(
                f"tolerances must be an object holding each of {list(_DEFAULT_TOLERANCES)}")
        for name, value in self.tolerances.items():
            if name not in _DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {name!r}")
            if not (_is_real(value) and value > 0):
                raise ConfigError(f"tolerance {name!r} must be a positive number")
        if scenario.n is not None and self.n != scenario.n:
            raise ConfigError(f"{self.scenario} scenario requires n={scenario.n}")
        try:  # the factory checks the parameters it reads, e.g. sigma > 0
            scenario.system(self)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if self.loop_vertices < 8:
            raise ConfigError("loop_vertices must be at least 8")
        for name in ("x0", "lam0"):
            v = getattr(self, name)
            if v is not None and not (isinstance(v, (list, tuple, np.ndarray))
                                      and len(v) == self.n and all(map(_is_real, v))):
                raise ConfigError(f"{name} must be a finite list of length n={self.n}")
        return self


def load_config(path: str) -> RunConfig:
    """Read a flat-JSON config, rejecting unknown fields by name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except ValueError as exc:   # JSONDecodeError, or UnicodeDecodeError for bytes not UTF-8
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
    cfg = RunConfig()
    for key, value in raw.items():
        if key == "tolerances" and isinstance(value, dict):   # validate rejects the rest
            value = {**_DEFAULT_TOLERANCES, **value}
        setattr(cfg, key, value)
    if "n" not in raw:
        cfg.n = _scenario(cfg.scenario).n or cfg.n
    return cfg.validate()


# ---------------------------------------------------------------------
# Serialization helpers (17 significant digits, stable ordering)
# ---------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_csv(path, header, rows):
    """Write the (N, k) float array rows under header, each block of 1,024
    rows in one %-operation ("%.17g" % v is format(v, ".17g"), bytewise)."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(rows), 1024):
            block = rows[i:i + 1024]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _write_json(path, flat: dict):
    """Write one flat object, keys sorted, one per line: a finite float at
    17 significant digits, a string as JSON, None and a non-finite float as
    null."""
    def text(v):
        if isinstance(v, (float, np.floating)):
            return _fmt(v) if math.isfinite(v) else "null"
        if isinstance(v, str) or v is None:   # None is null
            return json.dumps(v)
        raise TypeError(f"cannot serialize {type(v)!r}")
    body = ",\n".join(f"  {json.dumps(key)}: {text(flat[key])}" for key in sorted(flat))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n" + body + "\n}\n")


def _write_gnuplot(path, n):
    lines = ['set datafile separator ","', "set key outside", "set xlabel 't'"]
    series = ", ".join(
        f'"trajectory.csv" using 1:{i + 2} with lines title "x_{i + 1}"' for i in range(n))
    lines.append("plot " + series)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------

@dataclass
class Outcome:
    verdict: str
    max_residual: float
    energy_drift: float


def _linear_system(cfg):
    eye = np.eye(cfg.n)
    return DynamicSystem(dim=cfg.n, f=lambda x, t: x,
                         jac=lambda x, t: eye, autonomous=True, vectorized=True)


def _uniform_cloud(rng, cfg):
    box = lambda: [rng.uniform(-2.0, 2.0) for _j in range(cfg.n)]
    return [PhaseState(box(), box(), rng.uniform(cfg.t0, cfg.t1)) for _i in range(20)]


def _ballistic_cloud(rng, cfg):
    """A box of prograde states clear of the r = 0 guard."""
    return [PhaseState([rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5),
                        rng.uniform(0.5, 2.0), rng.uniform(0.0, 6.0)],
                       [rng.uniform(-1.0, 1.0) for _j in range(4)], rng.uniform(cfg.t0, cfg.t1))
            for _i in range(20)]


def _rotation_image_error(cfg, system, spec, traj):
    """Max distance of a seeded cloud's image from the exact quarter-turn.
    stdlib random draws every cloud: no command imports numpy.random."""
    rng = random.Random(int(cfg.seed))
    X, L = np.hsplit(np.reshape([rng.uniform(-2.0, 2.0) for _i in range(200 * cfg.n)],
                                (100, -1)), 2)
    Y, MU = _images(spec, np.full(100, float(cfg.t0)), X, L)
    return {"rotation_image_error": np.abs([Y - L, MU + X]).max()}


def _ballistic_conservation(cfg, system, spec, traj):
    """Drift of the area integral r v_phi and of the cyclic multiplier lam_4,
    and the generic adjoint -A^T lam (canonical_rhs, from jac: the lamdot
    column is the system's lift, the hand-written adjoint itself) against
    the hand-written one."""
    rv = traj.x[:, 2] * traj.x[:, 1]
    lam4 = traj.lam[:, 3]
    adj = make_ballistic_adjoint(cfg.sigma)
    agree = max(float(np.max(np.abs(adj(s) - canonical_rhs(system, s)[1])))
                for s in (traj[i] for i in _subsample(traj, 9)))
    return {"area_integral_drift_rel": float(np.max(np.abs(rv - rv[0])) / max(1.0, abs(rv[0]))),
            "lam4_drift": float(np.max(np.abs(lam4 - lam4[0]))),
            "adjoint_agreement": agree}


@dataclass(frozen=True)
class Scenario:
    """Everything run, sweep and verify need to know about one scenario."""

    system: Callable                     # cfg -> DynamicSystem; rejects bad parameters
    n: Optional[int] = None              # required dimension (None: any n)
    state: Callable = lambda n: ([1.0] * n, [1.0] * n)   # n -> default (x0, lam0)
    control: Optional[Callable] = None   # n -> MappingSpec replacing the zero U
    cloud: Callable = _uniform_cloud     # (random.Random, cfg) -> verify sample points
    basis: str = "canonicity"            # canonicity | symplectic | pde
    extras: Optional[Callable] = None    # (cfg, system, spec, traj) -> diagnostics


SCENARIOS = {
    "linear": Scenario(system=_linear_system),
    "rotation": Scenario(
        system=_linear_system,
        control=lambda n: rotation_example(dim=n),
        # y = lam does not depend on x, so det(dy/dx) = 0 and the Cross220
        # differential criterion reports `degenerate` (jacobian_min_abs_det
        # = 0) for the quarter-turn.  Its full 2n-Jacobian is a rotation, so
        # the verdict follows the symplectic defect; both are recorded.
        basis="symplectic",
        extras=_rotation_image_error),
    "ballistic": Scenario(
        system=lambda cfg: ballistic_system(cfg.sigma),
        n=4,
        state=lambda n: ([0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]),
        cloud=_ballistic_cloud,
        extras=_ballistic_conservation),
    # The verdict comes from the straightening PDE solved through (x0, lam0).
    # The lift is (f, (-A^T) lam) bit for bit: +0.0 at any lam, not -0.0 * lam.
    "straightening": Scenario(
        system=lambda cfg: DynamicSystem(dim=1, f=lambda x, t: np.zeros(1),
                                         jac=lambda x, t: np.zeros((1, 1)), autonomous=True,
                                         lift=lambda x, lam, t: [0.0, 0.0]),
        n=1,
        basis="pde"),
}


def _default_states(cfg):
    x0, lam0 = SCENARIOS[cfg.scenario].state(cfg.n)
    return (np.asarray(x0 if cfg.x0 is None else cfg.x0, dtype=float),
            np.asarray(lam0 if cfg.lam0 is None else cfg.lam0, dtype=float))


def _verdict_exit(verdict):
    return {"canonical": 0, "violated": 1}.get(verdict, 3)


def _pde_verdict(cfg, system, traj):
    """Constant-drift reduction of the frozen field along traj, whose start
    (x0, lam0) sets the targets: c = lam_b = lam0 and y0 = x0 + 1."""
    x0, lam0 = traj.x[0, 0], traj.lam[0, 0]
    prob = StraighteningProblem(c=lam0, a=0.0, y0=x0 + 1.0, lam_b=lam0)
    red = constant_field_reduction(prob, system, traj)
    inv = {
        "scenario": cfg.scenario,
        "pde_residual_max": red.pde_residual_max,
        "ydot_max_err": red.ydot_max_err,
        "mu_defect": red.mu_defect,
        "energy_mismatch": red.energy_mismatch,
        "boundary": f"boundary U(x, lam_b)=0 imposed at lam_b={prob.lam_b} "
                    "(reference multiplier; identity-map limit)",
        "loop_drift": None,
    }
    gates = {"pde_residual_max": 1e-8, "ydot_max_err": 1e-6, "mu_defect": 1e-6}
    bad = [k for k in gates if not math.isfinite(inv[k])]
    if bad:   # no verdict rests on a quantity that is not a number
        print(f"numerical failure: {', '.join(bad)} not finite", file=sys.stderr)
    ok = all(inv[k] < tol for k, tol in gates.items())
    inv["verdict"] = verdict = "degenerate" if bad else "canonical" if ok else "violated"
    return verdict, red.pde_residual_max, inv


def _flow_verdict(cfg, scenario, system, spec, traj, report, drift):
    defect = max(symplectic_test(spec, traj[i]) for i in _subsample(traj, 9))
    act = action_function(system, traj)
    inv = {
        "scenario": cfg.scenario,
        "verdict": report.verdict,
        "canonicity_max_residual": report.max_residual,
        "jacobian_min_abs_det": report.jacobian_min_abs_det,
        "symplectic_defect_max": defect,
        "energy_drift": drift.drift,
        "action_S": act.S,
        "loop_drift": None,
    }
    if cfg.n == 1:
        loop0 = circle_loop(traj[0], 0.5, cfg.loop_vertices)
        ens = flow_loop(system, loop0, [cfg.t1], cfg.step)
        inv["loop_drift"] = poincare_cartan_loop(ens)
    if scenario.extras is not None:
        inv.update(scenario.extras(cfg, system, spec, traj))
    if scenario.basis == "symplectic":
        verdict = "canonical" if defect < cfg.tolerances["symplectic"] else "violated"
        inv.update(verdict=verdict, verdict_basis="symplectic")
        return verdict, defect, inv
    return report.verdict, report.max_residual, inv


def _execute(cfg: RunConfig, out_dir: str) -> Outcome:
    scenario = SCENARIOS[cfg.scenario]
    system = scenario.system(cfg)
    x0, lam0 = _default_states(cfg)
    if scenario.basis == "pde":   # before any output: the reduction's target c and grids
        if abs(lam0[0]) < 1e-6:
            raise ConfigError("straightening scenario needs lam0[0] away from zero "
                              "(it doubles as the multiplier target c)")
        if max(abs(x0[0]), abs(lam0[0])) > _BLOWUP_LIMIT:   # integrate would truncate at once
            raise ConfigError("straightening scenario needs |x0[0]| and |lam0[0]| at most 1e12")
    os.makedirs(out_dir, exist_ok=True)
    if scenario.control is not None:
        spec = scenario.control(cfg.n)
    else:
        spec = MappingSpec(cfg.map_variant, zero_controlling_function(cfg.n))
    traj = integrate(system, PhaseState(x0, lam0, cfg.t0), cfg.t1, cfg.step)

    drift = energy_drift(system, traj)
    _write_csv(os.path.join(out_dir, "trajectory.csv"),
               ["t"] + [f"x_{i+1}" for i in range(cfg.n)]
               + [f"lam_{i+1}" for i in range(cfg.n)] + ["H"],
               np.column_stack([traj.t, traj.x, traj.lam, drift.h_series]))
    if traj.meta.get("truncated"):
        print(f"numerical failure: trajectory truncated at t={traj.meta['t_truncated']} "
              f"({traj.meta['reason']})", file=sys.stderr)
        return Outcome("degenerate", float("nan"), float("nan"))

    report = canonicity_residual(system, spec, traj,
                                 tol=cfg.tolerances["canonicity"],
                                 degenerate_tol=cfg.tolerances["degenerate"])
    _write_csv(os.path.join(out_dir, "canonicity.csv"), ["t", "residual", "det_y", "det_mu"],
               np.column_stack([report.times, report.residual_series, report.det_y_series,
                                report.det_mu_series]))
    if scenario.basis == "pde":
        verdict, max_res, inv = _pde_verdict(cfg, system, traj)
    else:
        verdict, max_res, inv = _flow_verdict(cfg, scenario, system, spec, traj, report, drift)
    _write_json(os.path.join(out_dir, "invariants.json"), inv)
    if cfg.emit_gnuplot:
        _write_gnuplot(os.path.join(out_dir, "plot.gp"), cfg.n)
    return Outcome(verdict, max_res, drift.drift)


def _resolve_out(cfg: RunConfig) -> str:
    return os.environ.get("CANOMAP_OUT") or cfg.output_dir


# ---------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------

def run(cfg: RunConfig) -> int:
    out = _execute(cfg.validate(), _resolve_out(cfg))
    print(f"VERDICT={out.verdict} max_residual={_fmt(out.max_residual)}")
    return _verdict_exit(out.verdict)


def sweep(cfg: RunConfig, param: str, values: list) -> int:
    if param not in _SWEEP_PARAMS:
        raise ConfigError(
            f"cannot sweep {param!r}; choose from {sorted(_SWEEP_PARAMS)}")
    if not values:
        raise ConfigError("sweep needs a nonempty --values list")
    caster = _SWEEP_PARAMS[param]
    subs = []   # every value is cast and validated before the first run writes
    for token in values:
        try:
            value = caster(token)
        except ValueError:
            raise ConfigError(f"cannot parse {token!r} as {caster.__name__} for {param!r}")
        subs.append((token, replace(cfg, **{param: value}).validate()))
    base = _resolve_out(cfg)
    rows = []
    for token, sub in subs:
        out = _execute(sub, os.path.join(base, f"{param}={token}"))
        print(f"{param}={token}: VERDICT={out.verdict} max_residual={_fmt(out.max_residual)}")
        rows.append([token, out.verdict, _fmt(out.max_residual),
                     _fmt(out.energy_drift), _verdict_exit(out.verdict)])
    os.makedirs(base, exist_ok=True)
    with open(os.path.join(base, "index.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("value,verdict,max_residual,energy_drift,exit_status\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
    return max(row[-1] for row in rows)


def verify(cfg: RunConfig) -> int:
    """Derivative cross-checks for the scenario's system and controlling
    function on a seeded point cloud; prints one line per block."""
    scenario = SCENARIOS[cfg.validate().scenario]
    rng = random.Random(int(cfg.seed))
    checks = [("sys", scenario.system(cfg))]
    if scenario.control is not None:
        checks.append(("cf", scenario.control(cfg.n).cf))
    pts = scenario.cloud(rng, cfg)
    ok = True
    for prefix, obj in checks:
        rep = verify_derivatives(obj, pts)
        for name, err in rep.blocks.items():
            status = "OK" if name not in rep.failing else "FAIL"
            print(f"{prefix}.{name}: max rel err {err:.3e} {status}")
        ok = ok and rep.ok
    return 0 if ok else 1


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="canomap",
        description="Hamiltonian lifts and controlled canonical mappings: batch checks")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario and write artifacts")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="RunConfig scalar to vary")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list of values")
    p_verify = sub.add_parser("verify", help="derivative checks only")
    p_verify.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        if args.command == "run":
            return run(cfg)
        if args.command == "sweep":
            values = [v for v in (tok.strip() for tok in args.values.split(",")) if v]
            return sweep(cfg, args.param, values)
        return verify(cfg)
    except (ConfigError, OSError) as exc:   # OSError: an output path that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark workloads: inputs drawn from a seed, expected outcome, declared checks.

Each workload is either a `canomap run` (kind "cli") or a library session
(kind "session"); README.md says why each was chosen.  `inputs(seed)`
returns the only data the program sees: the JSON config for a CLI run, or
the parameter file of the session.  The
work done does not depend on the seed (fixed step counts, fixed grids), so
runs with different seeds are comparable; only the numbers change.

Check thresholds come from the acceptance criteria in tests/test_acceptance.py
(criterion number in the comment) or from the scenario's own verdict rule
in canomap.cli.  `action_S` and `hj_residual` are never checked: they are 0
by construction and cannot fail.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

CLI_ARTIFACTS = ("trajectory.csv", "canonicity.csv", "invariants.json")
SESSION_ARTIFACTS = ("session.json",)
# Every workload is expected to exit 0 with this verdict.
EXPECT_EXIT = 0
EXPECT_VERDICT = "canonical"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "cli" | "session"
    make_inputs: Callable     # (random.Random, seed) -> dict
    checks: tuple             # (field, op, limit, source); op in "<", "==", "in"

    @property
    def artifacts(self):
        return CLI_ARTIFACTS if self.kind == "cli" else SESSION_ARTIFACTS

    def inputs(self, seed: int) -> dict:
        return self.make_inputs(random.Random(seed), seed)


def _uniform(rng, lo, hi, count):
    return [rng.uniform(lo, hi) for _ in range(count)]


def _loop_rotation(rng, seed):
    return {"scenario": "rotation", "n": 1, "t0": 0.0, "t1": 0.25, "step": 1e-3,
            "loop_vertices": 64, "seed": seed, "output_dir": "out",
            "x0": _uniform(rng, -1.0, 1.0, 1), "lam0": _uniform(rng, -1.0, 1.0, 1)}


def _ballistic_long(rng, seed):
    # Eccentric start: the circular default makes every invariant exactly 0.
    return {"scenario": "ballistic", "n": 4, "t0": 0.0, "t1": 5.0, "step": 1e-3,
            "seed": seed, "output_dir": "out", "x0": [0.0, 1.1, 1.0, 0.0],
            "lam0": _uniform(rng, -1.0, 1.0, 4)}


def _straightening(rng, seed):
    # Shifting x0 translates the grid and the target y0 = x0 + 1 together,
    # so the quadrature work is the same for every seed.
    return {"scenario": "straightening", "seed": seed, "output_dir": "out",
            "x0": _uniform(rng, -2.0, 2.0, 1)}


def _synthesis(rng, seed):
    # The inversion points do not follow the seed: an FD-backed inversion
    # that fails to converge costs about ten converged ones, so seeded points
    # would make the amount of work depend on the seed.
    fixed = random.Random(0)
    return {
        "ballistic_v_phi0": rng.uniform(1.05, 1.15),
        "ballistic_lam0": _uniform(rng, -1.0, 1.0, 4),
        "ballistic_t1": 1.0,
        "linear_a": _uniform(rng, -0.3, 0.3, 3),          # symmetric 2x2 field
        "linear_x0": _uniform(rng, -1.0, 1.0, 2),
        "linear_lam0": _uniform(rng, -1.0, 1.0, 2),
        "linear_ulam0": _uniform(rng, -1.0, 1.0, 2),
        "linear_step": 1e-3,
        "lambda0_c": rng.uniform(0.005, 0.02),
        "lambda0_starts": [_uniform(rng, -1.0, 1.0, 4) for _ in range(50)],
        "invert_eps": 0.1,
        "invert_points": [_uniform(fixed, -1.0, 1.0, 4) for _ in range(50)],
        "cloud_points": [_uniform(rng, -1.0, 1.0, 4) + [rng.uniform(0.0, 1.0)]
                         for _ in range(20)],
        "compose_steps": [50, 100, 200, 400],
    }


WORKLOADS = {w.name: w for w in (
    Workload(
        "loop-rotation", "cli", _loop_rotation,
        (("loop_drift", "<", 1e-5, "criterion 05"),
         ("symplectic_defect_max", "<", 1e-9, "criterion 02"),
         ("rotation_image_error", "<", 1e-12, "criterion 02"),
         ("verdict_basis", "==", "symplectic", "cli rotation rule"))),
    Workload(
        "ballistic-long", "cli", _ballistic_long,
        (("energy_drift", "<", 1e-6, "criterion 09"),
         ("area_integral_drift_rel", "<", 1e-6, "criterion 09"),
         ("lam4_drift", "==", 0.0, "criterion 09"),
         ("adjoint_agreement", "<", 1e-12, "criterion 09"))),
    Workload(
        "straightening", "cli", _straightening,
        (("pde_residual_max", "<", 1e-8, "criterion 10"),
         ("ydot_max_err", "<", 1e-6, "cli straightening rule"),
         ("mu_defect", "<", 1e-6, "cli straightening rule"))),
    Workload(
        "synthesis", "session", _synthesis,
        (("duality_defect", "<", 1e-8, "criterion 06"),
         ("transport_defect", "<", 1e-7, "criterion 08"),
         ("lambda0_g_residual", "<", 1e-9, "criterion 07"),
         ("invert_roundtrip_err", "<", 1e-9, "Newton tolerance 1e-12, well-conditioned map"),
         ("cloud_residual_disagreement", "<", 1e-6, "canonicity tolerance"),
         ("compose_slope", "in", (0.9, 1.1), "criterion 11"))),
)}

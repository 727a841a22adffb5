"""Independent verifiers of canonicity and variational invariance.

None of these reuse the differential canonicity criterion from `mapping`;
they check the same claims through different mathematics — the symplectic
2-form, fixed-time loop integrals of lam dx, the action function and
pointwise Hamilton-Jacobi residuals.  The routes certify different
properties and can disagree: for xdot = a x the shear y = x + r lam,
mu = lam passes symplectic_test but fails the Std116 residual
(tests/test_invariants.py pins such cases)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .phasecore import (DomainError, DynamicSystem, PhaseState, Trajectory,
                        _central_diff_x, _require_dim)
# integrate and apply_map are unused here but stay importable:
# perfbench/tracing.py patches canomap.invariants.integrate and .apply_map.
from .hamilton import _grid, _h_series, _lam_dot, _rk4_path, _stage, _xdot, hamiltonian, integrate
from .mapping import MappingSpec, _images, apply_map

__all__ = [
    "symplectic_test",
    "LoopEnsemble",
    "circle_loop",
    "flow_loop",
    "poincare_cartan_loop",
    "ActionRecord",
    "action_function",
    "HJResult",
    "hj_residual_U",
    "hj_residual_H",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz


def symplectic_test(mapping, s: PhaseState) -> float:
    """Max-norm defect ||J^T I J - I|| of the mapping's FD Jacobian at s.

    `mapping` is either a MappingSpec or a callable (x, lam) -> (y, mu);
    J is the 2n x 2n central-difference Jacobian of the stacked map (step
    1e-6 max(1, |z_i|)) and I the standard symplectic matrix [[0, E], [-E, 0]].
    """
    n, fwd = s.n, mapping
    if isinstance(mapping, MappingSpec):
        _require_dim(mapping.cf, s)
        fwd = lambda x, lam: _images(mapping, s.t, x, lam)

    def stacked(z):
        y, mu = fwd(z[:n], z[n:])
        return np.concatenate([np.atleast_1d(np.asarray(y, dtype=float)),
                               np.atleast_1d(np.asarray(mu, dtype=float))])

    J = _central_diff_x(stacked, s.z())
    E = np.eye(n)
    I = np.block([[np.zeros((n, n)), E], [-E, np.zeros((n, n))]])
    return float(np.max(np.abs(J.T @ I @ J - I)))


# ---------------------------------------------------------------------
# Loop integrals
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LoopEnsemble:
    """A closed polygonal loop at t0 plus its images under the flow."""

    loop0: tuple               # PhaseState vertices, last = first
    flowed: tuple              # tuple of loops at later times

    def __post_init__(self):
        for loop in (self.loop0, *self.flowed):
            if len(loop) < 2:
                raise ValueError("a loop needs at least a closing edge")
            first, last = loop[0], loop[-1]
            if not (np.array_equal(first.x, last.x) and np.array_equal(first.lam, last.lam)):
                raise ValueError("loop is not closed (first and last vertices differ)")
            if len({v.t for v in loop}) != 1:
                raise ValueError("loop vertices must share a common time")


def circle_loop(center: PhaseState, radius: float, M: int) -> tuple:
    """Closed M-gon inscribed in the (x, lam) circle around `center` (n=1)."""
    if center.n != 1:
        raise ValueError("circle_loop is defined for n=1")
    if M < 3:
        raise ValueError("need at least 3 vertices")
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    theta = 2.0 * np.pi * np.arange(M) / M
    verts = [PhaseState([center.x[0] + radius * np.cos(a)],
                        [center.lam[0] + radius * np.sin(a)], center.t)
             for a in theta]
    verts.append(verts[0])
    return tuple(verts)


def flow_loop(sys: DynamicSystem, loop0: tuple, t_targets: Sequence[float],
              step: float) -> LoopEnsemble:
    """Flow every vertex of loop0 to each target time; loops stay closed
    by construction (the shared first/last vertex is integrated once).

    All vertices march together as one (M, 2n) stack from loop0's time, one
    march per target, so each endpoint equals integrate(sys, v, t1, step)'s
    last sample bitwise.  A march that blows up raises DomainError.
    """
    loop0 = LoopEnsemble(tuple(loop0), ()).loop0  # closed, one common time
    for v in loop0:
        _require_dim(sys, v)
    n = sys.dim
    t0 = loop0[0].t
    Z0 = np.array([v.z() for v in loop0[:-1]])
    rhs = _stage(sys, stack=True)
    flowed = []
    for t1 in t_targets:
        ts, zs, diag, _ = _rk4_path(rhs, Z0, _grid(t0, t1, step), path="last")
        if diag is not None:
            raise DomainError(f"loop flow truncated at t={diag['t_truncated']} "
                              f"({diag['reason']})")
        imgs = [PhaseState._trusted(z[:n], z[n:], ts[-1]) for z in zs[-1]]
        imgs.append(imgs[0])
        flowed.append(tuple(imgs))
    return LoopEnsemble(loop0=loop0, flowed=tuple(flowed))


def _loop_integral(loop, richardson: bool) -> float:
    """Trapezoidal ∮ lam·dx over the polygon's vertices."""
    lams = np.array([v.lam for v in loop])
    xs = np.array([v.x for v in loop])

    def trapz(sl):
        return float(np.sum(0.5 * (lams[sl][1:] + lams[sl][:-1]) * np.diff(xs[sl], axis=0)))

    full = trapz(slice(None))
    if not richardson:
        return full
    if (len(loop) - 1) % 2:
        raise ValueError("Richardson refinement needs an even vertex count")
    coarse = trapz(slice(None, None, 2))
    return (4.0 * full - coarse) / 3.0


def poincare_cartan_loop(ens: LoopEnsemble, richardson: bool = False) -> float:
    """Max drift of ∮ lam·dx across the ensemble's flowed loops.

    Each loop lies at one time (dt = 0 on every edge), so this is the
    Poincaré–Cartan integral ∮ lam·dx − H·dt on a constant-time loop: the
    oriented phase-plane area enclosed.  Loops with fewer than 8 distinct
    vertices are rejected as too coarse to quadrature, and an ensemble with
    no flowed loop as having nothing to compare.
    """
    if not ens.flowed:
        raise ValueError("the ensemble holds no flowed loop")
    for loop in (ens.loop0, *ens.flowed):
        if len(loop) - 1 < 8:
            raise ValueError("loop with <8 vertices: quadrature too coarse")
    base = _loop_integral(ens.loop0, richardson)
    drifts = [abs(_loop_integral(loop, richardson) - base) for loop in ens.flowed]
    return float(max(drifts))


# ---------------------------------------------------------------------
# Action function
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ActionRecord:
    S: float                   # ∫ L dt along the trajectory
    dS_series: np.ndarray      # per-interval lam·dx − H·dt increments


def action_function(sys: DynamicSystem, traj: Trajectory) -> ActionRecord:
    """Action along an extremal: S = ∫ lam·(xdot − f) dt (≈ 0 on extremals).

    dS_series carries the trapezoidal increments of lam·dx − H·dt.
    """
    ts, xs, lams = traj.t, traj.x, traj.lam
    f = _xdot(sys, traj)
    hs = _h_series(traj, f)
    L = _lam_dot(lams, f - f)
    S = float(_trapz(L, ts))
    lam_mid = 0.5 * (lams[1:] + lams[:-1])
    h_mid = 0.5 * (hs[1:] + hs[:-1])
    dS = np.sum(lam_mid * np.diff(xs, axis=0), axis=1) - h_mid * np.diff(ts)
    return ActionRecord(S=S, dS_series=dS)


# ---------------------------------------------------------------------
# Hamilton-Jacobi residuals
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HJResult:
    max_residual: float
    series: np.ndarray


def _hj_residual(cf, K: Callable, points: Sequence[PhaseState]) -> HJResult:
    """Pointwise |U_t + K(s)| over points, U_t from cf."""
    if not points:
        raise ValueError("points must be nonempty")
    for s in points:
        _require_dim(cf, s)
    series = np.array([abs(cf.ut(s.x, s.lam, s.t) + K(s)) for s in points])
    return HJResult(float(np.max(series)), series)


def hj_residual_U(G: Callable, spec: MappingSpec, points: Sequence[PhaseState]) -> HJResult:
    """Pointwise residual |U_t − G(x + U_lam, lam − U_x, t)| (Std116 image),
    with U = spec.cf.

    G is the Hamiltonian in the new variables, called as G(y, mu, t).
    """
    if spec.variant != "Std116":
        raise ValueError("hj_residual_U is defined for the Std116 variant")
    return _hj_residual(spec.cf, lambda s: -float(G(*_images(spec, s.t, s.x, s.lam), s.t)), points)


def hj_residual_H(cf, sys: DynamicSystem, points: Sequence[PhaseState]) -> HJResult:
    """Pointwise residual |U_t + lam·f(x, t)| (old-variable Hamiltonian)."""
    return _hj_residual(cf, lambda s: hamiltonian(sys, s), points)

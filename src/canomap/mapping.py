"""Controlled mappings of extended phase space and their canonicity.

A controlling function U(x, lam, t) drives a change of variables; the
standard form sends x to y = x + U_lam and lam to mu = lam - U_x, with sign
and cross variants alongside.  Whether such a mapping is canonical is
checked here as a numerical residual of the defining differential equality
restricted to a flow, and the initial multiplier component lam0_k (or the
whole U_lam profile) can be synthesized so the residual vanishes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phasecore import (_FD_STEP, ControllingFunction, DynamicSystem, PhaseState,
                        Trajectory, _central_diff_t)
from .hamilton import canonical_rhs, fundamental_matrix

__all__ = [
    "VARIANTS",
    "MappingSpec",
    "apply_map",
    "jacobian_condition",
    "CanonicityReport",
    "canonicity_residual",
    "canonicity_residual_points",
    "Lambda0Result",
    "DegeneratePivotError",
    "RootNotFoundError",
    "ConvergenceError",
    "synthesize_lambda0",
    "synthesize_lambda0_cross",
    "UlamSynthesis",
    "synthesize_ulam",
    "invert_map",
]

# Each variant as y = x + a G_y, mu = lam + b G_mu with G_y, G_mu the
# accessor of U_x or U_lam: variant -> (s1, s2) -> (a, G_y, b, G_mu).
_UX, _ULAM = ControllingFunction.ux_at, ControllingFunction.ulam_at
_FORM = {
    "Std116": lambda s1, s2: (1, _ULAM, -1, _UX),
    "Symplectic119": lambda s1, s2: (0.5, _ULAM, 0.5, _UX),
    "SignVariant218": lambda s1, s2: (s1, _ULAM, s2, _UX),
    "SignVariant219": lambda s1, s2: (s1, _UX, s2, _ULAM),
    "Cross220": lambda s1, s2: (1, _UX, -1, _ULAM),
}
VARIANTS = tuple(_FORM)


class DegeneratePivotError(ValueError):
    """The chosen component has no effect on the canonicity equation."""


class RootNotFoundError(RuntimeError):
    """The scalar canonicity equation has no root in the search bracket."""


class ConvergenceError(RuntimeError):
    """Newton iteration failed to meet tolerance."""


@dataclass(frozen=True, eq=False)
class MappingSpec:
    """Mapping variant + controlling function.

    signs applies to the sign variants SignVariant218/219 only; every other
    variant takes the default (+1, -1) (Std116 is SignVariant218 with it).
    """

    variant: str
    cf: ControllingFunction
    signs: tuple = (1, -1)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        signs = tuple(int(s) for s in self.signs)
        if len(signs) != 2 or any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be a pair drawn from {+1, -1}")
        if signs != (1, -1) and self.variant not in ("SignVariant218", "SignVariant219"):
            raise ValueError(f"{self.variant} has fixed signs (+1, -1); vary them in SignVariant218/219")
        object.__setattr__(self, "signs", signs)


def apply_map(spec: MappingSpec, s: PhaseState):
    """Forward image (y, mu) of the phase point under the chosen variant."""
    cf = spec.cf
    if s.n != cf.dim:
        raise ValueError(f"dimension mismatch: controlling function n={cf.dim}, state n={s.n}")
    a, gy, b, gmu = _FORM[spec.variant](*spec.signs)
    return s.x + a * gy(cf, s), s.lam + b * gmu(cf, s)


def jacobian_condition(spec: MappingSpec, s: PhaseState):
    """(det dy/dx, det dmu/dlam) for the variant's defining blocks.

    Symplectic119 reports 1 + det(U_xlam)/4 for both entries — the shared
    closed form of its equal Jacobians.
    """
    cf = spec.cf
    if spec.variant == "Symplectic119":
        d = 1.0 + 0.25 * float(np.linalg.det(cf.uxlam_at(s)))
        return d, d
    a, gy, b, _ = _FORM[spec.variant](*spec.signs)
    if gy is _ULAM:  # G_y = U_lam and G_mu = U_x: both blocks are U_xlam
        M = cf.uxlam_at(s)
        dy, dmu = M.T, M
    else:
        dy, dmu = cf.uxx_at(s), cf.ulamlam_at(s)
    E = np.eye(cf.dim)
    return float(np.linalg.det(E + a * dy)), float(np.linalg.det(E + b * dmu))


# ---------------------------------------------------------------------
# Canonicity residuals along a flow
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CanonicityReport:
    max_residual: float        # max scaled |r| over samples
    residual_series: np.ndarray  # raw signed residuals
    jacobian_min_abs_det: float
    verdict: str               # canonical | violated | degenerate
    det_y_series: np.ndarray
    det_mu_series: np.ndarray
    times: np.ndarray


def _udot_lam(cf: ControllingFunction, s: PhaseState, xdot, lamdot):
    """Total time derivative of U_lam restricted to the flow."""
    return cf.uxlam_at(s).T @ xdot + cf.ulamlam_at(s) @ lamdot + cf.ulamt_at(s)


def _udot_x(cf: ControllingFunction, s: PhaseState, xdot, lamdot):
    """Total time derivative of U_x restricted to the flow."""
    return cf.uxx_at(s) @ xdot + cf.uxlam_at(s) @ lamdot + cf.uxt_at(s)


def _residual_at(sys, spec, s):
    cf = spec.cf
    xdot, lamdot = canonical_rhs(sys, s)
    ux = cf.ux_at(s)
    ulam = cf.ulam_at(s)
    if spec.variant == "Std116":
        r = float((ux - s.lam) @ _udot_lam(cf, s, xdot, lamdot) - ulam @ lamdot)
    else:  # Cross220
        r = float((s.lam - ulam) @ _udot_x(cf, s, xdot, lamdot)
                  - (ulam - ux) @ xdot + ulam @ lamdot)
    scale = max(1.0, float(np.linalg.norm(s.lam)) * float(np.linalg.norm(ulam)))
    return r, scale


def _require_cf_dim(sys, spec):
    if spec.cf.dim != sys.dim:
        raise ValueError(
            f"dimension mismatch: controlling function n={spec.cf.dim}, system n={sys.dim}")


def _canonicity_over(sys, spec, states, tol, degenerate_tol):
    _require_cf_dim(sys, spec)
    if spec.variant not in ("Std116", "Cross220"):
        raise ValueError(
            f"canonicity criterion is defined for Std116 and Cross220, not {spec.variant!r}")
    raws, scaled, dys, dmus, ts = [], [], [], [], []
    for s in states:
        r, scale = _residual_at(sys, spec, s)
        raws.append(r)
        scaled.append(abs(r) / scale)
        dy, dmu = jacobian_condition(spec, s)
        dys.append(dy)
        dmus.append(dmu)
        ts.append(s.t)
    max_residual = float(np.max(scaled))
    jac_min = float(np.min(np.abs(np.concatenate([dys, dmus]))))
    if jac_min < degenerate_tol:
        verdict = "degenerate"
    elif max_residual < tol:
        verdict = "canonical"
    else:
        verdict = "violated"
    return CanonicityReport(max_residual=max_residual,
                            residual_series=np.array(raws),
                            jacobian_min_abs_det=jac_min,
                            verdict=verdict,
                            det_y_series=np.array(dys),
                            det_mu_series=np.array(dmus),
                            times=np.array(ts))


def canonicity_residual(sys: DynamicSystem, spec: MappingSpec, traj: Trajectory,
                        tol: float = 1e-6, degenerate_tol: float = 1e-12) -> CanonicityReport:
    """Residual of the canonicity equality along an integrated trajectory.

    Std116 checks (U_x - lam) . Udot_lam - U_lam . lamdot; Cross220 checks
    (lam - U_lam) . Udot_x - (U_lam - U_x) . xdot + U_lam . lamdot, with all
    flow derivatives substituted from the canonical pair.  The scaled max
    residual is |r| / max(1, |lam||U_lam|) per sample.
    """
    return _canonicity_over(sys, spec, list(traj), tol, degenerate_tol)


def canonicity_residual_points(sys: DynamicSystem, spec: MappingSpec,
                               points: Sequence[PhaseState],
                               tol: float = 1e-6, degenerate_tol: float = 1e-12) -> CanonicityReport:
    """Off-flow variant of canonicity_residual over an arbitrary point cloud.

    Each point is treated as an initial condition: flow derivatives come
    from the canonical right-hand side at the point itself.
    """
    if not points:
        raise ValueError("points must be nonempty")
    return _canonicity_over(sys, spec, list(points), tol, degenerate_tol)


# ---------------------------------------------------------------------
# Initial-multiplier synthesis
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Lambda0Result:
    value: float
    status: str          # "ok" | "indeterminate"
    g_residual: float    # |g(value)|
    lam0: np.ndarray     # full multiplier vector with component k replaced
    k: int


_G_TOL = 1e-10


def _with_component(lam0, k, value):
    out = lam0.copy()
    out[k] = value
    return out


def _solve_scalar(g, guess):
    """Root of g(lam0_k) = 0 with degeneracy detection.

    Order of business: take one Newton step from the guess (exact when g is
    affine in lam0_k) and accept it if it is already a root; probe two
    symmetric stencils to detect a pivot with no effect; bracket
    geometrically and bisect; polish the accepted or bracketed root (or
    rescue a double root) with Newton.
    """
    slope = _central_diff_t(g, guess)
    init = guess - g(guess) / slope if abs(slope) > 1e-10 else guess
    g0 = g(init)
    scale = max(1.0, abs(init))
    probes = []
    for d in (0.5 * scale, 100.0 * scale):
        probes.append((g(init + d), g(init - d)))
    root = None
    if abs(g0) < _G_TOL:
        if all(abs(gp) < _G_TOL and abs(gm) < _G_TOL for gp, gm in probes):
            return init, "indeterminate", abs(g0)
        root = init
    elif all(abs(gp - gm) <= 1e-12 * max(1.0, abs(g0)) for gp, gm in probes):
        raise DegeneratePivotError(
            f"pivot index degenerate, choose another k (g stays at {g0:.3e})")
    else:
        # geometric bracket expansion around the initializer
        for w in (1.0 * scale, 10.0 * scale, 100.0 * scale, 1000.0 * scale):
            a, b = init - w, init + w
            ga, gb = g(a), g(b)
            if abs(ga) < _G_TOL:
                root = a
                break
            if abs(gb) < _G_TOL:
                root = b
                break
            if ga * g0 < 0:
                root = _bisect(g, a, init, ga, g0)
                break
            if gb * g0 < 0:
                root = _bisect(g, init, b, g0, gb)
                break

    if root is None:
        found = _newton(g, init)
        if found is None or abs(found[1]) > _G_TOL:
            raise RootNotFoundError(
                "no sign change in bracket [-1e3, 1e3] around the initializer "
                f"and Newton fallback failed (g(init)={g0:.3e})")
    else:
        found = _newton(g, root) or (root, g(root))
    root, g_root = found
    return float(root), "ok", abs(g_root)


def _bisect(g, a, b, ga, gb, iters=200):
    for _ in range(iters):
        m = 0.5 * (a + b)
        gm = g(m)
        if gm == 0.0 or (b - a) < 1e-14 * max(1.0, abs(m)):
            return m
        if ga * gm < 0:
            b, gb = m, gm
        else:
            a, ga = m, gm
    return 0.5 * (a + b)


def _newton(g, x, iters=60):
    """Newton from x with the central-difference slope, returning (x, g(x))
    with |g(x)| no larger than at the start.  Stops at the rounding floor of
    g, where a step no longer reduces |g|, or once a step moves x by less
    than 1e-15 relative; None when the slope or the step is unusable."""
    gx = g(x)
    for _ in range(iters):
        slope = _central_diff_t(g, x)
        if slope == 0.0 or not np.isfinite(slope):
            return None
        x_new = x - gx / slope
        if not np.isfinite(x_new):
            return None
        g_new = g(x_new)
        if not abs(g_new) < abs(gx):
            return x, gx
        if abs(x_new - x) < 1e-15 * max(1.0, abs(x)):
            return x_new, g_new
        x, gx = x_new, g_new
    return x, gx


def _synthesize(sys, spec, x0, lam0, k, t0):
    _require_cf_dim(sys, spec)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=float))
    if x0.size != sys.dim or lam0.size != sys.dim:
        raise ValueError("x0 and lam0 must have the system dimension")
    if not 0 <= k < sys.dim:
        raise ValueError(f"pivot index k={k} out of range for n={sys.dim}")

    def g(v):
        return _residual_at(sys, spec, PhaseState(x0, _with_component(lam0, k, v), t0))[0]

    value, status, g_res = _solve_scalar(g, float(lam0[k]))
    return Lambda0Result(value=value, status=status, g_residual=g_res,
                         lam0=_with_component(lam0, k, value), k=k)


def synthesize_lambda0(sys: DynamicSystem, cf: ControllingFunction, x0, lam0,
                       k: int, t0: float = 0.0) -> Lambda0Result:
    """Choose lam0_k so the Std116 canonicity residual vanishes at t0.

    The scalar equation is the residual canonicity_residual_points reports
    at (x0, lam0, t0).  lam0 supplies the fixed components; its k-th entry
    is the initial guess for the root solve: one Newton step (exact when the
    residual is affine in lam0_k), then bracketing and a Newton polish.
    """
    return _synthesize(sys, MappingSpec("Std116", cf), x0, lam0, k, t0)


def synthesize_lambda0_cross(sys: DynamicSystem, cf: ControllingFunction, x0, lam0,
                             k: int, t0: float = 0.0) -> Lambda0Result:
    """Cross220 analogue of synthesize_lambda0."""
    return _synthesize(sys, MappingSpec("Cross220", cf), x0, lam0, k, t0)


# ---------------------------------------------------------------------
# U_lam profile synthesis (linear-in-lam controlling functions)
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UlamSynthesis:
    cf: ControllingFunction
    ulam_series: np.ndarray    # U_lam at each trajectory sample
    propagator: object         # FundamentalMatrix, kind D


def synthesize_ulam(sys: DynamicSystem, traj: Trajectory, ulam0) -> UlamSynthesis:
    """Build U(x, lam, t) = (D(t) ulam0) . lam along a trajectory.

    D propagates the initial gradient ulam0, so U_lam = D ulam0 satisfies
    Udot_lam = A U_lam along the flow by construction.  U is free of x, so
    U_x = 0 and the Std116 residual -lam . Udot_lam - U_lam . lamdot
    vanishes up to rounding, since lamdot = -A^T lam.
    """
    n = sys.dim
    ulam0 = np.atleast_1d(np.asarray(ulam0, dtype=float))
    if ulam0.size != n:
        raise ValueError("ulam0 must have the system dimension")
    if not np.all(np.isfinite(ulam0)):
        raise ValueError("ulam0 must be finite")
    D = fundamental_matrix(sys, traj, kind="D")

    def dvec(t):
        return D.value_at(t) @ ulam0

    zeros_n = np.zeros(n)
    zeros_nn = np.zeros((n, n))
    cf = ControllingFunction(
        n,
        u=lambda x, lam, t: float(dvec(t) @ lam),
        ux=lambda x, lam, t: zeros_n,
        ulam=lambda x, lam, t: dvec(t),
        ut=lambda x, lam, t: float((sys.jac_at(x, t) @ dvec(t)) @ lam),
        uxlam=lambda x, lam, t: zeros_nn,
        uxx=lambda x, lam, t: zeros_nn,
        ulamlam=lambda x, lam, t: zeros_nn,
        uxt=lambda x, lam, t: zeros_n,
        ulamt=lambda x, lam, t: sys.jac_at(x, t) @ dvec(t),
    )
    ulam_series = D.values @ ulam0
    return UlamSynthesis(cf=cf, ulam_series=ulam_series, propagator=D)


# ---------------------------------------------------------------------
# Numerical inverse
# ---------------------------------------------------------------------

def _map_jacobian(spec: MappingSpec, s: PhaseState):
    """d(y, mu)/d(x, lam) = [[E + a dG_y/dx, a dG_y/dlam], [b dG_mu/dx, E + b dG_mu/dlam]]."""
    a, gy, b, gmu = _FORM[spec.variant](*spec.signs)
    cf, E = spec.cf, np.eye(spec.cf.dim)
    uxlam = cf.uxlam_at(s)
    d = {_UX: (cf.uxx_at(s), uxlam), _ULAM: (uxlam.T, cf.ulamlam_at(s))}  # dG/dx, dG/dlam
    return np.block([[E + a * d[gy][0], a * d[gy][1]], [b * d[gmu][0], E + b * d[gmu][1]]])


def invert_map(spec: MappingSpec, y, mu, t: float, x_init=None, lam_init=None):
    """Recover (x, lam) with apply_map(spec, (x, lam, t)) = (y, mu).

    Newton on the stacked residual r with the matrix _map_jacobian; returns
    once max|r| < tol = 1e-12 max(1, |(y, mu)|_inf).  Where a full step no
    longer reduces max|r|, r is at the map's rounding floor, accepted up to
    tol, or, when U_x or U_lam is FD-backed, up to tol + 4 eps max(1, |U|) /
    _FD_STEP; a higher floor tries steps halved down to 1/64.  After 50
    iterations only max|r| <= tol is accepted; ConvergenceError otherwise,
    also for a non-finite residual at the start.  A non-finite trial step
    counts as not reducing max|r|.
    """
    cf, n = spec.cf, spec.cf.dim
    y, mu, x0, lam0 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (
        y, mu, y if x_init is None else x_init, mu if lam_init is None else lam_init))
    for name, v in zip(("y", "mu", "x_init", "lam_init"), (y, mu, x0, lam0)):
        if v.shape != (n,):
            raise ValueError(f"dimension mismatch: controlling function n={n}, {name} n={v.size}")
    target = np.concatenate([y, mu])
    tol = 1e-12 * max(1.0, float(np.max(np.abs(target))))
    fd_term = 4.0 * np.finfo(float).eps / _FD_STEP if {"ux", "ulam"} & cf.fd_backed else 0.0

    def residual(z):
        if not np.isfinite(z).all():
            return np.full(2 * n, np.nan)
        return np.concatenate(apply_map(spec, PhaseState(z[:n], z[n:], t))) - target

    z = np.concatenate([x0, lam0])
    r = residual(z)
    norm = np.max(np.abs(r))
    if not np.isfinite(norm):
        raise ConvergenceError(f"non-finite residual {r} at the start of the inversion")
    for _ in range(50):
        if norm < tol:
            break
        s = PhaseState(z[:n], z[n:], t)
        try:
            delta = np.linalg.solve(_map_jacobian(spec, s), -r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian during inversion: {exc}")
        for alpha in 0.5 ** np.arange(7):
            r_try = residual(z + alpha * delta)
            if np.max(np.abs(r_try)) < norm:
                z, r, norm = z + alpha * delta, r_try, np.max(np.abs(r_try))
                break
            if alpha == 1.0 and (norm <= tol or fd_term > 0.0 and
                                 norm <= tol + fd_term * max(1.0, abs(cf.u_at(s)))):
                return z[:n].copy(), z[n:].copy()   # a full step stalls at the floor
        else:
            raise ConvergenceError(
                f"damped Newton stalled while inverting the mapping at residual floor {norm:.3e}")
    if norm <= tol:
        return z[:n].copy(), z[n:].copy()
    raise ConvergenceError(
        f"mapping inversion did not reach {tol:.0e} in 50 iterations (residual {norm:.3e})")

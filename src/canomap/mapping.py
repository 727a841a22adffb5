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
                        Trajectory, _central_diff_t, _dot, _is_int, _mv, _require_dim, _zero_blocks)
from .hamilton import _lift_at, _rates, fundamental_matrix

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
    "UlamSynthesis",
    "synthesize_ulam",
    "invert_map",
]

# Each variant as y = x + a G_y, mu = lam + b G_mu with G_y, G_mu the name
# of U's block "ux" or "ulam": variant -> (s1, s2) -> (a, G_y, b, G_mu).
_FORM = {
    "Std116": lambda s1, s2: (1, "ulam", -1, "ux"),
    "Symplectic119": lambda s1, s2: (0.5, "ulam", 0.5, "ux"),
    "SignVariant218": lambda s1, s2: (s1, "ulam", s2, "ux"),
    "SignVariant219": lambda s1, s2: (s1, "ux", s2, "ulam"),
    "Cross220": lambda s1, s2: (1, "ux", -1, "ulam"),
}
VARIANTS = tuple(_FORM)
_CRITERION_VARIANTS = ("Std116", "Cross220")   # the variants with a canonicity criterion


class DegeneratePivotError(ValueError):
    """The chosen component has no effect on the canonicity equation."""


class RootNotFoundError(RuntimeError):
    """The scalar canonicity equation has no root in the search bracket."""


class ConvergenceError(RuntimeError):
    """Newton iteration failed to meet tolerance."""


@dataclass(frozen=True, eq=False)
class MappingSpec:
    """Mapping variant + controlling function.

    signs applies where it changes the _FORM row (SignVariant218/219); every
    other variant takes the default (+1, -1) (Std116 is SignVariant218 with it).
    """

    variant: str
    cf: ControllingFunction
    signs: tuple = (1, -1)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if len(self.signs) != 2 or any(not (_is_int(s) and s in (-1, 1)) for s in self.signs):
            raise ValueError("signs must be a pair drawn from {+1, -1}")
        signs = tuple(int(s) for s in self.signs)
        if signs != (1, -1) and _FORM[self.variant](*signs) == _FORM[self.variant](1, -1):
            raise ValueError(f"{self.variant} has fixed signs (+1, -1); vary them in SignVariant218/219")
        object.__setattr__(self, "signs", signs)


def apply_map(spec: MappingSpec, s: PhaseState):
    """Forward image (y, mu) of the phase point under the chosen variant."""
    _require_dim(spec.cf, s)
    return _images(spec, s.t, s.x, s.lam)


def jacobian_condition(spec: MappingSpec, s: PhaseState):
    """(det dy/dx, det dmu/dlam) of the map apply_map computes at s."""
    _require_dim(spec.cf, s)
    return tuple(float(d) for d in _dets(spec, _rows(spec.cf, s.t, s.x, s.lam)))


def _rows(cf: ControllingFunction, t, X, LAM):
    """rows(block): U's block, fetched at most once, at one state (t a float,
    X and LAM (n,)) or stacked over M samples (t (M,), X and LAM (M, n)): a
    held constant broadcast, any other block called once per sample."""
    if X.ndim == 1:
        fetch = lambda block: getattr(cf, block)(X, LAM, t)
    else:
        ts, held = t.tolist(), cf._constant
        fetch = lambda block: (
            np.broadcast_to(held[block], (t.size,) + held[block].shape) if block in held
            else np.array([getattr(cf, block)(*a) for a in zip(X, LAM, ts)]))
    got = {}   # not functools.cache, whose wrapper costs more to build than one image
    return lambda block: got[block] if block in got else got.setdefault(block, fetch(block))


def _images(spec: MappingSpec, t, X, LAM):
    """(y, mu) = (x + a G_y, lam + b G_mu) at one state or a stack, as _rows."""
    a, gy, b, gmu = _FORM[spec.variant](*spec.signs)
    rows = _rows(spec.cf, t, X, LAM)
    return X + a * rows(gy), LAM + b * rows(gmu)


# G -> (dG/dx, dG/dlam) for G in {U_x, U_lam}, each read from the fetch of
# _rows (samples stacked first); uxlam[i, j] = d(U_x)_i/dlam_j, so dU_lam/dx
# is its transpose.
_DG = {"ux": (lambda fetch: fetch("uxx"), lambda fetch: fetch("uxlam")),
       "ulam": (lambda fetch: np.swapaxes(fetch("uxlam"), -1, -2),
                lambda fetch: fetch("ulamlam"))}


def _dets(spec: MappingSpec, fetch):
    """(det dy/dx, det dmu/dlam) at the sample(s) of fetch, one (batched) det each."""
    a, gy, b, gmu = _FORM[spec.variant](*spec.signs)
    E = np.eye(spec.cf.dim)
    return np.linalg.det(E + a * _DG[gy][0](fetch)), np.linalg.det(E + b * _DG[gmu][1](fetch))


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


def _residuals(spec, t, X, LAM, xdot, lamdot):
    """The Std116/Cross220 equation of canonicity_residual at M samples (t
    (M,), X and LAM (M, n), and the lifted derivative xdot, lamdot (M, n)
    there): raw residual r, its scale max(1, |lam||U_lam|) and the rows of
    U behind them.  Blocks are called once per sample."""
    rows = _rows(spec.cf, t, X, LAM)
    ux, ulam = rows("ux"), rows("ulam")
    if spec.variant == "Std116":
        udot = (_mv(np.swapaxes(rows("uxlam"), 1, 2), xdot) + _mv(rows("ulamlam"), lamdot)
                + rows("ulamt"))
        r = _dot(ux - LAM, udot) - _dot(ulam, lamdot)
    else:  # Cross220
        udot = _mv(rows("uxx"), xdot) + _mv(rows("uxlam"), lamdot) + rows("uxt")
        r = _dot(LAM - ulam, udot) - _dot(ulam - ux, xdot) + _dot(ulam, lamdot)
    with np.errstate(over="ignore", invalid="ignore"):   # v . v overflows past |v| ~ 1e154
        scale = np.maximum(1.0, np.sqrt(_dot(LAM, LAM)) * np.sqrt(_dot(ulam, ulam)))
    bad = ~np.isfinite(scale)
    if bad.any():   # redo those rows from lam and U_lam over their largest magnitudes m
        V = np.stack([LAM[bad], ulam[bad]])   # (2, k, n)
        m = np.maximum(np.max(np.abs(V), axis=2), np.finfo(float).tiny)   # a zero row stays 0
        V = V / m[:, :, None]
        scale[bad] = np.maximum(1.0, m[0] * m[1] * np.sqrt(_dot(V[0], V[0]) * _dot(V[1], V[1])))
    return r, scale, rows


def _require_criterion(sys, spec):
    if spec.cf.dim != sys.dim:
        raise ValueError(
            f"dimension mismatch: controlling function n={spec.cf.dim}, system n={sys.dim}")
    if spec.variant not in _CRITERION_VARIANTS:
        raise ValueError(
            f"canonicity criterion is defined for Std116 and Cross220, not {spec.variant!r}")


_TOL, _DEGENERATE_TOL = 1e-6, 1e-12   # every canonicity verdict's gates; no caller sets them


def _canonicity_over(spec, cols):
    """The report over the samples cols = (t, X, LAM, xdot, lamdot), in
    passes of min(1024, 2^16 / n^2) samples: that bounds the (samples, n, n)
    temporaries of U's second derivatives at 2^16 floats each."""
    block = min(1024, max(1, 2**16 // spec.cf.dim**2))
    out = []
    for i in range(0, cols[0].size, block):
        r, scale, rows = _residuals(spec, *(a[i:i + block] for a in cols))
        out.append((r, scale, *_dets(spec, rows)))
    r, scale, dys, dmus = map(np.concatenate, zip(*out))
    max_residual = float(np.max(np.abs(r) / scale))
    jac_min = float(np.min(np.abs(np.concatenate([dys, dmus]))))
    verdict = ("degenerate" if jac_min < _DEGENERATE_TOL
               else "canonical" if max_residual < _TOL else "violated")
    return CanonicityReport(max_residual=max_residual, residual_series=r,
                            jacobian_min_abs_det=jac_min, verdict=verdict,
                            det_y_series=dys, det_mu_series=dmus, times=np.array(cols[0]))


def canonicity_residual(sys: DynamicSystem, spec: MappingSpec,
                        traj: Trajectory) -> CanonicityReport:
    """Residual of the canonicity equality along an integrated trajectory.

    Std116 checks (U_x - lam) . Udot_lam - U_lam . lamdot; Cross220 checks
    (lam - U_lam) . Udot_x - (U_lam - U_x) . xdot + U_lam . lamdot, with all
    flow derivatives substituted from the canonical pair.  The scaled max
    residual is |r| / max(1, |lam||U_lam|) per sample; the verdict's fixed
    gates are 1e-6 on it and 1e-12 on the smaller Jacobian determinant.
    """
    _require_criterion(sys, spec)
    return _canonicity_over(spec, (traj.t, traj.x, traj.lam, *_rates(sys, traj)))


def canonicity_residual_points(sys: DynamicSystem, spec: MappingSpec,
                               points: Sequence[PhaseState]) -> CanonicityReport:
    """Off-flow variant of canonicity_residual over an arbitrary point cloud.

    Each point is treated as an initial condition: flow derivatives come
    from the canonical right-hand side at the point itself.  The verdict
    takes canonicity_residual's fixed gates.
    """
    if not points:
        raise ValueError("points must be nonempty")
    for s in points:
        _require_dim(sys, s)
    _require_criterion(sys, spec)
    t, X, LAM = (np.array([getattr(s, a) for s in points]) for a in ("t", "x", "lam"))
    return _canonicity_over(spec, (t, X, LAM, *_lift_at(sys, t, X, LAM)))


# ---------------------------------------------------------------------
# Initial-multiplier synthesis
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Lambda0Result:
    value: float
    status: str          # "ok" | "indeterminate"
    g_residual: float    # |g(value)|
    lam0: np.ndarray     # full multiplier vector with component k replaced


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


def synthesize_lambda0(sys: DynamicSystem, cf: ControllingFunction, x0, lam0,
                       k: int, t0: float = 0.0, variant: str = "Std116") -> Lambda0Result:
    """Choose lam0_k so the canonicity residual of variant (Std116 or
    Cross220) vanishes at t0.

    The scalar equation is the residual canonicity_residual_points reports
    at (x0, lam0, t0).  lam0 supplies the fixed components; its k-th entry
    is the initial guess for the root solve: one Newton step (exact when the
    residual is affine in lam0_k), then bracketing and a Newton polish.
    """
    spec = MappingSpec(variant, cf)
    _require_criterion(sys, spec)
    s = PhaseState(x0, lam0, t0)
    _require_dim(sys, s)
    if not (_is_int(k) and 0 <= k < sys.dim):
        raise ValueError(f"pivot index k={k!r} is not an integer in [0, {sys.dim})")

    t, X = np.array([s.t]), s.x[None]
    if sys.lift is None:   # x0 and t0 are fixed: one f and one A per solve
        xdot, minus_at = sys.f_at(s.x, s.t)[None], -sys.jac_at(s.x, s.t).T

    def g(v):   # lamdot as the verifier's _lift_at forms it: the lift, else (-A^T) lam
        lam = _with_component(s.lam, k, v)
        rates = (xdot, (minus_at @ lam)[None]) if sys.lift is None else _lift_at(sys, t, X, lam[None])
        return float(_residuals(spec, t, X, lam[None], *rates)[0][0])

    value, status, g_res = _solve_scalar(g, float(s.lam[k]))
    return Lambda0Result(value=value, status=status, g_residual=g_res,
                         lam0=_with_component(s.lam, k, value))


# ---------------------------------------------------------------------
# U_lam profile synthesis (linear-in-lam controlling functions)
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class UlamSynthesis:
    cf: ControllingFunction
    ulam_series: np.ndarray    # U_lam at each trajectory sample


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

    cf = ControllingFunction(
        n,
        u=lambda x, lam, t: float(dvec(t) @ lam),
        ulam=lambda x, lam, t: dvec(t),
        ut=lambda x, lam, t: float((sys.jac_at(x, t) @ dvec(t)) @ lam),
        ulamt=lambda x, lam, t: sys.jac_at(x, t) @ dvec(t),
        **_zero_blocks(n, ("ux", "uxlam", "uxx", "ulamlam", "uxt")),
    )
    return UlamSynthesis(cf=cf, ulam_series=D.values @ ulam0)


# ---------------------------------------------------------------------
# Numerical inverse
# ---------------------------------------------------------------------

def _map_jacobian(spec: MappingSpec, t, x, lam):
    """d(y, mu)/d(x, lam) = [[E + a dG_y/dx, a dG_y/dlam], [b dG_mu/dx, E + b dG_mu/dlam]]."""
    a, gy, b, gmu = _FORM[spec.variant](*spec.signs)
    n = spec.cf.dim
    rows, E, J = _rows(spec.cf, t, x, lam), np.eye(n), np.empty((2 * n, 2 * n))
    (yx, ylam), (mux, mulam) = ([d(rows) for d in _DG[g]] for g in (gy, gmu))
    J[:n, :n], J[:n, n:], J[n:, :n], J[n:, n:] = E + a * yx, a * ylam, b * mux, E + b * mulam
    return J


def invert_map(spec: MappingSpec, y, mu, t: float, x_init=None, lam_init=None):
    """Recover (x, lam) with apply_map(spec, (x, lam, t)) = (y, mu).

    Newton on the stacked residual r with the matrix _map_jacobian; returns
    once max|r| < tol = 1e-12 max(1, |(y, mu)|_inf).  Where a full step no
    longer reduces max|r|, r is at the map's rounding floor, accepted up to
    tol, or, when U_x or U_lam is FD-backed, up to tol + 4 eps max(1, |U|) /
    _FD_STEP; a higher floor tries steps halved down to 1/64.  After 50
    iterations only max|r| <= tol is accepted; ConvergenceError otherwise,
    also for a non-finite residual at the start.  A non-finite trial step
    counts as not reducing max|r|; a non-finite t raises ValueError.
    """
    cf, n = spec.cf, spec.cf.dim
    y, mu, x_init, lam_init = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (
        y, mu, y if x_init is None else x_init, mu if lam_init is None else lam_init))
    for name, v in zip(("y", "mu", "x_init", "lam_init"), (y, mu, x_init, lam_init)):
        if v.shape != (n,):
            raise ValueError(f"dimension mismatch: controlling function n={n}, {name} n={v.size}")
    target, t = np.concatenate([y, mu]), float(t)
    if not abs(t) < np.inf:
        raise ValueError(f"non-finite time t={t}")
    tol = 1e-12 * max(1.0, float(np.max(np.abs(target))))
    _, gy, _, gmu = _FORM[spec.variant](*spec.signs)
    fd_term = 4.0 * np.finfo(float).eps / _FD_STEP if {gy, gmu} & cf.fd_backed else 0.0

    def residual(z):
        if not np.isfinite(z).all():
            return np.full(2 * n, np.nan)
        return np.concatenate(_images(spec, t, z[:n], z[n:])) - target

    z = np.concatenate([x_init, lam_init])
    r = residual(z)
    norm = np.max(np.abs(r))
    if not np.isfinite(norm):
        raise ConvergenceError(f"non-finite residual {r} at the start of the inversion")
    for _ in range(50):
        if norm < tol:
            break
        try:
            delta = np.linalg.solve(_map_jacobian(spec, t, z[:n], z[n:]), -r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian during inversion: {exc}")
        for alpha in 0.5 ** np.arange(7):
            r_try = residual(z + alpha * delta)
            if np.max(np.abs(r_try)) < norm:
                z, r, norm = z + alpha * delta, r_try, np.max(np.abs(r_try))
                break
            if alpha == 1.0 and (norm <= tol or fd_term > 0.0 and norm <= tol + fd_term
                                 * max(1.0, abs(float(cf.u(z[:n], z[n:], t))))):
                return z[:n].copy(), z[n:].copy()   # a full step stalls at the floor
        else:
            raise ConvergenceError(
                f"damped Newton stalled while inverting the mapping at residual floor {norm:.3e}")
    if norm <= tol:
        return z[:n].copy(), z[n:].copy()
    raise ConvergenceError(
        f"mapping inversion did not reach {tol:.0e} in 50 iterations (residual {norm:.3e})")

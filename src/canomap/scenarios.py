"""Built-in systems and end-to-end constructions.

Three worked settings exercise the whole library: a quadratic controlling
function whose cross mapping is the quarter-turn of the phase plane, the
planar central-gravity (ballistic) system in polar velocities with its
printed adjoint equations, and the reduction of an autonomous scalar system
to constant drift ydot = a via the straightening PDE U + c U_lam = F solved
by characteristics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .phasecore import (ControllingFunction, DomainError, DynamicSystem, Trajectory,
                        _central_diff_t, _cumtrapz, _positive_dim, _subsample, _zero_blocks)
# integrate is unused here but stays importable:
# perfbench/tracing.py patches canomap.scenarios.integrate.
from .hamilton import _h_series, _xdot, integrate
from .mapping import MappingSpec, _images

__all__ = [
    "ballistic_system",
    "rotation_example",
    "StraighteningProblem",
    "StraighteningSolution",
    "straightening_solve",
    "ConstantFieldReport",
    "constant_field_reduction",
]

_R_MIN = 1e-6
_RESIDUAL_FD_H = 1e-5  # central-difference step in lam of residual_check


# ---------------------------------------------------------------------
# Example system: central gravity in polar velocity coordinates
# ---------------------------------------------------------------------

def ballistic_system(sigma: float) -> DynamicSystem:
    """Planar motion in a central field, state (v_r, v_phi, r, phi).

        v_r'   = v_phi^2 / r - sigma^2 / r^2
        v_phi' = -v_r v_phi / r
        r'     = v_r
        phi'   = v_phi / r

    sigma^2 is the gravitational parameter.  r is guarded away from the
    singularity: r <= 1e-6 raises DomainError so integrations truncate
    with a diagnostic instead of blowing through the center.  The system
    supplies its lift: the field, then the printed multiplier equations

        lam1' = lam2 v_phi / r - lam3
        lam2' = -2 lam1 v_phi / r + lam2 v_r / r - lam4 / r
        lam3' = lam1 v_phi^2 / r^2 - 2 lam1 sigma^2 / r^3
                - lam2 v_r v_phi / r^2 + lam4 v_phi / r^2
        lam4' = 0

    written out apart from the generic adjoint -A^T lam of jac, so the
    printed system can be tested against the machinery that reproduces it.
    """
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    try:
        sig2 = float(sigma) ** 2
    except OverflowError:   # sigma above about 1.34e154
        raise ValueError(f"sigma={sigma} is too large: sigma^2 overflows") from None

    def f(s, t):
        v_r, v_phi, r, _phi = s.tolist()
        if r <= _R_MIN:
            raise DomainError(f"radius {r} at or below the guard {_R_MIN}")
        return np.array([v_phi ** 2 / r - sig2 / r ** 2,
                         -v_r * v_phi / r,
                         v_r,
                         v_phi / r])

    def jac(s, t):
        v_r, v_phi, r, _phi = s.tolist()
        if r <= _R_MIN:
            raise DomainError(f"radius {r} at or below the guard {_R_MIN}")
        return np.array([
            0.0, 2.0 * v_phi / r, -v_phi ** 2 / r ** 2 + 2.0 * sig2 / r ** 3, 0.0,
            -v_phi / r, -v_r / r, v_r * v_phi / r ** 2, 0.0,
            1.0, 0.0, 0.0, 0.0,
            0.0, 1.0 / r, -v_phi / r ** 2, 0.0,
        ]).reshape(4, 4)

    def lift(s, lam, t):   # f's expressions, then the multiplier equations
        v_r, v_phi, r, _phi = s
        l1, l2, l3, l4 = lam
        if r <= _R_MIN:
            raise DomainError(f"radius {r} at or below the guard {_R_MIN}")
        return [v_phi ** 2 / r - sig2 / r ** 2, -v_r * v_phi / r, v_r, v_phi / r,
                l2 * v_phi / r - l3,
                -2.0 * l1 * v_phi / r + l2 * v_r / r - l4 / r,
                l1 * v_phi ** 2 / r ** 2 - 2.0 * l1 * sig2 / r ** 3
                - l2 * v_r * v_phi / r ** 2 + l4 * v_phi / r ** 2,
                0.0]

    return DynamicSystem(dim=4, f=f, jac=jac, autonomous=True, lift=lift)


# ---------------------------------------------------------------------
# Quadratic controlling function: quarter-turn of the phase plane
# ---------------------------------------------------------------------

def rotation_example(u_t: Optional[Callable[[float], float]] = None,
                     dim: int = 1):
    """The Cross220 spec of U = |lam|^2/2 - |x|^2/2 + lam.x + u(t).

    The cross mapping y = x + U_x, mu = lam - U_lam sends (x, lam) to
    (lam, -x) exactly — a quarter-turn of the phase plane — for every
    differentiable u(t), which never enters the gradients.
    """
    n = _positive_dim(dim)
    E = np.eye(n)
    u_val = (lambda t: 0.0) if u_t is None else (lambda t: float(u_t(t)))
    cf = ControllingFunction(
        n,
        u=lambda x, lam, t: 0.5 * float(lam @ lam) - 0.5 * float(x @ x)
            + float(lam @ x) + u_val(t),
        ux=lambda x, lam, t: lam - x,
        ulam=lambda x, lam, t: lam + x,
        ut=lambda x, lam, t: float(_central_diff_t(u_val, t)),   # exactly 0.0 without u_t
        uxlam=E, uxx=-E, ulamlam=E,
        **_zero_blocks(n, ("uxt", "ulamt")),
    )
    return MappingSpec("Cross220", cf)


# ---------------------------------------------------------------------
# Straightening PDE  U + c U_lam = F  (method of characteristics, n=1)
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StraighteningProblem:
    """Targets for the constant-drift reduction ydot = a, mu = c, four finite
    floats (n = 1; a sequence raises TypeError) with |c| >= 1e-12, since
    U + c U_lam = F is solved along lam.  The consistency a c = h fixes the
    energy level h = a c of the motion being straightened."""

    c: float
    a: float
    y0: float
    lam_b: float        # reference multiplier where U(x, lam_b) = 0

    def __post_init__(self):
        for name in ("c", "a", "y0", "lam_b"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not np.isfinite([self.c, self.a, self.y0, self.lam_b]).all():
            raise ValueError("c, a, y0 and lam_b must be finite")
        if abs(self.c) < 1e-12:
            raise ValueError("c must be nonzero (|c| >= 1e-12)")


# 8-point Gauss–Legendre nodes and weights mapped to [0, 1]
_GL_X = np.array([0.019855071751231912, 0.10166676129318664, 0.2372337950418355,
                  0.4082826787521751, 0.5917173212478248, 0.7627662049581645,
                  0.8983332387068134, 0.9801449282487681])
_GL_W = np.array([0.05061426814518853, 0.11119051722668721, 0.15685332293894344,
                  0.18134189168918083, 0.18134189168918083, 0.15685332293894344,
                  0.11119051722668721, 0.05061426814518853])


def _weighted(g, c, a, b):
    """∫_{a_i}^{b_i} e^{(s - b_i)/c} g(s, i) ds for every cell (1-d a, b) by
    a composite 8-point Gauss–Legendre rule, 1,024 cells at a time.  g(s, i)
    evaluates the integrands of cells i at nodes s of shape (8, len(i)).
    Panels are at most min(0.05, 2|c|) wide and cover only the 36|c| of a
    cell next to the end where the weight is heavier (b when (b - a)/c > 0);
    the rest weighs < e^-36.  A zero-width cell gives 0.0, and a non-finite
    one gets one panel and reads NaN."""
    w = b - a
    span = np.clip(w, -36.0 * abs(c), 36.0 * abs(c)) + 0.0 * w   # NaN unless w is finite
    first = np.where((w > 0) == (c > 0), -span, -w)                # s - b where panels start
    panels = np.nan_to_num(np.ceil(np.abs(span) / min(0.05, 2.0 * abs(c))), nan=1.0).astype(int)
    out = np.zeros(a.shape)
    for lo in range(0, a.size, 1024):
        n = panels[lo:lo + 1024]
        i = np.repeat(np.arange(lo, lo + n.size), n)           # the cell of each panel
        dh = span[i] / panels[i]
        o = first[i] + dh * (np.arange(i.size) - np.repeat(np.cumsum(n) - n, n) + _GL_X[:, None])
        vals = dh * (_GL_W @ (np.exp(o / c) * g(b[i] + o, i)))
        out[lo:lo + n.size] = np.bincount(i - lo, vals, minlength=n.size)
    return out


def _field(F, x, lam):
    """F evaluated on arrays and broadcast to the shape of (x, lam)."""
    return np.broadcast_to(np.asarray(F(x, lam), dtype=float), np.broadcast(x, lam).shape)


@dataclass(frozen=True, eq=False)
class StraighteningSolution:
    """Solved U on the (x, lam) grid, output only, and U anywhere from lam_b."""

    x_grid: np.ndarray
    lam_grid: np.ndarray
    U: np.ndarray            # shape (len(x_grid), len(lam_grid))
    problem: StraighteningProblem
    F: Callable

    def _from(self, x, lam, lam_ref, u_ref):
        """U at (x, lam), 1-d arrays, continued from u_ref at lam_ref (an array)."""
        c = self.problem.c
        integral = _weighted(lambda s, i: _field(self.F, x[i], s), c, lam_ref, lam)
        return np.where(lam == lam_ref, u_ref,
                        np.exp(-(lam - lam_ref) / c) * u_ref + integral / c)

    def _at(self, x, lam):
        """U at the points (x, lam): the integral from lam_b, where U = 0."""
        return self._from(x, lam, np.full(lam.shape, self.problem.lam_b), 0.0)

    def evaluate(self, x: float, lam: float) -> float:
        """U(x, lam) anywhere."""
        return float(self._at(np.array([float(x)]), np.array([float(lam)]))[0])

    def ulam(self, x: float, lam: float) -> float:
        """U_lam from the equation itself: (F - U) / c."""
        return (float(self.F(x, lam)) - self.evaluate(x, lam)) / self.problem.c

    def residual_check(self) -> float:
        """max |U + c U_lam - F| over the grid, U_lam by central FD from each node."""
        X, L = (v.ravel() for v in np.meshgrid(self.x_grid, self.lam_grid, indexing="ij"))
        U = self.U.ravel()
        hi, lo = L + _RESIDUAL_FD_H, L - _RESIDUAL_FD_H
        u_hi, u_lo = self._from(X, hi, L, U), self._from(X, lo, L, U)
        # NaN, with no warning, where L +- h rounds to L (|L| near 1e12)
        slope = np.divide(u_hi - u_lo, hi - lo, out=np.full(L.shape, np.nan), where=hi != lo)
        res = U + self.problem.c * slope - _field(self.F, X, L)
        return float(np.max(np.abs(res), initial=0.0))


def straightening_solve(prob: StraighteningProblem, F: Callable, x_grid,
                        lam_grid) -> StraighteningSolution:
    """Solve U + c U_lam = F(x, lam) column-by-column with U(x, lam_b) = 0.

    Each grid x is an independent characteristic line in lam; the exact
    integrating-factor update between consecutive lam nodes is

        U(lam_{k+1}) = e^{-dlam/c} U(lam_k)
                       + (1/c) ∫ e^{-(lam_{k+1}-s)/c} F(x, s) ds

    with the integrals of every cell of every column by one composite
    8-point Gauss–Legendre rule (_weighted).  F is called on arrays, and
    F(x, lam) must return something that broadcasts to their shape (a
    constant does), else ValueError.  F carries the system, so none is
    passed.  The problem is scalar (n = 1, every target a float): with 2n
    independent variables the characteristics picture stops being a
    desk-scale computation.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    lam_grid = np.asarray(lam_grid, dtype=float)
    if x_grid.ndim != 1 or lam_grid.ndim != 1 or lam_grid.size < 2:
        raise ValueError("x_grid and lam_grid must be 1-d (lam_grid with >= 2 nodes)")
    if not (np.all(np.diff(lam_grid) > 0) and np.all(np.diff(x_grid) > 0)):
        raise ValueError("x_grid and lam_grid must be strictly increasing")
    if abs(lam_grid[0] - prob.lam_b) > 1e-12 * max(1.0, abs(prob.lam_b)):
        raise ValueError("lam_grid must start at the boundary lam_b")
    c = prob.c
    X, A = (v.ravel() for v in np.meshgrid(x_grid, lam_grid[:-1], indexing="ij"))
    B = np.tile(lam_grid[1:], x_grid.size)
    cells = _weighted(lambda s, i: _field(F, X[i], s), c, A, B).reshape(x_grid.size, -1)
    decay = np.exp(-np.diff(lam_grid) / c)
    U = np.zeros((x_grid.size, lam_grid.size))
    for k in range(1, lam_grid.size):
        U[:, k] = decay[k - 1] * U[:, k - 1] + cells[:, k - 1] / c
    return StraighteningSolution(x_grid, lam_grid, U, prob, F)


# ---------------------------------------------------------------------
# Example 2 end-to-end: reduce an autonomous system to constant drift
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstantFieldReport:
    """How well the solved U straightens the extremal.  No Hamilton-Jacobi
    residual with G = a.mu is kept: h = a.c makes |h - a.mu| = |a| |c - mu|,
    a scaled mu_defect."""

    solution: StraighteningSolution
    f_line: np.ndarray          # cumulative ∫ lam dx along the extremal
    pde_residual_max: float
    ydot_max_err: float         # max |ydot - a| on the mapped motion
    mu_defect: float            # max |lam - U_x - c| (compatibility diagnostic)
    energy_mismatch: float      # |lam0.f(x0) - a c|, a c the energy level h


def constant_field_reduction(prob: StraighteningProblem, sys: DynamicSystem,
                             traj: Trajectory) -> ConstantFieldReport:
    """Synthesize U that straightens an autonomous scalar system along traj,
    an extremal of sys that the caller marched (integrate, or samples built
    by hand, whose xdot then comes from one f call per sample).

    Builds F(x, lam) = ∫ lam dx + c (y0 - x) with the line integral taken
    along traj, solves the straightening PDE on a fixed 101 x 101 grid (x
    over the extremal's range, lam over [lam_b, lam_b + 2]), and reports how
    well the mapped motion achieves ydot = a and mu = c.  When the extremal
    is at rest (x constant, e.g. xdot = x at x0 = 0) x spans x0 +- 1 and F
    takes the line integral as zero for every x, which is exact on the line
    x = x0 only, and everywhere only when the field vanishes everywhere.
    """
    if not sys.autonomous:
        raise ValueError("constant_field_reduction requires an autonomous system")
    if sys.dim != 1:
        raise ValueError("constant_field_reduction handles n=1 only")
    ts, xs = traj.t, traj.x[:, 0]
    c, a, y0 = prob.c, prob.a, prob.y0

    # line integral ∫ lam dx = ∫ H dt along the extremal, H = lam f
    hs = _h_series(traj, _xdot(sys, traj))
    f_line = _cumtrapz(ts, hs)
    energy_mismatch = float(abs(hs[0] - a * c))

    frozen = bool(np.max(np.abs(xs - xs[0])) < 1e-12)
    if frozen:
        # the extremal sits at x0; the line integral along it is zero
        F = lambda x, lam: c * (y0 - x)
        x_grid = np.linspace(xs[0] - 1.0, xs[0] + 1.0, 101)
    else:
        d = np.diff(xs)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("extremal is not monotone in x; cannot parameterize "
                             "the line integral by x on this time window")
        order = np.argsort(xs)
        xs_sorted = xs[order]
        line_sorted = f_line[order]
        F = lambda x, lam: np.interp(x, xs_sorted, line_sorted) + c * (y0 - x)
        x_grid = np.linspace(xs_sorted[0], xs_sorted[-1], 101)

    sol = straightening_solve(prob, F, x_grid, np.linspace(prob.lam_b, prob.lam_b + 2.0, 101))
    pde_residual = sol.residual_check()

    spec = MappingSpec("Std116", ControllingFunction(   # U_x: the FD rule's difference of u
        1, u=lambda x, lam, t: sol.evaluate(x[0], lam[0]),
        ulam=lambda x, lam, t: np.array([sol.ulam(x[0], lam[0])])))

    # mapped motion on a subsample of the extremal
    idx = _subsample(traj, 41)
    ys, mus = (v[:, 0] for v in _images(spec, ts[idx], traj.x[idx], traj.lam[idx]))
    mu_defect = float(np.max(np.abs(mus - c)))
    ydots = np.gradient(ys, ts[idx])
    ydot_max_err = float(np.max(np.abs(ydots - a)))
    return ConstantFieldReport(solution=sol, f_line=f_line,
                               pde_residual_max=pde_residual,
                               ydot_max_err=ydot_max_err,
                               mu_defect=mu_defect,
                               energy_mismatch=energy_mismatch)

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

from .phasecore import (ControllingFunction, DomainError, DynamicSystem,
                        PhaseState, Trajectory, _central_diff_t, _cumtrapz)
from .hamilton import hamiltonian, integrate
from .mapping import MappingSpec, apply_map
from .invariants import hj_residual_U

__all__ = [
    "ballistic_system",
    "make_ballistic_adjoint",
    "rotation_example",
    "StraighteningProblem",
    "StraighteningSolution",
    "straightening_solve",
    "ConstantFieldReport",
    "constant_field_reduction",
]

_R_MIN = 1e-6
_QUAD_TOL = 1e-10      # adaptive Simpson tolerance of the straightening quadratures
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
    with a diagnostic instead of blowing through the center.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    sig2 = float(sigma) ** 2

    def f(s, t):
        v_r, v_phi, r, _phi = s
        if r <= _R_MIN:
            raise DomainError(f"radius {r} at or below the guard {_R_MIN}")
        return np.array([v_phi ** 2 / r - sig2 / r ** 2,
                         -v_r * v_phi / r,
                         v_r,
                         v_phi / r])

    def jac(s, t):
        v_r, v_phi, r, _phi = s
        if r <= _R_MIN:
            raise DomainError(f"radius {r} at or below the guard {_R_MIN}")
        return np.array([
            [0.0, 2.0 * v_phi / r, -v_phi ** 2 / r ** 2 + 2.0 * sig2 / r ** 3, 0.0],
            [-v_phi / r, -v_r / r, v_r * v_phi / r ** 2, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0 / r, -v_phi / r ** 2, 0.0],
        ])

    return DynamicSystem(dim=4, f=f, jac=jac, autonomous=True)


def make_ballistic_adjoint(sigma: float) -> Callable[[PhaseState], np.ndarray]:
    """Hand-coded multiplier equations for ballistic_system(sigma):

        lam1' = lam2 v_phi / r - lam3
        lam2' = -2 lam1 v_phi / r + lam2 v_r / r - lam4 / r
        lam3' = lam1 v_phi^2 / r^2 - 2 lam1 sigma^2 / r^3
                - lam2 v_r v_phi / r^2 + lam4 v_phi / r^2
        lam4' = 0

    Kept separate from the generic adjoint -A^T lam so the written-out
    system can be tested against the machinery that is supposed to
    reproduce it.
    """
    sig2 = float(sigma) ** 2

    def rhs(s: PhaseState) -> np.ndarray:
        v_r, v_phi, r, _phi = s.x
        l1, l2, l3, l4 = s.lam
        if r <= _R_MIN:
            raise DomainError(f"radius {r} at or below the guard {_R_MIN}")
        return np.array([
            l2 * v_phi / r - l3,
            -2.0 * l1 * v_phi / r + l2 * v_r / r - l4 / r,
            l1 * v_phi ** 2 / r ** 2 - 2.0 * l1 * sig2 / r ** 3
            - l2 * v_r * v_phi / r ** 2 + l4 * v_phi / r ** 2,
            0.0,
        ])

    return rhs


# ---------------------------------------------------------------------
# Quadratic controlling function: quarter-turn of the phase plane
# ---------------------------------------------------------------------

def rotation_example(u_t: Optional[Callable[[float], float]] = None,
                     dim: int = 1):
    """U = |lam|^2/2 - |x|^2/2 + lam.x + u(t) and its Cross220 spec.

    The cross mapping y = x + U_x, mu = lam - U_lam sends (x, lam) to
    (lam, -x) exactly — a quarter-turn of the phase plane — for every
    differentiable u(t), which never enters the gradients.
    """
    n = int(dim)
    E = np.eye(n)
    z = np.zeros(n)

    if u_t is None:
        u_val = lambda t: 0.0
        ut_val = lambda t: 0.0
    else:
        u_val = lambda t: float(u_t(t))
        ut_val = lambda t: float(_central_diff_t(u_t, t))

    cf = ControllingFunction(
        n,
        u=lambda x, lam, t: 0.5 * float(lam @ lam) - 0.5 * float(x @ x)
            + float(lam @ x) + u_val(t),
        ux=lambda x, lam, t: lam - x,
        ulam=lambda x, lam, t: lam + x,
        ut=lambda x, lam, t: ut_val(t),
        uxlam=lambda x, lam, t: E,
        uxx=lambda x, lam, t: -E,
        ulamlam=lambda x, lam, t: E,
        uxt=lambda x, lam, t: z,
        ulamt=lambda x, lam, t: z,
    )
    return cf, MappingSpec("Cross220", cf)


# ---------------------------------------------------------------------
# Straightening PDE  U + c U_lam = F  (method of characteristics, n=1)
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StraighteningProblem:
    """Targets for the constant-drift reduction ydot = a, mu = c.

    The consistency a . c = h ties the drift and multiplier targets to the
    energy level of the motion being straightened.
    """

    c: np.ndarray
    a: np.ndarray
    h: float
    y0: np.ndarray
    lam_b: float        # reference multiplier where U(x, lam_b) = 0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        if not (c.shape == a.shape == y0.shape):
            raise ValueError("c, a, y0 must share one dimension")
        h = float(self.h)
        if abs(float(np.dot(a, c)) - h) > 1e-12 * max(1.0, abs(h)):
            raise ValueError(f"inconsistent targets: a.c = {float(np.dot(a, c))} != h = {h}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "lam_b", float(self.lam_b))


def _simpson(g, a, b, tol, depth=48):
    """Adaptive Simpson of every cell [a_i, b_i] (1-d a, b) at once.  g(s, i)
    evaluates the integrands of cells i at nodes s of shape (q, len(i)).  A
    cell refines while not |err| <= 15 tol, halving tol per level, and sums
    in the scalar recursion's order, so it gets that recursion's value bit
    for bit; zero-width cells give 0.0."""
    out = np.zeros(a.shape)
    cells = i = np.flatnonzero(a != b)
    a, b = a[i], b[i]
    fa, fm, fb = g(np.stack([a, 0.5 * (a + b), b]), i)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    levels = []
    while True:
        m = 0.5 * (a + b)
        flm, frm = g(np.stack([0.5 * (a + m), 0.5 * (m + b)]), i)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        r = np.flatnonzero(~(np.abs(err) <= 15.0 * tol)) if depth > 0 else i[:0]
        levels.append((left + right + err / 15.0, r))
        if r.size == 0:
            break
        a, b, i, fa, fm, fb, whole = [np.concatenate([u[r], v[r]]) for u, v in (
            (a, m), (m, b), (i, i), (fa, fm), (flm, frm), (fm, fb), (left, right))]
        tol, depth = 0.5 * tol, depth - 1
    val = levels.pop()[0]
    for parent, r in reversed(levels):
        parent[r] = val[:r.size] + val[r.size:]
        val = parent
    out[cells] = val
    return out


def _field(F, x, lam):
    """F evaluated on arrays and broadcast to the shape of (x, lam)."""
    return np.broadcast_to(np.asarray(F(x, lam), dtype=float), np.broadcast(x, lam).shape)


def _nearest(grid, v):
    """Nearest node of an increasing grid to each v (ties: lower, as argmin)."""
    i = np.clip(np.searchsorted(grid, v), 1, grid.size - 1)
    return np.where(np.abs(grid[i] - v) < np.abs(grid[i - 1] - v), i, i - 1)


@dataclass(frozen=True, eq=False)
class StraighteningSolution:
    """Solved U on the (x, lam) grid plus point evaluation off the grid."""

    x_grid: np.ndarray
    lam_grid: np.ndarray
    U: np.ndarray            # shape (len(x_grid), len(lam_grid))
    problem: StraighteningProblem
    F: Callable
    degenerate: bool         # |c| below threshold: algebraic U = F case

    def _c(self) -> float:
        return float(self.problem.c[0])

    def _at(self, x, lam):
        """U at the points (x, lam), 1-d arrays of one size: incremental
        integrating-factor quadrature from the nearest solved node where x
        is a grid column, else from the boundary lam_b directly."""
        if self.degenerate:
            return _field(self.F, x, lam)
        c = self._c()
        j = _nearest(self.x_grid, x)
        k = _nearest(self.lam_grid, lam)
        on = np.abs(self.x_grid[j] - x) <= 1e-12 * np.maximum(1.0, np.abs(x))
        lam_ref = np.where(on, self.lam_grid[k], self.problem.lam_b)
        u_ref = np.where(on, self.U[j, k], 0.0)
        integral = _simpson(lambda s, i: np.exp(-(lam[i] - s) / c) * _field(self.F, x[i], s),
                            lam_ref, lam, _QUAD_TOL)
        return np.where(lam == lam_ref, u_ref,
                        np.exp(-(lam - lam_ref) / c) * u_ref + integral / c)

    def evaluate(self, x: float, lam: float) -> float:
        """U(x, lam) anywhere."""
        return float(self._at(np.array([float(x)]), np.array([float(lam)]))[0])

    def ulam(self, x: float, lam: float) -> float:
        """U_lam from the equation itself: (F - U) / c."""
        if self.degenerate:
            raise ValueError("U_lam is not determined by the degenerate (c=0) equation")
        return (float(self.F(x, lam)) - self.evaluate(x, lam)) / self._c()

    def residual_check(self) -> float:
        """max |U + c U_lam - F| over the grid, U_lam by central FD."""
        if self.degenerate:
            return 0.0
        X, L = (v.ravel() for v in np.meshgrid(self.x_grid, self.lam_grid, indexing="ij"))
        hi, lo = L + _RESIDUAL_FD_H, L - _RESIDUAL_FD_H
        # blocks of 2048 points keep the quadrature's temporaries small
        u_hi, u_lo = (np.concatenate([self._at(X[b:b + 2048], v[b:b + 2048])
                                      for b in range(0, X.size, 2048)]) for v in (hi, lo))
        res = self.U.ravel() + self._c() * ((u_hi - u_lo) / (hi - lo)) - _field(self.F, X, L)
        return float(np.max(np.abs(res), initial=0.0))


def straightening_solve(prob: StraighteningProblem, sys: DynamicSystem,
                        F: Callable, x_grid, lam_grid) -> StraighteningSolution:
    """Solve U + c U_lam = F(x, lam) column-by-column with U(x, lam_b) = 0.

    Each grid x is an independent characteristic line in lam; the exact
    integrating-factor update between consecutive lam nodes is

        U(lam_{k+1}) = e^{-dlam/c} U(lam_k)
                       + (1/c) ∫ e^{-(lam_{k+1}-s)/c} F(x, s) ds

    with the integrals of every cell of every column in one batched adaptive
    Simpson to _QUAD_TOL.  F is called on arrays, and F(x, lam) must return
    something that broadcasts to their shape (a constant does), else
    ValueError.  Only n=1 is supported — with 2n independent variables the
    characteristics picture stops being a desk-scale computation.
    """
    if prob.c.size != 1 or sys.dim != 1:
        raise ValueError("straightening_solve handles n=1 only; "
                         "higher dimensions need a genuine PDE solver")
    x_grid = np.asarray(x_grid, dtype=float)
    lam_grid = np.asarray(lam_grid, dtype=float)
    if x_grid.ndim != 1 or lam_grid.ndim != 1 or lam_grid.size < 2:
        raise ValueError("x_grid and lam_grid must be 1-d (lam_grid with >= 2 nodes)")
    if np.any(np.diff(lam_grid) <= 0) or np.any(np.diff(x_grid) <= 0):
        raise ValueError("x_grid and lam_grid must be strictly increasing")
    if abs(lam_grid[0] - prob.lam_b) > 1e-12 * max(1.0, abs(prob.lam_b)):
        raise ValueError("lam_grid must start at the boundary lam_b")
    c = float(prob.c[0])
    if abs(c) < 1e-12:
        # Degenerate equation: U = F pointwise, no lam propagation.
        U = np.array(_field(F, x_grid[:, None], lam_grid))
        return StraighteningSolution(x_grid, lam_grid, U, prob, F, True)
    X, A = (v.ravel() for v in np.meshgrid(x_grid, lam_grid[:-1], indexing="ij"))
    B = np.tile(lam_grid[1:], x_grid.size)
    cells = _simpson(lambda s, i: np.exp(-(B[i] - s) / c) * _field(F, X[i], s),
                     A, B, _QUAD_TOL).reshape(x_grid.size, -1)
    decay = np.exp(-np.diff(lam_grid) / c)
    U = np.zeros((x_grid.size, lam_grid.size))
    for k in range(1, lam_grid.size):
        U[:, k] = decay[k - 1] * U[:, k - 1] + cells[:, k - 1] / c
    return StraighteningSolution(x_grid, lam_grid, U, prob, F, False)


# ---------------------------------------------------------------------
# Example 2 end-to-end: reduce an autonomous system to constant drift
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstantFieldReport:
    solution: StraighteningSolution
    traj: Trajectory
    f_line: np.ndarray          # cumulative ∫ lam dx along the extremal
    pde_residual_max: float
    ydot_max_err: float         # max |ydot - a| on the mapped motion
    mu_defect: float            # max |lam - U_x - c| (compatibility diagnostic)
    hj_residual: float          # HJ residual with G(y, mu) = a.mu
    energy_mismatch: float      # |lam0.f(x0) - h|
    boundary_note: str


def constant_field_reduction(prob: StraighteningProblem, sys: DynamicSystem,
                             x0, lam0, lam_grid=None, x_grid=None,
                             t1: float = 1.0, step: float = 1e-3,
                             t0: float = 0.0) -> ConstantFieldReport:
    """Synthesize U that straightens an autonomous scalar system.

    Builds F(x, lam) = ∫ lam dx + c (y0 - x) with the line integral taken
    along the system's own extremal from (x0, lam0, t0) to t1 (for a frozen
    field every grid x is its own extremal and the integral vanishes), solves
    the straightening PDE, and reports how well the mapped motion achieves
    ydot = a, mu = c, and the Hamilton-Jacobi equation with G = a.mu.
    """
    if not sys.autonomous:
        raise ValueError("constant_field_reduction requires an autonomous system")
    if sys.dim != 1 or prob.c.size != 1:
        raise ValueError("constant_field_reduction handles n=1 only")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=float))
    s0 = PhaseState(x0, lam0, t0)
    traj = integrate(sys, s0, t1, step)
    ts, xs = traj.t, traj.x[:, 0]
    c = float(prob.c[0])
    a = float(prob.a[0])
    y0 = float(prob.y0[0])
    energy_mismatch = abs(hamiltonian(sys, s0) - prob.h)

    # line integral ∫ lam dx = ∫ H dt along the extremal, H = lam f
    f_line = _cumtrapz(ts, np.array([hamiltonian(sys, s) for s in traj]))

    frozen = bool(np.max(np.abs(xs - xs[0])) < 1e-12)
    if frozen:
        # every x sits on its own frozen extremal; the line integral is zero
        F = lambda x, lam: c * (y0 - x)
        if x_grid is None:
            x_grid = np.linspace(x0[0] - 1.0, x0[0] + 1.0, 101)
    else:
        d = np.diff(xs)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("extremal is not monotone in x; cannot parameterize "
                             "the line integral by x on this time window")
        order = np.argsort(xs)
        xs_sorted = xs[order]
        line_sorted = f_line[order]
        F = lambda x, lam: np.interp(x, xs_sorted, line_sorted) + c * (y0 - x)
        if x_grid is None:
            x_grid = np.linspace(xs_sorted[0], xs_sorted[-1], 101)
    if lam_grid is None:
        lam_grid = prob.lam_b + np.linspace(0.0, 2.0, 101)

    sol = straightening_solve(prob, sys, F, x_grid, lam_grid)
    pde_residual = sol.residual_check()

    # controlling-function view of the solved U (time part h t restores the
    # energy level in the Hamilton-Jacobi reading)
    cf = ControllingFunction(
        1,
        u=lambda x, lam, t: sol.evaluate(x[0], lam[0]) + prob.h * t,
        ux=lambda x, lam, t: _central_diff_t(lambda v: sol.evaluate(v, lam[0]), x[0]),
        ulam=lambda x, lam, t: np.array([sol.ulam(x[0], lam[0])]),
        ut=lambda x, lam, t: prob.h,
    )
    spec = MappingSpec("Std116", cf)

    # mapped motion on a subsample of the extremal
    idx = np.unique(np.linspace(0, len(traj) - 1, 41).astype(int))
    ys, mus = np.array([apply_map(spec, traj[i]) for i in idx])[:, :, 0].T
    mu_defect = float(np.max(np.abs(mus - c)))
    ydots = np.gradient(ys, ts[idx])
    ydot_max_err = float(np.max(np.abs(ydots - a)))

    pts = [traj[i] for i in idx[:: max(1, len(idx) // 8)]]
    hj = hj_residual_U(cf, lambda y, mu, t: a * float(mu[0]), spec, pts)

    note = (f"boundary U(x, lam_b)=0 imposed at lam_b={prob.lam_b} "
            "(reference multiplier; identity-map limit)")
    return ConstantFieldReport(solution=sol, traj=traj, f_line=f_line,
                               pde_residual_max=pde_residual,
                               ydot_max_err=ydot_max_err,
                               mu_defect=mu_defect,
                               hj_residual=hj.max_residual,
                               energy_mismatch=energy_mismatch,
                               boundary_note=note)

"""Hamiltonian lift of a dynamic system and its canonical flow.

The lift H = lam . f(x, t) turns xdot = f into the canonical pair

    xdot   = f(x, t)
    lamdot = -A(x, t)^T lam,      A[i, j] = df_i/dx_j

integrated here with classical fixed-step RK4.  Fundamental matrices
propagate multiplier and sensitivity data linearly along a trajectory, and
the energy diagnostics quantify how well dH/dt = lam . f_t holds discretely.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phasecore import (DomainError, DynamicSystem, PhaseState, Trajectory,
                        _cumtrapz, _require_dim)

__all__ = [
    "hamiltonian",
    "canonical_rhs",
    "integrate",
    "FundamentalMatrix",
    "fundamental_matrix",
    "EnergyDriftReport",
    "energy_drift",
    "weierstrass_excess",
]

_BLOWUP_LIMIT = 1e12


def hamiltonian(sys: DynamicSystem, s: PhaseState) -> float:
    """H(x, lam, t) = lam . f(x, t)."""
    _require_dim(sys, s)
    h = float(np.dot(s.lam, sys.f_at(s.x, s.t)))
    if not np.isfinite(h):
        raise DomainError(f"non-finite Hamiltonian at x={s.x}, t={s.t}")
    return h


def canonical_rhs(sys: DynamicSystem, s: PhaseState):
    """Right-hand side (xdot, lamdot) of the lifted canonical system."""
    _require_dim(sys, s)
    xdot = sys.f_at(s.x, s.t)
    lamdot = -sys.jac_at(s.x, s.t).T @ s.lam
    return xdot, lamdot


def _canonical_rhs_rows(sys: DynamicSystem):
    """rhs(Z, t) of the lifted system on a stack Z of shape (M, 2n); each
    row is bitwise equal to the single-state right-hand side in integrate."""
    n = sys.dim

    def rhs(Z, t):
        X = Z[:, :n]
        lamdot = -np.swapaxes(sys.jac_rows(X, t), 1, 2) @ Z[:, n:, None]
        return np.concatenate([sys.f_rows(X, t), lamdot[:, :, 0]], axis=1)
    return rhs


# ---------------------------------------------------------------------
# Fixed-step RK4 on a state array of any shape
# ---------------------------------------------------------------------

def _rk4_path(rhs, z0: np.ndarray, t0: float, t1: float, step: float,
              path: bool = True):
    """March z' = rhs(z, t) from t0 to t1, landing exactly on t1.

    z may be one flat state or a stack of them; the arithmetic is
    elementwise, so every row of a stack follows the flat march bitwise.

    Returns (ts, zs, diagnostic) where diagnostic is None on success and a
    dict describing the truncation point if the state blew up (any component
    beyond 1e12 in magnitude, a non-finite value, or a DomainError from the
    field).  With path=False, ts and zs hold only the last finite sample.
    Raises ValueError when the step is below the float spacing of t, which
    would leave t where it is.
    """
    slack = min(1e-12 * max(1.0, abs(t1)), 1e-6 * step)   # never a whole step
    ts = [t0]
    zs = [np.array(z0, dtype=float)]
    t = t0
    z = zs[0]
    while t < t1 - slack:
        t_next = t + step if t + step < t1 - slack else t1
        h = t_next - t          # the increment of the stored t, not the nominal step
        if h == 0:
            raise ValueError(f"step {step} does not advance t={t} (below its float spacing)")
        try:
            k1 = rhs(z, t)
            k2 = rhs(z + 0.5 * h * k1, t + 0.5 * h)
            k3 = rhs(z + 0.5 * h * k2, t + 0.5 * h)
            k4 = rhs(z + h * k3, t_next)
        except DomainError as exc:
            return ts, zs, {"truncated": True, "t_truncated": t, "reason": str(exc)}
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_next
        if not np.abs(z).max() <= _BLOWUP_LIMIT:  # also catches NaN
            return ts, zs, {"truncated": True, "t_truncated": t,
                            "reason": "state magnitude exceeded 1e12"}
        ts.append(t)
        zs.append(z)
        if not path:
            del ts[0], zs[0]
    return ts, zs, None


def integrate(sys: DynamicSystem, s0: PhaseState, t1: float, step: float) -> Trajectory:
    """Integrate the canonical pair with fixed-step RK4.

    Parameters
    ----------
    sys : DynamicSystem
    s0 : PhaseState
        Initial condition (x0, lam0, t0).
    t1 : float
        Final time, > s0.t.  The last step is shortened to land on t1.
    step : float
        Nominal step size, > 0.

    Returns
    -------
    Trajectory.  On blow-up the trajectory is truncated at the last finite
    sample and meta carries {"truncated": True, "t_truncated": ..., "reason"}.
    """
    _require_dim(sys, s0)
    if step <= 0:
        raise ValueError("step must be positive")
    if t1 <= s0.t:
        raise ValueError("t1 must exceed the initial time")
    n = sys.dim

    def rhs(z, t):
        x = z[:n]
        return np.concatenate([sys.f_at(x, t), -sys.jac_at(x, t).T @ z[n:]])

    ts, zs, diag = _rk4_path(rhs, s0.z(), s0.t, t1, step)
    Z = np.array(zs)
    return Trajectory(ts, Z[:, :n], Z[:, n:], step, dict(diag) if diag else {})


# ---------------------------------------------------------------------
# Fundamental matrices
# ---------------------------------------------------------------------

_KINDS = {
    # kind -> Mdot(A, M); default B/D are mutually dual: B(t) D(t)^T = E.
    "B": lambda A, M: -A.T @ M,
    "B_paper": lambda A, M: -A @ M,
    "D": lambda A, M: A @ M,
    "D_paper": lambda A, M: A.T @ M,
}


@dataclass(frozen=True, eq=False)
class FundamentalMatrix:
    """Matrix solution with identity initial condition along a trajectory.

    kind "B" solves Bdot = -A^T B, so lam(t) = B(t) lam0 reproduces the
    multiplier flow; kind "D" solves Ddot = A D, the propagator of U_lam
    data, and satisfies B(t) D(t)^T = E.  "B_paper"/"D_paper" keep the
    transposed conventions for comparison.
    """

    kind: str
    values: np.ndarray     # (N, n, n): the matrix at each sample time
    t0: float
    times: np.ndarray
    min_abs_det: float
    singular: bool         # True when some |det| < 1e-12

    def value_at(self, t: float) -> np.ndarray:
        """Matrix at time t: exact at grid times, else linear interpolation."""
        ts = self.times
        i = int(np.searchsorted(ts, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < ts.size and abs(ts[j] - t) <= 1e-9 * max(1.0, abs(t)):
                return self.values[j]
        if t < ts[0] or t > ts[-1]:
            raise ValueError(f"t={t} outside the stored range [{ts[0]}, {ts[-1]}]")
        j = min(max(i, 1), ts.size - 1)
        w = (t - ts[j - 1]) / (ts[j] - ts[j - 1])
        return (1.0 - w) * self.values[j - 1] + w * self.values[j]


def fundamental_matrix(sys: DynamicSystem, traj: Trajectory, kind: str = "B") -> FundamentalMatrix:
    """Integrate the matrix equation of `kind` along traj's own grid.

    The matrix rides along a re-integration of x from traj's initial sample
    (same RK4 arithmetic, same grid), which avoids interpolating A(x, t)
    between stored samples; lam never enters A, so it is not marched.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
    mdot = _KINDS[kind]
    n = sys.dim
    s0 = traj[0]
    _require_dim(sys, s0)

    def rhs(z, t):
        x = z[:n]
        M = z[n:].reshape(n, n)
        return np.concatenate([sys.f_at(x, t), mdot(sys.jac_at(x, t), M).ravel()])

    z0 = np.concatenate([s0.x, np.eye(n).ravel()])
    ts, zs, diag = _rk4_path(rhs, z0, s0.t, traj.t[-1], traj.step)
    if diag is not None:
        raise DomainError(f"fundamental matrix integration truncated: {diag['reason']}")
    values = np.array(zs)[:, n:].reshape(-1, n, n)
    min_abs_det = float(np.min(np.abs(np.linalg.det(values))))
    return FundamentalMatrix(kind=kind, values=values, t0=s0.t,
                             times=np.asarray(ts), min_abs_det=min_abs_det,
                             singular=bool(min_abs_det < 1e-12))


# ---------------------------------------------------------------------
# Energy diagnostics
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnergyDriftReport:
    h_series: np.ndarray   # H at each sample
    drift: float           # max |H - H0|  (autonomous)
    #                        max |H - H0 - int lam.f_t dt|  (otherwise)
    autonomous: bool


def energy_drift(sys: DynamicSystem, traj: Trajectory) -> EnergyDriftReport:
    """Drift of H along traj, compensating lam . f_t for driven systems."""
    hs = np.array([hamiltonian(sys, s) for s in traj])
    if sys.autonomous:
        drift = float(np.max(np.abs(hs - hs[0])))
        return EnergyDriftReport(hs, drift, True)
    integrand = np.array([float(np.dot(s.lam, sys.ft_at(s.x, s.t))) for s in traj])
    drift = float(np.max(np.abs(hs - hs[0] - _cumtrapz(traj.t, integrand))))
    return EnergyDriftReport(hs, drift, False)


# ---------------------------------------------------------------------
# Variational integrand
# ---------------------------------------------------------------------

def weierstrass_excess(sys: DynamicSystem, s: PhaseState, xdot, g) -> float:
    """Excess E = lam.(g-f) - lam.(xdot-f) - lam.(g-xdot).

    The three dot products are taken separately — the identity E = 0 then
    holds only up to rounding, which is exactly what the check measures.
    """
    _require_dim(sys, s)
    f = sys.f_at(s.x, s.t)
    xdot = np.asarray(xdot, dtype=float)
    g = np.asarray(g, dtype=float)
    lam = s.lam
    return float(np.dot(lam, g - f) - np.dot(lam, xdot - f) - np.dot(lam, g - xdot))

"""Hamiltonian lift of a dynamic system and its canonical flow.

The lift H = lam . f(x, t) turns xdot = f into the canonical pair

    xdot   = f(x, t)
    lamdot = -A(x, t)^T lam,      A[i, j] = df_i/dx_j

integrated here with classical fixed-step RK4.  Fundamental matrices
propagate multiplier and sensitivity data linearly along a trajectory, and
the energy diagnostics quantify how well dH/dt = lam . f_t holds discretely.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .phasecore import (DomainError, DynamicSystem, PhaseState, Trajectory,
                        _cumtrapz, _dot, _jac_form, _mv, _require_dim, _shaped)

__all__ = [
    "hamiltonian",
    "canonical_rhs",
    "integrate",
    "FundamentalMatrix",
    "fundamental_matrix",
    "EnergyDriftReport",
    "energy_drift",
]

_BLOWUP_LIMIT = 1e12
# _rk4_path's ops (axpy, combine, bounded, pack) for an array z0; _floats(m) for a float list
_ARRAYS = (lambda z, a, k: z + a * k,
           lambda z, c, k1, k2, k3, k4: z + c * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
           lambda z: np.maximum.reduce(np.abs(z), axis=None) <= _BLOWUP_LIMIT, np.ndarray.tobytes)


@functools.cache
def _floats(m: int):
    """_ARRAYS's ops for one state of m floats, each written out element by
    element (no loop, no zip) and compiled once per m.  Bitwise _ARRAYS: combine
    sums in numpy's order, and bounded tests every position for a NaN or inf."""
    each = lambda form, sep=", ": sep.join(form.format(i=i) for i in range(m))
    src = (f"def axpy(z, a, k):\n    return [{each('z[{i}] + a * k[{i}]')}]\n"
           f"def combine(z, c, a, b, d, e):\n    return "
           f"[{each('z[{i}] + c * (a[{i}] + 2.0 * b[{i}] + 2.0 * d[{i}] + e[{i}])')}]\n"
           f"def bounded(z):\n    return "
           f"{each('abs(z[{i}]) <= ' + repr(_BLOWUP_LIMIT), ' and ')}\n")
    ops = {}
    exec(compile(src, f"<canomap.hamilton._floats m={m}>", "exec"), ops)
    pack = struct.Struct(f"{m}d").pack
    return ops["axpy"], ops["combine"], ops["bounded"], lambda z: pack(*z)


def hamiltonian(sys: DynamicSystem, s: PhaseState) -> float:
    """H(x, lam, t) = lam . f(x, t)."""
    _require_dim(sys, s)
    h = float(np.dot(s.lam, sys.f_at(s.x, s.t)))
    if not np.isfinite(h):
        raise DomainError(f"non-finite Hamiltonian at x={s.x}, t={s.t}")
    return h


def _stage(sys: DynamicSystem, mdot=None, stack: bool = False):
    """The right-hand side of every march on sys, decided once per march:
    the lift (f, (-A^T) lam) at z = (x, lam), a float list for one state, or
    (f, mdot(A, M)) at the array z = (x, M.ravel()), from one call each of
    sys.f and sys.jac (else sys.jac_at, central differences of f), shaped by
    _shaped.  With stack, the lift at a stack Z (M, 2n) sharing t, each row
    bitwise its single state: a vectorized sys is called once on the (M, n)
    stack (a constant (n, n) jac goes on as (1, n, n), which _mv broadcasts),
    any other row by row through its one-state stage.  Not -(A^T lam): that
    flips signed zeros.  The lift sys.lift replaces f and jac: one call per
    state, of 2n values."""
    n, f, vec, mat = sys.dim, sys.f, (sys.dim,), (sys.dim, sys.dim)
    if stack and not sys.vectorized:
        one = _stage(sys)
        return lambda Z, t: np.array([one(z, t) for z in Z.tolist()], float)
    if mdot is None and sys.lift is not None:
        fused, m = sys.lift, 2 * n

        def one(z, t):
            if len(k := fused(z[:n], z[n:], t)) != m:
                raise ValueError(f"lift returned {len(k)} values, expected 2n = {m}")
            return k
        return one
    jac = sys.jac if sys.jac is not None else sys.jac_at
    if stack:   # sys is vectorized: one call each of f and jac on the (M, n) stack
        def lift(Z, t):
            X = Z[:, :n]
            F = np.asarray(f(X, t), dtype=float)
            if F.shape != X.shape:
                raise ValueError(f"vectorized f returned shape {F.shape}, expected {X.shape}")
            A = np.asarray(jac(X, t), dtype=float)
            if A.shape not in (mat, (len(X),) + mat):
                raise ValueError(f"vectorized jac returned shape {A.shape}, "
                                 f"expected {(len(X),) + mat} or {mat}")
            return np.concatenate((F, _mv(-np.swapaxes(A.reshape((-1,) + mat), 1, 2), Z[:, n:])),
                                  axis=1)
        return lift
    one = (None, slice(n)) if sys.vectorized else slice(n)   # x as f and jac take it
    tail = (lambda A, lam: (-A.T) @ lam) if mdot is None else (
        lambda A, m: mdot(A, m.reshape(mat)).ravel())

    def rhs(z, t):
        x = z[one]
        return np.concatenate((_shaped(f(x, t), vec), tail(_shaped(jac(x, t), mat), z[n:])))
    return rhs if mdot is not None else (lambda z, t: rhs(np.array(z), t).tolist())


def canonical_rhs(sys: DynamicSystem, s: PhaseState):
    """Right-hand side (xdot, lamdot) of the lifted canonical system at one
    state: (f, (-A^T) lam) from f_at and jac_at, the lift by its definition,
    never the system's lift callback (verify_derivatives checks that one)."""
    _require_dim(sys, s)
    return _jac_form(sys, s.x, s.lam, s.t)


def _lift_at(sys: DynamicSystem, t: np.ndarray, X: np.ndarray, LAM: np.ndarray):
    """(xdot, lamdot) at M samples, each at its own time (t (M,), X and LAM
    (M, n)): one single-state lift per row, stacked."""
    K = np.array(list(map(_stage(sys), np.hstack((X, LAM)).tolist(), t.tolist())), dtype=float)
    return K[:, :sys.dim], K[:, sys.dim:]


def _rates(sys: DynamicSystem, traj: Trajectory):
    """(xdot, lamdot), the lift at every sample of traj as (N, n) arrays:
    traj's columns when sys is (by identity) the system that made them, else
    evaluated here row by row, so a system checked against traj is called."""
    _require_dim(sys, traj[0])
    if traj.system is sys:
        return traj.xdot, traj.lamdot
    return _lift_at(sys, traj.t, traj.x, traj.lam)


def _xdot(sys: DynamicSystem, traj: Trajectory) -> np.ndarray:
    """f alone at every sample of traj, by _rates's identity rule: the xdot
    column, else one f_at per row, never jac (H needs none)."""
    _require_dim(sys, traj[0])
    if traj.system is sys:
        return traj.xdot
    return np.array([sys.f_at(x, t) for x, t in zip(traj.x, traj.t.tolist())])


# ---------------------------------------------------------------------
# Fixed-step RK4 on a state array of any shape
# ---------------------------------------------------------------------

def _grid(t0: float, t1: float, step: float):
    """The march's times: t0, then each t + step, landing exactly on t1; a t
    within slack of t1 counts as arrived, and the slack never spans a whole
    step.  Raises ValueError unless step > 0 and t1 > t0 are both finite, and,
    once reached, where the step is below the float spacing of t, which would
    leave t where it is."""
    if not 0 < step < math.inf:
        raise ValueError("step must be positive")
    if not t0 < t1 < math.inf:
        raise ValueError("t1 must exceed the initial time")
    slack = min(1e-12 * max(1.0, abs(t1)), 1e-6 * step)
    t = t0
    yield t
    while t < t1 - slack:
        t_next = t + step if t + step < t1 - slack else t1
        if t_next == t:
            raise ValueError(f"step {step} does not advance t={t} (below its float spacing)")
        yield (t := t_next)


def _rk4_path(rhs, z0, times, last: bool = False, stages: bool = True):
    """March z' = rhs(z, t) over times: z0 at the first one, then one step to
    each next one (a _grid, or a trajectory's own times).

    z0 is a float array (_ARRAYS), any shape (a stack's rows each follow the
    flat march bitwise), or one state's list of m floats (_floats(m): ops
    generated with each element written out, no numpy call or Python loop per
    op; bitwise alike, and bounded sees a NaN in any position, unlike max()).

    Returns (ts, zs, diagnostic, ks) where diagnostic is None on success and
    a dict describing the truncation point if the state blew up (any
    component beyond 1e12 in magnitude, a non-finite value, or a DomainError
    from the field); a z0 already beyond 1e12 truncates at the first time,
    before the field is called.  zs stacks every sample and ks, with stages,
    each step's first stage rhs(zs[i], ts[i]); with last, ts and zs keep only
    the last finite sample and ks none.  zs (read-only) and ks are gathered
    as raw bytes rather than one object per step.
    """
    axpy, combine, bounded, pack = _floats(len(z0)) if isinstance(z0, list) else _ARRAYS
    times = iter(times)
    t = next(times)
    ts = [t]
    z = z0
    zs, ks = bytearray(pack(z)), bytearray()
    blown = {"truncated": True, "t_truncated": t, "reason": "state magnitude exceeded 1e12"}
    diag = None if bounded(z) else blown
    for t_next in times if diag is None else ():
        h = t_next - t          # the increment of the stored t, not the nominal step
        hh = 0.5 * h            # 0.5 * h * k is (0.5 * h) * k: the same bits
        try:
            k1 = rhs(z, t)
            k2 = rhs(axpy(z, hh, k1), t + hh)
            k3 = rhs(axpy(z, hh, k2), t + hh)
            k4 = rhs(axpy(z, h, k3), t_next)
        except DomainError as exc:
            diag = {"truncated": True, "t_truncated": t, "reason": str(exc)}
            break
        z = combine(z, h / 6.0, k1, k2, k3, k4)
        t = t_next
        if not bounded(z):
            diag = dict(blown, t_truncated=t)
            break
        if last:
            ts, zs = [t], pack(z)
        else:
            ts.append(t)
            zs += pack(z)
            ks += pack(k1) if stages else b""
    zs, ks = (np.frombuffer(b).reshape((-1,) + np.shape(z)) for b in (zs, ks))
    zs.flags.writeable = False
    return ts, zs, diag, ks


def integrate(sys: DynamicSystem, s0: PhaseState, t1: float, step: float) -> Trajectory:
    """Integrate the canonical pair with fixed-step RK4.

    Parameters
    ----------
    sys : DynamicSystem
    s0 : PhaseState
        Initial condition (x0, lam0, t0).
    t1 : float
        Final time, finite and > s0.t.  The last step is shortened to land
        on t1.
    step : float
        Nominal step size, finite and > 0.

    Returns
    -------
    Trajectory, with each step's first RK4 stage, and the lift at the last
    sample, as its xdot/lamdot columns (none when the field raises
    DomainError at the last sample).  On blow-up the trajectory is truncated
    at the last finite sample and meta carries {"truncated": True,
    "t_truncated": ..., "reason"}.
    """
    _require_dim(sys, s0)
    n = sys.dim
    rhs = _stage(sys)
    ts, Z, diag, K = _rk4_path(rhs, s0.z().tolist(), _grid(s0.t, t1, step))
    traj = Trajectory(ts, Z[:, :n], Z[:, n:], dict(diag) if diag else {})
    try:   # the last sample starts no step
        K = np.vstack([K, rhs(Z[-1].tolist(), ts[-1])])
    except DomainError:   # no columns: each diagnostic meets the error there
        return traj
    K.flags.writeable = False
    for name, value in (("xdot", K[:, :n]), ("lamdot", K[:, n:]), ("system", sys)):
        object.__setattr__(traj, name, value)
    return traj


# ---------------------------------------------------------------------
# Fundamental matrices
# ---------------------------------------------------------------------

_KINDS = {
    # kind -> Mdot(A, M); B and D are mutually dual: B(t) D(t)^T = E.
    "B": lambda A, M: -A.T @ M,
    "D": lambda A, M: A @ M,
}


@dataclass(frozen=True, eq=False)
class FundamentalMatrix:
    """Matrix solution with identity initial condition along a trajectory.

    fundamental_matrix's kind "B" solves Bdot = -A^T B, so lam(t) = B(t) lam0
    reproduces the multiplier flow; kind "D" solves Ddot = A D, the
    propagator of U_lam data, and satisfies B(t) D(t)^T = E.
    """

    values: np.ndarray     # (N, n, n): the matrix at each sample time
    times: np.ndarray      # (N,): the trajectory's own t
    min_abs_det: float     # min |det| over the samples

    def value_at(self, t: float) -> np.ndarray:
        """Matrix at time t: exact at grid times, else linear interpolation."""
        ts = self.times
        i = int(np.searchsorted(ts, t))
        # ts[i - 1] < t <= ts[i], so a grid time t is ts[i]; a non-finite t
        # matches no sample (its window would be infinite) and is out of range
        for j in (i, i - 1) if math.isfinite(t) else ():
            if 0 <= j < ts.size and abs(ts[j] - t) <= 1e-9 * max(1.0, abs(t)):
                return self.values[j]
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"t={t} outside the stored range [{ts[0]}, {ts[-1]}]")
        j = min(max(i, 1), ts.size - 1)
        w = (t - ts[j - 1]) / (ts[j] - ts[j - 1])
        return (1.0 - w) * self.values[j - 1] + w * self.values[j]


def fundamental_matrix(sys: DynamicSystem, traj: Trajectory, kind: str = "B") -> FundamentalMatrix:
    """Integrate the matrix equation of `kind` over traj's own times.

    The matrix rides along a re-integration of x from traj's initial sample
    (same RK4 arithmetic, one step between each pair of stored times), which
    avoids interpolating A(x, t) between stored samples; lam never enters A,
    so it is not marched.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
    n = sys.dim
    s0 = traj[0]
    _require_dim(sys, s0)
    z0 = np.concatenate([s0.x, np.eye(n).ravel()])
    _, zs, diag, _ = _rk4_path(_stage(sys, mdot=_KINDS[kind]), z0, traj.t.tolist(), stages=False)
    if diag is not None:
        raise DomainError(f"fundamental matrix integration truncated: {diag['reason']}")
    values = np.array(zs)[:, n:].reshape(-1, n, n)
    min_abs_det = float(np.min(np.abs(np.linalg.det(values))))
    return FundamentalMatrix(values=values, times=traj.t, min_abs_det=min_abs_det)


# ---------------------------------------------------------------------
# Energy diagnostics
# ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnergyDriftReport:
    h_series: np.ndarray   # H at each sample
    drift: float           # max |H - H0|  (autonomous)
    #                        max |H - H0 - int lam.f_t dt|  (otherwise)


def _lam_dot(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise lam[i] . v[i], bitwise np.dot of each row: stacked matmul,
    but for n = 1 the bare product (matmul turns a -0 product into +0)."""
    return lam[:, 0] * v[:, 0] if lam.shape[1] == 1 else _dot(lam, v)


def _h_series(traj: Trajectory, xdot: np.ndarray) -> np.ndarray:
    """H = lam . xdot (xdot from _xdot) at every sample of traj, raising
    hamiltonian's error at the first non-finite one (an overflow is that
    error, not a warning)."""
    with np.errstate(over="ignore", invalid="ignore"):
        hs = _lam_dot(traj.lam, xdot)
    if not np.isfinite(hs).all():
        i = int(np.argmin(np.isfinite(hs)))
        raise DomainError(f"non-finite Hamiltonian at x={traj.x[i]}, t={traj.t[i].item()}")
    return hs


def energy_drift(sys: DynamicSystem, traj: Trajectory) -> EnergyDriftReport:
    """Drift of H along traj, compensating lam . f_t for driven systems."""
    hs = _h_series(traj, _xdot(sys, traj))
    dh = hs - hs[0]
    if not sys.autonomous:
        ft = np.array([sys.ft_at(x, t) for x, t in zip(traj.x, traj.t.tolist())])
        dh = dh - _cumtrapz(traj.t, _lam_dot(traj.lam, ft))
    return EnergyDriftReport(hs, float(np.max(np.abs(dh))))

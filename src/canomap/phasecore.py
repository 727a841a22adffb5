"""Core phase-space types: dynamic systems, extended-phase points, controlling
functions, trajectories, and finite-difference consistency checks.

Everything downstream works on the extended phase space (x, lam, t) in
R^(2n+1).  User-supplied derivative callbacks are optional: missing blocks are
substituted by central finite differences and flagged as FD-backed.
"""
from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "DynamicSystem",
    "PhaseState",
    "ControllingFunction",
    "Trajectory",
    "DerivativeReport",
    "verify_derivatives",
    "zero_controlling_function",
]


class DomainError(ValueError):
    """A vector field was evaluated outside its admissible domain."""


# =====================================================================
# Finite differences
# =====================================================================

_FD_STEP = 1e-6   # default step scale of every central difference


def _central_diff_x(func, x: np.ndarray, h_scale: float = _FD_STEP) -> np.ndarray:
    """Jacobian of func: R^n -> R^m by central differences, columns stacked.

    Returns an (m, n) array (or (n,) when func is scalar-valued).  Column i
    steps x_i by h = h_scale * max(1, |x_i|) both ways and divides by the
    distance of the rounded endpoints, so quotients of linear maps are exact.
    """
    x = np.asarray(x, dtype=float)
    if not x.size:
        raise ValueError("no coordinate to difference: x is empty")
    for i, xi in enumerate(x.tolist()):   # Python floats: the same IEEE steps
        h = h_scale * max(1.0, abs(xi))
        a, b = xi + h, xi - h
        xp, xm = x.copy(), x.copy()   # fresh per call: func may hold its argument
        xp[i], xm[i] = a, b
        col = (np.asarray(func(xp), dtype=float) - np.asarray(func(xm), dtype=float)) / (a - b)
        if i == 0:
            out = np.empty(col.shape + (x.size,))
        elif col.shape != out.shape[:-1]:
            raise ValueError(f"columns of shapes {out.shape[:-1]} and {col.shape} differ")
        out[..., i] = col
    return out


def _central_diff_t(func, t: float, h_scale: float = _FD_STEP):
    """Derivative of func: R -> R^m (or R) by one central difference."""
    return _central_diff_x(lambda tt: func(tt[0]), np.array([t], dtype=float), h_scale)[..., 0]


def _central_diff(fn, arg: int, x, lam, t, h_scale: float = _FD_STEP):
    """Central difference of a block fn(x, lam, t) in one argument (0 x,
    1 lam, 2 t), the others held fixed: one more trailing axis of size n for
    x or lam, none for t."""
    if arg == 0:
        return _central_diff_x(lambda v: fn(v, lam, t), x, h_scale)
    if arg == 1:
        return _central_diff_x(lambda v: fn(x, v, t), lam, h_scale)
    return _central_diff_t(lambda v: fn(x, lam, v), t, h_scale)


# Row-wise A[i] @ v[i] and a[i] . b[i] by stacked matmul, bitwise equal to
# the single-row products (einsum and norm(axis=1) are not).
_mv = lambda A, v: (A @ v[:, :, None])[:, :, 0]
_dot = lambda a, b: (a[:, None, :] @ b[:, :, None])[:, 0, 0]
# The one integer rule, for a dim, a pivot index, a step count and the CLI's
# integer fields: an int or a NumPy integer, never a bool.
_is_int = lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _positive_dim(dim) -> int:
    """dim as an int if it is an integer >= 1, else ValueError."""
    if not (_is_int(dim) and dim >= 1):
        raise ValueError("dim must be a positive integer")
    return int(dim)


def _shaped(out, shape: tuple) -> np.ndarray:
    """A callback's result as a float array of the expected shape: a list or
    an (n, 1) array is reshaped, a wrong size raises numpy's ValueError."""
    out = np.asarray(out, dtype=float)
    return out if out.shape == shape else out.reshape(shape)


def _cumtrapz(ts: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Cumulative trapezoidal integral of samples a over ts, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(np.diff(ts) * 0.5 * (a[1:] + a[:-1]))])


def _subsample(traj, count: int) -> np.ndarray:
    """Indices of up to count samples of traj, evenly spread, first and last included."""
    idx = np.linspace(0, len(traj) - 1, count).astype(int)
    # idx never decreases, so repeats are neighbours; np.unique would import numpy.ma
    return idx[np.diff(idx, prepend=-1) > 0]


# =====================================================================
# Domain types
# =====================================================================

@dataclass(frozen=True)
class DynamicSystem:
    """A first-order vector field xdot = f(x, t) with derivative callbacks.

    Parameters
    ----------
    dim : int
        State dimension n.
    f : callable
        (x, t) -> R^n right-hand side.
    jac : callable, optional
        (x, t) -> (n, n) Jacobian A with A[i, j] = df_i/dx_j.  FD-backed
        when omitted.
    ft : callable, optional
        (x, t) -> R^n partial time derivative of f.  Zero for autonomous
        systems, FD-backed otherwise when omitted.
    autonomous : bool
        Marks f as time-independent; ft is then identically zero.
    vectorized : bool
        Opt-in batch contract: f, jac and ft take a stack of states X of
        shape (M, n).  f and ft return (M, n); jac returns (M, n, n), or
        one (n, n) array when it does not depend on x.
        Single-state calls pass a (1, n) stack.  Requires jac, since there
        are no batched finite differences.  Without the flag, a march over
        a stack (hamilton._stage) takes each row through the one-state stage.
    lift : callable, optional
        (x, lam, t) -> the 2n floats (f, -A^T lam), with x and lam float
        sequences; integrate and flow_loop march it in place of f and jac, jac
        still serves fundamental_matrix and jac_at.  Not with vectorized.
    """

    dim: int
    f: Callable[[np.ndarray, float], np.ndarray]
    jac: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    ft: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    autonomous: bool = False
    vectorized: bool = False
    lift: Optional[Callable[[Sequence[float], Sequence[float], float], Sequence[float]]] = None
    fd_backed: frozenset = field(default=frozenset(), init=False)

    def __post_init__(self):
        _positive_dim(self.dim)
        if self.vectorized and self.jac is None:
            raise ValueError("a vectorized system must supply jac "
                             "(there are no batched finite differences)")
        if self.vectorized and self.lift is not None:
            raise ValueError("a vectorized system takes no lift (there is no batched lift)")
        backed = set()
        if self.jac is None:
            backed.add("jac")
        if self.ft is None and not self.autonomous:
            backed.add("ft")
        object.__setattr__(self, "fd_backed", frozenset(backed))

    # --- evaluation helpers -------------------------------------------------

    def _arg(self, x) -> np.ndarray:
        """x as the callbacks expect one state: (n,), or (1, n) if vectorized."""
        x = np.asarray(x, dtype=float)
        return x[None] if self.vectorized else x

    def f_at(self, x: np.ndarray, t: float) -> np.ndarray:
        return _shaped(self.f(self._arg(x), t), (self.dim,))

    def jac_at(self, x: np.ndarray, t: float) -> np.ndarray:
        if self.jac is not None:
            return _shaped(self.jac(self._arg(x), t), (self.dim, self.dim))
        return _central_diff_x(lambda xx: self.f_at(xx, t), x)   # (n, n): f_at is (n,)

    def ft_at(self, x: np.ndarray, t: float) -> np.ndarray:
        if self.autonomous:
            return np.zeros(self.dim)
        if self.ft is not None:
            return _shaped(self.ft(self._arg(x), t), (self.dim,))
        return _central_diff_t(lambda tt: self.f_at(x, tt), t)   # (n,): f_at is (n,)


@dataclass(frozen=True, eq=False)
class PhaseState:
    """A point (x, lam, t) of the extended phase space."""

    x: np.ndarray      # phase coordinates, R^n
    lam: np.ndarray    # Lagrange multipliers, R^n
    t: float           # time

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if x.ndim != 1 or lam.ndim != 1 or x.shape != lam.shape:
            raise ValueError("x and lam must be 1-d arrays of identical dimension")
        if not (np.isfinite(x).all() and np.isfinite(lam).all() and np.isfinite(self.t)):
            raise ValueError(f"non-finite phase state: x={x}, lam={lam}, t={self.t}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "t", float(self.t))

    @classmethod
    def _trusted(cls, x: np.ndarray, lam: np.ndarray, t: float) -> "PhaseState":
        """Wrap 1-d float arrays of equal shape known to be finite, skipping
        __post_init__'s checks (RK4 checks each step, Trajectory its arrays)."""
        s = object.__new__(cls)
        object.__setattr__(s, "x", x)
        object.__setattr__(s, "lam", lam)
        object.__setattr__(s, "t", float(t))
        return s

    @property
    def n(self) -> int:
        return self.x.size

    def z(self) -> np.ndarray:
        """Stacked (x, lam) in R^2n."""
        return np.concatenate([self.x, self.lam])


def _jac_form(sys: DynamicSystem, x: np.ndarray, lam: np.ndarray, t: float):
    """(f, (-A^T) lam) at one state from f_at and jac_at: the canonical pair
    by its definition, which a system's lift callback must reproduce."""
    return sys.f_at(x, t), (-sys.jac_at(x, t).T) @ lam


def _require_dim(obj, s: PhaseState):
    """obj (a DynamicSystem or a ControllingFunction) and s share n."""
    if s.n != obj.dim:
        kind = "system" if isinstance(obj, DynamicSystem) else "controlling function"
        raise ValueError(f"dimension mismatch: {kind} n={obj.dim}, state n={s.n}")


# ---------------------------------------------------------------------
# Controlling function U(x, lam, t)
# ---------------------------------------------------------------------

# The central-difference rule behind every missing block of U, in install
# order (first blocks before the second blocks that differentiate them):
# block -> (source block, argument differentiated: 0 x, 1 lam, 2 t, ndim).
_FD_RULE = {
    "ux": ("u", 0, 1),
    "ulam": ("u", 1, 1),
    "ut": ("u", 2, 0),
    "uxlam": ("ux", 1, 2),
    "uxx": ("ux", 0, 2),
    "ulamlam": ("ulam", 1, 2),
    "uxt": ("ux", 2, 1),
    "ulamt": ("ulam", 2, 1),
}


class ControllingFunction:
    """Scalar controlling function U(x, lam, t) with derivative closures.

    First derivatives ux (U_x), ulam (U_lam), ut (U_t) and the mixed block
    uxlam (d2U/dx_i dlam_j) follow the contract; the remaining second
    derivatives uxx, ulamlam, uxt, ulamt are needed by the flow-restricted
    canonicity residuals.  Every missing closure is replaced by the central
    difference that _FD_RULE names (first blocks of u with step _FD_STEP, second
    blocks of the first ones with step 1e-4 when ux or ulam is FD-backed,
    else 1e-6) and recorded in ``fd_backed``.

    All closures take (x, lam, t) with x, lam in R^n.  A block free of them
    may be a number or an array instead, held read-only in the block's shape
    (ValueError if it does not fit) and broadcast over each array pass.
    """

    def __init__(self, dim, u, ux=None, ulam=None, ut=None, uxlam=None,
                 uxx=None, ulamlam=None, uxt=None, ulamt=None):
        self.dim = _positive_dim(dim)
        self.u = u
        self._constant = {}   # block -> its value, for a block given as a constant
        given = dict(ux=ux, ulam=ulam, ut=ut, uxlam=uxlam, uxx=uxx,
                     ulamlam=ulamlam, uxt=uxt, ulamt=ulamt)
        for block, f in given.items():
            setattr(self, block, None if f is None else self._block(block, f))
        self.fd_backed = frozenset(self._install_fd())

    def _block(self, block, f):
        """f's result as the block's type: a float, an (n,) or an (n, n) array."""
        shape = (self.dim,) * _FD_RULE[block][2]
        if not callable(f):
            c = self._constant[block] = np.array(f, dtype=float).reshape(shape)
            c.setflags(write=False)
            return (lambda x, lam, t: c) if shape else (lambda x, lam, t, v=float(c): v)
        if not shape:
            return lambda x, lam, t: float(f(x, lam, t))
        return lambda x, lam, t: _shaped(f(x, lam, t), shape)

    # --- FD substitution ----------------------------------------------------

    def _install_fd(self):
        """Back every missing block by the central difference _FD_RULE names,
        and return the names of the blocks so backed."""
        backed = [block for block in _FD_RULE if getattr(self, block) is None]
        # Second blocks use a larger step when they differentiate an
        # FD-backed first block, which keeps double-FD rounding in check.
        h2 = 1e-4 if "ux" in backed or "ulam" in backed else 1e-6
        for block in backed:
            src, arg, _ = _FD_RULE[block]
            fn = getattr(self, src)
            h = _FD_STEP if src == "u" else h2
            setattr(self, block, self._block(
                block, lambda x, lam, t, fn=fn, arg=arg, h=h:
                _central_diff(fn, arg, x, lam, t, h)))
        return backed


def _zero_blocks(dim: int, blocks=tuple(_FD_RULE)) -> dict:
    """Exact zero constants for the named blocks of U, shaped by _FD_RULE."""
    return {b: np.zeros((dim,) * _FD_RULE[b][2]) for b in blocks}


def zero_controlling_function(dim: int) -> ControllingFunction:
    """U identically zero, with exact (analytic) zero derivative blocks."""
    n = _positive_dim(dim)   # before _zero_blocks shapes arrays by it
    return ControllingFunction(n, u=lambda x, lam, t: 0.0, **_zero_blocks(n))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered samples of the extended phase space, held as read-only
    float copies of the given arrays, with a meta mapping (integrate's
    truncation record); traj[i] and iteration build PhaseState samples on
    demand.  xdot, lamdot
    and system are not constructor arguments: only integrate sets them, to
    the lifted derivative (N, n) that `system` gave at every sample (stored,
    not validated); otherwise they are None."""

    t: np.ndarray             # (N,) sample times, strictly increasing
    x: np.ndarray             # (N, n) phase coordinates
    lam: np.ndarray           # (N, n) multipliers
    meta: Mapping = field(default_factory=dict)
    xdot: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    lamdot: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    system: Optional[DynamicSystem] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.meta, Mapping):
            raise TypeError(f"meta must be a mapping, got {type(self.meta).__name__}")
        t, x, lam = (np.array(a, dtype=float) for a in (self.t, self.x, self.lam))
        if (t.ndim != 1 or not t.size or x.ndim != 2 or not x.shape[1]
                or x.shape != lam.shape or x.shape[0] != t.size):
            raise ValueError(f"expected t (N,), x and lam (N, n), with at least one sample "
                             f"and n >= 1; got shapes {t.shape}, {x.shape}, {lam.shape}")
        if not (np.isfinite(t).all() and np.isfinite(x).all() and np.isfinite(lam).all()):
            raise ValueError("non-finite trajectory sample")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        for name, a in (("t", t), ("x", x), ("lam", lam)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self):
        return self.t.size

    def __getitem__(self, i) -> PhaseState:
        i = operator.index(i)   # an integer: a slice would give a 2-d x
        return PhaseState._trusted(self.x[i], self.lam[i], self.t[i])

    def __iter__(self):
        return map(PhaseState._trusted, self.x, self.lam, self.t)

    # times() and samples are unused in canomap but stay readable:
    # perfbench/session.py reads them.
    def times(self) -> np.ndarray:
        return self.t

    samples = property(lambda self: tuple(self))


# =====================================================================
# Derivative verification
# =====================================================================

@dataclass(frozen=True)
class DerivativeReport:
    """Max relative error per derivative block, and the blocks that fail."""

    blocks: Mapping            # block name -> max relative error
    failing: tuple             # names exceeding their tolerance

    @property
    def ok(self) -> bool:
        return not self.failing


def _rel_err(supplied: np.ndarray, ref: np.ndarray) -> float:
    supplied = np.atleast_1d(np.asarray(supplied, dtype=float))
    ref = np.atleast_1d(np.asarray(ref, dtype=float))
    denom = np.maximum(1.0, np.maximum(np.abs(ref), np.abs(supplied)))
    return float(np.max(np.abs(supplied - ref) / denom))


def _check_finite(value, label, s: PhaseState):
    if not np.all(np.isfinite(value)):
        raise DomainError(
            f"non-finite {label} at sample point x={s.x}, lam={s.lam}, t={s.t}")
    return value


def verify_derivatives(obj, points: Sequence[PhaseState]) -> DerivativeReport:
    """Cross-check supplied derivative closures against central differences.

    Parameters
    ----------
    obj : DynamicSystem or ControllingFunction
    points : sequence of PhaseState
        Sample points; must be nonempty.

    First-derivative blocks pass below a relative error of 1e-5, and the
    mixed block uxlam below 1e-4, since its double-FD reference is less
    accurate.

    A system's ft is compared with the central difference of f in t even
    when the system is labelled autonomous, so a label that f contradicts
    fails.  A system's lift, when it has one, is compared (block "lift")
    with (f, (-A^T) lam) from f_at and jac_at.

    Returns
    -------
    DerivativeReport: per-block max relative errors and the failing blocks.
    """
    if not points:
        raise ValueError("points must be nonempty")
    rtol = 1e-5

    # Per kind: each block's tolerance, and pairs(s) yielding (block,
    # supplied value, central-difference reference) at one point, the
    # reference as a thunk: it is formed only once the value is finite.
    if isinstance(obj, DynamicSystem):
        f = lambda x, lam, t: obj.f_at(x, t)
        tols = {"jac": rtol, "ft": rtol, **({"lift": rtol} if obj.lift is not None else {})}

        def pairs(s):
            _check_finite(f(s.x, s.lam, s.t), "f", s)
            yield "jac", obj.jac_at(s.x, s.t), lambda: _central_diff(f, 0, s.x, s.lam, s.t)
            yield "ft", obj.ft_at(s.x, s.t), lambda: _central_diff(f, 2, s.x, s.lam, s.t)
            if obj.lift is not None:
                yield ("lift", _shaped(obj.lift(s.x.tolist(), s.lam.tolist(), s.t), (2 * obj.dim,)),
                       lambda: np.concatenate(_jac_form(obj, s.x, s.lam, s.t)))
    elif isinstance(obj, ControllingFunction):
        tols = {"ux": rtol, "ulam": rtol, "ut": rtol, "uxlam": 1e-4}

        def pairs(s):
            _check_finite(float(obj.u(s.x, s.lam, s.t)), "u", s)
            for block in ("ux", "ulam", "ut"):
                yield (block, getattr(obj, block)(s.x, s.lam, s.t),
                       lambda i=_FD_RULE[block][1]: _central_diff(obj.u, i, s.x, s.lam, s.t))
            # uxlam[i, j] = d(ux_i)/dlam_j = d(ulam_j)/dx_i: the reference
            # differentiates ulam in x, not the ux of the FD rule in lam.
            yield ("uxlam", obj.uxlam(s.x, s.lam, s.t),
                   lambda: _central_diff(obj.ulam, 0, s.x, s.lam, s.t, 1e-5).T)
    else:
        raise TypeError("verify_derivatives expects a DynamicSystem or ControllingFunction")

    errs = dict.fromkeys(tols, 0.0)
    for s in points:
        _require_dim(obj, s)
        for block, value, ref in pairs(s):
            errs[block] = max(errs[block], _rel_err(_check_finite(value, block, s), ref()))
    failing = tuple(sorted(name for name, e in errs.items() if e > tols[name]))
    return DerivativeReport(blocks=dict(sorted(errs.items())), failing=failing)

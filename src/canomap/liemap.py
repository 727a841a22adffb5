"""Poisson brackets and infinitesimal canonical transformations.

A scalar generator Omega(x, lam, t), held as a ControllingFunction, produces
the near-identity map y = x + Omega_lam * eps, mu = lam - Omega_x * eps: the
Std116 mapping with U = eps Omega.  With Omega = H and eps = dt this is one
explicit step of the canonical flow, and composing many such steps
reconstructs the flow to first order.
"""
from __future__ import annotations

import numpy as np

from .phasecore import ControllingFunction, DomainError, DynamicSystem, PhaseState, _is_int, _require_dim
from .hamilton import _BLOWUP_LIMIT
from .mapping import _FORM

__all__ = [
    "hamiltonian_field",
    "poisson_bracket",
    "infinitesimal_step",
    "compose_flow",
]


def hamiltonian_field(sys: DynamicSystem) -> ControllingFunction:
    """Omega = lam . f(x, t) with analytic gradients, t read from the state."""
    return ControllingFunction(
        sys.dim,
        u=lambda x, lam, t: float(np.dot(lam, sys.f_at(x, t))),
        ux=lambda x, lam, t: sys.jac_at(x, t).T @ lam,
        ulam=lambda x, lam, t: sys.f_at(x, t),
    )


def poisson_bracket(psi: ControllingFunction, omega: ControllingFunction,
                    s: PhaseState) -> float:
    """{psi, omega} = sum_i (psi_x_i omega_lam_i - psi_lam_i omega_x_i) at s."""
    _require_dim(psi, s)
    _require_dim(omega, s)
    args = (s.x, s.lam, s.t)
    return float(np.dot(psi.ux(*args), omega.ulam(*args))
                 - np.dot(psi.ulam(*args), omega.ux(*args)))


def infinitesimal_step(field: ControllingFunction, eps: float, s: PhaseState):
    """(y, mu) = (x + Omega_lam eps, lam - Omega_x eps), the Std116 row of
    mapping._FORM with U = eps Omega; eps is a finite nonzero number."""
    if callable(eps):
        raise TypeError("eps must be a number; generators nonlinear in the "
                        "small parameter are not supported")
    eps = float(eps)
    if not 0.0 < abs(eps) < np.inf:
        raise ValueError("eps must be finite and nonzero")
    _require_dim(field, s)
    a, gy, b, gmu = _FORM["Std116"](1, -1)
    return (s.x + a * eps * getattr(field, gy)(s.x, s.lam, s.t),
            s.lam + b * eps * getattr(field, gmu)(s.x, s.lam, s.t))


def compose_flow(field: ControllingFunction, s0: PhaseState, T: float, N: int) -> PhaseState:
    """Compose N infinitesimal steps with eps = T/N (first-order flow).

    With Omega = H this is the explicit-Euler reconstruction of the
    canonical flow described by a sequence of infinitesimal controlled
    mappings; it converges at O(1/N) and is meant for order checks, not
    production integration.
    """
    if not (_is_int(N) and N >= 1):
        raise ValueError(f"N must be an integer of at least 1, got {N!r}")
    if T == 0.0:
        return s0
    eps = T / N
    s = s0
    for i in range(N):
        y, mu = infinitesimal_step(field, eps, s)
        if not (np.abs(y).max() <= _BLOWUP_LIMIT and np.abs(mu).max() <= _BLOWUP_LIMIT):
            raise DomainError(f"flow composition blew up at step {i + 1}/{N}")
        t = s.t + eps   # y and mu are finite: they passed the blow-up check
        s = PhaseState._trusted(y, mu, t) if abs(t) < np.inf else PhaseState(y, mu, t)
    return s

"""Poisson brackets and infinitesimal canonical transformations.

A scalar generator Omega(x, lam) produces the near-identity map
y = x + Omega_lam * eps, mu = lam - Omega_x * eps; with Omega = H and
eps = dt this is one explicit step of the canonical flow, and composing
many such steps reconstructs the flow to first order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .phasecore import DomainError, DynamicSystem, PhaseState, _central_diff_x
from .hamilton import _BLOWUP_LIMIT

__all__ = [
    "ScalarField",
    "Generator",
    "hamiltonian_field",
    "poisson_bracket",
    "infinitesimal_step",
    "compose_flow",
]


class ScalarField:
    """Scalar phase-space function Omega(x, lam) with gradient closures.

    Missing gradients are FD-backed (central differences, recorded in
    fd_backed) so the bracket algebra works for black-box scalars too.
    """

    def __init__(self, dim: int, omega: Callable,
                 omega_x: Optional[Callable] = None,
                 omega_lam: Optional[Callable] = None):
        if not (isinstance(dim, (int, np.integer)) and dim >= 1):
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)
        self.omega = omega
        backed = set()
        if omega_x is None:
            omega_x = lambda x, lam: _central_diff_x(
                lambda xx: omega(xx, lam), x).reshape(self.dim)
            backed.add("omega_x")
        if omega_lam is None:
            omega_lam = lambda x, lam: _central_diff_x(
                lambda ll: omega(x, ll), lam).reshape(self.dim)
            backed.add("omega_lam")
        self.omega_x = omega_x
        self.omega_lam = omega_lam
        self.fd_backed = frozenset(backed)

    def at(self, s: PhaseState) -> float:
        return float(self.omega(s.x, s.lam))

    def grad_x(self, s: PhaseState) -> np.ndarray:
        return np.asarray(self.omega_x(s.x, s.lam), dtype=float).reshape(self.dim)

    def grad_lam(self, s: PhaseState) -> np.ndarray:
        return np.asarray(self.omega_lam(s.x, s.lam), dtype=float).reshape(self.dim)


@dataclass(frozen=True, eq=False)
class Generator:
    """A scalar field paired with a small parameter eps != 0."""

    field: ScalarField
    eps: float

    def __post_init__(self):
        if callable(self.eps):
            raise TypeError("eps must be a number; generators nonlinear in the "
                            "small parameter are not supported")
        eps = float(self.eps)
        if eps == 0.0 or not np.isfinite(eps):
            raise ValueError("eps must be finite and nonzero")
        object.__setattr__(self, "eps", eps)


def hamiltonian_field(sys: DynamicSystem, t: float = 0.0) -> ScalarField:
    """Omega = lam . f(x, t) with analytic gradients, t frozen."""
    return ScalarField(
        sys.dim,
        omega=lambda x, lam: float(np.dot(lam, sys.f_at(x, t))),
        omega_x=lambda x, lam: sys.jac_at(x, t).T @ lam,
        omega_lam=lambda x, lam: sys.f_at(x, t),
    )


def poisson_bracket(psi: ScalarField, omega: ScalarField, s: PhaseState) -> float:
    """{psi, omega} = sum_i (psi_x_i omega_lam_i - psi_lam_i omega_x_i) at s."""
    if psi.dim != omega.dim or psi.dim != s.n:
        raise ValueError("dimension mismatch between fields and state")
    return float(np.dot(psi.grad_x(s), omega.grad_lam(s))
                 - np.dot(psi.grad_lam(s), omega.grad_x(s)))


def infinitesimal_step(gen: Generator, s: PhaseState):
    """(y, mu) = (x + Omega_lam eps, lam - Omega_x eps)."""
    if gen.field.dim != s.n:
        raise ValueError("dimension mismatch between generator and state")
    y = s.x + gen.field.grad_lam(s) * gen.eps
    mu = s.lam - gen.field.grad_x(s) * gen.eps
    return y, mu


def compose_flow(field: ScalarField, s0: PhaseState, T: float, N: int) -> PhaseState:
    """Compose N infinitesimal steps with eps = T/N (first-order flow).

    With Omega = H this is the explicit-Euler reconstruction of the
    canonical flow described by a sequence of infinitesimal controlled
    mappings; it converges at O(1/N) and is meant for order checks, not
    production integration.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if T == 0.0:
        return s0
    eps = T / N
    gen = Generator(field, eps)
    s = s0
    for i in range(N):
        y, mu = infinitesimal_step(gen, s)
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(mu))) \
                or np.any(np.abs(y) > _BLOWUP_LIMIT) or np.any(np.abs(mu) > _BLOWUP_LIMIT):
            raise DomainError(f"flow composition blew up at step {i + 1}/{N}")
        s = PhaseState(y, mu, s.t + eps)
    return s

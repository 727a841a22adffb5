"""Poisson brackets, infinitesimal generators, and composed flows."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from canomap.phasecore import (ControllingFunction, DomainError, DynamicSystem,
                               PhaseState, zero_controlling_function)
from canomap.hamilton import integrate
from canomap.invariants import symplectic_test
from canomap.liemap import (compose_flow, hamiltonian_field, infinitesimal_step,
                            poisson_bracket)

finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


def coord_field(i, n=1):
    return ControllingFunction(n, lambda x, lam, t: float(x[i]),
                               ux=lambda x, lam, t: np.eye(n)[i],
                               ulam=lambda x, lam, t: np.zeros(n))


def momentum_field(i, n=1):
    return ControllingFunction(n, lambda x, lam, t: float(lam[i]),
                               ux=lambda x, lam, t: np.zeros(n),
                               ulam=lambda x, lam, t: np.eye(n)[i])


# ---------------------------------------------------------------------
# poisson_bracket
# ---------------------------------------------------------------------

def test_canonical_pair_bracket():
    s = PhaseState([0.3], [-2.0], 0.0)
    assert poisson_bracket(coord_field(0), momentum_field(0), s) == 1.0


def test_bracket_of_field_with_itself():
    om = ControllingFunction(1, lambda x, lam, t: float(x[0] * lam[0]),
                             ux=lambda x, lam, t: lam.copy(),
                             ulam=lambda x, lam, t: x.copy())
    assert poisson_bracket(om, om, PhaseState([1.7], [0.4], 0.0)) == 0.0


def test_quadratic_bracket_value():
    psi = ControllingFunction(1, lambda x, lam, t: float(x[0] ** 2),
                              ux=lambda x, lam, t: 2.0 * x,
                              ulam=lambda x, lam, t: np.zeros(1))
    om = ControllingFunction(1, lambda x, lam, t: float(lam[0] ** 2),
                             ux=lambda x, lam, t: np.zeros(1),
                             ulam=lambda x, lam, t: 2.0 * lam)
    # {x^2, lam^2} = 4 x lam = 8 at (1, 2)
    assert poisson_bracket(psi, om, PhaseState([1.0], [2.0], 0.0)) == 8.0


@given(x=finite, lam=finite, a=finite, b=finite)
def test_bracket_antisymmetry_exact(x, lam, a, b):
    s = PhaseState([x], [lam], 0.0)
    psi = ControllingFunction(1, lambda xx, ll, t: float(a * xx[0] * ll[0]),
                              ux=lambda xx, ll, t: a * ll,
                              ulam=lambda xx, ll, t: a * xx)
    om = ControllingFunction(1, lambda xx, ll, t: float(b * (xx[0] + ll[0] ** 2)),
                             ux=lambda xx, ll, t: np.full(1, b),
                             ulam=lambda xx, ll, t: 2.0 * b * ll)
    assert poisson_bracket(psi, om, s) == -poisson_bracket(om, psi, s)


def test_bracket_dimension_checked():
    with pytest.raises(ValueError, match="dimension"):
        poisson_bracket(coord_field(0, 1), momentum_field(0, 2),
                        PhaseState([0.0], [0.0], 0.0))


def test_bracket_and_step_state_the_library_dimension_message():
    with pytest.raises(ValueError, match="^dimension mismatch: controlling function n=2, state n=1$"):
        poisson_bracket(coord_field(0, 1), momentum_field(0, 2), PhaseState([0.0], [0.0], 0.0))
    with pytest.raises(ValueError, match="^dimension mismatch: controlling function n=1, state n=2$"):
        infinitesimal_step(coord_field(0, 1), 0.1, PhaseState([0.0, 0.0], [0.0, 0.0], 0.0))


def test_fd_backed_scalar_field():
    om = ControllingFunction(1, lambda x, lam, t: float(x[0] * lam[0]))
    assert {"ux", "ulam"} <= om.fd_backed
    s = PhaseState([1.5], [2.5], 0.0)
    # {x, om} = om_lam = x and {lam, om} = -om_x = -lam, through the FD rule
    assert poisson_bracket(coord_field(0), om, s) == pytest.approx(1.5, rel=1e-9)
    assert poisson_bracket(momentum_field(0), om, s) == pytest.approx(-2.5, rel=1e-9)
    y, mu = infinitesimal_step(om, 0.1, s)
    assert y[0] == pytest.approx(1.65, rel=1e-9)
    assert mu[0] == pytest.approx(2.25, rel=1e-9)


def test_hamiltonian_field_reproduces_rhs():
    sysl = DynamicSystem(dim=1, f=lambda x, t: x,
                         jac=lambda x, t: np.eye(1), autonomous=True)
    H = hamiltonian_field(sysl)
    s = PhaseState([2.0], [3.0], 0.0)
    assert float(H.u(s.x, s.lam, s.t)) == 6.0
    # {x, H} = f and {lam, H} = -A^T lam, the canonical equations
    assert poisson_bracket(coord_field(0), H, s) == 2.0
    assert poisson_bracket(momentum_field(0), H, s) == -3.0


# ---------------------------------------------------------------------
# infinitesimal_step
# ---------------------------------------------------------------------

def test_constant_generator_is_identity():
    om = ControllingFunction(1, lambda x, lam, t: 7.0,
                             ux=lambda x, lam, t: np.zeros(1),
                             ulam=lambda x, lam, t: np.zeros(1))
    s = PhaseState([1.2], [-0.4], 0.0)
    y, mu = infinitesimal_step(om, 0.1, s)
    assert np.array_equal(y, s.x) and np.array_equal(mu, s.lam)


def test_bilinear_generator_step():
    om = ControllingFunction(1, lambda x, lam, t: float(lam[0] * x[0]),
                             ux=lambda x, lam, t: lam.copy(),
                             ulam=lambda x, lam, t: x.copy())
    y, mu = infinitesimal_step(om, 0.01, PhaseState([1.0], [1.0], 0.0))
    assert y[0] == pytest.approx(1.01, abs=1e-15)
    assert mu[0] == pytest.approx(0.99, abs=1e-15)


def test_step_symplectic_defect_is_eps_squared():
    om = ControllingFunction(1, lambda x, lam, t: float(lam[0] * x[0]),
                             ux=lambda x, lam, t: lam.copy(),
                             ulam=lambda x, lam, t: x.copy())
    s = PhaseState([1.0], [1.0], 0.0)
    eps = 1e-3

    def step(x, lam):
        return infinitesimal_step(om, eps, PhaseState(x, lam, 0.0))

    defect = symplectic_test(step, s)
    assert defect < 1e-5
    assert defect == pytest.approx(eps ** 2, rel=1e-4)


def test_defect_order_two_in_eps():
    om = ControllingFunction(1, lambda x, lam, t: float(lam[0] * np.sin(x[0])),
                             ux=lambda x, lam, t: lam * np.cos(x[0]),
                             ulam=lambda x, lam, t: np.sin(x))
    s = PhaseState([0.7], [1.3], 0.0)
    epss = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    defects = []
    for eps in epss:
        def step(x, lam, eps=eps):
            return infinitesimal_step(om, eps, PhaseState(x, lam, 0.0))
        defects.append(symplectic_test(step, s))
    slope = np.polyfit(np.log(epss), np.log(defects), 1)[0]
    assert 1.8 < slope < 2.2


def test_generator_validation():
    om = ControllingFunction(1, lambda x, lam, t: float(x[0]))
    s = PhaseState([0.0], [0.0], 0.0)
    with pytest.raises(ValueError, match="nonzero"):
        infinitesimal_step(om, 0.0, s)
    with pytest.raises(ValueError, match="finite"):
        infinitesimal_step(om, np.inf, s)
    with pytest.raises(TypeError, match="number"):
        infinitesimal_step(om, lambda t: t, s)
    with pytest.raises(ValueError, match="dimension"):
        infinitesimal_step(om, 0.1, PhaseState([0.0, 0.0], [0.0, 0.0], 0.0))


# ---------------------------------------------------------------------
# compose_flow
# ---------------------------------------------------------------------

def test_compose_zero_time_returns_start():
    sysl = DynamicSystem(dim=1, f=lambda x, t: x,
                         jac=lambda x, t: np.eye(1), autonomous=True)
    s0 = PhaseState([1.0], [1.0], 0.25)
    H = hamiltonian_field(sysl)
    assert compose_flow(H, s0, 0.0, 100) is s0
    for N in (0, 2.5, 1.0, True):
        with pytest.raises(ValueError, match="at least 1"):
            compose_flow(H, s0, 1.0, N)
    end = compose_flow(H, s0, 1.0, np.int64(3))
    ref = compose_flow(H, s0, 1.0, 3)
    assert end.x.tolist() == ref.x.tolist() and end.lam.tolist() == ref.lam.tolist()


@pytest.mark.parametrize("T", [np.inf, np.nan], ids=["inf", "nan"])
def test_compose_flow_refuses_a_time_that_is_not_finite(T):
    H = hamiltonian_field(DynamicSystem(dim=1, f=lambda x, t: x,
                                        jac=lambda x, t: np.eye(1), autonomous=True))
    with pytest.raises(ValueError, match="^eps must be finite and nonzero$"):
        compose_flow(H, PhaseState([1.0], [1.0], 0.0), T, 10)


def test_compose_flow_first_order_error():
    sysl = DynamicSystem(dim=1, f=lambda x, t: x,
                         jac=lambda x, t: np.eye(1), autonomous=True)
    s0 = PhaseState([1.0], [1.0], 0.0)
    ref = integrate(sysl, s0, 1.0, 1e-3)[-1]
    H = hamiltonian_field(sysl)
    errs = []
    Ns = [50, 100, 200, 400]
    for N in Ns:
        end = compose_flow(H, s0, 1.0, N)
        errs.append(max(abs(end.x[0] - ref.x[0]), abs(end.lam[0] - ref.lam[0])))
    slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    assert 0.9 < abs(slope) < 1.1
    # halving the step roughly halves the error
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)
    assert compose_flow(H, s0, 1.0, 400).t == pytest.approx(1.0, abs=1e-12)


def test_compose_flow_reads_the_state_time():
    # xdot = t from x = 0 gives x(1) = 1/2; the Euler sum of eps t_i is
    # 1/2 - 1/(2N), so the error is first order.  A field frozen at t = 0
    # would stay at x = 0 for every N.
    drive = DynamicSystem(dim=1, f=lambda x, t: np.array([t]),
                          jac=lambda x, t: np.zeros((1, 1)))
    H = hamiltonian_field(drive)
    s0 = PhaseState([0.0], [1.0], 0.0)
    Ns = [50, 100, 200, 400]
    errs = []
    for N in Ns:
        end = compose_flow(H, s0, 1.0, N)
        assert end.lam[0] == 1.0
        errs.append(abs(end.x[0] - 0.5))
        assert errs[-1] == pytest.approx(0.5 / N, rel=1e-9)
    slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    assert 0.9 < abs(slope) < 1.1


def test_compose_flow_blowup_diagnostic():
    quad = ControllingFunction(1, lambda x, lam, t: float(lam[0] * x[0] ** 2),
                               ux=lambda x, lam, t: 2.0 * lam * x,
                               ulam=lambda x, lam, t: x ** 2)
    with pytest.raises(DomainError, match="blew up at step"):
        compose_flow(quad, PhaseState([5.0], [0.0], 0.0), 10.0, 20)


def test_compose_flow_non_finite_gradient_is_a_blowup():
    # a NaN image fails the blow-up check, so no non-finite state is built
    nan_field = ControllingFunction(1, lambda x, lam, t: 0.0,
                                    ux=lambda x, lam, t: np.zeros(1),
                                    ulam=lambda x, lam, t: np.array([np.nan]))
    with pytest.raises(DomainError, match=r"blew up at step 1/4"):
        compose_flow(nan_field, PhaseState([1.0], [1.0], 0.0), 1.0, 4)


def test_compose_flow_refuses_a_time_past_the_float_range():
    # eps = 1e308 is finite, but t0 + eps overflows: the state's time is
    # still checked though its x and lam come from the blow-up check
    with pytest.raises(ValueError, match=r"^non-finite phase state: .*t=inf"):
        compose_flow(zero_controlling_function(1), PhaseState([0.0], [1.0], 1.7e308), 1e308, 1)

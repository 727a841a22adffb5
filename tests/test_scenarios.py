"""Worked systems: ballistic flight, phase-plane quarter-turn, straightening."""
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canomap.phasecore import (DomainError, DynamicSystem, PhaseState, Trajectory,
                               _central_diff_t, _cumtrapz, _subsample)
from canomap.hamilton import canonical_rhs, hamiltonian, integrate
from canomap.invariants import symplectic_test
from canomap.mapping import apply_map
from canomap.scenarios import (_GL_W, _GL_X, _RESIDUAL_FD_H, StraighteningProblem,
                               _weighted, ballistic_system, constant_field_reduction,
                               rotation_example, straightening_solve)


# ---------------------------------------------------------------------
# ballistic flight in a central field
# ---------------------------------------------------------------------

def test_circular_orbit_is_a_fixed_point():
    sysb = ballistic_system(1.0)
    s0 = PhaseState([0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], 0.0)
    traj = integrate(sysb, s0, 2.0, 1e-3)
    end = traj[-1]
    # v_phi^2/r exactly balances sigma^2/r^2, so the radial block never moves
    assert np.array_equal(end.x[:3], [0.0, 1.0, 1.0])
    assert end.x[3] == pytest.approx(2.0, abs=1e-9)


def test_adjoint_matches_generic_multiplier_equations():
    # the multiplier half of the lift is the printed adjoint
    sysb = ballistic_system(1.3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform([-1, -1, 0.5, -3], [1, 1, 2.5, 3])
        lam = rng.uniform(-2, 2, size=4)
        _, dlam = canonical_rhs(sysb, PhaseState(x, lam, 0.0))
        assert np.max(np.abs(sysb.lift(x.tolist(), lam.tolist(), 0.0)[4:] - dlam)) < 1e-12


def test_adjoint_hand_value():
    adjoint = ballistic_system(1.0).lift([0.0, 1.0, 1.0, 0.3], [0.0, 1.0, 1.0, 0.0], 0.0)[4:]
    # lam1' = lam2 v_phi / r - lam3 = 1 - 1
    assert adjoint[0] == 0.0
    assert adjoint[3] == 0.0


def test_cyclic_multiplier_stays_bitwise_constant():
    sysb = ballistic_system(1.0)
    s0 = PhaseState([0.0, 1.0, 1.0, 0.0], [1.0, 0.2, -0.3, 0.4], 0.0)
    traj = integrate(sysb, s0, 2.0, 1e-3)
    assert np.all(traj.lam[:, 3] == 0.4)


def test_radius_guard_truncates_infall():
    sysb = ballistic_system(1.0)
    s0 = PhaseState([-1.0, 0.01, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0], 0.0)
    traj = integrate(sysb, s0, 5.0, 1e-3)
    assert traj.meta["truncated"]
    assert "guard" in traj.meta["reason"]
    assert traj.meta["t_truncated"] < 5.0


def test_sigma_validated():
    for sigma in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="^sigma must be positive and finite$"):
            ballistic_system(sigma)


def test_sigma_whose_square_overflows_is_a_value_error():
    # float ** 2 raises OverflowError beyond sqrt(float max), about 1.34e154
    assert np.isfinite(ballistic_system(1.34e154).f(np.array([0.0, 1.0, 1.0, 0.0]), 0.0)).all()
    for sigma in (1.35e154, 1e200, np.finfo(float).max):
        with pytest.raises(ValueError, match="sigma\\^2 overflows$"):
            ballistic_system(sigma)


def _ballistic_on_numpy_scalars(sig2):
    """The ballistic f and jac unpacking the state into numpy scalars."""
    def f(s):
        v_r, v_phi, r, _phi = s
        return np.array([v_phi ** 2 / r - sig2 / r ** 2, -v_r * v_phi / r, v_r, v_phi / r])

    def jac(s):
        v_r, v_phi, r, _phi = s
        return np.array([
            [0.0, 2.0 * v_phi / r, -v_phi ** 2 / r ** 2 + 2.0 * sig2 / r ** 3, 0.0],
            [-v_phi / r, -v_r / r, v_r * v_phi / r ** 2, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0 / r, -v_phi / r ** 2, 0.0],
        ])
    return f, jac


@settings(max_examples=300, deadline=None)
@given(sigma=st.floats(1e-3, 1e3),
       v=st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3),
       r=st.floats(1.0000001e-6, 1e6))
def test_ballistic_field_on_floats_is_bitwise_the_numpy_scalar_field(sigma, v, r):
    sysb = ballistic_system(sigma)
    f, jac = _ballistic_on_numpy_scalars(float(sigma) ** 2)
    s = np.array([v[0], v[1], r, v[2]])
    assert sysb.f(s, 0.0).tobytes() == f(s).tobytes()
    assert sysb.jac(s, 0.0).tobytes() == jac(s).tobytes()


@given(r=st.floats(-1e3, 1e-6))
def test_ballistic_field_guards_the_centre(r):
    sysb = ballistic_system(1.0)
    s = np.array([0.1, 1.0, r, 0.0])
    for fn in (sysb.f, sysb.jac):
        with pytest.raises(DomainError, match="at or below the guard 1e-06$"):
            fn(s, 0.0)
    with pytest.raises(DomainError, match="at or below the guard 1e-06$"):
        sysb.lift(s.tolist(), [1.0] * 4, 0.0)


# ---------------------------------------------------------------------
# quarter-turn of the phase plane
# ---------------------------------------------------------------------

def test_quarter_turn_images():
    spec = rotation_example()
    y, mu = apply_map(spec, PhaseState([2.0], [3.0], 0.0))
    assert (y[0], mu[0]) == (3.0, -2.0)
    y, mu = apply_map(spec, PhaseState([0.0], [0.0], 0.0))
    assert (y[0], mu[0]) == (0.0, 0.0)


def test_quarter_turn_composes_to_half_turn():
    spec = rotation_example()
    y1, mu1 = apply_map(spec, PhaseState([1.0], [0.0], 0.0))
    assert (y1[0], mu1[0]) == (0.0, -1.0)
    y2, mu2 = apply_map(spec, PhaseState(y1, mu1, 0.0))
    assert (y2[0], mu2[0]) == (-1.0, 0.0)


def test_quarter_turn_is_symplectic():
    spec = rotation_example()
    defect = symplectic_test(spec, PhaseState([0.4], [-1.1], 0.0))
    assert defect < 1e-9


def test_time_part_never_touches_the_images():
    spec = rotation_example(u_t=lambda t: 0.5 * t * t)
    cf = spec.cf
    y, mu = apply_map(spec, PhaseState([2.0], [3.0], 1.7))
    assert (y[0], mu[0]) == (3.0, -2.0)
    s = PhaseState([1.0], [1.0], 1.5)
    assert cf.ut(s.x, s.lam, s.t) == pytest.approx(1.5, rel=1e-8)
    assert float(cf.u(s.x, s.lam, s.t)) == pytest.approx(1.0 + 0.5 * 1.5 ** 2)


def test_quarter_turn_higher_dim():
    spec = rotation_example(dim=3)
    x = np.array([1.0, -2.0, 0.5])
    lam = np.array([0.0, 4.0, 1.0])
    y, mu = apply_map(spec, PhaseState(x, lam, 0.0))
    assert np.array_equal(y, lam)
    assert np.array_equal(mu, -x)


# ---------------------------------------------------------------------
# straightening equation U + c U_lam = F
# ---------------------------------------------------------------------

def scalar_system(f=None):
    if f is None:
        f = lambda x, t: np.zeros(1)
    return DynamicSystem(dim=1, f=f, jac=lambda x, t: np.zeros((1, 1)),
                         autonomous=True)


def null_system2():
    return DynamicSystem(dim=2, f=lambda x, t: np.zeros(2),
                         jac=lambda x, t: np.zeros((2, 2)), autonomous=True)


def unit_problem():
    return StraighteningProblem(c=1.0, a=1.0, y0=0.0, lam_b=0.0)


def test_zero_forcing_gives_zero_solution():
    sol = straightening_solve(unit_problem(), lambda x, lam: 0.0,
                              np.linspace(-1, 1, 5), np.linspace(0, 2, 41))
    assert np.all(sol.U == 0.0)
    assert sol.residual_check() == 0.0


def test_unit_forcing_exponential_solution():
    lam_grid = np.linspace(0.0, 2.0, 101)
    sol = straightening_solve(unit_problem(), lambda x, lam: 1.0,
                              np.array([0.0, 0.5]), lam_grid)
    exact = 1.0 - np.exp(-lam_grid)
    assert np.max(np.abs(sol.U - exact[None, :])) < 1e-9
    assert sol.evaluate(0.0, 1.0) == pytest.approx(1.0 - 1.0 / np.e, abs=1e-9)
    assert sol.residual_check() < 1e-8


def test_off_grid_evaluation_and_ulam():
    lam_grid = np.linspace(0.0, 2.0, 101)
    sol = straightening_solve(unit_problem(), lambda x, lam: 1.0,
                              np.array([0.0]), lam_grid)
    # x off the grid: integrated from the boundary, same lam profile
    assert sol.evaluate(0.37, 0.63) == pytest.approx(1.0 - np.exp(-0.63),
                                                     abs=1e-9)
    # U_lam recovered from the equation itself
    assert sol.ulam(0.0, 1.25) == pytest.approx(np.exp(-1.25), abs=1e-9)


def test_multiplier_target_must_be_nonzero():
    # U + c U_lam = F is solved along lam, which c = 0 leaves undetermined
    for c in (0.0, 1e-13, -1e-13):
        with pytest.raises(ValueError, match="^c must be nonzero"):
            StraighteningProblem(c=c, a=2.0, y0=1.0, lam_b=0.0)
    assert StraighteningProblem(c=1e-12, a=2.0, y0=1.0, lam_b=0.0).c == 1e-12


def test_problem_and_grid_validation():
    good = dict(c=1.0, a=1.0, y0=0.0, lam_b=0.0)
    for target in ("c", "a", "y0"):   # every target is a float, never a sequence
        with pytest.raises(TypeError):
            StraighteningProblem(**{**good, target: [1.0]})
    with pytest.raises(TypeError):    # the energy level is a c, not a target
        StraighteningProblem(**good, h=1.0)
    for bad in (dict(lam_b=np.inf), dict(c=np.nan), dict(y0=np.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            StraighteningProblem(**{**good, **bad})
    prob = unit_problem()
    with pytest.raises(ValueError, match="strictly increasing"):
        straightening_solve(prob, lambda x, lam: 1.0,
                            np.array([0.0]), np.array([0.0, 0.5, 0.4]))
    with pytest.raises(ValueError, match="strictly increasing"):
        straightening_solve(prob, lambda x, lam: 1.0,
                            np.array([0.5, 0.0]), np.array([0.0, 0.5]))
    for x_grid, lam_grid in (([0.0, np.nan, 1.0], [0.0, 0.5]), ([0.0], [0.0, np.nan, 1.0])):
        with pytest.raises(ValueError, match="strictly increasing"):
            straightening_solve(prob, lambda x, lam: 1.0,
                                np.array(x_grid), np.array(lam_grid))
    with pytest.raises(ValueError, match="start at the boundary"):
        straightening_solve(prob, lambda x, lam: 1.0,
                            np.array([0.0]), np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match=">= 2 nodes"):
        straightening_solve(prob, lambda x, lam: 1.0,
                            np.array([0.0]), np.array([0.0]))


# ---------------------------------------------------------------------
# the quadrature rule against closed forms
# ---------------------------------------------------------------------

def test_gauss_legendre_nodes_and_weights_are_leggauss_8_on_the_unit_interval():
    x, w = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(_GL_X, (x + 1.0) / 2.0)
    assert np.array_equal(_GL_W, w / 2.0)


def test_weighted_cells_against_the_closed_form():
    # g = 1: the cell integral is c (1 - e^{(a - b)/c}).  Cells run forwards
    # and backwards, the weight grows toward either end, two cells are far
    # wider than 36|c| at c = 0.01, one has zero width and evaluates no node,
    # and a NaN cell evaluates one panel of 8 nodes and reads NaN
    a = np.array([0.0, 1.0, 0.5, -0.3, 0.0, 0.0, 2.0])
    b = np.array([1.0, 0.0, 0.5, 0.7, -3.0, 3.0, np.nan])
    for c in (1.0, -0.7, 0.01):
        nodes = []
        def g(s, i):
            nodes.append(s.size)
            return np.ones(s.shape)
        got = _weighted(g, c, a, b)
        want = c * (1.0 - np.exp((a - b) / c))
        # the rounding of the exponent (a - b)/c grows with its size
        bound = 1e-15 * (1.0 + np.abs((a - b) / c)) * np.maximum(1.0, np.abs(want))
        assert np.all((np.abs(got - want) <= bound)[:6])
        assert got[2] == 0.0 and np.isnan(got[6])
        panels = np.ceil(np.minimum(np.abs(b - a)[:6], 36.0 * abs(c)) / min(0.05, 2.0 * abs(c)))
        assert sum(nodes) == 8 * (panels.sum() + 1)


def test_a_nan_cell_evaluates_one_panel():
    # a NaN integrand costs one panel of 8 nodes, a zero-width cell none
    nodes = []
    def g(s, i):
        nodes.append(s.size)
        return np.full(s.shape, np.nan)
    got = _weighted(g, 1.0, np.array([0.0, 0.0]), np.array([1e-3, 0.0]))
    assert np.isnan(got[0]) and got[1] == 0.0 and sum(nodes) == 8


def linear_forcing(x, lam):
    return (1.0 - x) + 0.5 * lam


def linear_forcing_u(c, lam_b, x, lam):
    """U + c U_lam = (1 - x) + lam / 2 with U(x, lam_b) = 0, in closed form."""
    particular = lambda lam: 0.5 * lam + (1.0 - x) - 0.5 * c
    return particular(lam) - particular(lam_b) * np.exp(-(lam - lam_b) / c)


STRAIGHTENING_GRIDS = {   # the CLI's 101 x 101 grid and a coarse one
    "cli": (np.linspace(-1.0, 1.0, 101), np.linspace(0.5, 2.5, 101)),
    "tests": (np.linspace(-1.0, 1.0, 9), 0.5 + np.arange(17) / 8.0),
}


@pytest.mark.parametrize("grid", sorted(STRAIGHTENING_GRIDS))
@pytest.mark.parametrize("c", [1.0, 0.05, 0.01, 1e-3, 1e-5, -0.7])
def test_straightening_matches_the_closed_form(c, grid):
    x_grid, lam_grid = STRAIGHTENING_GRIDS[grid]
    lam_b, h = lam_grid[0], lam_grid[1] - lam_grid[0]
    prob = StraighteningProblem(c=c, a=0.0, y0=0.0, lam_b=lam_b)
    sol = straightening_solve(prob, linear_forcing, x_grid, lam_grid)
    tol = 1e-12 if abs(c) >= 1e-3 else 1e-10
    err = lambda got, want: np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
    U = linear_forcing_u(c, lam_b, x_grid[:, None], lam_grid)
    assert err(sol.U, U) <= tol
    # on-grid and off-grid x alike integrate from lam_b, where U = 0 exactly;
    # lam on lam_b and on a node, after and before a node (far behind it in
    # units of |c| when c is small), behind lam_b and far out.  Behind lam_b
    # U itself grows as e^{d/|c|}, so d stays within 40|c| there.
    lams = [lam_b, lam_grid[7], lam_grid[7] + 0.3 * h, lam_grid[7] - 0.3 * h,
            lam_b - min(0.4, 40.0 * abs(c)), 5.0]
    for x in (x_grid[0], x_grid[4], 0.123, 3.0):
        for lam in lams:
            assert err(sol.evaluate(x, lam), linear_forcing_u(c, lam_b, x, lam)) <= tol, (x, lam)
    if (grid, c) == ("cli", 1e-5):
        # 250|c| behind a node, whose rounding a continuation from it scales by e^250
        lam = lam_grid[22] - 250.0 * abs(c)
        assert err(sol.evaluate(-1.0, lam), linear_forcing_u(c, lam_b, -1.0, lam)) <= 1e-12
    # residual_check against the same difference of the closed form; the
    # difference quotient scales an error of U by |c| / (2 h)
    X, L = np.meshgrid(x_grid, lam_grid, indexing="ij")
    hi, lo = L + _RESIDUAL_FD_H, L - _RESIDUAL_FD_H
    u_lam = (linear_forcing_u(c, lam_b, X, hi) - linear_forcing_u(c, lam_b, X, lo)) / (hi - lo)
    want = np.max(np.abs(U + c * u_lam - linear_forcing(X, L)))
    scale = np.max(np.maximum(1.0, np.abs(U))) * (1.0 + abs(c) / (2.0 * _RESIDUAL_FD_H))
    assert abs(sol.residual_check() - want) <= tol * scale


@pytest.mark.parametrize("c", [0.3, -0.7])
def test_point_evaluation_does_not_read_the_grid(c):
    # the solved U is output only: evaluate and ulam integrate from lam_b,
    # and residual_check alone continues from the nodes
    x_grid, lam_grid = STRAIGHTENING_GRIDS["tests"]
    prob = StraighteningProblem(c=c, a=0.0, y0=0.0, lam_b=lam_grid[0])
    sol = straightening_solve(prob, linear_forcing, x_grid, lam_grid)
    blind = dataclasses.replace(sol, U=np.full_like(sol.U, np.nan))
    h = lam_grid[1] - lam_grid[0]
    for x in (x_grid[0], x_grid[4], 0.123):
        for lam in (lam_grid[7] - 0.3 * h, lam_grid[7], lam_grid[7] + 0.3 * h, lam_grid[0] - 0.3):
            assert blind.evaluate(x, lam) == sol.evaluate(x, lam), (x, lam)
            assert blind.ulam(x, lam) == sol.ulam(x, lam), (x, lam)
    assert np.isnan(blind.residual_check())


NONFINITE = """
import json, resource
cap = 1_500_000_000   # bytes of address space: a runaway refinement raises MemoryError
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import numpy as np
from canomap.scenarios import StraighteningProblem, straightening_solve
prob = StraighteningProblem(c=1.0, a=1.0, y0=0.0, lam_b=0.0)
grids = np.linspace(-1.0, 1.0, 3), np.linspace(0.0, 1.0, 5)
sol = straightening_solve(prob, lambda x, lam: np.cos(x) + lam, *grids)
nan_f = straightening_solve(prob, lambda x, lam: np.nan, *grids)
nodes = []
def unit(x, lam):
    nodes.append(np.broadcast(x, lam).size)
    return 1.0
far = straightening_solve(prob, unit, *grids)
nodes.clear()
u = far.evaluate(0.0, -35.0)   # the weight grows as e^35 toward lam_b
print(json.dumps([sol.evaluate(0.0, np.nan), sol.evaluate(0.0, np.inf),
                  bool(np.isnan(nan_f.U[:, 1:]).all()), sum(nodes),
                  abs(u - (1.0 - np.exp(35.0))) / (np.exp(35.0) - 1.0)]))
"""


def test_non_finite_straightening_input_reads_nan():
    # in a child under an address-space cap: a quadrature that refined a
    # NaN cell, or a cell whose weight reaches e^35, without bound would need
    # far more memory than the cap.  The 35-wide cell takes 700 panels of 8
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", NONFINITE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_nan, at_inf, nan_forcing, nodes, far_err = json.loads(proc.stdout)
    assert np.isnan(at_nan) and np.isnan(at_inf) and nan_forcing
    assert nodes <= 5600 and far_err <= 1e-14


def test_forcing_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError):
        straightening_solve(unit_problem(), lambda x, lam: np.ones(7),
                            np.array([0.0, 0.5]), np.linspace(0.0, 2.0, 11))


# ---------------------------------------------------------------------
# constant-drift reduction end to end
# ---------------------------------------------------------------------

def extremal(sys, x0, lam0, t1=1.0, step=1e-3):
    return integrate(sys, PhaseState(x0, lam0, 0.0), t1, step)


def test_reduction_frozen_field_is_exact():
    prob = StraighteningProblem(c=0.7, a=0.0, y0=1.5, lam_b=0.7)
    rep = constant_field_reduction(prob, scalar_system(), extremal(scalar_system(), [0.5], [0.7]))
    assert rep.pde_residual_max < 1e-8
    assert rep.ydot_max_err < 1e-6
    assert rep.mu_defect < 1e-6
    assert rep.energy_mismatch == 0.0
    assert np.all(rep.f_line == 0.0)


def test_reduction_of_a_hand_built_rest_point_matches_the_march():
    # a Trajectory built by hand carries no system, so the reduction calls f
    # once per sample; at a rest point every reported number is the same
    calls = []
    rest = scalar_system(lambda x, t: calls.append(t) or x - 0.5)   # at rest at x = 0.5
    prob = StraighteningProblem(c=0.7, a=0.2, y0=1.5, lam_b=0.7)
    marched = constant_field_reduction(prob, rest, extremal(rest, [0.5], [0.7]))
    calls.clear()
    t = np.linspace(0.0, 1.0, 1001)
    by_hand = constant_field_reduction(
        prob, rest, Trajectory(t, np.full((1001, 1), 0.5), np.full((1001, 1), 0.7)))
    assert len(calls) == 1001
    for name in ("pde_residual_max", "ydot_max_err", "mu_defect", "energy_mismatch"):
        assert getattr(by_hand, name) == getattr(marched, name), name
    assert marched.energy_mismatch == pytest.approx(0.14, abs=1e-15)
    assert np.array_equal(by_hand.f_line, marched.f_line)
    assert np.array_equal(by_hand.solution.U, marched.solution.U)


def test_reduction_default_grids_are_the_cli_grids():
    # at lam0 = 1.3, lam0 + linspace(0, 2) and linspace(lam0, lam0 + 2)
    # differ in the last bit; the straightening scenario uses the latter
    x0, lam0 = 0.3, 1.3
    prob = StraighteningProblem(c=lam0, a=0.0, y0=x0 + 1.0, lam_b=lam0)
    sol = constant_field_reduction(prob, scalar_system(),
                                   extremal(scalar_system(), [x0], [lam0])).solution
    assert np.array_equal(sol.lam_grid, np.linspace(lam0, lam0 + 2.0, 101))
    assert np.array_equal(sol.x_grid, np.linspace(x0 - 1.0, x0 + 1.0, 101))


def test_reduction_moving_extremal_diagnostics():
    lin = DynamicSystem(dim=1, f=lambda x, t: x,
                        jac=lambda x, t: np.eye(1), autonomous=True)
    prob = StraighteningProblem(c=0.5, a=1.0, y0=2.0, lam_b=0.1)
    traj = extremal(lin, [1.0], [0.5])
    rep = constant_field_reduction(prob, lin, traj)
    # the PDE itself is solved tightly ...
    assert rep.pde_residual_max < 1e-8
    # ... the energy level is consistent, and the line integral accumulates
    # H * t = 0.5 t along the extremal
    assert rep.energy_mismatch < 1e-12
    assert rep.f_line[-1] == pytest.approx(0.5, rel=1e-6)
    hs = np.array([hamiltonian(lin, s) for s in traj])
    assert np.array_equal(rep.f_line, _cumtrapz(traj.t, hs))
    # mapped-motion defects are genuinely O(0.1) here: only a frozen field
    # sits entirely on the boundary where the reduction is exact
    assert rep.ydot_max_err < 1.0
    assert rep.mu_defect < 0.5


def test_reduction_u_x_is_the_hand_written_difference_of_u():
    # the mapped motion's U_x is the FD rule's block of the solved U: bit for
    # bit one central difference of sol.evaluate in x at each sample
    lin = DynamicSystem(dim=1, f=lambda x, t: x,
                        jac=lambda x, t: np.eye(1), autonomous=True)
    prob = StraighteningProblem(c=0.5, a=1.0, y0=2.0, lam_b=0.1)
    traj = extremal(lin, [1.0], [0.5])
    rep = constant_field_reduction(prob, lin, traj)
    sol, idx = rep.solution, _subsample(traj, 41)
    ts, xs, lams = traj.t[idx], traj.x[idx, 0], traj.lam[idx, 0]
    ux = np.array([_central_diff_t(lambda v: sol.evaluate(v, lam), x) for x, lam in zip(xs, lams)])
    ulam = np.array([sol.ulam(x, lam) for x, lam in zip(xs, lams)])
    assert rep.mu_defect == float(np.max(np.abs(lams - ux - 0.5))) > 0.0
    assert rep.ydot_max_err == float(np.max(np.abs(np.gradient(xs + ulam, ts) - 1.0))) > 0.0


def test_reduction_rejects_bad_inputs():
    prob = StraighteningProblem(c=0.5, a=1.0, y0=2.0, lam_b=0.1)
    driven = DynamicSystem(dim=1, f=lambda x, t: np.ones(1),
                           jac=lambda x, t: np.zeros((1, 1)), autonomous=False)
    with pytest.raises(ValueError, match="autonomous"):
        constant_field_reduction(prob, driven, extremal(driven, [1.0], [0.5]))
    # a drive mis-flagged as autonomous produces a turning point, which the
    # line-integral parameterization must refuse
    wobble = DynamicSystem(dim=1, f=lambda x, t: np.array([np.cos(3.0 * t)]),
                           jac=lambda x, t: np.zeros((1, 1)), autonomous=True)
    with pytest.raises(ValueError, match="not monotone"):
        constant_field_reduction(prob, wobble, extremal(wobble, [1.0], [0.5]))
    with pytest.raises(ValueError, match="^constant_field_reduction handles n=1 only$"):
        constant_field_reduction(prob, null_system2(),
                                 extremal(null_system2(), [1.0, 1.0], [0.5, 0.5]))

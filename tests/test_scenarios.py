"""Worked systems: ballistic flight, phase-plane quarter-turn, straightening."""
import numpy as np
import pytest

from canomap.phasecore import DomainError, DynamicSystem, PhaseState
from canomap.hamilton import canonical_rhs, integrate
from canomap.invariants import symplectic_test
from canomap.mapping import apply_map
from canomap.scenarios import (_QUAD_TOL, _RESIDUAL_FD_H, StraighteningProblem,
                               _simpson, ballistic_system, constant_field_reduction,
                               make_ballistic_adjoint, rotation_example,
                               straightening_solve)


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
    sysb = ballistic_system(1.3)
    adjoint = make_ballistic_adjoint(1.3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform([-1, -1, 0.5, -3], [1, 1, 2.5, 3])
        lam = rng.uniform(-2, 2, size=4)
        s = PhaseState(x, lam, 0.0)
        _, dlam = canonical_rhs(sysb, s)
        assert np.max(np.abs(adjoint(s) - dlam)) < 1e-12


def test_adjoint_hand_value():
    adjoint = make_ballistic_adjoint(1.0)
    s = PhaseState([0.0, 1.0, 1.0, 0.3], [0.0, 1.0, 1.0, 0.0], 0.0)
    # lam1' = lam2 v_phi / r - lam3 = 1 - 1
    assert adjoint(s)[0] == 0.0
    assert adjoint(s)[3] == 0.0


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
    with pytest.raises(ValueError, match="positive"):
        ballistic_system(0.0)


# ---------------------------------------------------------------------
# quarter-turn of the phase plane
# ---------------------------------------------------------------------

def test_quarter_turn_images():
    _, spec = rotation_example()
    y, mu = apply_map(spec, PhaseState([2.0], [3.0], 0.0))
    assert (y[0], mu[0]) == (3.0, -2.0)
    y, mu = apply_map(spec, PhaseState([0.0], [0.0], 0.0))
    assert (y[0], mu[0]) == (0.0, 0.0)


def test_quarter_turn_composes_to_half_turn():
    _, spec = rotation_example()
    y1, mu1 = apply_map(spec, PhaseState([1.0], [0.0], 0.0))
    assert (y1[0], mu1[0]) == (0.0, -1.0)
    y2, mu2 = apply_map(spec, PhaseState(y1, mu1, 0.0))
    assert (y2[0], mu2[0]) == (-1.0, 0.0)


def test_quarter_turn_is_symplectic():
    _, spec = rotation_example()
    defect = symplectic_test(spec, PhaseState([0.4], [-1.1], 0.0))
    assert defect < 1e-9


def test_time_part_never_touches_the_images():
    cf, spec = rotation_example(u_t=lambda t: 0.5 * t * t)
    y, mu = apply_map(spec, PhaseState([2.0], [3.0], 1.7))
    assert (y[0], mu[0]) == (3.0, -2.0)
    s = PhaseState([1.0], [1.0], 1.5)
    assert cf.ut_at(s) == pytest.approx(1.5, rel=1e-8)
    assert cf.u_at(s) == pytest.approx(1.0 + 0.5 * 1.5 ** 2)


def test_quarter_turn_higher_dim():
    _, spec = rotation_example(dim=3)
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


def unit_problem():
    return StraighteningProblem(c=[1.0], a=[1.0], h=1.0, y0=[0.0], lam_b=0.0)


def test_zero_forcing_gives_zero_solution():
    sol = straightening_solve(unit_problem(), scalar_system(),
                              lambda x, lam: 0.0,
                              np.linspace(-1, 1, 5), np.linspace(0, 2, 41))
    assert np.all(sol.U == 0.0)
    assert sol.residual_check() == 0.0


def test_unit_forcing_exponential_solution():
    lam_grid = np.linspace(0.0, 2.0, 101)
    sol = straightening_solve(unit_problem(), scalar_system(),
                              lambda x, lam: 1.0,
                              np.array([0.0, 0.5]), lam_grid)
    exact = 1.0 - np.exp(-lam_grid)
    assert np.max(np.abs(sol.U - exact[None, :])) < 1e-9
    assert sol.evaluate(0.0, 1.0) == pytest.approx(1.0 - 1.0 / np.e, abs=1e-9)
    assert sol.residual_check() < 1e-8


def test_off_grid_evaluation_and_ulam():
    lam_grid = np.linspace(0.0, 2.0, 101)
    sol = straightening_solve(unit_problem(), scalar_system(),
                              lambda x, lam: 1.0,
                              np.array([0.0]), lam_grid)
    # x off the grid: integrated from the boundary, same lam profile
    assert sol.evaluate(0.37, 0.63) == pytest.approx(1.0 - np.exp(-0.63),
                                                     abs=1e-9)
    # U_lam recovered from the equation itself
    assert sol.ulam(0.0, 1.25) == pytest.approx(np.exp(-1.25), abs=1e-9)


def test_degenerate_multiplier_flag():
    prob = StraighteningProblem(c=[0.0], a=[2.0], h=0.0, y0=[1.0], lam_b=0.0)
    sol = straightening_solve(prob, scalar_system(),
                              lambda x, lam: x + lam,
                              np.array([0.5]), np.linspace(0, 1, 11))
    assert sol.degenerate
    assert sol.U[0, 3] == 0.5 + 0.3
    assert sol.residual_check() == 0.0
    with pytest.raises(ValueError, match="not determined"):
        sol.ulam(0.5, 0.3)


def test_problem_and_grid_validation():
    with pytest.raises(ValueError, match="inconsistent targets"):
        StraighteningProblem(c=[1.0], a=[2.0], h=1.0, y0=[0.0], lam_b=0.0)
    with pytest.raises(ValueError, match="share one dimension"):
        StraighteningProblem(c=[1.0, 2.0], a=[2.0], h=2.0, y0=[0.0], lam_b=0.0)
    prob = unit_problem()
    with pytest.raises(ValueError, match="strictly increasing"):
        straightening_solve(prob, scalar_system(), lambda x, lam: 1.0,
                            np.array([0.0]), np.array([0.0, 0.5, 0.4]))
    with pytest.raises(ValueError, match="strictly increasing"):
        straightening_solve(prob, scalar_system(), lambda x, lam: 1.0,
                            np.array([0.5, 0.0]), np.array([0.0, 0.5]))
    with pytest.raises(ValueError, match="start at the boundary"):
        straightening_solve(prob, scalar_system(), lambda x, lam: 1.0,
                            np.array([0.0]), np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match=">= 2 nodes"):
        straightening_solve(prob, scalar_system(), lambda x, lam: 1.0,
                            np.array([0.0]), np.array([0.0]))


# ---------------------------------------------------------------------
# batched quadrature against the scalar recursion it replaces
# ---------------------------------------------------------------------

def ref_simpson(g, a, b, tol, depth=48):
    """Scalar adaptive Simpson of g over [a, b] (orientation-aware)."""
    if a == b:
        return 0.0
    fa, fb = g(a), g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return ref_split(g, a, b, fa, fm, fb, whole, tol, depth)


def ref_split(g, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = g(lm)
    frm = g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return (ref_split(g, a, m, fa, flm, fm, left, half, depth - 1)
            + ref_split(g, m, b, fm, frm, fb, right, half, depth - 1))


def ref_U(sol):
    """The solved grid by the scalar column-by-column march."""
    c = float(sol.problem.c[0])
    F = sol.F
    U = np.zeros_like(sol.U)
    for j, xv in enumerate(sol.x_grid):
        if sol.degenerate:
            U[j, :] = [float(F(xv, lv)) for lv in sol.lam_grid]
            continue
        u = 0.0
        for k in range(1, sol.lam_grid.size):
            a_, b_ = float(sol.lam_grid[k - 1]), float(sol.lam_grid[k])
            integral = ref_simpson(lambda s: np.exp(-(b_ - s) / c) * float(F(xv, s)),
                                   a_, b_, _QUAD_TOL)
            u = float(np.exp(-(b_ - a_) / c)) * u + integral / c
            U[j, k] = u
    return U


def ref_evaluate(sol, x, lam):
    """U(x, lam) by one scalar quadrature from the nearest node or lam_b."""
    if sol.degenerate:
        return float(sol.F(x, lam))
    c = float(sol.problem.c[0])
    j = int(np.argmin(np.abs(sol.x_grid - x)))
    if abs(sol.x_grid[j] - x) <= 1e-12 * max(1.0, abs(x)):
        k = int(np.argmin(np.abs(sol.lam_grid - lam)))
        lam_ref, u_ref = float(sol.lam_grid[k]), float(sol.U[j, k])
    else:
        lam_ref, u_ref = sol.problem.lam_b, 0.0
    if lam == lam_ref:
        return u_ref
    integral = ref_simpson(lambda s: np.exp(-(lam - s) / c) * float(sol.F(x, s)),
                           lam_ref, lam, _QUAD_TOL)
    return float(np.exp(-(lam - lam_ref) / c) * u_ref + integral / c)


def ref_residual_check(sol):
    if sol.degenerate:
        return 0.0
    c = float(sol.problem.c[0])
    worst = 0.0
    for j, xv in enumerate(sol.x_grid):
        for k, lv in enumerate(sol.lam_grid):
            hi, lo = lv + _RESIDUAL_FD_H, lv - _RESIDUAL_FD_H
            ulam_fd = (ref_evaluate(sol, xv, hi) - ref_evaluate(sol, xv, lo)) / (hi - lo)
            worst = max(worst, abs(float(sol.U[j, k]) + c * ulam_fd - float(sol.F(xv, lv))))
    return worst


@pytest.mark.parametrize("c, F", [
    (0.05, lambda x, lam: 0.05 * (1.0 - x)),          # refines ~90% of the cells
    (1.0, lambda x, lam: np.sin(x) + np.cos(lam)),    # criterion 10's forcing
    (-0.7, lambda x, lam: x * lam + np.exp(-lam)),
    (1.0, lambda x, lam: 1.0),                        # scalar-returning F
    (0.0, lambda x, lam: x + lam),                    # degenerate U = F
])
def test_batched_solution_matches_scalar_recursion_bitwise(c, F):
    lam_b = 0.5
    prob = StraighteningProblem(c=[c], a=[0.0], h=0.0, y0=[0.0], lam_b=lam_b)
    x_grid = np.linspace(-1.0, 1.0, 9)
    sol = straightening_solve(prob, scalar_system(), F, x_grid,
                              lam_b + np.arange(17) / 8.0)
    assert np.array_equal(sol.U, ref_U(sol))
    assert sol.residual_check() == ref_residual_check(sol)
    # on-grid x (from the nearest node) and off-grid x (from lam_b); lam
    # between nodes, behind lam_b, on a node (a zero-width interval),
    # halfway between two nodes (the tie goes to the lower one) and far out
    for x in (x_grid[0], x_grid[4], 0.123, 3.0):
        for lam in (lam_b, lam_b + 0.31, lam_b - 0.4, sol.lam_grid[7],
                    lam_b + 7.0 / 16.0, 5.0):
            assert sol.evaluate(x, lam) == ref_evaluate(sol, x, lam)


def test_batched_simpson_matches_recursion_per_cell():
    # cells refine to different depths, one has zero width, one runs
    # backwards, and a NaN integrand refines down to the depth limit
    a = np.array([0.0, 0.5, 1.0, -0.3, 2.0, 0.0])
    b = np.array([1.0, 0.5, -1.0, 0.7, 2.1, 1.0])
    p = np.array([0.3, 0.0, -0.2, 0.0, 2.05, np.nan])
    ints = lambda i: (lambda s: np.sqrt(np.abs(s - p[i])))
    got = _simpson(lambda s, i: np.sqrt(np.abs(s - p[i])), a, b, 1e-9, depth=12)
    want = [ref_simpson(ints(i), a[i], b[i], 1e-9, depth=12) for i in range(a.size)]
    assert np.array_equal(got, want, equal_nan=True)
    assert got[1] == 0.0


def test_forcing_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError):
        straightening_solve(unit_problem(), scalar_system(), lambda x, lam: np.ones(7),
                            np.array([0.0, 0.5]), np.linspace(0.0, 2.0, 11))


# ---------------------------------------------------------------------
# constant-drift reduction end to end
# ---------------------------------------------------------------------

def test_reduction_frozen_field_is_exact():
    prob = StraighteningProblem(c=[0.7], a=[0.0], h=0.0, y0=[1.5], lam_b=0.7)
    rep = constant_field_reduction(prob, scalar_system(), [0.5], [0.7])
    assert rep.pde_residual_max < 1e-8
    assert rep.ydot_max_err < 1e-6
    assert rep.mu_defect < 1e-6
    assert rep.hj_residual == 0.0
    assert rep.energy_mismatch == 0.0
    assert np.all(rep.f_line == 0.0)
    assert "lam_b=0.7" in rep.boundary_note


def test_reduction_moving_extremal_diagnostics():
    lin = DynamicSystem(dim=1, f=lambda x, t: x,
                        jac=lambda x, t: np.eye(1), autonomous=True)
    prob = StraighteningProblem(c=[0.5], a=[1.0], h=0.5, y0=[2.0], lam_b=0.1)
    rep = constant_field_reduction(prob, lin, [1.0], [0.5])
    # the PDE itself is solved tightly ...
    assert rep.pde_residual_max < 1e-8
    # ... the energy level is consistent, and the line integral accumulates
    # H * t = 0.5 t along the extremal
    assert rep.energy_mismatch < 1e-12
    assert rep.f_line[-1] == pytest.approx(0.5, rel=1e-6)
    # mapped-motion defects are genuinely O(0.1) here: only a frozen field
    # sits entirely on the boundary where the reduction is exact
    assert rep.ydot_max_err < 1.0
    assert rep.mu_defect < 0.5


def test_reduction_rejects_bad_inputs():
    prob = StraighteningProblem(c=[0.5], a=[1.0], h=0.5, y0=[2.0], lam_b=0.1)
    driven = DynamicSystem(dim=1, f=lambda x, t: np.ones(1),
                           jac=lambda x, t: np.zeros((1, 1)), autonomous=False)
    with pytest.raises(ValueError, match="autonomous"):
        constant_field_reduction(prob, driven, [1.0], [0.5])
    # a drive mis-flagged as autonomous produces a turning point, which the
    # line-integral parameterization must refuse
    wobble = DynamicSystem(dim=1, f=lambda x, t: np.array([np.cos(3.0 * t)]),
                           jac=lambda x, t: np.zeros((1, 1)), autonomous=True)
    with pytest.raises(ValueError, match="not monotone"):
        constant_field_reduction(prob, wobble, [1.0], [0.5])

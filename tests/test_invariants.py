"""Symplectic defect, loop integrals, action, HJ residuals, potential."""
import numpy as np
import pytest

from canomap.phasecore import (ControllingFunction, DomainError, DynamicSystem,
                               PhaseState, Trajectory, zero_controlling_function)
from canomap.hamilton import integrate
from canomap.mapping import MappingSpec, canonicity_residual_points
from canomap.invariants import (action_function, circle_loop,
                                controlling_potential, flow_loop,
                                hj_residual_H, hj_residual_U,
                                poincare_cartan_loop, symplectic_test)


def linear_system(a=1.0):
    return DynamicSystem(dim=1, f=lambda x, t: a * x,
                         jac=lambda x, t: a * np.eye(1), autonomous=True)


def null_system(n=1):
    return DynamicSystem(dim=n, f=lambda x, t: np.zeros(n),
                         jac=lambda x, t: np.zeros((n, n)), autonomous=True)


def bilinear_cf(c):
    n = 1
    return ControllingFunction(
        dim=n,
        u=lambda x, lam, t: c * float(x @ lam),
        ux=lambda x, lam, t: c * lam,
        ulam=lambda x, lam, t: c * x,
        ut=lambda x, lam, t: 0.0,
        uxlam=lambda x, lam, t: c * np.eye(n),
        uxx=lambda x, lam, t: np.zeros((n, n)),
        ulamlam=lambda x, lam, t: np.zeros((n, n)),
        uxt=lambda x, lam, t: np.zeros(n),
        ulamt=lambda x, lam, t: np.zeros(n),
    )


# ---------------------------------------------------------------------
# symplectic defect
# ---------------------------------------------------------------------

def test_symplectic_identity_and_rotation_exact():
    s = PhaseState([0.7], [-1.3], 0.0)
    assert symplectic_test(lambda x, lam: (x, lam), s) == 0.0
    assert symplectic_test(lambda x, lam: (lam, -x), s) == 0.0


def test_symplectic_pure_stretch():
    s = PhaseState([0.7], [-1.3], 0.0)
    defect = symplectic_test(lambda x, lam: (2.0 * x, lam), s)
    assert defect == 1.0


def test_symplectic_mapping_spec_defects():
    s = PhaseState([1.0], [2.0], 0.0)
    assert symplectic_test(MappingSpec("Std116", zero_controlling_function(1)),
                           s) == 0.0
    # y = 1.1 x, mu = 0.9 lam: the product of stretches misses 1 by c^2
    d = symplectic_test(MappingSpec("Std116", bilinear_cf(0.1)), s)
    assert d == pytest.approx(0.01, rel=1e-6)
    # half-gradient variant scales both coordinates by 1 + c/2
    d = symplectic_test(MappingSpec("Symplectic119", bilinear_cf(0.1)), s)
    assert d == pytest.approx(1.05 ** 2 - 1.0, rel=1e-6)


def quadratic_cf(p, q, r):
    """U = p x^2/2 + q x lam + r lam^2/2 with exact blocks (n = 1)."""
    E = np.eye(1)
    return ControllingFunction(
        dim=1,
        u=lambda x, lam, t: float(0.5 * p * x @ x + q * x @ lam + 0.5 * r * lam @ lam),
        ux=lambda x, lam, t: p * x + q * lam,
        ulam=lambda x, lam, t: q * x + r * lam,
        ut=lambda x, lam, t: 0.0,
        uxlam=lambda x, lam, t: q * E,
        uxx=lambda x, lam, t: p * E,
        ulamlam=lambda x, lam, t: r * E,
        uxt=lambda x, lam, t: np.zeros(1),
        ulamt=lambda x, lam, t: np.zeros(1),
    )


@pytest.mark.parametrize("pqr, verdict, residual, symplectic", [
    ((0.3, 0.0, 0.0), "canonical", 0.0, 0.0),
    ((0.0, 0.0, 0.3), "violated", 0.42, 0.0),     # the exact shear y = x + r lam
    ((0.0, 0.3, 0.0), "violated", 0.063, 0.09),
])
def test_differential_and_symplectic_routes_can_disagree(pqr, verdict, residual, symplectic):
    # xdot = a x with Std116 and quadratic U: the differential residual is
    # a (p q x^2 + (q^2 - p r) x lam + r (2 - q) lam^2) at every point, so it
    # rejects the shear that symplectic_test accepts.  The cloud's corner
    # (1, 1) is where the scaled residual peaks on [-1, 1]^2.
    a = 0.7
    p, q, r = pqr
    rng = np.random.default_rng(0)
    pts = [PhaseState(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1), rng.uniform(0, 1))
           for _ in range(19)] + [PhaseState([1.0], [1.0], 0.5)]
    spec = MappingSpec("Std116", quadratic_cf(p, q, r))
    rep = canonicity_residual_points(linear_system(a), spec, pts)
    x, lam = np.array([s.x[0] for s in pts]), np.array([s.lam[0] for s in pts])
    closed = a * (p * q * x ** 2 + (q * q - p * r) * x * lam + r * (2 - q) * lam ** 2)
    assert np.max(np.abs(rep.residual_series - closed)) < 1e-12
    assert rep.verdict == verdict
    assert rep.max_residual == pytest.approx(residual, abs=1e-12)
    defect = max(symplectic_test(spec, s) for s in pts)
    assert defect == pytest.approx(symplectic, abs=1e-9)


# ---------------------------------------------------------------------
# loop integrals
# ---------------------------------------------------------------------

def test_loop_drift_null_field_is_zero():
    ens = flow_loop(null_system(), circle_loop(PhaseState([0.0], [0.0], 0.0),
                                               1.0, 16), [1.0], 1e-2)
    assert poincare_cartan_loop(ens) == 0.0


def test_loop_drift_linear_field():
    sysl = linear_system()
    ens = flow_loop(sysl, circle_loop(PhaseState([1.0], [1.0], 0.0), 1.0, 256),
                    [1.0], 1e-2)
    assert poincare_cartan_loop(ens) < 1e-5


def test_loop_vertex_count_gate():
    sysn = null_system()
    ens7 = flow_loop(sysn, circle_loop(PhaseState([0.0], [0.0], 0.0), 1.0, 7),
                     [0.5], 1e-2)
    with pytest.raises(ValueError, match="too coarse"):
        poincare_cartan_loop(ens7)
    ens8 = flow_loop(sysn, circle_loop(PhaseState([0.0], [0.0], 0.0), 1.0, 8),
                     [0.5], 1e-2)
    assert poincare_cartan_loop(ens8) == 0.0


def test_loop_drift_quadratic_convergence():
    syss = DynamicSystem(dim=1, f=lambda x, t: np.sin(x),
                         jac=lambda x, t: np.cos(x).reshape(1, 1),
                         autonomous=True)
    center = PhaseState([1.0], [1.0], 0.0)
    drifts = {}
    for M in (64, 128):
        ens = flow_loop(syss, circle_loop(center, 1.0, M), [1.0], 1e-2)
        drifts[M] = poincare_cartan_loop(ens)
    assert 3.2 < drifts[64] / drifts[128] < 4.8


def test_loop_richardson_refinement():
    syss = DynamicSystem(dim=1, f=lambda x, t: np.sin(x),
                         jac=lambda x, t: np.cos(x).reshape(1, 1),
                         autonomous=True)
    ens = flow_loop(syss, circle_loop(PhaseState([1.0], [1.0], 0.0), 1.0, 64),
                    [1.0], 1e-2)
    plain = poincare_cartan_loop(ens)
    refined = poincare_cartan_loop(ens, richardson=True)
    assert refined < plain / 50.0
    odd = flow_loop(syss, circle_loop(PhaseState([1.0], [1.0], 0.0), 1.0, 9),
                    [1.0], 1e-2)
    with pytest.raises(ValueError, match="even vertex count"):
        poincare_cartan_loop(odd, richardson=True)


def _driven_sine(vectorized):
    """xdot = sin(x) + 0.3 t (n=1), scalar or vectorized callbacks."""
    if vectorized:
        return DynamicSystem(dim=1, f=lambda X, t: np.sin(X) + 0.3 * t,
                             jac=lambda X, t: np.cos(X)[:, :, None],
                             ft=lambda X, t: np.full_like(X, 0.3), vectorized=True)
    return DynamicSystem(dim=1, f=lambda x, t: np.sin(x) + 0.3 * t,
                         jac=lambda x, t: np.cos(x).reshape(1, 1),
                         ft=lambda x, t: np.full(1, 0.3))


def _coupled_plane(vectorized):
    """A nonlinear driven field in the plane (n=2)."""
    if vectorized:
        return DynamicSystem(
            dim=2,
            f=lambda X, t: np.stack([X[:, 0] * X[:, 1] - t, np.sin(X[:, 0])], axis=1),
            jac=lambda X, t: np.stack([
                np.stack([X[:, 1], X[:, 0]], axis=1),
                np.stack([np.cos(X[:, 0]), np.zeros(len(X))], axis=1)], axis=1),
            vectorized=True)
    return DynamicSystem(
        dim=2,
        f=lambda x, t: np.array([x[0] * x[1] - t, np.sin(x[0])]),
        jac=lambda x, t: np.array([[x[1], x[0]], [np.cos(x[0]), 0.0]]))


def _shear_plane():
    """A linear vectorized field whose jac is one (n, n) array, broadcast."""
    A = np.array([[0.3, -1.1], [0.7, 0.2]])
    return DynamicSystem(
        dim=2,
        f=lambda X, t: np.stack([A[0, 0] * X[:, 0] + A[0, 1] * X[:, 1],
                                 A[1, 0] * X[:, 0] + A[1, 1] * X[:, 1]], axis=1),
        jac=lambda X, t: A, autonomous=True, vectorized=True)


def _plane_loop(M):
    theta = 2.0 * np.pi * np.arange(M) / M
    verts = [PhaseState([0.4 + 0.5 * np.cos(a), -0.2 + 0.3 * np.sin(a)],
                        [1.0 - 0.2 * np.sin(a), 0.5 + 0.4 * np.cos(2 * a)], 0.1)
             for a in theta]
    return tuple(verts + [verts[0]])


@pytest.mark.parametrize("system, loop", [
    (_driven_sine(False), circle_loop(PhaseState([1.0], [0.5], 0.1), 0.7, 12)),
    (_driven_sine(True), circle_loop(PhaseState([1.0], [0.5], 0.1), 0.7, 12)),
    (_coupled_plane(False), _plane_loop(10)),
    (_coupled_plane(True), _plane_loop(10)),
    (_shear_plane(), _plane_loop(10)),
], ids=["n1", "n1-vectorized", "n2", "n2-vectorized", "n2-broadcast-jac"])
def test_flow_loop_matches_per_vertex_integrate_bitwise(system, loop):
    targets = [0.4, 0.85]     # the last step of each march is shortened
    ens = flow_loop(system, loop, targets, 0.04)
    assert len(ens.flowed) == 2
    for t1, flowed in zip(targets, ens.flowed):
        assert flowed[-1] is flowed[0]
        for v, img in zip(loop[:-1], flowed[:-1]):
            ref = integrate(system, v, t1, 0.04)[-1]
            assert img.t == ref.t == t1
            assert np.array_equal(img.x, ref.x) and np.array_equal(img.lam, ref.lam)


def test_vectorized_flow_loop_calls_f_once_per_stage():
    shapes = []

    def f(X, t):
        shapes.append(X.shape)
        return np.sin(X)
    sysv = DynamicSystem(dim=1, f=f, jac=lambda X, t: np.cos(X)[:, :, None],
                         autonomous=True, vectorized=True)
    flow_loop(sysv, circle_loop(PhaseState([1.0], [0.5], 0.0), 0.7, 16), [0.5], 0.1)
    assert shapes == [(16, 1)] * 4 * 5


def test_flow_loop_wrong_vectorized_shape_raises():
    sysv = DynamicSystem(dim=1, f=lambda X, t: X[:1], jac=lambda X, t: np.eye(1),
                         autonomous=True, vectorized=True)
    with pytest.raises(ValueError, match="vectorized f returned shape"):
        flow_loop(sysv, circle_loop(PhaseState([1.0], [0.5], 0.0), 0.7, 8), [0.5], 0.1)


def test_flow_loop_vertex_blowup_is_a_domain_error():
    # the centre stays below the 1e12 guard; the outermost vertices cross it
    loop = circle_loop(PhaseState([0.01], [1.0], 0.0), 0.5, 16)
    with pytest.raises(DomainError, match="loop flow truncated at t="):
        flow_loop(linear_system(), loop, [29.0], 0.01)
    assert integrate(linear_system(), loop[0], 29.0, 0.01).meta["truncated"]
    assert not integrate(linear_system(), PhaseState([0.01], [1.0], 0.0),
                         29.0, 0.01).meta


def test_flow_loop_validates_loop_step_and_targets():
    loop = circle_loop(PhaseState([1.0], [1.0], 0.5), 1.0, 8)
    with pytest.raises(ValueError, match="not closed"):
        flow_loop(linear_system(), loop[:-1], [1.0], 0.1)
    late = PhaseState(loop[3].x, loop[3].lam, 0.6)
    with pytest.raises(ValueError, match="common time"):
        flow_loop(linear_system(), loop[:3] + (late,) + loop[4:], [1.0], 0.1)
    with pytest.raises(ValueError, match="step must be positive"):
        flow_loop(linear_system(), loop, [1.0], 0.0)
    with pytest.raises(ValueError, match="t1 must exceed"):
        flow_loop(linear_system(), loop, [0.5], 0.1)


def test_circle_loop_validated():
    with pytest.raises(ValueError, match="n=1"):
        circle_loop(PhaseState([0.0, 0.0], [0.0, 0.0], 0.0), 1.0, 16)
    with pytest.raises(ValueError, match="3 vertices"):
        circle_loop(PhaseState([0.0], [0.0], 0.0), 1.0, 2)


# ---------------------------------------------------------------------
# action function
# ---------------------------------------------------------------------

def test_action_vanishes_on_extremal():
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0), 1.0, 1e-3)
    rec = action_function(linear_system(), traj)
    assert rec.S == 0.0
    assert rec.hj_residual == 0.0


def test_action_increments_null_field():
    traj = integrate(null_system(), PhaseState([2.0], [5.0], 0.0), 1.0, 1e-2)
    rec = action_function(null_system(), traj)
    assert np.all(rec.dS_series == 0.0)
    assert rec.S == 0.0


def test_action_evaluates_the_field_once_per_sample():
    calls = {"f": 0, "jac": 0}

    def f(x, t):
        calls["f"] += 1
        return -0.5 * x

    def jac(x, t):
        calls["jac"] += 1
        return -0.5 * np.eye(1)

    sys_ = DynamicSystem(dim=1, f=f, jac=jac, autonomous=True)
    traj = integrate(sys_, PhaseState([1.0], [2.0], 0.0), 0.5, 1e-2)
    calls.update(f=0, jac=0)
    action_function(sys_, traj)
    assert calls == {"f": len(traj), "jac": 0}


def test_action_rejects_non_finite_hamiltonian():
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0), 0.1, 1e-2)
    blown = DynamicSystem(dim=1, f=lambda x, t: np.array([np.inf]),
                          jac=lambda x, t: np.zeros((1, 1)), autonomous=True)
    with pytest.raises(DomainError, match="non-finite Hamiltonian"):
        action_function(blown, traj)


def test_action_increments_track_lam_dx():
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0), 1.0, 1e-2)
    rec = action_function(linear_system(), traj)
    # each increment is lam dx - H dt ~ (1 - 1) dt at midpoint accuracy
    assert np.max(np.abs(rec.dS_series)) < 1e-5


# ---------------------------------------------------------------------
# Hamilton-Jacobi residuals
# ---------------------------------------------------------------------

def drive_cf(a):
    """U = a * lam * t for n=1."""
    return ControllingFunction(
        dim=1,
        u=lambda x, lam, t: a * float(lam[0]) * t,
        ux=lambda x, lam, t: np.zeros(1),
        ulam=lambda x, lam, t: np.array([a * t]),
        ut=lambda x, lam, t: a * float(lam[0]),
        uxlam=lambda x, lam, t: np.zeros((1, 1)),
        uxx=lambda x, lam, t: np.zeros((1, 1)),
        ulamlam=lambda x, lam, t: np.zeros((1, 1)),
        uxt=lambda x, lam, t: np.zeros(1),
        ulamt=lambda x, lam, t: np.array([a]),
    )


def test_hj_image_side_matches_new_hamiltonian():
    a = 0.4
    cf = drive_cf(a)
    spec = MappingSpec("Std116", cf)
    points = [PhaseState([x], [lam], t)
              for x, lam, t in [(1.0, 2.0, 0.0), (-0.5, 0.3, 0.7), (2.0, -1.0, 1.5)]]
    res = hj_residual_U(cf, lambda y, mu, t: a * mu[0], spec, points)
    assert res.max_residual == 0.0


def test_hj_image_side_constant_drive():
    cf = ControllingFunction(
        dim=1,
        u=lambda x, lam, t: t,
        ux=lambda x, lam, t: np.zeros(1),
        ulam=lambda x, lam, t: np.zeros(1),
        ut=lambda x, lam, t: 1.0,
        uxlam=lambda x, lam, t: np.zeros((1, 1)),
        uxx=lambda x, lam, t: np.zeros((1, 1)),
        ulamlam=lambda x, lam, t: np.zeros((1, 1)),
        uxt=lambda x, lam, t: np.zeros(1),
        ulamt=lambda x, lam, t: np.zeros(1),
    )
    res = hj_residual_U(cf, lambda y, mu, t: 0.0,
                        MappingSpec("Std116", cf),
                        [PhaseState([1.0], [1.0], 0.5)])
    assert res.max_residual == 1.0


def test_hj_image_side_validated():
    cf = drive_cf(0.4)
    with pytest.raises(ValueError, match="Std116"):
        hj_residual_U(cf, lambda y, mu, t: 0.0, MappingSpec("Cross220", cf),
                      [PhaseState([1.0], [1.0], 0.0)])
    with pytest.raises(ValueError, match="nonempty"):
        hj_residual_U(cf, lambda y, mu, t: 0.0, MappingSpec("Std116", cf), [])


def test_hj_old_side_exact_solution():
    # U = -lam x t satisfies U_t = -lam f for f = x at every point
    cf = ControllingFunction(
        dim=1,
        u=lambda x, lam, t: -float(lam[0] * x[0]) * t,
        ux=lambda x, lam, t: np.array([-lam[0] * t]),
        ulam=lambda x, lam, t: np.array([-x[0] * t]),
        ut=lambda x, lam, t: -float(lam[0] * x[0]),
        uxlam=lambda x, lam, t: np.array([[-t]]),
        uxx=lambda x, lam, t: np.zeros((1, 1)),
        ulamlam=lambda x, lam, t: np.zeros((1, 1)),
        uxt=lambda x, lam, t: np.array([-lam[0]]),
        ulamt=lambda x, lam, t: np.array([-x[0]]),
    )
    points = [PhaseState([x], [lam], t)
              for x, lam, t in [(1.0, 1.0, 0.0), (2.0, -0.5, 1.0), (0.3, 4.0, 2.5)]]
    res = hj_residual_H(cf, linear_system(), points)
    assert res.max_residual == 0.0
    assert np.all(res.series == 0.0)


def test_hj_residual_H_rejects_non_finite_hamiltonian():
    blown = DynamicSystem(dim=1, f=lambda x, t: np.array([np.inf]),
                          jac=lambda x, t: np.zeros((1, 1)), autonomous=True)
    with pytest.raises(DomainError, match="non-finite Hamiltonian"):
        hj_residual_H(zero_controlling_function(1), blown, [PhaseState([1.0], [1.0], 0.0)])


def test_hj_old_side_energy_form():
    # freezing U_t at -H(0) leaves exactly the energy drift as residual
    sysl = linear_system()
    traj = integrate(sysl, PhaseState([1.0], [2.0], 0.0), 1.0, 1e-3)
    h0 = 2.0
    cf = ControllingFunction(
        dim=1,
        u=lambda x, lam, t: -h0 * t,
        ux=lambda x, lam, t: np.zeros(1),
        ulam=lambda x, lam, t: np.zeros(1),
        ut=lambda x, lam, t: -h0,
        uxlam=lambda x, lam, t: np.zeros((1, 1)),
        uxx=lambda x, lam, t: np.zeros((1, 1)),
        ulamlam=lambda x, lam, t: np.zeros((1, 1)),
        uxt=lambda x, lam, t: np.zeros(1),
        ulamt=lambda x, lam, t: np.zeros(1),
    )
    res = hj_residual_H(cf, sysl, list(traj))
    assert res.max_residual < 1e-8


# ---------------------------------------------------------------------
# controlling potential
# ---------------------------------------------------------------------

def test_potential_identity_pair_exact_zero():
    sysl = linear_system()
    traj = integrate(sysl, PhaseState([1.0], [1.0], 0.0), 1.0, 1e-2)
    series = controlling_potential(sysl, sysl, traj, traj)
    assert np.all(series == 0.0)


def test_potential_straightened_pair():
    # old motion x = e^t with lam = 0.5 e^{-t}; image y = y0 + t, mu = 0.5
    sys_old = linear_system()
    traj_old = integrate(sys_old, PhaseState([1.0], [0.5], 0.0), 1.0, 1e-3)
    sys_new = DynamicSystem(dim=1, f=lambda x, t: np.ones(1),
                            jac=lambda x, t: np.zeros((1, 1)), autonomous=True)
    y0, c = 2.0, 0.5
    ts = traj_old.t
    traj_new = Trajectory(ts, y0 + ts[:, None], np.full((ts.size, 1), c), traj_old.step)
    series = controlling_potential(sys_old, sys_new, traj_old, traj_new)
    assert np.max(np.abs(series)) < 1e-12
    # cross-check against the action gap computed the long way:
    # cum int lam dx minus c (y - y0), both ~ 0.5 t here
    xs = traj_old.x[:, 0]
    lams = traj_old.lam[:, 0]
    lam_dx = np.concatenate([[0.0],
                             np.cumsum(0.5 * (lams[1:] + lams[:-1]) * np.diff(xs))])
    gap = lam_dx - c * (traj_new.x[:, 0] - y0)
    assert np.max(np.abs(series - gap)) < 1e-6


def test_potential_mismatched_grids():
    sysl = linear_system()
    traj = integrate(sysl, PhaseState([1.0], [1.0], 0.0), 1.0, 1e-2)
    short = integrate(sysl, PhaseState([1.0], [1.0], 0.0), 0.5, 1e-2)
    with pytest.raises(ValueError, match="mismatched grids"):
        controlling_potential(sysl, sysl, traj, short)
    shifted = Trajectory(traj.t + 1e-3, traj.x, traj.lam, traj.step)
    with pytest.raises(ValueError, match="mismatched grids"):
        controlling_potential(sysl, sysl, traj, shifted)

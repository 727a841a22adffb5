"""Core types: construction rules, FD fallbacks, derivative verification."""
import numpy as np
import pytest

from canomap.phasecore import (ControllingFunction, DynamicSystem, PhaseState,
                               Trajectory, _central_diff_t, _central_diff_x,
                               verify_derivatives, zero_controlling_function)


def linear_system(n=1, a=1.0):
    return DynamicSystem(dim=n, f=lambda x, t: a * x,
                         jac=lambda x, t: a * np.eye(n), autonomous=True)


def quadratic_cf():
    """U = lam^2/2 - x^2/2 + lam.x with analytic first derivatives."""
    return ControllingFunction(
        1,
        u=lambda x, lam, t: 0.5 * lam[0] ** 2 - 0.5 * x[0] ** 2 + lam[0] * x[0],
        ux=lambda x, lam, t: lam - x,
        ulam=lambda x, lam, t: lam + x,
        ut=lambda x, lam, t: 0.0,
        uxlam=lambda x, lam, t: np.eye(1),
    )


def random_states(n, count, seed=0, t_range=(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    return [PhaseState(rng.uniform(-2.0, 2.0, size=n),
                       rng.uniform(-2.0, 2.0, size=n),
                       rng.uniform(*t_range)) for _ in range(count)]


# ---------------------------------------------------------------------
# DynamicSystem
# ---------------------------------------------------------------------

def test_linear_field_fd_error_is_zero():
    # central differences of a linear field divide an exact numerator by the
    # exactly rounded step, so the reported error is not just small: it is 0
    report = verify_derivatives(linear_system(), random_states(1, 10))
    assert report.ok
    assert report.blocks["jac"] == 0.0
    assert report.blocks["ft"] == 0.0   # autonomous: ft must vanish exactly


def test_wrong_jacobian_is_flagged():
    bad = DynamicSystem(dim=1, f=lambda x, t: x ** 2,
                        jac=lambda x, t: np.array([[1.0]]), autonomous=True)
    report = verify_derivatives(bad, [PhaseState([3.0], [0.0], 0.0)])
    # FD reference is 6; supplied 1 -> |6-1|/6
    assert report.blocks["jac"] == pytest.approx(5.0 / 6.0, abs=1e-8)
    assert "jac" in report.failing
    assert not report.ok


def test_quadratic_field_fd_accuracy():
    # degree-2 components: FD truncation vanishes, only rounding remains
    def f(x, t):
        return np.array([x[0] ** 2 + 0.5 * x[1], x[0] * x[1] - 1.0])

    def jac(x, t):
        return np.array([[2.0 * x[0], 0.5], [x[1], x[0]]])

    sysq = DynamicSystem(dim=2, f=f, jac=jac, autonomous=True)
    report = verify_derivatives(sysq, random_states(2, 10, seed=3))
    assert report.blocks["jac"] < 1e-8


def test_verify_derivatives_pure():
    pts = random_states(1, 5, seed=7)
    r1 = verify_derivatives(linear_system(), pts)
    r2 = verify_derivatives(linear_system(), pts)
    assert r1.blocks == r2.blocks
    assert r1.failing == r2.failing


def test_nonfinite_value_names_the_point():
    def f(x, t):
        return np.where(x > 0.0, x, np.nan)

    broken = DynamicSystem(dim=1, f=f, autonomous=True)
    with pytest.raises(ValueError, match="non-finite"):
        verify_derivatives(broken, [PhaseState([-1.0], [0.0], 0.0)])


def test_fd_backed_jacobian_marked():
    nojac = DynamicSystem(dim=1, f=lambda x, t: np.sin(x), autonomous=True)
    assert "jac" in nojac.fd_backed
    report = verify_derivatives(nojac, random_states(1, 5))
    assert "jac" in report.fd_backed
    assert report.ok  # FD against FD agrees trivially


def test_dimension_mismatch_rejected_early():
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_derivatives(linear_system(n=2), [PhaseState([1.0], [1.0], 0.0)])


def test_dim_must_be_positive():
    with pytest.raises(ValueError):
        DynamicSystem(dim=0, f=lambda x, t: x)


def test_vectorized_system_needs_analytic_jacobian():
    with pytest.raises(ValueError, match="vectorized system must supply jac"):
        DynamicSystem(dim=1, f=lambda X, t: X, vectorized=True)


def test_vectorized_single_state_calls():
    sysv = DynamicSystem(dim=2, f=lambda X, t: X[:, ::-1] * t,
                         jac=lambda X, t: t * np.array([[0.0, 1.0], [1.0, 0.0]]),
                         ft=lambda X, t: X[:, ::-1], vectorized=True)
    assert np.array_equal(sysv.f_at([1.0, 2.0], 3.0), [6.0, 3.0])
    assert np.array_equal(sysv.jac_at([1.0, 2.0], 3.0), [[0.0, 3.0], [3.0, 0.0]])
    assert np.array_equal(sysv.ft_at([1.0, 2.0], 3.0), [2.0, 1.0])
    assert verify_derivatives(sysv, random_states(2, 5)).ok
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(sysv.f_rows(X, 1.0), X[:, ::-1])
    assert sysv.jac_rows(X, 1.0).shape == (3, 2, 2)  # (n, n) is broadcast


def test_vectorized_wrong_shapes_rejected():
    X = np.zeros((3, 2))
    bad_f = DynamicSystem(dim=2, f=lambda X, t: X.sum(axis=1),
                          jac=lambda X, t: np.zeros((2, 2)), vectorized=True)
    with pytest.raises(ValueError, match=r"vectorized f returned shape \(3,\)"):
        bad_f.f_rows(X, 0.0)
    bad_jac = DynamicSystem(dim=2, f=lambda X, t: X,
                            jac=lambda X, t: np.zeros((3, 4)), vectorized=True)
    with pytest.raises(ValueError, match=r"vectorized jac returned shape \(3, 4\)"):
        bad_jac.jac_rows(X, 0.0)


def test_row_loop_fallback_matches_single_calls():
    sysn = DynamicSystem(dim=2, f=lambda x, t: np.array([x[0] * x[1], -t * x[0]]),
                         jac=lambda x, t: np.array([[x[1], x[0]], [-t, 0.0]]))
    X = np.array([[1.0, 2.0], [-0.5, 0.25]])
    assert np.array_equal(sysn.f_rows(X, 2.0), [sysn.f_at(x, 2.0) for x in X])
    assert np.array_equal(sysn.jac_rows(X, 2.0), [sysn.jac_at(x, 2.0) for x in X])


def test_rtol_and_points_validated():
    with pytest.raises(ValueError):
        verify_derivatives(linear_system(), [])
    with pytest.raises(ValueError):
        verify_derivatives(linear_system(), random_states(1, 1), rtol=0.0)
    with pytest.raises(TypeError):
        verify_derivatives(object(), random_states(1, 1))


# ---------------------------------------------------------------------
# PhaseState / Trajectory
# ---------------------------------------------------------------------

def test_phase_state_shape_and_finiteness():
    s = PhaseState([1.0, 2.0], [3.0, 4.0], 0.5)
    assert s.n == 2
    assert np.array_equal(s.z(), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        PhaseState([1.0, 2.0], [3.0], 0.0)
    with pytest.raises(ValueError):
        PhaseState([np.inf], [0.0], 0.0)
    with pytest.raises(ValueError):
        PhaseState([0.0], [0.0], np.nan)


def test_trajectory_requires_increasing_times():
    traj = Trajectory([0.0, 1.0], [[0.0], [1.0]], [[0.0], [0.0]], 1.0)
    assert len(traj) == 2
    assert np.array_equal(traj.t, [0.0, 1.0])
    assert traj.x.shape == traj.lam.shape == (2, 1)
    for t in ([1.0, 0.0], [1.0, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(t, [[0.0], [1.0]], [[0.0], [0.0]], 1.0)


@pytest.mark.parametrize("t, x, lam", [
    ([[0.0, 1.0]], [[0.0], [1.0]], [[0.0], [0.0]]),    # 2-d t
    ([0.0, 1.0], [0.0, 1.0], [0.0, 0.0]),              # 1-d x and lam
    ([0.0, 1.0], [[0.0], [1.0]], [[0.0, 0.0], [0.0, 0.0]]),  # lam wider than x
    ([0.0, 1.0, 2.0], [[0.0], [1.0]], [[0.0], [0.0]]),  # more times than states
    ([0.0, 1.0], np.zeros((2, 0)), np.zeros((2, 0))),  # n = 0
], ids=["t-2d", "x-1d", "lam-mismatch", "t-longer", "n-zero"])
def test_trajectory_rejects_bad_shapes(t, x, lam):
    with pytest.raises(ValueError, match="expected t"):
        Trajectory(t, x, lam, 1.0)


def test_trajectory_needs_a_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        Trajectory([], np.zeros((0, 2)), np.zeros((0, 2)), 1.0)


@pytest.mark.parametrize("column", ["t", "x", "lam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_rejects_non_finite_entries(column, bad):
    arrays = {"t": np.array([0.0, 1.0]), "x": np.zeros((2, 2)), "lam": np.ones((2, 2))}
    arrays[column][-1, ...] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(arrays["t"], arrays["x"], arrays["lam"], 1.0)


def test_trajectory_samples_on_demand_and_read_only():
    t, x, lam = np.array([0.0, 0.5, 1.0]), np.arange(6.0).reshape(3, 2), -np.ones((3, 2))
    traj = Trajectory(t, x, lam, 0.5)
    end = traj[-1]
    assert isinstance(end, PhaseState) and type(end.t) is float
    assert end.t == 1.0 and np.array_equal(end.x, [4.0, 5.0]) and end.lam.shape == (2,)
    assert [s.t for s in traj] == [0.0, 0.5, 1.0]
    with pytest.raises(IndexError):
        traj[3]
    with pytest.raises(TypeError):   # a slice would give a PhaseState with 2-d x
        traj[0:2]
    for column in (traj.t, traj.x, traj.lam):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 7.0
    # the caller's arrays are copied, not frozen
    x[0, 0] = 9.0
    t[0] = -1.0
    assert traj.x[0, 0] == 0.0 and traj.t[0] == 0.0


# ---------------------------------------------------------------------
# ControllingFunction
# ---------------------------------------------------------------------

def test_quadratic_cf_passes_verification():
    report = verify_derivatives(quadratic_cf(), random_states(1, 10, seed=1),
                                rtol=1e-5)
    assert report.ok
    assert set(report.blocks) == {"ux", "ulam", "ut", "uxlam"}


def test_fd_fallback_approximates_derivatives():
    cf = ControllingFunction(
        1, u=lambda x, lam, t: x[0] * lam[0] ** 2 + t * x[0])
    s = PhaseState([0.7], [1.3], 0.4)
    assert {"ux", "ulam", "ut", "uxlam"} <= set(cf.fd_backed)
    assert cf.ux_at(s)[0] == pytest.approx(1.3 ** 2 + 0.4, rel=1e-8)
    assert cf.ulam_at(s)[0] == pytest.approx(2 * 0.7 * 1.3, rel=1e-8)
    assert cf.ut_at(s) == pytest.approx(0.7, rel=1e-8)
    assert cf.uxlam_at(s)[0, 0] == pytest.approx(2 * 1.3, rel=1e-4)
    report = verify_derivatives(cf, [s])
    assert report.ok


def _wavy_u(x, lam, t):
    """U = sin(x).lam + cos(t) |x*lam|^2, nonlinear in every argument."""
    return float(np.sin(x) @ lam + np.cos(t) * float((x * x) @ (lam * lam)))


@pytest.mark.parametrize("analytic_first", [False, True], ids=["u-only", "analytic-ux-ulam"])
def test_fd_rule_pinned_bitwise(analytic_first):
    # every fallback is the central difference of its source block in one
    # argument: first blocks of u with step 1e-6, second blocks of the
    # installed first blocks with h2 = 1e-4 when ux or ulam is FD-backed
    given = {}
    if analytic_first:
        given = dict(
            ux=lambda x, lam, t: np.cos(x) * lam + 2.0 * np.cos(t) * x * lam * lam,
            ulam=lambda x, lam, t: np.sin(x) + 2.0 * np.cos(t) * x * x * lam)
    cf = ControllingFunction(2, _wavy_u, **given)
    second = {"uxlam", "uxx", "ulamlam", "uxt", "ulamt"}
    assert cf.fd_backed == frozenset({"ux", "ulam", "ut"} - set(given)) | second
    h2 = 1e-6 if analytic_first else 1e-4
    x, lam, t = np.array([0.3, -1.2]), np.array([0.8, 2.5]), 0.7
    u = _wavy_u
    expected = {
        "ux": _central_diff_x(lambda v: u(v, lam, t), x, 1e-6),
        "ulam": _central_diff_x(lambda v: u(x, v, t), lam, 1e-6),
        "ut": float(_central_diff_t(lambda v: u(x, lam, v), t, 1e-6)),
        "uxlam": _central_diff_x(lambda v: cf.ux(x, v, t), lam, h2),
        "uxx": _central_diff_x(lambda v: cf.ux(v, lam, t), x, h2),
        "ulamlam": _central_diff_x(lambda v: cf.ulam(x, v, t), lam, h2),
        "uxt": _central_diff_t(lambda v: cf.ux(x, lam, v), t, h2),
        "ulamt": _central_diff_t(lambda v: cf.ulam(x, lam, v), t, h2),
    }
    for block in cf.fd_backed:
        got = getattr(cf, block)(x, lam, t)
        assert np.array_equal(got, expected[block]), block
        assert np.shape(got) == np.shape(expected[block]), block
    assert type(cf.ut(x, lam, t)) is float
    for block, f in given.items():
        assert np.array_equal(getattr(cf, block)(x, lam, t), f(x, lam, t))


def test_zero_controlling_function_exact():
    cf = zero_controlling_function(2)
    s = PhaseState([1.0, -2.0], [0.5, 3.0], 0.2)
    assert cf.u_at(s) == 0.0
    assert np.array_equal(cf.ux_at(s), np.zeros(2))
    assert np.array_equal(cf.ulam_at(s), np.zeros(2))
    assert cf.ut_at(s) == 0.0
    assert np.array_equal(cf.uxlam_at(s), np.zeros((2, 2)))
    assert cf.fd_backed == frozenset()


def test_cf_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_derivatives(quadratic_cf(), [PhaseState([1.0, 1.0], [1.0, 1.0], 0.0)])

"""Every RK4 march (integrate, flow_loop, fundamental_matrix) takes its
right-hand side from one stage kernel, hamilton._stage.  These tests pin the
kernel to the lift written out from the public single-state calls,
(f_at, (-jac_at^T) lam), marched by a test-local classical RK4, and pin how
many times a march calls the system's f and jac."""
import dataclasses

import numpy as np
import pytest

from canomap import hamilton
from canomap.hamilton import _grid, canonical_rhs, fundamental_matrix, integrate
from canomap.invariants import circle_loop, flow_loop
from canomap.phasecore import DomainError, DynamicSystem, PhaseState, Trajectory
from canomap.scenarios import ballistic_system

T1, STEP = 0.5, 0.05
S0 = PhaseState([0.4, -0.3], [1.0, 0.5], 0.0)
A = np.array([[0.3, -1.1], [0.7, 0.2]])


def _ref_lift(sys):
    n = sys.dim
    return lambda z, t: np.concatenate((sys.f_at(z[:n], t), (-sys.jac_at(z[:n], t).T) @ z[n:]))


def _ref_matrix(sys, mdot):
    n = sys.dim
    return lambda z, t: np.concatenate(
        (sys.f_at(z[:n], t), mdot(sys.jac_at(z[:n], t), z[n:].reshape(n, n)).ravel()))


def _ref_march(rhs, z0, times):
    """Classical RK4 over times: (samples, first stages, t of a DomainError or None)."""
    t, z = times[0], np.array(z0, dtype=float)
    zs, ks = [z], []
    for t_next in times[1:]:
        h = t_next - t
        try:
            k1 = rhs(z, t)
            k2 = rhs(z + 0.5 * h * k1, t + 0.5 * h)
            k3 = rhs(z + 0.5 * h * k2, t + 0.5 * h)
            k4 = rhs(z + h * k3, t_next)
        except DomainError:
            return np.array(zs), np.array(ks), t
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t_next
        zs.append(z)
        ks.append(k1)
    return np.array(zs), np.array(ks), None


def _field(x, t):
    return [x[1] + 0.1 * t * x[0], -np.sin(x[0]) - 0.2 * x[1]]


def _jac(x, t):
    return [[0.1 * t, 1.0], [-np.cos(x[0]), -0.2]]


def _undefined_mid_step(x, t):
    # raises only at the half-step time of the step from t = 0.3
    if 0.32 < t < 0.34:
        raise DomainError(f"no field at t={t}")
    return np.array(_field(x, t))


def _linear_rows(X, t):
    return np.stack([A[0, 0] * X[:, 0] + A[0, 1] * X[:, 1],
                     A[1, 0] * X[:, 0] + A[1, 1] * X[:, 1]], axis=1)


SYSTEMS = {
    "list": lambda: DynamicSystem(dim=2, f=_field, jac=_jac),
    "column": lambda: DynamicSystem(dim=2, f=lambda x, t: np.array(_field(x, t))[:, None],
                                    jac=lambda x, t: np.array(_jac(x, t)).reshape(4, 1)),
    "fd-jac": lambda: DynamicSystem(dim=2, f=_field),
    "vectorized-constant-jac": lambda: DynamicSystem(dim=2, f=_linear_rows, jac=lambda X, t: A,
                                                     autonomous=True, vectorized=True),
    "domain-error-mid-step": lambda: DynamicSystem(dim=2, f=_undefined_mid_step, jac=_jac),
}


def _loop(M=6):
    theta = 2.0 * np.pi * np.arange(M) / M
    verts = [PhaseState([0.4 + 0.5 * np.cos(a), -0.2 + 0.3 * np.sin(a)],
                        [1.0 - 0.2 * np.sin(a), 0.5 + 0.4 * np.cos(2 * a)], 0.0)
             for a in theta]
    return tuple(verts + [verts[0]])


@pytest.mark.parametrize("name", SYSTEMS)
def test_integrate_equals_the_reference_march(name):
    sys_ = SYSTEMS[name]()
    grid = list(_grid(0.0, T1, STEP))
    lift = _ref_lift(sys_)
    zs, ks, t_stop = _ref_march(lift, S0.z(), grid)
    traj = integrate(sys_, S0, T1, STEP)
    assert (t_stop is None) == (name != "domain-error-mid-step")
    if t_stop is not None:
        assert t_stop == 0.3 and traj.meta["t_truncated"] == t_stop
        assert traj.meta["reason"].startswith("no field at t=0.32")
    assert traj.t.tolist() == grid[:len(zs)]
    assert traj.x.tobytes() == zs[:, :2].tobytes()
    assert traj.lam.tobytes() == zs[:, 2:].tobytes()
    K = np.vstack([ks, lift(zs[-1], traj.t[-1])])
    assert traj.xdot.tobytes() == K[:, :2].tobytes()
    assert traj.lamdot.tobytes() == K[:, 2:].tobytes()
    xdot, lamdot = canonical_rhs(sys_, S0)
    assert np.concatenate((xdot, lamdot)).tobytes() == lift(S0.z(), S0.t).tobytes()


@pytest.mark.parametrize("name", SYSTEMS)
def test_flow_loop_equals_the_reference_march(name, monkeypatch):
    sys_ = SYSTEMS[name]()
    loop = _loop()
    refs = [_ref_march(_ref_lift(sys_), v.z(), list(_grid(0.0, T1, STEP))) for v in loop[:-1]]
    if name == "domain-error-mid-step":
        with pytest.raises(DomainError, match=r"^loop flow truncated at t=0\.3 \(no field"):
            flow_loop(sys_, loop, [T1], STEP)
        return
    shapes = []
    mv = hamilton._mv
    monkeypatch.setattr(hamilton, "_mv", lambda J, v: shapes.append(J.shape) or mv(J, v))
    flowed = flow_loop(sys_, loop, [T1], STEP).flowed[0]
    for img, (zs, _, _) in zip(flowed, refs):
        assert img.x.tobytes() == zs[-1, :2].tobytes()
        assert img.lam.tobytes() == zs[-1, 2:].tobytes()
    # a vectorized constant jac is broadcast by the stacked matmul, never copied per row
    assert set(shapes) == {(1, 2, 2) if sys_.vectorized else (6, 2, 2)}


@pytest.mark.parametrize("kind, mdot", [("B", lambda A_, M: -A_.T @ M), ("D", lambda A_, M: A_ @ M)])
@pytest.mark.parametrize("name", SYSTEMS)
def test_fundamental_matrix_equals_the_reference_march(name, kind, mdot):
    sys_ = SYSTEMS[name]()
    grid = list(_grid(0.0, T1, STEP))
    # fundamental_matrix reads only traj's first state and its times
    traj = Trajectory(grid, np.tile(S0.x, (len(grid), 1)), np.tile(S0.lam, (len(grid), 1)))
    zs, _, t_stop = _ref_march(_ref_matrix(sys_, mdot), np.concatenate([S0.x, np.eye(2).ravel()]),
                               grid)
    if t_stop is not None:
        with pytest.raises(DomainError, match="^fundamental matrix integration truncated: no field"):
            fundamental_matrix(sys_, traj, kind)
        return
    assert fundamental_matrix(sys_, traj, kind).values.tobytes() == zs[:, 2:].tobytes()


@pytest.mark.parametrize("bad", [
    DynamicSystem(dim=2, f=lambda x, t: np.ones(3), jac=lambda x, t: np.eye(2)),
    DynamicSystem(dim=2, f=lambda x, t: np.ones(2), jac=lambda x, t: np.eye(3)),
    DynamicSystem(dim=2, f=lambda x, t: [1.0]),
], ids=["f", "jac", "fd-jac-of-f"])
def test_a_wrong_size_raises_the_single_state_value_error(bad):
    with pytest.raises(ValueError) as want:
        bad.f_at(S0.x, 0.0), bad.jac_at(S0.x, 0.0)
    traj = Trajectory([0.0, 0.1], [S0.x, S0.x], [S0.lam, S0.lam])
    for march in (lambda: integrate(bad, S0, T1, STEP),
                  lambda: flow_loop(bad, _loop(), [T1], STEP),
                  lambda: fundamental_matrix(bad, traj),
                  lambda: canonical_rhs(bad, S0)):
        with pytest.raises(ValueError) as got:
            march()
        assert type(got.value) is ValueError and str(got.value) == str(want.value)


def _counted(sys):
    calls = {"f": 0, "jac": 0}

    def f(x, t):
        calls["f"] += 1
        return sys.f(x, t)

    def jac(x, t):
        calls["jac"] += 1
        return sys.jac(x, t)
    return dataclasses.replace(sys, f=f, jac=jac), calls


def test_each_march_calls_f_and_jac_once_per_stage():
    sysb, calls = _counted(ballistic_system(1.0))
    traj = integrate(sysb, PhaseState([0.0, 1.1, 1.0, 0.0], [0.3, -0.2, 0.5, 0.1], 0.0),
                     1.0, 1e-3)
    assert len(traj) - 1 == 1000
    assert calls == {"f": 4001, "jac": 4001}    # 4 stages per step, and the last sample
    calls.update(f=0, jac=0)
    fundamental_matrix(sysb, traj, "D")
    assert calls == {"f": 4000, "jac": 4000}
    linear = DynamicSystem(dim=1, f=lambda x, t: -0.5 * x, jac=lambda x, t: -0.5 * np.eye(1),
                           autonomous=True)
    linear, calls = _counted(linear)
    flow_loop(linear, circle_loop(PhaseState([1.0], [0.5], 0.0), 0.7, 8), [1.0], 0.1)
    assert calls == {"f": 4 * 10 * 8, "jac": 4 * 10 * 8}    # 10 steps of 8 vertices

"""Every RK4 march (integrate, flow_loop, fundamental_matrix) takes its
right-hand side from one stage kernel, hamilton._stage.  These tests pin the
kernel to the lift written out from the public single-state calls,
(f_at, (-jac_at^T) lam), marched by a test-local classical RK4, and pin how
many times a march calls the system's f and jac, or its lift callback."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


def _ballistic_loop(M=6):
    theta = 2.0 * np.pi * np.arange(M) / M
    verts = [PhaseState([0.1 * np.cos(a), 1.1, 1.0 + 0.1 * np.sin(a), 0.0],
                        [0.3, -0.5 + 0.2 * np.sin(a), 0.7, 0.2], 0.0) for a in theta]
    return tuple(verts + [verts[0]])


def _counted(sys):
    """sys with its f, jac and lift (where it has one) counting their calls."""
    calls = {"f": 0, "jac": 0, "lift": 0}

    def counting(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call
    return dataclasses.replace(sys, **{name: counting(name, getattr(sys, name)) for name in calls
                                       if getattr(sys, name) is not None}), calls


def test_each_march_calls_f_and_jac_once_per_stage():
    s0 = PhaseState([0.0, 1.1, 1.0, 0.0], [0.3, -0.2, 0.5, 0.1], 0.0)
    sysb, calls = _counted(ballistic_system(1.0))
    traj = integrate(sysb, s0, 1.0, 1e-3)
    assert len(traj) - 1 == 1000
    # a lifted march: 4 stages per step, and the last sample, one lift call each
    assert calls == {"f": 0, "jac": 0, "lift": 4001}
    calls.update(f=0, jac=0, lift=0)
    fundamental_matrix(sysb, traj, "D")
    assert calls == {"f": 4000, "jac": 4000, "lift": 0}
    unlifted, calls = _counted(dataclasses.replace(ballistic_system(1.0), lift=None))
    integrate(unlifted, s0, 1.0, 1e-3)
    assert calls == {"f": 4001, "jac": 4001, "lift": 0}
    linear = DynamicSystem(dim=1, f=lambda x, t: -0.5 * x, jac=lambda x, t: -0.5 * np.eye(1),
                           autonomous=True)
    linear, calls = _counted(linear)
    flow_loop(linear, circle_loop(PhaseState([1.0], [0.5], 0.0), 0.7, 8), [1.0], 0.1)
    assert calls == {"f": 4 * 10 * 8, "jac": 4 * 10 * 8, "lift": 0}    # 10 steps of 8 vertices
    sysb, calls = _counted(ballistic_system(1.0))
    flow_loop(sysb, _ballistic_loop(), [T1], STEP)
    assert calls == {"f": 0, "jac": 0, "lift": 4 * 10 * 6}


# ---------------------------------------------------------------------
# A system's lift callback in place of f and jac
# ---------------------------------------------------------------------

def _lifted_ref(sys_, z0, grid):
    """The reference march over the jac form of sys_ (its lift unused)."""
    return _ref_march(_ref_lift(dataclasses.replace(sys_, lift=None)), z0, grid)


def _assert_lam_close(lam, ref):
    assert np.max(np.abs(lam - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("x0", [[0.0, 1.1, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
                         ids=["eccentric", "infall"])
def test_a_lifted_march_is_the_reference_march_over_the_jac_form(x0):
    sysb = ballistic_system(1.0)
    s0 = PhaseState(x0, [0.3, -0.5, 0.7, 0.2], 0.0)
    grid = list(_grid(0.0, 2.0, 0.01))
    zs, _, t_stop = _lifted_ref(sysb, s0.z(), grid)
    traj = integrate(sysb, s0, 2.0, 0.01)
    assert traj.x.tobytes() == zs[:, :4].tobytes()
    _assert_lam_close(traj.lam, zs[:, 4:])
    # the radial infall meets the r guard inside a step: the lift's DomainError
    # truncates where f's does, with the same reason
    unlifted = integrate(dataclasses.replace(sysb, lift=None), s0, 2.0, 0.01)
    assert dict(traj.meta) == dict(unlifted.meta)
    assert (t_stop is None) == (x0[1] != 0.0)
    if t_stop is not None:
        assert traj.meta["t_truncated"] == t_stop and "guard" in traj.meta["reason"]


def test_a_lifted_loop_flow_is_the_reference_march_over_the_jac_form():
    sysb = ballistic_system(1.0)
    loop = _ballistic_loop()
    flowed = flow_loop(sysb, loop, [T1], STEP).flowed[0]
    for img, v in zip(flowed, loop):
        zs, _, _ = _lifted_ref(sysb, v.z(), list(_grid(0.0, T1, STEP)))
        assert img.x.tobytes() == zs[-1, :4].tobytes()
        _assert_lam_close(img.lam, zs[-1, 4:])


def test_a_lift_of_the_wrong_size_raises_value_error():
    bad = DynamicSystem(dim=2, f=_field, jac=_jac, lift=lambda x, lam, t: np.ones(3))
    for march in (lambda: integrate(bad, S0, T1, STEP),
                  lambda: flow_loop(bad, _loop(), [T1], STEP)):
        with pytest.raises(ValueError, match=r"^lift returned 3 values, expected 2n = 4$"):
            march()


def _nan_late(x, lam, t):
    """The ballistic lift, with NaN for its last value (lam_4') after t = 0.5."""
    k = ballistic_system(1.0).lift(x, lam, t)
    return k[:-1] + [np.nan] if t > 0.5 else k


def _growth(x, lam, t):
    """The lift of xdot = 50 x, which passes 1e12 near t = 0.55."""
    return [50.0 * x[0], -50.0 * lam[0]]


@pytest.mark.parametrize("sys_, s0, reason", [
    (DynamicSystem(dim=4, f=ballistic_system(1.0).f, lift=_nan_late),
     PhaseState([0.0, 1.1, 1.0, 0.0], [0.3, -0.5, 0.7, 0.2], 0.0), "state magnitude"),
    (DynamicSystem(dim=1, f=lambda x, t: 50.0 * x, lift=_growth),
     PhaseState([1.0], [1.0], 0.0), "state magnitude"),
    (ballistic_system(1.0), PhaseState([0.0, 0.0, 1.0, 0.0], [0.3, -0.5, 0.7, 0.2], 0.0),
     "radius"),
], ids=["nan-in-the-last-value", "blow-up", "r-guard"])
def test_a_lifted_state_marches_in_floats_as_the_array_march(sys_, s0, reason):
    # the array march of the same lift: a stack of one row, as flow_loop marches it
    n, rows = sys_.dim, hamilton._stage(sys_, stack=True)
    ts, zs, diag, ks = hamilton._rk4_path(rows, s0.z()[None], _grid(0.0, 2.0, 0.01))
    traj = integrate(sys_, s0, 2.0, 0.01)
    assert diag is not None and diag["reason"].startswith(reason)
    assert dict(traj.meta) == diag and ts[-1] <= diag["t_truncated"] < 2.0
    assert traj.t.tolist() == ts
    assert traj.x.tobytes() == zs[:, 0, :n].tobytes()
    assert traj.lam.tobytes() == zs[:, 0, n:].tobytes()
    K = np.vstack([ks[:, 0], rows(zs[-1], ts[-1])])
    assert traj.xdot.tobytes() == K[:, :n].tobytes()
    assert traj.lamdot.tobytes() == K[:, n:].tobytes()


def test_a_vectorized_system_takes_no_lift():
    with pytest.raises(ValueError, match="vectorized system takes no lift"):
        DynamicSystem(dim=2, f=_linear_rows, jac=lambda X, t: A, vectorized=True,
                      lift=lambda x, lam, t: np.zeros(4))


@settings(max_examples=300, deadline=None)
@given(sigma=st.floats(1e-3, 1e3),
       v=st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3),
       r=st.floats(1.0000001e-6, 1e6),
       lam=st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=4))
# 2 l1 sig2 is subnormal: it rounds by 2^-1075 before / r**3 scales it by 1e18
@example(sigma=1.5, v=[0.0, 0.0, 0.0], r=1.0000001e-06, lam=[5e-324, 0.0, 0.0, 0.0])
def test_ballistic_lift_is_its_field_and_the_jac_form_adjoint(sigma, v, r, lam):
    sysb = ballistic_system(sigma)
    x, lam = np.array([v[0], v[1], r, v[2]]), np.array(lam)
    k = np.asarray(sysb.lift(x, lam, 0.0))
    ref = (-sysb.jac_at(x, 0.0).T) @ lam
    assert k[:4].tobytes() == sysb.f_at(x, 0.0).tobytes()
    # relative to the size of each printed equation's terms, the scale of its
    # rounding; subnormal results round absolutely
    v_r, v_phi, l1, l2, l3, l4, sig2 = v[0], v[1], *lam, float(sigma) ** 2
    terms = np.array([abs(l2 * v_phi / r) + abs(l3),
                      abs(2.0 * l1 * v_phi / r) + abs(l2 * v_r / r) + abs(l4 / r),
                      abs(l1 * v_phi ** 2 / r ** 2) + abs(2.0 * l1 * sig2 / r ** 3)
                      + abs(l2 * v_r * v_phi / r ** 2) + abs(l4 * v_phi / r ** 2),
                      0.0])
    # a subnormal intermediate p rounds absolutely, by up to 2^-1075 (half its
    # spacing, below the smallest float, hence ldexp), and whatever scales p
    # afterwards, 1/r**k above all, scales that rounding; no term is added
    # where every intermediate is normal
    tiny = np.finfo(float).tiny
    sub = lambda *pairs: sum(np.ldexp(g, -1075) for p, g in pairs if 0.0 < abs(p) < tiny)
    subnormal = np.array([
        sub((l2 * v_phi, 1 / r)),
        sub((-2.0 * l1 * v_phi, 1 / r), (l2 * v_r, 1 / r)),
        sub((l1 * v_phi ** 2, 1 / r ** 2), (2.0 * l1 * sig2, 1 / r ** 3),
            (l2 * v_r, abs(v_phi) / r ** 2), (l2 * v_r * v_phi, 1 / r ** 2),
            (l4 * v_phi, 1 / r ** 2), (v_r * v_phi, abs(l2) / r ** 2)),   # the last is jac's
        0.0])
    assert np.all(np.abs(k[4:] - ref) <= 1e-14 * terms + subnormal + tiny)


def test_no_march_goes_through_the_single_state_calls(monkeypatch):
    def refuse(self, x, t):
        raise AssertionError("a march called f_at or jac_at")
    monkeypatch.setattr(DynamicSystem, "f_at", refuse)
    monkeypatch.setattr(DynamicSystem, "jac_at", refuse)
    traj = integrate(SYSTEMS["list"](), S0, T1, STEP)
    fundamental_matrix(SYSTEMS["list"](), traj, "D")
    for name in ("list", "vectorized-constant-jac"):
        flow_loop(SYSTEMS[name](), _loop(), [T1], STEP)

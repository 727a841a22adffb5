"""Hamiltonian lift, canonical flow, fundamental matrices, energy checks."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from canomap import hamilton
from canomap.phasecore import (DomainError, DynamicSystem, PhaseState, Trajectory,
                               zero_controlling_function)
from canomap.hamilton import (EnergyDriftReport, _grid, _rates, _rk4_path, canonical_rhs,
                              energy_drift, fundamental_matrix, hamiltonian,
                              integrate)
from canomap.invariants import action_function, circle_loop, flow_loop
from canomap.mapping import MappingSpec, canonicity_residual, synthesize_ulam
from canomap.scenarios import ballistic_system


def linear_system(n=1, a=1.0):
    return DynamicSystem(dim=n, f=lambda x, t: a * x,
                         jac=lambda x, t: a * np.eye(n), autonomous=True)


def rotation_field():
    """f = (x2, -x1): the Jacobian is antisymmetric, so transpose
    conventions in the fundamental matrices genuinely differ."""
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return DynamicSystem(dim=2, f=lambda x, t: A @ x,
                         jac=lambda x, t: A, autonomous=True)


# ---------------------------------------------------------------------
# hamiltonian / canonical_rhs
# ---------------------------------------------------------------------

def test_hamiltonian_values():
    assert hamiltonian(linear_system(), PhaseState([5.0], [0.0], 0.0)) == 0.0
    assert hamiltonian(linear_system(), PhaseState([3.0], [2.0], 0.0)) == 6.0
    # circular-orbit symmetry: the radial acceleration cancels exactly
    circ = PhaseState([0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], 0.0)
    assert hamiltonian(ballistic_system(1.0), circ) == 0.0


def test_hamiltonian_nonfinite_diagnostic():
    big = DynamicSystem(dim=1, f=lambda x, t: 1e200 * x, autonomous=True)
    with np.errstate(over="ignore"):
        with pytest.raises(DomainError, match="non-finite"):
            hamiltonian(big, PhaseState([1e200], [1e200], 0.0))


def test_canonical_rhs():
    const = DynamicSystem(dim=1, f=lambda x, t: np.ones(1),
                          jac=lambda x, t: np.zeros((1, 1)), autonomous=True)
    _, dlam = canonical_rhs(const, PhaseState([2.0], [3.0], 0.0))
    assert np.array_equal(dlam, [0.0])

    dx, dlam = canonical_rhs(linear_system(a=0.5), PhaseState([2.0], [3.0], 0.0))
    assert dx[0] == 1.0
    assert dlam[0] == -1.5

    _, dlam = canonical_rhs(ballistic_system(1.0),
                            PhaseState([0.3, 1.2, 0.9, 0.1],
                                       [0.5, -0.4, 0.7, 2.0], 0.0))
    assert dlam[3] == 0.0  # last column of the Jacobian is zero
    assert math.copysign(1, dlam[3]) == 1.0   # a sum of +0 terms; -(A^T lam) reads -0.0


# ---------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------

def test_integrate_null_field_is_constant():
    null = DynamicSystem(dim=2, f=lambda x, t: np.zeros(2),
                         jac=lambda x, t: np.zeros((2, 2)), autonomous=True)
    s0 = PhaseState([1.5, -2.0], [0.25, 4.0], 0.0)
    traj = integrate(null, s0, 1.0, 1e-2)
    assert np.all(traj.x == s0.x) and np.all(traj.lam == s0.lam)


def test_integrate_exponential_pair():
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0), 1.0, 1e-3)
    end = traj[-1]
    assert end.t == 1.0
    assert abs(end.x[0] - np.e) / np.e < 1e-10
    assert abs(end.lam[0] - 1.0 / np.e) * np.e < 1e-10


def test_integrate_lands_exactly_on_t1():
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0), 0.25, 0.1)
    ts = traj.t
    assert ts[-1] == 0.25
    assert len(ts) == 4           # 0, 0.1, 0.2, shortened 0.25
    assert ts[-1] - ts[-2] < 0.1


def test_integrate_late_start_keeps_every_step():
    # at t1 = 1e9 a slack of 1e-12 |t1| (1 ms) would swallow all five
    # 0.1 ms steps and return the initial sample alone; each step's t is
    # rounded to the float spacing there (1.2e-7), hence rel=1e-6
    t0 = 1e9
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], t0), t0 + 5e-4, 1e-4)
    end = traj[-1]
    assert len(traj) > 1
    assert end.t == t0 + 5e-4
    assert end.x[0] == pytest.approx(np.exp(5e-4), rel=1e-6)


def test_late_start_state_follows_the_stored_times():
    # at t = 1e9, t + 1e-4 rounds to t + 1.000166e-4: the state must advance
    # by that stored increment, so log x at the end equals the stored span
    # (measured 7e-17 off; the span is 4.99964e-4, and integrating a
    # nominal 1e-4 per step gave log x = 4.99897e-4)
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 1e9), 1e9 + 5e-4, 1e-4)
    assert abs(np.log(traj.x[-1, 0]) - (traj.t[-1] - traj.t[0])) < 1e-15


@settings(max_examples=20, deadline=None)
@given(T=st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(0, 9)))
@example(T=12.5)
@example(T=1e3)
@example(T=1e9)
def test_autonomous_integrate_is_time_shift_invariant(T):
    # The run over [T, T + 1] is compared with the run from 0 over the same
    # stored span fl(T + 1) - T.  Each of the k additions t + step rounds by
    # at most half a spacing of |T| + 2 in either run, which bounds how far
    # t - T strays from the unshifted grid.  The last step (about 0.001 at
    # step 0.003) is far longer than that, so both runs take 335 samples.
    for sys_, x0, lam0 in ((linear_system(), [1.0], [1.0]),
                           (ballistic_system(1.0), [0.0, 1.1, 1.0, 0.0], [0.3, -0.2, 0.5, 0.1])):
        shifted = integrate(sys_, PhaseState(x0, lam0, T), T + 1.0, 0.003)
        ref = integrate(sys_, PhaseState(x0, lam0, 0.0), shifted.t[-1] - T, 0.003)
        assert len(shifted) == len(ref) == 335
        grid_bound = np.arange(335) * np.spacing(abs(T) + 2.0)
        assert np.all(np.abs((shifted.t - T) - ref.t) <= grid_bound)
        # the end states differ by at most 5.8e-15 over 60 shifts up to 1e9;
        # integrating a nominal step instead left 1e-13 at T = 12.5, 2e-5 at 1e9
        assert np.max(np.abs(shifted.x[-1] - ref.x[-1])) < 2e-14
        assert np.max(np.abs(shifted.lam[-1] - ref.lam[-1])) < 2e-14


def test_integrate_circular_orbit_radius():
    sysb = ballistic_system(1.0)
    s0 = PhaseState([0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], 0.0)
    traj = integrate(sysb, s0, 10.0, 1e-3)
    rs = traj.x[:, 2]
    assert np.max(np.abs(rs - 1.0)) < 1e-9


def test_integrate_keeps_each_first_stage():
    sysb = ballistic_system(1.0)
    traj = integrate(sysb, PhaseState([0.0, 1.1, 1.0, 0.0], [0.3, -0.5, 0.7, 0.2], 0.0),
                     1.0, 1e-2)
    assert traj.system is sysb
    assert traj.xdot.shape == traj.lamdot.shape == (len(traj), 4)
    assert not (traj.xdot.flags.writeable or traj.lamdot.flags.writeable)
    # every row, the last one included, is the system's lift bit for bit,
    # and the jac form (f, (-A^T) lam) to rounding
    want = np.array([sysb.lift(s.x, s.lam, s.t) for s in traj])
    xdot, lamdot = _rates(sysb, traj)
    assert xdot is traj.xdot and lamdot is traj.lamdot
    assert xdot.tobytes() == want[:, :4].tobytes()
    assert lamdot.tobytes() == want[:, 4:].tobytes()
    jac_form = np.array([np.concatenate(canonical_rhs(sysb, s)) for s in traj])
    assert xdot.tobytes() == jac_form[:, :4].tobytes()
    assert np.max(np.abs(lamdot - jac_form[:, 4:])) <= 1e-14 * np.max(np.abs(jac_form[:, 4:]))
    # lam4' = 0 is written +0.0 (as (-A^T) lam sums +0, where -(A^T lam) gives -0)
    assert not np.signbit(lamdot[:, 3]).any()
    assert Trajectory(traj.t, traj.x, traj.lam).system is None


def test_the_march_derivative_serves_every_diagnostic():
    calls = {"f": 0, "jac": 0}

    def f(x, t):
        calls["f"] += 1
        return np.array([x[1], -(1.0 + 0.1 * t) * x[0]])

    def jac(x, t):
        calls["jac"] += 1
        return np.array([[0.0, 1.0], [-(1.0 + 0.1 * t), 0.0]])

    def driven():
        return DynamicSystem(dim=2, f=f, jac=jac, ft=lambda x, t: np.array([0.0, -0.1 * x[0]]))

    sys_ = driven()
    traj = integrate(sys_, PhaseState([1.0, 0.0], [0.3, -0.4], 0.0), 0.5, 1e-2)
    k = len(traj) - 1
    # four stages per step, plus the lift at the last sample
    assert calls == {"f": 4 * k + 1, "jac": 4 * k + 1}
    spec = MappingSpec("Std116", zero_controlling_function(2))
    diagnostics = (lambda s: energy_drift(s, traj), lambda s: canonicity_residual(s, spec, traj),
                   lambda s: action_function(s, traj))
    for diagnostic in diagnostics:
        diagnostic(sys_)
    assert calls == {"f": 4 * k + 1, "jac": 4 * k + 1}
    # an equal but distinct system is called at every sample by each of
    # them; only canonicity_residual needs jac (energy_drift's f_t is ft)
    other = driven()
    for diagnostic, jac_calls in zip(diagnostics, (0, k + 1, 0)):
        calls.update(f=0, jac=0)
        diagnostic(other)
        assert calls == {"f": k + 1, "jac": jac_calls}


def test_a_field_undefined_at_the_last_sample_leaves_no_columns():
    # RK4's stages stay below the guard; only the final state crosses it
    def f(x, t):
        if t >= 0.1 and x[0] > 0.9048:
            raise DomainError(f"outside at x={x[0]}")
        return -x

    sys_ = DynamicSystem(dim=1, f=f, jac=lambda x, t: -np.eye(1), autonomous=True)
    traj = integrate(sys_, PhaseState([1.0], [1.0], 0.0), 0.1, 0.1)
    assert len(traj) == 2 and not traj.meta and traj.system is None
    with pytest.raises(DomainError, match="^outside at x=0.9048"):
        energy_drift(sys_, traj)


def test_a_jacobian_undefined_at_the_last_sample_spares_the_h_diagnostics():
    # only jac fails there (RK4's stages stay below the guard), so the
    # trajectory keeps no columns; energy_drift and action_function need f
    # alone and still run, canonicity_residual needs jac
    def jac(x, t):
        if t >= 0.1 and x[0] > 0.9048:
            raise DomainError("no Jacobian at the end")
        return -np.eye(1)

    sys_ = DynamicSystem(dim=1, f=lambda x, t: -x, jac=jac, autonomous=True)
    traj = integrate(sys_, PhaseState([1.0], [1.0], 0.0), 0.1, 0.1)
    assert len(traj) == 2 and not traj.meta and traj.system is None
    ref = integrate(linear_system(a=-1.0), PhaseState([1.0], [1.0], 0.0), 0.1, 0.1)
    assert energy_drift(sys_, traj).h_series.tobytes() == \
        energy_drift(linear_system(a=-1.0), ref).h_series.tobytes()
    assert action_function(sys_, traj).dS_series.tobytes() == \
        action_function(linear_system(a=-1.0), ref).dS_series.tobytes()
    with pytest.raises(DomainError, match="no Jacobian at the end"):
        canonicity_residual(sys_, MappingSpec("Std116", zero_controlling_function(1)), traj)


def test_trajectory_takes_no_rate_columns():
    # only integrate sets them, so they always belong to its own samples
    with pytest.raises(TypeError):
        Trajectory([0.0], [[1.0]], [[1.0]], {}, [[1.0]])
    with pytest.raises(TypeError):
        Trajectory([0.0], [[1.0]], [[1.0]], system=linear_system())
    traj = Trajectory([0.0], [[1.0]], [[1.0]])
    assert traj.xdot is traj.lamdot is traj.system is None


def test_integrate_blowup_truncates():
    riccati = DynamicSystem(dim=1, f=lambda x, t: x ** 2,
                            jac=lambda x, t: 2.0 * x.reshape(1, 1),
                            autonomous=True)
    traj = integrate(riccati, PhaseState([2.0], [0.0], 0.0), 2.0, 1e-3)
    assert traj.meta["truncated"]
    assert traj.meta["t_truncated"] < 1.0
    assert "1e12" in traj.meta["reason"]
    assert np.all(np.isfinite(traj.x))


def test_integrate_validates_arguments():
    s0 = PhaseState([1.0], [1.0], 0.0)
    with pytest.raises(ValueError, match="step must be positive"):
        integrate(linear_system(), s0, 1.0, 0.0)
    with pytest.raises(ValueError, match="t1"):
        integrate(linear_system(), s0, 0.0, 1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_step_or_t1_is_rejected(bad):
    # none of them gives a grid: a non-finite step would be one step of
    # t1 - t0, a NaN t1 a single sample, and an infinite t1 a march to blow-up
    s0 = PhaseState([1.0], [1.0], 0.0)
    loop = circle_loop(s0, 0.1, 8)
    with pytest.raises(ValueError, match="^step must be positive"):
        integrate(linear_system(), s0, 1.0, bad)
    with pytest.raises(ValueError, match="^step must be positive"):
        flow_loop(linear_system(), loop, [1.0], bad)
    with pytest.raises(ValueError, match="^t1 must exceed the initial time"):
        integrate(linear_system(), s0, bad, 1e-2)
    with pytest.raises(ValueError, match="^t1 must exceed the initial time"):
        flow_loop(linear_system(), loop, [bad], 1e-2)


def test_step_below_float_spacing_of_t_is_rejected():
    # at t = 1e9 the float spacing is 1.2e-7, so t + 5e-8 == t: the march
    # would never end, and every caller gets a ValueError instead
    late = PhaseState([1.0], [1.0], 1e9)
    with pytest.raises(ValueError, match="does not advance t"):
        integrate(linear_system(), late, 1e9 + 1, 5e-8)
    with pytest.raises(ValueError, match="does not advance t"):
        flow_loop(linear_system(), circle_loop(late, 0.1, 8), [1e9 + 1], 5e-8)


# ---------------------------------------------------------------------
# fundamental matrices
# ---------------------------------------------------------------------

def test_fundamental_matrix_zero_generator():
    const = DynamicSystem(dim=2, f=lambda x, t: np.array([1.0, -1.0]),
                          jac=lambda x, t: np.zeros((2, 2)), autonomous=True)
    traj = integrate(const, PhaseState([0.0, 0.0], [1.0, 1.0], 0.0), 1.0, 1e-2)
    for kind in ("B", "D"):
        fm = fundamental_matrix(const, traj, kind)
        for M in fm.values:
            assert np.array_equal(M, np.eye(2))


def test_fundamental_matrix_scalar_exponentials():
    a = 0.7
    traj = integrate(linear_system(a=a), PhaseState([1.0], [1.0], 0.0), 1.0, 1e-3)
    B = fundamental_matrix(linear_system(a=a), traj, "B")
    D = fundamental_matrix(linear_system(a=a), traj, "D")
    ts = B.times
    assert np.max(np.abs(B.values[:, 0, 0] - np.exp(-a * ts))) < 1e-10
    assert np.max(np.abs(D.values[:, 0, 0] - np.exp(a * ts))) < 1e-10


@pytest.mark.parametrize("trace", [0.6, -0.6])
def test_min_abs_det_is_liouvilles_smaller_end(trace):
    # Liouville, for a constant A: det D(t) = e^{tr A (t - t0)} and
    # det B(t) = e^{-tr A (t - t0)}, both monotone, so min |det| is the smaller
    # end value; for each sign of tr A one kind has it at the last sample
    A = np.array([[0.5 * trace + 0.2, 1.0], [-0.4, 0.5 * trace - 0.2]])
    sys_ = DynamicSystem(dim=2, f=lambda x, t: A @ x, jac=lambda x, t: A, autonomous=True)
    t0, t1 = 0.3, 1.5
    traj = integrate(sys_, PhaseState([1.0, 0.5], [0.3, -0.8], t0), t1, 1e-3)
    for kind, sign in (("B", -1.0), ("D", 1.0)):
        ends = np.exp(sign * trace * np.array([0.0, t1 - t0]))
        fm = fundamental_matrix(sys_, traj, kind)
        assert fm.min_abs_det == pytest.approx(ends.min(), rel=1e-10, abs=0.0)


def test_fundamental_matrix_duality_and_multiplier_transport():
    sysr = rotation_field()
    lam0 = np.array([0.8, -0.3])
    traj = integrate(sysr, PhaseState([1.0, 0.5], lam0, 0.0), 1.0, 1e-3)
    B = fundamental_matrix(sysr, traj, "B")
    D = fundamental_matrix(sysr, traj, "D")
    worst = max(float(np.max(np.abs(Bm @ Dm.T - np.eye(2))))
                for Bm, Dm in zip(B.values, D.values))
    assert worst < 1e-8
    # lam(t) = B(t) lam0 reproduces the integrated multipliers
    err = float(np.max(np.abs(B.values @ lam0 - traj.lam)))
    assert err < 1e-8


@settings(max_examples=25, deadline=None)
@given(a=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       z=st.lists(st.floats(-1, 1), min_size=4, max_size=4))
def test_fundamental_matrix_duality_over_linear_fields(a, z):
    # B transports multipliers and D variations, so B(t) D(t)^T = E; RK4's
    # per-step defect is (hA)^6/72, far below 1e-10 at h = 5e-3, |A| <= 2.
    A = np.array(a).reshape(2, 2)
    sys_ = DynamicSystem(dim=2, f=lambda x, t: A @ x, jac=lambda x, t: A, autonomous=True)
    traj = integrate(sys_, PhaseState(z[:2], z[2:], 0.0), 0.5, 5e-3)
    B = fundamental_matrix(sys_, traj, "B")
    D = fundamental_matrix(sys_, traj, "D")
    assert len(B.values) == len(D.values) == 101
    worst = max(float(np.max(np.abs(Bm @ Dm.T - np.eye(2)))) for Bm, Dm in zip(B.values, D.values))
    assert worst < 1e-10


def test_duality_check_sees_a_transport_without_the_transpose(monkeypatch):
    # B must solve Bdot = -A^T B.  With -A B in its place, B D^T = E breaks on
    # a non-normal field and criterion 06's bound (1e-8) must flag it.
    A = np.array([[0.2, 1.0], [0.0, -0.3]])
    sys_ = DynamicSystem(dim=2, f=lambda x, t: A @ x, jac=lambda x, t: A, autonomous=True)
    traj = integrate(sys_, PhaseState([1.0, 0.5], [0.3, -0.8], 0.0), 1.0, 1e-3)

    def worst():
        B, D = (fundamental_matrix(sys_, traj, kind).values for kind in ("B", "D"))
        return max(float(np.max(np.abs(Bm @ Dm.T - np.eye(2)))) for Bm, Dm in zip(B, D))
    assert worst() < 1e-8
    monkeypatch.setitem(hamilton._KINDS, "B", lambda A, M: -A @ M)
    assert worst() > 1e-8


@pytest.mark.parametrize("t", [[0.0, 0.3, 1.0],
                               # closer than value_at's match window 1e-9 |t|
                               [1e4, 1e4 + 5e-6, 1e4 + 1e-5]], ids=["uneven", "close"])
def test_fundamental_matrix_follows_a_hand_built_trajectory(t):
    # the matrices are marched over traj.t itself, so the i-th matrix (and
    # the i-th U_lam of synthesize_ulam) belongs to sample i
    A = 0.05 * np.array([[0.3, 1.0], [-1.0, 0.2]])
    sys_ = DynamicSystem(dim=2, f=lambda x, t: A @ x, jac=lambda x, t: A, autonomous=True)
    traj = Trajectory(t, [[1.0, 0.0], [0.9, 0.1], [0.8, 0.3]], np.ones((3, 2)))
    B = fundamental_matrix(sys_, traj, "B")
    D = fundamental_matrix(sys_, traj, "D")
    assert B.times.tobytes() == D.times.tobytes() == traj.t.tobytes()
    for i, ti in enumerate(traj.t):
        assert np.max(np.abs(B.values[i] @ D.values[i].T - np.eye(2))) < 1e-10
        assert np.array_equal(D.value_at(ti), D.values[i])
        assert np.max(np.abs(D.values[i] - expm(A * (ti - t[0])))) < 1e-8
    synth = synthesize_ulam(sys_, traj, [1.0, -0.5])
    want = np.array([expm(A * (ti - t[0])) @ [1.0, -0.5] for ti in t])
    assert np.max(np.abs(synth.ulam_series - want)) < 1e-8
    for s, ulam in zip(traj, synth.ulam_series):   # U's U_lam at sample i is the i-th
        assert np.allclose(synth.cf.ulam(s.x, s.lam, s.t), ulam, rtol=1e-14, atol=0.0)


def test_fundamental_matrix_value_at():
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0), 1.0, 1e-2)
    B = fundamental_matrix(linear_system(), traj, "B")
    assert B.value_at(0.0)[0, 0] == 1.0
    mid = B.value_at(0.505)[0, 0]   # between grid nodes
    assert mid == pytest.approx(np.exp(-0.505), rel=1e-4)
    for t in (2.0, np.inf, -np.inf, np.nan):   # no end sample matches t = ±inf
        with pytest.raises(ValueError, match="outside the stored range"):
            B.value_at(t)
    for kind in ("Q", "B_paper"):   # the dual pair B, D is the only one
        with pytest.raises(ValueError, match=r"unknown kind .*; expected one of \['B', 'D'\]$"):
            fundamental_matrix(linear_system(), traj, kind)


# ---------------------------------------------------------------------
# energy diagnostics
# ---------------------------------------------------------------------

def test_energy_drift_autonomous():
    traj = integrate(linear_system(), PhaseState([1.0], [2.0], 0.0), 1.0, 1e-3)
    report = energy_drift(linear_system(), traj)
    assert report.drift < 1e-8


def test_energy_drift_null_field_exact_zero():
    null = DynamicSystem(dim=1, f=lambda x, t: np.zeros(1),
                         jac=lambda x, t: np.zeros((1, 1)), autonomous=True)
    traj = integrate(null, PhaseState([1.0], [5.0], 0.0), 1.0, 1e-2)
    report = energy_drift(null, traj)
    assert np.all(report.h_series == 0.0)
    assert report.drift == 0.0


def test_energy_drift_driven_field_compensated():
    driven = DynamicSystem(dim=1, f=lambda x, t: np.array([t]),
                           jac=lambda x, t: np.zeros((1, 1)),
                           ft=lambda x, t: np.ones(1), autonomous=False)
    traj = integrate(driven, PhaseState([0.0], [3.0], 0.0), 1.0, 1e-3)
    report = energy_drift(driven, traj)
    # H(t) - H0 = lam0 * t, matched by the trapezoidal int of lam * f_t
    assert report.drift < 1e-8
    assert report.h_series[-1] == pytest.approx(3.0, rel=1e-10)
    # a wrong ft = 2 overshoots by lam0 (t1 - t0) = 3, where the right one
    # reads 7.4e-14, against criterion 09's 1e-6
    wrong = DynamicSystem(dim=1, f=driven.f, jac=driven.jac, ft=lambda x, t: 2.0 * np.ones(1))
    assert energy_drift(wrong, traj).drift == pytest.approx(3.0, rel=1e-12)


def test_fd_backed_ft_compensates_as_the_analytic_one():
    # f = sin(t) x: the central difference of f in t stands in for the
    # omitted ft, and the drift (about 2.8e-6) moves by about 1.6e-12
    def driven(**ft):
        return DynamicSystem(dim=1, f=lambda x, t: np.sin(t) * x,
                             jac=lambda x, t: np.sin(t) * np.eye(1), **ft)
    fd, exact = driven(), driven(ft=lambda x, t: np.cos(t) * x)
    assert fd.fd_backed == {"ft"} and exact.fd_backed == set()
    drifts = [energy_drift(s, integrate(s, PhaseState([0.4], [1.3], 0.2), 1.0, 1e-2)).drift
              for s in (fd, exact)]
    assert drifts[1] == pytest.approx(2.785478e-6, rel=1e-6)
    assert 0.0 < abs(drifts[0] - drifts[1]) < 1e-11


def test_energy_drift_reads_the_columns_bitwise():
    sysb = ballistic_system(1.0)
    traj = integrate(sysb, PhaseState([0.0, 1.1, 1.0, 0.0], [0.3, -0.5, 0.7, 0.2], 0.0),
                     1.0, 1e-2)
    hs = np.array([hamiltonian(sysb, s) for s in traj])
    report = energy_drift(sysb, traj)
    assert report.h_series.tobytes() == hs.tobytes()
    assert report.drift == float(np.max(np.abs(hs - hs[0])))
    # a driven field: the lam . f_t integrand comes from the columns too
    driven = DynamicSystem(dim=1, f=lambda x, t: np.sin(t) * x,
                           ft=lambda x, t: np.cos(t) * x, jac=lambda x, t: np.sin(t) * np.eye(1))
    traj = integrate(driven, PhaseState([0.4], [1.3], 0.2), 1.0, 1e-2)
    hs = np.array([hamiltonian(driven, s) for s in traj])
    ft = np.array([float(s.lam @ driven.ft_at(s.x, s.t)) for s in traj])
    trapz = np.concatenate([[0.0], np.cumsum(np.diff(traj.t) * 0.5 * (ft[1:] + ft[:-1]))])
    report = energy_drift(driven, traj)
    assert report.h_series.tobytes() == hs.tobytes()
    assert report.drift == float(np.max(np.abs(hs - hs[0] - trapz)))


@pytest.mark.parametrize("n", [1, 3])
def test_h_series_keeps_the_sign_of_a_zero_hamiltonian(n):
    # lam < 0 on a frozen field: np.dot of one pair is the bare product -0.0
    frozen = DynamicSystem(dim=n, f=lambda x, t: np.zeros(n),
                           jac=lambda x, t: np.zeros((n, n)), autonomous=True)
    traj = integrate(frozen, PhaseState(np.ones(n), -2.0 * np.ones(n), 0.0), 0.1, 1e-2)
    hs = np.array([hamiltonian(frozen, s) for s in traj])
    assert energy_drift(frozen, traj).h_series.tobytes() == hs.tobytes()
    assert np.signbit(hs).all() == (n == 1)


def test_energy_drift_names_the_first_non_finite_sample():
    wall = DynamicSystem(dim=1, f=lambda x, t: np.where(x > 0.5, np.inf, x),
                         jac=lambda x, t: np.eye(1), autonomous=True)
    traj = Trajectory([0.0, 0.1, 0.2, 0.3], [[0.1], [0.6], [0.7], [0.2]],
                      [[1.0], [1.0], [1.0], [1.0]])
    with pytest.raises(DomainError) as want:
        hamiltonian(wall, traj[1])
    with pytest.raises(DomainError) as got:
        energy_drift(wall, traj)
    assert str(got.value) == str(want.value) == "non-finite Hamiltonian at x=[0.6], t=0.1"
    with pytest.raises(ValueError, match="^dimension mismatch: system n=2, state n=1$"):
        energy_drift(linear_system(n=2), traj)


@pytest.mark.parametrize("n", [1, 2])
def test_energy_drift_overflow_is_the_domain_error_not_a_warning(n):
    # lam . f of two finite vectors overflows: the bare product (n = 1) and
    # the stacked matmul (n > 1) both meet it as the non-finite Hamiltonian
    steep = DynamicSystem(dim=n, f=lambda x, t: 1e300 * x, autonomous=True)
    traj = Trajectory([0.0], [[1.0] * n], [[1e10] * n])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^non-finite Hamiltonian at x="):
            energy_drift(steep, traj)


# ---------------------------------------------------------------------
# The generated float ops of one state against the array ops
# ---------------------------------------------------------------------

_EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
         1e12, -1e12, math.nextafter(1e12, math.inf), -math.nextafter(1e12, math.inf)]
_VALUES = st.sampled_from(_EDGE) | st.floats(allow_nan=False, allow_infinity=False)
_SIZES = [*range(1, 13), 200]
_PIN = dict(data=st.data(), m=st.sampled_from(_SIZES), a=_VALUES, c=_VALUES)


def _mismatches(ops, z, a, c, ks):
    """The names of the ops in ops (axpy, combine, bounded, pack of one state)
    whose result differs, in bytes, from _ARRAYS's on the same values."""
    axpy, combine, bounded, pack = ops
    ref = hamilton._ARRAYS
    lists = [z.tolist()] + [k.tolist() for k in ks]
    got = {"axpy": pack(axpy(lists[0], a, lists[1])),
           "combine": pack(combine(lists[0], c, *lists[1:])),
           "bounded": bounded(lists[0]), "pack": pack(lists[0])}
    with np.errstate(over="ignore", invalid="ignore"):   # Python floats overflow silently
        want = {"axpy": ref[3](ref[0](z, a, ks[0])), "combine": ref[3](ref[1](z, c, *ks)),
                "bounded": bool(ref[2](z)), "pack": ref[3](z)}
    return [name for name in got if got[name] != want[name]]


@settings(max_examples=300, deadline=None)
@given(**_PIN)
def test_generated_float_ops_are_bitwise_the_array_ops(data, m, a, c):
    z, *ks = data.draw(arrays(np.float64, (5, m), elements=_VALUES))
    assert _mismatches(hamilton._floats(m), z, a, c, ks) == []


@pytest.mark.parametrize("m", _SIZES)
def test_generated_bounded_sees_every_position(m):
    bounded = hamilton._floats(m)[2]
    for value, inside in [(math.nan, False), (math.inf, False), (-math.inf, False),
                          (1e12, True), (-1e12, True), *((v, False) for v in _EDGE[-2:])]:
        for i in range(m):
            z = [0.5] * m
            z[i] = value
            assert bounded(z) is inside and bool(hamilton._ARRAYS[2](np.array(z))) is inside


def test_a_combine_summed_in_another_order_breaks_the_pin(monkeypatch):
    # (k1 + 2 k2) + (2 k3 + k4) in place of numpy's ((k1 + 2 k2) + 2 k3) + k4
    regrouped = lambda z, c, *ks: [u + c * ((p + 2.0 * q) + (2.0 * r + s))
                                   for u, p, q, r, s in zip(z, *ks)]
    real = hamilton._floats
    monkeypatch.setattr(hamilton, "_floats", lambda m: (real(m)[0], regrouped, *real(m)[2:]))
    # the same search, unshrunk and unrecorded
    search = settings(max_examples=300, deadline=None, phases=[Phase.generate], database=None)
    inner = test_generated_float_ops_are_bitwise_the_array_ops.hypothesis.inner_test
    pin = given(**_PIN)(search(inner))
    with pytest.raises(AssertionError, match=r"\['combine'\] == \[\]"):
        pin()


def test_generated_ops_are_compiled_once_per_size_under_their_origin():
    assert hamilton._floats(8) is hamilton._floats(8)
    assert hamilton._floats(8)[1].__code__.co_filename == "<canomap.hamilton._floats m=8>"


@pytest.mark.parametrize("z0", [[1e13, 1.0], np.array([[1.0, 1.0], [1.0, -1e13]])],
                         ids=["one-state", "stack"])
def test_a_start_beyond_the_bound_truncates_before_any_step(z0):
    calls = []
    ts, zs, diag, ks = _rk4_path(lambda z, t: calls.append(t) or z, z0, _grid(0.0, 0.1, 0.01))
    assert calls == [] and ts == [0.0] and ks.size == 0
    assert diag == {"truncated": True, "t_truncated": 0.0,
                    "reason": "state magnitude exceeded 1e12"}
    assert zs.tobytes() == np.array(z0, dtype=float).tobytes()


@pytest.mark.parametrize("t1", [0.95, 40.0])   # the second march blows up
def test_rk4_endpoint_only_march_keeps_last_sample(t1):
    rhs = lambda z, t: z
    full = _rk4_path(rhs, np.ones((3, 2)), _grid(0.0, t1, 0.1))
    last = _rk4_path(rhs, np.ones((3, 2)), _grid(0.0, t1, 0.1), last=True)
    assert len(last[0]) == len(last[1]) == 1
    assert last[0][0] == full[0][-1] and np.array_equal(last[1][0], full[1][-1])
    assert last[2] == full[2]
    # a full march keeps one first stage per step: rhs = z at each sample it leaves
    assert full[3].shape == (len(full[0]) - 1, 3, 2)
    assert np.array_equal(full[3], full[1][:-1]) and len(last[3]) == 0
    # fundamental_matrix's mode: every sample, no stage
    samples = _rk4_path(rhs, np.ones((3, 2)), _grid(0.0, t1, 0.1), stages=False)
    assert samples[0] == full[0] and samples[1].tobytes() == full[1].tobytes()
    assert samples[2] == full[2] and samples[3].shape == (0, 3, 2)

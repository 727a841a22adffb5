"""Mapping variants, canonicity checks, and the two synthesis routes."""
import functools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canomap.phasecore import (_FD_RULE, ControllingFunction, DomainError, DynamicSystem,
                               PhaseState, Trajectory, _central_diff_x,
                               zero_controlling_function)
from canomap.hamilton import canonical_rhs, energy_drift, integrate
from canomap.invariants import action_function, symplectic_test
from canomap.mapping import (_DG, _FORM, VARIANTS, ConvergenceError, DegeneratePivotError,
                             MappingSpec, RootNotFoundError, _images, _map_jacobian, _rows,
                             apply_map,
                             canonicity_residual, canonicity_residual_points,
                             invert_map, jacobian_condition, synthesize_lambda0,
                             synthesize_ulam)
from canomap.scenarios import ballistic_system


def linear_system(n=1, a=1.0):
    return DynamicSystem(dim=n, f=lambda x, t: a * x,
                         jac=lambda x, t: a * np.eye(n), autonomous=True)


def bilinear_cf(c=0.1):
    """U = c * (x . lam), all derivative blocks supplied analytically."""
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


def quarter_turn_cf():
    """U = |lam|^2/2 - |x|^2/2 + lam.x; with the cross variant this sends
    (x, lam) to (lam, -x)."""
    n = 1
    return ControllingFunction(
        dim=n,
        u=lambda x, lam, t: 0.5 * float(lam @ lam) - 0.5 * float(x @ x)
                            + float(lam @ x),
        ux=lambda x, lam, t: lam - x,
        ulam=lambda x, lam, t: lam + x,
        ut=lambda x, lam, t: 0.0,
        uxlam=lambda x, lam, t: np.eye(n),
        uxx=lambda x, lam, t: -np.eye(n),
        ulamlam=lambda x, lam, t: np.eye(n),
        uxt=lambda x, lam, t: np.zeros(n),
        ulamt=lambda x, lam, t: np.zeros(n),
    )


# ---------------------------------------------------------------------
# apply_map / jacobian_condition
# ---------------------------------------------------------------------

@given(x=st.floats(-50, 50), lam=st.floats(-50, 50))
def test_zero_control_is_bitwise_identity(x, lam):
    spec = MappingSpec("Std116", zero_controlling_function(1))
    y, mu = apply_map(spec, PhaseState([x], [lam], 0.0))
    assert y[0] == x and mu[0] == lam


def test_identity_across_all_variants():
    cf = zero_controlling_function(2)
    s = PhaseState([0.3, -1.2], [2.0, 0.7], 0.5)
    for variant in ("Std116", "Symplectic119", "SignVariant218",
                    "SignVariant219", "Cross220"):
        signs = (1, -1) if variant != "SignVariant219" else (1, 1)
        y, mu = apply_map(MappingSpec(variant, cf, signs=signs), s)
        assert np.array_equal(y, s.x)
        assert np.array_equal(mu, s.lam)


def test_quarter_turn_image():
    spec = MappingSpec("Cross220", quarter_turn_cf())
    y, mu = apply_map(spec, PhaseState([2.0], [3.0], 0.0))
    assert y[0] == 3.0 and mu[0] == -2.0


def test_bilinear_std_image():
    spec = MappingSpec("Std116", bilinear_cf(0.1))
    y, mu = apply_map(spec, PhaseState([1.0], [2.0], 0.0))
    assert y[0] == pytest.approx(1.1, abs=1e-15)
    assert mu[0] == pytest.approx(1.8, abs=1e-15)


def test_sign_variants_flip_offsets():
    s = PhaseState([1.0], [2.0], 0.0)
    y, mu = apply_map(MappingSpec("SignVariant218", bilinear_cf(0.1),
                                  signs=(-1, 1)), s)
    assert y[0] == pytest.approx(0.9)
    assert mu[0] == pytest.approx(2.2)
    with pytest.raises(ValueError, match="Std116"):
        MappingSpec("Std116", bilinear_cf(0.1), signs=(-1, 1))
    for signs in ((2, -1), (1.9, -1.2)):   # refused, not truncated to (1, -1)
        with pytest.raises(ValueError, match="sign"):
            MappingSpec("SignVariant218", bilinear_cf(0.1), signs=signs)
    for signs in ((True, -1), (1.0, -1)):   # phasecore._is_int: never a bool or a float
        with pytest.raises(ValueError, match="^signs must be a pair drawn from"):
            MappingSpec("SignVariant218", bilinear_cf(0.1), signs=signs)
    spec = MappingSpec("SignVariant218", bilinear_cf(0.1), signs=(np.int64(-1), 1))
    assert spec.signs == (-1, 1) and type(spec.signs[0]) is int
    with pytest.raises(ValueError, match="variant"):
        MappingSpec("Affine", bilinear_cf(0.1))


@pytest.mark.parametrize("variant", ["Std116", "Symplectic119", "Cross220"])
def test_fixed_sign_variants_reject_signs(variant):
    for signs in ((-1, 1), (1, 1), (-1, -1)):
        with pytest.raises(ValueError, match=f"^{variant} has fixed signs"):
            MappingSpec(variant, bilinear_cf(0.1), signs=signs)
    assert MappingSpec(variant, bilinear_cf(0.1), signs=(1, -1)).signs == (1, -1)


def test_jacobian_condition_values():
    s = PhaseState([1.0], [2.0], 0.0)
    d1, d2 = jacobian_condition(MappingSpec("Std116",
                                            zero_controlling_function(1)), s)
    assert (d1, d2) == (1.0, 1.0)
    d1, d2 = jacobian_condition(MappingSpec("Std116", bilinear_cf(0.1)), s)
    assert d1 == pytest.approx(1.1) and d2 == pytest.approx(0.9)
    d1, d2 = jacobian_condition(MappingSpec("Std116", bilinear_cf(-1.0)), s)
    assert abs(d1) < 1e-12  # image branch collapses at c = -1
    # the half-step variant: det(E + U_xlam^T / 2) and det(E + U_xlam / 2)
    d1, d2 = jacobian_condition(MappingSpec("Symplectic119", bilinear_cf(0.4)), s)
    assert d1 == d2 == pytest.approx(1.2)


@pytest.mark.parametrize("variant", VARIANTS)
def test_jacobian_condition_checks_the_dimension(variant):
    spec = MappingSpec(variant, zero_controlling_function(2))
    for call in (apply_map, jacobian_condition, symplectic_test):
        with pytest.raises(ValueError,
                           match="^dimension mismatch: controlling function n=2, state n=1$"):
            call(spec, PhaseState([1.0], [1.0], 0.0))


# ---------------------------------------------------------------------
# canonicity along a flow
# ---------------------------------------------------------------------

def test_zero_control_canonical_along_flow():
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0), 1.0, 1e-2)
    rep = canonicity_residual(linear_system(),
                              MappingSpec("Std116", zero_controlling_function(1)),
                              traj)
    assert rep.verdict == "canonical"
    assert rep.max_residual == 0.0
    assert rep.jacobian_min_abs_det == 1.0


def test_quarter_turn_reports_degenerate_blocks():
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0), 1.0, 1e-2)
    rep = canonicity_residual(linear_system(),
                              MappingSpec("Cross220", quarter_turn_cf()), traj)
    # both image-side block determinants vanish identically here, and that
    # diagnosis outranks the (large) residual
    assert rep.verdict == "degenerate"
    assert np.all(rep.det_y_series == 0.0)
    # raw residual at t=0 is -(x^2 + lam^2) = -2 exactly
    assert rep.residual_series[0] == pytest.approx(-2.0, abs=1e-12)
    scaled_end = (np.exp(2.0) + np.exp(-2.0)) / (1.0 + np.exp(-2.0))
    assert rep.max_residual == pytest.approx(scaled_end, rel=1e-4)


def test_violated_map_flagged():
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0), 1.0, 1e-2)
    rep = canonicity_residual(linear_system(),
                              MappingSpec("Std116", bilinear_cf(0.3)), traj)
    assert rep.verdict == "violated"
    assert rep.jacobian_min_abs_det == pytest.approx(0.7)
    # residual r = 0.09 * x * lam = 0.09 on the product-invariant line
    assert rep.max_residual == pytest.approx(0.09, rel=1e-10)


def test_residual_points_requires_states():
    with pytest.raises(ValueError, match="nonempty"):
        canonicity_residual_points(linear_system(),
                                   MappingSpec("Std116", bilinear_cf()), [])


@pytest.mark.parametrize("lam", [1e150, 1e160, 1e300])
def test_residual_scale_survives_multipliers_past_the_square_range(lam):
    # |lam|^2 overflows past about 1.3e154; the scale max(1, |lam||U_lam|)
    # must not: U = 0 leaves r = 0 (no inf * 0 = nan), and U = 0.1 x lam on
    # xdot = x gives r / scale = 0.1 for every |lam||U_lam| >= 1 (no r / inf).
    s = PhaseState([0.5], [lam], 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero = [canonicity_residual_points(
            linear_system(), MappingSpec(v, zero_controlling_function(1)), [s])
            for v in ("Std116", "Cross220")]
        bilinear = canonicity_residual_points(
            linear_system(), MappingSpec("Std116", bilinear_cf(0.1)), [s])
    for rep in zero:
        assert rep.max_residual == 0.0 and rep.verdict == "canonical"
    assert bilinear.max_residual == pytest.approx(0.1, rel=1e-12)
    assert bilinear.verdict == "violated"


@pytest.mark.parametrize("variant", ["Std116", "Cross220"])
def test_canonicity_pass_memory_is_bounded_in_n(variant):
    # n = 40 over 501 samples: one pass over them all holds (501, 40, 40)
    # temporaries of 6.4 MB each (a 25 MB peak at 1,501 samples); passes of
    # 2^16 / n^2 = 40 samples hold 0.5 MB each
    n = 40
    traj = integrate(linear_system(n), PhaseState(np.full(n, 0.1), np.ones(n), 0.0), 0.5, 1e-3)
    spec = MappingSpec(variant, zero_controlling_function(n))
    tracemalloc.start()
    try:
        report = canonicity_residual(linear_system(n), spec, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "canonical" and report.times.size == 501
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------
# initial-multiplier synthesis
# ---------------------------------------------------------------------

def rotation_system():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return DynamicSystem(dim=2, f=lambda x, t: A @ x,
                         jac=lambda x, t: A, autonomous=True)


def small_bilinear_cf2(c=0.01):
    n = 2
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


def test_lambda0_bilinear_root_matches_closed_form():
    # U = c x.lam on A = [[0, 1], [-1, 0]]: the Std116 residual is
    # c^2 lam.Ax, whose root in lam_k is -sum_{j != k} lam_j (Ax)_j / (Ax)_k.
    # The slope in lam_k is c^2 (Ax)_k, small for c = 0.01, so |g| alone
    # says little about the root; Newton runs to the rounding floor of g.
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rng = np.random.default_rng(7)
    for i in range(50):
        x0, lam0 = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
        k = i % 2
        Ax = A @ x0
        exact = -lam0[1 - k] * Ax[1 - k] / Ax[k]
        res = synthesize_lambda0(rotation_system(), small_bilinear_cf2(0.0143),
                                 x0=x0, lam0=lam0, k=k)
        assert res.status == "ok"
        assert abs(res.value - exact) < 1e-12


def test_lambda0_zero_control_indeterminate():
    res = synthesize_lambda0(rotation_system(), zero_controlling_function(2),
                             x0=[0.0, 1.0], lam0=[0.0, 1.0], k=0)
    assert res.status == "indeterminate"
    assert res.g_residual < 1e-10


def test_lambda0_rotation_field_root():
    res = synthesize_lambda0(rotation_system(), small_bilinear_cf2(),
                             x0=[0.0, 1.0], lam0=[0.0, 1.0], k=0)
    assert res.status == "ok"
    assert res.g_residual < 1e-10
    assert np.isfinite(res.value)


def test_lambda0_degenerate_pivot_raises():
    # U = x + lam t on f = x at t0 = 1: the pivot coefficient C_k is
    # identically zero while g stays at -1, so no choice of lam0k helps.
    cf = ControllingFunction(
        dim=1,
        u=lambda x, lam, t: float(x[0] + lam[0] * t),
        ux=lambda x, lam, t: np.ones(1),
        ulam=lambda x, lam, t: np.array([t]),
        ut=lambda x, lam, t: float(lam[0]),
        uxlam=lambda x, lam, t: np.zeros((1, 1)),
        uxx=lambda x, lam, t: np.zeros((1, 1)),
        ulamlam=lambda x, lam, t: np.zeros((1, 1)),
        uxt=lambda x, lam, t: np.zeros(1),
        ulamt=lambda x, lam, t: np.ones(1),
    )
    with pytest.raises(DegeneratePivotError, match="choose another k"):
        synthesize_lambda0(linear_system(), cf, x0=[1.0], lam0=[0.5], k=0,
                           t0=1.0)


def test_lambda0_k_validated():
    # a bool or a non-integer k is refused, not met as NumPy's IndexError;
    # a NumPy integer pivots as the int does
    args = (rotation_system(), small_bilinear_cf2(), [0.0, 1.0], [0.0, 1.0])
    for variant in ("Std116", "Cross220"):
        for k in (2, -1, 0.0, 1.0, True):
            with pytest.raises(ValueError, match="k"):
                synthesize_lambda0(*args, k=k, variant=variant)
        res, ref = (synthesize_lambda0(*args, k=k, variant=variant) for k in (np.int64(1), 1))
        assert (res.value, res.status, res.lam0.tolist()) == (ref.value, ref.status,
                                                              ref.lam0.tolist())


def test_lambda0_variant_validated():
    # MappingSpec refuses an unknown name, the criterion check a variant
    # that has no canonicity criterion
    args = (rotation_system(), small_bilinear_cf2(), [0.0, 1.0], [0.0, 1.0], 0)
    with pytest.raises(ValueError, match="^unknown variant 'Cross'"):
        synthesize_lambda0(*args, variant="Cross")
    with pytest.raises(ValueError, match="^canonicity criterion is defined for Std116 and "
                                         "Cross220, not 'Symplectic119'$"):
        synthesize_lambda0(*args, variant="Symplectic119")


@pytest.mark.parametrize("variant", ["Std116", "Cross220"],
                         ids=["synthesize_lambda0", "synthesize_lambda0_cross"])
def test_lambda0_state_validated(variant):
    sysr, cf = rotation_system(), small_bilinear_cf2()
    synth = functools.partial(synthesize_lambda0, variant=variant)
    for x0, lam0 in (([0.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 1.0, 2.0])):
        with pytest.raises(ValueError, match="^x and lam must be 1-d arrays of identical dimension$"):
            synth(sysr, cf, x0=x0, lam0=lam0, k=0)
    with pytest.raises(ValueError, match="^dimension mismatch: system n=2, state n=3$"):
        synth(sysr, cf, x0=[0.0, 1.0, 2.0], lam0=[0.0, 1.0, 2.0], k=0)
    with pytest.raises(ValueError, match=r"^non-finite phase state: x=\[ 0. nan\]"):
        synth(sysr, cf, x0=[0.0, np.nan], lam0=[0.0, 1.0], k=0)


@pytest.mark.parametrize("variant, cf, x0", [("Std116", bilinear_cf(), [1.0]),
                                             ("Cross220", quarter_turn_cf(), [0.0])],
                         ids=["Std116", "Cross220"])
def test_lambda0_takes_the_lift_once_per_solve(variant, cf, x0):
    # x0 and t0 stay fixed while the root solve varies lam0_k, so f and A
    # are taken once however many residuals the solve evaluates
    calls = []
    counted = DynamicSystem(dim=1, f=lambda x, t: calls.append("f") or x,
                            jac=lambda x, t: calls.append("jac") or np.eye(1), autonomous=True)
    res = synthesize_lambda0(counted, cf, x0=x0, lam0=[0.5], k=0, variant=variant)
    ref = synthesize_lambda0(linear_system(), cf, x0=x0, lam0=[0.5], k=0, variant=variant)
    assert (res.value, res.status, res.g_residual) == (ref.value, ref.status, ref.g_residual)
    assert sorted(calls) == ["f", "jac"]


def test_lambda0_cross_quarter_turn_double_root():
    # g(lam0) = -(lam0^2 + x0^2): at x0 = 0 the root at zero is a double
    # root with no sign change, reachable only through the damped polish.
    res = synthesize_lambda0(linear_system(), quarter_turn_cf(),
                             x0=[0.0], lam0=[0.5], k=0, variant="Cross220")
    assert res.status == "ok"
    assert abs(res.value) < 1e-6
    assert res.g_residual < 1e-10


def test_lambda0_cross_no_root():
    with pytest.raises(RootNotFoundError, match="sign change"):
        synthesize_lambda0(linear_system(), quarter_turn_cf(),
                           x0=[1.0], lam0=[0.5], k=0, variant="Cross220")


def _pivot_equation(G):
    """synthesize_lambda0 from the guess lam0 = (guess, 0) on a system and U
    whose Std116 equation in lam0_0 = v is g(v) = G(v) exactly: f = 0 leaves
    (U_x - lam) . U_lamt - U_lam . lamdot = (-v, 1) . (0, G(v)) - 0.  Every
    block is given, so u itself is never evaluated."""
    z1, z2 = np.zeros(2), np.zeros((2, 2))
    sys0 = DynamicSystem(dim=2, f=lambda x, t: np.zeros(2), jac=lambda x, t: np.zeros((2, 2)),
                         autonomous=True)
    cf = ControllingFunction(2, u=lambda x, lam, t: 0.0, ux=[0.0, 1.0], ulam=z1, ut=0.0,
                             uxlam=z2, uxx=z2, ulamlam=z2, uxt=z1,
                             ulamt=lambda x, lam, t: [0.0, G(lam[0])])
    return lambda guess: synthesize_lambda0(sys0, cf, x0=[0.0, 0.0], lam0=[guess, 0.0], k=0)


@pytest.mark.parametrize("root", [2.0, -2.0], ids=["upper-end", "lower-end"])
def test_lambda0_takes_a_bracket_end_that_is_a_root(root):
    # g = (v - root)^2 touches zero with no sign change.  The Newton step
    # from the guess 0 lands on root / 2 (scale 1), so the first bracket
    # [root/2 - 1, root/2 + 1] ends on the root, which is taken as found:
    # the second bracket, 10 around the initializer, is never tried.
    at = []
    res = _pivot_equation(lambda v: at.append(v) or (v - root) ** 2)(0.0)
    assert res.status == "ok"
    assert abs(res.value - root) < 1e-14 and res.g_residual < 1e-10
    assert not any(5.0 < abs(v) < 50.0 for v in at)


def test_lambda0_bisection_stops_at_its_iteration_cap():
    # g = tanh(v - 0.3) is flat at the guess 1e47, which stays the
    # initializer (scale 1e47).  The first bracket [0, 1e47] holds the sign
    # change, and its 200 halvings leave 1e47 / 2^200 = 6e-14 > 1e-14 of it:
    # the cap, not the width, ends the bisection, and Newton polishes.
    res = _pivot_equation(lambda v: math.tanh(v - 0.3))(1e47)
    assert res.status == "ok"
    assert abs(res.value - 0.3) < 1e-15 and res.g_residual < 1e-10


def test_lambda0_newton_step_that_overflows_is_no_root():
    # g = 1 + 1e-9 v / 1e300 keeps its sign within 1e303 of the guess 1e300,
    # so the Newton fallback runs.  Its slope, 1e-309, makes the first step
    # overflow, and Newton gives up before g sees a non-finite multiplier.
    def g(v):
        if not math.isfinite(v):
            pytest.fail(f"g evaluated at lam0_k = {v}")
        return 1.0 + 1e-9 * (v / 1e300)
    # |lam|^2 overflows in the residual's scale, which g does not read
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RootNotFoundError, match="Newton fallback failed"):
            _pivot_equation(g)(1e300)


def test_lambda0_newton_fallback_stops_at_its_iteration_cap():
    # g = (v - 1)^4 touches zero at 1, with no sign change and no bracket end
    # near it, so the Newton fallback runs from the initializer 0.25.  At a
    # quadruple root each step keeps 3/4 of the distance (more once it falls
    # below the difference step), so Newton stops at its 60-step cap, short
    # of the root yet with |g| far below the acceptance tolerance.
    at = []
    res = _pivot_equation(lambda v: at.append(v) or (v - 1.0) ** 4)(0.0)
    assert res.status == "ok" and res.g_residual < 1e-10
    assert 1e-8 < abs(res.value - 1.0) < 1e-6
    # 16 evaluations before the fallback (the first Newton step, the probes
    # and the brackets), then g at the start and 3 per Newton step
    assert len(at) == 16 + 1 + 3 * 60


@pytest.mark.parametrize("call", [
    lambda sys_, cf: synthesize_lambda0(sys_, cf, x0=[0.0, 1.0], lam0=[0.0, 1.0], k=0),
    lambda sys_, cf: synthesize_lambda0(sys_, cf, x0=[0.0, 1.0], lam0=[0.0, 1.0], k=0,
                                        variant="Cross220"),
    lambda sys_, cf: canonicity_residual(
        sys_, MappingSpec("Std116", cf),
        integrate(sys_, PhaseState([0.0, 1.0], [0.0, 1.0], 0.0), 0.1, 0.05)),
    lambda sys_, cf: canonicity_residual_points(
        sys_, MappingSpec("Cross220", cf), [PhaseState([0.0, 1.0], [0.0, 1.0], 0.0)]),
], ids=["synthesize_lambda0", "synthesize_lambda0_cross", "canonicity_residual",
        "canonicity_residual_points"])
def test_controlling_function_dimension_mismatch(call):
    with pytest.raises(ValueError, match="dimension mismatch: controlling function n=1, system n=2"):
        call(rotation_system(), bilinear_cf())


def quadratic_cf(B, P, Q):
    """U = x.(B lam) + x.(P x)/2 + lam.(Q lam)/2 with P, Q symmetric, in B's dimension."""
    z = np.zeros(len(B))
    return ControllingFunction(
        dim=len(B),
        u=lambda x, lam, t: float(x @ B @ lam + 0.5 * x @ P @ x + 0.5 * lam @ Q @ lam),
        ux=lambda x, lam, t: B @ lam + P @ x,
        ulam=lambda x, lam, t: B.T @ x + Q @ lam,
        ut=lambda x, lam, t: 0.0,
        uxlam=lambda x, lam, t: B,
        uxx=lambda x, lam, t: P,
        ulamlam=lambda x, lam, t: Q,
        uxt=lambda x, lam, t: z,
        ulamt=lambda x, lam, t: z,
    )


@settings(max_examples=40, deadline=None)
@given(a=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
       u=st.lists(st.floats(-0.5, 0.5), min_size=10, max_size=10),
       z=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
       k=st.integers(0, 3), variant=st.sampled_from(["Std116", "Cross220"]),
       lifted=st.booleans())
@example(a=[0.0, 1.0, 0.0, 0.0], u=[0.0] * 8 + [0.5, 0.0], z=[0.0] * 4, k=0,
         variant="Std116", lifted=False)   # the Newton polish meets a zero slope
def test_synthesis_solves_the_verified_residual(a, u, z, k, variant, lifted):
    p, q = u[4:7], u[7:10]
    B, P, Q = (np.array(u[:4]).reshape(2, 2), np.array([[p[0], p[1]], [p[1], p[2]]]),
               np.array([[q[0], q[1]], [q[1], q[2]]]))
    if lifted:   # the lift's printed adjoint rounds apart from (-A^T) lam
        sys_, x0, lam0 = ballistic_system(1.0), [z[0], z[1], 1.0 + z[2] ** 2, z[3]], z
        B, P, Q = (np.kron(np.eye(2), M) for M in (B, P, Q))
    else:
        A = np.array(a).reshape(2, 2)
        sys_ = DynamicSystem(dim=2, f=lambda x, t: A @ x, jac=lambda x, t: A,
                             autonomous=True)
        x0, lam0, k = z[:2], z[2:], k % 2
    cf = quadratic_cf(B, P, Q)
    try:
        res = synthesize_lambda0(sys_, cf, x0=x0, lam0=lam0, k=k, t0=0.3, variant=variant)
    except (DegeneratePivotError, RootNotFoundError):
        return
    rep = canonicity_residual_points(sys_, MappingSpec(variant, cf),
                                     [PhaseState(x0, res.lam0, 0.3)])
    assert abs(rep.residual_series[0]) == res.g_residual


# ---------------------------------------------------------------------
# transported gradient synthesis
# ---------------------------------------------------------------------

def test_ulam_zero_jacobian_is_frozen():
    const = DynamicSystem(dim=2, f=lambda x, t: np.array([1.0, 2.0]),
                          jac=lambda x, t: np.zeros((2, 2)), autonomous=True)
    traj = integrate(const, PhaseState([0.0, 0.0], [1.0, 1.0], 0.0), 1.0, 1e-2)
    ulam0 = np.array([0.4, -0.2])
    synth = synthesize_ulam(const, traj, ulam0)
    assert np.max(np.abs(synth.ulam_series - ulam0)) == 0.0


def test_ulam0_validated():
    traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0), 0.1, 0.05)
    with pytest.raises(ValueError, match="^ulam0 must have the system dimension$"):
        synthesize_ulam(linear_system(), traj, [1.0, 2.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^ulam0 must be finite$"):
            synthesize_ulam(linear_system(), traj, [bad])


def test_ulam_scalar_growth():
    a = 0.8
    traj = integrate(linear_system(a=a), PhaseState([1.0], [1.0], 0.0),
                     1.0, 1e-3)
    synth = synthesize_ulam(linear_system(a=a), traj, np.array([1.0]))
    ts = traj.t
    assert np.max(np.abs(synth.ulam_series[:, 0] - np.exp(a * ts))) < 1e-8


def test_ulam_end_to_end_canonical():
    sysr = rotation_system()
    traj = integrate(sysr, PhaseState([1.0, -0.5], [1.0, 0.5], 0.0),
                     1.0, 1e-3)
    synth = synthesize_ulam(sysr, traj, np.array([1.0, 0.5]))
    rep = canonicity_residual(sysr, MappingSpec("Std116", synth.cf), traj)
    assert rep.verdict == "canonical"
    assert rep.max_residual < 1e-8


# ---------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------

def test_invert_map_roundtrip():
    spec = MappingSpec("Std116", bilinear_cf(0.2))
    s = PhaseState([1.3], [-0.7], 0.0)
    y, mu = apply_map(spec, s)
    x, lam = invert_map(spec, y, mu, 0.0, x_init=y, lam_init=mu)
    assert abs(x[0] - 1.3) < 1e-9
    assert abs(lam[0] + 0.7) < 1e-9


def test_invert_map_failure_reported():
    # c = -1 collapses the image onto y = 0, so y = 1 has no preimage
    spec = MappingSpec("Std116", bilinear_cf(-1.0))
    with pytest.raises(ConvergenceError, match="inver"):
        invert_map(spec, np.array([1.0]), np.array([1.0]), 0.0,
                   x_init=np.array([0.5]), lam_init=np.array([0.5]))


def test_invert_map_non_finite_residual_reported():
    # U = sqrt(x) lam is NaN for x < 0, so the start x = -0.5 has no residual
    cf = ControllingFunction(1, lambda x, lam, t: float(np.sqrt(x[0]) * lam[0]))
    with np.errstate(invalid="ignore"), pytest.raises(
            ConvergenceError, match=r"non-finite residual \[nan nan\]"):
        invert_map(MappingSpec("Std116", cf), [1.0], [1.0], 0.0, x_init=[-0.5])


@pytest.mark.parametrize("start", [dict(x_init=[np.nan]), dict(x_init=[np.inf]),
                                   dict(lam_init=[-np.inf])])
def test_invert_map_from_a_non_finite_start_reported(start):
    with pytest.raises(ConvergenceError, match=r"non-finite residual \[nan nan\]"):
        invert_map(MappingSpec("Std116", bilinear_cf(0.2)), [1.0], [1.0], 0.0, **start)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_invert_map_refuses_a_non_finite_time_whatever_the_start(t):
    # U is free of t, so the residual is finite wherever the start is; the
    # time is refused before any step, also from a start that is already a
    # root and for the zero U, which takes no step anywhere.
    spec = MappingSpec("Std116", bilinear_cf(0.2))
    with pytest.raises(ValueError, match="^non-finite"):
        invert_map(spec, [1.0], [1.0], t)
    y, mu = apply_map(spec, PhaseState([1.0], [1.0], 0.0))
    with pytest.raises(ValueError, match="^non-finite"):
        invert_map(spec, y, mu, t, x_init=[1.0], lam_init=[1.0])
    with pytest.raises(ValueError, match="^non-finite"):
        invert_map(MappingSpec("Std116", zero_controlling_function(1)), [1.0], [1.0], t)


def test_invert_map_non_finite_step_is_not_a_reduction():
    # U = sqrt(x) lam with analytic U_x, U_lam: at x = 5e-7 the residual is
    # finite, but U_xx's FD stencil (step 1e-6) reaches x < 0, so the Newton
    # matrix and every damped step are NaN; none may count as progress.
    cf = ControllingFunction(1, lambda x, lam, t: float(np.sqrt(x[0]) * lam[0]),
                             ux=lambda x, lam, t: 0.5 / np.sqrt(x) * lam,
                             ulam=lambda x, lam, t: np.sqrt(x))
    with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError, match="stalled"):
        invert_map(MappingSpec("Std116", cf), [0.1], [1.0], 0.0, x_init=[5e-7])


def test_invert_map_fd_backed_failure_reported():
    # the FD twin of the case above: U = -x lam with only u given
    spec = MappingSpec("Std116", ControllingFunction(1, lambda x, lam, t: -float(x @ lam)))
    assert {"ux", "ulam"} <= spec.cf.fd_backed
    with pytest.raises(ConvergenceError, match="inver"):
        invert_map(spec, np.array([1.0]), np.array([1.0]), 0.0,
                   x_init=np.array([0.5]), lam_init=np.array([0.5]))


@pytest.mark.parametrize("kwargs, name, size", [
    ({"y": [1.0]}, "y", 1),
    ({"mu": [1.0, 2.0, 3.0]}, "mu", 3),
    ({"x_init": [0.0]}, "x_init", 1),
    ({"lam_init": [0.0, 0.0, 0.0]}, "lam_init", 3),
], ids=["y", "mu", "x_init", "lam_init"])
def test_invert_map_dimension_mismatch(kwargs, name, size):
    args = dict({"y": [1.0, 0.5], "mu": [0.2, -0.4]}, **kwargs)
    with pytest.raises(ValueError,
                       match=f"dimension mismatch: controlling function n=2, {name} n={size}$"):
        invert_map(MappingSpec("Std116", small_bilinear_cf2()), t=0.0, **args)


SIGN_PAIRS = ((1, -1), (-1, 1), (1, 1), (-1, -1))


def _signs_of(variant):
    """Every sign pair for the sign variants; the default (1, -1) for the rest."""
    return SIGN_PAIRS if variant.startswith("SignVariant") else ((1, -1),)


def _variant_specs(cf):
    for variant in VARIANTS:
        for signs in _signs_of(variant):
            yield MappingSpec(variant, cf, signs=signs)


# The variants as written out: (s1, s2, U_x, U_lam) -> (y - x, mu - lam).
OFFSETS = {
    "Std116": lambda s1, s2, ux, ulam: (ulam, -ux),
    "Symplectic119": lambda s1, s2, ux, ulam: (0.5 * ulam, 0.5 * ux),
    "SignVariant218": lambda s1, s2, ux, ulam: (s1 * ulam, s2 * ux),
    "SignVariant219": lambda s1, s2, ux, ulam: (s1 * ux, s2 * ulam),
    "Cross220": lambda s1, s2, ux, ulam: (ux, -ulam),
}


def _image_cf(held):
    """n = 2 U whose first blocks are closures in x, lam and t, or, held,
    constant arrays (the other blocks FD-backed, which no image reads)."""
    if held:
        c, d = np.array([0.3, -0.2]), np.array([0.5, 0.1])
        return ControllingFunction(2, lambda x, lam, t: float(c @ x + d @ lam), ux=c, ulam=d)
    return ControllingFunction(
        2, lambda x, lam, t: float(np.sin(x) @ lam + 0.5 * t * x @ x),
        ux=lambda x, lam, t: np.cos(x) * lam + t * x, ulam=lambda x, lam, t: np.sin(x))


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("variant, signs", [(v, s) for v in VARIANTS for s in _signs_of(v)])
def test_images_of_a_stack_a_state_and_apply_map_agree(variant, signs, held):
    spec = MappingSpec(variant, _image_cf(held), signs=signs)
    rng = np.random.default_rng(5)
    t, X, LAM = rng.uniform(0.0, 1.0, 6), rng.uniform(-2, 2, (6, 2)), rng.uniform(-2, 2, (6, 2))
    Y, MU = _images(spec, t, X, LAM)
    I = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    for i, ti in enumerate(t.tolist()):
        s = PhaseState(X[i], LAM[i], ti)
        for y, mu in (_images(spec, ti, X[i], LAM[i]), apply_map(spec, s)):
            assert y.tobytes() == Y[i].tobytes() and mu.tobytes() == MU[i].tobytes()
        # reference defect: apply_map on a PhaseState built at each stencil point
        J = _central_diff_x(
            lambda z: np.concatenate(apply_map(spec, PhaseState(z[:2], z[2:], ti))), s.z())
        assert symplectic_test(spec, s) == float(np.max(np.abs(J.T @ I @ J - I)))


def test_variant_table_image_and_jacobian():
    # B is not symmetric, so a U_xlam used where its transpose belongs shows
    B = np.array([[0.3, -0.7], [0.5, 0.2]])
    P = np.array([[0.4, 0.1], [0.1, -0.6]])
    Q = np.array([[-0.2, 0.3], [0.3, 0.8]])
    cf = quadratic_cf(B, P, Q)
    z = np.array([0.7, -1.1, 0.4, 1.3])
    s = PhaseState(z[:2], z[2:], 0.2)
    for spec in _variant_specs(cf):
        dy, dmu = OFFSETS[spec.variant](*spec.signs, cf.ux(s.x, s.lam, s.t),
                                        cf.ulam(s.x, s.lam, s.t))
        y, mu = apply_map(spec, s)
        assert np.array_equal(y, s.x + dy) and np.array_equal(mu, s.lam + dmu)
        ref = _central_diff_x(
            lambda v: np.concatenate(apply_map(spec, PhaseState(v[:2], v[2:], 0.2))), z)
        err = np.max(np.abs(_map_jacobian(spec, s.t, s.x, s.lam) - ref))
        assert err < 1e-8, (spec.variant, spec.signs, err)
        # jacobian_condition: the determinants of the diagonal blocks dy/dx, dmu/dlam
        dets = np.linalg.det(ref[:2, :2]), np.linalg.det(ref[2:, 2:])
        err = np.max(np.abs(np.subtract(jacobian_condition(spec, s), dets)))
        assert err < 1e-8, (spec.variant, spec.signs, err)


def _counting_cf(cf):
    """cf with every block wrapped in a counter: (counted cf, block -> calls)."""
    calls = dict.fromkeys(("u", *_FD_RULE), 0)

    def counted(block):
        def f(x, lam, t):
            calls[block] += 1
            return getattr(cf, block)(x, lam, t)
        return f
    return ControllingFunction(cf.dim, **{b: counted(b) for b in calls}), calls


@pytest.mark.parametrize("variant, never", [("Std116", {"uxx", "uxt"}),
                                            ("Cross220", {"ulamt"})])
def test_canonicity_calls_each_block_once_per_sample(variant, never):
    B = np.array([[0.3, -0.7], [0.5, 0.2]])
    cf, calls = _counting_cf(quadratic_cf(B, np.eye(2), -np.eye(2)))
    sys_ = DynamicSystem(dim=2, f=lambda x, t: B @ x, jac=lambda x, t: B, autonomous=True)
    traj = integrate(sys_, PhaseState([0.7, -1.1], [0.4, 1.3], 0.0), 0.1, 0.01)
    canonicity_residual(sys_, MappingSpec(variant, cf), traj)
    assert {b for b, k in calls.items() if k} & never == set()
    assert {k for k in calls.values() if k} == {len(traj)}, calls


@pytest.mark.parametrize("variant", VARIANTS)
def test_map_jacobian_calls_each_second_block_once(variant):
    B = np.array([[0.3, -0.7], [0.5, 0.2]])
    cf, calls = _counting_cf(quadratic_cf(B, np.eye(2), -np.eye(2)))
    _map_jacobian(MappingSpec(variant, cf), 0.0, np.array([0.7, -1.1]), np.array([0.4, 1.3]))
    assert {b: k for b, k in calls.items() if k} == {"uxx": 1, "uxlam": 1, "ulamlam": 1}


def _wavy_cfs(eps=0.1):
    """U = eps (sin(x).lam + |x*lam|^2 / 2) on n = 2: once with every block
    given, once by value alone (every block FD-backed)."""
    def u(x, lam, t):
        return eps * (float(np.sin(x) @ lam) + 0.5 * float((x * x) @ (lam * lam)))
    analytic = ControllingFunction(
        2, u, ux=lambda x, lam, t: eps * (np.cos(x) * lam + x * lam * lam),
        ulam=lambda x, lam, t: eps * (np.sin(x) + x * x * lam),
        uxlam=lambda x, lam, t: eps * np.diag(np.cos(x) + 2.0 * x * lam),
        uxx=lambda x, lam, t: eps * np.diag(-np.sin(x) * lam + lam * lam),
        ulamlam=lambda x, lam, t: eps * np.diag(x * x))
    return {"analytic": analytic, "fd": ControllingFunction(2, u)}


@pytest.mark.parametrize("kind", ["analytic", "fd"])
def test_map_jacobian_pinned_to_its_block_assembly(kind):
    # the in-place fill equals np.block over the same four blocks bit for bit
    cf = _wavy_cfs()[kind]
    rng = np.random.default_rng(11)
    states = [PhaseState([-0.0, 0.0], [0.0, -0.0], 0.0)] + [
        PhaseState(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2), 0.4) for _ in range(4)]
    for spec in _variant_specs(cf):
        a, gy, b, gmu = _FORM[spec.variant](*spec.signs)
        for s in states:
            rows, E = _rows(cf, s.t, s.x, s.lam), np.eye(2)
            (yx, ylam), (mux, mulam) = ([d(rows) for d in _DG[g]] for g in (gy, gmu))
            ref = np.block([[E + a * yx, a * ylam], [b * mux, E + b * mulam]])
            got = _map_jacobian(spec, s.t, s.x, s.lam)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), spec.variant


@settings(max_examples=60, deadline=None)
@given(u=st.lists(st.floats(-0.2, 0.2), min_size=10, max_size=10),
       z=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
       variant=st.sampled_from(VARIANTS), signs=st.sampled_from(SIGN_PAIRS))
def test_invert_map_undoes_apply_map(u, z, variant, signs):
    # entries of at most 0.2 keep the affine map's Jacobian well away from singular
    p, q = u[4:7], u[7:10]
    cf = quadratic_cf(np.array(u[:4]).reshape(2, 2), np.array([[p[0], p[1]], [p[1], p[2]]]),
                       np.array([[q[0], q[1]], [q[1], q[2]]]))
    spec = MappingSpec(variant, cf, signs=signs if signs in _signs_of(variant) else (1, -1))
    y, mu = apply_map(spec, PhaseState(z[:2], z[2:], 0.3))
    x, lam = invert_map(spec, y, mu, 0.3)
    assert np.max(np.abs(np.concatenate([x, lam]) - z)) < 1e-9


def test_invert_map_fd_backed_reaches_the_rounding_floor():
    # U = 0.1 (sin(x).lam + |x*lam|^2 / 2) with every block FD-backed: the
    # noise of U_x and U_lam (near 1e-11) sits above 1e-12, so each inversion
    # ends at the map's rounding floor rather than at the absolute tolerance.
    def u(x, lam, t):
        return 0.1 * (float(np.sin(x) @ lam) + 0.5 * float((x * x) @ (lam * lam)))

    spec = MappingSpec("Std116", ControllingFunction(2, u))
    rng = random.Random(0)
    for _ in range(50):
        z = np.array([rng.uniform(-1.0, 1.0) for _ in range(4)])
        y, mu = apply_map(spec, PhaseState(z[:2], z[2:], 0.0))
        x, lam = invert_map(spec, y, mu, 0.0)
        assert np.max(np.abs(np.concatenate([x, lam]) - z)) < 1e-9


def test_invert_map_fd_backed_out_of_iterations_reported():
    # U = 0.0005 x^2 with U_x FD-backed, and a given U_xx of 1.5 where the
    # true one is 0.001: each Newton step cuts max|r| by only 0.6, so after
    # 50 iterations r is near 2e-11, still falling.  That is above tol
    # (1e-12) though below the FD floor bound (about 9e-10), and no step has
    # stalled, so the iterate is no root.
    cf = ControllingFunction(1, lambda x, lam, t: 0.0005 * float(x @ x),
                             uxx=lambda x, lam, t: [[1.5]])
    assert "ux" in cf.fd_backed
    with pytest.raises(ConvergenceError, match="inver.* in 50 iterations"):
        invert_map(MappingSpec("Cross220", cf), [1.0], [0.0], 0.0, x_init=[-1.0], lam_init=[0.0])


# ---------------------------------------------------------------------
# the array core of the canonicity checks against the per-sample equation
# ---------------------------------------------------------------------

# The canonicity equation one PhaseState at a time, as canomap evaluated it
# before the array core (second blocks now called directly, since U has no
# accessors for them): the reference that core must match bit for bit.
def _udot_lam(cf, s, xdot, lamdot):
    """Total time derivative of U_lam restricted to the flow."""
    return (cf.uxlam(s.x, s.lam, s.t).T @ xdot + cf.ulamlam(s.x, s.lam, s.t) @ lamdot
            + cf.ulamt(s.x, s.lam, s.t))


def _udot_x(cf, s, xdot, lamdot):
    """Total time derivative of U_x restricted to the flow."""
    return (cf.uxx(s.x, s.lam, s.t) @ xdot + cf.uxlam(s.x, s.lam, s.t) @ lamdot
            + cf.uxt(s.x, s.lam, s.t))


def _rates_at(sys, s):
    """(xdot, lamdot) at s as a march forms them: the system's lift when it
    supplies one, else canonical_rhs."""
    if sys.lift is None:
        return canonical_rhs(sys, s)
    k = np.asarray(sys.lift(s.x, s.lam, s.t), dtype=float)
    return k[:sys.dim], k[sys.dim:]


def _residual_at(sys, spec, s):
    cf = spec.cf
    xdot, lamdot = _rates_at(sys, s)
    ux = cf.ux(s.x, s.lam, s.t)
    ulam = cf.ulam(s.x, s.lam, s.t)
    if spec.variant == "Std116":
        r = float((ux - s.lam) @ _udot_lam(cf, s, xdot, lamdot) - ulam @ lamdot)
    else:  # Cross220
        r = float((s.lam - ulam) @ _udot_x(cf, s, xdot, lamdot)
                  - (ulam - ux) @ xdot + ulam @ lamdot)
    scale = max(1.0, float(np.linalg.norm(s.lam)) * float(np.linalg.norm(ulam)))
    return r, scale


def _jacobian_condition_at(spec, s):
    cf = spec.cf
    if spec.variant == "Std116":
        M = cf.uxlam(s.x, s.lam, s.t)
        dy, dmu = M.T, -M
    else:  # Cross220
        dy, dmu = cf.uxx(s.x, s.lam, s.t), -cf.ulamlam(s.x, s.lam, s.t)
    E = np.eye(cf.dim)
    return float(np.linalg.det(E + dy)), float(np.linalg.det(E + dmu))


def _assert_reference(rep, sys_, spec, states):
    raws, scaled, dys, dmus = [], [], [], []
    for s in states:
        r, scale = _residual_at(sys_, spec, s)
        raws.append(r)
        scaled.append(abs(r) / scale)
        dy, dmu = _jacobian_condition_at(spec, s)
        dys.append(dy)
        dmus.append(dmu)
    assert rep.residual_series.tobytes() == np.array(raws).tobytes()
    assert rep.det_y_series.tobytes() == np.array(dys).tobytes()
    assert rep.det_mu_series.tobytes() == np.array(dmus).tobytes()
    assert rep.max_residual == float(np.max(scaled))
    assert rep.times.tobytes() == np.array([s.t for s in states]).tobytes()


def random_quadratic_cf(u, n, analytic):
    """U = x.(B lam) + x.(P x)/2 + lam.(Q lam)/2 + t (c.x + d.lam) from the
    numbers u, with P and Q symmetrized; with analytic=False only u is given,
    so every block is FD-backed."""
    u = np.asarray(u)
    B, P, Q = (u[i * n * n:(i + 1) * n * n].reshape(n, n) for i in range(3))
    P, Q = P + P.T, Q + Q.T
    c, d = u[3 * n * n:3 * n * n + n], u[3 * n * n + n:3 * n * n + 2 * n]

    def U(x, lam, t):
        return float(x @ B @ lam + 0.5 * x @ P @ x + 0.5 * lam @ Q @ lam + t * (c @ x + d @ lam))
    if not analytic:
        return ControllingFunction(n, u=U)
    return ControllingFunction(
        n, u=U,
        ux=lambda x, lam, t: B @ lam + P @ x + t * c,
        ulam=lambda x, lam, t: B.T @ x + Q @ lam + t * d,
        ut=lambda x, lam, t: float(c @ x + d @ lam),
        uxlam=lambda x, lam, t: B,
        uxx=lambda x, lam, t: P,
        ulamlam=lambda x, lam, t: Q,
        uxt=lambda x, lam, t: c,
        ulamt=lambda x, lam, t: d,
    )


QUADRATIC = st.lists(st.floats(-0.5, 0.5), min_size=56, max_size=56)   # enough for n = 4
CANONICITY_VARIANTS = st.sampled_from(["Std116", "Cross220"])


@settings(max_examples=40, deadline=None)
@given(a=st.lists(st.floats(-2, 2), min_size=4, max_size=4), u=QUADRATIC,
       z=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
       variant=CANONICITY_VARIANTS, analytic=st.booleans())
def test_array_core_is_the_per_sample_equation_on_linear_fields(a, u, z, variant, analytic):
    A = np.array(a).reshape(2, 2)
    sys_ = DynamicSystem(dim=2, f=lambda x, t: A @ x, jac=lambda x, t: A, autonomous=True)
    spec = MappingSpec(variant, random_quadratic_cf(u, 2, analytic))
    traj = integrate(sys_, PhaseState(z[:2], z[2:], 0.3), 0.8, 0.05)
    _assert_reference(canonicity_residual(sys_, spec, traj), sys_, spec, list(traj))


@settings(max_examples=8, deadline=None)
@given(u=QUADRATIC, variant=CANONICITY_VARIANTS, analytic=st.booleans())
def test_array_core_is_the_per_sample_equation_on_a_ballistic_orbit(u, variant, analytic):
    sysb = ballistic_system(1.0)
    spec = MappingSpec(variant, random_quadratic_cf(u, 4, analytic))
    traj = integrate(sysb, PhaseState([0.0, 1.1, 1.0, 0.0], [0.3, -0.5, 0.7, 0.2], 0.0),
                     0.25, 1e-2)
    _assert_reference(canonicity_residual(sysb, spec, traj), sysb, spec, list(traj))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), u=QUADRATIC, variant=CANONICITY_VARIANTS,
       a=st.lists(st.floats(-2, 2), min_size=9, max_size=9),
       z=st.lists(st.floats(-2, 2), min_size=6, max_size=6))
def test_constant_second_blocks_report_as_their_closures(n, u, variant, a, z):
    # the second blocks of a quadratic U are constants; held, they are
    # broadcast over each pass instead of called per sample, bitwise alike
    A = np.array(a[:n * n]).reshape(n, n)
    sys_ = DynamicSystem(dim=n, f=lambda x, t: A @ x, jac=lambda x, t: A, autonomous=True)
    closures = random_quadratic_cf(u, n, analytic=True)
    second = ("uxlam", "uxx", "ulamlam", "uxt", "ulamt")
    held = ControllingFunction(n, u=closures.u, ux=closures.ux, ulam=closures.ulam,
                               ut=closures.ut, **{b: getattr(closures, b)(0, 0, 0) for b in second})
    assert set(held._constant) == set(second) and not closures._constant
    traj = integrate(sys_, PhaseState(z[:n], z[3:3 + n], 0.3), 0.8, 0.05)
    for report in (lambda cf: canonicity_residual(sys_, MappingSpec(variant, cf), traj),
                   lambda cf: canonicity_residual_points(sys_, MappingSpec(variant, cf),
                                                         list(traj)[::3])):
        want, got = report(closures), report(held)
        for name in ("residual_series", "det_y_series", "det_mu_series"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("variant", ["Std116", "Cross220"])
@pytest.mark.parametrize("analytic", [True, False])
def test_cloud_report_is_its_single_point_reports(variant, analytic):
    rng = np.random.default_rng(11)
    sysb = ballistic_system(1.0)
    spec = MappingSpec(variant, random_quadratic_cf(rng.uniform(-0.5, 0.5, 56), 4, analytic))
    pts = [PhaseState(np.r_[rng.uniform(-1, 1, 2), rng.uniform(0.5, 2), rng.uniform(-1, 1)],
                      rng.uniform(-1, 1, 4), rng.uniform(0, 1)) for _ in range(25)]
    rep = canonicity_residual_points(sysb, spec, pts)
    _assert_reference(rep, sysb, spec, pts)
    singles = [canonicity_residual_points(sysb, spec, [p]) for p in pts]
    for name in ("residual_series", "det_y_series", "det_mu_series", "times"):
        joined = np.concatenate([getattr(one, name) for one in singles])
        assert getattr(rep, name).tobytes() == joined.tobytes(), name
    assert rep.max_residual == max(one.max_residual for one in singles)
    assert rep.jacobian_min_abs_det == min(one.jacobian_min_abs_det for one in singles)
    for i, p in enumerate(pts):
        assert jacobian_condition(spec, p) == (rep.det_y_series[i], rep.det_mu_series[i])


def test_canonicity_errors_keep_their_types_and_messages():
    sys2, cf2 = rotation_system(), small_bilinear_cf2()
    p2 = PhaseState([0.0, 1.0], [0.5, 1.0], 0.0)
    traj = integrate(sys2, p2, 0.1, 0.05)
    with pytest.raises(ValueError, match="^points must be nonempty$"):
        canonicity_residual_points(sys2, MappingSpec("Std116", cf2), [])
    for variant in ("Symplectic119", "SignVariant218", "SignVariant219"):
        spec = MappingSpec(variant, cf2)
        msg = f"^canonicity criterion is defined for Std116 and Cross220, not '{variant}'$"
        with pytest.raises(ValueError, match=msg):
            canonicity_residual(sys2, spec, traj)
        with pytest.raises(ValueError, match=msg):
            canonicity_residual_points(sys2, spec, [p2])
    p3 = PhaseState([0.0, 1.0, 2.0], [0.5, 1.0, 1.5], 0.0)
    for call in (lambda spec: canonicity_residual_points(sys2, spec, [p2, p3]),
                 lambda spec: canonicity_residual(
                     sys2, spec, Trajectory([0.0, 1.0], [p3.x, p3.x], [p3.lam, p3.lam]))):
        for variant in ("Std116", "Cross220"):
            with pytest.raises(ValueError, match="^dimension mismatch: system n=2, state n=3$"):
                call(MappingSpec(variant, cf2))
    sysb = ballistic_system(1.0)
    inside = PhaseState([0.0, 1.0, 1e-7, 0.0], [1.0, 0.0, 0.0, 0.0], 0.0)
    outside = PhaseState([0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0], 0.0)
    orbit = Trajectory([0.0, 1.0], [outside.x, inside.x], [outside.lam, inside.lam])
    for variant in ("Std116", "Cross220"):
        spec = MappingSpec(variant, zero_controlling_function(4))
        with pytest.raises(DomainError, match="^radius 1e-07 at or below the guard 1e-06$"):
            canonicity_residual_points(sysb, spec, [outside, inside])
        with pytest.raises(DomainError, match="^radius 1e-07 at or below the guard 1e-06$"):
            canonicity_residual(sysb, spec, orbit)


# ---------------------------------------------------------------------
# mutations the canonicity residual must see
# ---------------------------------------------------------------------

C_HALF_SQUARE = 0.3


def half_square_cf(c=C_HALF_SQUARE, n=4):
    """U = c |lam|^2 / 2, analytic: U_lam = c lam, U_lamlam = c E, so the
    Std116 residual is (0 - lam) . c lamdot - c lam . lamdot = -2 c lam . lamdot."""
    z, zz = np.zeros(n), np.zeros((n, n))
    return ControllingFunction(
        n,
        u=lambda x, lam, t: 0.5 * c * float(lam @ lam),
        ux=lambda x, lam, t: z,
        ulam=lambda x, lam, t: c * lam,
        ut=lambda x, lam, t: 0.0,
        uxlam=lambda x, lam, t: zz,
        uxx=lambda x, lam, t: zz,
        ulamlam=lambda x, lam, t: c * np.eye(n),
        uxt=lambda x, lam, t: z,
        ulamt=lambda x, lam, t: z,
    )


def _eccentric_orbit(sysb):
    """2,001 samples: the array core runs in blocks of 1,024, so this crosses two seams."""
    return integrate(sysb, PhaseState([0.0, 1.1, 1.0, 0.0], [0.3, -0.5, 0.7, 0.2], 0.0),
                     2.0, 1e-3)


def test_residual_is_the_closed_form_with_the_printed_adjoint():
    sysb = ballistic_system(1.0)
    traj = _eccentric_orbit(sysb)
    spec = MappingSpec("Std116", half_square_cf())
    rep = canonicity_residual(sysb, spec, traj)
    _assert_reference(rep, sysb, spec, list(traj))
    adjoint = lambda s: np.array(sysb.lift(s.x.tolist(), s.lam.tolist(), s.t)[4:])
    expect = np.array([-2.0 * C_HALF_SQUARE * float(s.lam @ adjoint(s)) for s in traj])
    assert np.all(np.abs(rep.residual_series - expect) <= 1e-12 * np.abs(expect))
    assert rep.verdict == "violated"


def test_residual_sees_a_wrong_jacobian_sign():
    sysb = ballistic_system(1.0)
    traj = _eccentric_orbit(sysb)
    spec = MappingSpec("Std116", half_square_cf())

    def flipped(x, t):
        A = sysb.jac(x, t).copy()
        A[0, 1] = -A[0, 1]      # d(v_r')/d(v_phi) = 2 v_phi / r with the wrong sign
        return A
    wrong = DynamicSystem(dim=4, f=sysb.f, jac=flipped, autonomous=True)
    moved = np.abs(canonicity_residual(wrong, spec, traj).residual_series
                   - canonicity_residual(sysb, spec, traj).residual_series)
    assert np.max(moved) > 0.5 * C_HALF_SQUARE
    # energy_drift and action_function also evaluate the system they are given
    doubled = DynamicSystem(dim=4, f=lambda x, t: 2.0 * sysb.f(x, t), jac=sysb.jac,
                            autonomous=True)
    h = energy_drift(sysb, traj).h_series
    assert np.array_equal(energy_drift(doubled, traj).h_series, 2.0 * h)
    dS = action_function(sysb, traj).dS_series
    assert np.max(np.abs(action_function(doubled, traj).dS_series - dS)) > 0.1 * np.max(np.abs(dS))


@pytest.mark.parametrize("k", [0, 17, 1023, 1024, 2000])
def test_residual_sees_a_perturbed_sample_there_only(k):
    sysb = ballistic_system(1.0)
    traj = _eccentric_orbit(sysb)
    spec = MappingSpec("Std116", half_square_cf())
    base = canonicity_residual(sysb, spec, traj).residual_series
    x = traj.x.copy()
    x[k, 2] *= 1.01             # the radius of sample k
    bent = Trajectory(traj.t, x, traj.lam)
    changed = np.flatnonzero(canonicity_residual(sysb, spec, bent).residual_series != base)
    assert changed.tolist() == [k]

"""Mapping variants, canonicity checks, and the two synthesis routes."""
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canomap.phasecore import (ControllingFunction, DynamicSystem, PhaseState,
                               _central_diff_x, zero_controlling_function)
from canomap.hamilton import integrate
from canomap.mapping import (VARIANTS, ConvergenceError, DegeneratePivotError,
                             MappingSpec, RootNotFoundError, _map_jacobian, apply_map,
                             canonicity_residual, canonicity_residual_points,
                             invert_map, jacobian_condition, synthesize_lambda0,
                             synthesize_lambda0_cross, synthesize_ulam)


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
    with pytest.raises(ValueError, match="sign"):
        MappingSpec("SignVariant218", bilinear_cf(0.1), signs=(2, -1))
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
    # the half-step variant reports one shared value, 1 + det(U_xlam)/4
    d1, d2 = jacobian_condition(MappingSpec("Symplectic119", bilinear_cf(0.4)), s)
    assert d1 == d2 == pytest.approx(1.1)


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
    with pytest.raises(ValueError, match="k"):
        synthesize_lambda0(rotation_system(), small_bilinear_cf2(),
                           x0=[0.0, 1.0], lam0=[0.0, 1.0], k=2)


def test_lambda0_cross_quarter_turn_double_root():
    # g(lam0) = -(lam0^2 + x0^2): at x0 = 0 the root at zero is a double
    # root with no sign change, reachable only through the damped polish.
    res = synthesize_lambda0_cross(linear_system(), quarter_turn_cf(),
                                   x0=[0.0], lam0=[0.5], k=0)
    assert res.status == "ok"
    assert abs(res.value) < 1e-6
    assert res.g_residual < 1e-10


def test_lambda0_cross_no_root():
    with pytest.raises(RootNotFoundError, match="sign change"):
        synthesize_lambda0_cross(linear_system(), quarter_turn_cf(),
                                 x0=[1.0], lam0=[0.5], k=0)


@pytest.mark.parametrize("call", [
    lambda sys_, cf: synthesize_lambda0(sys_, cf, x0=[0.0, 1.0], lam0=[0.0, 1.0], k=0),
    lambda sys_, cf: synthesize_lambda0_cross(sys_, cf, x0=[0.0, 1.0], lam0=[0.0, 1.0], k=0),
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


def quadratic_cf2(B, P, Q):
    """U = x.(B lam) + x.(P x)/2 + lam.(Q lam)/2 with P, Q symmetric."""
    z = np.zeros(2)
    return ControllingFunction(
        dim=2,
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
       k=st.integers(0, 1), variant=st.sampled_from(["Std116", "Cross220"]))
def test_synthesis_solves_the_verified_residual(a, u, z, k, variant):
    A = np.array(a).reshape(2, 2)
    sys_ = DynamicSystem(dim=2, f=lambda x, t: A @ x, jac=lambda x, t: A,
                         autonomous=True)
    p, q = u[4:7], u[7:10]
    cf = quadratic_cf2(np.array(u[:4]).reshape(2, 2),
                       np.array([[p[0], p[1]], [p[1], p[2]]]),
                       np.array([[q[0], q[1]], [q[1], q[2]]]))
    synth = synthesize_lambda0 if variant == "Std116" else synthesize_lambda0_cross
    try:
        res = synth(sys_, cf, x0=z[:2], lam0=z[2:], k=k, t0=0.3)
    except (DegeneratePivotError, RootNotFoundError):
        return
    rep = canonicity_residual_points(sys_, MappingSpec(variant, cf),
                                     [PhaseState(z[:2], res.lam0, 0.3)])
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


def test_variant_table_image_and_jacobian():
    # B is not symmetric, so a U_xlam used where its transpose belongs shows
    B = np.array([[0.3, -0.7], [0.5, 0.2]])
    P = np.array([[0.4, 0.1], [0.1, -0.6]])
    Q = np.array([[-0.2, 0.3], [0.3, 0.8]])
    cf = quadratic_cf2(B, P, Q)
    z = np.array([0.7, -1.1, 0.4, 1.3])
    s = PhaseState(z[:2], z[2:], 0.2)
    for spec in _variant_specs(cf):
        dy, dmu = OFFSETS[spec.variant](*spec.signs, cf.ux_at(s), cf.ulam_at(s))
        y, mu = apply_map(spec, s)
        assert np.array_equal(y, s.x + dy) and np.array_equal(mu, s.lam + dmu)
        ref = _central_diff_x(
            lambda v: np.concatenate(apply_map(spec, PhaseState(v[:2], v[2:], 0.2))), z)
        err = np.max(np.abs(_map_jacobian(spec, s) - ref))
        assert err < 1e-8, (spec.variant, spec.signs, err)


@settings(max_examples=60, deadline=None)
@given(u=st.lists(st.floats(-0.2, 0.2), min_size=10, max_size=10),
       z=st.lists(st.floats(-2, 2), min_size=4, max_size=4),
       variant=st.sampled_from(VARIANTS), signs=st.sampled_from(SIGN_PAIRS))
def test_invert_map_undoes_apply_map(u, z, variant, signs):
    # entries of at most 0.2 keep the affine map's Jacobian well away from singular
    p, q = u[4:7], u[7:10]
    cf = quadratic_cf2(np.array(u[:4]).reshape(2, 2), np.array([[p[0], p[1]], [p[1], p[2]]]),
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

"""Core types: construction rules, FD fallbacks, derivative verification."""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canomap.phasecore import (_FD_RULE, ControllingFunction, DomainError, DynamicSystem,
                               PhaseState, Trajectory, _central_diff_t, _central_diff_x,
                               _subsample, _zero_blocks, verify_derivatives,
                               zero_controlling_function)
from canomap.hamilton import integrate
from canomap.mapping import synthesize_ulam
from canomap.scenarios import ballistic_system, rotation_example


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


def _sign_flipped(lift, i):
    """lift with the sign of its i-th value flipped."""
    def flipped(x, lam, t):
        k = np.array(lift(x, lam, t), dtype=float)
        k[i] = -k[i]
        return k
    return flipped


@pytest.mark.parametrize("i", [1, 5])   # one value of f, one of -A^T lam
def test_wrong_sign_in_a_lift_is_flagged(i):
    sysb = ballistic_system(1.0)
    rng = np.random.default_rng(2)
    pts = [PhaseState([rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0), 0.3],
                      rng.uniform(-1.0, 1.0, 4), 0.0) for _ in range(5)]
    good = verify_derivatives(sysb, pts)
    assert good.ok and set(good.blocks) == {"ft", "jac", "lift"}
    assert good.blocks["lift"] < 1e-14   # the printed adjoint is (-A^T) lam to rounding
    bad = verify_derivatives(dataclasses.replace(sysb, lift=_sign_flipped(sysb.lift, i)), pts)
    assert bad.failing == ("lift",) and bad.blocks["lift"] > 1e-2


def test_autonomous_label_is_checked_against_f():
    # f reads t, so labelling it autonomous (ft_at = 0) is wrong: the
    # central difference of f in t is 1 and the ft block must fail
    mislabelled = DynamicSystem(dim=1, f=lambda x, t: x + t,
                                jac=lambda x, t: np.eye(1), autonomous=True)
    report = verify_derivatives(mislabelled, [PhaseState([0.0], [1.0], 0.0)])
    assert report.blocks["ft"] == 1.0
    assert report.failing == ("ft",)


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


@pytest.mark.parametrize("block", ["jac", "ux"])
def test_non_finite_block_is_a_domain_error_before_its_reference(block):
    # the supplied block is refused first, so no central difference (whose
    # quotient may overflow with a warning) is formed from the field or U
    calls = []
    if block == "jac":
        obj = DynamicSystem(dim=1, f=lambda x, t: calls.append(t) or x,
                            jac=lambda x, t: np.full((1, 1), np.inf), autonomous=True)
    else:
        obj = ControllingFunction(1, **{**_zero_blocks(1), "ux": lambda x, lam, t: [np.inf]},
                                  u=lambda x, lam, t: calls.append(t) or 0.0)
    with pytest.raises(DomainError, match=f"^non-finite {block} at sample point x="):
        verify_derivatives(obj, [PhaseState([0.5], [1.0], 0.0)])
    assert len(calls) == 1   # the field's or U's own finiteness check


def test_fd_backed_jacobian_marked():
    nojac = DynamicSystem(dim=1, f=lambda x, t: np.sin(x), autonomous=True)
    assert "jac" in nojac.fd_backed
    report = verify_derivatives(nojac, random_states(1, 5))
    assert report.ok  # FD against FD agrees trivially


def test_dimension_mismatch_rejected_early():
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_derivatives(linear_system(n=2), [PhaseState([1.0], [1.0], 0.0)])


def test_dim_must_be_positive():
    u = lambda x, lam, t: 0.0
    for dim in (0, True, False, 2.0, 1.5, np.float64(2.0), "2"):
        for build in (lambda d: DynamicSystem(dim=d, f=lambda x, t: x),
                      lambda d: ControllingFunction(dim=d, u=u), zero_controlling_function,
                      lambda d: rotation_example(dim=d)):
            with pytest.raises(ValueError, match="^dim must be a positive integer$"):
                build(dim)
    assert DynamicSystem(dim=np.int64(2), f=lambda x, t: x).dim == 2
    assert ControllingFunction(np.int64(2), u).dim == 2
    assert zero_controlling_function(np.int64(2)).ux(np.ones(2), np.ones(2), 0.0).shape == (2,)


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


def test_rtol_and_points_validated():
    with pytest.raises(ValueError):
        verify_derivatives(linear_system(), [])
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
    traj = Trajectory([0.0, 1.0], [[0.0], [1.0]], [[0.0], [0.0]])
    assert len(traj) == 2
    assert np.array_equal(traj.t, [0.0, 1.0])
    assert traj.x.shape == traj.lam.shape == (2, 1)
    for t in ([1.0, 0.0], [1.0, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(t, [[0.0], [1.0]], [[0.0], [0.0]])


@pytest.mark.parametrize("t, x, lam", [
    ([[0.0, 1.0]], [[0.0], [1.0]], [[0.0], [0.0]]),    # 2-d t
    ([0.0, 1.0], [0.0, 1.0], [0.0, 0.0]),              # 1-d x and lam
    ([0.0, 1.0], [[0.0], [1.0]], [[0.0, 0.0], [0.0, 0.0]]),  # lam wider than x
    ([0.0, 1.0, 2.0], [[0.0], [1.0]], [[0.0], [0.0]]),  # more times than states
    ([0.0, 1.0], np.zeros((2, 0)), np.zeros((2, 0))),  # n = 0
], ids=["t-2d", "x-1d", "lam-mismatch", "t-longer", "n-zero"])
def test_trajectory_rejects_bad_shapes(t, x, lam):
    with pytest.raises(ValueError, match="expected t"):
        Trajectory(t, x, lam)


def test_trajectory_meta_is_a_mapping():
    # a number in meta's place is refused, not stored as the record
    with pytest.raises(TypeError, match="^meta must be a mapping, got float$"):
        Trajectory([0.0], [[1.0]], [[1.0]], 0.5)


def test_trajectory_needs_a_sample():
    with pytest.raises(ValueError, match="at least one sample"):
        Trajectory([], np.zeros((0, 2)), np.zeros((0, 2)))


@pytest.mark.parametrize("column", ["t", "x", "lam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trajectory_rejects_non_finite_entries(column, bad):
    arrays = {"t": np.array([0.0, 1.0]), "x": np.zeros((2, 2)), "lam": np.ones((2, 2))}
    arrays[column][-1, ...] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(arrays["t"], arrays["x"], arrays["lam"])


def test_trajectory_samples_on_demand_and_read_only():
    t, x, lam = np.array([0.0, 0.5, 1.0]), np.arange(6.0).reshape(3, 2), -np.ones((3, 2))
    traj = Trajectory(t, x, lam)
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
# Central differences
# ---------------------------------------------------------------------

def _stacked_central_diff(func, x, h_scale):
    """The kernel's rule written on numpy scalars and joined by np.stack:
    the reference that _central_diff_x must equal bit for bit."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = h_scale * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] = x[i] + h
        xm[i] = x[i] - h
        d = xp[i] - xm[i]
        cols.append((np.asarray(func(xp), dtype=float) - np.asarray(func(xm), dtype=float)) / d)
    return np.stack(cols, axis=-1)


# Scalar-, vector- and matrix-valued maps of R^n, nonlinear in every entry.
_FD_FUNCS = {
    "scalar": lambda v: float(np.sin(v) @ np.cos(v) + v @ v),
    "numpy-scalar": lambda v: np.prod(np.tanh(v) + 2.0),
    "vector": lambda v: np.concatenate([np.sin(v) * v[::-1], [np.prod(np.cos(v))]]),
    "matrix": lambda v: np.outer(np.tanh(v), v * v),
}


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                            st.floats(-1e6, 1e6)), min_size=1, max_size=4),
       kind=st.sampled_from(sorted(_FD_FUNCS)), h_scale=st.sampled_from([1e-6, 1e-5, 1e-4]))
def test_central_diff_x_pinned_bitwise(x, kind, h_scale):
    func, x = _FD_FUNCS[kind], np.array(x)
    got, ref = _central_diff_x(func, x, h_scale), _stacked_central_diff(func, x, h_scale)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    assert got.dtype == float and got.flags.c_contiguous


def test_central_diff_x_calls_func_twice_per_column_on_fresh_copies():
    # a callback may hold its argument: each of the 2n calls gets its own
    # array, which no later step of the kernel writes to
    x = np.array([0.5, -2.0, -0.0, 3e5])
    held = []
    _central_diff_x(lambda v: held.append(v) or v * v, x)
    assert len(held) == 2 * x.size
    for a, b in itertools.combinations([x, *held], 2):
        assert a is not b and not np.shares_memory(a, b)
    for i, xi in enumerate(x.tolist()):
        h = 1e-6 * max(1.0, abs(xi))
        for v, step in zip(held[2 * i:2 * i + 2], (xi + h, xi - h)):
            expect = x.copy()
            expect[i] = step
            assert v.tobytes() == expect.tobytes()
    assert x.tobytes() == np.array([0.5, -2.0, -0.0, 3e5]).tobytes()


@pytest.mark.parametrize("first, second", [((), (2,)), ((2,), ()), ((2,), (1,)),
                                           ((1,), (2,)), ((2, 2), (2,))])
def test_central_diff_x_refuses_ragged_columns(first, second):
    # a column that would broadcast into the first one's shape is still refused
    shapes = iter([first, first, second, second])
    with pytest.raises(ValueError):
        _central_diff_x(lambda v: np.ones(next(shapes)), np.zeros(2))


def test_central_diff_x_refuses_an_empty_x():
    with pytest.raises(ValueError, match="x is empty"):
        _central_diff_x(lambda v: np.ones(2), np.zeros(0))


# ---------------------------------------------------------------------
# ControllingFunction
# ---------------------------------------------------------------------

def test_quadratic_cf_passes_verification():
    cf, pts = quadratic_cf(), random_states(1, 10, seed=1)
    report = verify_derivatives(cf, pts)
    assert report.ok
    assert set(report.blocks) == {"ux", "ulam", "ut", "uxlam"}
    # uxlam = 2E where the true block is E: relative error 0.5 against the
    # mixed blocks' 1e-4 tolerance, where the right block reads 1.1e-11
    bad = ControllingFunction(1, cf.u, ux=cf.ux, ulam=cf.ulam, ut=cf.ut,
                              uxlam=lambda x, lam, t: 2.0 * np.eye(1))
    report = verify_derivatives(bad, pts)
    assert report.blocks["uxlam"] == pytest.approx(0.5) and report.failing == ("uxlam",)


def test_fd_fallback_approximates_derivatives():
    cf = ControllingFunction(
        1, u=lambda x, lam, t: x[0] * lam[0] ** 2 + t * x[0])
    s = PhaseState([0.7], [1.3], 0.4)
    assert {"ux", "ulam", "ut", "uxlam"} <= set(cf.fd_backed)
    assert cf.ux(s.x, s.lam, s.t)[0] == pytest.approx(1.3 ** 2 + 0.4, rel=1e-8)
    assert cf.ulam(s.x, s.lam, s.t)[0] == pytest.approx(2 * 0.7 * 1.3, rel=1e-8)
    assert cf.ut(s.x, s.lam, s.t) == pytest.approx(0.7, rel=1e-8)
    assert cf.uxlam(s.x, s.lam, s.t)[0, 0] == pytest.approx(2 * 1.3, rel=1e-4)
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
    for n in (1, 2, 3):
        cf = zero_controlling_function(n)
        s = PhaseState(np.linspace(-2.0, 1.0, n), np.linspace(0.5, 3.0, n), 0.2)
        assert cf.u(s.x, s.lam, s.t) == 0.0
        assert type(cf.ut(s.x, s.lam, s.t)) is float
        for block, (_, _, ndim) in _FD_RULE.items():
            got = getattr(cf, block)(s.x, s.lam, s.t)
            assert np.array_equal(got, np.zeros((n,) * ndim)), (n, block)
            assert np.shape(got) == (n,) * ndim, (n, block)
        assert cf.fd_backed == frozenset()
    # the zero blocks of the synthesized and the quarter-turn U are supplied too
    sys_ = linear_system(2)
    traj = integrate(sys_, PhaseState([1.0, 0.5], [0.2, -0.3], 0.0), 0.1, 0.01)
    assert synthesize_ulam(sys_, traj, [0.4, -0.2]).cf.fd_backed == frozenset()
    assert rotation_example().cf.fd_backed == frozenset()


def test_constant_blocks_are_held_read_only():
    cf = zero_controlling_function(1)
    g = cf.ux(np.zeros(1), np.zeros(1), 0.0)
    with pytest.raises(ValueError, match="read-only"):
        g += 5.0
    assert np.array_equal(cf.ux(np.zeros(1), np.zeros(1), 0.0), [0.0])
    E = np.eye(2)
    cf = ControllingFunction(2, u=lambda x, lam, t: 0.0, uxlam=E, ut=0.5)
    E[0, 1] = 7.0   # the caller's array stays the caller's: the block holds a copy
    assert np.array_equal(cf.uxlam(E[0], E[1], 0.0), np.eye(2))
    assert cf.ut(E[0], E[1], 0.0) == 0.5 and type(cf.ut(E[0], E[1], 0.0)) is float


@pytest.mark.parametrize("block, value", [("uxlam", np.eye(3)), ("ux", np.zeros(3)),
                                          ("ut", [0.0, 1.0]), ("ulamt", np.eye(2))])
def test_constant_block_of_the_wrong_shape_refused(block, value):
    with pytest.raises(ValueError, match="cannot reshape"):
        ControllingFunction(2, u=lambda x, lam, t: 0.0, **{block: value})


def test_closure_results_follow_the_one_shape_rule():
    # phasecore._shaped: a list or an (n, 1) array is reshaped, a float
    # array already in shape is returned as it is, a wrong size raises
    held = np.array([1.0, 2.0])
    cf = ControllingFunction(2, u=lambda x, lam, t: 0.0,
                             ux=lambda x, lam, t: [3.0, 4.0],
                             ulam=lambda x, lam, t: held,
                             uxlam=lambda x, lam, t: np.arange(4.0).reshape(4, 1),
                             ulamt=lambda x, lam, t: np.zeros(3))
    x = lam = np.zeros(2)
    assert cf.ux(x, lam, 0.0).tolist() == [3.0, 4.0]
    assert cf.ulam(x, lam, 0.0) is held
    assert cf.uxlam(x, lam, 0.0).tolist() == [[0.0, 1.0], [2.0, 3.0]]
    with pytest.raises(ValueError, match="cannot reshape"):
        cf.ulamt(x, lam, 0.0)


def test_cf_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        verify_derivatives(quadratic_cf(), [PhaseState([1.0, 1.0], [1.0, 1.0], 0.0)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5001), st.integers(1, 60))
@example(1, 1)
@example(1, 60)
@example(5, 60)
@example(59, 60)
@example(5001, 41)
def test_subsample_is_the_unique_of_its_linspace(N, count):
    # the former definition, np.unique of the truncated linspace, is the
    # reference; for N < count the linspace repeats indices
    want = np.unique(np.linspace(0, N - 1, count).astype(int))
    got = _subsample(range(N), count)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)

"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they are produced.  Every tolerance here is load-bearing; loosening one to
make a red criterion green defeats the purpose of the suite.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import sympy as sp

from canomap.phasecore import (ControllingFunction, DynamicSystem, PhaseState,
                               zero_controlling_function)
from canomap.hamilton import (canonical_rhs, energy_drift, fundamental_matrix,
                              integrate)
from canomap.mapping import (DegeneratePivotError, MappingSpec, apply_map,
                             canonicity_residual, jacobian_condition,
                             synthesize_lambda0, synthesize_ulam)
from canomap.invariants import (action_function, circle_loop, flow_loop,
                                poincare_cartan_loop, symplectic_test)
from canomap.liemap import compose_flow, hamiltonian_field, infinitesimal_step
from canomap.scenarios import (StraighteningProblem, ballistic_system, rotation_example,
                               straightening_solve)
from canomap.cli import main as cli_main


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, \
            f"wall time {elapsed:.2f}s exceeds the {budget_s}s budget"
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


def linear_system(n=1, a=1.0):
    return DynamicSystem(dim=n, f=lambda x, t: a * x,
                         jac=lambda x, t: a * np.eye(n), autonomous=True)


def circular_start():
    return PhaseState([0.0, 1.0, 1.0, 0.0], [1.0, 0.2, -0.3, 0.4], 0.0)


def test_criterion_01_identity_maps():
    with criterion(1, "zero control is the identity in every variant", 1.0):
        cf = zero_controlling_function(2)
        rng = np.random.default_rng(11)
        pts = [PhaseState(rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2), 0.0)
               for _ in range(50)]
        for variant in ("Std116", "Symplectic119", "SignVariant218",
                        "SignVariant219", "Cross220"):
            signs = (1, 1) if variant == "SignVariant219" else (1, -1)
            spec = MappingSpec(variant, cf, signs=signs)
            worst = 0.0
            for s in pts:
                y, mu = apply_map(spec, s)
                worst = max(worst, float(np.max(np.abs(y - s.x))),
                            float(np.max(np.abs(mu - s.lam))))
            assert worst < 1e-12
            assert jacobian_condition(spec, pts[0]) == (1.0, 1.0)


def test_criterion_02_quarter_turn_exactness():
    with criterion(2, "quarter-turn images and symplectic defect", 1.0):
        spec = rotation_example()
        rng = np.random.default_rng(7)
        pts = rng.uniform(-10.0, 10.0, size=(1000, 2))
        worst = 0.0
        for x, lam in pts:
            s = PhaseState([x], [lam], 0.0)
            y, mu = apply_map(spec, s)
            worst = max(worst, abs(y[0] - lam), abs(mu[0] + x))
        assert worst < 1e-12
        defect = max(symplectic_test(spec, PhaseState([x], [lam], 0.0))
                     for x, lam in pts[:5])
        assert defect < 1e-9


def test_criterion_03_extremal_action():
    with criterion(3, "action integral vanishes along extremals", 5.0):
        traj = integrate(linear_system(), PhaseState([1.0], [1.0], 0.0),
                         1.0, 1e-3)
        assert abs(action_function(linear_system(), traj).S) < 1e-9
        sysb = ballistic_system(1.0)
        traj_b = integrate(sysb, circular_start(), 1.0, 1e-3)
        assert abs(action_function(sysb, traj_b).S) < 1e-9


def excess_terms(n=3):
    """The three terms of the Weierstrass excess E of the lifted Lagrangian
    lam.(xdot - f), E = lam.(g - f) - lam.(xdot - f) - lam.(g - xdot), at
    comparison velocity g, for an undefined field f(x, t) in n dimensions."""
    x, lam, xdot, g = (sp.symbols(f"{v}1:{n + 1}") for v in ("x", "lam", "xdot", "g"))
    f = [sp.Function(f"f{k}")(*x, sp.Symbol("t")) for k in range(1, n + 1)]
    dot = lambda u, v, w: sum(ui * (vi - wi) for ui, vi, wi in zip(u, v, w))
    return dot(lam, g, f), -dot(lam, xdot, f), -dot(lam, g, xdot)


def test_criterion_04_excess_function():
    with criterion(4, "excess function vanishes for the linear lift", 1.0):
        # the lift is linear in xdot, so E vanishes identically, not just
        # to rounding: the symbolic sum expands to exactly zero
        assert sp.expand(sum(excess_terms())) == 0


def test_criterion_04_fails_with_a_term_dropped():
    terms = excess_terms()
    for k in range(3):
        assert sp.expand(sum(terms) - terms[k]) != 0


def test_criterion_05_loop_invariant():
    with criterion(5, "circulation is preserved and converges as 1/M^2", 10.0):
        sysl = linear_system()
        center = PhaseState([1.0], [1.0], 0.0)
        ens = flow_loop(sysl, circle_loop(center, 1.0, 256), [1.0], 1e-2)
        assert poincare_cartan_loop(ens) < 1e-5
        syss = DynamicSystem(dim=1, f=lambda x, t: np.sin(x),
                             jac=lambda x, t: np.cos(x).reshape(1, 1),
                             autonomous=True)
        drifts = {}
        for M in (64, 128):
            e = flow_loop(syss, circle_loop(center, 1.0, M), [1.0], 1e-2)
            drifts[M] = poincare_cartan_loop(e)
        assert 3.2 < drifts[64] / drifts[128] < 4.8


def test_criterion_06_fundamental_duality():
    with criterion(6, "forward and adjoint propagators are dual", 5.0):
        a = 0.7
        scalar = linear_system(a=a)
        rot = DynamicSystem(dim=2,
                            f=lambda x, t: np.array([x[1], -x[0]]),
                            jac=lambda x, t: np.array([[0.0, 1.0],
                                                       [-1.0, 0.0]]),
                            autonomous=True)
        ball = ballistic_system(1.0)
        cases = [
            (scalar, PhaseState([1.0], [1.0], 0.0)),
            (rot, PhaseState([1.0, 0.5], [0.3, -0.8], 0.0)),
            (ball, circular_start()),
        ]
        for sys, s0 in cases:
            traj = integrate(sys, s0, 1.0, 1e-3)
            B = fundamental_matrix(sys, traj, "B")
            D = fundamental_matrix(sys, traj, "D")
            E = np.eye(sys.dim)
            worst = max(float(np.max(np.abs(Bm @ Dm.T - E)))
                        for Bm, Dm in zip(B.values, D.values))
            assert worst < 1e-8
        traj = integrate(scalar, PhaseState([1.0], [1.0], 0.0), 1.0, 1e-3)
        B = fundamental_matrix(scalar, traj, "B")
        D = fundamental_matrix(scalar, traj, "D")
        ts = B.times
        assert np.max(np.abs(B.values[:, 0, 0] - np.exp(-a * ts))) < 1e-10
        assert np.max(np.abs(D.values[:, 0, 0] - np.exp(a * ts))) < 1e-10


def test_criterion_07_multiplier_synthesis():
    with criterion(7, "initial multiplier solves the scalar condition", 1.0):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rot = DynamicSystem(dim=2, f=lambda x, t: A @ x,
                            jac=lambda x, t: A, autonomous=True)
        c = 0.01
        cf = ControllingFunction(
            dim=2,
            u=lambda x, lam, t: c * float(x @ lam),
            ux=lambda x, lam, t: c * lam,
            ulam=lambda x, lam, t: c * x,
            ut=lambda x, lam, t: 0.0,
            uxlam=lambda x, lam, t: c * np.eye(2),
            uxx=lambda x, lam, t: np.zeros((2, 2)),
            ulamlam=lambda x, lam, t: np.zeros((2, 2)),
            uxt=lambda x, lam, t: np.zeros(2),
            ulamt=lambda x, lam, t: np.zeros(2),
        )
        res = synthesize_lambda0(rot, cf, x0=[0.0, 1.0], lam0=[0.0, 1.0], k=0)
        assert res.status == "ok"
        assert res.g_residual < 1e-9
        # pivot component with no influence must raise, not fabricate a root
        degenerate_cf = ControllingFunction(
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
        with pytest.raises(DegeneratePivotError):
            synthesize_lambda0(linear_system(), degenerate_cf,
                               x0=[1.0], lam0=[0.5], k=0, t0=1.0)


def test_criterion_08_gradient_transport_synthesis():
    with criterion(8, "transported gradient satisfies its own equation", 5.0):
        A = np.array([[0.3, 0.2], [0.2, -0.1]])
        sys = DynamicSystem(dim=2, f=lambda x, t: A @ x,
                            jac=lambda x, t: A, autonomous=True)
        traj = integrate(sys, PhaseState([1.0, -0.5], [1.0, 0.5], 0.0),
                         1.0, 2.5e-4)
        synth = synthesize_ulam(sys, traj, np.array([1.0, 0.5]))
        ts = traj.t
        series = synth.ulam_series
        worst = 0.0
        for i in range(1, len(ts) - 1):
            dot_fd = (series[i + 1] - series[i - 1]) / (ts[i + 1] - ts[i - 1])
            worst = max(worst, float(np.max(np.abs(dot_fd - A.T @ series[i]))))
        assert worst < 1e-7
        rep = canonicity_residual(sys, MappingSpec("Std116", synth.cf), traj)
        assert rep.verdict == "canonical"


def test_criterion_09_ballistic_conservation():
    with criterion(9, "ballistic flight conserves its invariants", 10.0):
        sysb = ballistic_system(1.0)
        traj = integrate(sysb, circular_start(), 10.0, 1e-3)
        lam4 = traj.lam[:, 3]
        assert np.all(lam4 == 0.4)
        assert energy_drift(sysb, traj).drift < 1e-6
        rv = traj.x[:, 2] * traj.x[:, 1]
        assert np.max(np.abs(rv - rv[0])) / max(1.0, abs(rv[0])) < 1e-6
        adjoint = lambda s: np.array(sysb.lift(s.x.tolist(), s.lam.tolist(), s.t)[4:])
        idx = np.unique(np.linspace(0, len(traj) - 1, 25).astype(int))
        agree = 0.0
        for i in idx:
            s = traj[i]
            _, dlam = canonical_rhs(sysb, s)
            agree = max(agree, float(np.max(np.abs(adjoint(s) - dlam))))
        assert agree < 1e-12


def test_criterion_10_straightening_equation():
    with criterion(10, "straightening equation solved on the grid", 10.0):
        prob = StraighteningProblem(c=1.0, a=0.3, y0=0.0, lam_b=0.0)
        sol = straightening_solve(prob, lambda x, lam: np.sin(x) + np.cos(lam),
                                  np.linspace(0.0, 1.0, 101),
                                  np.linspace(0.0, 2.0, 101))
        assert sol.residual_check() < 1e-8
        unit = StraighteningProblem(c=1.0, a=1.0, y0=0.0, lam_b=0.0)
        lam_grid = np.linspace(0.0, 2.0, 101)
        sol1 = straightening_solve(unit, lambda x, lam: 1.0,
                                   np.array([0.0, 0.5, 1.0]), lam_grid)
        exact = 1.0 - np.exp(-lam_grid)
        assert np.max(np.abs(sol1.U - exact[None, :])) < 1e-9


def test_criterion_11_order_of_accuracy():
    with criterion(11, "defect and composition follow their orders", 10.0):
        om = ControllingFunction(1, lambda x, lam, t: float(lam[0] * np.sin(x[0])),
                                 ux=lambda x, lam, t: lam * np.cos(x[0]),
                                 ulam=lambda x, lam, t: np.sin(x))
        s = PhaseState([0.7], [1.3], 0.0)
        epss = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        defects = []
        for eps in epss:
            def step(x, lam, eps=eps):
                return infinitesimal_step(om, eps, PhaseState(x, lam, 0.0))
            defects.append(symplectic_test(step, s))
        slope = np.polyfit(np.log(epss), np.log(defects), 1)[0]
        assert 1.8 < slope < 2.2
        sysl = linear_system()
        s0 = PhaseState([1.0], [1.0], 0.0)
        ref = integrate(sysl, s0, 1.0, 1e-3)[-1]
        H = hamiltonian_field(sysl)
        Ns = np.array([50, 100, 200, 400])
        errs = [max(abs(compose_flow(H, s0, 1.0, int(N)).x[0] - ref.x[0]),
                    abs(compose_flow(H, s0, 1.0, int(N)).lam[0] - ref.lam[0]))
                for N in Ns]
        slope = abs(np.polyfit(np.log(Ns), np.log(errs), 1)[0])
        assert 0.9 < slope < 1.1


def test_criterion_12_batch_determinism(tmp_path, monkeypatch):
    with criterion(12, "batch runs are bit-for-bit reproducible", 5.0):
        monkeypatch.delenv("CANOMAP_OUT", raising=False)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cfg = tmp_path / f"{tag}.json"
            cfg.write_text(json.dumps({"scenario": "linear", "t1": 0.5,
                                       "step": 1e-3,
                                       "output_dir": str(out)}),
                           encoding="utf-8")
            assert cli_main(["run", "--config", str(cfg)]) == 0
            outs.append(out)
        for artifact in ("trajectory.csv", "canonicity.csv",
                         "invariants.json"):
            assert (outs[0] / artifact).read_bytes() \
                == (outs[1] / artifact).read_bytes()

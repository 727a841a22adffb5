"""The `synthesis` workload: a library session through canomap's public calls.

It covers the layers no CLI path reaches.  Every checked call appends one
record to `ops`; the benchmark's gate judges the records afterwards, so this
file only measures and never decides.  Calls go through module attributes
(`mapping.invert_map`, not a name bound at import) so that the traced run
sees them.
"""
from __future__ import annotations

import json

import numpy as np

from canomap import hamilton, liemap, mapping, phasecore, scenarios
from canomap.phasecore import ControllingFunction, DynamicSystem, PhaseState


def _linear(A):
    return DynamicSystem(dim=A.shape[0], f=lambda x, t: A @ x,
                         jac=lambda x, t: A, autonomous=True)


def _duality(p, ops):
    ball = scenarios.ballistic_system(1.0)
    s0 = PhaseState([0.0, p["ballistic_v_phi0"], 1.0, 0.0], p["ballistic_lam0"], 0.0)
    traj = hamilton.integrate(ball, s0, p["ballistic_t1"], 1e-3)
    B = hamilton.fundamental_matrix(ball, traj, "B")
    D = hamilton.fundamental_matrix(ball, traj, "D")
    E = np.eye(ball.dim)
    defect = max(float(np.max(np.abs(b @ d.T - E))) for b, d in zip(B.values, D.values))
    ops.append({"call": "fundamental_matrix", "duality_defect": defect})


def _ulam(p, ops):
    a, b, d = p["linear_a"]
    A = np.array([[a, b], [b, d]])
    sys_ = _linear(A)
    traj = hamilton.integrate(sys_, PhaseState(p["linear_x0"], p["linear_lam0"], 0.0),
                              1.0, p["linear_step"])
    synth = mapping.synthesize_ulam(sys_, traj, np.array(p["linear_ulam0"]))
    ts = traj.times()
    series = synth.ulam_series
    transport = max(
        float(np.max(np.abs((series[i + 1] - series[i - 1]) / (ts[i + 1] - ts[i - 1])
                            - A @ series[i])))
        for i in range(1, len(ts) - 1))
    report = mapping.canonicity_residual(sys_, mapping.MappingSpec("Std116", synth.cf), traj)
    ops.append({"call": "synthesize_ulam", "transport_defect": transport,
                "verdict": report.verdict})
    return report.verdict, sys_


def _lambda0(p, ops):
    R = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rot = _linear(R)
    c = p["lambda0_c"]
    z2, zz = np.zeros(2), np.zeros((2, 2))
    cf = ControllingFunction(
        dim=2,
        u=lambda x, lam, t: c * float(x @ lam),
        ux=lambda x, lam, t: c * lam,
        ulam=lambda x, lam, t: c * x,
        ut=lambda x, lam, t: 0.0,
        uxlam=lambda x, lam, t: c * np.eye(2),
        uxx=lambda x, lam, t: zz, ulamlam=lambda x, lam, t: zz,
        uxt=lambda x, lam, t: z2, ulamt=lambda x, lam, t: z2)
    for i, start in enumerate(p["lambda0_starts"]):
        res = mapping.synthesize_lambda0(rot, cf, x0=start[:2], lam0=start[2:], k=i % 2)
        ops.append({"call": "synthesize_lambda0", "status": res.status,
                    "lambda0_g_residual": res.g_residual})


def _test_functions(eps):
    """U = eps (sin(x).lam + |x*lam|^2 / 2): once with every derivative block
    supplied, once with only U so that every block is FD-backed."""
    def u(x, lam, t):
        return eps * (float(np.sin(x) @ lam) + 0.5 * float((x * x) @ (lam * lam)))

    z2 = np.zeros(2)
    analytic = ControllingFunction(
        2, u,
        ux=lambda x, lam, t: eps * (np.cos(x) * lam + x * lam * lam),
        ulam=lambda x, lam, t: eps * (np.sin(x) + x * x * lam),
        ut=lambda x, lam, t: 0.0,
        uxlam=lambda x, lam, t: eps * np.diag(np.cos(x) + 2.0 * x * lam),
        uxx=lambda x, lam, t: eps * np.diag(-np.sin(x) * lam + lam * lam),
        ulamlam=lambda x, lam, t: eps * np.diag(x * x),
        uxt=lambda x, lam, t: z2, ulamt=lambda x, lam, t: z2)
    return analytic, ControllingFunction(2, u)


def _invert(p, cfs, ops):
    for kind, cf in cfs.items():
        spec = mapping.MappingSpec("Std116", cf)
        for z in p["invert_points"]:
            s = PhaseState(z[:2], z[2:], 0.0)
            y, mu = mapping.apply_map(spec, s)
            rec = {"call": "invert_map", "kind": kind, "converged": False,
                   "error": None, "invert_roundtrip_err": None}
            try:
                x, lam = mapping.invert_map(spec, y, mu, 0.0)
            except mapping.ConvergenceError:
                rec["error"] = "ConvergenceError"
            else:
                rec["converged"] = True
                rec["invert_roundtrip_err"] = float(
                    np.max(np.abs(np.concatenate([x - s.x, lam - s.lam]))))
            ops.append(rec)


def _cloud(p, cfs, sys_, ops):
    pts = [PhaseState(z[:2], z[2:4], z[4]) for z in p["cloud_points"]]
    ref = mapping.canonicity_residual_points(
        sys_, mapping.MappingSpec("Std116", cfs["analytic"]), pts)
    fd = mapping.canonicity_residual_points(
        sys_, mapping.MappingSpec("Std116", cfs["fd"]), pts)
    scale = np.maximum(1.0, np.abs(ref.residual_series))
    ops.append({"call": "canonicity_residual_points",
                "cloud_residual_disagreement":
                    float(np.max(np.abs(ref.residual_series - fd.residual_series) / scale))})
    for label, obj in (("system", sys_), ("analytic", cfs["analytic"]), ("fd", cfs["fd"])):
        rep = phasecore.verify_derivatives(obj, pts)
        ops.append({"call": "verify_derivatives", "kind": label, "ok": rep.ok})


def _compose(p, ops):
    sys1 = _linear(np.eye(1))
    s0 = PhaseState([1.0], [1.0], 0.0)
    ref = hamilton.integrate(sys1, s0, 1.0, 1e-3).samples[-1]
    H = liemap.hamiltonian_field(sys1)
    Ns = p["compose_steps"]
    errs = []
    for N in Ns:
        end = liemap.compose_flow(H, s0, 1.0, N)
        errs.append(max(abs(end.x[0] - ref.x[0]), abs(end.lam[0] - ref.lam[0])))
    slope = abs(float(np.polyfit(np.log(Ns), np.log(errs), 1)[0]))
    ops.append({"call": "compose_flow", "compose_slope": slope})


def run(params: dict, out_path: str) -> str:
    """Run the session, write its records to out_path, return the verdict
    of the synthesized controlling function (criterion 08)."""
    ops: list = []
    _duality(params, ops)
    verdict, linear = _ulam(params, ops)
    _lambda0(params, ops)
    analytic, fd = _test_functions(params["invert_eps"])
    cfs = {"analytic": analytic, "fd": fd}
    _invert(params, cfs, ops)
    _cloud(params, cfs, linear, ops)
    _compose(params, ops)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"verdict": verdict, "ops": ops}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return verdict

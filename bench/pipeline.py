"""One benchmark job: the public calls the CLI subcommands make, then checks.

execute() runs a job's scenario text through loads_scenario, build_report
(derive_generator + run_checks), propagate, trajectory_csv_rows and, for
finite baths, exact_oracle and timescale_report. Every library function is
looked up on its module at call time, so a Tracer can wrap it.

check() validates the outputs without any stored answer and reads the exact
size counters off public outputs. It runs outside the timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import lindforge.cli as lf_cli
import lindforge.dynamics as lf_dynamics
import lindforge.generator as lf_generator
import lindforge.scenario as lf_scenario
import lindforge.spectral as lf_spectral
from workloads import ORACLE_TD_CAP

# trace defect allowed along any trajectory
TRACE_TOL = 1e-8
# lowest eigenvalue allowed along a secular trajectory (the acceptance gate's
# positivity floor); presecular generators are not guaranteed positive, so
# they are held only to propagate's own floor, which raises below it
SECULAR_POSITIVITY_FLOOR = -1e-8
# largest rk4-vs-expm trace distance over a trajectory on the same generator
RK4_TOL = 1e-6


@dataclass
class Outputs:
    scenario: object
    result: object
    report: dict | None = None
    report_json: str = ""
    trajectories: dict = field(default_factory=dict)
    csv: dict = field(default_factory=dict)
    oracle_distances: list | None = None
    timescale: object = None


def _oracle_csv(lind, orac, distances, dim: int) -> str:
    fmt = lambda x: repr(float(x))
    header = ["time", "trace_distance"]
    header += [f"pop_lind_{i}" for i in range(dim)]
    header += [f"pop_oracle_{i}" for i in range(dim)]
    rows = [",".join(header)]
    for k in range(len(lind)):
        cells = [fmt(lind.times[k]), fmt(distances[k])]
        cells += [fmt(lind.states[k][i, i].real) for i in range(dim)]
        cells += [fmt(orac.states[k][i, i].real) for i in range(dim)]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def execute(job, tracer) -> Outputs:
    """Run one job the way the CLI would; raises whatever the library raises."""
    sc = lf_scenario.loads_scenario(job.text, job.name)
    if job.kind == "evolve":
        out = Outputs(sc, lf_generator.derive_generator(
            sc.h_a, sc.bath, sc.couplings, mode=sc.mode, policy=sc.policy,
            degeneracy_tol=sc.degeneracy_tol))
    else:
        report, res = lf_cli.build_report(sc, job.name)
        with tracer.span("cli.report_s"):
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        out = Outputs(sc, res, report, text)
    for method in job.methods:
        traj = lf_dynamics.propagate(sc.rho0, out.result.generator, sc.times,
                                     method=method)
        out.trajectories[method] = traj
        if job.kind != "oracle":
            rows = lf_cli.trajectory_csv_rows(traj)
            with tracer.span("cli.csv_s"):
                out.csv[method] = "\n".join(rows) + "\n"
    if job.kind == "oracle":
        lind = out.trajectories["expm"]
        orac = lf_dynamics.exact_oracle(sc.h_a, sc.bath, sc.couplings, sc.rho0,
                                        sc.times)
        out.oracle_distances = [lf_cli.trace_distance(a, b)
                                for a, b in zip(lind.states, orac.states)]
        out.timescale = lf_dynamics.timescale_report(
            sc.bath, sc.couplings, out.result.spectrum, tau_b=sc.tau_b)
        with tracer.span("cli.csv_s"):
            out.csv["oracle"] = _oracle_csv(lind, orac, out.oracle_distances,
                                            sc.dim)
    return out


def check(job, out: Outputs) -> tuple[list[str], dict]:
    """Correctness misses (empty when the job passed) and exact size counters."""
    misses = []
    sc, res = out.scenario, out.result
    dim = sc.dim
    counters = {
        "spectral.bohr_count": len(lf_spectral.bohr_frequencies(res.spectrum).values),
        "generator.terms": len(res.generator.dissipator_terms),
        "generator.k_entries": len(res.rate_tensors.K),
        "dynamics.superop_dim": dim * dim if "expm" in job.methods else 0,
        "dynamics.oracle_dim": 0,
        "cli.checks": 0,
        "cli.checks_failed": 0,
    }
    if out.report is not None:
        checks = out.report["checks"]
        failed = [c["name"] for c in checks if c["status"] != "pass"]
        counters["cli.checks"] = len(checks)
        counters["cli.checks_failed"] = len(failed)
        if not out.report["all_checks_pass"]:
            misses.append(f"battery failed: {', '.join(failed)}")
        if json.loads(out.report_json)["all_checks_pass"] is not True:
            misses.append("report JSON does not round-trip")

    floor = SECULAR_POSITIVITY_FLOOR if sc.mode == "secular" else None
    for method, traj in out.trajectories.items():
        if len(traj) != len(sc.times):
            misses.append(f"{method}: {len(traj)} samples, expected {len(sc.times)}")
        if traj.trace_defects.max() > TRACE_TOL:
            misses.append(f"{method}: trace defect {traj.trace_defects.max():.3e}")
        if floor is not None and traj.min_eigenvalues.min() < floor:
            misses.append(f"{method}: min eigenvalue {traj.min_eigenvalues.min():.3e}")
    for method, text in out.csv.items():
        rows = text.count("\n")
        if rows != len(sc.times) + 1:
            misses.append(f"{method} CSV: {rows} rows, expected {len(sc.times) + 1}")

    if "rk4" in out.trajectories:
        reference = out.trajectories.get("expm")
        if reference is None:
            reference = lf_dynamics.propagate(sc.rho0, res.generator, sc.times)
        err = max(lf_cli.trace_distance(a, b) for a, b in
                  zip(out.trajectories["rk4"].states, reference.states))
        counters["dynamics.rk4_err_max"] = err
        if err > RK4_TOL:
            misses.append(f"rk4 vs expm trace distance {err:.3e} > {RK4_TOL:g}")

    if out.oracle_distances is not None:
        td = max(out.oracle_distances)
        counters["dynamics.oracle_td_max"] = td
        counters["dynamics.oracle_dim"] = dim * sc.bath.dim
        if job.weak and td > ORACLE_TD_CAP:
            misses.append(f"oracle trace distance {td:.3e} > {ORACLE_TD_CAP:g}")
    return misses, counters

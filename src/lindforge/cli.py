"""Command-line interface: derive, evolve, verify and oracle subcommands.

    lindforge derive <scenario.json> [--out report.json]
    lindforge evolve <scenario.json> [--method expm|rk4] [--out traj.csv]
    lindforge verify <scenario.json>
    lindforge oracle <scenario.json> [--coupling-scale LAMBDA]

Exit codes: 0 all checks pass, 1 invariant failure, 2 input error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

import numpy as np

from .bath import (
    FiniteBath,
    correlation_function,
    delta_matrix,
    gamma_matrix,
    half_fourier_w,
    two_time_correlation,
)
from .dynamics import (
    PropagationError,
    exact_oracle,
    interaction_picture,
    propagate,
    timescale_report,
)
from .generator import derive_generator, rhs_function
from .linalg import (
    DimensionError,
    hermiticity_defect,
    kron_matmul,
    matrix_exponential_unitary,
    partial_trace_bath,
)
from .scenario import (
    Scenario,
    ScenarioError,
    complex_matrix_to_json,
    load_scenario,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

CHECK_SEED = 11


# ---------------------------------------------------------------------------
# JSON / CSV helpers


def _json_real(x) -> float | str:
    x = float(x)
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _real_matrix_to_json(m) -> list:
    return [[_json_real(x) for x in row] for row in np.asarray(m, dtype=float)]


def _fmt(x) -> str:
    return repr(float(x))


def _print_json(doc, stream=None):
    stream = stream or sys.stdout
    stream.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit_error(kind: str, exc: Exception):
    doc = {"error": {"type": kind, "message": str(exc)}}
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# invariant battery


def _check(name: str, defect: float, tolerance: float) -> dict:
    status = "pass" if defect <= tolerance else "fail"
    return {
        "name": name,
        "defect": _json_real(defect),
        "tolerance": _json_real(tolerance),
        "status": status,
    }


def _random_density(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def run_checks(scenario: Scenario, res) -> list[dict]:
    """The invariant battery: every derivation-guaranteed property, measured."""
    checks = []
    spectrum = res.spectrum
    g = res.generator
    v = spectrum.basis
    h_sys = (v * spectrum.frequencies) @ v.conj().T
    h_sys = 0.5 * (h_sys + h_sys.conj().T)
    a_ops = [np.asarray(a, dtype=complex) for a in scenario.couplings]
    a_scale = max([1.0] + [float(np.abs(a).max()) for a in a_ops])
    h_scale = max(1.0, float(np.abs(h_sys).max()))

    # eigenoperator completeness: the pieces sum back to the coupling operator
    defect = 0.0
    for a_op, eset in zip(a_ops, res.eigenops):
        recon = np.zeros_like(a_op)
        for piece in eset.terms.values():
            recon = recon + piece
        defect = max(defect, float(np.abs(recon - a_op).max()))
    checks.append(_check("eigenoperator-completeness", defect, 1e-12 * a_scale))

    # [H, A(w)] = -w A(w), adjoint +w, and [H, A(w)^+ A(w)] = 0
    d_minus = d_plus = d_inv = 0.0
    for eset in res.eigenops:
        for omega, op in eset.terms.items():
            comm = h_sys @ op - op @ h_sys
            d_minus = max(d_minus, float(np.abs(comm + omega * op).max()))
            op_dag = op.conj().T
            comm = h_sys @ op_dag - op_dag @ h_sys
            d_plus = max(d_plus, float(np.abs(comm - omega * op_dag).max()))
            prod = op_dag @ op
            d_inv = max(d_inv, float(np.abs(h_sys @ prod - prod @ h_sys).max()))
    ctol = 1e-10 * h_scale * max(1.0, a_scale)
    checks.append(_check("eigenoperator-commutator", d_minus, ctol))
    checks.append(_check("eigenoperator-adjoint-commutator", d_plus, ctol))
    checks.append(_check("eigenoperator-invariant-commutator", d_inv,
                         ctol * max(1.0, a_scale)))

    # rate matrices: hermitian, positive semidefinite
    g_herm = 0.0
    g_neg = 0.0
    g_scale = 1.0
    for t in g.dissipator_terms:
        g_herm = max(g_herm, hermiticity_defect(t.gamma))
        eigs = np.linalg.eigvalsh(0.5 * (t.gamma + t.gamma.conj().T))
        g_neg = max(g_neg, max(0.0, -float(eigs.min())))
        g_scale = max(g_scale, float(np.abs(t.gamma).max()))
    checks.append(_check("gamma-hermiticity", g_herm, 1e-10 * g_scale))
    checks.append(_check("gamma-positivity", g_neg, 1e-8 * g_scale))

    # effective hamiltonian structure
    checks.append(_check("heff-hermiticity", hermiticity_defect(g.h_eff),
                         1e-12 * max(1.0, float(np.abs(g.h_eff).max()))))
    if g.h_ls is not None:
        comm = h_sys @ g.h_ls - g.h_ls @ h_sys
        ls_scale = max(1.0, float(np.abs(g.h_ls).max())) * h_scale
        checks.append(_check("lamb-shift-commutes", float(np.abs(comm).max()),
                             1e-10 * ls_scale))

    # generator preserves trace and hermiticity
    rhs = rhs_function(g)
    rng = np.random.default_rng(CHECK_SEED)
    dim = g.dim
    tr_defect = herm_defect = adj_defect = 0.0
    rhs_scale = 1.0
    for _ in range(10):
        rho = _random_density(rng, dim)
        out = rhs(rho)
        rhs_scale = max(rhs_scale, float(np.abs(out).max()))
        tr_defect = max(tr_defect, abs(np.trace(out)))
        herm_defect = max(herm_defect, hermiticity_defect(out))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        adj_defect = max(adj_defect, float(
            np.abs(rhs(m.conj().T) - rhs(m).conj().T).max()))
    checks.append(_check("rhs-trace-preservation", float(tr_defect),
                         1e-12 * rhs_scale))
    checks.append(_check("rhs-hermiticity-preservation", herm_defect,
                         1e-12 * rhs_scale))
    checks.append(_check("rhs-adjoint-consistency", adj_defect,
                         1e-12 * max(rhs_scale, float(np.abs(g.h_eff).max()) * 10)))

    bath = scenario.bath
    if isinstance(bath, FiniteBath):
        checks.extend(_finite_bath_checks(scenario, res, bath))
    return checks


def _finite_bath_checks(scenario: Scenario, res, bath: FiniteBath) -> list[dict]:
    checks = []
    k = bath.channel_count
    moment_scale = 1.0
    for a in range(k):
        x = bath.coupling_ops[a]
        moment_scale = max(moment_scale, abs(bath.expectation(x.conj().T @ x)))

    # G*_ab(tau) = G_ba(-tau)
    freqs = bath.weighted_bohr_frequencies()
    nu_max = float(np.abs(freqs).max()) if freqs.size else 1.0
    taus = np.linspace(0.0, 4.0 / max(nu_max, 1e-12), 7) if nu_max > 0 else [0.0]
    conj_defect = 0.0
    for tau in taus:
        for a in range(k):
            for b in range(k):
                lhs = np.conj(correlation_function(bath, a, b, float(tau)))
                rhs_val = correlation_function(bath, b, a, -float(tau))
                conj_defect = max(conj_defect, abs(lhs - rhs_val))
    checks.append(_check("correlation-conjugation", conj_defect,
                         1e-10 * moment_scale))

    # stationarity: the two-argument correlation depends only on t1 - t2
    stat_defect = 0.0
    scale_t = 1.0 / max(nu_max, 1e-12)
    for (t1, t2, s) in ((0.0, 0.0, 0.9), (0.4, 0.1, 1.3), (0.2, 0.7, 2.1)):
        for a in range(k):
            for b in range(k):
                base = two_time_correlation(bath, a, b, t1 * scale_t, t2 * scale_t)
                moved = two_time_correlation(bath, a, b, (t1 + s) * scale_t,
                                             (t2 + s) * scale_t)
                stat_defect = max(stat_defect, abs(base - moved))
    checks.append(_check("correlation-stationarity", stat_defect,
                         1e-10 * moment_scale))

    # G_ab(0) equals the bath second moment
    mom_defect = 0.0
    for a in range(k):
        for b in range(k):
            lhs = correlation_function(bath, a, b, 0.0)
            x_a, x_b = bath.coupling_ops[a], bath.coupling_ops[b]
            rhs_val = bath.expectation(x_a.conj().T @ x_b)
            mom_defect = max(mom_defect, abs(lhs - rhs_val))
    checks.append(_check("correlation-initial-moment", mom_defect,
                         1e-10 * moment_scale))

    # W(w) = Gamma(w)/2 + i Delta(w)
    w_defect = 0.0
    w_scale = 1.0
    for t in res.generator.dissipator_terms:
        gm = gamma_matrix(bath, t.omega)
        dm = delta_matrix(bath, t.omega)
        w_scale = max(w_scale, float(np.abs(gm).max()))
        for a in range(k):
            for b in range(k):
                w_val = half_fourier_w(bath, a, b, t.omega)
                w_defect = max(w_defect, abs(w_val - (0.5 * gm[a, b] + 1j * dm[a, b])))
    checks.append(_check("half-fourier-split", w_defect, 1e-12 * w_scale))

    # partial trace commutes with the interaction picture
    d_a = scenario.dim
    d_b = bath.dim
    if d_a * d_b <= 1024:
        rng = np.random.default_rng(CHECK_SEED + 1)
        rho_ab = _random_density(rng, d_a * d_b)
        t_probe = 0.37 / max(1.0, _free_hamiltonian_scale(scenario.h_a, bath.h_b))
        lhs = partial_trace_bath(
            _free_picture(rho_ab, scenario.h_a, bath, t_probe), d_a, d_b)
        rhs_val = interaction_picture(partial_trace_bath(rho_ab, d_a, d_b),
                                      scenario.h_a, t_probe, "to")
        checks.append(_check("picture-reduction-invariance",
                             float(np.abs(lhs - rhs_val).max()), 1e-11))
    return checks


def _free_hamiltonian_scale(h_a, h_b) -> float:
    """Largest |entry| of H_0 = H_A x 1 + 1 x H_B, without forming H_0."""
    def off_diagonal(m):
        return float(np.abs(m - np.diag(np.diag(m))).max())
    diagonal = np.abs(np.diag(h_a)[:, None] + np.diag(h_b)[None, :]).max()
    return max(float(diagonal), off_diagonal(h_a), off_diagonal(h_b))


def _free_picture(rho_ab, h_a, bath: FiniteBath, t: float) -> np.ndarray:
    """U^+ rho U for the free propagator U = e^{-i H_A t} x e^{-i H_B t}.

    Exact because H_A x 1 and 1 x H_B commute. U is applied factor by factor,
    so no joint-sized matrix is diagonalised, formed or multiplied.
    """
    u_a = matrix_exponential_unitary(h_a, t)
    u_b = bath._propagator(t)
    half = kron_matmul(u_a.conj().T, u_b.conj().T, rho_ab)  # U^+ rho
    return kron_matmul(u_a.T, u_b.T, half.T).T  # (U^T (U^+ rho)^T)^T


# ---------------------------------------------------------------------------
# report assembly


def _sparse_listing(index, values) -> list[dict]:
    """[{"index": [...], "value": [re, im]}] rows of a tensor stored on a
    support, in the order given (lexicographic for the rate tensors)."""
    return [
        {"index": key, "value": [_json_real(val.real), _json_real(val.imag)]}
        for key, val in zip(index.tolist(), values.tolist())
    ]


def build_report(scenario: Scenario, scenario_name: str):
    res = derive_generator(
        scenario.h_a,
        scenario.bath,
        scenario.couplings,
        mode=scenario.mode,
        policy=scenario.policy,
        degeneracy_tol=scenario.degeneracy_tol,
    )
    checks = run_checks(scenario, res)
    g = res.generator
    spectrum = res.spectrum

    terms_json = []
    for t in g.dissipator_terms:
        terms_json.append({
            "omega": _json_real(t.omega),
            "gamma": complex_matrix_to_json(t.gamma),
            "delta": complex_matrix_to_json(t.delta) if t.delta is not None else None,
            "eigenoperators": [complex_matrix_to_json(op) for op in t.ops],
        })

    rt = res.rate_tensors
    midx = spectrum.multiplet_index
    same_multiplet = np.argwhere(midx[:, None] == midx[None, :])  # row-major
    k_json = _sparse_listing(rt.index, rt.K)
    kappa_json = _sparse_listing(same_multiplet, rt.kappa[tuple(same_multiplet.T)])

    timescale = None
    bath = scenario.bath
    if isinstance(bath, FiniteBath) or scenario.tau_b is not None:
        ts = timescale_report(bath, scenario.couplings, spectrum,
                              tau_b=scenario.tau_b)
        timescale = {
            "tau_b": _json_real(ts.tau_b),
            "t_a_estimate": _json_real(ts.t_a_estimate),
            "v_strength": _json_real(ts.v_strength),
            "two_scale_ratio": _json_real(ts.two_scale_ratio),
            "verdict": ts.verdict,
            "non_decaying": ts.non_decaying,
        }

    from .spectral import bohr_frequencies
    report = {
        "scenario": scenario_name,
        "mode": scenario.mode,
        "spectrum": {
            "dim": spectrum.dim,
            "frequencies": [_json_real(w) for w in spectrum.frequencies],
            "multiplets": [list(m) for m in spectrum.multiplets],
            "multiplet_frequencies": [_json_real(w)
                                      for w in spectrum.multiplet_frequencies],
            "degeneracies": list(spectrum.degeneracies),
            "degeneracy_tol": _json_real(spectrum.degeneracy_tol),
            "warnings": list(spectrum.warnings),
        },
        "bohr_frequencies": [_json_real(w)
                             for w in bohr_frequencies(spectrum).values],
        "free_evolution": len(g.dissipator_terms) == 0,
        "terms": terms_json,
        "h_eff": complex_matrix_to_json(g.h_eff),
        "h_ls": complex_matrix_to_json(g.h_ls) if g.h_ls is not None else None,
        "h_shift": (complex_matrix_to_json(res.h_shift)
                    if res.h_shift is not None else None),
        "rate_tensors": {
            "K": k_json,
            "kappa": kappa_json,
            "pauli_gain": (_real_matrix_to_json(res.pauli.gain)
                           if res.pauli.gain is not None else None),
            "coherence_decay": (
                _real_matrix_to_json(res.pauli.coherence_decay)
                if res.pauli.coherence_decay is not None else None),
        },
        "pauli_flags": list(res.pauli.flags),
        "timescale": timescale,
        "checks": checks,
        "all_checks_pass": all(c["status"] == "pass" for c in checks),
        "emitted": [],
    }
    return report, res


# ---------------------------------------------------------------------------
# subcommands


def cmd_derive(scenario_path: str, out: str | None = None) -> int:
    scenario = load_scenario(scenario_path)
    report, _ = build_report(scenario, scenario_path)
    if out:
        report["emitted"] = [out]
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        _print_json(report)
    return EXIT_OK if report["all_checks_pass"] else EXIT_INVARIANT


def trajectory_csv_rows(traj) -> list[str]:
    dim = traj.dim
    sep = "" if dim <= 10 else "_"
    header = ["time"]
    for i in range(dim):
        for j in range(dim):
            header.append(f"re_{i}{sep}{j}")
            header.append(f"im_{i}{sep}{j}")
    header += ["trace_defect", "min_eigenvalue"]
    rows = [",".join(header)]
    for k in range(len(traj)):
        state = traj.states[k]
        cells = [_fmt(traj.times[k])]
        for i in range(dim):
            for j in range(dim):
                cells.append(_fmt(state[i, j].real))
                cells.append(_fmt(state[i, j].imag))
        cells.append(_fmt(traj.trace_defects[k]))
        cells.append(_fmt(traj.min_eigenvalues[k]))
        rows.append(",".join(cells))
    return rows


def _write_text(path: str | None, text: str):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_evolve(scenario_path: str, method: str = "expm",
               out: str | None = None) -> int:
    scenario = load_scenario(scenario_path)
    res = derive_generator(
        scenario.h_a,
        scenario.bath,
        scenario.couplings,
        mode=scenario.mode,
        policy=scenario.policy,
        degeneracy_tol=scenario.degeneracy_tol,
    )
    try:
        traj = propagate(scenario.rho0, res.generator, scenario.times,
                         method=method)
    except PropagationError as exc:
        if exc.partial is not None and len(exc.partial) > 0:
            _write_text(out, "\n".join(trajectory_csv_rows(exc.partial)) + "\n")
        _emit_error("propagation", exc)
        return EXIT_INVARIANT
    _write_text(out, "\n".join(trajectory_csv_rows(traj)) + "\n")
    return EXIT_OK


def cmd_verify(scenario_path: str) -> int:
    try:
        scenario = load_scenario(scenario_path)
    except ScenarioError as exc:
        msg = str(exc)
        if msg.startswith("bath.entries"):
            # physics defect in the rate table: report it as a failing battery
            # item instead of refusing the file outright
            report = {
                "scenario": scenario_path,
                "checks": [{
                    "name": "gamma-table-validity",
                    "defect": msg,
                    "tolerance": "see message",
                    "status": "fail",
                }],
                "all_checks_pass": False,
            }
            _print_json(report)
            return EXIT_INVARIANT
        raise
    report, _ = build_report(scenario, scenario_path)
    doc = {
        "scenario": scenario_path,
        "mode": report["mode"],
        "checks": report["checks"],
        "all_checks_pass": report["all_checks_pass"],
    }
    _print_json(doc)
    return EXIT_OK if report["all_checks_pass"] else EXIT_INVARIANT


def trace_distance(rho1, rho2) -> float:
    diff = 0.5 * (rho1 - rho2)
    diff = 0.5 * (diff + diff.conj().T)
    return float(np.abs(np.linalg.eigvalsh(diff)).sum())


def cmd_oracle(scenario_path: str, coupling_scale: float = 1.0) -> int:
    scenario = load_scenario(scenario_path)
    bath = scenario.bath
    if not isinstance(bath, FiniteBath):
        raise ScenarioError(
            "bath: the oracle needs a finite bath (kind 'finite'); analytic "
            "models have no microscopic hamiltonian to compare against"
        )
    lam = float(coupling_scale)
    scaled_ops = [lam * np.asarray(a, dtype=complex) for a in scenario.couplings]
    res = derive_generator(
        scenario.h_a,
        bath,
        scaled_ops,
        mode=scenario.mode,
        policy=scenario.policy,
        degeneracy_tol=scenario.degeneracy_tol,
    )
    try:
        lind = propagate(scenario.rho0, res.generator, scenario.times,
                         method="expm")
    except PropagationError as exc:
        _emit_error("propagation", exc)
        return EXIT_INVARIANT
    oracle = exact_oracle(scenario.h_a, bath, scaled_ops, scenario.rho0,
                          scenario.times)

    dim = scenario.dim
    distances = [trace_distance(lind.states[k], oracle.states[k])
                 for k in range(len(lind))]
    header = ["time", "trace_distance"]
    header += [f"pop_lind_{i}" for i in range(dim)]
    header += [f"pop_oracle_{i}" for i in range(dim)]
    rows = [",".join(header)]
    for k in range(len(lind)):
        cells = [_fmt(lind.times[k]), _fmt(distances[k])]
        cells += [_fmt(lind.states[k][i, i].real) for i in range(dim)]
        cells += [_fmt(oracle.states[k][i, i].real) for i in range(dim)]
        rows.append(",".join(cells))
    csv_path = pathlib.Path(scenario_path).stem + ".oracle.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rows) + "\n")

    ts = timescale_report(bath, scaled_ops, res.spectrum, tau_b=scenario.tau_b)
    summary = {
        "coupling_scale": _json_real(lam),
        "csv": csv_path,
        "max_trace_distance": _json_real(max(distances)),
        "timescale": {
            "tau_b": _json_real(ts.tau_b),
            "t_a_estimate": _json_real(ts.t_a_estimate),
            "v_strength": _json_real(ts.v_strength),
            "two_scale_ratio": _json_real(ts.two_scale_ratio),
            "verdict": ts.verdict,
            "non_decaying": ts.non_decaying,
        },
        "verdict": ts.verdict,
    }
    _print_json(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lindforge",
        description="Derive, propagate and validate quantum master equations "
                    "in Lindblad standard form from microscopic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_derive = sub.add_parser("derive", help="derive the generator and report")
    p_derive.add_argument("scenario")
    p_derive.add_argument("--out", default=None, help="write report JSON here")

    p_evolve = sub.add_parser("evolve", help="propagate and emit a CSV trajectory")
    p_evolve.add_argument("scenario")
    p_evolve.add_argument("--method", choices=("expm", "rk4"), default="expm")
    p_evolve.add_argument("--out", default=None, help="write CSV here")

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    p_verify.add_argument("scenario")

    p_oracle = sub.add_parser("oracle", help="compare against the exact oracle")
    p_oracle.add_argument("scenario")
    p_oracle.add_argument("--coupling-scale", type=float, default=1.0)

    args = parser.parse_args(argv)
    try:
        if args.command == "derive":
            return cmd_derive(args.scenario, out=args.out)
        if args.command == "evolve":
            return cmd_evolve(args.scenario, method=args.method, out=args.out)
        if args.command == "verify":
            return cmd_verify(args.scenario)
        if args.command == "oracle":
            return cmd_oracle(args.scenario, coupling_scale=args.coupling_scale)
        parser.error(f"unknown command {args.command!r}")
    except DimensionError as exc:
        _emit_error("resource", exc)
        return EXIT_RESOURCE
    except ScenarioError as exc:
        _emit_error("scenario", exc)
        return EXIT_INPUT
    except ValueError as exc:
        _emit_error("input", exc)
        return EXIT_INPUT
    except OSError as exc:
        _emit_error("resource", exc)
        return EXIT_RESOURCE
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

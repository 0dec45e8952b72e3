"""Command-line interface: derive, evolve, verify and oracle subcommands.

    lindforge derive <scenario.json> [--out report.json]
    lindforge evolve <scenario.json> [--method expm|rk4] [--out traj.csv]
    lindforge verify <scenario.json>
    lindforge oracle <scenario.json> [--coupling-scale LAMBDA]

Exit codes: 0 all checks pass, 1 invariant failure (or an eigensolver that
did not converge), 2 input error, 3 resource cap exceeded.
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
    hermitian_part,
    hermiticity_defect,
    matrix_defects,
    matrix_exponential_unitary,
)
from .scenario import (
    RateTableError,
    Scenario,
    ScenarioError,
    complex_matrix_to_json,
    load_scenario,
)
from .spectral import bohr_frequencies

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

CHECK_SEED = 11
# bath-side states the picture check compares at once, as d_B x this blocks
BATH_SIDE_CHUNK = 256


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


def _print_json(doc, stream=None):
    stream = stream or sys.stdout
    stream.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit_error(kind: str, exc: Exception):
    doc = {"error": {"type": kind, "message": str(exc)}}
    sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# invariant battery


def _check(name: str, defect: float, tolerance: float) -> dict:
    passed = math.isfinite(defect) and math.isfinite(tolerance) and defect <= tolerance
    return {
        "name": name,
        "defect": _json_real(defect),
        "tolerance": _json_real(tolerance),
        "status": "pass" if passed else "fail",
    }


def _largest(values, floor: float) -> float:
    """max(floor, *values), except that a NaN value gives NaN, where Python's
    max may skip it. A tie with floor returns floor, as max does."""
    top = float(np.max(values, initial=floor))
    return floor if top == floor else top


def _random_density(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


# a defect that overflows is inf or NaN, and its check fails without a warning
@np.errstate(over="ignore", invalid="ignore")
def run_checks(scenario: Scenario, res) -> list[dict]:
    """The invariant battery: every derivation-guaranteed property, measured."""
    checks = []
    g = res.generator
    h_sys = res.spectrum.hamiltonian
    a_ops = [np.asarray(a, dtype=complex) for a in scenario.couplings]
    a_scale = _largest([np.abs(a).max() for a in a_ops], 1.0)
    h_scale = _largest(np.abs(h_sys), 1.0)

    # on each channel's user-basis pieces, built STACK_CHUNK at a time:
    # completeness (the pieces sum back to the coupling operator), and
    # [H, A(w)] = -w A(w), adjoint +w, and [H, A(w)^+ A(w)] = 0
    complete, d_minus, d_plus, d_inv = [], [], [], []
    for a_op, eset in zip(a_ops, res.eigenops):
        total = np.zeros_like(a_op)
        for omegas, ops in eset.chunks():
            for piece in ops:
                total = total + piece
            w = omegas[:, None, None]
            d_minus.append(_largest(np.abs(h_sys @ ops - ops @ h_sys + w * ops), 0.0))
            ops_dag = ops.conj().transpose(0, 2, 1)
            d_plus.append(_largest(np.abs(h_sys @ ops_dag - ops_dag @ h_sys - w * ops_dag),
                                   0.0))
            prod = ops_dag @ ops
            d_inv.append(_largest(np.abs(h_sys @ prod - prod @ h_sys), 0.0))
        complete.append(np.abs(total - a_op).max())
    checks.append(_check("eigenoperator-completeness", _largest(complete, 0.0),
                         1e-12 * a_scale))
    ctol = 1e-10 * h_scale * a_scale
    checks.append(_check("eigenoperator-commutator", _largest(d_minus, 0.0), ctol))
    checks.append(_check("eigenoperator-adjoint-commutator", _largest(d_plus, 0.0),
                         ctol))
    checks.append(_check("eigenoperator-invariant-commutator", _largest(d_inv, 0.0),
                         ctol * a_scale))

    # rate matrices: hermitian, positive semidefinite, by one matrix_defects pass
    n_ch = len(a_ops)
    gammas = np.array([t.gamma for t in g.dissipator_terms]).reshape(-1, n_ch, n_ch)
    _, peak, skew, low = matrix_defects(gammas)
    g_scale = _largest(peak, 1.0)
    checks.append(_check("gamma-hermiticity", _largest(skew, 0.0), 1e-10 * g_scale))
    checks.append(_check("gamma-positivity", _largest(-low, 0.0), 1e-8 * g_scale))

    # effective hamiltonian structure
    checks.append(_check("heff-hermiticity", hermiticity_defect(g.h_eff),
                         1e-12 * _largest(np.abs(g.h_eff), 1.0)))
    if g.h_ls is not None:
        comm = h_sys @ g.h_ls - g.h_ls @ h_sys
        ls_scale = _largest(np.abs(g.h_ls), 1.0) * h_scale
        checks.append(_check("lamb-shift-commutes", float(np.abs(comm).max()),
                             1e-10 * ls_scale))

    # generator preserves trace and hermiticity
    rhs = rhs_function(g)
    rng = np.random.default_rng(CHECK_SEED)
    dim = g.dim
    rhos, outs, tr_defect, herm_defect, adj_defect = [], [], [], [], []
    for _ in range(10):
        rho = _random_density(rng, dim)
        out = rhs(rho)
        rhos.append(rho)
        outs.append(out)
        tr_defect.append(abs(np.trace(out)))
        herm_defect.append(hermiticity_defect(out))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        adj_defect.append(np.abs(rhs(m.conj().T) - rhs(m).conj().T).max())
    outs = np.array(outs)
    rhs_scale = _largest(np.abs(outs), 1.0)
    checks.append(_check("rhs-trace-preservation", _largest(tr_defect, 0.0),
                         1e-12 * rhs_scale))
    checks.append(_check("rhs-hermiticity-preservation", _largest(herm_defect, 0.0),
                         1e-12 * rhs_scale))
    checks.append(_check("rhs-adjoint-consistency", _largest(adj_defect, 0.0),
                         1e-12 * _largest([10 * float(np.abs(g.h_eff).max())], rhs_scale)))
    # the Bohr blocks that propagate steps, on the same states, give the
    # same values as the standard form
    if g.bohr_blocks is not None:
        defect = float(np.abs(g.bohr_blocks.apply(np.array(rhos)) - outs).max())
        checks.append(_check("generator-blocks-consistency", defect, 1e-12 * rhs_scale))

    bath = scenario.bath
    if isinstance(bath, FiniteBath):
        checks.extend(_finite_bath_checks(scenario, res, bath))
    return checks


def _finite_bath_checks(scenario: Scenario, res, bath: FiniteBath) -> list[dict]:
    checks = []
    k = bath.channel_count
    pairs = [(a, b) for a in range(k) for b in range(k)]
    # second moments <X_a^+ X_b>_B = G_ab(0, 0) on the user-basis route, the
    # first base row of the stationarity check and the scale of every tolerance
    moments = [two_time_correlation(bath, a, b, 0.0, 0.0) for a, b in pairs]
    moment_scale = _largest([abs(moments[a * k + a]) for a in range(k)], 1.0)

    # G*_ab(tau) = G_ba(-tau)
    freqs = bath.weighted_bohr_frequencies()
    nu_max = float(np.abs(freqs).max()) if freqs.size else 1.0
    taus = np.linspace(0.0, 4.0 / max(nu_max, 1e-12), 7) if nu_max > 0 else [0.0]
    conj_defect = [abs(np.conj(correlation_function(bath, a, b, float(tau)))
                       - correlation_function(bath, b, a, -float(tau)))
                   for tau in taus for a in range(k) for b in range(k)]
    checks.append(_check("correlation-conjugation", _largest(conj_defect, 0.0),
                         1e-10 * moment_scale))

    # stationarity: the two-argument correlation depends only on t1 - t2;
    # its 12 k^2 unitaries take 10 distinct times, and each pair of times
    # is read for every channel pair in a row, so the bath builds each once
    stat_defect = []
    scale_t = 1.0 / max(nu_max, 1e-12)
    for (t1, t2, s) in ((0.0, 0.0, 0.9), (0.4, 0.1, 1.3), (0.2, 0.7, 2.1)):
        base = moments if t1 == t2 == 0.0 else [
            two_time_correlation(bath, a, b, t1 * scale_t, t2 * scale_t)
            for a, b in pairs]
        moved = [two_time_correlation(bath, a, b, (t1 + s) * scale_t, (t2 + s) * scale_t)
                 for a, b in pairs]
        stat_defect += [abs(x - y) for x, y in zip(base, moved)]
    checks.append(_check("correlation-stationarity", _largest(stat_defect, 0.0),
                         1e-10 * moment_scale))

    # G_ab(0) equals the bath second moment
    mom_defect = [abs(correlation_function(bath, a, b, 0.0) - moment)
                  for (a, b), moment in zip(pairs, moments)]
    checks.append(_check("correlation-initial-moment", _largest(mom_defect, 0.0),
                         1e-10 * moment_scale))

    # W(w) = Gamma(w)/2 + i Delta(w): entry by entry against one stacked
    # Gamma and Delta call over the term frequencies
    omegas = np.array([t.omega for t in res.generator.dissipator_terms])
    gm, dm = gamma_matrix(bath, omegas), delta_matrix(bath, omegas)
    w_defect = [abs(half_fourier_w(bath, a, b, omega)
                    - (0.5 * gm[i, a, b] + 1j * dm[i, a, b]))
                for i, omega in enumerate(omegas.tolist())
                for a in range(k) for b in range(k)]
    checks.append(_check("half-fourier-split", _largest(w_defect, 0.0),
                         1e-12 * _largest(np.abs(gm), 1.0)))

    # partial traces commute with the free propagator U = U_A x U_B; the
    # check works on the d_A x d_B amplitude matrix M of U^+ |psi>, so it
    # runs at any size. Tr_B = M M^+ cannot see U_B, so the bath side
    # Tr_A = M^T conj(M) is held to U_B^+ Tr_A|psi><psi| U_B = P^T conj(P)
    # for P = psi conj(U_B), U_B taken directly from the phases of a
    # diagonal H_B or from one exponential of a dense one
    d_a = scenario.dim
    d_b = bath.dim
    rng = np.random.default_rng(CHECK_SEED + 1)
    psi = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
    psi = psi.reshape(d_a, d_b) / np.linalg.norm(psi)
    t_probe = 0.37 / max(1.0, _free_hamiltonian_scale(scenario.h_a, bath))
    moved = _rotated_amplitudes(psi, scenario.h_a, bath, t_probe)
    rhs_val = interaction_picture(psi @ psi.conj().T, scenario.h_a, t_probe, "to")
    if bath._order is not None:  # a diagonal H_B, read as its levels
        p = psi * np.exp(1j * bath._levels * t_probe)
    else:
        p = psi @ matrix_exponential_unitary(bath.h_b, t_probe).conj()
    checks.append(_check("picture-reduction-invariance",
                         max(float(np.abs(moved @ moved.conj().T - rhs_val).max()),
                             _bath_side_defect(moved, p)), 1e-11))
    return checks


def _bath_side_defect(m, p) -> float:
    """max |m^T conj(m) - p^T conj(p)|, the d_B x d_B bath-side states of
    two amplitude matrices, compared BATH_SIDE_CHUNK columns at a time."""
    worst = 0.0
    for lo in range(0, m.shape[1], BATH_SIDE_CHUNK):
        cols = slice(lo, lo + BATH_SIDE_CHUNK)
        gap = m.T @ m[:, cols].conj()
        gap -= p.T @ p[:, cols].conj()
        worst = max(worst, float(np.abs(gap).max()))
    return worst


def _free_hamiltonian_scale(h_a, bath: FiniteBath) -> float:
    """Largest |entry| of H_0 = H_A x 1 + 1 x H_B, without forming H_0, nor
    H_B when it is diagonal (its levels are read instead)."""
    def off_diagonal(m):
        return float(np.abs(m - np.diag(np.diag(m))).max())
    if bath._order is None:
        h_b = bath.h_b
        diagonal_b, off_b = np.diag(h_b), off_diagonal(h_b)
    else:
        diagonal_b, off_b = bath._levels, 0.0
    diagonal = np.abs(np.diag(h_a)[:, None] + diagonal_b[None, :]).max()
    return max(float(diagonal), off_diagonal(h_a), off_b)


def _rotated_amplitudes(psi, h_a, bath: FiniteBath, t: float) -> np.ndarray:
    """The amplitude matrix of U^+ |psi> for U = e^{-i H_A t} x e^{-i H_B t},
    from the d_A x d_B amplitude matrix psi[i, k] = <i, k|psi>: it is
    U_A^+ psi conj(U_B), so no joint-sized matrix is formed. A state with
    amplitude matrix M has Tr_B = M M^+ and Tr_A = M^T conj(M).
    """
    u_a = matrix_exponential_unitary(h_a, t)
    return bath._times_conj_propagator(u_a.conj().T @ psi, t)


# ---------------------------------------------------------------------------
# report assembly


def _sparse_listing(index, values) -> list[dict]:
    """[{"index": [...], "value": [re, im]}] rows of a tensor stored on a
    support, in the order given (lexicographic for the rate tensors)."""
    return [
        {"index": key, "value": [_json_real(val.real), _json_real(val.imag)]}
        for key, val in zip(index.tolist(), values.tolist())
    ]


def _eigenoperator_rows(res) -> list[list[dict]]:
    """Each dissipator term's eigenoperators V^+ A_c(w) V as sparse rows
    [c, a, b] over the term's Bohr support (bohr_index == label of w), in
    lexicographic order. On that support V^+ A_c(w) V equals V^+ A_c V, so
    the rows are read off the rotated couplings (EigenOperatorSet.rotated);
    a channel whose piece the decomposition dropped as negligible lists
    zeros, as the generator holds it. The user-basis matrix is V E V^+."""
    terms = res.generator.dissipator_terms
    if not terms:
        return []
    spectrum = res.spectrum
    dim = spectrum.dim
    e = np.array([eset.rotated for eset in res.eigenops]).ravel()
    # row c d^2 + a d + b of every channel; a stable sort by Bohr label keeps
    # (c, a, b) lexicographic within each label
    label = np.tile(spectrum.bohr_index.ravel(), len(res.eigenops))
    order = np.argsort(label, kind="stable")
    term_labels = np.searchsorted(spectrum.bohr_set.values, [t.omega for t in terms])
    rows = order[np.isin(label[order], term_labels)]
    term = np.searchsorted(term_labels, label[rows])
    channel, gap = np.divmod(rows, dim * dim)
    kept = np.array([[t.omega in eset.terms for eset in res.eigenops] for t in terms])
    values = np.where(kept[term, channel], e[rows], 0.0)
    listing = _sparse_listing(np.stack([channel, *np.divmod(gap, dim)], axis=1), values)
    bounds = np.cumsum(np.bincount(term, minlength=len(terms))).tolist()
    return [listing[lo:hi] for lo, hi in zip([0] + bounds, bounds)]


def _derive(scenario: Scenario, couplings):
    """derive_generator on the scenario's data with the given couplings."""
    return derive_generator(
        scenario.h_a,
        scenario.bath,
        couplings,
        mode=scenario.mode,
        policy=scenario.policy,
        degeneracy_tol=scenario.degeneracy_tol,
    )


def _timescale_json(ts) -> dict:
    return {
        "tau_b": _json_real(ts.tau_b),
        "t_a_estimate": _json_real(ts.t_a_estimate),
        "v_strength": _json_real(ts.v_strength),
        "two_scale_ratio": _json_real(ts.two_scale_ratio),
        "verdict": ts.verdict,
        "non_decaying": ts.non_decaying,
    }


def build_report(scenario: Scenario, scenario_name: str):
    res = _derive(scenario, scenario.couplings)
    checks = run_checks(scenario, res)
    g = res.generator
    spectrum = res.spectrum

    terms_json = [
        {
            "omega": _json_real(t.omega),
            "gamma": complex_matrix_to_json(t.gamma),
            "delta": complex_matrix_to_json(t.delta) if t.delta is not None else None,
            "eigenoperators": rows,
        }
        for t, rows in zip(g.dissipator_terms,
                           _eigenoperator_rows(res))
    ]

    rt = res.rate_tensors
    escape = np.argwhere(rt.escape_support)  # row-major
    k_json = _sparse_listing(rt.index, rt.K)
    kappa_json = _sparse_listing(escape, rt.kappa[tuple(escape.T)])

    timescale = None
    bath = scenario.bath
    if isinstance(bath, FiniteBath) or scenario.tau_b is not None:
        timescale = _timescale_json(timescale_report(
            bath, scenario.couplings, spectrum, tau_b=scenario.tau_b,
            gammas=res.gammas))

    report = {
        "scenario": scenario_name,
        "mode": scenario.mode,
        "spectrum": {
            "dim": spectrum.dim,
            "basis": complex_matrix_to_json(spectrum.basis),
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
            _print_json(report, fh)
    else:
        _print_json(report)
    return EXIT_OK if report["all_checks_pass"] else EXIT_INVARIANT


def _csv_rows(header: list[str], columns) -> list[str]:
    """The header line, then one line per row of columns (a list of 1-D and
    2-D real arrays stacked side by side), each cell repr(float)."""
    table = np.column_stack(columns).tolist()
    return [",".join(header)] + [",".join(map(repr, row)) for row in table]


def trajectory_csv_rows(traj) -> list[str]:
    dim = traj.dim
    sep = "" if dim <= 10 else "_"
    header = ["time"]
    for i in range(dim):
        for j in range(dim):
            header.append(f"re_{i}{sep}{j}")
            header.append(f"im_{i}{sep}{j}")
    header += ["trace_defect", "min_eigenvalue"]
    # re_ij, im_ij interleaved in row-major (i, j) order
    parts = np.stack((traj.states.real, traj.states.imag), axis=-1).reshape(
        len(traj), 2 * dim * dim)
    return _csv_rows(header, [traj.times, parts, traj.trace_defects,
                              traj.min_eigenvalues])


def _write_text(path: str | None, text: str):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_evolve(scenario_path: str, method: str = "expm",
               out: str | None = None) -> int:
    scenario = load_scenario(scenario_path)
    res = _derive(scenario, scenario.couplings)
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
    except RateTableError as exc:
        # physics defect in a well-formed rate table: report it as a failing
        # battery item instead of refusing the file outright
        report = {
            "scenario": scenario_path,
            "checks": [{
                "name": "gamma-table-validity",
                "defect": str(exc),
                "tolerance": "see message",
                "status": "fail",
            }],
            "all_checks_pass": False,
        }
        _print_json(report)
        return EXIT_INVARIANT
    checks = run_checks(scenario, _derive(scenario, scenario.couplings))
    doc = {
        "scenario": scenario_path,
        "mode": scenario.mode,
        "checks": checks,
        "all_checks_pass": all(c["status"] == "pass" for c in checks),
    }
    _print_json(doc)
    return EXIT_OK if doc["all_checks_pass"] else EXIT_INVARIANT


def trace_distance(rho1, rho2) -> float:
    diff = hermitian_part(0.5 * (rho1 - rho2))
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
    res = _derive(scenario, scaled_ops)
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
    rows = _csv_rows(header, [
        lind.times, distances,
        lind.states.diagonal(axis1=1, axis2=2).real,
        oracle.states.diagonal(axis1=1, axis2=2).real,
    ])
    csv_path = pathlib.Path(scenario_path).stem + ".oracle.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rows) + "\n")

    ts = timescale_report(bath, scaled_ops, res.spectrum, tau_b=scenario.tau_b)
    summary = {
        "coupling_scale": _json_real(lam),
        "csv": csv_path,
        "max_trace_distance": _json_real(max(distances)),
        "timescale": _timescale_json(ts),
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
    except np.linalg.LinAlgError as exc:  # a ValueError, but not the input's fault
        _emit_error("numerical", exc)
        return EXIT_INVARIANT
    except ValueError as exc:
        _emit_error("input", exc)
        return EXIT_INPUT
    except OSError as exc:
        _emit_error("resource", exc)
        return EXIT_RESOURCE
    except MemoryError as exc:  # numpy's names the allocation it could not make
        _emit_error("resource", exc if str(exc) else MemoryError("out of memory"))
        return EXIT_RESOURCE
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

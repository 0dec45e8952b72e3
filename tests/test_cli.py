import dataclasses
import json
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

import lindforge.cli
import lindforge.dynamics
from lindforge import (
    FiniteBath,
    derive_generator,
    estimate_correlation_time,
    exact_oracle,
    interaction_picture,
    partial_trace_bath,
    propagate,
    timescale_report,
)
from lindforge.cli import (
    _check,
    _free_hamiltonian_scale,
    _largest,
    _rotated_amplitudes,
    build_report,
    main,
    run_checks,
    trace_distance,
    trajectory_csv_rows,
)
from lindforge.dynamics import Trajectory
from lindforge.generator import BohrBlocks, SecularPolicy
from lindforge.linalg import MAX_TENSOR_DIM
from lindforge.scenario import MAX_TIME_SAMPLES, load_scenario, loads_scenario
from lindforge.spectral import EigenOperatorSet

from _support import (
    crandn,
    generic_scenario_data,
    random_hermitian,
    random_unitary,
    record_eigh,
    reference_csv_rows,
    reference_oracle_csv_rows,
    sigma_ops,
)


def cm(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


SX = cm(np.array([[0, 1], [1, 0]]))

GAMMA = 0.2
OMEGA = 1.0
NBAR = 1.0 / math.expm1(OMEGA / 1.0)


def flat_thermal_data(**overrides):
    data = {
        "system": {"eigenvalues": [0.0, OMEGA]},
        "bath": {"kind": "flat-thermal", "gamma": GAMMA, "temperature": 1.0},
        "couplings": [{"A": SX}],
        "initial_state": "excited",
        "times": {"t_max": 10.0, "samples": 11},
    }
    data.update(overrides)
    return data


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def damping_table_data(gamma_down=0.25, **overrides):
    zero = [[[0.0, 0.0]]]
    entries = [
        {"omega": OMEGA, "gamma": [[[gamma_down, 0.0]]]},
        {"omega": -OMEGA, "gamma": zero},
        {"omega": 0.0, "gamma": zero},
    ]
    data = {
        "system": {"eigenvalues": [0.0, OMEGA]},
        "bath": {"kind": "table", "entries": entries},
        "couplings": [{"A": SX}],
        "initial_state": "excited",
        "times": {"t_max": 20.0, "samples": 41},
    }
    data.update(overrides)
    return data


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def from_json(m):
    return np.array([[complex(re, im) for (re, im) in row] for row in m])


def rebuilt_eigenoperators(report, term, channels):
    """User-basis A_c(w) of a report term: V E V^+ from its eigenbasis rows."""
    v = from_json(report["spectrum"]["basis"])
    e = np.zeros((channels,) + v.shape, dtype=complex)
    for row in term["eigenoperators"]:
        c, a, b = row["index"]
        e[c, a, b] = complex(*row["value"])
    return v @ e @ v.conj().T


def test_derive_thermal_qubit_report(tmp_path, capsys):
    path = write_scenario(tmp_path, flat_thermal_data())
    code, out, _ = run_cli(capsys, "derive", path)
    assert code == 0
    report = json.loads(out)
    assert report["all_checks_pass"]
    assert sorted(report["bohr_frequencies"]) == [-OMEGA, 0.0, OMEGA]
    assert not report["free_evolution"]
    terms = {t["omega"]: t for t in report["terms"]}
    assert abs(terms[OMEGA]["gamma"][0][0][0] - GAMMA * (NBAR + 1)) < 1e-12
    assert abs(terms[-OMEGA]["gamma"][0][0][0] - GAMMA * NBAR) < 1e-12
    # A(+omega) is the lowering operator |g><e|
    a_plus = rebuilt_eigenoperators(report, terms[OMEGA], 1)[0]
    assert np.abs(a_plus - np.array([[0.0, 1.0], [0.0, 0.0]])).max() < 1e-12
    check_names = {c["name"] for c in report["checks"]}
    assert "eigenoperator-completeness" in check_names
    assert "rhs-trace-preservation" in check_names


def _listing_scenarios():
    rng = np.random.default_rng(23)

    def coupling(dim, **extra):
        return {"A": cm(random_hermitian(rng, dim)), **extra}

    levels = [0.0, 0.7, 1.9, 2.4]
    u = random_unitary(rng, 4)
    h_b = random_hermitian(rng, 4)
    x = random_hermitian(rng, 4) + 0.8 * np.eye(4)  # nonzero thermal mean
    return {
        "nondegenerate": flat_thermal_data(
            system={"eigenvalues": levels}, couplings=[coupling(4)]),
        "degenerate": flat_thermal_data(
            system={"eigenvalues": [0.0, 0.0, 1.0, 1.0, 2.5]},
            couplings=[coupling(5)]),
        "rotated": flat_thermal_data(
            system={"hamiltonian": cm((u * levels) @ u.conj().T)},
            couplings=[coupling(4)]),
        # channel 1 commutes with H, so off zero frequency its eigenbasis
        # pieces are rounding noise that the decomposition drops
        "two-channel": flat_thermal_data(
            system={"hamiltonian": cm((u * levels) @ u.conj().T)},
            couplings=[coupling(4, channel=0),
                       {"A": cm((u * [0.3, -1.0, 0.5, 0.8]) @ u.conj().T),
                        "channel": 1}],
            tau_b=0.5),
        "presecular": flat_thermal_data(
            system={"eigenvalues": levels}, couplings=[coupling(4)],
            policy={"mode": "presecular", "filter": "F-weighted", "dt": 3.0}),
        "finite-shifted": flat_thermal_data(
            system={"eigenvalues": levels[:3]},
            bath={"kind": "finite", "hamiltonian": cm(h_b), "temperature": 1.5},
            couplings=[{"A": cm(random_hermitian(rng, 3)), "X": cm(0.05 * x)}]),
    }


@pytest.mark.parametrize("name", sorted(_listing_scenarios()))
def test_report_eigenoperator_rows_rebuild_the_terms(name):
    sc = loads_scenario(json.dumps(_listing_scenarios()[name]))
    report, res = build_report(sc, name)
    assert json.loads(json.dumps(report)) == report
    report = json.loads(json.dumps(report))
    spectrum = res.spectrum
    channels = len(sc.couplings)
    terms = res.generator.dissipator_terms
    assert terms and len(report["terms"]) == len(terms)
    assert (report["h_shift"] is not None) == (name == "finite-shifted")
    listed = dropped = 0
    for term, t in zip(report["terms"], terms):
        # every gap whose Bohr frequency is the term's, for every channel,
        # in lexicographic order
        support = np.argwhere(spectrum.bohr_set.values[spectrum.bohr_index] == t.omega)
        want = [[c, int(a), int(b)] for c in range(channels) for a, b in support]
        assert [row["index"] for row in term["eigenoperators"]] == want
        listed += len(want)
        rebuilt = rebuilt_eigenoperators(report, term, channels)
        assert np.abs(rebuilt - np.array(t.ops)).max() <= 1e-12
        for c, op in enumerate(t.ops):
            if not op.any():  # a dropped piece lists zeros, as the generator holds it
                assert {tuple(row["value"]) for row in term["eigenoperators"]
                        if row["index"][0] == c} == {(0.0, 0.0)}
                dropped += 1
    assert listed <= channels * spectrum.dim ** 2
    assert (dropped > 0) == (name == "two-channel")


def test_report_timescale_reuses_the_derived_gamma_table(monkeypatch):
    sc = loads_scenario(json.dumps(_listing_scenarios()["two-channel"]))
    res = derive_generator(sc.h_a, sc.bath, sc.couplings)
    expected = timescale_report(sc.bath, sc.couplings, res.spectrum, tau_b=sc.tau_b)

    def refuse(bath, omega):
        raise AssertionError("the report evaluated Gamma a second time")

    monkeypatch.setattr(lindforge.dynamics, "gamma_matrix", refuse)
    report, _ = build_report(sc, "two-channel")
    assert report["timescale"]["v_strength"] == expected.v_strength


def test_derive_zero_coupling_flags_free_evolution(tmp_path, capsys):
    data = flat_thermal_data(couplings=[{"A": cm(np.zeros((2, 2)))}])
    path = write_scenario(tmp_path, data)
    code, out, _ = run_cli(capsys, "derive", path)
    assert code == 0
    report = json.loads(out)
    assert report["free_evolution"]
    assert report["terms"] == []


def test_derive_degenerate_spectrum_reports_multiplets(tmp_path, capsys):
    data = flat_thermal_data(
        system={"eigenvalues": [0.0, 0.0, 1.0]},
        couplings=[{"A": cm(np.diag([1.0, -1.0, 0.5]))}],
        initial_state="maximally-mixed",
    )
    path = write_scenario(tmp_path, data)
    code, out, _ = run_cli(capsys, "derive", path)
    report = json.loads(out)
    assert report["spectrum"]["degeneracies"] == [2, 1]
    assert report["spectrum"]["multiplets"] == [[0, 1], [2]]
    assert "degenerate-multiplets" in report["pauli_flags"]
    assert code == 0


def test_derive_out_file(tmp_path, capsys):
    path = write_scenario(tmp_path, flat_thermal_data())
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "derive", path, "--out", str(out_path))
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["emitted"] == [str(out_path)]


def test_evolve_damped_qubit_csv(tmp_path, capsys):
    gamma_down = 0.25
    path = write_scenario(tmp_path, damping_table_data(gamma_down))
    code, out, _ = run_cli(capsys, "evolve", path)
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header == [
        "time",
        "re_00", "im_00", "re_01", "im_01",
        "re_10", "im_10", "re_11", "im_11",
        "trace_defect", "min_eigenvalue",
    ]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    times = rows[:, 0]
    pop_e = rows[:, header.index("re_11")]
    assert np.abs(pop_e - np.exp(-gamma_down * times)).max() < 1e-8
    assert np.abs(rows[:, header.index("trace_defect")]).max() < 1e-10


def test_evolve_non_finite_state_is_propagation_failure(tmp_path, capsys):
    data = flat_thermal_data()
    data["bath"]["gamma"] = 1e300
    path = write_scenario(tmp_path, data)
    out_path = tmp_path / "traj.csv"
    code, out, err = run_cli(capsys, "evolve", path, "--method", "expm",
                             "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["type"] == "propagation"
    rows = out_path.read_text(encoding="utf-8").strip().split("\n")
    assert len(rows) == 2  # header and the finite initial sample
    assert "nan" not in out_path.read_text(encoding="utf-8")


THERMAL_QUBIT = (pathlib.Path(__file__).parents[1] / "demos" / "scenarios"
                 / "thermal_qubit.json")


@pytest.mark.parametrize("gamma, code", [(1e8, 0), (1e12, 1), (1e15, 1)])
def test_evolve_refuses_a_state_that_loses_its_trace(tmp_path, capsys, gamma, code):
    # stiff rates round the expm of the population block off its unit
    # column sums: the first step misses the trace by 3.3e-5 at gamma 1e12
    # and by 7.8e-2 at 1e15; the partial CSV keeps the samples before it
    data = json.loads(THERMAL_QUBIT.read_text(encoding="utf-8"))
    data["bath"]["gamma"] = gamma
    path = write_scenario(tmp_path, data)
    out_path = tmp_path / "traj.csv"
    got, out, err = run_cli(capsys, "evolve", path, "--out", str(out_path))
    assert got == code
    assert out == ""
    rows = out_path.read_text(encoding="utf-8").strip().split("\n")
    defects = [float(row.split(",")[-2]) for row in rows[1:]]
    assert max(defects) <= 1e-6
    if code == 0:
        assert err == ""
        assert len(rows) == 82  # header and the 81 samples
        return
    error = json.loads(err)["error"]
    assert error["type"] == "propagation"
    assert "trace defect" in error["message"]
    assert len(rows) < 82


@pytest.mark.parametrize("change", [{"temperature": 1e-3}, {"eigenvalues": [0.0, 720.0]}],
                         ids=["cold", "wide-gap"])
def test_thermal_factor_beyond_the_float_range_has_no_absorption(tmp_path, capsys,
                                                                 change):
    # |Omega|/T above 709.78: e^(|Omega|/T) overflows a float, and nbar is 0
    data = json.loads(THERMAL_QUBIT.read_text(encoding="utf-8"))
    if "temperature" in change:
        data["bath"]["temperature"] = change["temperature"]
    else:
        data["system"]["eigenvalues"] = change["eigenvalues"]
    path = write_scenario(tmp_path, data)
    for command in ("derive", "verify"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["all_checks_pass"]
        assert "NaN" not in out and "Infinity" not in out
    code, out, err = run_cli(capsys, "evolve", path)
    assert (code, err) == (0, "")
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.isfinite(rows).all()
    # gamma 0.25 down and none up: the excited population decays to zero
    pop_e = rows[:, header.index("re_11")]
    assert np.abs(pop_e - np.exp(-0.25 * rows[:, 0])).max() < 1e-8
    assert rows[-1, header.index("re_00")] > 1.0 - 1e-4


@pytest.mark.parametrize("demo, tau_b", [("weak_coupling_comb", 1e-320),
                                         ("breakdown", 5e-324)])
def test_subnormal_tau_b_gives_an_infinite_t_a(tmp_path, capsys, demo, tau_b):
    # V^2 tau_b underflows to 0, and t_a = 1 / (V^2 tau_b) takes its limit
    data = json.loads((THERMAL_QUBIT.parent / f"{demo}.json").read_text(encoding="utf-8"))
    data["tau_b"] = tau_b
    path = write_scenario(tmp_path, data)
    for command in ("derive", "oracle"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, err) == (0, "")
        assert json.loads(out)["timescale"]["t_a_estimate"] == "inf"


def test_derive_lists_kappa_across_chained_multiplets(tmp_path, capsys):
    # the gaps 1.0 and 1.16 from level 0 chain into one Bohr frequency at
    # tolerance 0.1, so the escape sum links levels 1 and 2 of different
    # multiplets
    data = json.loads(THERMAL_QUBIT.read_text(encoding="utf-8"))
    data["system"]["eigenvalues"] = [0.0, 1.0, 1.16, 2.08]
    data["tolerances"] = {"degeneracy": 0.1}
    data["couplings"] = [{"A": cm(np.ones((4, 4)) - np.eye(4))}]
    path = write_scenario(tmp_path, data)
    code, out, _ = run_cli(capsys, "derive", path)
    report = json.loads(out)
    assert report["spectrum"]["multiplets"] == [[0], [1], [2], [3]]
    assert "shared-transition-frequency" in report["pauli_flags"]
    kappa = {tuple(row["index"]): complex(*row["value"])
             for row in report["rate_tensors"]["kappa"]}
    assert list(kappa) == [(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]
    assert abs(kappa[(1, 2)]) > 1e-3 and kappa[(2, 1)] == kappa[(1, 2)].conjugate()
    # chained eigenoperators commute with H_A only up to the spread of
    # their gaps, so those checks fail by design
    failed = {c["name"] for c in report["checks"] if c["status"] != "pass"}
    assert failed == {"eigenoperator-commutator", "eigenoperator-adjoint-commutator",
                      "eigenoperator-invariant-commutator"}
    assert code == 1


@pytest.mark.parametrize("gamma", [1e300, 1e306, 5e307])
def test_evolve_rk4_refuses_an_unbounded_step_count(tmp_path, capsys, monkeypatch,
                                                    gamma):
    # rates of 1e300 make the rk4 step rule (h <= ||B - c||_1 / 100 on the
    # Bohr blocks) ask for about 2e303 steps, and at 1e306 and 5e307 its
    # step rate overflows to inf; the count is refused before any step, the
    # d^2 x d^2 superoperator is never formed, no warning is raised, and
    # stderr holds the JSON error alone
    data = flat_thermal_data()
    data["bath"]["gamma"] = gamma
    path = write_scenario(tmp_path, data)

    def no_superoperator(g):
        raise AssertionError("rk4 formed the superoperator")

    monkeypatch.setattr(lindforge.dynamics, "generator_superoperator_matrix",
                        no_superoperator)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "evolve", path, "--method", "rk4")
    assert caught == []
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "resource"
    assert "rk4 would take" in error["message"]


def synthetic_trajectory(rng, dim, samples, complete=True):
    states = crandn(rng, samples, dim, dim)
    # cells whose repr is easy to get wrong
    states[0, 0, 0] = complex(-0.0, 5e-324)
    states[-1, -1, 0] = complex(math.nan, -math.inf)
    diagnostics = rng.standard_normal((3, samples))
    diagnostics[2, 0] = -0.0
    diagnostics[0, -1] = math.inf
    return Trajectory(np.linspace(0.0, 1.0, samples), states, *diagnostics,
                      method="expm", complete=complete)


@pytest.mark.parametrize("dim, samples, complete", [(2, 5, True), (11, 3, True),
                                                    (3, 2, False)])
def test_trajectory_csv_matches_per_cell_writer(dim, samples, complete):
    traj = synthetic_trajectory(np.random.default_rng(dim), dim, samples, complete)
    rows = trajectory_csv_rows(traj)
    assert rows == reference_csv_rows(traj)
    assert len(rows) == samples + 1
    for cell in ("-0.0", "5e-324", "nan", "-inf", "inf"):
        assert cell in ",".join(rows[1:]).split(",")
    if dim > 10:
        assert "re_10_10" in rows[0].split(",")


def test_oracle_csv_matches_per_cell_writer(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = flat_thermal_data(
        system={"eigenvalues": [0.0, 1.0, 1.7]},
        bath={
            "kind": "finite",
            "modes": [{"frequency": 1.0, "coupling": 0.08},
                      {"frequency": 1.3, "coupling": 0.06}],
            "temperature": 1.0,
            "broadening": 0.4,
        },
        couplings=[{"A": cm(np.ones((3, 3)) - np.eye(3))}],
    )
    path = write_scenario(tmp_path, data, name="pair.json")
    code, _, _ = run_cli(capsys, "oracle", path)
    assert code == 0
    sc = load_scenario(path)
    res = derive_generator(sc.h_a, sc.bath, sc.couplings, mode=sc.mode,
                           policy=sc.policy)
    lind = propagate(sc.rho0, res.generator, sc.times)
    oracle = exact_oracle(sc.h_a, sc.bath, sc.couplings, sc.rho0, sc.times)
    distances = [trace_distance(a, b) for a, b in zip(lind.states, oracle.states)]
    want = reference_oracle_csv_rows(lind, oracle, distances)
    assert (tmp_path / "pair.oracle.csv").read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize("argv", [("derive",), ("verify",), ("evolve",),
                                  ("evolve", "--method", "rk4")])
def test_overflowing_rates_are_input_errors(tmp_path, capsys, argv):
    # gamma (nbar + 1) overflows at omega = 1; Gamma(-1) = gamma nbar is
    # finite but its hermitian part (G + G^+)/2 overflows in the sum
    data = flat_thermal_data()
    data["bath"]["gamma"] = 1.7e308
    path = write_scenario(tmp_path, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:])
    assert caught == []
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "input"
    assert "Gamma(-1) has a non-finite or overflowing entry" in error["message"]


def test_non_finite_defect_or_tolerance_fails_its_check():
    assert _check("x", 0.5, 1.0)["status"] == "pass"
    assert _check("x", math.nan, 1.0)["status"] == "fail"
    assert _check("x", 0.0, math.inf)["status"] == "fail"
    assert _check("x", 0.0, math.nan)["status"] == "fail"
    # a NaN anywhere in the folded defects survives the fold
    assert math.isnan(_largest([0.1, math.nan, 0.2], 0.0))
    assert math.isnan(_largest([math.nan], 1.0))
    assert _largest([-0.0, -1.0], 0.0) == 0.0
    assert math.copysign(1.0, _largest([-0.0], 0.0)) == 1.0


def ladder_data(levels):
    dim = len(levels)
    ladder = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return flat_thermal_data(system={"eigenvalues": levels},
                             couplings=[{"A": cm(ladder + ladder.T)}],
                             times={"t_max": 1.0, "samples": 3})


def test_evolve_caps_the_largest_secular_block_not_d_squared(tmp_path, capsys):
    # d = 91: d^2 = 8281 is above MAX_TENSOR_DIM = 8192, but a non-degenerate
    # spectrum's largest block is its d populations
    path = write_scenario(tmp_path, ladder_data([float(n) for n in range(91)]))
    code, out, err = run_cli(capsys, "evolve", path)
    assert (code, err) == (0, "")
    assert len(out.strip().split("\n")) == 4
    # fully degenerate, every coherence shares the zero frequency: one
    # 8281 x 8281 block, refused before the rate tensors are allocated
    path = write_scenario(tmp_path, ladder_data([1.0] * 91))
    code, out, err = run_cli(capsys, "evolve", path)
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["type"] == "resource"
    assert "secular block would be 8281x8281" in error["message"]


def test_evolve_is_deterministic(tmp_path, capsys):
    path = write_scenario(tmp_path, flat_thermal_data())
    _, out1, _ = run_cli(capsys, "evolve", path)
    _, out2, _ = run_cli(capsys, "evolve", path)
    assert out1 == out2
    code, _, _ = run_cli(capsys, "evolve", path, "--method", "rk4", "--out",
                         str(tmp_path / "traj.csv"))
    assert code == 0
    text = (tmp_path / "traj.csv").read_text()
    assert text.startswith("time,")


def test_evolve_reaches_detailed_balance(tmp_path, capsys):
    data = flat_thermal_data(times={"t_max": 100.0, "samples": 26})
    path = write_scenario(tmp_path, data)
    code, out, _ = run_cli(capsys, "evolve", path)
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    last = [float(x) for x in lines[-1].split(",")]
    ratio = last[header.index("re_11")] / last[header.index("re_00")]
    assert abs(ratio - math.exp(-OMEGA / 1.0)) < 1e-6


def test_verify_good_scenario_passes(tmp_path, capsys):
    path = write_scenario(tmp_path, flat_thermal_data())
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 0
    report = json.loads(out)
    assert report["all_checks_pass"]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_finite_bath_runs_correlation_checks(tmp_path, capsys):
    data = flat_thermal_data(
        bath={
            "kind": "finite",
            "modes": [{"frequency": 1.0, "coupling": 0.08},
                      {"frequency": 1.3, "coupling": 0.06}],
            "temperature": 1.0,
            "broadening": 0.4,
        }
    )
    path = write_scenario(tmp_path, data)
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 0
    report = json.loads(out)
    names = {c["name"] for c in report["checks"]}
    assert "correlation-conjugation" in names
    assert "correlation-stationarity" in names
    assert "picture-reduction-invariance" in names
    assert report["all_checks_pass"]


def test_free_picture_matches_dense_interaction_picture():
    # the battery's amplitude-matrix route, U_A^+ psi conj(U_B) reduced to
    # the system and to the bath, against the dense rotation of |psi><psi|
    # by the joint H_0 followed by each partial trace
    rng = np.random.default_rng(41)
    for d_a, d_b in ((2, 3), (3, 5), (4, 2), (1, 4)):
        h_a = random_hermitian(rng, d_a, scale=1.5)
        h_b = random_hermitian(rng, d_b, scale=1.5)
        bath = FiniteBath(h_b, 1.0, [random_hermitian(rng, d_b)], broadening=0.5)
        h0 = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), h_b)
        assert _free_hamiltonian_scale(h_a, bath) == float(np.abs(h0).max())
        # a diagonal H_B is read as its levels
        levels = np.diag(np.diag(h_b).real)
        diagonal = FiniteBath(levels, 1.0, bath.coupling_ops, broadening=0.5)
        h0_diagonal = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), levels)
        assert _free_hamiltonian_scale(h_a, diagonal) == float(np.abs(h0_diagonal).max())
        psi = crandn(rng, d_a, d_b)
        psi /= np.linalg.norm(psi)
        t = float(rng.uniform(0.1, 2.0))
        rho_ab = np.outer(psi.ravel(), psi.ravel().conj())
        rotated = interaction_picture(rho_ab, h0, t, "to")
        m = _rotated_amplitudes(psi, h_a, bath, t)
        assert np.abs(m @ m.conj().T - partial_trace_bath(rotated, d_a, d_b)).max() < 1e-12
        bath_side = np.einsum("ikil->kl", rotated.reshape(d_a, d_b, d_a, d_b))
        assert np.abs(m.T @ m.conj() - bath_side).max() < 1e-12


def ladder_comb_data(modes=8):
    """A 4-level ladder coupled to a comb of modes: joint dimension 4 * 2^modes."""
    ladder = np.diag(np.sqrt([1.0, 2.0, 3.0]), 1)
    return flat_thermal_data(
        system={"eigenvalues": [0.0, 1.0, 2.0, 3.0]},
        bath={
            "kind": "finite",
            "modes": [{"frequency": 0.8 + 0.05 * i, "coupling": 0.02}
                      for i in range(modes)],
            "temperature": 1.0,
            "broadening": 0.2,
        },
        couplings=[{"A": cm(ladder + ladder.T)}],
    )


def ladder_comb_scenario():
    return loads_scenario(json.dumps(ladder_comb_data()))


def test_battery_forms_no_joint_sized_matrix():
    # one 1024 x 1024 complex matrix is 16.8 MB; the battery stays below it
    sc = ladder_comb_scenario()
    assert sc.dim * sc.bath.dim == 1024
    res = derive_generator(sc.h_a, sc.bath, sc.couplings, mode=sc.mode,
                           policy=sc.policy)
    tracemalloc.start()
    try:
        checks = run_checks(sc, res)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "picture-reduction-invariance" in {c["name"] for c in checks}
    assert all(c["status"] == "pass" for c in checks)
    assert peak < 1024 * 1024 * 16


def test_twelve_mode_comb_loads_and_checks_without_dense_bath_arrays():
    # d_B = 4096: one dense d_B x d_B complex array is 268 MB. The comb keeps
    # H_B as levels and X on its 12 nonzeros per row, so the load and the
    # battery stay far below one; the picture check's bath side, compared
    # BATH_SIDE_CHUNK columns at a time, is the largest piece
    text = json.dumps(ladder_comb_data(modes=12))
    tracemalloc.start()
    try:
        sc = loads_scenario(text)
        res = derive_generator(sc.h_a, sc.bath, sc.couplings, mode=sc.mode,
                               policy=sc.policy)
        checks = run_checks(sc, res)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sc.bath.dim == 4096
    assert len(checks) > 0 and all(c["status"] == "pass" for c in checks)
    assert peak < 64 * 1024 * 1024


def test_generic_d48_derive_and_battery_hold_no_dense_eigenoperator_stacks():
    # 48 generic levels give 2257 Bohr frequencies: the (P, d, d) pieces
    # alone took 166 MB and derive_generator + run_checks peaked at 322 MiB.
    # The support form and the battery's pieces, built 32 at a time, peaked
    # at 9.5 MiB; the bound leaves more than 3x headroom
    sc = loads_scenario(json.dumps(generic_scenario_data(48)))
    tracemalloc.start()
    try:
        res = derive_generator(sc.h_a, sc.bath, sc.couplings, mode=sc.mode,
                               policy=sc.policy)
        checks = run_checks(sc, res)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.generator.dissipator_terms) == 48 * 47 + 1
    assert all(c["status"] == "pass" for c in checks)
    assert "pieces" not in res.generator.__dict__
    assert peak < 32 * 1024 * 1024


def test_verify_runs_the_picture_check_past_joint_dimension_1024(tmp_path, capsys):
    # a 9-mode comb under the 4-level ladder: joint dimension 2048
    path = write_scenario(tmp_path, ladder_comb_data(modes=9))
    code, out, _ = run_cli(capsys, "verify", path)
    report = json.loads(out)
    picture = [c for c in report["checks"]
               if c["name"] == "picture-reduction-invariance"]
    assert len(picture) == 1
    assert picture[0]["status"] == "pass"
    assert report["all_checks_pass"]
    assert code == 0


@pytest.mark.parametrize("bath_kind", ["comb", "dense"])
@pytest.mark.parametrize("fault", ["no-phases", "unconjugated"])
def test_picture_check_sees_the_bath_propagator(monkeypatch, bath_kind, fault):
    # Tr_B is the same under any unitary on the bath, so only the bath-side
    # state can tell a wrong conj(U_B) from the right one
    if bath_kind == "comb":
        sc = loads_scenario(json.dumps(ladder_comb_data(modes=5)))
    else:
        rng = np.random.default_rng(42)
        sc = loads_scenario(json.dumps(flat_thermal_data(bath={
            "kind": "finite", "hamiltonian": cm(random_hermitian(rng, 6)),
            "temperature": 1.0, "broadening": 0.4},
            couplings=[{"A": SX, "X": cm(random_hermitian(rng, 6, scale=0.05))}])))
    res = derive_generator(sc.h_a, sc.bath, sc.couplings, mode=sc.mode,
                           policy=sc.policy)
    picture = lambda: [c["status"] for c in run_checks(sc, res)
                       if c["name"] == "picture-reduction-invariance"]
    assert picture() == ["pass"]
    right = FiniteBath._times_conj_propagator
    if fault == "no-phases":
        wrong = lambda self, m, t: m
    else:  # conj(e^{+i H_B t}): U_B itself for a real H_B, else U_B^T
        wrong = lambda self, m, t: right(self, m, -t)
    monkeypatch.setattr(FiniteBath, "_times_conj_propagator", wrong)
    assert picture() == ["fail"]


def test_stationarity_builds_each_time_propagator_once(monkeypatch):
    rng = np.random.default_rng(14)
    sz = sigma_ops()[2]
    data = flat_thermal_data(
        bath={"kind": "finite", "hamiltonian": cm(random_hermitian(rng, 4)),
              "temperature": 1.0},
        couplings=[{"A": SX, "X": cm(0.05 * random_hermitian(rng, 4))},
                   {"A": cm(sz), "X": cm(0.05 * random_hermitian(rng, 4))}],
    )
    sc = loads_scenario(json.dumps(data))
    res = derive_generator(sc.h_a, sc.bath, sc.couplings, mode=sc.mode,
                           policy=sc.policy)
    unitaries, calls = [], []
    propagator = FiniteBath._propagator
    two_time = lindforge.cli.two_time_correlation
    monkeypatch.setattr(FiniteBath, "_propagator",
                        lambda bath, t: unitaries.append(propagator(bath, t)) or unitaries[-1])
    monkeypatch.setattr(lindforge.cli, "two_time_correlation",
                        lambda *args: calls.append(args) or two_time(*args))
    checks = run_checks(sc, res)
    assert all(c["status"] == "pass" for c in checks)
    # 6 k^2 correlations on the dense route, as before, whose 12 k^2
    # unitaries take ten distinct times; one more is the picture check's
    assert sc.bath.channel_count == 2
    assert len(calls) == 6 * 2 * 2
    assert len(unitaries) == 12 * 2 * 2 + 1
    assert len({id(u) for u in unitaries}) == 11
    # and the bath keeps only the last two
    assert len(sc.bath._unitaries) == 2


def test_battery_diagonalises_no_bath_or_joint_matrix(monkeypatch):
    # a mode comb's H_B is diagonal: loading it sorts its levels, and the
    # battery applies its unitaries elementwise; neither diagonalises d_B
    data = flat_thermal_data(
        bath={
            "kind": "finite",
            "modes": [{"frequency": 0.9 + 0.031 * i, "coupling": 0.05 - 0.002 * i}
                      for i in range(10)],
            "temperature": 1.0,
            "broadening": 0.3,
        }
    )
    sizes = record_eigh(monkeypatch)
    sc = loads_scenario(json.dumps(data))
    res = derive_generator(sc.h_a, sc.bath, sc.couplings, mode=sc.mode,
                           policy=sc.policy)
    calls = []
    two_time = lindforge.cli.two_time_correlation
    monkeypatch.setattr(lindforge.cli, "two_time_correlation",
                        lambda *args: calls.append(args) or two_time(*args))
    checks = run_checks(sc, res)
    assert {c["name"] for c in checks} >= {"correlation-stationarity",
                                           "picture-reduction-invariance"}
    assert all(c["status"] == "pass" for c in checks)
    assert sc.bath.dim == 1024 and sc.bath.channel_count == 1
    assert sizes and max(sizes) == sc.dim < sc.bath.dim
    assert len(calls) == 6


def test_times_samples_cap_is_resource_error(tmp_path, capsys):
    # cap + 1 is refused before the time grid is allocated
    data = flat_thermal_data(times={"t_max": 10.0, "samples": MAX_TIME_SAMPLES + 1})
    path = write_scenario(tmp_path, data)
    for command in ("derive", "evolve", "verify"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "resource"
        assert "times.samples" in error["message"]


def test_system_level_cap_is_resource_error(tmp_path, capsys):
    # cap + 1 levels are refused before any d x d array is allocated; the
    # hamiltonian's rows are not even read
    for system in ({"eigenvalues": [0.0] * (MAX_TENSOR_DIM + 1)},
                   {"hamiltonian": [[]] * (MAX_TENSOR_DIM + 1)}):
        path = write_scenario(tmp_path, flat_thermal_data(system=system))
        code, out, err = run_cli(capsys, "evolve", path)
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["type"] == "resource"
        assert f"{MAX_TENSOR_DIM + 1} levels exceed" in error["message"]


def test_verify_corrupted_table_fails_battery(tmp_path, capsys):
    data = damping_table_data()
    # break hermiticity of the 2x2 gamma at omega: both off-diagonal
    # entries get the same imaginary part
    data["bath"]["entries"] = [
        {"omega": OMEGA,
         "gamma": [[[0.2, 0.0], [0.05, 0.02]], [[0.05, 0.02], [0.2, 0.0]]]},
    ]
    data["couplings"] = [{"A": SX, "channel": 0}, {"A": SX, "channel": 1}]
    path = write_scenario(tmp_path, data)
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    report = json.loads(out)
    assert not report["all_checks_pass"]
    item = report["checks"][0]
    assert item["name"] == "gamma-table-validity"
    assert item["status"] == "fail"
    assert "hermitian" in item["defect"]


def test_verify_presecular_tiny_window_still_preserves_trace(tmp_path, capsys):
    data = flat_thermal_data(policy={"mode": "presecular", "dt": 0.001,
                                     "filter": "F-weighted"})
    path = write_scenario(tmp_path, data)
    code, out, _ = run_cli(capsys, "verify", path)
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["rhs-trace-preservation"]["status"] == "pass"
    assert by_name["rhs-hermiticity-preservation"]["status"] == "pass"
    assert code == 0


def test_oracle_zero_coupling_matches_exactly(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = flat_thermal_data(
        bath={
            "kind": "finite",
            "modes": [{"frequency": 1.0, "coupling": 0.1}],
            "temperature": 1.0,
            "broadening": 0.5,
        },
        couplings=[{"A": cm(np.zeros((2, 2)))}],
        initial_state={"diagonal": [0.3, 0.7]},
    )
    path = write_scenario(tmp_path, data, name="zero.json")
    code, out, _ = run_cli(capsys, "oracle", path)
    assert code == 0
    summary = json.loads(out)
    assert summary["max_trace_distance"] < 1e-10
    assert summary["coupling_scale"] == 1.0
    csv_path = tmp_path / "zero.oracle.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].split(",")[:2] == ["time", "trace_distance"]
    assert len(lines) == 1 + 11


def test_oracle_strong_coupling_breaks_down(tmp_path, capsys, monkeypatch):
    # the same four-mode scenario run twice: weak coupling agrees with the
    # exact dynamics and the timescale verdict passes; scaling the coupling
    # 40x pushes V*tau_B past 1, the verdict fails, and the error is large
    monkeypatch.chdir(tmp_path)
    data = flat_thermal_data(
        bath={
            "kind": "finite",
            "modes": [{"frequency": f, "coupling": 0.008}
                      for f in (0.88, 0.96, 1.05, 1.14)],
            "temperature": 1.0,
            "broadening": 0.10,
        },
        times={"t_max": 80.0, "samples": 31},
    )
    path = write_scenario(tmp_path, data, name="breakdown.json")

    code, out, _ = run_cli(capsys, "oracle", path)
    assert code == 0
    weak = json.loads(out)
    assert weak["verdict"] == "pass"
    assert weak["max_trace_distance"] < 0.05

    code, out, _ = run_cli(capsys, "oracle", path, "--coupling-scale", "40")
    assert code == 0
    strong = json.loads(out)
    assert strong["verdict"] == "fail"
    assert strong["timescale"]["two_scale_ratio"] > 1.0
    assert strong["max_trace_distance"] > 5.0 * weak["max_trace_distance"]


def test_oracle_respects_dimension_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LF_MAX_DIM", "2")
    data = flat_thermal_data(
        bath={
            "kind": "finite",
            "modes": [{"frequency": 1.0, "coupling": 0.1}],
            "temperature": 1.0,
            "broadening": 0.5,
        },
    )
    path = write_scenario(tmp_path, data)
    code, out, err = run_cli(capsys, "oracle", path)
    assert code == 3
    assert "LF_MAX_DIM" in err


def test_oracle_reports_propagation_failure(tmp_path, capsys, monkeypatch):
    # presecular generators are not guaranteed positive: this coarse-grained
    # one drives the state negative, which is an invariant failure (exit 1
    # with a JSON error), not a traceback
    monkeypatch.chdir(tmp_path)
    coupling = [[0.3, -0.7, -0.4], [-0.7, 0.6, 0.6], [-0.4, 0.6, 0.1]]
    data = flat_thermal_data(
        system={"eigenvalues": [0.0, 1.0, 1.13835]},
        bath={
            "kind": "finite",
            "modes": [{"frequency": f, "coupling": c} for f, c in
                      ((0.24, 0.08), (1.14, 0.30), (1.06, 0.17), (1.60, 0.22))],
            "temperature": 1.0,
            "broadening": 0.1,
        },
        couplings=[{"A": cm(coupling)}],
        times={"t_max": 20.0, "samples": 11},
        policy={"mode": "presecular", "filter": "F-weighted", "dt": 2.17},
    )
    path = write_scenario(tmp_path, data)
    for command in ("evolve", "oracle"):
        code, _, err = run_cli(capsys, command, path)
        assert code == 1
        error = json.loads(err.strip().splitlines()[-1])["error"]
        assert error["type"] == "propagation"
        assert "min eigenvalue" in error["message"]


@pytest.mark.parametrize("command, scenario, from_oracle", [
    ("oracle", "weak_coupling_comb.json", True),
    ("oracle", "breakdown.json", False),
    ("verify", "weak_coupling_comb.json", False),
    ("verify", "thermal_qubit.json", False),
])
def test_failed_eigensolver_is_numerical_error(tmp_path, capsys, monkeypatch,
                                               command, scenario, from_oracle):
    # LinAlgError subclasses ValueError, but a solver that does not converge
    # is not bad input: exit 1 with one JSON error of type "numerical".
    # from_oracle: eigh fails only once the Lindblad run is done, so the
    # exact oracle's own eigensolver is the one that fails
    monkeypatch.chdir(tmp_path)

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    if from_oracle:
        propagate = lindforge.cli.propagate

        def propagate_then_fail(*args, **kwargs):
            traj = propagate(*args, **kwargs)
            monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
            return traj

        monkeypatch.setattr(lindforge.cli, "propagate", propagate_then_fail)
    else:
        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    path = pathlib.Path(__file__).parent.parent / "demos" / "scenarios" / scenario
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": {
        "type": "numerical", "message": "Eigenvalues did not converge"}}
    assert not list(tmp_path.glob("*.oracle.csv"))


@pytest.mark.parametrize("message, want", [
    ("Unable to allocate 268. MiB for an array with shape (4096, 4096) and "
     "data type complex128", None), ("", "out of memory")])
def test_memory_error_is_resource_error(tmp_path, capsys, monkeypatch, message, want):
    # an allocation that fails is a resource limit, not a traceback: exit 3
    # with one JSON error of type "resource" and nothing on stdout
    def failing_derive(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(lindforge.cli, "derive_generator", failing_derive)
    path = pathlib.Path(__file__).parent.parent / "demos" / "scenarios" / "weak_coupling_comb.json"
    code, out, err = run_cli(capsys, "derive", str(path))
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": {"type": "resource", "message": want or message}}


def test_oracle_rejects_analytic_bath(tmp_path, capsys):
    path = write_scenario(tmp_path, flat_thermal_data())
    code, _, err = run_cli(capsys, "oracle", path)
    assert code == 2
    assert "finite" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "derive", "/nonexistent/nothing.json")
    assert code == 2
    assert "error" in err


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken json", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("command", ["derive", "verify"])
def test_deeply_nested_json_is_scenario_error(tmp_path, capsys, command):
    # json's decoder recurses once per level and runs out of stack first
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "scenario"
    assert error["message"] == f"{path}: parse error: nested too deeply"


@pytest.mark.parametrize("channels", [1, 2])
def test_battery_passes_without_dissipator_terms(channels):
    zero = cm(np.zeros((2, 2)))
    couplings = ([{"A": zero}] if channels == 1 else
                 [{"A": zero, "channel": c} for c in range(channels)])
    coupled = [{"A": SX}] if channels == 1 else [{"A": SX, "channel": c}
                                                 for c in range(channels)]
    names = []
    for couplings_node in (couplings, coupled):
        data = flat_thermal_data(couplings=couplings_node)
        sc = loads_scenario(json.dumps(data))
        res = derive_generator(sc.h_a, sc.bath, sc.couplings)
        checks = run_checks(sc, res)
        assert all(c["status"] == "pass" for c in checks), checks
        names.append([c["name"] for c in checks])
    assert res.generator.dissipator_terms  # the coupled run has terms
    assert names[0] == names[1]


def test_blocks_consistency_check_holds_the_blocks_to_the_rhs():
    # the derived blocks pass; blocks one part in 1e9 off fail; a presecular
    # generator has no blocks and no entry
    sc = loads_scenario(json.dumps(flat_thermal_data()))
    res = derive_generator(sc.h_a, sc.bath, sc.couplings)
    status = lambda checks: {c["name"]: c["status"]
                             for c in checks}.get("generator-blocks-consistency")
    assert status(run_checks(sc, res)) == "pass"
    blocks = res.generator.bohr_blocks
    res.generator.__dict__["bohr_blocks"] = BohrBlocks(
        blocks.basis, tuple((index, mats * (1 + 1e-9)) for index, mats in blocks.groups))
    assert status(run_checks(sc, res)) == "fail"
    pre = derive_generator(sc.h_a, sc.bath, sc.couplings, mode="presecular",
                           policy=SecularPolicy(dt=5.0))
    assert status(run_checks(sc, pre)) is None


def test_bad_table_entry_is_named_by_derive_and_failed_by_verify(tmp_path, capsys):
    demo = pathlib.Path(__file__).parent.parent / "demos" / "scenarios"
    data = json.loads((demo / "four_level_table.json").read_text())
    for entry in data["bath"]["entries"]:
        if entry["omega"] == -2.1:
            entry["gamma"] = [[[-0.5, 0.0]]]
    path = write_scenario(tmp_path, data, "four_level_table.json")
    code, out, err = run_cli(capsys, "derive", path)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "scenario"
    assert "omega=-2.1" in error["message"]
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 1
    report = json.loads(out)
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("gamma-table-validity", "fail")]
    assert "omega=-2.1" in report["checks"][0]["defect"]


@pytest.mark.parametrize("fault", ["no-gamma", "no-entries", "text-omega"])
def test_malformed_rate_table_is_a_scenario_error_under_verify(tmp_path, capsys, fault):
    # schema faults are refused as the file is read (exit 2), by verify as
    # by derive; only a table whose values table_bath refuses is a failing
    # gamma-table-validity check (exit 1)
    demo = pathlib.Path(__file__).parent.parent / "demos" / "scenarios"
    data = json.loads((demo / "four_level_table.json").read_text())
    entries = data["bath"]["entries"]
    if fault == "no-gamma":
        del entries[0]["gamma"]
    elif fault == "no-entries":
        entries.clear()
    else:
        entries[0]["omega"] = "x"
    path = write_scenario(tmp_path, data, "four_level_table.json")
    for command in ("derive", "verify"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, out) == (2, "")
        message = one_scenario_error(err)
        assert message.startswith("bath.entries")


def run_cli_strict(capsys, *argv):
    """run_cli with every warning recorded: (code, out, err, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    return code, out, err, caught


def one_scenario_error(err):
    """The message of the one JSON error line of type scenario on stderr."""
    lines = err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])["error"]
    assert error["type"] == "scenario"
    return error["message"]


@pytest.mark.parametrize("command", ["derive", "verify", "evolve"])
@pytest.mark.parametrize("top", [1e308, -1e308, 1.7e308])
def test_overflowing_system_levels_are_refused_at_parse_time(tmp_path, capsys,
                                                               command, top):
    # diag(0, top) is finite, but its hermitian part overflows in the sum
    path = write_scenario(tmp_path, flat_thermal_data(system={"eigenvalues": [0.0, top]}))
    code, out, err, caught = run_cli_strict(capsys, command, path)
    assert (code, out, caught) == (2, "", [])
    assert one_scenario_error(err) == (
        "system.eigenvalues: has a non-finite or overflowing entry")
    h = {"hamiltonian": cm(np.diag([0.0, top]))}
    path = write_scenario(tmp_path, flat_thermal_data(system=h))
    code, out, err, caught = run_cli_strict(capsys, command, path)
    assert (code, out, caught) == (2, "", [])
    assert one_scenario_error(err) == (
        "system.hamiltonian: has a non-finite or overflowing entry")


@pytest.mark.parametrize("command", ["derive", "verify", "evolve"])
def test_large_finite_system_levels_still_derive(tmp_path, capsys, command):
    path = write_scenario(tmp_path, flat_thermal_data(system={"eigenvalues": [0.0, 1e300]}))
    code, out, err, caught = run_cli_strict(capsys, command, path)
    assert (code, err, caught) == (0, "", [])


def test_overflowing_coupling_pair_gives_one_json_line(tmp_path, capsys):
    # A - A^+ overflows; the hermitian part is zero and finite
    a = np.array([[0.0, -1e308], [1e308, 0.0]])
    path = write_scenario(tmp_path, flat_thermal_data(couplings=[{"A": cm(a)}]))
    code, out, err, caught = run_cli_strict(capsys, "derive", path)
    assert (code, out, caught) == (2, "", [])
    assert one_scenario_error(err).startswith(
        "couplings[0].A: not hermitian (defect inf)")


@pytest.mark.parametrize("command", ["derive", "oracle"])
def test_adjoint_pair_that_leaves_no_channel_names_couplings(tmp_path, capsys,
                                                             monkeypatch, command):
    # next to the 1e308 entry of A the bath part 0.1 sigma_- falls below
    # hermitize_coupling's 1e-13 cut, so every channel is dropped
    monkeypatch.chdir(tmp_path)
    a = np.array([[0.0, 1.0], [1e308, 0.0]])
    data = flat_thermal_data(
        bath={"kind": "finite", "hamiltonian": cm(np.diag([0.0, 0.9])),
              "temperature": 2.0, "broadening": 0.5},
        couplings=[{"A": cm(a), "X": cm(0.1 * sigma_ops()[3]), "add_adjoint": True}],
    )
    path = write_scenario(tmp_path, data)
    code, out, err, caught = run_cli_strict(capsys, command, path)
    assert (code, out, caught) == (2, "", [])
    assert one_scenario_error(err).startswith("couplings: no hermitian channel is left")


@pytest.mark.parametrize("frequency, code", [(1e308, 2), (1e200, 0)])
def test_mode_frequency_near_the_float_limit(tmp_path, capsys, frequency, code):
    demo = pathlib.Path(__file__).parent.parent / "demos" / "scenarios"
    data = json.loads((demo / "weak_coupling_comb.json").read_text())
    data["bath"]["modes"][1]["frequency"] = frequency
    path = write_scenario(tmp_path, data)
    got, out, err, caught = run_cli_strict(capsys, "derive", path)
    assert (got, caught) == (code, [])
    if code:
        # the top level of H_B, the sum of the frequencies, overflows its
        # hermitian part
        assert out == ""
        assert one_scenario_error(err) == (
            "bath.modes[1].frequency: has a non-finite or overflowing entry")
    else:
        assert err == ""

        def refuse(token):
            raise AssertionError(f"{token} in the report")

        json.loads(out, parse_constant=refuse)


def test_fock_decay_above_the_dense_cap_is_binomial(tmp_path, capsys):
    # d = 91 ladder at nbar = 0 (omega / T = 1000 overflows expm1) with a flat
    # bath: the T = 0 damped oscillator, whose Fock state |n0> decays as
    # p_k(t) = C(n0, k) q^k (1 - q)^(n0 - k), q = exp(-gamma t); rk4 steps
    # the same Bohr blocks as expm (measured 2.8e-11 off)
    dim, gamma = 91, 0.1
    data = ladder_data([float(n) for n in range(dim)])
    data["bath"] = {"kind": "flat-thermal", "gamma": gamma, "temperature": 1e-3}
    data["times"] = {"t_max": 30.0, "samples": 31}
    path = write_scenario(tmp_path, data)
    for method, tol in (("expm", 1e-12), ("rk4", 1e-10)):
        code, out, err = run_cli(capsys, "evolve", path, "--method", method)
        assert (code, err) == (0, "")
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        columns = [header.index(f"re_{k}_{k}") for k in range(dim)]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 31
        n0 = dim - 1
        worst = 0.0
        for row in rows:
            q = math.exp(-gamma * float(row[0]))
            for k, col in enumerate(columns):
                exact = math.comb(n0, k) * q**k * (1.0 - q) ** (n0 - k)
                worst = max(worst, abs(float(row[col]) - exact))
        assert worst < tol, method


def test_far_mode_leaves_the_comb_its_correlation_grid(tmp_path, capsys):
    # a frequency counts as zero only within rounding of its own levels, so
    # one mode at 5e307 does not hide the seven near 1: the table spans
    # eight periods of the slowest of them, as without the far mode (whose
    # levels are differences like (a + nu_0) - a, an ulp or two off nu_0),
    # and its far phases stay finite
    demo = pathlib.Path(__file__).parent.parent / "demos" / "scenarios"
    data = json.loads((demo / "weak_coupling_comb.json").read_text())
    plain = estimate_correlation_time(load_scenario(demo / "weak_coupling_comb.json").bath)
    data["bath"]["modes"][1]["frequency"] = 5e307
    path = write_scenario(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = estimate_correlation_time(load_scenario(path).bath)
    assert table.taus[-1] == plain.taus[-1]
    assert math.isclose(table.taus[-1], 8.0 * math.pi / 0.9466517888250567, rel_tol=1e-15)
    assert len(table.taus) == 4096
    assert math.isfinite(table.tau_b_estimate) and np.isfinite(table.values).all()
    code, out, err, caught = run_cli_strict(capsys, "derive", path)
    assert (code, err, caught) == (0, "", [])


def qubit_table_data(gamma, delta, a, mode):
    # the thermal_qubit demo on a three-entry table with Gamma = [[gamma]]
    # and Delta = [[delta]]
    demo = pathlib.Path(__file__).parent.parent / "demos" / "scenarios"
    data = json.loads((demo / "thermal_qubit.json").read_text())
    data["bath"] = {"kind": "table", "entries": [
        {"omega": w, "gamma": cm([[gamma]]), "delta": cm([[delta]])} for w in (-1.0, 0.0, 1.0)]}
    data["couplings"][0]["A"] = cm(a)
    if mode == "presecular":
        data["policy"] = {"mode": "presecular", "filter": "F-weighted", "dt": 5}
    return data


@pytest.mark.parametrize("command", ["derive", "verify", "evolve"])
@pytest.mark.parametrize("filt", ["exact-match", "nonsense", None])
def test_presecular_takes_only_the_f_weighted_filter(tmp_path, capsys, command, filt):
    # the secular generator comes from {"mode": "secular"} alone
    data = qubit_table_data(0.1, 0.02, [[0, 1], [1, 0]], "presecular")
    data["policy"]["filter"] = filt
    path = write_scenario(tmp_path, data)
    code, out, err, caught = run_cli_strict(capsys, command, path)
    assert (code, out, caught) == (2, "", [])
    message = one_scenario_error(err)
    assert message.startswith("policy.filter:") and '{"mode": "secular"}' in message


@pytest.mark.parametrize("command", ["derive", "evolve"])
def test_presecular_filter_defaults_to_f_weighted(tmp_path, capsys, command):
    data = qubit_table_data(0.1, 0.02, [[0, 1], [1, 0]], "presecular")
    outputs = []
    for policy in ({"mode": "presecular", "filter": "F-weighted", "dt": 5},
                   {"mode": "presecular", "dt": 5}):
        data["policy"] = policy
        path = write_scenario(tmp_path, data)
        code, out, err = run_cli(capsys, command, path)
        assert (code, err) == (0, "") and out
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["derive", "verify", "evolve"])
def test_presecular_window_near_the_float_limit_runs_clean(tmp_path, capsys, command):
    # with dt = 1e308, x dt / 2 overflows for the larger differences x of
    # the table's Bohr frequencies, whose window weights are then 0: every
    # command exits 0, warns nothing and writes only finite numbers
    demo = pathlib.Path(__file__).parent.parent / "demos" / "scenarios"
    data = json.loads((demo / "four_level_table.json").read_text())
    data["policy"] = {"mode": "presecular", "dt": 1e308}
    code, out, err, caught = run_cli_strict(capsys, command, write_scenario(tmp_path, data))
    assert (code, err, caught) == (0, "", [])
    if command == "evolve":
        cells = [float(x) for line in out.splitlines()[1:] for x in line.split(",")]
        assert cells and all(math.isfinite(x) for x in cells)
    else:
        json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} in the output"))


@pytest.mark.parametrize("command", ["derive", "verify", "evolve"])
@pytest.mark.parametrize("mode", ["secular", "presecular"])
def test_overflowing_lamb_shift_is_an_input_error(tmp_path, capsys, mode, command):
    # the escape sum of Delta = 1e307 over A = [[3, 3], [3, -3]] overflows:
    # build_rate_tensors refuses it in both modes, before either builder
    path = write_scenario(tmp_path, qubit_table_data(0.1, 1e307, [[3, 3], [3, -3]], mode))
    code, out, err, caught = run_cli_strict(capsys, command, path)
    assert (code, out, caught) == (2, "", [])
    lines = err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])["error"]
    assert error["type"] == "input" and error["message"].startswith("Delta:")


@pytest.mark.parametrize("command, want", [("derive", 1), ("verify", 1), ("evolve", 0)])
@pytest.mark.parametrize("mode", ["secular", "presecular"])
def test_finite_lamb_shift_near_the_float_limit_warns_nothing(tmp_path, capsys,
                                                               mode, command, want):
    # Delta = 8e307 with A = sigma_x keeps the Lamb shift finite; the
    # battery's scale arithmetic runs without a warning, and a check whose
    # tolerance overflows fails
    path = write_scenario(tmp_path, qubit_table_data(0.1, 8e307, [[0, 1], [1, 0]], mode))
    code, out, err, caught = run_cli_strict(capsys, command, path)
    assert (code, err, caught) == (want, "", [])
    if command == "evolve":
        cells = [float(x) for line in out.splitlines()[1:] for x in line.split(",")]
        assert cells and all(math.isfinite(x) for x in cells)
        return

    def refuse(token):
        raise AssertionError(f"{token} in the output")

    checks = json.loads(out, parse_constant=refuse)["checks"]
    assert any(c["status"] == "fail" for c in checks)


def limit_table_data(mode):
    # levels [0, 8e307] on a table sampled at omega = -8e307, 0 and 8e307,
    # with Delta = 8e307 and A = sigma_x; presecular with a window of 1
    data = qubit_table_data(0.1, 8e307, [[0, 1], [1, 0]], mode)
    data["system"]["eigenvalues"] = [0.0, 8e307]
    for entry, omega in zip(data["bath"]["entries"], (-8e307, 0.0, 8e307)):
        entry["omega"] = omega
    if mode == "presecular":
        data["policy"]["dt"] = 1
    return data


@pytest.mark.parametrize("command", ["derive", "verify", "evolve"])
def test_overflowing_effective_hamiltonian_is_an_input_error(tmp_path, capsys, command):
    # the Lamb shift is finite, but H_A + h_ls overflows: the secular
    # builder refuses h_eff with one JSON input error and no warning
    path = write_scenario(tmp_path, limit_table_data("secular"))
    code, out, err, caught = run_cli_strict(capsys, command, path)
    assert (code, out, caught) == (2, "", [])
    lines = err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])["error"]
    assert error["type"] == "input" and error["message"].startswith("Delta:")


@pytest.mark.parametrize("command", ["derive", "verify"])
def test_overflowing_rhs_probes_fail_a_check_without_a_warning(tmp_path, capsys, command):
    # the presecular generator keeps Delta inside G, and the battery's rhs
    # probes overflow: a check fails, with strict JSON and nothing on stderr
    path = write_scenario(tmp_path, limit_table_data("presecular"))
    code, out, err, caught = run_cli_strict(capsys, command, path)
    assert (code, err, caught) == (1, "", [])

    def refuse(token):
        raise AssertionError(f"{token} in the output")

    checks = json.loads(out, parse_constant=refuse)["checks"]
    assert any(c["status"] == "fail" for c in checks)


@pytest.mark.parametrize("command", ["derive", "verify", "evolve"])
@pytest.mark.parametrize("mode", ["secular", "presecular"])
def test_overflowing_gamma_is_an_input_error(tmp_path, capsys, mode, command):
    # the escape sum kappa of Gamma = 1e307 over A = [[3, 3], [3, -3]]
    # overflows: build_rate_tensors refuses it in both modes, before either
    # builder, with one JSON error and no warning
    path = write_scenario(tmp_path, qubit_table_data(1e307, 0.0, [[3, 3], [3, -3]], mode))
    code, out, err, caught = run_cli_strict(capsys, command, path)
    assert (code, out, caught) == (2, "", [])
    lines = err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])["error"]
    assert error["type"] == "input" and error["message"].startswith("Gamma:")


# ---------------------------------------------------------------------------
# the eigenoperator checks on their random-phase sketches

EIGENOPERATOR_CHECKS = ("eigenoperator-completeness", "eigenoperator-commutator",
                        "eigenoperator-adjoint-commutator",
                        "eigenoperator-invariant-commutator")


def _doublet_scenario():
    """Five doublets (seed 3) under two random couplings and a flat-thermal
    bath: rows of A' hold two entries per label."""
    data = generic_scenario_data(10, multiplet=2)
    rng = np.random.default_rng(33)
    data["couplings"] = [{"A": cm(random_hermitian(rng, 10)), "channel": c} for c in range(2)]
    sc = loads_scenario(json.dumps(data))
    return sc, derive_generator(sc.h_a, sc.bath, sc.couplings)


def _with_fault(res, basis=None, index=None, rotated=None):
    """res with its spectrum's eigenvectors, Bohr labels or rotated
    couplings replaced; H_A stays the true one."""
    spectrum = dataclasses.replace(
        res.spectrum, basis=res.spectrum.basis if basis is None else basis)
    spectrum.__dict__["hamiltonian"] = res.spectrum.hamiltonian
    spectrum.__dict__["bohr_index"] = res.spectrum.bohr_index if index is None else index
    eigenops = tuple(
        EigenOperatorSet(eset.rotated if rotated is None else rotated[c], spectrum,
                         eset.labels)
        for c, eset in enumerate(res.eigenops))
    return dataclasses.replace(res, spectrum=spectrum, eigenops=eigenops)


def _per_piece_failures(sc, res, tolerances) -> set:
    """The eigenoperator checks that fail piece by piece, with test_c01's
    and test_c02's identities, against the battery's tolerances."""
    h = res.spectrum.hamiltonian
    worst = dict.fromkeys(EIGENOPERATOR_CHECKS, 0.0)
    for a, eset in zip(sc.couplings, res.eigenops):
        pieces = eset.terms
        total = sum(pieces.values(), np.zeros_like(a))
        worst["eigenoperator-completeness"] = max(worst["eigenoperator-completeness"],
                                                  float(np.abs(total - a).max()))
        for omega, a_om in pieces.items():
            adj = a_om.conj().T
            prod = adj @ a_om
            for name, defect in (
                    ("eigenoperator-commutator", h @ a_om - a_om @ h + omega * a_om),
                    ("eigenoperator-adjoint-commutator", h @ adj - adj @ h - omega * adj),
                    ("eigenoperator-invariant-commutator", h @ prod - prod @ h)):
                worst[name] = max(worst[name], float(np.abs(defect).max()))
    return {name for name in EIGENOPERATOR_CHECKS if worst[name] > tolerances[name]}


def _battery_failures(sc, res) -> tuple[set, dict]:
    checks = {c["name"]: c for c in run_checks(sc, res)}
    failed = {name for name in EIGENOPERATOR_CHECKS if checks[name]["status"] == "fail"}
    return failed, {name: checks[name]["tolerance"] for name in EIGENOPERATOR_CHECKS}


def _rotated_basis(res):
    # V turned by the small unitary e^{i 1e-6 K}, K random hermitian
    w, u = np.linalg.eigh(random_hermitian(np.random.default_rng(5), res.spectrum.dim))
    return res.spectrum.basis @ ((u * np.exp(1e-6j * w)) @ u.conj().T)


def _moved_label(res):
    # the gap (0, 2) takes the label of (0, 4), whose level 4 opens the next
    # doublet up
    index = res.spectrum.bohr_index.copy()
    assert index[0, 2] == index[0, 3] != index[0, 4]
    index[0, 2] = index[0, 4]
    return index


def _zeroed_entry(res):
    # the largest entry of channel 1's A' is zeroed
    rotated = [eset.rotated.copy() for eset in res.eigenops]
    rotated[1].flat[np.argmax(np.abs(rotated[1]))] = 0.0
    return rotated


@pytest.mark.parametrize("fault, expected", [
    ("basis", set(EIGENOPERATOR_CHECKS)),
    ("index", set(EIGENOPERATOR_CHECKS[1:])),
    ("rotated", {"eigenoperator-completeness"}),
], ids=["rotated-basis", "moved-label", "zeroed-entry"])
def test_sketched_checks_fail_exactly_where_the_pieces_do(fault, expected):
    sc, res = _doublet_scenario()
    failed, tolerances = _battery_failures(sc, res)
    assert failed == set() == _per_piece_failures(sc, res, tolerances)
    make = {"basis": _rotated_basis, "index": _moved_label, "rotated": _zeroed_entry}[fault]
    faulty = _with_fault(res, **{fault: make(res)})
    failed, tolerances = _battery_failures(sc, faulty)
    assert failed == _per_piece_failures(sc, faulty, tolerances) == expected


def test_battery_builds_no_user_basis_piece(monkeypatch):
    sc, res = _doublet_scenario()

    def no_pieces(self, labels):
        raise AssertionError("a user-basis piece was built")

    monkeypatch.setattr(EigenOperatorSet, "pieces", no_pieces)
    checks = run_checks(sc, res)
    assert all(c["status"] == "pass" for c in checks), checks
    assert [c["name"] for c in checks[:4]] == list(EIGENOPERATOR_CHECKS)

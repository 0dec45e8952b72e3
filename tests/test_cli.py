import json
import math

import numpy as np

from lindforge import FiniteBath, derive_generator, interaction_picture
from lindforge.cli import _free_hamiltonian_scale, _free_picture, main, run_checks
from lindforge.scenario import MAX_TIME_SAMPLES, loads_scenario

from _support import (
    crandn,
    random_density,
    random_hermitian,
    record_eigh,
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
    a_plus = np.array(
        [[complex(re, im) for (re, im) in row] for row in terms[OMEGA]["eigenoperators"][0]]
    )
    assert np.abs(a_plus - np.array([[0.0, 1.0], [0.0, 0.0]])).max() < 1e-12
    check_names = {c["name"] for c in report["checks"]}
    assert "eigenoperator-completeness" in check_names
    assert "rhs-trace-preservation" in check_names


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
    # the battery's factored e^{-i H_A t} x e^{-i H_B t} against the dense
    # rotation by the joint H_0
    rng = np.random.default_rng(41)
    for d_a, d_b in ((2, 3), (3, 5), (4, 2), (1, 4)):
        h_a = random_hermitian(rng, d_a, scale=1.5)
        h_b = random_hermitian(rng, d_b, scale=1.5)
        bath = FiniteBath(h_b, 1.0, [random_hermitian(rng, d_b)], broadening=0.5)
        h0 = np.kron(h_a, np.eye(d_b)) + np.kron(np.eye(d_a), h_b)
        assert _free_hamiltonian_scale(h_a, h_b) == float(np.abs(h0).max())
        rho_ab = random_density(rng, d_a * d_b)
        t = float(rng.uniform(0.1, 2.0))
        dense = interaction_picture(rho_ab, h0, t, "to")
        assert np.abs(_free_picture(rho_ab, h_a, bath, t) - dense).max() < 1e-12
        op = crandn(rng, d_a * d_b, d_a * d_b)
        dense = interaction_picture(op, h0, t, "to")
        assert np.abs(_free_picture(op, h_a, bath, t) - dense).max() < 1e-12


def test_battery_diagonalises_no_bath_or_joint_matrix(monkeypatch):
    data = flat_thermal_data(
        bath={
            "kind": "finite",
            "modes": [{"frequency": 0.9, "coupling": 0.05},
                      {"frequency": 1.0, "coupling": 0.06},
                      {"frequency": 1.2, "coupling": 0.04}],
            "temperature": 1.0,
            "broadening": 0.3,
        }
    )
    sc = loads_scenario(json.dumps(data))
    res = derive_generator(sc.h_a, sc.bath, sc.couplings, mode=sc.mode,
                           policy=sc.policy)
    sizes = record_eigh(monkeypatch)
    checks = run_checks(sc, res)
    assert {c["name"] for c in checks} >= {"correlation-stationarity",
                                           "picture-reduction-invariance"}
    assert all(c["status"] == "pass" for c in checks)
    assert sizes and max(sizes) == sc.dim < sc.bath.dim


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

import copy
import json
import math
import re

import numpy as np
import pytest

from lindforge import (
    DimensionError,
    FiniteBath,
    ScenarioError,
    derive_generator,
    load_scenario,
    loads_scenario,
    propagate,
    scenario_from_data,
    serialize_scenario,
)
from lindforge.cli import main
from lindforge.scenario import MAX_TIME_SAMPLES

from _support import sigma_ops


def cm(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


SX = cm(np.array([[0, 1], [1, 0]]))


def flat_thermal_data(**overrides):
    data = {
        "system": {"eigenvalues": [0.0, 1.0]},
        "bath": {"kind": "flat-thermal", "gamma": 0.2, "temperature": 1.0},
        "couplings": [{"A": SX}],
        "initial_state": "excited",
        "times": {"t_max": 10.0, "samples": 11},
    }
    data.update(overrides)
    return data


def test_minimal_two_level_scenario_loads():
    s = scenario_from_data(flat_thermal_data())
    assert s.dim == 2
    assert s.mode == "secular"
    assert len(s.times) == 11 and s.times[0] == 0.0 and s.times[-1] == 10.0
    # 'excited' projects onto the highest level
    assert np.abs(s.rho0 - np.diag([0.0, 1.0])).max() < 1e-12
    assert s.policy is None


def test_named_initial_states():
    for name, diag in (("ground", [1.0, 0.0]), ("maximally-mixed", [0.5, 0.5])):
        s = scenario_from_data(flat_thermal_data(initial_state=name))
        assert np.abs(s.rho0 - np.diag(diag)).max() < 1e-12
    s = scenario_from_data(flat_thermal_data(initial_state={"diagonal": [0.3, 0.7]}))
    assert np.abs(s.rho0 - np.diag([0.3, 0.7])).max() < 1e-12


def test_coupling_dimension_mismatch_names_the_field():
    bad = flat_thermal_data(couplings=[{"A": cm(np.eye(3))}])
    with pytest.raises(ScenarioError, match=r"couplings\[0\].A"):
        scenario_from_data(bad)


def test_unknown_fields_are_rejected():
    with pytest.raises(ScenarioError, match="bogus"):
        scenario_from_data(flat_thermal_data(bogus=1))
    data = flat_thermal_data()
    data["bath"]["extra"] = True
    with pytest.raises(ScenarioError, match="extra"):
        scenario_from_data(data)


def test_system_needs_exactly_one_form():
    data = flat_thermal_data()
    data["system"] = {"eigenvalues": [0.0, 1.0], "hamiltonian": cm(np.eye(2))}
    with pytest.raises(ScenarioError, match="exactly one"):
        scenario_from_data(data)
    data["system"] = {}
    with pytest.raises(ScenarioError, match="exactly one"):
        scenario_from_data(data)


def test_non_hermitian_hamiltonian_rejected_with_defect():
    h = [[[0.0, 0.0], [1.0, 0.5]], [[0.0, 0.0], [0.0, 0.0]]]
    data = flat_thermal_data(system={"hamiltonian": h})
    with pytest.raises(ScenarioError, match="not hermitian"):
        scenario_from_data(data)


def test_bad_diagonal_initial_states():
    with pytest.raises(ScenarioError, match="non-negative"):
        scenario_from_data(flat_thermal_data(initial_state={"diagonal": [-0.1, 1.1]}))
    with pytest.raises(ScenarioError, match="sum"):
        scenario_from_data(flat_thermal_data(initial_state={"diagonal": [0.3, 0.3]}))


def test_initial_matrix_must_be_a_density_matrix():
    bad = cm(np.diag([1.5, -0.5]))
    with pytest.raises(ScenarioError, match="initial_state.matrix"):
        scenario_from_data(flat_thermal_data(initial_state={"matrix": bad}))


def test_initial_matrix_refusal_names_the_trace_defect():
    # the scenario and propagate refuse a trace of 1.1 in the same words
    rho = np.diag([0.6, 0.5])
    with pytest.raises(ScenarioError) as info:
        scenario_from_data(flat_thermal_data(initial_state={"matrix": cm(rho)}))
    words = ("not a density matrix within 1e-06: trace defect 1.000e-01, "
             "hermiticity defect 0.000e+00, min eigenvalue 5.000e-01")
    assert str(info.value) == "initial_state.matrix: " + words
    good = scenario_from_data(flat_thermal_data())
    with pytest.raises(ValueError) as info:
        propagate(rho, derive_generator(good.h_a, good.bath, good.couplings).generator,
                  [0.0, 1.0])
    assert str(info.value) == "rho0 is " + words


def test_times_validation():
    with pytest.raises(ScenarioError, match="samples"):
        scenario_from_data(flat_thermal_data(times={"t_max": 1.0, "samples": 1}))
    with pytest.raises(ScenarioError, match="t_max"):
        scenario_from_data(flat_thermal_data(times={"t_max": -1.0, "samples": 5}))


def test_times_samples_cap():
    at_cap = {"t_max": 1.0, "samples": MAX_TIME_SAMPLES}
    assert len(scenario_from_data(flat_thermal_data(times=at_cap)).times) == MAX_TIME_SAMPLES
    over = {"t_max": 1.0, "samples": MAX_TIME_SAMPLES + 1}
    with pytest.raises(DimensionError, match="times.samples"):
        scenario_from_data(flat_thermal_data(times=over))


def test_policy_validation():
    with pytest.raises(ScenarioError, match="dt"):
        scenario_from_data(flat_thermal_data(policy={"mode": "presecular"}))
    with pytest.raises(ScenarioError, match="presecular"):
        scenario_from_data(flat_thermal_data(policy={"mode": "secular", "dt": 1.0}))
    s = scenario_from_data(
        flat_thermal_data(policy={"mode": "presecular", "dt": 50.0, "filter": "F-weighted"})
    )
    assert s.mode == "presecular"
    assert s.policy.dt == 50.0


def test_table_bath_scenario_rejects_bad_gamma():
    gamma_bad = [[[0.1, 0.0], [0.9, 0.0]], [[0.9, 0.0], [0.1, 0.0]]]  # indefinite
    data = flat_thermal_data(
        bath={"kind": "table", "entries": [{"omega": 1.0, "gamma": gamma_bad}]},
        couplings=[{"A": SX, "channel": 0}, {"A": SX, "channel": 1}],
    )
    with pytest.raises(ScenarioError) as err:
        scenario_from_data(data)
    assert str(err.value).startswith("bath.entries")
    assert "omega=1" in str(err.value)


def test_finite_mode_bath_scenario():
    data = flat_thermal_data(
        bath={
            "kind": "finite",
            "modes": [{"frequency": 1.0, "coupling": 0.1},
                      {"frequency": 1.4, "coupling": 0.05}],
            "temperature": 1.0,
            "broadening": 0.4,
        }
    )
    s = scenario_from_data(data)
    assert isinstance(s.bath, FiniteBath)
    assert s.bath.dim == 4
    assert s.bath.broadening == 0.4


def test_finite_explicit_bath_with_add_adjoint():
    _, _, _, sm = sigma_ops()
    x = np.array([[0.0, 0.3], [0.0, 0.0]])
    data = flat_thermal_data(
        bath={
            "kind": "finite",
            "hamiltonian": cm(np.diag([0.0, 0.9])),
            "temperature": 2.0,
            "broadening": 0.5,
        },
        couplings=[{"A": cm(sm), "X": cm(x), "add_adjoint": True}],
    )
    s = scenario_from_data(data)
    assert isinstance(s.bath, FiniteBath)
    # the non-hermitian pair is rewritten in hermitian channels
    assert len(s.couplings) == s.bath.channel_count
    for a_op, x_op in zip(s.couplings, s.bath.coupling_ops):
        assert np.abs(a_op - a_op.conj().T).max() < 1e-12
        assert np.abs(x_op - x_op.conj().T).max() < 1e-12
    total_in = np.kron(sm, x) + np.kron(sm.conj().T, x.conj().T)
    total_out = sum(np.kron(a, x_op) for a, x_op in zip(s.couplings, s.bath.coupling_ops))
    assert np.abs(total_in - total_out).max() < 1e-12


def test_finite_explicit_bath_requires_hermitian_pairs_without_adjoint():
    _, _, _, sm = sigma_ops()
    data = flat_thermal_data(
        bath={
            "kind": "finite",
            "hamiltonian": cm(np.diag([0.0, 0.9])),
            "temperature": 2.0,
            "broadening": 0.5,
        },
        couplings=[{"A": cm(sm), "X": cm(np.eye(2))}],
    )
    with pytest.raises(ScenarioError, match="add_adjoint"):
        scenario_from_data(data)


def test_infinite_temperature_spelled_as_string():
    data = flat_thermal_data(
        bath={
            "kind": "finite",
            "hamiltonian": cm(np.diag([0.0, 0.9])),
            "temperature": "inf",
            "broadening": 0.5,
        },
        couplings=[{"A": SX, "X": cm(np.array([[0, 1], [1, 0]]))}],
    )
    s = scenario_from_data(data)
    assert math.isinf(s.bath.temperature)


def test_round_trip_is_bit_exact():
    text = json.dumps(flat_thermal_data(tau_b=0.8))
    s1 = loads_scenario(text)
    canon = serialize_scenario(s1)
    s2 = loads_scenario(canon)
    assert serialize_scenario(s2) == canon
    assert s2.data == s1.data
    assert s2.tau_b == 0.8


def test_parse_error_reports_position():
    with pytest.raises(ScenarioError, match="line 1"):
        loads_scenario("{not json")


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario("/nonexistent/path/scenario.json")


# ---------------------------------------------------------------------------
# every refusal of scenario.py, through the CLI: exit 2, one JSON scenario
# error on stderr, its message led by the field path

SM = cm(sigma_ops()[3])
MODE_BATH = {"kind": "finite", "temperature": 1.0, "broadening": 0.4,
             "modes": [{"frequency": 1.0, "coupling": 0.1},
                       {"frequency": 1.4, "coupling": 0.05}]}
EXPLICIT_BATH = {"kind": "finite", "hamiltonian": cm(np.diag([0.0, 0.9])),
                 "temperature": 2.0, "broadening": 0.5}
TABLE_BATH = {"kind": "table", "entries": [{"omega": w, "gamma": [[[0.1, 0.0]]]}
                                           for w in (-1.0, 0.0, 1.0)]}
BASES = {
    "flat": flat_thermal_data(),
    "modes": flat_thermal_data(bath=MODE_BATH),
    "explicit": flat_thermal_data(bath=EXPLICIT_BATH, couplings=[{"A": SX, "X": SX}]),
    "table": flat_thermal_data(bath=TABLE_BATH),
}
DELETE = object()
INF_TEXT = "@1e999@"  # written into the file as the JSON number 1e999


def edited_text(base, edits):
    """The base document with each "a.b[i].c" path set (an index one past
    the end appends, DELETE removes the key), as JSON text."""
    data = copy.deepcopy(BASES[base])
    for path, value in edits.items():
        keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
        node = data
        for key in keys[:-1]:
            node = node[key]
        if value is DELETE:
            del node[keys[-1]]
        elif isinstance(node, list) and keys[-1] == len(node):
            node.append(value)
        else:
            node[keys[-1]] = value
    return json.dumps(data).replace(f'"{INF_TEXT}"', "1e999")


REFUSALS = [
    # (field path the message starts with, base document, edits)
    ("times", "flat", {"times": 5}),
    ("tau_b", "flat", {"tau_b": INF_TEXT}),
    ("bath.gamma", "flat", {"bath.gamma": -0.1}),
    ("times.samples", "flat", {"times.samples": 2.5}),
    ("couplings[0].A[0][0]", "flat", {"couplings[0].A[0][0]": [1.0, 2.0, 3.0]}),
    ("couplings[0].A[0][1]", "flat", {"couplings[0].A[0][1]": ["1", 0.0]}),
    ("couplings[0].A[1][0]", "flat", {"couplings[0].A[1][0]": [INF_TEXT, 0.0]}),
    ("couplings[0].A", "flat", {"couplings[0].A": []}),
    ("couplings[0].A[1]", "flat", {"couplings[0].A[1]": [[0.0, 0.0]]}),
    ("system.eigenvalues", "flat", {"system.eigenvalues": []}),
    ("bath.temperature", "explicit", {"bath.temperature": -1.0}),
    ("bath.temperature", "flat", {"bath.temperature": 0}),
    ("bath.temperature", "flat", {"bath.temperature": "inf"}),
    ("couplings", "flat", {"couplings": []}),
    ("couplings[0].add_adjoint", "flat", {"couplings[0].add_adjoint": "yes"}),
    ("bath", "flat", {"bath": []}),
    ("bath", "flat", {"bath.kind": DELETE}),
    ("bath.kind", "flat", {"bath.kind": "ohmic"}),
    ("bath.broadening", "modes", {"bath.broadening": 0}),
    ("bath", "modes", {"bath.hamiltonian": EXPLICIT_BATH["hamiltonian"]}),
    ("bath.modes", "modes", {"bath.modes": []}),
    ("bath.modes[1].frequency", "modes", {"bath.modes[1].frequency": -1.0}),
    ("couplings", "modes", {"couplings[1]": {"A": SX}}),
    ("couplings[0].X", "modes", {"couplings[0].X": SX}),
    ("couplings[0].channel", "modes", {"couplings[0].channel": 1}),
    ("couplings[0].add_adjoint", "modes", {"couplings[0].add_adjoint": True}),
    ("couplings[0].X", "explicit", {"couplings[0].X": DELETE}),
    ("couplings[0].channel", "explicit", {"couplings[0].channel": 0}),
    ("couplings[0].X", "explicit", {"couplings[0].X": cm(np.eye(3))}),
    # an add_adjoint pair next to a non-hermitian one without its partner
    ("couplings", "explicit", {"couplings[0]": {"A": SM, "X": SM, "add_adjoint": True},
                               "couplings[1]": {"A": SM, "X": SX}}),
    ("couplings[0].X", "flat", {"couplings[0].X": SX}),
    ("couplings[0].add_adjoint", "table", {"couplings[0].add_adjoint": True}),
    ("couplings[0].channel", "flat", {"couplings[1]": {"A": SX}}),
    ("couplings[1].channel", "flat", {"couplings[0].channel": 0,
                                      "couplings[1]": {"A": SX, "channel": 0}}),
    ("initial_state", "flat", {"initial_state": "thermal"}),
    ("initial_state", "flat", {"initial_state": {}}),
    ("initial_state.diagonal", "flat", {"initial_state": {"diagonal": [1.0]}}),
    ("initial_state.matrix", "flat", {"initial_state": {"matrix": cm(np.eye(3) / 3)}}),
    ("policy.mode", "flat", {"policy": {"mode": "markov"}}),
    ("policy.dt", "flat", {"policy": {"mode": "presecular", "dt": 0}}),
    ("tolerances.degeneracy", "flat", {"tolerances": {"degeneracy": 0}}),
    ("tau_b", "flat", {"tau_b": -0.5}),
]


@pytest.mark.parametrize("field, base, edits", REFUSALS,
                         ids=[f"{i}-{case[0]}" for i, case in enumerate(REFUSALS)])
def test_every_refusal_exits_2_naming_its_field(tmp_path, capsys, field, base, edits):
    path = tmp_path / "scenario.json"
    path.write_text(edited_text(base, edits), encoding="utf-8")
    code = main(["derive", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])["error"]
    assert error["type"] == "scenario"
    assert error["message"].startswith(f"{field}: "), error["message"]


@pytest.mark.parametrize("base, edits", [
    ("flat", {"initial_state": {"matrix": cm([[0.6, 0.2j], [-0.2j, 0.4]])}}),
    ("flat", {"policy": {"mode": "secular"}}),
    ("flat", {"bath.gamma_dephasing": 0.05}),
], ids=["initial-matrix", "explicit-secular", "gamma-dephasing"])
def test_accepting_paths_derive(tmp_path, capsys, base, edits):
    path = tmp_path / "scenario.json"
    path.write_text(edited_text(base, edits), encoding="utf-8")
    assert main(["derive", str(path)]) == 0
    assert capsys.readouterr().err == ""
    s = load_scenario(path)
    if "policy" in edits:  # {"mode": "secular"} is the absent policy
        assert (s.mode, s.policy) == ("secular", None)
    if "initial_state" in edits:
        assert np.array_equal(s.rho0, np.array([[0.6, 0.2j], [-0.2j, 0.4]]))


@pytest.mark.parametrize("field, edits", [
    ("bath.gamma: must be finite", {"bath.gamma": "@big@"}),
    ("couplings[0].A[1][0]: entries must be finite", {"couplings[0].A[1][0]": ["@big@", 0.0]}),
    ("couplings[0].A[0][1]: entries must be finite", {"couplings[0].A[0][1]": [0.0, "@-big@"]}),
], ids=["number", "re-part", "im-part"])
def test_integer_literal_past_the_float_range_is_not_finite(tmp_path, capsys, field, edits):
    # json reads 10^400 as an exact int, which float() cannot hold: it is
    # refused as the float literal 1e400 is, not raised as an OverflowError
    big = "1" + "0" * 400
    text = edited_text("flat", edits).replace('"@big@"', big).replace('"@-big@"', "-" + big)
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    code = main(["derive", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1, lines
    error = json.loads(lines[0])["error"]
    assert (error["type"], error["message"]) == ("scenario", field)

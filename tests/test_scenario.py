import json
import math

import numpy as np
import pytest

from lindforge import (
    DimensionError,
    FiniteBath,
    ScenarioError,
    load_scenario,
    loads_scenario,
    scenario_from_data,
    serialize_scenario,
)
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

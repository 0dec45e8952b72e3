"""Scenario files: one JSON document holding everything a derivation needs.

Schema (all complex numbers are [re, im] pairs, matrices row-major nested
lists):

    {
      "system":  {"hamiltonian": [[...]]} | {"eigenvalues": [w0, w1, ...]},
      "bath":    {"kind": "finite", "hamiltonian": [[...]],
                  "temperature": 1.0 | "inf", "broadening": 0.05?}
               | {"kind": "finite", "modes": [{"frequency": f, "coupling": g}...],
                  "temperature": ..., "broadening": ...?}
               | {"kind": "flat-thermal", "gamma": g, "temperature": T,
                  "gamma_dephasing": gd?}
               | {"kind": "table", "entries": [{"omega": w, "gamma": [[...]],
                  "delta": [[...]]?}...]},
      "couplings": [{"A": [[...]], "X": [[...]]? , "channel": k?,
                     "add_adjoint": false?} ...],
      "initial_state": "ground" | "excited" | "maximally-mixed"
                     | {"diagonal": [p0, ...]} | {"matrix": [[...]]},
      "times":   {"t_max": 10.0, "samples": 201},
      "policy":  {"mode": "secular"}
               | {"mode": "presecular", "filter": "exact-match" | "F-weighted",
                  "dt": 1.0}?,
      "tolerances": {"degeneracy": 1e-9}?,
      "tau_b": 0.5?
    }

Coupling entries reference the bath in one of two ways: finite baths given as
an explicit hamiltonian take an "X" matrix per entry (the bath operators ARE
the couplings); mode baths and analytic models expose numbered channels and
take "channel" instead. add_adjoint marks a non-hermitian (A, X) pair whose
hermitian conjugate partner should be added and the pair rotated to hermitian
channels before the derivation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bath import (
    FiniteBath,
    flat_thermal_bath,
    hermitize_coupling,
    qubit_mode_bath,
    table_bath,
)
from .generator import SecularPolicy
from .linalg import (
    MAX_TENSOR_DIM,
    DimensionError,
    hermiticity_defect,
    validate_density_matrix,
)

# largest times.samples accepted; checked before the time grid is allocated
MAX_TIME_SAMPLES = 100_000


class ScenarioError(ValueError):
    """Anything wrong with a scenario file: parse, schema or physics errors."""


def _fail(path: str, message: str):
    raise ScenarioError(f"{path}: {message}")


def _expect_dict(node, path, required=(), optional=()):
    if not isinstance(node, dict):
        _fail(path, f"expected an object, got {type(node).__name__}")
    allowed = set(required) | set(optional)
    for key in node:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in node:
            _fail(path, f"missing required field {key!r}")
    return node


def _expect_number(node, path, minimum=None, allow_inf=False) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        if allow_inf and node == "inf":
            return math.inf
        _fail(path, f"expected a number, got {node!r}")
    x = float(node)
    if not math.isfinite(x):
        _fail(path, "must be finite")
    if minimum is not None and x < minimum:
        _fail(path, f"must be >= {minimum}, got {x}")
    return x


def _expect_int(node, path, minimum=None) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        _fail(path, f"expected an integer, got {node!r}")
    if minimum is not None and node < minimum:
        _fail(path, f"must be >= {minimum}, got {node}")
    return node


def _complex_entry(cell, path) -> complex:
    if not (isinstance(cell, list) and len(cell) == 2):
        _fail(path, f"expected a [re, im] pair, got {cell!r}")
    re, im = cell
    for part, name in ((re, "re"), (im, "im")):
        if isinstance(part, bool) or not isinstance(part, (int, float)):
            _fail(path, f"{name} part is not a number: {part!r}")
    val = complex(float(re), float(im))
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        _fail(path, "entries must be finite")
    return val


def complex_matrix_from_json(node, path) -> np.ndarray:
    if not isinstance(node, list) or not node:
        _fail(path, "expected a non-empty list of rows")
    n = len(node)
    out = np.empty((n, n), dtype=complex)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != n:
            _fail(f"{path}[{i}]", f"expected a row of length {n} (square matrix)")
        for j, cell in enumerate(row):
            out[i, j] = _complex_entry(cell, f"{path}[{i}][{j}]")
    return out


def complex_matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(c.real), float(c.imag)] for c in row] for row in m]


def real_vector_from_json(node, path) -> np.ndarray:
    if not isinstance(node, list) or not node:
        _fail(path, "expected a non-empty list of numbers")
    return np.array([_expect_number(x, f"{path}[{i}]") for i, x in enumerate(node)])


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated scenario: raw document plus fully constructed inputs."""

    data: dict = field(repr=False)
    h_a: np.ndarray
    bath: object
    couplings: list
    rho0: np.ndarray
    times: np.ndarray
    mode: str
    policy: SecularPolicy | None
    degeneracy_tol: float | None
    tau_b: float | None

    @property
    def dim(self) -> int:
        return self.h_a.shape[0]


def _parse_system(node) -> np.ndarray:
    _expect_dict(node, "system", optional=("hamiltonian", "eigenvalues"))
    has_h = "hamiltonian" in node
    has_e = "eigenvalues" in node
    if has_h == has_e:
        _fail("system", "give exactly one of 'hamiltonian' or 'eigenvalues'")
    # the level count is the list length; refuse it before any d x d array
    key = "hamiltonian" if has_h else "eigenvalues"
    if isinstance(node[key], list) and len(node[key]) > MAX_TENSOR_DIM:
        raise DimensionError(
            f"system.{key}: {len(node[key])} levels exceed the cap of {MAX_TENSOR_DIM}"
        )
    if has_h:
        h = complex_matrix_from_json(node["hamiltonian"], "system.hamiltonian")
        defect = hermiticity_defect(h)
        if defect > 1e-9 * max(1.0, float(np.abs(h).max())):
            _fail("system.hamiltonian", f"not hermitian (defect {defect:.3e})")
        return h
    evs = real_vector_from_json(node["eigenvalues"], "system.eigenvalues")
    return np.diag(evs).astype(complex)


def _parse_temperature(node, path) -> float:
    t = _expect_number(node, path, allow_inf=True)
    if not t > 0:
        _fail(path, f"temperature must be positive, got {t}")
    return t


def _parse_couplings_node(node, dim):
    if not isinstance(node, list) or not node:
        _fail("couplings", "expected a non-empty list")
    entries = []
    for i, ent in enumerate(node):
        path = f"couplings[{i}]"
        _expect_dict(ent, path, required=("A",),
                     optional=("X", "channel", "add_adjoint"))
        a = complex_matrix_from_json(ent["A"], f"{path}.A")
        if a.shape[0] != dim:
            _fail(f"{path}.A", f"has dimension {a.shape[0]}, system has {dim}")
        x = None
        if "X" in ent:
            x = complex_matrix_from_json(ent["X"], f"{path}.X")
        channel = None
        if "channel" in ent:
            channel = _expect_int(ent["channel"], f"{path}.channel", minimum=0)
        add_adjoint = bool(ent.get("add_adjoint", False))
        if not isinstance(ent.get("add_adjoint", False), bool):
            _fail(f"{path}.add_adjoint", "expected true or false")
        entries.append((a, x, channel, add_adjoint, path))
    return entries


def _require_hermitian(m, path):
    defect = hermiticity_defect(m)
    if defect > 1e-9 * max(1.0, float(np.abs(m).max())):
        _fail(path, f"not hermitian (defect {defect:.3e}); for a non-hermitian "
                    "pair set add_adjoint and give the bath operator X")


def _build_bath_and_couplings(bath_node, coupling_entries, dim):
    if not isinstance(bath_node, dict):
        _fail("bath", f"expected an object, got {type(bath_node).__name__}")
    kind = bath_node.get("kind")
    if kind is None:
        _fail("bath", "missing required field 'kind'")

    if kind == "finite":
        _expect_dict(bath_node, "bath", required=("kind", "temperature"),
                     optional=("hamiltonian", "modes", "broadening"))
        temperature = _parse_temperature(bath_node["temperature"], "bath.temperature")
        broadening = None
        if "broadening" in bath_node:
            broadening = _expect_number(bath_node["broadening"], "bath.broadening")
            if not broadening > 0:
                _fail("bath.broadening", f"must be positive, got {broadening}")
        has_h = "hamiltonian" in bath_node
        has_m = "modes" in bath_node
        if has_h == has_m:
            _fail("bath", "give exactly one of 'hamiltonian' or 'modes'")

        if has_m:
            modes_node = bath_node["modes"]
            if not isinstance(modes_node, list) or not modes_node:
                _fail("bath.modes", "expected a non-empty list")
            modes = []
            for i, m in enumerate(modes_node):
                _expect_dict(m, f"bath.modes[{i}]", required=("frequency", "coupling"))
                f = _expect_number(m["frequency"], f"bath.modes[{i}].frequency")
                if not f > 0:
                    _fail(f"bath.modes[{i}].frequency", f"must be positive, got {f}")
                g = _expect_number(m["coupling"], f"bath.modes[{i}].coupling")
                modes.append((f, g))
            bath = qubit_mode_bath(modes, temperature, broadening=broadening)
            # mode baths expose a single built-in coupling operator
            if len(coupling_entries) != 1:
                _fail("couplings", "mode baths expose exactly one channel; "
                                   f"got {len(coupling_entries)} couplings")
            a, x, channel, add_adjoint, path = coupling_entries[0]
            if x is not None:
                _fail(f"{path}.X", "not allowed for mode baths (the bath "
                                   "operator is built from the modes)")
            if channel not in (None, 0):
                _fail(f"{path}.channel", f"mode baths have only channel 0, got {channel}")
            if add_adjoint:
                _fail(f"{path}.add_adjoint", "not supported for mode baths; "
                                             "give A hermitian")
            _require_hermitian(a, f"{path}.A")
            return bath, [a]

        h_b = complex_matrix_from_json(bath_node["hamiltonian"], "bath.hamiltonian")
        defect = hermiticity_defect(h_b)
        if defect > 1e-9 * max(1.0, float(np.abs(h_b).max())):
            _fail("bath.hamiltonian", f"not hermitian (defect {defect:.3e})")
        pairs = []
        any_adjoint = False
        for a, x, channel, add_adjoint, path in coupling_entries:
            if x is None:
                _fail(f"{path}.X", "required for finite baths given as a "
                                   "hamiltonian (each coupling names its bath "
                                   "operator)")
            if channel is not None:
                _fail(f"{path}.channel", "not allowed when X is given explicitly")
            if x.shape[0] != h_b.shape[0]:
                _fail(f"{path}.X", f"has dimension {x.shape[0]}, bath has "
                                   f"{h_b.shape[0]}")
            if add_adjoint:
                any_adjoint = True
                pairs.append((a, x))
                pairs.append((a.conj().T, x.conj().T))
            else:
                pairs.append((a, x))
        if any_adjoint:
            try:
                channels = hermitize_coupling(pairs)
            except ValueError as exc:
                _fail("couplings", str(exc))
        else:
            for (a, x), (_, _, _, _, path) in zip(pairs, coupling_entries):
                _require_hermitian(a, f"{path}.A")
                _require_hermitian(x, f"{path}.X")
            channels = pairs
        a_ops = [a for a, _ in channels]
        x_ops = [x for _, x in channels]
        bath = FiniteBath(h_b, temperature, x_ops, broadening=broadening)
        return bath, a_ops

    if kind == "flat-thermal":
        _expect_dict(bath_node, "bath", required=("kind", "gamma", "temperature"),
                     optional=("gamma_dephasing",))
        gamma = _expect_number(bath_node["gamma"], "bath.gamma", minimum=0.0)
        temperature = _parse_temperature(bath_node["temperature"], "bath.temperature")
        if math.isinf(temperature):
            _fail("bath.temperature", "flat-thermal model needs a finite "
                                      "temperature")
        gd = 0.0
        if "gamma_dephasing" in bath_node:
            gd = _expect_number(bath_node["gamma_dephasing"],
                                "bath.gamma_dephasing", minimum=0.0)
        bath = flat_thermal_bath(gamma, temperature, gamma_dephasing=gd,
                                 channel_count=len(coupling_entries))
        a_ops = _analytic_channel_ops(coupling_entries)
        return bath, a_ops

    if kind == "table":
        _expect_dict(bath_node, "bath", required=("kind", "entries"))
        entries_node = bath_node.get("entries")
        if not isinstance(entries_node, list) or not entries_node:
            _fail("bath.entries", "expected a non-empty list")
        entries = []
        for i, ent in enumerate(entries_node):
            path = f"bath.entries[{i}]"
            _expect_dict(ent, path, required=("omega", "gamma"), optional=("delta",))
            omega = _expect_number(ent["omega"], f"{path}.omega")
            gamma = complex_matrix_from_json(ent["gamma"], f"{path}.gamma")
            delta = None
            if "delta" in ent:
                delta = complex_matrix_from_json(ent["delta"], f"{path}.delta")
            entries.append((omega, gamma, delta))
        try:
            bath = table_bath(entries, channel_count=len(coupling_entries))
        except ValueError as exc:
            raise ScenarioError(f"bath.entries: {exc}") from exc
        a_ops = _analytic_channel_ops(coupling_entries)
        return bath, a_ops

    _fail("bath.kind", f"unknown bath kind {kind!r}; expected 'finite', "
                       "'flat-thermal' or 'table'")


def _analytic_channel_ops(coupling_entries):
    """Analytic baths expose numbered channels; couplings must use them in order."""
    a_ops = []
    for i, (a, x, channel, add_adjoint, path) in enumerate(coupling_entries):
        if x is not None:
            _fail(f"{path}.X", "not allowed for analytic baths; reference a "
                               "channel instead")
        if add_adjoint:
            _fail(f"{path}.add_adjoint", "not supported for analytic baths; "
                                         "give A hermitian")
        if channel is None:
            if len(coupling_entries) > 1:
                _fail(f"{path}.channel", "required when there are multiple couplings")
            channel = 0
        if channel != i:
            _fail(f"{path}.channel", f"couplings must use channels in order; "
                                     f"expected {i}, got {channel}")
        _require_hermitian(a, f"{path}.A")
        a_ops.append(a)
    return a_ops


def _parse_initial_state(node, h_a) -> np.ndarray:
    dim = h_a.shape[0]
    if isinstance(node, str):
        if node == "maximally-mixed":
            return np.eye(dim, dtype=complex) / dim
        if node in ("ground", "excited"):
            w, v = np.linalg.eigh(0.5 * (h_a + h_a.conj().T))
            col = v[:, 0] if node == "ground" else v[:, -1]
            return np.outer(col, col.conj())
        _fail("initial_state", f"unknown named state {node!r}; expected "
                               "'ground', 'excited' or 'maximally-mixed'")
    _expect_dict(node, "initial_state", optional=("diagonal", "matrix"))
    has_d = "diagonal" in node
    has_m = "matrix" in node
    if has_d == has_m:
        _fail("initial_state", "give exactly one of 'diagonal' or 'matrix'")
    if has_d:
        p = real_vector_from_json(node["diagonal"], "initial_state.diagonal")
        if p.size != dim:
            _fail("initial_state.diagonal", f"has {p.size} entries, system "
                                            f"dimension is {dim}")
        if (p < 0).any():
            _fail("initial_state.diagonal", "entries must be non-negative")
        if abs(p.sum() - 1.0) > 1e-9:
            _fail("initial_state.diagonal", f"entries sum to {p.sum()!r}, expected 1")
        return np.diag(p).astype(complex)
    rho = complex_matrix_from_json(node["matrix"], "initial_state.matrix")
    if rho.shape[0] != dim:
        _fail("initial_state.matrix", f"has dimension {rho.shape[0]}, system "
                                      f"has {dim}")
    report = validate_density_matrix(rho, tol=1e-6)
    if not report.valid:
        _fail("initial_state.matrix", f"not a density matrix: {report}")
    return rho


def _parse_times(node) -> np.ndarray:
    _expect_dict(node, "times", required=("t_max", "samples"))
    t_max = _expect_number(node["t_max"], "times.t_max")
    if not t_max > 0:
        _fail("times.t_max", f"must be positive, got {t_max}")
    samples = _expect_int(node["samples"], "times.samples", minimum=2)
    if samples > MAX_TIME_SAMPLES:
        raise DimensionError(
            f"times.samples: {samples} exceeds the cap of {MAX_TIME_SAMPLES}"
        )
    return np.linspace(0.0, t_max, samples)


def _parse_policy(node):
    if node is None:
        return "secular", None
    _expect_dict(node, "policy", required=("mode",), optional=("filter", "dt"))
    mode = node["mode"]
    if mode == "secular":
        for key in ("filter", "dt"):
            if key in node:
                _fail(f"policy.{key}", "only valid for presecular mode")
        return "secular", None
    if mode != "presecular":
        _fail("policy.mode", f"unknown mode {mode!r}; expected 'secular' or "
                             "'presecular'")
    if "dt" not in node:
        _fail("policy", "presecular mode requires 'dt'")
    dt = _expect_number(node["dt"], "policy.dt")
    if not dt > 0:
        _fail("policy.dt", f"must be positive, got {dt}")
    filt = node.get("filter", "exact-match")
    if filt not in ("exact-match", "F-weighted"):
        _fail("policy.filter", f"unknown filter {filt!r}; expected "
                               "'exact-match' or 'F-weighted'")
    return "presecular", SecularPolicy(dt=dt, filter=filt)


def scenario_from_data(data: dict) -> Scenario:
    _expect_dict(data, "scenario",
                 required=("system", "bath", "couplings", "initial_state", "times"),
                 optional=("policy", "tolerances", "tau_b"))
    h_a = _parse_system(data["system"])
    dim = h_a.shape[0]
    coupling_entries = _parse_couplings_node(data["couplings"], dim)
    bath, a_ops = _build_bath_and_couplings(data["bath"], coupling_entries, dim)
    rho0 = _parse_initial_state(data["initial_state"], h_a)
    times = _parse_times(data["times"])
    mode, policy = _parse_policy(data.get("policy"))
    degeneracy_tol = None
    if "tolerances" in data:
        tols = _expect_dict(data["tolerances"], "tolerances", optional=("degeneracy",))
        if "degeneracy" in tols:
            degeneracy_tol = _expect_number(tols["degeneracy"],
                                            "tolerances.degeneracy")
            if not degeneracy_tol > 0:
                _fail("tolerances.degeneracy", "must be positive")
    tau_b = None
    if "tau_b" in data:
        tau_b = _expect_number(data["tau_b"], "tau_b")
        if not tau_b > 0:
            _fail("tau_b", f"must be positive, got {tau_b}")
    return Scenario(
        data=data,
        h_a=h_a,
        bath=bath,
        couplings=a_ops,
        rho0=rho0,
        times=times,
        mode=mode,
        policy=policy,
        degeneracy_tol=degeneracy_tol,
        tau_b=tau_b,
    )


def loads_scenario(text: str, name: str = "<string>") -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{name}: parse error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return scenario_from_data(data)


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    return loads_scenario(text, name=str(path))


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text; load(serialize(s)) reproduces s bit-for-bit."""
    return json.dumps(scenario.data, indent=2, sort_keys=True) + "\n"

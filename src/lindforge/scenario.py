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
               | {"mode": "presecular", "filter": "F-weighted"?,
                  "dt": 1.0}?,
      "tolerances": {"degeneracy": 1e-9}?,
      "tau_b": 0.5?
    }

Each field has one rule, kept in one place. Finite baths given as an
explicit hamiltonian take an "X" matrix per coupling entry (the bath
operators ARE the couplings); add_adjoint marks a non-hermitian (A, X) pair
whose hermitian conjugate partner is added and the pair rotated to hermitian
channels. Mode, flat-thermal and table baths expose numbered channels (a mode
bath exactly one), and _channel_ops holds their rules: one hermitian A per
channel, in channel order, no X, no add_adjoint. _expect_number holds the
number rules, strict positivity included. The policy alone selects the
generator: Scenario.policy is the presecular SecularPolicy or None, and
Scenario.mode follows from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

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
    DEFAULT_TOL,
    MAX_TENSOR_DIM,
    DimensionError,
    hermitian_part,
    hermiticity_defect,
    validate_density_matrix,
)

# largest times.samples accepted; checked before the time grid is allocated
MAX_TIME_SAMPLES = 100_000


class ScenarioError(ValueError):
    """Anything wrong with a scenario file: parse, schema or physics errors."""


class RateTableError(ScenarioError):
    """A well-formed rate table whose values table_bath refuses: a Gamma
    that is not hermitian or not positive semidefinite, a Delta that is not
    hermitian, a non-finite entry, or matrices whose sizes do not fit."""


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


def _as_float(x: int | float) -> float:
    """A JSON number as a float: an integer literal past the float range
    becomes the infinity of its sign, which the callers refuse as not finite
    (as they refuse a float literal such as 1e400, which json reads as one)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _expect_number(node, path, minimum=None, positive=False, allow_inf=False) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        if allow_inf and node == "inf":
            return math.inf
        _fail(path, f"expected a number, got {node!r}")
    x = _as_float(node)
    if not math.isfinite(x):
        _fail(path, "must be finite")
    if minimum is not None and x < minimum:
        _fail(path, f"must be >= {minimum}, got {x}")
    if positive and not x > 0:
        _fail(path, f"must be positive, got {x}")
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
    val = complex(_as_float(re), _as_float(im))
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        _fail(path, "entries must be finite")
    return val


def _complex_stack(nodes) -> np.ndarray | None:
    """The (n, d, d) complex stack of n JSON matrices of one size d, each a
    list of rows of [re, im] number pairs, from one np.fromiter call over
    their parts; None when some node is anything else (not a list of
    lists, a row of another length, a cell that is not a pair of numbers, a
    non-finite entry), for complex_matrix_from_json's walk to name."""
    if set(map(type, nodes)) != {list}:
        return None
    dim = len(nodes[0])
    if set(map(len, nodes)) != {dim}:
        return None
    rows = list(chain.from_iterable(nodes))
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {dim}:
        return None
    cells = list(chain.from_iterable(rows))
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {2}:
        return None
    parts = list(chain.from_iterable(cells))
    if not set(map(type, parts)) <= {int, float}:  # no bool
        return None
    try:
        parts = np.fromiter(parts, float, len(parts))
    except OverflowError:  # an integer past the float range
        return None
    if not np.isfinite(parts).all():
        return None
    return parts.view(complex).reshape(len(nodes), dim, dim)


def complex_matrix_from_json(node, path) -> np.ndarray:
    """A square JSON matrix of [re, im] pairs as a complex array, read in
    one stacked parse; a refused node is walked cell by cell to name the
    first fault."""
    stack = _complex_stack([node])
    if stack is not None:
        return stack[0]
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
    """Nested lists of [re, im] pairs; a stack of matrices gives one list
    per matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


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
    policy: SecularPolicy | None
    degeneracy_tol: float | None
    tau_b: float | None

    @property
    def dim(self) -> int:
        return self.h_a.shape[0]

    @property
    def mode(self) -> str:
        """'presecular' when the scenario carries a window, else 'secular'."""
        return "secular" if self.policy is None else "presecular"


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
        _require_hermitian(h, "system.hamiltonian", coupling=False)
        return h
    evs = real_vector_from_json(node["eigenvalues"], "system.eigenvalues")
    _require_finite_hermitian_part(evs[:, None, None], "system.eigenvalues")  # 1 x 1 levels
    return np.diag(evs).astype(complex)


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
        add_adjoint = ent.get("add_adjoint", False)
        if not isinstance(add_adjoint, bool):
            _fail(f"{path}.add_adjoint", "expected true or false")
        entries.append((a, x, channel, add_adjoint, path))
    return entries


def _require_finite_hermitian_part(m, path):
    """The overflow rule of the rate matrices: (m + m^+)/2 must be finite."""
    if not np.isfinite(hermitian_part(m)).all():
        _fail(path, "has a non-finite or overflowing entry")


def _require_hermitian(m, path, coupling=True):
    _require_finite_hermitian_part(m, path)
    defect = hermiticity_defect(m)
    if defect > DEFAULT_TOL * max(1.0, float(np.abs(m).max())):
        hint = "; for a non-hermitian pair set add_adjoint and give the bath operator X"
        _fail(path, f"not hermitian (defect {defect:.3e}){hint if coupling else ''}")


def _build_bath_and_couplings(bath_node, coupling_entries):
    if not isinstance(bath_node, dict):
        _fail("bath", f"expected an object, got {type(bath_node).__name__}")
    kind = bath_node.get("kind")
    if kind is None:
        _fail("bath", "missing required field 'kind'")

    if kind == "finite":
        _expect_dict(bath_node, "bath", required=("kind", "temperature"),
                     optional=("hamiltonian", "modes", "broadening"))
        temperature = _expect_number(bath_node["temperature"], "bath.temperature",
                                     positive=True, allow_inf=True)
        broadening = None
        if "broadening" in bath_node:
            broadening = _expect_number(bath_node["broadening"], "bath.broadening",
                                        positive=True)
        if ("hamiltonian" in bath_node) == ("modes" in bath_node):
            _fail("bath", "give exactly one of 'hamiltonian' or 'modes'")
        if "hamiltonian" in bath_node:
            return _explicit_bath(bath_node["hamiltonian"], coupling_entries,
                                  temperature, broadening)
        modes_node = bath_node["modes"]
        if not isinstance(modes_node, list) or not modes_node:
            _fail("bath.modes", "expected a non-empty list")
        modes, top = [], 0.0
        for i, m in enumerate(modes_node):
            _expect_dict(m, f"bath.modes[{i}]", required=("frequency", "coupling"))
            f = _expect_number(m["frequency"], f"bath.modes[{i}].frequency", positive=True)
            top += f  # the top level of H_B, every mode so far excited
            _require_finite_hermitian_part(np.array([[top]]), f"bath.modes[{i}].frequency")
            g = _expect_number(m["coupling"], f"bath.modes[{i}].coupling")
            modes.append((f, g))
        bath = qubit_mode_bath(modes, temperature, broadening=broadening)

    elif kind == "flat-thermal":
        _expect_dict(bath_node, "bath", required=("kind", "gamma", "temperature"),
                     optional=("gamma_dephasing",))
        gamma = _expect_number(bath_node["gamma"], "bath.gamma", minimum=0.0)
        temperature = _expect_number(bath_node["temperature"], "bath.temperature",
                                     positive=True)
        gd = 0.0
        if "gamma_dephasing" in bath_node:
            gd = _expect_number(bath_node["gamma_dephasing"],
                                "bath.gamma_dephasing", minimum=0.0)
        bath = flat_thermal_bath(gamma, temperature, gamma_dephasing=gd,
                                 channel_count=len(coupling_entries))

    elif kind == "table":
        _expect_dict(bath_node, "bath", required=("kind", "entries"))
        entries_node = bath_node["entries"]
        if not isinstance(entries_node, list) or not entries_node:
            _fail("bath.entries", "expected a non-empty list")
        entries = _stacked_entries(entries_node)
        if entries is None:  # some entry is refused: walk them in order to name it
            entries = [_table_entry(ent, f"bath.entries[{i}]")
                       for i, ent in enumerate(entries_node)]
        try:
            bath = table_bath(entries, channel_count=len(coupling_entries))
        except ValueError as exc:
            raise RateTableError(f"bath.entries: {exc}") from exc

    else:
        _fail("bath.kind", f"unknown bath kind {kind!r}; expected 'finite', "
                           "'flat-thermal' or 'table'")
    return bath, _channel_ops(coupling_entries, bath.channel_count)


def _table_entry(ent, path):
    """One table entry as (omega, gamma, delta), delta None when not given."""
    _expect_dict(ent, path, required=("omega", "gamma"), optional=("delta",))
    omega = _expect_number(ent["omega"], f"{path}.omega")
    gamma = complex_matrix_from_json(ent["gamma"], f"{path}.gamma")
    delta = None
    if "delta" in ent:
        delta = complex_matrix_from_json(ent["delta"], f"{path}.delta")
    return omega, gamma, delta


def _stacked_entries(entries_node):
    """The table entries as _table_entry reads them, their gammas and their
    deltas each parsed by one _complex_stack call; None when some entry
    would be refused."""
    try:
        omegas = [_expect_number(_expect_dict(ent, "bath.entries", required=("omega", "gamma"),
                                              optional=("delta",))["omega"], "bath.entries")
                  for ent in entries_node]
    except ScenarioError:
        return None
    gammas = _complex_stack([ent["gamma"] for ent in entries_node])
    given = [i for i, ent in enumerate(entries_node) if "delta" in ent]
    deltas = _complex_stack([entries_node[i]["delta"] for i in given]) if given else ()
    if gammas is None or deltas is None:
        return None
    delta_at = dict(zip(given, deltas))
    return [(omega, gamma, delta_at.get(i))
            for i, (omega, gamma) in enumerate(zip(omegas, gammas))]


def _explicit_bath(h_node, coupling_entries, temperature, broadening):
    """A finite bath given as its hamiltonian: each coupling names its X."""
    h_b = complex_matrix_from_json(h_node, "bath.hamiltonian")
    _require_hermitian(h_b, "bath.hamiltonian", coupling=False)
    pairs = []
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
        pairs.append((a, x))
        if add_adjoint:
            pairs.append((a.conj().T, x.conj().T))
    if len(pairs) > len(coupling_entries):  # an add_adjoint entry brought its partner
        try:
            channels = hermitize_coupling(pairs)
        except ValueError as exc:
            _fail("couplings", str(exc))
        if not channels:  # each bath part fell below 1e-13 of its system part
            _fail("couplings", "no hermitian channel is left with the adjoints")
    else:
        for (a, x), (_, _, _, _, path) in zip(pairs, coupling_entries):
            _require_hermitian(a, f"{path}.A")
            _require_hermitian(x, f"{path}.X")
        channels = pairs
    bath = FiniteBath(h_b, temperature, [x for _, x in channels], broadening=broadening)
    return bath, [a for a, _ in channels]


def _channel_ops(coupling_entries, channel_count):
    """The numbered-channel rules of mode, flat-thermal and table baths: one
    hermitian A per bath channel, in channel order, no X, no add_adjoint."""
    if len(coupling_entries) != channel_count:
        _fail("couplings", f"expected one coupling per bath channel ({channel_count}), "
                           f"got {len(coupling_entries)}")
    a_ops = []
    for i, (a, x, channel, add_adjoint, path) in enumerate(coupling_entries):
        if x is not None:
            _fail(f"{path}.X", "not allowed for numbered-channel baths; "
                               "reference a channel instead")
        if add_adjoint:
            _fail(f"{path}.add_adjoint", "not supported for numbered-channel "
                                         "baths; give A hermitian")
        if channel is None:
            if channel_count > 1:
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
            w, v = np.linalg.eigh(hermitian_part(h_a))
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
    report = validate_density_matrix(rho)
    if not report.valid:
        _fail("initial_state.matrix", report.refusal)
    return rho


def _parse_times(node) -> np.ndarray:
    _expect_dict(node, "times", required=("t_max", "samples"))
    t_max = _expect_number(node["t_max"], "times.t_max", positive=True)
    samples = _expect_int(node["samples"], "times.samples", minimum=2)
    if samples > MAX_TIME_SAMPLES:
        raise DimensionError(
            f"times.samples: {samples} exceeds the cap of {MAX_TIME_SAMPLES}"
        )
    return np.linspace(0.0, t_max, samples)


def _parse_policy(node) -> SecularPolicy | None:
    """The presecular window, or None for the secular generator."""
    if node is None:
        return None
    _expect_dict(node, "policy", required=("mode",), optional=("filter", "dt"))
    mode = node["mode"]
    if mode == "secular":
        for key in ("filter", "dt"):
            if key in node:
                _fail(f"policy.{key}", "only valid for presecular mode")
        return None
    if mode != "presecular":
        _fail("policy.mode", f"unknown mode {mode!r}; expected 'secular' or "
                             "'presecular'")
    if "dt" not in node:
        _fail("policy", "presecular mode requires 'dt'")
    dt = _expect_number(node["dt"], "policy.dt", positive=True)
    filt = node.get("filter", "F-weighted")
    if filt != "F-weighted":
        _fail("policy.filter", f"unknown filter {filt!r}; presecular takes only "
                               "'F-weighted', and {\"mode\": \"secular\"} gives "
                               "the secular generator")
    return SecularPolicy(dt=dt)


def scenario_from_data(data: dict) -> Scenario:
    _expect_dict(data, "scenario",
                 required=("system", "bath", "couplings", "initial_state", "times"),
                 optional=("policy", "tolerances", "tau_b"))
    h_a = _parse_system(data["system"])
    coupling_entries = _parse_couplings_node(data["couplings"], h_a.shape[0])
    bath, a_ops = _build_bath_and_couplings(data["bath"], coupling_entries)
    rho0 = _parse_initial_state(data["initial_state"], h_a)
    times = _parse_times(data["times"])
    policy = _parse_policy(data.get("policy"))
    tols = _expect_dict(data.get("tolerances", {}), "tolerances", optional=("degeneracy",))
    degeneracy_tol = None
    if "degeneracy" in tols:
        degeneracy_tol = _expect_number(tols["degeneracy"], "tolerances.degeneracy",
                                        positive=True)
    tau_b = None
    if "tau_b" in data:
        tau_b = _expect_number(data["tau_b"], "tau_b", positive=True)
    return Scenario(
        data=data,
        h_a=h_a,
        bath=bath,
        couplings=a_ops,
        rho0=rho0,
        times=times,
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
    except RecursionError as exc:  # json's decoder recurses once per level
        raise ScenarioError(f"{name}: parse error: nested too deeply") from exc
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

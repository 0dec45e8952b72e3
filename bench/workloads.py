"""Seeded scenario generation for the two benchmark workloads.

Each workload joins two job families, and each family is a fixed layout of
job shapes (dimension, channel count, bath kind, presecular window,
propagation methods). The layout fixes the cost structure of a batch; the
seed draws every number inside it: spectra, coupling operators, rate tables,
bath modes and hamiltonians, initial states. The program under test only
ever sees the scenario JSON text.

secular-sweep: the derive family (secular reports) and the evolve family
(secular propagation). presecular-oracle: the presecular family and the
oracle family (finite baths against the exact oracle).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("secular-sweep", "presecular-oracle")

# acceptance cap on the Lindblad-vs-exact trace distance for weak-coupling
# oracle jobs (the same cap as the acceptance gate's eight-mode comb test)
ORACLE_TD_CAP = 0.05


@dataclass(frozen=True)
class Job:
    """One scenario document and what to run on it.

    kind: 'derive' (report + battery + JSON), 'evolve' (derive + propagate +
    CSV), 'presecular' (report + battery + JSON, then propagate + CSV) or
    'oracle' (report + battery, propagate, exact oracle, timescale report,
    trace distance + CSV). methods: the propagation methods, in order.
    weak: the job is built inside the weak-coupling premise, so its oracle
    trace distance must stay under ORACLE_TD_CAP.
    """

    name: str
    kind: str
    text: str
    methods: tuple[str, ...] = ()
    weak: bool = False


# ---------------------------------------------------------------------------
# random building blocks


def _cmat(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(c.real), float(c.imag)] for c in row] for row in m]


def _hermitian(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (m + m.conj().T)
    return h / np.linalg.norm(h, 2)


def _unitary(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _levels(rng, dim: int, degenerate: bool) -> list[float]:
    """Ascending levels from 0 to dim - 1 with random gaps; degenerate
    spectra repeat one level (two for dim >= 6), which forces multiplets of
    size 2 or 3. The fixed span keeps ||H||, and with it the rk4 step count
    and the expm scaling, the same for every seed."""
    gaps = rng.uniform(0.5, 1.5, dim - 1)
    levels = np.concatenate([[0.0], np.cumsum(gaps) * (dim - 1) / gaps.sum()])
    if degenerate and dim >= 3:
        levels[2] = levels[1]
        if dim >= 6:
            levels[4] = levels[5] = levels[3]
    return [float(x) for x in levels]


def _bohr(levels) -> list[float]:
    distinct = sorted(set(levels))
    return sorted({b - a for a in distinct for b in distinct})


def _thermal_rate(omega: float, gamma: float, temperature: float) -> float:
    if omega == 0.0:
        return 0.3 * gamma
    nbar = 1.0 / math.expm1(abs(omega) / temperature)
    return gamma * (nbar + 1.0) if omega > 0 else gamma * nbar


def _system(rng, levels, rotate: bool) -> dict:
    if not rotate:
        return {"eigenvalues": list(levels)}
    u = _unitary(rng, len(levels))
    h = (u * np.asarray(levels)) @ u.conj().T
    return {"hamiltonian": _cmat(0.5 * (h + h.conj().T))}


def _analytic_bath(rng, kind: str, levels, channels: int) -> dict:
    gamma = float(rng.uniform(0.02, 0.05))
    temperature = float(rng.uniform(0.8, 2.0))
    if kind == "flat-thermal":
        return {"kind": "flat-thermal", "gamma": gamma,
                "temperature": temperature,
                "gamma_dephasing": float(rng.uniform(0.0, 0.3 * gamma))}
    entries = []
    for omega in _bohr(levels):
        rate = _thermal_rate(omega, gamma, temperature)
        b = (rng.standard_normal((channels, channels))
             + 1j * rng.standard_normal((channels, channels)))
        g = rate * (b @ b.conj().T) / channels
        entries.append({
            "omega": omega,
            "gamma": _cmat(g),
            "delta": _cmat(0.1 * gamma * _hermitian(rng, channels)),
        })
    return {"kind": "table", "entries": entries}


def _analytic_doc(rng, levels, channels: int, bath_kind: str, rotate: bool,
                  times: dict, policy: dict | None = None) -> dict:
    dim = len(levels)
    couplings = [{"A": _cmat(_hermitian(rng, dim)), "channel": c}
                 for c in range(channels)]
    p = rng.uniform(0.1, 1.0, dim)
    doc = {
        "system": _system(rng, levels, rotate),
        "bath": _analytic_bath(rng, bath_kind, levels, channels),
        "couplings": couplings,
        "initial_state": {"diagonal": [float(x) for x in p / p.sum()]},
        "times": times,
        "tau_b": float(rng.uniform(0.2, 1.0)),
    }
    if policy is not None:
        doc["policy"] = policy
    return doc


def _text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# workload layouts


def _derive_sweep(seed: int) -> list[Job]:
    """Every third spectrum (d >= 4) carries forced degenerate multiplets."""
    jobs = []
    shapes = [(d, ch, kind) for d in (2, 4, 6, 8, 10, 12)
              for ch in (1, 2) for kind in ("flat-thermal", "table")]
    shapes.append((16, 2, "table"))
    for i, (d, ch, kind) in enumerate(shapes):
        rng = np.random.default_rng([seed, 0, i])
        degenerate = d >= 4 and i % 3 == 0
        doc = _analytic_doc(rng, _levels(rng, d, degenerate), ch, kind,
                            rotate=i % 2 == 1,
                            times={"t_max": 10.0, "samples": 11})
        jobs.append(Job(f"derive-d{d}-k{ch}-{kind}{'-deg' if degenerate else ''}",
                        "derive", _text(doc)))
    return jobs


def _evolve_ladder(seed: int) -> list[Job]:
    """expm up the ladder of d; rk4 only at small d, where its fixed step
    count stays affordable."""
    jobs = []
    shapes = [(d, "expm") for d in (4, 6, 8, 10, 12, 14, 16, 18, 20, 24)]
    shapes += [(d, "rk4") for d in (2, 2, 3, 3, 4)]
    for i, (d, method) in enumerate(shapes):
        rng = np.random.default_rng([seed, 1, i])
        ch = 1 if d >= 20 else 1 + i % 2
        kind = "table" if i % 3 == 2 else "flat-thermal"
        doc = _analytic_doc(rng, _levels(rng, d, False), ch, kind,
                            rotate=i % 2 == 0,
                            times={"t_max": 10.0, "samples": 51})
        jobs.append(Job(f"evolve-d{d}-k{ch}-{kind}-{method}-{i}", "evolve",
                        _text(doc), methods=(method,)))
    return jobs


def _presecular_window(seed: int) -> list[Job]:
    """Windows of c / (smallest gap between Bohr frequencies). rk4 runs at
    d = 3 only: its step count grows with the number of cross-frequency
    pairs, which is already in the hundreds there."""
    jobs = []
    # (d, channels, c, also rk4)
    shapes = [(3, 1, 3.0, True), (3, 1, 300.0, True), (3, 2, 30.0, False),
              (3, 1, 30.0, False), (4, 1, 3.0, False), (4, 2, 30.0, False),
              (4, 1, 300.0, False), (5, 1, 3.0, False), (5, 2, 300.0, False),
              (5, 1, 30.0, False), (6, 1, 3.0, False), (6, 1, 300.0, False),
              (8, 1, 30.0, False)]
    for i, (d, ch, c, rk4) in enumerate(shapes):
        rng = np.random.default_rng([seed, 2, i])
        kind = "table" if i % 2 == 0 else "flat-thermal"
        levels = _levels(rng, d, False)
        bohr = np.array(_bohr(levels))
        gaps = np.abs(np.subtract.outer(bohr, bohr))
        min_gap = float(gaps[gaps > 1e-9].min())
        policy = {"mode": "presecular", "filter": "F-weighted",
                  "dt": c / min_gap}
        doc = _analytic_doc(rng, levels, ch, kind, rotate=i % 2 == 1,
                            times={"t_max": 3.0, "samples": 31},
                            policy=policy)
        methods = ("expm", "rk4") if rk4 else ("expm",)
        jobs.append(Job(f"presecular-d{d}-k{ch}-{kind}-w{int(c)}",
                        "presecular", _text(doc), methods=methods))
    return jobs


def _ladder_coupling(rng, dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        a[i, i + 1] = a[i + 1, i] = rng.uniform(0.7, 1.3)
    return a


def _comb_doc(rng, d_a: int, n_modes: int) -> dict:
    """Ladder system near resonance with a comb of two-level modes: band
    0.94..1.06 with irregular offsets, coupling 5e-3 scaled with the mode
    spacing, broadening 0.72 spacings."""
    spacing = 0.12 / (n_modes - 1)
    freqs = 0.94 + spacing * (np.arange(n_modes)
                              + rng.uniform(-0.3, 0.3, n_modes))
    g = 5.0e-3 * math.sqrt(spacing / 0.0152)
    modes = [{"frequency": float(f), "coupling": float(g * rng.uniform(0.9, 1.1))}
             for f in freqs]
    gaps = 1.0 + rng.uniform(-0.02, 0.02, d_a - 1)
    levels = [0.0] + [float(x) for x in np.cumsum(gaps)]
    return {
        "system": {"eigenvalues": levels},
        "bath": {"kind": "finite", "modes": modes,
                 "temperature": float(rng.uniform(0.8, 1.5)),
                 "broadening": 0.72 * spacing},
        "couplings": [{"A": _cmat(_ladder_coupling(rng, d_a))}],
        "initial_state": "maximally-mixed",
        "times": {"t_max": 375.0, "samples": 61},
    }


# the acceptance gate's weak-coupling scenario: a qubit against an
# eight-mode comb whose fixed irregular offsets keep the finite bath from
# rephasing inside three relaxation times (t = 375), from the maximally
# mixed state. The gate's 0.05 trace-distance cap is stated for this case.
WEAK_COMB = (0.9466517888250567, 0.9619077807270838, 0.975023195643077,
             0.9904537424331107, 1.0084630566742057, 1.024893575542738,
             1.0373632729751479, 1.0529387866624487)


def _weak_comb_doc(rng) -> dict:
    """The gate's scenario written in a basis the seed draws: the physics,
    and so the trace distance, does not depend on the seed."""
    u = _unitary(rng, 2)
    h = u @ np.diag([0.0, 1.0]) @ u.conj().T
    sigma_x = u @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ u.conj().T
    return {
        "system": {"hamiltonian": _cmat(0.5 * (h + h.conj().T))},
        "bath": {"kind": "finite",
                 "modes": [{"frequency": f, "coupling": 5.0e-3} for f in WEAK_COMB],
                 "temperature": 1.0, "broadening": 0.01085},
        "couplings": [{"A": _cmat(0.5 * (sigma_x + sigma_x.conj().T))}],
        "initial_state": "maximally-mixed",
        "times": {"t_max": 375.0, "samples": 61},
    }


def _explicit_doc(rng, d_a: int, d_b: int, adjoint: bool) -> dict:
    """Dense random bath hamiltonian with two bath operators (or one
    non-hermitian pair plus its adjoint, rotated to two hermitian channels)."""
    levels = [0.0] + [float(x) for x in np.cumsum(rng.uniform(0.6, 1.4, d_a - 1))]
    u = _unitary(rng, d_b)
    h_b = (u * np.sort(rng.uniform(0.0, 3.0, d_b))) @ u.conj().T
    if adjoint:
        lower = np.diag(np.sqrt(np.arange(1, d_a)), 1).astype(complex)
        b = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
        couplings = [{"A": _cmat(lower), "X": _cmat(0.02 * b / math.sqrt(d_b)),
                      "add_adjoint": True}]
    else:
        couplings = [{"A": _cmat(_hermitian(rng, d_a)),
                      "X": _cmat(0.05 * _hermitian(rng, d_b))}
                     for _ in range(2)]
    return {
        "system": {"eigenvalues": levels},
        "bath": {"kind": "finite", "hamiltonian": _cmat(0.5 * (h_b + h_b.conj().T)),
                 "temperature": float(rng.uniform(1.0, 3.0))},
        "couplings": couplings,
        "initial_state": "excited",
        "times": {"t_max": 20.0, "samples": 41},
    }


def _oracle_bath(seed: int) -> list[Job]:
    jobs = []
    combs = [(2, 5), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7), (4, 5),
             (4, 6), (4, 8)]
    for i, (d_a, n) in enumerate(combs):
        rng = np.random.default_rng([seed, 3, i])
        jobs.append(Job(f"oracle-comb-d{d_a}-m{n}-{i}", "oracle",
                        _text(_comb_doc(rng, d_a, n)), methods=("expm",)))
    rng = np.random.default_rng([seed, 3, 50])
    jobs.append(Job("oracle-weak-comb-d2-m8", "oracle", _text(_weak_comb_doc(rng)),
                    methods=("expm",), weak=True))
    explicit = [(2, 16, False), (3, 16, True), (4, 16, False), (2, 8, False)]
    for i, (d_a, d_b, adjoint) in enumerate(explicit):
        rng = np.random.default_rng([seed, 3, 100 + i])
        jobs.append(Job(f"oracle-explicit-d{d_a}-b{d_b}{'-adj' if adjoint else ''}",
                        "oracle", _text(_explicit_doc(rng, d_a, d_b, adjoint)),
                        methods=("expm",)))
    return jobs


_LAYOUTS = {
    "secular-sweep": lambda seed: _derive_sweep(seed) + _evolve_ladder(seed),
    "presecular-oracle": lambda seed: _presecular_window(seed) + _oracle_bath(seed),
}


def generate(workload: str, seed: int) -> list[Job]:
    """The workload's job list for this seed; same seed, same documents."""
    if workload not in _LAYOUTS:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         f"{', '.join(WORKLOADS)}")
    return _LAYOUTS[workload](seed)

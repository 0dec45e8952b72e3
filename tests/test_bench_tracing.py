"""The benchmark's trace harness (bench/tracing.py) wraps library functions
by looking each name in its PATCHES list up on its module, so a library
change that deletes or renames one of those names breaks traced runs. The
harness is loaded from its file and used as it is."""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_report(scenario_name):
    """Run build_report on a demo scenario under an installed Tracer; check
    every name is wrapped while it runs and restored afterwards."""
    tracing = _load_tracing()
    names = [(module, attr) for module, attr, _, _ in tracing.PATCHES]
    names += [(module, "rhs_function") for module in tracing.RHS_LOOKUPS]
    originals = {name: getattr(importlib.import_module(name[0]), name[1])
                 for name in names}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), fn in originals.items():
            assert getattr(importlib.import_module(module), attr) is not fn
        cli = importlib.import_module("lindforge.cli")
        scenario = cli.load_scenario(ROOT / "demos" / "scenarios" / f"{scenario_name}.json")
        report, _ = cli.build_report(scenario, scenario_name)
    finally:
        tracer.uninstall()
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn
    return report, tracer


def test_trace_harness_installs_runs_and_uninstalls():
    report, tracer = _traced_report("thermal_qubit")
    assert report["all_checks_pass"]
    assert tracer.counts["bath.rate_calls"] > 0
    assert tracer.busy["generator.assemble_s"] > 0


def test_trace_harness_on_a_finite_bath():
    report, tracer = _traced_report("weak_coupling_comb")
    assert report["all_checks_pass"]
    assert tracer.counts["bath.rate_calls"] > 0
    assert tracer.counts["bath.two_time_calls"] > 0
    assert tracer.busy["bath.correlation_s"] > 0
    assert tracer.busy["bath.corr_time_s"] > 0

"""The traced benchmark binds heraldsim functions by name and reads some of
their arguments; a span whose function or probed parameter disappears makes
``bench/run.py --trace 1`` fail.  The worker also calls ``scenarios`` and
``cli`` functions directly, and runs presets by name.  These tests load
``bench/worker.py`` without calling its ``install``, which would rebind the
heraldsim module globals."""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def _load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


worker = _load_worker()
SPANS = (worker.POINT_SPAN,) + worker.LAYER_SPANS
# the arguments each probe reads
PROBED = {
    worker._probe_eigen: ("a",),
    worker._probe_grid: ("n",),
    worker._probe_modes: ("m_modes",),
    worker._probe_jsa: ("grid_s", "grid_i"),
}


@pytest.mark.parametrize("span", SPANS, ids=[span[0] for span in SPANS])
def test_traced_function_exists_with_probed_parameters(span):
    name, module_name, attr, probe = span
    fn = getattr(importlib.import_module(module_name), attr, None)
    assert callable(fn), f"{name}: {module_name}.{attr} is gone"
    params = inspect.signature(fn).parameters
    for arg in PROBED.get(probe, ()):
        assert arg in params, f"{name}: the probe reads {arg!r}"


def test_every_probe_is_covered():
    probes = {span[3] for span in SPANS} - {None, worker._probe_point}
    assert probes == set(PROBED)


def _direct_calls():
    """(module, function, positional count, keyword names) of each call of the
    form ``scenarios.f(...)`` or ``cli.f(...)`` in the worker's source."""
    calls = set()
    for node in ast.walk(ast.parse(WORKER.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("scenarios", "cli")):
            calls.add((node.func.value.id, node.func.attr, len(node.args),
                       tuple(k.arg for k in node.keywords)))
    return sorted(calls)


DIRECT_CALLS = _direct_calls()


def test_worker_calls_the_entry_points():
    names = {call[1] for call in DIRECT_CALLS}
    assert {"preset", "run_scenario", "run_sweep", "format_report_csv",
            "format_sweep_csv", "main"} <= names


@pytest.mark.parametrize("call", DIRECT_CALLS, ids=[f"{c[0]}.{c[1]}" for c in DIRECT_CALLS])
def test_direct_call_binds(call):
    module_name, attr, n_args, keywords = call
    fn = getattr(importlib.import_module(f"heraldsim.{module_name}"), attr, None)
    assert callable(fn), f"{module_name}.{attr} is gone"
    inspect.signature(fn).bind(*([None] * n_args), **dict.fromkeys(keywords))


def test_worker_presets_exist():
    from heraldsim.scenarios import PRESET_NAMES

    used = set(worker.PRESET_POINTS) | set(worker.DUMP_POINTS) | {worker.SWEEP_PRESET}
    used |= {name for names in worker.SMOKE_POINTS.values() for name in names}
    assert used <= set(PRESET_NAMES)


def test_point_probe_reads_pipeline_result_fields():
    from dataclasses import fields

    from heraldsim.scenarios import PipelineResult

    assert {"report", "n_signal", "n_idler"} <= {f.name for f in fields(PipelineResult)}


def test_outputs_match_the_benchmark_reference():
    """Every preset row and every fig4 sweep row, header included, is byte
    for byte the row ``bench/reference.json`` holds, as the benchmark's seed-0
    check requires."""
    import json

    from heraldsim import scenarios

    reference = json.loads((WORKER.parent / "reference.json").read_text())["points"]
    got = {}
    for name in worker.PRESET_POINTS:
        s = scenarios.preset(name)
        header, row = scenarios.format_report_csv(
            s, scenarios.run_scenario(s).report).splitlines()
        got[name] = {"header": header, "row": row}
    header, *rows = scenarios.format_sweep_csv(
        scenarios.run_sweep(scenarios.preset(worker.SWEEP_PRESET))).splitlines()
    for i, row in enumerate(rows):
        got[f"{worker.SWEEP_PRESET}[{i}]"] = {"header": header, "row": row}
    assert got == reference

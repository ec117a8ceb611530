"""The traced benchmark binds heraldsim functions by name and reads some of
their arguments; a span whose function or probed parameter disappears makes
``bench/run.py --trace 1`` fail.  These tests load ``bench/worker.py`` without
calling its ``install``, which would rebind the heraldsim module globals."""
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


def test_point_probe_reads_pipeline_result_fields():
    from dataclasses import fields

    from heraldsim.scenarios import PipelineResult

    assert {"report", "n_signal", "n_idler"} <= {f.name for f in fields(PipelineResult)}

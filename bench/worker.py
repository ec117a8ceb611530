"""One benchmark sample, run in a fresh interpreter.

Usage (normally started by run.py):  python3 bench/worker.py SPEC.json

SPEC holds the workload, seed, mode ("setup" or "pass"), whether to trace, and
where to write the result.  The worker imports heraldsim from the checkout's
``src`` directory, builds the workload's scenarios, and reports the moment it
was ready.  In "pass" mode it then runs one full pass of the workload, checks
every output, and reports the wall time, the per-point times taken at the
``run_scenario`` boundary, its peak resident memory and, when tracing, the
per-layer spans.

heraldsim is only called through its public functions.  Spans are recorded by
replacing every binding of a traced function inside the heraldsim modules with
a timing wrapper, so calls made through ``from .x import f`` are seen too.
"""
from __future__ import annotations

import importlib
import inspect
import json
import math
import pkgutil
import random
import resource
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import heraldsim
from heraldsim import cli, scenarios

PRESET_POINTS = ("fig1", "fig3", "fig5-180ps", "fig5-9ps", "fig5-wideband")
SWEEP_PRESET = "fig4"
DUMP_POINTS = ("fig1", "fig5-180ps")
# The one-point smoke pass of each workload uses its cheapest point.
SMOKE_POINTS = {"presets": ("fig3",), "state-dump": ("fig5-180ps",)}

# Seeds other than 0 scale each point's mu_s, mu_i and T by a factor in this range.
SCALE_RANGE = (0.95, 1.05)
# A seed-0 point fails when it misses the reference by more than the code's own
# refinement thresholds (scenarios.H_STABILITY and DS_STABILITY at the parent).
MAX_DH = 0.0025
MAX_DDS = 0.005
DUMP_FILES = ("detection_modes.csv", "idler_modes.csv")


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans with parents, kept in memory, and per-layer counters that the
    span probes fill."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.counters = defaultdict(int)  # per-layer metric name -> value
        self.distinct = defaultdict(set)  # per-layer metric name -> values seen
        self.results = []  # (report, n_signal, n_idler) of each run_scenario call

    def wrap(self, name, fn, probe):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if probe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self, bound.arguments, result)
            return result

        return wrapper

    def peak(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def durations(self, name):
        return [end - start for n, _, start, end in self.spans if n == name]

    def summary(self):
        """calls, inclusive seconds and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, _, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return dict(out)


def _probe_point(tr, args, result):
    # keep only what the checks read, so the worker holds no more memory than
    # a caller that drops each result
    tr.results.append((result.report, result.n_signal, result.n_idler))
    tr.peak("scenarios.max_n_signal", result.n_signal)
    tr.peak("scenarios.max_n_idler", result.n_idler)


def _probe_eigen(tr, args, result):
    tr.peak("numerics.hermitian_eigen.max_order", len(args["a"]))


def _probe_grid(tr, args, result):
    tr.distinct["numerics.build_grid.distinct_n"].add(int(args["n"]))


def _probe_modes(tr, args, result):
    tr.peak("povm.max_modes", int(args["m_modes"]))


def _probe_jsa(tr, args, result):
    tr.counters["jsa.sample_jsa.cells"] += args["grid_s"].n * args["grid_i"].n


# (span name, defining module, function, probe).  The point boundary is always
# traced; the rest only in a traced run.
POINT_SPAN = ("scenarios.run_scenario", "heraldsim.scenarios", "run_scenario", _probe_point)
LAYER_SPANS = (
    ("scenarios.evaluate_pipeline", "heraldsim.scenarios", "evaluate_pipeline", None),
    ("herald.idler_density_matrix", "heraldsim.herald", "idler_density_matrix", None),
    ("herald.collapsed_wavefunctions", "heraldsim.herald", "collapsed_wavefunctions", None),
    ("herald.t_min", "heraldsim.herald", "t_min", None),
    ("numerics.hermitian_eigen", "heraldsim.numerics", "hermitian_eigen", _probe_eigen),
    ("numerics.build_grid", "heraldsim.numerics", "build_grid", _probe_grid),
    ("povm.detection_modes", "heraldsim.povm", "detection_modes", _probe_modes),
    ("jsa.sample_jsa", "heraldsim.jsa", "sample_jsa", _probe_jsa),
    ("jsa.jsa_norm", "heraldsim.jsa", "jsa_norm", None),
    ("cli.main", "heraldsim.cli", "main", None),
    ("cli.dump_mode_tables", "heraldsim.scenarios", "dump_mode_tables", None),
)


def install(tracer, targets):
    """Replace every binding of each target inside the heraldsim modules.

    Returns the span names whose function no longer exists."""
    for info in pkgutil.walk_packages(heraldsim.__path__, "heraldsim."):
        importlib.import_module(info.name)
    modules = [m for n, m in sys.modules.items()
               if n == "heraldsim" or n.startswith("heraldsim.")]
    absent = []
    for name, module_name, attr, probe in targets:
        fn = getattr(sys.modules.get(module_name), attr, None)
        if fn is None:
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, fn, probe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return absent


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _scaled(s, rng):
    """Scale mu_s, mu_i and T (the whole sweep range for a sweep) by factors
    drawn from SCALE_RANGE."""
    f_mus, f_mui, f_t = (rng.uniform(*SCALE_RANGE) for _ in range(3))
    source = replace(s.source, mu_s=s.source.mu_s * f_mus, mu_i=s.source.mu_i * f_mui)
    if s.sweep is not None:
        sweep = replace(s.sweep, start=s.sweep.start * f_t, stop=s.sweep.stop * f_t)
        return replace(s, source=source, sweep=sweep)
    return replace(s, source=source, detector=replace(s.detector, T=s.detector.T * f_t))


def _direct_config(s):
    """Config text giving the source in the direct (sigma/mu_s/mu_i/B) form."""
    keys = {"sigma": s.source.sigma, "mu_s": s.source.mu_s, "mu_i": s.source.mu_i,
            "B": s.detector.B, "T": s.detector.T, "kappa": s.source.kappa,
            "pair_probability": s.pair_probability,
            "external_efficiency": s.external_efficiency}
    lines = [f"name = {s.name}"] + [f"{k} = {float(v)!r}" for k, v in keys.items()
                                    if v is not None]
    return "\n".join(lines) + "\n"


def build_points(workload, seed, smoke, work):
    """The workload's inputs: a list of (key, scenario or CLI argv)."""
    rng = random.Random(seed)

    def make(name):
        s = scenarios.preset(name)
        return s if seed == 0 else _scaled(s, rng)

    if workload == "presets":
        names = SMOKE_POINTS[workload] if smoke else PRESET_POINTS
        return [(name, make(name)) for name in names]
    if workload == "window-sweep":
        s = make(SWEEP_PRESET)
        if smoke:
            s = replace(s, sweep=replace(s.sweep, count=1))
        return [(SWEEP_PRESET, s)]
    if workload == "state-dump":
        points = []
        for name in (SMOKE_POINTS[workload] if smoke else DUMP_POINTS):
            out = work / f"{name}.csv"
            argv = ["preset", name]
            if seed != 0:
                # scaled inputs reach the CLI as a config file in the direct form
                cfg = work / f"{name}.cfg"
                cfg.write_text(_direct_config(make(name)))
                argv = ["run", str(cfg)]
            points.append((name, argv + ["--dump-modes", str(work / f"{name}_modes"),
                                         "--out", str(out)]))
        return points
    raise SystemExit(f"unknown workload {workload!r}")


def row_label(workload, key, i):
    """Reference key of row i of an input's output."""
    return f"{key}[{i}]" if workload == "window-sweep" else key


def run_pass(workload, points, tracer):
    """One full pass; returns (key, output text or None, exception or None,
    run_scenario results) for each input."""
    outputs = []
    for key, item in points:
        first = len(tracer.results)
        text = exc = None
        try:
            if workload == "presets":
                result = scenarios.run_scenario(item)
                text = scenarios.format_report_csv(item, result.report)
            elif workload == "window-sweep":
                text = scenarios.format_sweep_csv(scenarios.run_sweep(item))
            else:
                code = cli.main(item)
                if code != 0:
                    raise RuntimeError(f"heraldsim exited with code {code}")
                text = Path(item[-1]).read_text()
        except Exception as err:  # noqa: BLE001 - a failed point is counted, not fatal
            exc = err
        outputs.append((key, text, exc, tracer.results[first:]))
    return outputs


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _bounds_error(report):
    if not 0.0 <= report.d_s <= 1.0:
        return f"D_s = {report.d_s} outside [0, 1]"
    if not 0.0 < report.h <= 1.0:
        return f"H = {report.h} outside (0, 1]"
    if not report.p_s <= report.p_pair:
        return f"P_s = {report.p_s} > P_pair = {report.p_pair}"
    return None


def _check_dump(directory, n_signal, n_idler):
    """Structure of the dumped tables: one header row, n data rows, all finite."""
    expected = {"detection_modes.csv": n_signal, "idler_modes.csv": n_idler}
    for fname in DUMP_FILES:
        path = Path(directory) / fname
        if not path.is_file():
            return f"{fname} missing"
        lines = path.read_text().splitlines()
        if len(lines) != expected[fname] + 1:
            return f"{fname}: {len(lines)} lines, expected {expected[fname] + 1}"
        width = len(lines[0].split(","))
        if not lines[0].startswith("omega"):
            return f"{fname}: no header row"
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != width or not all(math.isfinite(float(c)) for c in cells):
                return f"{fname}: malformed row {line[:60]!r}"
    return None


def check_pass(workload, points, outputs, reference):
    """Count failed points and compare seed-0 rows with the reference."""
    check = {"attempted": 0, "failed": 0, "failures": [], "rows": 0,
             "rows_identical": 0, "max_dH": 0.0, "max_dDs": 0.0}
    for (key, item), (_, text, exc, results) in zip(points, outputs):
        n_points = item.sweep.count if workload == "window-sweep" else 1
        check["attempted"] += n_points
        if exc is not None:
            check["failed"] += n_points
            check["failures"].append(f"{key}: {type(exc).__name__}: {exc}")
            continue
        header, *rows = text.splitlines()
        if len(rows) != n_points or len(results) != n_points:
            raise SystemExit(f"{key}: {len(rows)} rows and {len(results)} "
                             f"run_scenario calls for {n_points} points")
        col_h, col_ds = header.split(",").index("H"), header.split(",").index("D_s")
        for i, row in enumerate(rows):
            label = row_label(workload, key, i)
            report, n_signal, n_idler = results[i]
            error = _bounds_error(report)
            if error is None and workload == "state-dump":
                error = _check_dump(item[item.index("--dump-modes") + 1], n_signal, n_idler)
            if reference is not None:
                ref = reference[label]
                cells, ref_cells = row.split(","), ref["row"].split(",")
                d_h = abs(float(cells[col_h]) - float(ref_cells[col_h]))
                d_ds = abs(float(cells[col_ds]) - float(ref_cells[col_ds]))
                check["rows"] += 1
                check["rows_identical"] += header == ref["header"] and row == ref["row"]
                check["max_dH"] = max(check["max_dH"], d_h)
                check["max_dDs"] = max(check["max_dDs"], d_ds)
                if error is None and (d_h > MAX_DH or d_ds > MAX_DDS):
                    error = f"misses reference: |dH| = {d_h:.3g}, |dD_s| = {d_ds:.3g}"
            if error is not None:
                check["failed"] += 1
                check["failures"].append(f"{label}: {error}")
    return check


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(heraldsim.__file__).resolve().parents:
        raise SystemExit(f"heraldsim was imported from {heraldsim.__file__}, not {src}")
    work = Path(spec["work"])
    workload, trace = spec["workload"], spec["trace"]
    reference = None
    if spec["seed"] == 0:
        reference = json.loads(Path(spec["reference"]).read_text())["points"]
    points = build_points(workload, spec["seed"], spec["smoke"], work)
    tracer = Tracer()
    absent = install(tracer, (POINT_SPAN,) + (LAYER_SPANS if trace else ()))
    ready = time.monotonic()

    out = {"ready": ready, "absent": absent}
    if spec["mode"] == "pass":
        t0 = time.perf_counter()
        outputs = run_pass(workload, points, tracer)
        out["wall_s"] = time.perf_counter() - t0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["point_s"] = tracer.durations("scenarios.run_scenario")
        out["check"] = check_pass(workload, points, outputs, reference)
        if trace:
            out["spans"] = tracer.summary()
            out["counters"] = dict(tracer.counters)
            out["counters"].update((k, len(v)) for k, v in tracer.distinct.items())
    else:
        out["host"] = host_record()
    Path(spec["out"]).write_text(json.dumps(out))


def host_record():
    """Library versions and BLAS build as this interpreter sees them."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


if __name__ == "__main__":
    main(sys.argv[1])

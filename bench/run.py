"""heraldsim benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload presets --seed 0 --seconds 45 --trace 0

Workloads: presets, window-sweep, state-dump (see bench/README.md).  Every
sample is one full pass of the workload in a fresh worker process
(bench/worker.py), one worker at a time, with heraldsim imported from the
checkout's ``src``.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced passes, interleaved with untraced ones to measure the tracing overhead.
The line before it is a detail record: quartiles and sample counts, failed
points, the seed-0 reference comparison, and the host.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".benchwork"
WORKLOADS = ("presets", "window-sweep", "state-dump")

# Extra set-up-only workers per untraced run; setup_s is the median over these
# and the set-up of every pass worker.
SETUP_SAMPLES = 5
# Every run ends within this many seconds, whatever --seconds asks for.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "point_p50_s": "s",
    "point_p90_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "fraction",
}
# failed_frac is 0 when all is well, so it is carried by the result's
# attempted/failed counts and the detail record, not by the metrics.
RESULT_END_TO_END = tuple(m for m in END_TO_END if m != "failed_frac")

# Per-layer metric -> (unit, the span whose calls it needs).
PER_LAYER = {
    "scenarios.evaluate_pipeline.calls": ("count", "scenarios.evaluate_pipeline"),
    "scenarios.evaluate_pipeline.s": ("s", "scenarios.evaluate_pipeline"),
    "scenarios.evals_per_point": ("ratio", "scenarios.evaluate_pipeline"),
    "scenarios.max_n_signal": ("count", "scenarios.run_scenario"),
    "scenarios.max_n_idler": ("count", "scenarios.run_scenario"),
    "herald.idler_density_matrix.calls": ("count", "herald.idler_density_matrix"),
    "herald.idler_density_matrix.s": ("s", "herald.idler_density_matrix"),
    "herald.idler_density_matrix.self_s": ("s", "herald.idler_density_matrix"),
    "herald.collapsed_wavefunctions.s": ("s", "herald.collapsed_wavefunctions"),
    "herald.t_min.s": ("s", "herald.t_min"),
    "numerics.hermitian_eigen.calls": ("count", "numerics.hermitian_eigen"),
    "numerics.hermitian_eigen.s": ("s", "numerics.hermitian_eigen"),
    "numerics.hermitian_eigen.max_order": ("count", "numerics.hermitian_eigen"),
    "numerics.build_grid.calls": ("count", "numerics.build_grid"),
    "numerics.build_grid.distinct_n": ("count", "numerics.build_grid"),
    "numerics.build_grid.s": ("s", "numerics.build_grid"),
    "povm.detection_modes.calls": ("count", "povm.detection_modes"),
    "povm.detection_modes.s": ("s", "povm.detection_modes"),
    "povm.detection_modes.self_s": ("s", "povm.detection_modes"),
    "povm.max_modes": ("count", "povm.detection_modes"),
    "jsa.sample_jsa.calls": ("count", "jsa.sample_jsa"),
    "jsa.sample_jsa.s": ("s", "jsa.sample_jsa"),
    "jsa.sample_jsa.cells": ("count", "jsa.sample_jsa"),
    "jsa.jsa_norm.s": ("s", "jsa.jsa_norm"),
    "cli.main.s": ("s", "cli.main"),
    "cli.dump_mode_tables.s": ("s", "cli.dump_mode_tables"),
    "trace_overhead_frac": ("fraction", None),
}
# What the worker records per span; other per-layer metrics are its counters.
SPAN_STATS = ("calls", "s", "self_s")
# Spans of layers a workload does not run; their metrics read 0 there.
NOT_RUN = {
    "presets": {"cli.main", "cli.dump_mode_tables"},
    "window-sweep": {"cli.main", "cli.dump_mode_tables"},
    "state-dump": set(),
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (exit code 2)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def spawn(spec: dict, hard_end: float) -> dict:
    """Run one worker to completion; returns its result with setup_s and the
    time from start to exit added."""
    n = len(list(WORK.glob("spec-*.json")))
    spec_path, out_path = WORK / f"spec-{n}.json", WORK / f"out-{n}.json"
    spec = dict(spec, src=str(SRC), work=str(WORK), out=str(out_path))
    spec_path.write_text(json.dumps(spec))
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), str(spec_path)],
                              env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(hard_end - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with code {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(out_path.read_text())
    result["setup_s"] = result["ready"] - t0
    result["elapsed_s"] = time.monotonic() - t0
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_record(worker_host: dict, seed: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return dict(worker_host, nproc=nproc(), cpu_model=cpu, blas_threads=nproc(),
                seed=seed, git_commit=commit, src_sha256=digest.hexdigest())


def layer_values(traced_pass: dict) -> dict:
    """Per-layer metrics of one traced pass: span statistics (calls, s,
    self_s) and the counters the worker's probes filled."""
    spans, counters = traced_pass["spans"], traced_pass["counters"]
    calls = lambda span: spans.get(span, {}).get("calls", 0)  # noqa: E731
    values = {}
    for name, (_, span) in PER_LAYER.items():
        stat = name.rpartition(".")[2]
        if span is not None:
            values[name] = (spans.get(span, {}).get(stat, 0) if stat in SPAN_STATS
                            else counters.get(name, 0))
    points = calls("scenarios.run_scenario")
    values["scenarios.evals_per_point"] = (calls("scenarios.evaluate_pipeline") / points
                                           if points else 0.0)
    return values


def layer_summary(workload: str, traced: list[dict], untraced_walls: list[float]):
    """Median of each per-layer metric over the traced passes, and the metrics
    whose span recorded no call on a workload that runs its layer."""
    per_pass = [layer_values(p) for p in traced]
    missing = []
    values = {}
    for name, (_, span) in PER_LAYER.items():
        if span is None:
            continue
        ran = all(p["spans"].get(span, {}).get("calls", 0) > 0 for p in traced)
        if not ran and span not in NOT_RUN[workload]:
            missing.append(name)
            continue
        values[name] = statistics.median(v[name] for v in per_pass)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace_overhead_frac"] = traced_wall / statistics.median(untraced_walls) - 1.0
    return values, missing


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, reference: Path = REFERENCE) -> tuple[dict, dict, int]:
    """Run the workload; returns (result line, detail record, exit code)."""
    if not (SRC / "heraldsim" / "__init__.py").is_file():
        raise HarnessError(f"no heraldsim sources under {SRC}")
    if seed == 0 and not reference.is_file():
        raise HarnessError(f"reference rows {reference} are missing")
    start = time.monotonic()
    budget_end, hard_end = start + seconds, start + HARD_LIMIT_S
    base = {"workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
            "reference": str(reference)}
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        # the first worker compiles bytecode and warms the file cache; its
        # set-up time is not counted
        warm = spawn(dict(base, mode="setup"), hard_end)
        setups = [] if trace else [spawn(dict(base, mode="setup"), hard_end)["setup_s"]
                                   for _ in range(SETUP_SAMPLES)]
        passes, traced = [], []
        while True:
            kind = trace and len(traced) < len(passes)
            result = spawn(dict(base, mode="pass", trace=kind), hard_end)
            if "scenarios.run_scenario" in result["absent"]:
                raise HarnessError("heraldsim.scenarios.run_scenario no longer exists")
            (traced if kind else passes).append(result)
            have_all = passes and (traced or not trace)
            longest = max(p["elapsed_s"] for p in passes + traced)
            if have_all and time.monotonic() + longest > budget_end:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    checks = [p["check"] for p in passes + traced]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    rows = sum(c["rows"] for c in checks)
    points = [t for p in passes for t in p["point_s"]]
    if not all(p["point_s"] for p in passes):
        raise HarnessError(f"no point reached run_scenario: {checks[0]['failures'][:3]}")
    samples = {
        "setup_s": setups + [p["setup_s"] for p in passes],
        "wall_s": [p["wall_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    summary = {name: dict(quartiles(v), unit=END_TO_END[name]) for name, v in samples.items()}
    summary["point_s"] = dict(quartiles(points), unit="s")
    e2e = {name: summary[name]["median"] for name in samples}
    # percentiles within each pass, then the median over passes: with two
    # points per pass (state-dump) a pooled median would fall in the gap
    # between them and read the extremes of both
    for q in (50, 90):
        e2e[f"point_p{q}_s"] = statistics.median(percentile(p["point_s"], q) for p in passes)
    e2e["failed_frac"] = failed / attempted

    missing = []
    if trace:
        values, missing = layer_summary(workload, traced, samples["wall_s"])
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {name: e2e[name] for name in RESULT_END_TO_END}
        units = END_TO_END
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes), "traced_passes": len(traced), "points": len(points),
        "end_to_end": {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END.items()},
        "quartiles": summary,
        "check.max_dH": max(c["max_dH"] for c in checks) if rows else None,
        "check.max_dDs": max(c["max_dDs"] for c in checks) if rows else None,
        "check.rows_identical_frac": (sum(c["rows_identical"] for c in checks) / rows
                                      if rows else None),
        "failures": [f for c in checks for f in c["failures"]][:20],
        "missing": missing,
        "host": host_record(warm["host"], seed),
    }
    line = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    return line, detail, 3 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="heraldsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        line, detail, code = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if detail["missing"]:
        print(f"spans recorded no calls: {detail['missing']}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())

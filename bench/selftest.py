"""Self-test of the benchmark harness.

    python3 bench/selftest.py

1. A one-point smoke pass of each workload, untraced and traced, at seed 0:
   the result carries exactly the metrics BENCHMARK.json lists, with the same
   units; the detail record carries all six end-to-end metrics; no point
   fails, no span is missing, every per-layer metric of a layer that runs is
   above 0, and every row is byte-identical to the reference.
2. A reference with one corrupted row: that point is counted in failed_frac.
3. A traced pass in which one layer recorded no calls: its metrics are
   reported missing, not 0.
"""
import json
import sys

import run


def smoke_passes(errors):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            line, detail, code = run.measure(workload, 0, 1, trace, smoke=True)
            units = {name: v["unit"] for name, v in line["metrics"].items()}
            if units != listed[trace]:
                errors.append(f"{label}: metrics {sorted(units.items())} "
                              f"differ from BENCHMARK.json {sorted(listed[trace].items())}")
            e2e = {name: v["unit"] for name, v in detail["end_to_end"].items()}
            if e2e != run.END_TO_END:
                errors.append(f"{label}: end-to-end metrics {e2e}")
            if code != 0 or not line["correct"] or line["failed"] or detail["missing"]:
                errors.append(f"{label}: exit {code}, failures {detail['failures']}, "
                              f"missing {detail['missing']}")
            zero = [name for name, v in line["metrics"].items()
                    if trace and v["value"] <= 0 and name != "trace_overhead_frac"
                    and run.PER_LAYER[name][1] not in run.NOT_RUN[workload]]
            if zero:
                errors.append(f"{label}: per-layer metrics read 0 where the layer runs: {zero}")
            if detail["check.rows_identical_frac"] != 1.0:
                errors.append(f"{label}: rows_identical_frac "
                              f"{detail['check.rows_identical_frac']}")
            print(f"ok  {label}: {line['attempted']} point(s)", flush=True)


def corrupted_reference(errors):
    ref = json.loads(run.REFERENCE.read_text())
    point = ref["points"]["fig3"]
    col = point["header"].split(",").index("H")
    cells = point["row"].split(",")
    cells[col] = repr(float(cells[col]) - 0.01)
    point["row"] = ",".join(cells)
    path = run.ROOT / ".benchwork-reference.json"
    path.write_text(json.dumps(ref))
    try:
        line, detail, _ = run.measure("presets", 0, 1, False, smoke=True, reference=path)
    finally:
        path.unlink()
    if line["failed"] != 1 or detail["end_to_end"]["failed_frac"]["value"] != 1.0:
        errors.append(f"corrupted reference row not counted: failed {line['failed']}, "
                      f"failures {detail['failures']}")
    if detail["check.rows_identical_frac"] != 0.0:
        errors.append("corrupted reference row counted as identical")
    print(f"ok  corrupted reference: {detail['failures']}", flush=True)


def missing_span(errors):
    spans = {span: {"calls": 0 if span == "povm.detection_modes" else 1, "s": 1.0,
                    "self_s": 1.0}
             for _, span in run.PER_LAYER.values() if span is not None}
    traced = [{"spans": spans, "counters": {}, "wall_s": 1.0}]
    values, missing = run.layer_summary("presets", traced, [1.0])
    expected = sorted(name for name, (_, span) in run.PER_LAYER.items()
                      if span == "povm.detection_modes")
    if sorted(missing) != expected or any(name in values for name in expected):
        errors.append(f"zero-call span reported as {missing}, expected {expected}")
    print(f"ok  zero-call span reported missing: {missing}", flush=True)


def main() -> int:
    errors = []
    smoke_passes(errors)
    corrupted_reference(errors)
    missing_span(errors)
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

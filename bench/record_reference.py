"""Record the seed-0 output rows that every benchmark run is checked against.

Run from the root of a checkout of the commit whose numbers are the reference:

    PYTHONPATH=src python3 bench/record_reference.py

It writes bench/reference.json: for each point of the presets and window-sweep
workloads, the CSV header and the 9-significant-digit row heraldsim prints.
The state-dump workload prints the same rows as presets for its presets.
"""
import json
import subprocess
import sys
from pathlib import Path

import worker

OUT = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    tracer = worker.Tracer()
    worker.install(tracer, (worker.POINT_SPAN,))
    points = {}
    for workload in ("presets", "window-sweep"):
        todo = worker.build_points(workload, seed=0, smoke=False, work=None)
        for key, text, exc, _ in worker.run_pass(workload, todo, tracer):
            if exc is not None:
                raise exc
            header, *rows = text.splitlines()
            for i, row in enumerate(rows):
                points[worker.row_label(workload, key, i)] = {"header": header, "row": row}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or None
    OUT.write_text(json.dumps({"commit": commit, "points": points}, indent=1) + "\n")
    print(f"wrote {len(points)} rows to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

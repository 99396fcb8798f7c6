#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the J-Kernel reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table5-servlet --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` runs the system under test in its own processes and
prints the end-to-end metrics; ``--trace 1`` replays the workload's
inputs in-process through each layer's public entry point and prints
the per-layer metrics, writing the spans to ``.perfbench/``.
``--workload all`` runs every workload in turn.  Every metric is
printed with its unit and sample count; the last line of standard
output is one JSON object, ``{"correct", "attempted", "failed",
"metrics"}``, whose metrics are those ``BENCHMARK.json`` lists for the
mode (``end_to_end`` or ``per_layer``).  See ``perfbench/README.md``
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: AF_UNIX paths are limited to 107 bytes; the longest socket name the
#: program creates under the temp directory is 28 bytes.
_MAX_TMP_PREFIX = 107 - 29


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _use_local_tmp():
    """Keep the program's socket files inside the checkout when the
    path is short enough for AF_UNIX."""
    tmp = os.path.join(OUT_DIR, "tmp")
    if len(tmp) <= _MAX_TMP_PREFIX:
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = None


def _table(workload, metrics, outcome):
    print(f"== {workload}")
    for name, metric in metrics.items():
        samples = metric.get("samples")
        extra = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:34s} {metric['value']:>14.4f} {metric['unit']}{extra}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed}")
    for note in outcome.notes[:8]:
        print(f"  FAILED: {note}")
    print("  info: " + json.dumps(outcome.info, sort_keys=True))


def _listed(trace):
    """Names of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [metric["name"]
            for metric in spec["per_layer" if trace else "end_to_end"]]


def _record(entry):
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: {src}/repro not found; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    _use_local_tmp()
    sys.path.insert(0, src)
    from jkbench import e2e, host, traced
    from jkbench.inputs import WORKLOADS

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in workloads):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    listed = _listed(args.trace)
    stamp = host.stamp(ROOT)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        calib_before = host.calibration_us()
        if args.trace:
            outcome = traced.run(workload, args.seed, args.seconds, OUT_DIR)
        else:
            outcome = e2e.run(workload, args.seed, args.seconds)
        calib_after = host.calibration_us()
        outcome.info["host.calib_us"] = [round(calib_before, 1),
                                         round(calib_after, 1)]
        _table(workload, outcome.metrics, outcome)
        _record({"stamp": stamp, "workload": workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "attempted": outcome.attempted, "failed": outcome.failed,
                 "notes": outcome.notes[:8], "info": outcome.info,
                 "metrics": outcome.metrics})
        attempted += outcome.attempted
        failed += outcome.failed
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name in listed:
            metric = outcome.metrics[name]
            metrics[prefix + name] = {"value": metric["value"],
                                      "unit": metric["unit"]}
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Gate e2ebench results against a committed baseline.

Usage:

    python3 tools/e2e_gate.py e2e_ci_baseline.json RUN_OUTPUT...

Each RUN_OUTPUT is the captured standard output of one

    python3 e2ebench/run.py --workload W --seed 1 --seconds 5 --trace 0

Its `run_record` line names the workload, seed, seconds and trace mode,
which must match the baseline's; its last line is the result object. A
result passes when it says "correct": true with 0 failed operations, its
ops_per_s is at least baseline / (1 + THRESHOLD) and its latency_p50_ms at
most baseline * (1 + THRESHOLD).

Exit codes: 0 every result passes; 1 a metric is past its limit; 2 a
result is malformed, incorrect, has failed operations, lacks a gated
metric, or does not match the baseline's command.
"""

import json
import sys

# Allowed fractional slowdown, as perf_compare's --threshold: 0.75 passes
# ratios up to 1.75. Shared CI runners are noisy and the baseline was
# measured on other hardware, so the gate catches large regressions only.
THRESHOLD = 0.75

# Gated end-to-end metrics and whether higher is better.
GATED = (("ops_per_s", True), ("latency_p50_ms", False))


def check(baseline, path):
    """Print one run's gated metrics; return 1 past a limit, else 0.

    Raises ValueError (or OSError, KeyError) for an invalid run."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    records = [json.loads(line[len("run_record "):]) for line in lines
               if line.startswith("run_record ")]
    if not records:
        raise ValueError("no run_record line")
    record, result = records[-1], json.loads(lines[-1])
    workload = record.get("workload")
    for key, value in baseline["run"].items():
        if record.get(key) != value:
            raise ValueError("%s %r, but the baseline was run with %r"
                             % (key, record.get(key), value))
    if result.get("correct") is not True or result.get("failed") != 0:
        raise ValueError("result is not correct with 0 failed operations")
    status = 0
    for name, higher_is_better in GATED:
        value = result["metrics"][name]["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError("metric %s is not a number" % name)
        base = baseline["workloads"][workload][name]
        limit = base / (1.0 + THRESHOLD) if higher_is_better else \
            base * (1.0 + THRESHOLD)
        regressed = value < limit if higher_is_better else value > limit
        status = max(status, int(regressed))
        print("%-12s %-16s %14.4f %14.4f %14.4f  %s" % (
            workload, name, base, value, limit,
            "REGRESSION" if regressed else "ok"))
    return status


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = argv[1]
    try:
        with open(path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        print("%-12s %-16s %14s %14s %14s  %s" % (
            "workload", "metric", "baseline", "candidate", "limit", "verdict"))
        status = 0
        for path in argv[2:]:
            status = max(status, check(baseline, path))
    except (OSError, ValueError, KeyError, TypeError) as error:
        print("error: %s: %r" % (path, error))
        return 2
    print("RESULT: %s" % ("regression" if status else "ok"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

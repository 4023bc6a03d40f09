#!/usr/bin/env python3
"""Gate a change's performance against its parent commit.

Usage:

    python3 tools/perf_gate.py PARENT_RUN... -- CHANGE_RUN...

A run is one of:

  - a melody_perfsuite artifact (a file named *.json, schema v1), gated on
    each bench's median_wall_ms;
  - the captured standard output of one
        python3 e2ebench/run.py --workload W --seed S --seconds N --trace 0
    gated on the result's ops_per_s and latency_p50_ms.

Artifacts form one group and e2ebench runs one group per workload. Within
a group the i-th parent run is paired with the i-th change run, so list
both sides in the order they ran (tools/perf_pairs.sh names them so that
a shell glob keeps it). The two runs of a pair must have been made with
the same command and by different builds: their git shas must differ
unless one is 'unknown'.

For each pair and metric the ratio says how much slower the change is:
change / parent for a time, parent / change for a rate. A metric regresses
when the median of its pair ratios is above 1 + THRESHOLD. Each metric is
printed with both sides' medians, the median ratio and the interquartile
range of the ratios. A bench that only one side has is printed as added
or removed and is not gated.

Exit codes: 0 no metric regresses; 1 a metric regresses; 2 invalid input:
a missing or malformed run, unequal parent and change counts in a group,
a change run that is not correct or has failed operations, a pair made
with different commands or by the same build, or a bench missing from
some runs of one side.
"""

import collections
import json
import math
import sys

# Allowed fractional slowdown: a median pair ratio up to 1.75 passes.
# Shared CI runners are noisy, so the gate catches large regressions only.
THRESHOLD = 0.75

# e2ebench's gated end-to-end metrics and whether higher is better.
E2E_METRICS = (("ops_per_s", True), ("latency_p50_ms", False))

# Beside the workload, which groups e2ebench runs, the run_record keys
# that make two of them the same command; and the artifact keys that do
# for two perf-suite runs.
E2E_COMMAND = ("seed", "seconds", "trace")
SUITE_COMMAND = ("quick", "repeats", "threads")

# One run: `metrics` maps (bench or workload, metric) to
# (value, higher_is_better).
Run = collections.namedtuple(
    "Run", ("path", "group", "command", "sha", "correct", "metrics"))


class Invalid(Exception):
    """Input the gate cannot judge (exit 2)."""


def positive(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or value <= 0:
        raise Invalid("%s is %r, not a positive number" % (what, value))
    return float(value)


def read_artifact(doc, path):
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        raise Invalid("%s: not a schema v1 perf-suite artifact" % path)
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        raise Invalid("%s: no benchmarks" % path)
    metrics = {}
    for bench in benches:
        name = bench.get("name") if isinstance(bench, dict) else None
        if not isinstance(name, str) or not name \
                or (name, "median_wall_ms") in metrics:
            raise Invalid("%s: bench name %r missing or repeated"
                          % (path, name))
        metrics[(name, "median_wall_ms")] = (positive(
            bench.get("median_wall_ms"), path + ": " + name), False)
    command = {key: doc.get(key) for key in SUITE_COMMAND}
    return Run(path, "melody_perfsuite", command, doc.get("git_sha"), True,
               metrics)


def read_e2e(text, path):
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    records = [line[len("run_record "):] for line in lines
               if line.startswith("run_record ")]
    if not records:
        raise Invalid("%s: no run_record line" % path)
    record, result = json.loads(records[-1]), json.loads(lines[-1])
    workload = record.get("workload")
    if not isinstance(workload, str):
        raise Invalid("%s: run_record names no workload" % path)
    metrics = {(workload, name): (positive(
        result["metrics"][name]["value"], "%s: %s" % (path, name)), higher)
        for name, higher in E2E_METRICS}
    correct = result.get("correct") is True and result.get("failed") == 0
    command = {key: record.get(key) for key in E2E_COMMAND}
    return Run(path, workload, command, record.get("git_sha"), correct,
               metrics)


def read_run(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".json"):
        return read_artifact(json.loads(text), path)
    return read_e2e(text, path)


def quantile(values, q):
    """Linearly interpolated quantile of a sorted list."""
    at = q * (len(values) - 1)
    low = int(at)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (at - low)


def side_metrics(runs, side, group):
    """The metric keys every run of one side has; refuse a partial one."""
    keys = [set(run.metrics) for run in runs]
    partial = set.union(*keys) - set.intersection(*keys)
    if partial:
        raise Invalid("%s %s: %s absent from some runs"
                      % (side, group, sorted(partial)[0][0]))
    return keys[0]


def gate_group(group, parents, changes):
    """Print one group's rows; return 1 if a metric regresses, else 0."""
    if len(parents) != len(changes):
        raise Invalid("%s: %d parent runs but %d change runs"
                      % (group, len(parents), len(changes)))
    for p, c in zip(parents, changes):
        if p.command != c.command:
            raise Invalid("%s and %s were run with different commands: "
                          "%r vs %r" % (p.path, c.path, p.command, c.command))
        for run in (p, c):
            if not isinstance(run.sha, str) or not run.sha:
                raise Invalid("%s: no git_sha" % run.path)
        # A 7- and a 12-digit short sha of one commit name the same build.
        if p.sha != "unknown" and (p.sha.startswith(c.sha)
                                   or c.sha.startswith(p.sha)):
            raise Invalid("%s and %s were built from the same commit %s"
                          % (p.path, c.path, c.sha))
        if not c.correct:
            raise Invalid("%s: result is not correct with 0 failed "
                          "operations" % c.path)
    parent_keys = side_metrics(parents, "parent", group)
    change_keys = side_metrics(changes, "change", group)
    status = 0
    for key in sorted(parent_keys | change_keys):
        if key not in change_keys or key not in parent_keys:
            print("%-24s %-15s %s" % (key + (
                "removed" if key in parent_keys else "added",)))
            continue
        higher = parents[0].metrics[key][1]
        before = sorted(run.metrics[key][0] for run in parents)
        after = sorted(run.metrics[key][0] for run in changes)
        ratios = sorted(
            p.metrics[key][0] / c.metrics[key][0] if higher else
            c.metrics[key][0] / p.metrics[key][0]
            for p, c in zip(parents, changes))
        ratio = quantile(ratios, 0.5)
        regressed = ratio > 1.0 + THRESHOLD
        status = max(status, int(regressed))
        print("%-24s %-15s %13.4f %13.4f %7.3f %7.3f  %s" % (
            key + (quantile(before, 0.5), quantile(after, 0.5), ratio,
                   quantile(ratios, 0.75) - quantile(ratios, 0.25),
                   "REGRESSION" if regressed else "ok")))
    return status


def main(argv):
    args = argv[1:]
    if args.count("--") != 1 or args[0] == "--" or args[-1] == "--":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cut = args.index("--")
    try:
        sides = []
        for paths in (args[:cut], args[cut + 1:]):
            groups = {}
            for path in paths:
                run = read_run(path)
                groups.setdefault(run.group, []).append(run)
            sides.append(groups)
        print("%-24s %-15s %13s %13s %7s %7s  %s" % (
            "bench/workload", "metric", "parent", "change", "ratio",
            "IQR", "verdict"))
        status = 0
        for group in sorted(set(sides[0]) | set(sides[1])):
            status = max(status, gate_group(group, sides[0].get(group, []),
                                            sides[1].get(group, [])))
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            Invalid) as error:
        print("error: %s" % error)
        return 2
    print("RESULT: %s" % ("regression" if status else "ok"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

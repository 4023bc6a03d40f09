#!/usr/bin/env python3
"""Self-test of tools/perf_gate.py, the CI perf gate.

Builds ten parent and ten change runs per case from the fixtures in
tests/perf_gate/ (a melody_perfsuite artifact and one e2ebench output per
gated workload), runs the checker on them and checks its exit code (0
when the median pair ratio is at most 1.75, 1 past it, 2 for input it
cannot judge) and, for some cases, the rows it prints. Needs only
python3:

    python3 tests/test_perf_gate.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

TESTS = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(os.path.dirname(TESTS), "tools", "perf_gate.py")
FIXTURES = os.path.join(TESTS, "perf_gate")
PAIRS = 10

with open(os.path.join(FIXTURES, "suite.json"), encoding="utf-8") as f:
    SUITE = json.load(f)
E2E = {}
for workload in ("wire_serve", "state_move"):
    with open(os.path.join(FIXTURES, workload + ".out"), encoding="utf-8") as f:
        lines = f.read().splitlines()
    E2E[workload] = (json.loads(lines[0][len("run_record "):]),
                     json.loads(lines[1]))

# Run-to-run spread of the parent's runs, so pair ratios are not all 1.
JITTER = (1.0, 1.04, 0.97, 1.1, 0.92, 1.0, 1.06, 0.95, 1.02, 0.99)


def artifact(sha, time=lambda ms: ms, edit=lambda doc: None):
    doc = copy.deepcopy(SUITE)
    doc["git_sha"] = sha
    for bench in doc["benchmarks"]:
        bench["median_wall_ms"] = time(bench["median_wall_ms"])
    edit(doc)
    return json.dumps(doc, indent=2)


def e2e(workload, sha, ops=lambda v: v, p50=lambda v: v,
        record=None, result=None):
    run, res = copy.deepcopy(E2E[workload])
    run["git_sha"] = sha
    run.update(record or {})
    res["metrics"]["ops_per_s"]["value"] = ops(
        res["metrics"]["ops_per_s"]["value"])
    res["metrics"]["latency_p50_ms"]["value"] = p50(
        res["metrics"]["latency_p50_ms"]["value"])
    res.update(result or {})
    return "e2ebench: build output goes to stderr\nrun_record %s\n%s\n" % (
        json.dumps(run), json.dumps(res))


def suite_case(change=lambda i, ms: ms, parent=None):
    """Ten artifact pairs: parent i times are JITTER[i] x the fixture's."""
    parent = parent or (lambda i, ms: ms * JITTER[i])
    return ([(".json", artifact("aaaaaaa", lambda ms, i=i: parent(i, ms)))
             for i in range(PAIRS)],
            [(".json", artifact("bbbbbbbbbbbb",
                                lambda ms, i=i: change(i, parent(i, ms))))
             for i in range(PAIRS)])


def e2e_case(ops=lambda i, v: v, p50=lambda i, v: v):
    """Ten pairs of each workload, wire_serve's first; parent i's rate is
    the fixture's / JITTER[i] and its time the fixture's x JITTER[i]."""
    parents, changes = [], []
    for workload in E2E:
        for i in range(PAIRS):
            parents.append((".out", e2e(
                workload, "aaaaaaaaaaaa", lambda v, i=i: v / JITTER[i],
                lambda v, i=i: v * JITTER[i])))
            changes.append((".out", e2e(
                workload, "bbbbbbb", lambda v, i=i: ops(i, v / JITTER[i]),
                lambda v, i=i: p50(i, v * JITTER[i]))))
    return parents, changes


def edited_at(index, text, runs):
    """Replace the text of run `index`."""
    runs = list(runs)
    runs[index] = (runs[index][0], text)
    return runs


def drop_bench(name):
    def edit(doc):
        doc["benchmarks"] = [b for b in doc["benchmarks"] if b["name"] != name]
    return edit


def case_list():
    slow_pair = lambda i, v: v * 10 if i == 3 else v  # noqa: E731
    ok_suite = suite_case(lambda i, ms: ms * 1.2)
    ok_e2e = e2e_case(lambda i, v: v / 1.2, lambda i, v: v * 1.2)
    parents, changes = ok_suite
    yield "artifacts within bounds", ok_suite, 0
    yield "e2ebench within bounds", ok_e2e, 0
    yield "artifacts, pair ratios 1.0 to 1.9", suite_case(
        lambda i, ms: ms * (1 + 0.1 * i)), 0, (
            "kalman_chain median_wall_ms 13.1896 19.3228 1.450 0.450 ok",)
    yield "artifacts, every ratio exactly 1.75", suite_case(
        lambda i, ms: 7.0, lambda i, ms: 4.0), 0, (
            "platform_step median_wall_ms 4.0000 7.0000 1.750 0.000 ok",)
    yield "e2ebench, every ratio exactly 1.75", (
        [(".out", e2e("wire_serve", "aaaaaaaaaaaa", lambda v: 7000.0,
                      lambda v: 4.0))] * PAIRS,
        [(".out", e2e("wire_serve", "bbbbbbb", lambda v: 4000.0,
                      lambda v: 7.0))] * PAIRS), 0, (
            "wire_serve ops_per_s 7000.0000 4000.0000 1.750 0.000 ok",
            "wire_serve latency_p50_ms 4.0000 7.0000 1.750 0.000 ok")
    yield "artifacts, one slow pair among ten", suite_case(slow_pair), 0
    yield "e2ebench, one slow pair among ten", e2e_case(
        lambda i, v: v / 10 if i == 3 else v, slow_pair), 0
    yield "e2ebench, twice as fast", e2e_case(
        lambda i, v: v * 2, lambda i, v: v / 2), 0
    yield "artifacts twice as slow", suite_case(lambda i, ms: ms * 2), 1
    yield "e2ebench twice as slow", e2e_case(
        lambda i, v: v / 2, lambda i, v: v * 2), 1
    yield "e2ebench ops_per_s halved", e2e_case(lambda i, v: v / 2), 1
    yield "e2ebench latency_p50_ms doubled", e2e_case(
        p50=lambda i, v: v * 2), 1
    yield "a bench only the change has", (
        [(".json", artifact("aaaaaaa", edit=drop_bench("platform_step")))]
        * PAIRS, changes), 0, ("platform_step median_wall_ms added",)
    yield "a bench only the parent has", (
        parents, [(".json", artifact(
            "bbbbbbb", edit=drop_bench("platform_step")))] * PAIRS), 0, (
                "platform_step median_wall_ms removed",)
    yield "a bench absent from one change run", (parents, edited_at(
        4, artifact("bbbbbbb", edit=drop_bench("kalman_chain")), changes)), 2
    yield "a bench absent from the first parent run", (edited_at(
        0, artifact("aaaaaaa", edit=drop_bench("kalman_chain")), parents),
        changes), 2
    yield "a missing file", (parents, edited_at(9, None, changes)), 2
    yield "a malformed artifact", (
        parents, edited_at(0, artifact("bbbbbbb")[:-40], changes)), 2
    yield "an artifact of another schema", (parents, edited_at(
        0, artifact("bbbbbbb", edit=lambda d: d.update(schema_version=2)),
        changes)), 2
    yield "a quick artifact paired with a full one", (parents, edited_at(
        2, artifact("bbbbbbb", edit=lambda d: d.update(quick=False)),
        changes)), 2
    yield "unequal parent and change counts", (parents, changes[:-1]), 2
    yield "one side empty", (parents, []), 2
    yield "the same sha on both sides", (parents, edited_at(
        5, artifact("aaaaaaa"), changes)), 2
    yield "a 12-digit sha of the parent's 7-digit one", (parents, edited_at(
        5, artifact("aaaaaaa12345"), changes)), 2
    yield "both sides unknown", (
        [(".json", artifact("unknown"))] * PAIRS,
        [(".json", artifact("unknown"))] * PAIRS), 0
    parents, changes = ok_e2e
    run = lambda **kw: e2e("state_move", "bbbbbbb", **kw)  # noqa: E731
    yield "a change run that is not correct", (
        parents, edited_at(12, run(result={"correct": False}), changes)), 2
    yield "a change run with failed operations", (
        parents, edited_at(12, run(result={"failed": 1}), changes)), 2
    yield "a result without latency_p50_ms", (parents, edited_at(
        12, run().replace('"latency_p50_ms"', '"latency_p99_ms"'),
        changes)), 2
    yield "a result that is not JSON", (
        parents, edited_at(12, run()[:-10], changes)), 2
    yield "no run_record line", (parents, edited_at(
        12, run().replace("run_record", "run record"), changes)), 2
    # A run of another workload is in another group, so there the counts
    # differ.
    for key, value in (("workload", "wire_serve"), ("seed", 2),
                       ("seconds", 20), ("trace", 1)):
        yield "a pair whose %s differs" % key, (parents, edited_at(
            12, run(record={key: value}), changes)), 2


def run_gate(parents, changes, workdir):
    paths = []
    for side, runs in (("parent", parents), ("change", changes)):
        for i, (suffix, text) in enumerate(runs):
            path = os.path.join(workdir, "%s_%02d%s" % (side, i, suffix))
            if text is not None:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
            paths.append(path)
        if side == "parent":
            paths.append("--")
    done = subprocess.run([sys.executable, GATE] + paths,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    for path in paths:
        if path != "--" and os.path.exists(path):
            os.remove(path)
    return done


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, (parents, changes), expected, *rows in case_list():
            done = run_gate(parents, changes, workdir)
            printed = [" ".join(line.split())
                       for line in done.stdout.splitlines()]
            ok = done.returncode == expected and all(
                row in printed for row in (rows[0] if rows else ()))
            print("%-4s %s: exit %d, expected %d"
                  % ("ok" if ok else "FAIL", name, done.returncode, expected))
            if not ok:
                print(done.stdout)
                failures += 1
        done = subprocess.run([sys.executable, GATE, "a.json", "b.json"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        ok = done.returncode == 2
        print("%-4s no '--' between the sides: exit %d, expected 2"
              % ("ok" if ok else "FAIL", done.returncode))
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

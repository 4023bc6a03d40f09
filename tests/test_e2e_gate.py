#!/usr/bin/env python3
"""Self-test of tools/e2e_gate.py, the CI serve-path gate.

Runs the checker on the fixture run outputs in tests/e2e_gate/ against
tests/e2e_gate/baseline.json and checks each exit code: 0 within bounds,
1 past a limit (ops_per_s below baseline / 1.75 or latency_p50_ms above
1.75 x baseline), 2 an invalid result. Needs only python3:

    python3 tests/test_e2e_gate.py
"""

import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(os.path.dirname(TESTS), "tools", "e2e_gate.py")
FIXTURES = os.path.join(TESTS, "e2e_gate")

CASES = (
    (("within_bounds.out",), 0),
    (("within_bounds.out", "state_move_within_bounds.out"), 0),
    (("slow_ops.out",), 1),
    (("slow_p50.out",), 1),
    (("within_bounds.out", "slow_p50.out"), 1),
    (("incorrect.out",), 2),
    (("failed_ops.out",), 2),
    (("missing_metric.out",), 2),
    (("other_seconds.out",), 2),
    (("absent.out",), 2),
)


def main():
    failures = 0
    for outputs, expected in CASES:
        command = [sys.executable, GATE, os.path.join(FIXTURES, "baseline.json")]
        command += [os.path.join(FIXTURES, name) for name in outputs]
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        verdict = "ok" if done.returncode == expected else "FAIL"
        print("%-4s %s: exit %d, expected %d"
              % (verdict, " ".join(outputs), done.returncode, expected))
        if done.returncode != expected:
            print(done.stdout)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

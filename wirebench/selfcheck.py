#!/usr/bin/env python3
"""Self-check of the wire benchmark, on short runs.

Run from the repository root:

    python3 wirebench/selfcheck.py

For every workload in BENCHMARK.json it makes one 1-second run with
--trace 0 and one with --trace 1 and asserts that each metric the file
names is emitted exactly once, with its unit and a finite value, and that
the run reports itself correct.  It then corrupts the reference digest of a
chain run and asserts the benchmark reports the mismatch as a failure and
exits non-zero.  Exits 0 when every assertion holds.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, extra=()):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace)]
    cmd += list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, lines, result


def check_metrics(workload, trace, expected, problems):
    code, lines, result = run(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    if code != 0 or result is None:
        problems.append("%s: exit %d" % (where, code))
        return
    if set(result) != RESULT_KEYS:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if not result["correct"] or result["failed"] != 0:
        problems.append("%s: not correct (%d failed)" %
                        (where, result["failed"]))
    if result["attempted"] < 1:
        problems.append("%s: nothing attempted" % where)
    printed = [l.split()[1] for l in lines if l.startswith("metric ")]
    got = result["metrics"]
    for m in expected:
        name = m["name"]
        if printed.count(name) != 1:
            problems.append("%s: %s printed %d times" %
                            (where, name, printed.count(name)))
        if name not in got:
            problems.append("%s: %s missing from the result" % (where, name))
            continue
        value, unit = got[name]["value"], got[name]["unit"]
        if unit != m["unit"]:
            problems.append("%s: %s unit %s, expected %s" %
                            (where, name, unit, m["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s value %r not finite" %
                            (where, name, value))
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append("%s: unexpected metrics %s" % (where, sorted(extra)))


def main():
    problems = []
    for w in SPEC["workloads"]:
        check_metrics(w["name"], 0, SPEC["end_to_end"], problems)
        check_metrics(w["name"], 1, SPEC["per_layer"], problems)
    code, _, result = run("chain", 0, ["--corrupt-reference"])
    if code == 0 or result is None or result["correct"] or \
            result["failed"] == 0:
        problems.append("corrupted reference digest not reported: exit %d, "
                        "result %r" % (code, result))
    for p in problems:
        print("FAIL " + p)
    print("selfcheck: %d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the perfbench driver.

Runs every workload in BENCHMARK.json at minimum size (--smoke), untraced
and traced, and fails if a metric the file names is missing, extra or in
another unit, if an end-to-end metric reads 0, if any run failed
(fail_ratio != 0), or if the in-process repetitions disagree on the digest.

usage (from the repository root):
    python3 perfbench/smoke_test.py [--driver PATH]

Without --driver it builds the driver the way run.py does.
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

import run

SEED = 2014


def check_output(stdout, expected, label, nonzero):
    """Return a list of problems with one driver report."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["%s: no output" % label]
    problems = []
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        return ["%s: last line is not JSON (%s)" % (label, e)]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (label, sorted(result)))
        return problems
    if result["attempted"] < 1 or result["failed"] != 0 or result["correct"] is not True:
        problems.append("%s: %d of %d runs failed (fail_ratio != 0)"
                        % (label, result["failed"], result["attempted"]))
    if not any(re.match(r"digest: [0-9a-f]+ \(identical in every unit\)$", l) for l in lines):
        problems.append("%s: repetitions gave different digests" % label)
    metrics = result["metrics"]
    for name in sorted(set(metrics) - set(expected)):
        problems.append("%s: unexpected metric %s" % (label, name))
    for name, unit in expected.items():
        got = metrics.get(name)
        if got is None:
            problems.append("%s: missing metric %s" % (label, name))
            continue
        if got.get("unit") != unit:
            problems.append("%s: %s has unit %r, expected %r" % (label, name, got.get("unit"), unit))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s has no finite value" % (label, name))
        elif nonzero and value == 0:
            problems.append("%s: %s reads 0" % (label, name))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--driver", help="driver binary (default: build it)")
    args = parser.parse_args()
    driver = args.driver or run.build()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    problems = []
    if sorted(workloads) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads %s != run.py %s" % (workloads, run.WORKLOADS))

    for workload in workloads:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            label = "%s --trace %s" % (workload, trace)
            proc = subprocess.run(
                [driver, "--workload", workload, "--seed", str(SEED), "--seconds", "0.01",
                 "--trace", trace, "--root", run.ROOT, "--smoke"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                problems.append("%s: exit code %d: %s"
                                % (label, proc.returncode, proc.stderr.strip()))
                continue
            found = check_output(proc.stdout, expected, label, nonzero=trace == "0")
            problems += found
            print("%-32s %s" % (label, "ok" if not found else "FAILED"))

    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

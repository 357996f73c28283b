#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy sizes.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it checks that
  * the untraced run prints every end-to-end metric of BENCHMARK.json, and
    the traced run every per-layer metric, each finite and with its unit;
  * the run is correct, with operations attempted and none failed, and the
    replay gate compared verdicts and found no mismatch;
and, for the two serving workloads, that a deliberately perturbed replay
score is caught: the run reports a failed operation and correct = false.
Exits non-zero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SERVE = ("serve-tranad", "wire-gdn")


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--toy", *extra]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("FAIL %s trace=%d: exit %d" % (workload, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(condition, message):
    if not condition:
        raise SystemExit("FAIL " + message)


def check_metrics(label, result, specs):
    metrics = result["metrics"]
    check(set(metrics) == {s["name"] for s in specs},
          "%s: metric names differ: missing %s, extra %s" % (
              label, sorted({s["name"] for s in specs} - set(metrics)),
              sorted(set(metrics) - {s["name"] for s in specs})))
    for spec in specs:
        got = metrics[spec["name"]]
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              "%s: %s is not finite" % (label, spec["name"]))
        check(got["unit"] == spec["unit"], "%s: %s has unit %r, expected %r" % (
            label, spec["name"], got["unit"], spec["unit"]))


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = "%s trace=%d" % (workload, trace)
            context, result = run(workload, trace)
            check_metrics(label, result, specs)
            ops = context["operations"]
            check(result["correct"] is True, label + ": correct is false")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  label + ": attempted %d failed %d" % (result["attempted"], result["failed"]))
            if workload in SERVE or trace == 1:
                check(ops["replay_checked"] > 0 and ops["replay_mismatches"] == 0,
                      label + ": replay gate %s" % ops)
            print("ok   %s: %d metrics, %d operations, replay %d/%d" % (
                label, len(result["metrics"]), result["attempted"],
                ops["replay_checked"] - ops["replay_mismatches"], ops["replay_checked"]))
        if workload in SERVE:
            context, result = run(workload, 0, "--perturb-replay")
            ops = context["operations"]
            check(result["correct"] is False and result["failed"] >= 1
                  and ops["replay_mismatches"] >= 1,
                  "%s: perturbed replay was not caught (%s)" % (workload, ops))
            print("ok   %s: perturbed replay caught (%d mismatch)" % (
                workload, ops["replay_mismatches"]))
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regression tests for the compare_bench.py gate logic.

Runs the comparer as a subprocess over synthesized baseline/current report
pairs and asserts the exit code plus the diagnostic text — in particular
the missing-hard-gate-key failure, which names the circuit and key instead
of silently passing. Stdlib only; wired into ctest and the bench-gate CI
job. Exit code: 0 all cases pass, 1 otherwise.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "compare_bench.py")

BASE_DOC = {
    "schema": "wbist.bench.procedure/1",
    "label": "test",
    "threads": 1,
    "kernel": "generic",
    "kernel_words": 4,
    "collapse": "equivalence",
    "circuits": [
        {
            "name": "s298",
            "fault_efficiency": 1.0,
            "kernel_cycles": 1000,
            "fault_cycles": 500,
            "trace_cycles": 100,
            "t_length": 120,
            "t_detected": 300,
            "uncollapsed_faults": 596,
            "uncollapsed_detected": 596,
            "uncollapsed_coverage": 1.0,
        }
    ],
}

FAILURES = 0


def run_compare(baseline, current, *extra):
    with tempfile.TemporaryDirectory() as d:
        bp = os.path.join(d, "baseline.json")
        cp = os.path.join(d, "current.json")
        with open(bp, "w", encoding="utf-8") as f:
            json.dump(baseline, f)
        with open(cp, "w", encoding="utf-8") as f:
            json.dump(current, f)
        return subprocess.run(
            [sys.executable, COMPARE, "--baseline", bp, "--current", cp,
             *extra],
            capture_output=True,
            text=True,
        )


def check(label, proc, want_rc, *want_texts):
    global FAILURES
    ok = proc.returncode == want_rc
    out = proc.stdout + proc.stderr
    for t in want_texts:
        ok = ok and t in out
    if ok:
        print(f"ok: {label}")
    else:
        print(f"FAIL: {label}: rc={proc.returncode} (want {want_rc})\n"
              f"--- output ---\n{out}", file=sys.stderr)
        FAILURES += 1


def main():
    base = copy.deepcopy(BASE_DOC)

    check("identical reports pass",
          run_compare(base, copy.deepcopy(base)), 0, "ok:")

    # The satellite fix: a hard-gated key present in the baseline but
    # absent from the current row must fail, naming circuit and key.
    for key in ("fault_efficiency", "kernel_cycles", "uncollapsed_faults",
                "uncollapsed_detected", "uncollapsed_coverage"):
        cur = copy.deepcopy(base)
        del cur["circuits"][0][key]
        check(f"missing hard-gate key {key} fails with a named diagnostic",
              run_compare(base, cur), 1, "s298", key, "missing")

    cur = copy.deepcopy(base)
    cur["circuits"] = []
    check("baseline circuit missing from current fails by name",
          run_compare(base, cur), 1, "s298: missing from current report")

    cur = copy.deepcopy(base)
    cur["circuits"][0]["fault_efficiency"] = 0.9
    check("fault_efficiency drop fails",
          run_compare(base, cur), 1, "fault_efficiency dropped")

    cur = copy.deepcopy(base)
    cur["circuits"][0]["kernel_cycles"] = 1200
    check("kernel_cycles +20% fails at default tolerance",
          run_compare(base, cur), 1, "kernel_cycles regressed")
    check("kernel_cycles +20% passes with --cycles-tolerance 0.5",
          run_compare(base, cur, "--cycles-tolerance", "0.5"), 0, "ok:")

    cur = copy.deepcopy(base)
    cur["circuits"][0]["uncollapsed_faults"] = 600
    check("uncollapsed universe change fails",
          run_compare(base, cur), 1, "fault universe changed")

    cur = copy.deepcopy(base)
    cur["circuits"][0]["t_length"] = 121
    check("warn-field drift stays advisory",
          run_compare(base, cur), 0, "warning: s298: t_length drifted")

    cur = copy.deepcopy(base)
    cur["kernel"] = "generic-w1"
    check("kernel config mismatch fails",
          run_compare(base, cur), 1, "config mismatch: kernel")

    # A new circuit only in the current report is advisory.
    cur = copy.deepcopy(base)
    cur["circuits"].append(dict(cur["circuits"][0], name="s344"))
    check("extra current-only circuit warns",
          run_compare(base, cur), 0, "s344: not in baseline")

    if FAILURES:
        print(f"{FAILURES} compare_bench test(s) failed", file=sys.stderr)
        return 1
    print("all compare_bench tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

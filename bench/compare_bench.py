#!/usr/bin/env python3
"""Bench-regression gate for wbist_bench JSON reports.

Compares a freshly generated report (schema wbist.bench.procedure/1) against
a committed baseline and fails the build when quality or simulation effort
regresses:

  * HARD FAIL  fault_efficiency drops below the baseline for any circuit
  * HARD FAIL  kernel_cycles grows by more than --cycles-tolerance
               (default 10%) for any circuit
  * HARD FAIL  the uncollapsed fault universe changes size, or
               uncollapsed_detected / uncollapsed_coverage drop below the
               baseline (collapsed-class expansion must never lose faults)
  * WARN       deterministic row metrics drift (t_length, t_detected,
               sessions, fault_list_size, fault/trace cycles) — visible in
               the log but not fatal, since procedure tuning legitimately
               moves them

Wall-clock and RSS fields are machine-dependent and always ignored.
Every host runs the same portable width-4 evaluation kernel ("generic-w4",
256 faulty machines per group), so kernel_cycles does not depend on the
host; the comparer still enforces that the recorded kernel and block width
match before comparing cycle counts.

Usage:
  compare_bench.py --baseline bench/baselines/s298.json --current out.json
  compare_bench.py --baseline ... --current ... --bless   # rewrite baseline

Exit codes: 0 ok (or blessed), 1 regression, 2 usage/schema error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

SCHEMA = "wbist.bench.procedure/1"
# Every hard-gated metric: when a baseline row carries one of these, the
# current row must too — a missing key is a FAIL naming the circuit and
# key, never a silent pass (a truncated or incompatible record would
# otherwise sail through every gate below).
HARD_FIELDS = (
    "fault_efficiency",
    "kernel_cycles",
    "uncollapsed_faults",
    "uncollapsed_detected",
    "uncollapsed_coverage",
)
WARN_FIELDS = (
    "t_length",
    "t_detected",
    "sessions",
    "subsequences",
    "fsms",
    "fault_list_size",
    "fault_cycles",
    "trace_cycles",
    "full_simulations",
    "good_machine_sims",
)


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != SCHEMA:
        sys.exit(f"error: {path}: schema {doc.get('schema')!r}, want {SCHEMA!r}")
    return doc


def rows_by_name(doc: dict, path: str) -> dict[str, dict]:
    rows = {}
    for row in doc.get("circuits", []):
        name = row.get("name")
        if not name:
            sys.exit(f"error: {path}: circuit row without a name")
        rows[name] = row
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="committed baseline JSON")
    ap.add_argument("--current", required=True, help="freshly generated JSON")
    ap.add_argument(
        "--cycles-tolerance",
        type=float,
        default=0.10,
        help="allowed fractional kernel_cycles growth (default 0.10)",
    )
    ap.add_argument(
        "--bless",
        action="store_true",
        help="overwrite the baseline with the current report and exit 0",
    )
    args = ap.parse_args()

    current = load(args.current)
    if args.bless:
        shutil.copyfile(args.current, args.baseline)
        print(f"blessed: {args.current} -> {args.baseline}")
        return 0

    baseline = load(args.baseline)
    failures: list[str] = []
    warnings: list[str] = []

    for key in ("kernel", "kernel_words", "collapse", "threads"):
        if baseline.get(key) != current.get(key):
            failures.append(
                f"config mismatch: {key} baseline={baseline.get(key)!r} "
                f"current={current.get(key)!r} (run the bench with the same "
                f"--collapse / --threads setup)"
            )

    base_rows = rows_by_name(baseline, args.baseline)
    cur_rows = rows_by_name(current, args.current)
    for name in sorted(base_rows):
        if name not in cur_rows:
            failures.append(f"{name}: missing from current report")
    for name in sorted(cur_rows):
        if name not in base_rows:
            warnings.append(f"{name}: not in baseline (new circuit?)")

    for name in sorted(set(base_rows) & set(cur_rows)):
        b, c = base_rows[name], cur_rows[name]

        for key in HARD_FIELDS:
            if key in b and key not in c:
                failures.append(
                    f"{name}: hard-gated key '{key}' is in the baseline but "
                    f"missing from the current report (truncated or "
                    f"incompatible record?)"
                )

        b_fe, c_fe = b.get("fault_efficiency"), c.get("fault_efficiency")
        if b_fe is not None and c_fe is not None and c_fe < b_fe - 1e-9:
            failures.append(
                f"{name}: fault_efficiency dropped {b_fe:.6f} -> {c_fe:.6f}"
            )

        b_kc, c_kc = b.get("kernel_cycles"), c.get("kernel_cycles")
        if b_kc and c_kc is not None:
            growth = (c_kc - b_kc) / b_kc
            if growth > args.cycles_tolerance:
                failures.append(
                    f"{name}: kernel_cycles regressed {b_kc} -> {c_kc} "
                    f"(+{growth:.1%}, tolerance {args.cycles_tolerance:.0%})"
                )

        b_uf, c_uf = b.get("uncollapsed_faults"), c.get("uncollapsed_faults")
        if b_uf is not None and c_uf is not None and b_uf != c_uf:
            failures.append(
                f"{name}: uncollapsed fault universe changed "
                f"{b_uf} -> {c_uf} (fault enumeration / collapsing bug?)"
            )

        b_ud, c_ud = b.get("uncollapsed_detected"), c.get("uncollapsed_detected")
        if b_ud is not None and c_ud is not None:
            if c_ud < b_ud:
                failures.append(
                    f"{name}: uncollapsed_detected dropped {b_ud} -> {c_ud}"
                )
            elif c_ud > b_ud:
                warnings.append(
                    f"{name}: uncollapsed_detected drifted {b_ud} -> {c_ud}"
                )

        b_cov = b.get("uncollapsed_coverage")
        c_cov = c.get("uncollapsed_coverage")
        if b_cov is not None and c_cov is not None and c_cov < b_cov - 1e-9:
            failures.append(
                f"{name}: uncollapsed_coverage dropped "
                f"{b_cov:.6f} -> {c_cov:.6f}"
            )

        for field in WARN_FIELDS:
            if field in b and field in c and b[field] != c[field]:
                warnings.append(
                    f"{name}: {field} drifted {b[field]} -> {c[field]}"
                )

    for w in warnings:
        print(f"warning: {w}")
    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        print(
            f"{len(failures)} regression(s) vs {args.baseline}; if intended, "
            f"re-bless with: compare_bench.py --baseline {args.baseline} "
            f"--current {args.current} --bless"
        )
        return 1
    print(
        f"ok: {args.current} vs {args.baseline} "
        f"({len(warnings)} warning(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

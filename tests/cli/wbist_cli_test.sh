#!/bin/sh
# Integration test for the `wbist` CLI exit-code contract:
#   0 = success, 1 = runtime failure (bad circuit, unwritable path, ...),
#   2 = usage error (unknown command, missing argument, unknown flag).
# Run by ctest as: wbist_cli_test.sh <path-to-wbist-binary> [<wbist_bench>]
set -u

WBIST=${1:?usage: wbist_cli_test.sh <wbist-binary> [<wbist_bench-binary>]}
WBIST_BENCH=${2:-}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
FAILURES=0

# expect <wanted-exit-code> <label> <arg...>
expect() {
  wanted=$1; label=$2; shift 2
  "$WBIST" "$@" > "$WORK/out.txt" 2> "$WORK/err.txt"
  got=$?
  if [ "$got" -ne "$wanted" ]; then
    echo "FAIL: $label: exit $got, wanted $wanted (wbist $*)" >&2
    sed 's/^/  stderr: /' "$WORK/err.txt" >&2
    FAILURES=$((FAILURES + 1))
  fi
}

# Usage errors -> exit 2.
expect 2 "no arguments"
expect 2 "unknown command" frobnicate
expect 2 "info without circuit" info
expect 2 "tgen without circuit" tgen

# Leftover flags and extra operands on the positional commands are usage
# errors: nothing is written (no file named after the flag, no default
# output) and the typo is never silently ignored.
mkdir -p "$WORK/cwd"
# expect_nothing_written <label> <arg...>: exit 2 and an empty cwd.
expect_nothing_written() {
  label=$1; shift
  (cd "$WORK/cwd" && "$WBIST" "$@" > /dev/null 2> "$WORK/err.txt")
  got=$?
  if [ "$got" -ne 2 ] || [ -n "$(ls -A "$WORK/cwd")" ]; then
    echo "FAIL: $label: exit $got (wanted 2), cwd holds:" \
      "$(ls -A "$WORK/cwd") (wbist $*)" >&2
    FAILURES=$((FAILURES + 1))
    rm -rf "$WORK/cwd" && mkdir -p "$WORK/cwd"
  fi
}
expect_nothing_written "emit with unknown flag" emit s27 --nosuch generic
expect_nothing_written "emit with removed --kernel" emit s27 --kernel generic
expect_nothing_written "emit with extra operand" emit s27 a.bench b.bench
expect_nothing_written "tgen with unknown flag" tgen s27 --nosuch
expect_nothing_written "synth with unknown flag" synth s27 --nosuch x
expect_nothing_written "flow with misspelt flag" flow s27 --seeed 3
expect_nothing_written "flow with removed --kernel" flow s27 --kernel generic
expect_nothing_written "flow with extra operand" flow s27 s298
expect_nothing_written "info with extra operand" info s27 extra
expect_nothing_written "obs with unknown flag" obs s27 --nosuch
expect_nothing_written "fsim with unknown flag" fsim s27 --nosuch
expect_nothing_written "fsim with extra operand" fsim s27 a.seq b.seq
expect_nothing_written "list with unknown flag" list --nosuch
expect_nothing_written "unknown flag with artifact flags" \
  flow s27 --nosuch --metrics-json m.json --trace-json t.json \
  --provenance-jsonl p.jsonl
if [ -n "$WBIST_BENCH" ]; then
  "$WBIST_BENCH" --kernel auto --circuits s27 --out "$WORK/cwd/b.json" \
    > /dev/null 2>&1
  got=$?
  if [ "$got" -ne 2 ] || [ -e "$WORK/cwd/b.json" ]; then
    echo "FAIL: wbist_bench --kernel auto: exit $got, wanted 2" >&2
    FAILURES=$((FAILURES + 1))
  fi
  # --threads takes a non-negative count: text, a sign or trailing text is a
  # usage error, never read as 0 (= all cores) or wrapped to a huge count.
  for bad in abc -1 4x ""; do
    "$WBIST_BENCH" --threads "$bad" --circuits s27 \
      --out "$WORK/cwd/b.json" > /dev/null 2> "$WORK/err.txt"
    got=$?
    if [ "$got" -ne 2 ] || [ -e "$WORK/cwd/b.json" ] ||
       ! grep -q '^usage: wbist_bench' "$WORK/err.txt"; then
      echo "FAIL: wbist_bench --threads '$bad': exit $got, wanted 2 + usage" >&2
      FAILURES=$((FAILURES + 1))
    fi
  done
fi

# Runtime failures -> exit 1.
expect 1 "unknown circuit name" info no-such-circuit
expect 1 "missing bench path" info "$WORK/does-not-exist.bench"
expect 1 "unwritable output path" emit s27 /nonexistent-dir/out.bench
printf 'INPUT(a)\nb = FOO(a)\n' > "$WORK/bad.bench"
expect 1 "malformed bench file" info "$WORK/bad.bench"

# Every subcommand succeeds on a registry circuit -> exit 0.
expect 0 "list" list
expect 0 "info" info s27
expect 0 "emit" emit s27 "$WORK/s27.bench"
expect 0 "tgen" tgen s27 "$WORK/s27.seq"
expect 0 "flow" flow s27
expect 0 "fsim" fsim s27 "$WORK/s27.seq"
expect 0 "synth" synth s27 "$WORK/s27_gen.bench"
expect 0 "obs" obs s27
expect 2 "fsim without sequence" fsim s27
expect 1 "fsim with missing sequence file" fsim s27 "$WORK/absent.seq"

# Emitted artifacts exist, are non-empty, and the netlists re-parse.
for f in s27.bench s27.seq s27_gen.bench; do
  if [ ! -s "$WORK/$f" ]; then
    echo "FAIL: emitted $f is missing or empty" >&2
    FAILURES=$((FAILURES + 1))
  fi
done
expect 0 "emitted netlist re-parses" info "$WORK/s27.bench"
expect 0 "generator netlist re-parses" info "$WORK/s27_gen.bench"

# A .bench path is accepted anywhere a registry name is.
expect 0 "flow on a bench path" flow "$WORK/s27.bench"

# Observability flags: position-independent, both --flag path and --flag=path
# forms, missing value is a usage error.
expect 2 "trace flag without value" flow s27 --trace-json
expect 2 "provenance flag without value" flow s27 --provenance-jsonl
expect 2 "empty trace path" flow s27 --trace-json=
expect 0 "trace flag after args" flow s27 --trace-json "$WORK/t1.json"
expect 0 "trace flag before subcommand" --trace-json "$WORK/t2.json" flow s27
expect 0 "trace equals form" flow s27 --trace-json="$WORK/t3.json"
expect 0 "provenance flag" flow s27 --provenance-jsonl "$WORK/p1.jsonl"
for f in t1.json t2.json t3.json p1.jsonl; do
  if [ ! -s "$WORK/$f" ]; then
    echo "FAIL: observability artifact $f is missing or empty" >&2
    FAILURES=$((FAILURES + 1))
  fi
done
if ! head -1 "$WORK/p1.jsonl" | grep -q '"event":"header"'; then
  echo "FAIL: provenance file does not start with a header record" >&2
  FAILURES=$((FAILURES + 1))
fi
if ! grep -q '"schema": "wbist.trace/1"' "$WORK/t1.json"; then
  echo "FAIL: trace file missing schema marker" >&2
  FAILURES=$((FAILURES + 1))
fi

# tgen --vcd writes a good-machine waveform; WBIST_OUT_DIR redirects it.
expect 0 "tgen with vcd" tgen s27 "$WORK/s27b.seq" --vcd "$WORK/s27.vcd"
if ! head -c 512 "$WORK/s27.vcd" | grep -q '\$enddefinitions'; then
  echo "FAIL: tgen --vcd did not write a VCD header" >&2
  FAILURES=$((FAILURES + 1))
fi
mkdir -p "$WORK/outdir"
WBIST_OUT_DIR="$WORK/outdir" "$WBIST" tgen s27 "$WORK/s27c.seq" \
  --vcd rel.vcd > "$WORK/out.txt" 2> "$WORK/err.txt"
if [ $? -ne 0 ] || [ ! -s "$WORK/outdir/rel.vcd" ]; then
  echo "FAIL: WBIST_OUT_DIR did not redirect the --vcd artifact" >&2
  FAILURES=$((FAILURES + 1))
fi

# WBIST_OUT_DIR applies to every artifact flag, not just --vcd.
WBIST_OUT_DIR="$WORK/outdir" "$WBIST" flow s27 \
  --metrics-json rel-metrics.json --trace-json rel-trace.json \
  --provenance-jsonl rel-prov.jsonl > "$WORK/out.txt" 2> "$WORK/err.txt"
if [ $? -ne 0 ]; then
  echo "FAIL: flow with WBIST_OUT_DIR observability flags failed" >&2
  FAILURES=$((FAILURES + 1))
fi
for f in rel-metrics.json rel-trace.json rel-prov.jsonl; do
  if [ ! -s "$WORK/outdir/$f" ]; then
    echo "FAIL: WBIST_OUT_DIR did not redirect $f" >&2
    FAILURES=$((FAILURES + 1))
  fi
done
# Absolute paths bypass WBIST_OUT_DIR resolution unchanged.
WBIST_OUT_DIR="$WORK/outdir" "$WBIST" info s27 \
  --metrics-json "$WORK/abs-metrics.json" > "$WORK/out.txt" 2> "$WORK/err.txt"
if [ $? -ne 0 ] || [ ! -s "$WORK/abs-metrics.json" ]; then
  echo "FAIL: absolute --metrics-json path was not honoured" >&2
  FAILURES=$((FAILURES + 1))
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES CLI check(s) failed" >&2
  exit 1
fi
echo "all CLI exit-code checks passed"

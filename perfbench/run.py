#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload flow|fsim|campaign|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the wbist libraries, the wbist CLI
and the perfbench program from the checkout's sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and relays its report. The last line of stdout is the JSON
result; its metric set is checked against BENCHMARK.json. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("flow", "fsim", "campaign", "serve")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_id(root):
    """Content hash of everything the benchmark compiles, plus the git
    commit when the checkout is a git work tree."""
    h = hashlib.sha256()
    files = [p for d in ("src", "perfbench") for p in (root / d).rglob("*")
             if p.is_file()]
    files.append(root / "tools" / "wbist_cli.cpp")
    for p in sorted(files):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    sid = "tree:" + h.hexdigest()[:16]
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
            sid += " git:" + commit
        except (OSError, subprocess.CalledProcessError):
            pass
    return sid


def build(root, build_dir):
    """Configure once, then let the build tool decide what is stale."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def check_result(line, bench, traced):
    """The result line must carry exactly the metrics BENCHMARK.json names
    for this mode, with their units."""
    res = json.loads(line)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(res)} are not the contract's")
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in set(want) & set(got) if want[k] != got[k])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file() or \
            not (root / "tools" / "wbist_cli.cpp").is_file():
        fail(f"no wbist sources under {root}; run from a full checkout")
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    build(root, build_dir)

    work = build_dir / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Relative paths keep the daemon's unix-socket path short wherever the
    # checkout lives.
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--wbist", str(build_dir / "wbist"),
           "--work-dir", os.path.relpath(work, root),
           "--source-id", source_id(root)]
    # Own process group, so that the daemon and campaign workers die with it.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"workload {args.workload} ran over {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"perfbench exited with {proc.returncode} and no result")
    check_result(lines[-1], bench, args.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

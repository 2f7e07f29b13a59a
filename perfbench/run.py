#!/usr/bin/env python3
"""Flow benchmark entry point: builds the harness from source, then runs it.

    python3 perfbench/run.py --workload small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds a
Release copy of the library and the harness under .bench_build/ (or
$CARGO_TARGET_DIR); later runs only rebuild what changed. Build output goes
to stderr; the harness's report goes to stdout and ends with one JSON line.
Workloads and metrics are described in perfbench/METRICS.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build() -> Path:
    """Configures and builds the harness; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "-j", jobs,
                 "--target", "ppdl_perfbench"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "ppdl_perfbench"


def source_revision() -> str:
    """The git commit, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_revision()]
    if args.trace:
        traces = build_dir().parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

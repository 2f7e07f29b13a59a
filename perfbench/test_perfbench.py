#!/usr/bin/env python3
"""Self-test of the flow benchmark, on the workloads' inputs at reduced scale.

    python3 perfbench/test_perfbench.py

Checks that:
  * the quality metrics (dl_signoff_pass_pct, dl_ir_err_pct, width_err_pct,
    specs_ok_pct, i.e. 100 - failed_pct) and nn.fit_epochs repeat exactly
    across two runs of one seed, and between 1 and 2 threads (small at
    --threads 2; large against large-2t, which share their inputs);
  * an untraced run reports exactly the end_to_end metrics of
    BENCHMARK.json and a traced run exactly its per_layer metrics;
  * in the traced run's breakdowns the layer times plus the unattributed
    remainder add up to the span of each end-to-end operation.
Exits 1 on the first failed check.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py: builds the harness)

QUALITY = ("dl_signoff_pass_pct", "dl_ir_err_pct", "width_err_pct",
           "specs_ok_pct")
REDUCED = ["--scale", "0.01", "--specs", "3", "--setups", "1",
           "--seconds", "0", "--seed", "7"]


def harness(binary, workload, *extra):
    done = subprocess.run([str(binary), "--workload", workload, *REDUCED,
                           *extra], capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"FAIL: {workload} {extra} exited {done.returncode}:\n"
                 + done.stdout + done.stderr)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL: {workload} {extra} reported a failed check:\n"
                 + done.stdout)
    return result, done.stdout


def quality(workload, result, stdout):
    epochs = re.search(r"fit_epochs=(\d+)", stdout)
    values = {k: result["metrics"][k]["value"] for k in QUALITY}
    values["nn.fit_epochs"] = int(epochs.group(1))
    print(f"  {workload}: {values}")
    return values


def expect_equal(what, a, b):
    if a != b:
        sys.exit(f"FAIL: {what} differ:\n  {a}\n  {b}")
    print(f"ok   {what}")


def check_breakdowns(stdout):
    blocks = re.findall(r"breakdown (\S+): span (\S+) ms.*?\n((?:  .*\n)+)",
                        stdout)
    if len(blocks) != 3:
        sys.exit(f"FAIL: expected 3 breakdowns, found {len(blocks)}")
    for op, span, body in blocks:
        parts = [float(m) for m in re.findall(r" (-?[\d.e+-]+) ms\n", body)]
        total = sum(parts)
        if abs(total - float(span)) > 1e-6 * max(1.0, float(span)):
            sys.exit(f"FAIL: {op} parts sum to {total}, span is {span}")
        print(f"ok   breakdown {op}: {len(parts) - 1} layers + remainder "
              f"= span {span} ms")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    binary = run.build()

    seen = {}
    for workload in ("small", "large", "large-2t"):
        first = quality(workload, *harness(binary, workload))
        second = quality(workload, *harness(binary, workload))
        expect_equal(f"{workload} quality across two runs", first, second)
        seen[workload] = first
    small_2t = quality("small --threads 2",
                       *harness(binary, "small", "--threads", "2"))
    expect_equal("small quality at 1 and 2 threads", seen["small"], small_2t)
    expect_equal("large and large-2t quality", seen["large"],
                 seen["large-2t"])

    result, _ = harness(binary, "small")
    expect_equal("untraced metric names", set(result["metrics"]), end_to_end)
    result, stdout = harness(binary, "small", "--trace", "1")
    expect_equal("traced metric names", set(result["metrics"]), per_layer)
    check_breakdowns(stdout)
    print("all checks passed")


if __name__ == "__main__":
    main()

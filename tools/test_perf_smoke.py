#!/usr/bin/env python3
"""Unit tests for tools/perf_smoke.py (stdlib unittest, no dependencies).

Every case writes synthetic bench JSON into a temporary directory and runs
the gate's CLI entry point on it. Run via `ctest -L lint` or directly:

    python3 tools/test_perf_smoke.py -v
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_smoke  # noqa: E402


def row(name: str, threads: int, wall_ms: float, size: int = 5300) -> dict:
    return {"name": name, "wall_ms": wall_ms, "threads": threads, "size": size}


def ic0_sweep(one_ms: float, eight_ms: float) -> list:
    return [
        row("cg_solve_ic0", 1, one_ms),
        row("cg_solve_ic0", 2, one_ms),
        row("cg_solve_ic0", 8, eight_ms),
    ]


class PerfSmokeTests(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name: str, records: list) -> str:
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(records, f)
        return path

    def run_gate(self, *argv: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = perf_smoke.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def test_scaling_gate_fails_when_eight_threads_lose_to_one(self):
        current = self.write("cur.json", ic0_sweep(4.0, 4.0 * 1.2))
        code, _, err = self.run_gate(current, "--require-scaling")
        self.assertEqual(code, 1)
        self.assertIn("scaling: cg_solve_ic0 at 8 threads", err)

    def test_scaling_gate_passes_within_ratio(self):
        current = self.write("cur.json", ic0_sweep(4.0, 4.0 * 1.05))
        code, out, _ = self.run_gate(current, "--require-scaling")
        self.assertEqual(code, 0)
        self.assertIn("scaling families checked=1", out)

    def test_scaling_gate_skips_family_below_min_ms(self):
        # 8 threads are 3x slower, but the 1-thread row sits under the
        # noise floor, so the family is reported as skipped, not failed.
        current = self.write("cur.json", ic0_sweep(0.3, 0.9))
        code, out, _ = self.run_gate(
            current, "--require-scaling", "--min-ms", "0.5"
        )
        self.assertEqual(code, 0)
        self.assertIn("cg_solve_ic0 skipped", out)
        self.assertIn("scaling families checked=0", out)

    def test_regression_gate_reports_row_missing_from_current(self):
        baseline = self.write(
            "base.json", ic0_sweep(4.0, 4.0) + [row("spmv", 1, 1.0)]
        )
        current = self.write("cur.json", ic0_sweep(4.0, 4.0))
        code, _, err = self.run_gate(current, "--baseline", baseline)
        self.assertEqual(code, 1)
        self.assertIn("regression: row ('spmv', size 5300) missing", err)

    def test_planner_speedup_gate(self):
        records = [
            row("planner_full", 1, 100.0, size=800),
            row("planner_incremental", 1, 80.0, size=800),
            row("planner_full", 1, 300.0, size=5300),
            row("planner_incremental", 1, 100.0, size=5300),
        ]
        planner = self.write("planner.json", records)
        # 3x at the largest size passes a 2x bar and fails a 4x bar; the
        # smaller size's 1.25x does not count.
        code, out, _ = self.run_gate(planner, "--planner-min-speedup", "2.0")
        self.assertEqual(code, 0)
        self.assertIn("incremental speedup 3.00x at size 5300", out)
        code, _, err = self.run_gate(planner, "--planner-min-speedup", "4.0")
        self.assertEqual(code, 1)
        self.assertIn("below required 4.00x", err)


if __name__ == "__main__":
    unittest.main()

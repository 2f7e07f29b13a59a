#!/usr/bin/env python3
"""Validate a bench_micro_solvers or bench_planner JSON file.

Two layers of checking:

1. Structural: every record matches the matching schema under schemas/
   (stdlib-only subset validation, same approach as validate_run_report.py
   -- type, required, additionalProperties, minimum).
2. Semantic, per bench flavor (auto-detected from the row families, or
   forced with --mode):
   * solvers: each row family carries a complete, duplicate-free thread
     sweep over an identical thread set; every record reports the same
     problem size; and the `cg_solve_<kind>` family covers every
     preconditioner kind the solver exposes.
   * planner: both loop modes (planner_full, planner_incremental) are
     present, cover the identical set of grid sizes (several sizes are
     expected -- the largest is the perf-gate's medium grid), carry no
     duplicate rows, and are single-threaded.

Usage:
    tools/validate_bench_json.py BENCH_solvers.json [--schema SCHEMA.json]
    tools/validate_bench_json.py BENCH_planner.json [--mode planner]

Exit code 0 when valid; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "schemas"
SCHEMA_PATH = SCHEMA_DIR / "bench_solvers.schema.json"
PLANNER_SCHEMA_PATH = SCHEMA_DIR / "bench_planner.schema.json"

PLANNER_FAMILIES = ("planner_full", "planner_incremental")

# Must mirror linalg::PreconditionerKind / to_string(): the sweep emits one
# cg_solve_<kind> row family per kind, so a kind added to the solver without
# a bench row fails here.
PRECONDITIONER_KINDS = ("none", "jacobi", "ic0")

REQUIRED_FAMILIES = ("spmv", "dot") + tuple(
    f"cg_solve_{kind}" for kind in PRECONDITIONER_KINDS
)

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
}


def validate(value, schema: dict, path: str, errors: list) -> None:
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append(
                f"{path}: expected type {'/'.join(types)}, "
                f"got {type(value).__name__}"
            )
            return

    if "minimum" in schema and isinstance(value, (int, float)):
        if not isinstance(value, bool) and value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")

    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key '{key}'")
        additional = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                validate(item, props[key], f"{path}.{key}", errors)
            elif additional is False:
                errors.append(f"{path}: unexpected key '{key}'")

    if isinstance(value, list) and isinstance(schema.get("items"), dict):
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors)


def detect_mode(records: list) -> str:
    """planner when any well-formed row belongs to a planner_* family."""
    for rec in records:
        if isinstance(rec, dict) and str(rec.get("name", "")).startswith(
            "planner_"
        ):
            return "planner"
    return "solvers"


def planner_semantic_checks(records: list, errors: list) -> None:
    sizes_by_family: dict = {}
    seen_rows = set()
    for rec in records:
        if not isinstance(rec, dict) or not {"name", "threads", "size"} <= set(
            rec
        ):
            continue  # already reported structurally
        row = (rec["name"], rec["threads"], rec["size"])
        if row in seen_rows:
            errors.append(f"$: duplicate row {row}")
        seen_rows.add(row)
        sizes_by_family.setdefault(rec["name"], set()).add(rec["size"])
        if rec["threads"] != 1:
            errors.append(
                f"$: planner rows are single-threaded, got threads="
                f"{rec['threads']} in family '{rec['name']}'"
            )

    for family in PLANNER_FAMILIES:
        if family not in sizes_by_family:
            errors.append(f"$: missing row family '{family}'")
    unknown = set(sizes_by_family) - set(PLANNER_FAMILIES)
    for family in sorted(unknown):
        errors.append(f"$: unknown planner row family '{family}'")

    covered = {
        tuple(sorted(sizes))
        for family, sizes in sizes_by_family.items()
        if family in PLANNER_FAMILIES
    }
    if len(covered) > 1:
        errors.append(
            f"$: planner families disagree on the size sweep: "
            f"{sorted(covered)}"
        )


def semantic_checks(records: list, errors: list) -> None:
    families: dict = {}
    sizes = set()
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not {"name", "threads", "size"} <= set(
            rec
        ):
            continue  # already reported structurally
        families.setdefault(rec["name"], []).append(rec["threads"])
        sizes.add(rec["size"])

    if len(sizes) > 1:
        errors.append(f"$: records mix problem sizes {sorted(sizes)}")

    for family in REQUIRED_FAMILIES:
        if family not in families:
            errors.append(f"$: missing row family '{family}'")

    thread_sets = {name: sorted(threads) for name, threads in families.items()}
    for name, threads in thread_sets.items():
        if len(set(threads)) != len(threads):
            errors.append(f"$: family '{name}' has duplicate thread rows")
    distinct = {tuple(t) for t in thread_sets.values()}
    if len(distinct) > 1:
        errors.append(
            f"$: families disagree on the thread sweep: "
            f"{sorted(distinct)}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_json", type=pathlib.Path)
    parser.add_argument("--schema", type=pathlib.Path, default=None)
    parser.add_argument(
        "--mode",
        choices=("auto", "solvers", "planner"),
        default="auto",
        help="bench flavor; auto sniffs planner_* row families",
    )
    args = parser.parse_args()

    try:
        records = json.loads(args.bench_json.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot parse {args.bench_json}: {e}", file=sys.stderr)
        return 1

    mode = args.mode
    if mode == "auto":
        mode = detect_mode(records) if isinstance(records, list) else "solvers"
    schema_path = args.schema or (
        PLANNER_SCHEMA_PATH if mode == "planner" else SCHEMA_PATH
    )
    schema = json.loads(schema_path.read_text())

    errors: list = []
    validate(records, schema, "$", errors)
    if isinstance(records, list):
        if mode == "planner":
            planner_semantic_checks(records, errors)
        else:
            semantic_checks(records, errors)
    if errors:
        for line in errors:
            print(f"INVALID {line}", file=sys.stderr)
        return 1

    names = sorted({r["name"] for r in records})
    threads = sorted({r["threads"] for r in records})
    sizes = sorted({r["size"] for r in records})
    print(
        f"OK {args.bench_json} ({mode}): families={len(names)} "
        f"threads={threads} sizes={sizes}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Enforce line-coverage floors on the gated packages.

Reads a Cobertura-style ``coverage.xml`` (as written by ``pytest
--cov=repro --cov-report=xml``) and fails when the aggregate line
coverage of the files under a gated prefix drops below its floor.

The core engines are the trust anchors of the repo — every benchmark
gate and every model result flows through them — and the serving and
cluster subsystems are the request-facing layers on top, so all three
are gated in CI while the rest of the tree is only reported.

Usage:
    python tools/check_core_coverage.py coverage.xml            # registered gates
    python tools/check_core_coverage.py coverage.xml --prefix repro/core/ --floor 85
    python tools/check_core_coverage.py coverage.xml \
        --gate repro/core/=85 --gate repro/serving/=85 --gate repro/cluster/=85
"""

from __future__ import annotations

import argparse
import sys
import xml.etree.ElementTree as ET

#: The gated packages and their floors; running the tool with no
#: --gate/--prefix arguments enforces exactly these (what CI does).
REGISTERED_GATES: list[tuple[str, float]] = [
    ("repro/core/", 85.0),
    ("repro/serving/", 85.0),
    ("repro/cluster/", 85.0),
    # The shared cache tier holds fleet-wide KV custody (refcounts and
    # per-replica holder counts); a miscount silently corrupts every
    # replica, so its file is gated tighter than its package.
    ("repro/cluster/store", 90.0),
    # The session cache holds the KV custody ledger of every replica
    # (pool charges, swap, migration and prefix-fork page counts) and
    # the K/V rows attention reads; a miscount or a stale row silently
    # corrupts decode, so its file is gated tighter than its package.
    ("repro/serving/cache", 90.0),
    # The hot-path module holds the per-stage profile behind
    # ``repro bench hotpath`` and ``best_of``, the one timer of every
    # wall-clock floor; an untested branch there misreports a stage or
    # a floor, so its file is gated tighter than its package.
    ("repro/core/hotpath", 90.0),
    # The tracing/telemetry substrate promises byte-determinism and a
    # zero-cost disabled path; an untested branch is a silent
    # determinism or overhead regression, so the package gates at 90.
    ("repro/obs/", 90.0),
    # The scenario catalogue builds and drives every ``repro bench``
    # run and the demo behind ``repro trace``/``top``/``metrics``.
    ("repro/workloads/scenarios", 85.0),
]


def core_line_coverage(xml_path: str, prefix: str) -> tuple[int, int, dict]:
    """(covered, total, per-file) line counts for files under ``prefix``."""
    tree = ET.parse(xml_path)
    per_file: dict[str, tuple[int, int]] = {}
    for cls in tree.iter("class"):
        filename = (cls.get("filename") or "").replace("\\", "/")
        if prefix not in filename:
            continue
        covered = total = 0
        for line in cls.iter("line"):
            total += 1
            if int(line.get("hits", "0")) > 0:
                covered += 1
        if total:
            old_covered, old_total = per_file.get(filename, (0, 0))
            per_file[filename] = (old_covered + covered, old_total + total)
    covered = sum(c for c, _ in per_file.values())
    total = sum(t for _, t in per_file.values())
    return covered, total, per_file


def check_gate(xml_path: str, prefix: str, floor: float) -> int:
    """Print and gate one prefix; 0 ok, 1 below floor, 2 no files."""
    covered, total, per_file = core_line_coverage(xml_path, prefix)
    if total == 0:
        print(f"error: no files matching {prefix!r} in {xml_path}")
        return 2

    for filename in sorted(per_file):
        file_covered, file_total = per_file[filename]
        pct = 100.0 * file_covered / file_total
        print(f"  {filename:40s} {file_covered:4d}/{file_total:4d}  {pct:5.1f}%")
    pct = 100.0 * covered / total
    print(f"{prefix} line coverage: {covered}/{total} = {pct:.1f}% "
          f"(floor {floor:.1f}%)")
    if pct < floor:
        print(f"FAIL: {prefix} coverage below the floor")
        return 1
    print("OK")
    return 0


def parse_gate(spec: str) -> tuple[str, float]:
    """``prefix=floor`` -> (prefix, floor)."""
    prefix, sep, floor = spec.partition("=")
    if not sep or not prefix:
        raise argparse.ArgumentTypeError(
            f"gate must look like 'repro/serving/=85', got {spec!r}"
        )
    return prefix, float(floor)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="path to coverage.xml")
    parser.add_argument(
        "--prefix",
        default=None,
        help="path fragment selecting the gated files (with --floor, "
        "overrides the registered gates)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=None,
        help="minimum aggregate line coverage percent (default: 85)",
    )
    parser.add_argument(
        "--gate",
        action="append",
        type=parse_gate,
        metavar="PREFIX=FLOOR",
        help="gate multiple packages (repeatable, e.g. --gate repro/core/=85 "
        "--gate repro/serving/=85); overrides --prefix/--floor",
    )
    args = parser.parse_args(argv)

    if args.gate:
        gates = args.gate
    elif args.prefix is not None or args.floor is not None:
        gates = [
            (
                args.prefix if args.prefix is not None else "repro/core/",
                args.floor if args.floor is not None else 85.0,
            )
        ]
    else:
        gates = REGISTERED_GATES
    worst = 0
    for prefix, floor in gates:
        worst = max(worst, check_gate(args.report, prefix, floor))
    return worst


if __name__ == "__main__":
    sys.exit(main())

"""Command line shared by the CI gate scripts (``bench_*.py --report-only``).

Each gate script ends with ``main(run, __doc__, "<its floors>")``: every
``run`` takes ``enforce_floors`` and ``out_path``, and ``--out`` defaults
to the script's own ``out_path`` default.
"""

import argparse
import inspect


def main(run, doc: str, floors: str) -> None:
    """Parse ``--report-only``/``--out`` and call ``run`` with them."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--report-only",
        action="store_true",
        help=f"relax {floors}; every bit-equality and ordering gate still applies",
    )
    parser.add_argument(
        "--out",
        default=inspect.signature(run).parameters["out_path"].default,
        help="JSON artifact path",
    )
    cli = parser.parse_args()
    run(enforce_floors=not cli.report_only, out_path=cli.out)

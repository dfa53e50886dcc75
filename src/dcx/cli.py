"""Command-line surface. Each subcommand but `compare` fills the
`dcx.cases` record of its name from its arguments, and `main` runs it to
one ComplexityReport, emitted as text, JSON, or CSV. `compare`, `--help`
and usage errors load neither `dcx.cases` nor a domain module.
Exit code 0 on success, 1 on measure errors, 2 on usage errors.

dcx calls no BLAS routine, so `main` starts numpy with one OpenBLAS
thread instead of a pool whose idle worker spins for CPU time. An
`OPENBLAS_NUM_THREADS` already in the environment is kept.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .errors import DcxError, FormatError, read_text
# log10_product and normalized_entropy are no longer called here, but stay
# importable from this module: the benchmark's traced run
# (perfbench/spans.py) wraps them under these names.
from .measures import log10_product, normalized_entropy  # noqa: F401
from .report import ComplexityReport, compare, csv_field, from_json, to_csv, to_json, to_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcx",
        description=(
            "Estimate domain complexity along dimensionality, sparsity, "
            "and diversity measures."
        ),
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default text)",
    )
    parser.add_argument("--out", type=Path, help="write output to a file")
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    game = sub.add_parser("game", help="grid-game combinatorial complexity")
    game.add_argument("preset", choices=("ttt", "qubic", "custom"))
    game.add_argument("--side", type=int, help="cells per edge (custom)")
    game.add_argument("--dims", type=int, help="board dimensions (custom)")
    game.add_argument("--plies", type=int, help="maximum plies (custom)")
    game.add_argument("--win", type=int, help="winning line length (custom)")
    game.add_argument(
        "--avg-length", type=int, default=None,
        help="average game length for the factorial tree count",
    )
    game.add_argument(
        "--no-enumerate", dest="enumerate", action="store_false",
        help="skip breadth-first enumeration even on small boards",
    )

    desc = sub.add_parser("descriptor", help="descriptor-file complexity")
    desc.add_argument("source", help="descriptor JSON file or bundled name")
    desc.add_argument(
        "--breakdown",
        help="information-breakdown JSON file or bundled name",
    )

    cart = sub.add_parser("cartpole", help="cart-pole simulator measures")
    cart.add_argument("--variant", choices=("2d", "2dg", "3d"), default="2d")
    cart.add_argument(
        "--measure", choices=("table", "limit", "sparsity", "entropy"),
        default="table",
    )
    cart.add_argument(
        "--trials", type=int,
        help="cap on the start states the constant-action limit's quadrature steps "
             "(default 10000, where it stops on the cap at 64 x 64 with its last two levels "
             "about 0.003 apart for 2d and 3d and 0.010 for 2dg; 2d and 3d stop on the 1e-4 "
             "tolerance from 349440)",
    )
    cart.add_argument("--samples", type=int)
    cart.add_argument("--bins", type=int)
    cart.add_argument("--limit", type=float, help="action-limit override for the sparsity band")
    cart.add_argument("--episode-length", type=int)

    data = sub.add_parser("dataset", help="dataset complexity measures")
    data.add_argument("name", choices=("mnist", "cifar10", "iris"))
    data.add_argument(
        "--measure",
        choices=("dimensionality", "sparsity", "gini", "entropy"),
        default="dimensionality",
    )
    data.add_argument("--mode", choices=("raw", "binarized"), default=None)
    data.add_argument("--data-dir", type=Path, default=None)
    data.add_argument("--split", choices=("train", "test", "all"), default=None)

    comp = sub.add_parser("compare", help="compare two JSON reports")
    comp.add_argument("report_a", type=Path)
    comp.add_argument("report_b", type=Path)
    return parser


def _case(args):
    """The dcx.cases record of args.command, each field from its argument."""
    from . import cases

    cls = {"game": cases.GameCase, "descriptor": cases.DescriptorCase,
           "cartpole": cases.CartPoleCase, "dataset": cases.DatasetCase}[args.command]
    return cls(**{name: getattr(args, name) for name in cls._fields})


def _run_compare(args, fmt: str) -> str:
    a = from_json(read_text(args.report_a))
    b = from_json(read_text(args.report_b))
    rows = compare(a, b)
    if fmt == "json":
        for row in rows:
            if not math.isfinite(row["difference"]):
                raise FormatError(
                    f"measure {row['measure_name']} differs by {row['difference']!r}, "
                    "which JSON cannot hold"
                )
        return json.dumps(
            {"a": a.domain_name, "b": b.domain_name, "rows": rows}, indent=2
        )
    if fmt == "csv":
        lines = ["measure_name,a_value,b_value,difference,higher"]
        for row in rows:
            lines.append(
                f"{csv_field(row['measure_name'])},{row['a_value']!r},{row['b_value']!r},"
                f"{row['difference']!r},{csv_field(row['higher'])}"
            )
        return "\n".join(lines) + "\n"
    lines = [f"comparing {a.domain_name} (a) vs {b.domain_name} (b)"]
    for row in rows:
        lines.append(
            f"  {row['measure_name']:32s} a={row['a_value']:.6g} "
            f"b={row['b_value']:.6g} higher={row['higher']}"
        )
    return "\n".join(lines) + "\n"


def _emit(report: ComplexityReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(report) + "\n"
    if fmt == "csv":
        return to_csv(report)
    return to_text(report)


def main(argv=None) -> int:
    # before anything imports numpy, which reads it when OpenBLAS loads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            output = _run_compare(args, args.format)
        else:
            from .cases import run  # after parsing, so --help and compare do not load it

            output = _emit(run(_case(args)), args.format)
        if args.out is not None:
            args.out.write_text(output, encoding="utf-8")
        else:
            sys.stdout.write(output)
    except (DcxError, OSError) as exc:
        print(f"dcx: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

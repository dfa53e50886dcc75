"""Command-line surface. Each subcommand resolves its input and takes the
report's measures and notes from its domain module; `main`
assembles them into one ComplexityReport, annotated with the published
targets from the reference table, and emits it as text, JSON, or CSV.
Exit code 0 on success, 1 on measure errors, 2 on usage errors.

Each domain module is imported by the runner that computes with it:
`game` loads `games`, `descriptor` and `cartpole --measure table` load
`descriptors`, the other cart-pole measures `cartpole`, and `dataset` the
two dataset modules. `compare`, `--help` and usage errors load none of
them. numpy comes only with a value that needs it: the cart-pole
simulator, the datasets, game enumeration and the descriptor entropies.

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
from contextlib import suppress
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DcxError, FormatError, InvalidParameter
# log10_product and normalized_entropy are no longer called here, but stay
# importable from this module: the benchmark's traced run
# (perfbench/spans.py) wraps them under these names.
from .measures import MeasureResult, log10_product, normalized_entropy  # noqa: F401
from .report import (
    ComplexityReport,
    ReferenceTarget,
    compare,
    csv_field,
    from_json,
    to_csv,
    to_json,
    to_text,
)

if TYPE_CHECKING:
    from . import descriptors

_PUBLISHED = "published case study"
_3D_REFERENCE = _PUBLISHED + " (reference only; coupled 3d dynamics)"
_BINNING_REFERENCE = _PUBLISHED + " (reference only; binning conventions unpublished)"

_VARIANT_DESCRIPTOR = {"2d": "cartpole2d", "2dg": "cartpole2d-g", "3d": "cartpole3d"}

# --measure choice -> the cart-pole flags its builder reads
_CARTPOLE_FLAGS = {"table": (), "limit": ("trials",), "entropy": ("samples", "bins"),
                   "sparsity": ("trials", "limit", "episode_length")}

_3D_NOTE = (
    "3d dynamics are simplified to two independent planar cart-pole systems; "
    "published 3d values used coupled dynamics and are reference-only"
)

_CARTPOLE_2D_TABLE = (
    ("state_space_complexity_log10", 6.0, 0.01, _PUBLISHED),
    ("tree_complexity_uniform_sum_log10", 30.4, 0.05, _PUBLISHED),
    ("game_space_complexity_log10", 14.0, 0.05, _PUBLISHED),
)

# (report domain, measure mode) -> the published targets the report
# carries, as (measure name, value, tolerance, source) in report order.
# The mode is the --measure choice, or None for game, descriptor and
# cart-pole table reports. A target may name a measure its report lacks:
# `game ttt --no-enumerate` still carries the enumeration counts, and
# `descriptor pogo` the information entropy that --breakdown adds.
_REFERENCES = {
    ("ttt", None): (
        ("ssc_combinatorial_log10", 3.78, 0.01, _PUBLISHED),
        ("gtc_factorial_log10", 5.56, 0.01, _PUBLISHED),
        ("legal_positions_total", 5478, 0, _PUBLISHED),
        ("symmetry_classes_total", 765, 0, _PUBLISHED),
    ),
    ("qubic", None): (
        ("ssc_combinatorial_log10", 30, 1, _PUBLISHED),
        ("gtc_factorial_log10", 34, 1, _PUBLISHED),
    ),
    ("pogo", None): (
        ("state_space_complexity_log10", 60.1, 0.1, _PUBLISHED),
        ("tree_complexity_power_log10", 816.7, 0.1, _PUBLISHED),
        ("game_space_complexity_log10", 65.0, 0.1, _PUBLISHED),
        ("information_entropy", 0.870, 0.005, _PUBLISHED),
    ),
    ("cartpole2d", None): _CARTPOLE_2D_TABLE,
    ("cartpole2d-g", None): _CARTPOLE_2D_TABLE,
    ("cartpole3d", None): (
        ("state_space_complexity_log10", 24.0, 0.01, _PUBLISHED),
        ("tree_complexity_uniform_sum_log10", 60.3, 0.05, _PUBLISHED),
        ("game_space_complexity_log10", 27.2, 0.05, _PUBLISHED),
    ),
    ("monopoly", None): (
        ("strategy_entropy_railroads", 0.52, 0.01, _PUBLISHED),
        ("strategy_entropy_boardwalk", 0.90, 0.01, _PUBLISHED),
    ),
    ("cartpole2d", "limit"): (("constant_action_limit", 9.37, 1.0, _PUBLISHED),),
    ("cartpole2d-g", "limit"): (("constant_action_limit", 9.22, 1.0, _PUBLISHED),),
    ("cartpole3d", "limit"): (("constant_action_limit", 10.6, 1.0, _3D_REFERENCE),),
    ("cartpole2d", "sparsity"): (("analytic_sparsity", 0.1171, 0.02, _PUBLISHED),),
    ("cartpole2d-g", "sparsity"): (("analytic_sparsity", 0.1118, 0.02, _PUBLISHED),),
    ("cartpole3d", "sparsity"): (("analytic_sparsity", 0.054, 0.02, _3D_REFERENCE),),
    ("cartpole2d", "entropy"): (
        ("feature_entropy_sum_bits", 20.556, 0.0, _BINNING_REFERENCE),
        ("action_entropy_bits", 0.999, 0.01, _PUBLISHED),
    ),
    ("cartpole2d-g", "entropy"): (
        ("feature_entropy_sum_bits", 17.626, 0.0, _BINNING_REFERENCE),
        ("action_entropy_bits", 1.0, 0.01, _PUBLISHED),
    ),
    ("cartpole3d", "entropy"): (
        ("feature_entropy_sum_bits", 99.999, 0.0, _BINNING_REFERENCE),
        ("action_entropy_bits", 2.322, 0.01, _PUBLISHED),
    ),
    ("mnist", "sparsity"): (("zero_sparsity_mean", 0.813, 0.01, _PUBLISHED),),
    ("mnist", "entropy"): (("entropy_median_of_medians", 0.090, 0.02, _PUBLISHED),),
    ("cifar10", "gini"): (
        ("gini_median_red", 0.235, 0.01, _PUBLISHED),
        ("gini_median_green", 0.237, 0.01, _PUBLISHED),
        ("gini_median_blue", 0.26, 0.01, _PUBLISHED),
    ),
    ("cifar10", "entropy"): (
        ("entropy_median_of_medians", 0.925, 0.02, _PUBLISHED),
        ("entropy_median_bird", 0.892, 0.02, _PUBLISHED),
        ("entropy_median_truck", 0.946, 0.02, _PUBLISHED),
    ),
}

# What each subcommand runner returns: the report domain and measure mode,
# which key _REFERENCES, then the measures, the notes, and the seed the
# report records (None where no value depends on it).
_Fields = tuple[str, str | None, list[MeasureResult], list[str], int | None]


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
        "--no-enumerate", action="store_true",
        help="skip breadth-first enumeration even on small boards",
    )

    desc = sub.add_parser("descriptor", help="descriptor-file complexity")
    desc.add_argument("source", help="descriptor JSON file or bundled name")
    desc.add_argument(
        "--breakdown",
        help="information-breakdown JSON file or bundled name",
    )

    # absent flags stay off args, so each default lives in its builder
    cart = sub.add_parser("cartpole", help="cart-pole simulator measures",
                          argument_default=argparse.SUPPRESS)
    cart.add_argument("--variant", choices=("2d", "2dg", "3d"), default="2d")
    cart.add_argument(
        "--measure", choices=("table", "limit", "sparsity", "entropy"),
        default="table",
    )
    cart.add_argument("--trials", type=int)
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


def _run_game(args) -> _Fields:
    from . import games

    if args.preset != "custom":
        spec, name = games.preset(args.preset), args.preset
    else:
        missing = [n for n in ("side", "dims", "plies", "win") if getattr(args, n) is None]
        if missing:
            raise DcxError(f"custom games need --side --dims --plies --win (missing {missing})")
        spec = games.GridGameSpec(
            side=args.side, dims=args.dims, max_plies=args.plies, win_length=args.win
        )
        name = f"grid_{spec.side}x{spec.dims}d_win{spec.win_length}"
    measures, notes = games.grid_measures(spec, args.avg_length, not args.no_enumerate)
    return name, None, measures, notes, None


def _resolve_descriptor(source: str) -> descriptors.DomainDescriptor:
    from . import descriptors

    path = Path(source)
    if path.is_file():
        return descriptors.load_descriptor(path)
    # a path must exist; only a bare name is looked up among the bundled files
    stem = source.removesuffix(".json") if path.name == source else None
    if stem in descriptors.BUNDLED_DESCRIPTORS:
        return descriptors.bundled_descriptor(stem)
    raise DcxError(
        f"{source!r} is neither a descriptor file nor a bundled name "
        f"{descriptors.BUNDLED_DESCRIPTORS}"
    )


def _resolve_breakdown(source: str) -> descriptors.InformationBreakdown:
    from . import descriptors

    path = Path(source)
    if path.is_file():
        return descriptors.load_breakdown(path)
    stem = source.removesuffix(".json").removesuffix("_breakdown")
    if path.name == source:  # as for descriptors, only a bare name is bundled
        with suppress(DcxError):
            return descriptors.bundled_breakdown(stem)
    raise DcxError(f"{source!r} is not a breakdown file or bundled name")


def _run_descriptor(args) -> _Fields:
    from . import descriptors

    d = _resolve_descriptor(args.source)
    breakdown = _resolve_breakdown(args.breakdown) if args.breakdown else None
    measures, notes = descriptors.descriptor_measures(d, breakdown)
    return d.name, None, measures, notes, None


def _run_cartpole(args) -> _Fields:
    domain = _VARIANT_DESCRIPTOR[args.variant]
    lead = [_3D_NOTE] if args.variant == "3d" else []
    flags = ("trials", "samples", "bins", "limit", "episode_length")
    given = {name: getattr(args, name) for name in flags if hasattr(args, name)}
    unread = ["--" + name.replace("_", "-") for name in given
              if name not in _CARTPOLE_FLAGS[args.measure]]
    if unread:
        raise InvalidParameter(f"cartpole --measure {args.measure} does not read {' '.join(unread)}")
    if "limit" in given and "trials" in given:
        raise InvalidParameter("--trials measures the sparsity band, which --limit gives")
    if args.measure == "table":
        from . import descriptors

        measures, notes = descriptors.descriptor_measures(descriptors.bundled_descriptor(domain))
        return domain, None, measures, lead + notes, None

    from . import cartpole as cp

    build = {"limit": cp.limit_measures, "sparsity": cp.sparsity_measures,
             "entropy": cp.entropy_measures}[args.measure]
    measures, notes = build(cp.params_for_variant(args.variant), seed=args.seed, **given)
    # a given band leaves nothing to draw
    seed = None if "limit" in given else args.seed
    return domain, args.measure, measures, lead + notes, seed


def _run_dataset(args) -> _Fields:
    from . import dataset_metrics as dm
    from . import datasets

    name = args.name
    if name == "iris":  # bundled and whole: no files, split or binarizing to choose
        unread = [flag for flag, value in (("--mode", args.mode), ("--split", args.split),
                                           ("--data-dir", args.data_dir)) if value is not None]
        if unread:
            raise InvalidParameter(f"dataset iris does not read {' '.join(unread)}")
        measures, notes = dm.iris_measures(datasets.load_iris(), args.measure)
        return name, args.measure, measures, notes, None
    split = args.split or ("train" if name == "mnist" and args.measure == "entropy" else "all")
    directory = args.data_dir or Path(os.environ.get("DCX_DATA_DIR") or "data")
    stream = datasets.stream_mnist if name == "mnist" else datasets.stream_cifar10
    try:
        source = stream(directory, split=split)
    except FileNotFoundError as exc:
        raise DcxError(
            f"{name} files not found: {exc}; pass --data-dir or set DCX_DATA_DIR"
        ) from exc
    measures, notes = dm.image_measures(name, source, args.measure, args.mode, split)
    return name, args.measure, measures, notes, None


_RUNNERS = {
    "game": _run_game,
    "descriptor": _run_descriptor,
    "cartpole": _run_cartpole,
    "dataset": _run_dataset,
}


def _report(args) -> ComplexityReport:
    domain, mode, measures, notes, seed = _RUNNERS[args.command](args)
    return ComplexityReport(
        domain_name=domain,
        measures=tuple(measures),
        reference_targets=tuple(
            ReferenceTarget(*row) for row in _REFERENCES.get((domain, mode), ())
        ),
        seed=seed,
        notes=tuple(notes),
    )


def _run_compare(args, fmt: str) -> str:
    a = from_json(args.report_a.read_text(encoding="utf-8"))
    b = from_json(args.report_b.read_text(encoding="utf-8"))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            output = _run_compare(args, args.format)
        else:
            output = _emit(_report(args), args.format)
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

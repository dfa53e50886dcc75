"""Command-line surface. Each subcommand computes its measures and notes;
`main` assembles them into one ComplexityReport, annotated with the
published targets from the reference table, and emits it as text, JSON,
or CSV. Exit code 0 on success, 1 on measure errors, 2 on usage errors.

The cart-pole simulator and the dataset modules, and with them numpy, are
imported in the branch that computes with them, so the closed-form
subcommands (games, descriptors, cart-pole tables, compare) start without
numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import descriptors, games
from .errors import DcxError, FormatError
from .measures import (
    ANALYTIC,
    ENUMERATED,
    MeasureResult,
    log10_product,
    monte_carlo,
    normalized_entropy,
)
from .report import (
    ComplexityReport,
    ReferenceTarget,
    compare,
    from_json,
    to_csv,
    to_json,
    to_text,
)

_PUBLISHED = "published case study"
_3D_REFERENCE = _PUBLISHED + " (reference only; coupled 3d dynamics)"
_BINNING_REFERENCE = _PUBLISHED + " (reference only; binning conventions unpublished)"

_VARIANT_DESCRIPTOR = {"2d": "cartpole2d", "2dg": "cartpole2d-g", "3d": "cartpole3d"}

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

    cart = sub.add_parser("cartpole", help="cart-pole simulator measures")
    cart.add_argument("--variant", choices=("2d", "2dg", "3d"), default="2d")
    cart.add_argument(
        "--measure", choices=("table", "limit", "sparsity", "entropy"),
        default="table",
    )
    cart.add_argument("--trials", type=int, default=10_000)
    cart.add_argument("--samples", type=int, default=None)
    cart.add_argument("--bins", type=int, default=256)
    cart.add_argument(
        "--limit", type=float, default=None,
        help="action-limit override for the sparsity band",
    )
    cart.add_argument("--episode-length", type=int, default=200)

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


def _game_spec(args) -> tuple[games.GridGameSpec, int]:
    if args.preset != "custom":
        spec = games.preset(args.preset)
        default_avg = {"ttt": 9, "qubic": 20}[args.preset]
        avg = args.avg_length if args.avg_length is not None else default_avg
        return spec, avg
    missing = [n for n in ("side", "dims", "plies", "win") if getattr(args, n) is None]
    if missing:
        raise DcxError(f"custom games need --side --dims --plies --win (missing {missing})")
    spec = games.GridGameSpec(
        side=args.side, dims=args.dims, max_plies=args.plies, win_length=args.win
    )
    avg = args.avg_length if args.avg_length is not None else min(spec.max_plies, spec.cells)
    return spec, avg


def _run_game(args) -> _Fields:
    spec, avg = _game_spec(args)
    total, log10_total = games.ssc_combinatorial(spec)
    measures = [
        MeasureResult(
            "ssc_upper_bound_log10",
            games.ssc_upper_bound(spec),
            "log10(3^cells): each cell empty or one of two marks",
            ANALYTIC,
        ),
        MeasureResult(
            "ssc_combinatorial_log10",
            log10_total,
            "log10 of the exact sum over per-ply stone-count arrangements",
            ANALYTIC,
        ),
    ]
    notes = []
    try:
        total_value = float(total)
    except OverflowError:
        notes.append(
            "ssc_combinatorial_total omitted: the exact total exceeds the "
            "float range; ssc_combinatorial_log10 carries its magnitude"
        )
    else:
        measures.append(
            MeasureResult(
                "ssc_combinatorial_total",
                total_value,
                "exact integer total of per-ply stone-count arrangements",
                ANALYTIC,
            )
        )
    measures.append(
        MeasureResult(
            "gtc_factorial_log10",
            games.gtc_factorial(spec.cells, avg),
            "log10 of the falling factorial cells! / (cells - avg_moves)!",
            ANALYTIC,
        )
    )
    if not args.no_enumerate and spec.cells <= games.ENUMERATION_CELL_LIMIT:
        raw = games.enumerate_states(spec, symmetry=False)
        sym = games.enumerate_states(spec, symmetry=True)
        measures += [
            MeasureResult(
                "legal_positions_total",
                float(raw.total),
                "breadth-first count of reachable positions; wins halt expansion",
                ENUMERATED,
            ),
            MeasureResult(
                "symmetry_classes_total",
                float(sym.total),
                "breadth-first count of canonical forms under the board symmetry group",
                ENUMERATED,
            ),
            replace(games.ply_entropy(raw), measure_name="ply_entropy_raw"),
            replace(games.ply_entropy(sym), measure_name="ply_entropy_sym"),
        ]
    elif not args.no_enumerate:
        notes.append(
            f"enumeration skipped: {spec.cells} cells exceeds the "
            f"{games.ENUMERATION_CELL_LIMIT}-cell guard"
        )
    name = args.preset if args.preset != "custom" else (
        f"grid_{spec.side}x{spec.dims}d_win{spec.win_length}"
    )
    return name, None, measures, notes, None


def _resolve_descriptor(source: str) -> descriptors.DomainDescriptor:
    path = Path(source)
    if path.is_file():
        return descriptors.load_descriptor(path)
    stem = path.name.removesuffix(".json")
    if stem in descriptors.BUNDLED_DESCRIPTORS:
        return descriptors.bundled_descriptor(stem)
    raise DcxError(
        f"{source!r} is neither a descriptor file nor a bundled name "
        f"{descriptors.BUNDLED_DESCRIPTORS}"
    )


def _resolve_breakdown(source: str) -> descriptors.InformationBreakdown:
    path = Path(source)
    if path.is_file():
        return descriptors.load_breakdown(path)
    stem = path.name.removesuffix(".json").removesuffix("_breakdown")
    try:
        return descriptors.bundled_breakdown(stem)
    except DcxError:
        raise DcxError(f"{source!r} is not a breakdown file or bundled name") from None


def _run_descriptor(args) -> _Fields:
    return _describe(_resolve_descriptor(args.source), args.breakdown, [])


def _describe(
    d: descriptors.DomainDescriptor, breakdown: str | None, notes: list[str]
) -> _Fields:
    """The descriptor report's fields; notes lead the descriptor's own."""
    measures = [
        MeasureResult(
            "state_space_complexity_log10",
            descriptors.state_space_complexity(d),
            "sum of log10 cardinalities over firm state components",
            ANALYTIC,
        ),
        MeasureResult(
            "environment_space_bound_log10",
            descriptors.environment_space_bound(d),
            "state-space arithmetic read as a bound on raw environment states",
            ANALYTIC,
        ),
    ]
    slack = descriptors.estimated_slack_log10(d)
    if slack:
        measures.append(
            MeasureResult(
                "estimated_slack_log10",
                slack,
                "log10 contributed by estimate-marked components, kept out of firm sums",
                ANALYTIC,
            )
        )
    if d.instance_components():
        measures.append(
            MeasureResult(
                "game_space_complexity_log10",
                descriptors.game_space_complexity(d, include_initial_states=True),
                "sum over instance components plus the initial-state factor",
                ANALYTIC,
            )
        )
    if d.branching_factor >= 2:
        measures.append(
            MeasureResult(
                "tree_complexity_uniform_sum_log10",
                descriptors.tree_complexity(d, "uniform_sum"),
                "log10 of the exact sum of b^i for i = 1..max_game_length",
                ANALYTIC,
            )
        )
        measures.append(
            MeasureResult(
                "tree_complexity_power_log10",
                descriptors.tree_complexity(d, "power"),
                "avg_game_length * log10(branching_factor)",
                ANALYTIC,
            )
        )
    measures.append(
        MeasureResult(
            "branching_factor", float(d.branching_factor), "descriptor field", ANALYTIC
        )
    )
    measures.append(
        MeasureResult(
            "avg_game_length", float(d.avg_game_length), "descriptor field", ANALYTIC
        )
    )
    notes = notes + list(d.notes)
    if descriptors.estimated_slack_log10(d):
        notes.append(
            "estimate-marked components are reported separately as "
            "estimated_slack_log10 and excluded from the firm sums"
        )
    if breakdown:
        measures.append(descriptors.information_entropy(_resolve_breakdown(breakdown)))
    if d.name == "monopoly":
        railroads = descriptors.strategy_entropy([0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3])
        boardwalk = descriptors.strategy_entropy([0.5, 1 / 6, 1 / 6, 1 / 6])
        measures.append(replace(railroads, measure_name="strategy_entropy_railroads"))
        measures.append(replace(boardwalk, measure_name="strategy_entropy_boardwalk"))
        notes.append(
            "strategy entropies assume one advantaged player (80% or 50% win "
            "chance) with the rest split evenly"
        )
    return d.name, None, measures, notes, None


def _run_cartpole(args) -> _Fields:
    domain = _VARIANT_DESCRIPTOR[args.variant]
    notes = [] if args.variant != "3d" else [_3D_NOTE]
    if args.measure == "table":
        return _describe(descriptors.bundled_descriptor(domain), None, notes)

    from . import cartpole as cp

    params = cp.params_for_variant(args.variant)
    if args.measure == "limit":
        measures = [
            MeasureResult(
                "constant_action_limit",
                cp.constant_action_limit(params, args.trials, args.seed),
                "mean repeated identical pushes until failure; uniform "
                "[-0.05, 0.05] inits; the failing step is counted",
                monte_carlo(args.seed, args.trials),
            )
        ]
    elif args.measure == "sparsity":
        samples = args.samples if args.samples is not None else 100_000
        if args.limit is not None:
            limit = args.limit
            limit_source = "user-provided action limit"
        else:
            limit = cp.constant_action_limit(params, args.trials, args.seed)
            limit_source = "measured constant-action limit"
        value = cp.analytic_sparsity(
            limit,
            episode_length=args.episode_length,
            samples=samples,
            seed=args.seed,
            axes=params.axis_count,
        )
        measures = [
            MeasureResult(
                "analytic_sparsity",
                value,
                "fraction of random +/-1 walks staying inside the action-limit "
                f"band; one full-length walk per axis; band from {limit_source}; "
                f"episode_length={args.episode_length}; fractional limits "
                "dither the integer band per sample",
                monte_carlo(args.seed, samples),
            ),
            MeasureResult(
                "action_limit_band",
                limit,
                limit_source,
                ANALYTIC if args.limit is not None else monte_carlo(args.seed, args.trials),
            ),
        ]
    else:
        samples = args.samples if args.samples is not None else 20_000
        cfg = cp.RolloutConfig(seed=args.seed, sample_count=samples, bin_count=args.bins)
        feature_bits, action_bits = cp.rollout_entropy(params, cfg)
        measures = [
            MeasureResult(
                "feature_entropy_sum_bits",
                feature_bits,
                "uniform random actions, restart on failure; pre-step states; "
                f"per-feature min-max then {args.bins} bins; bits summed over features",
                monte_carlo(args.seed, samples),
            ),
            MeasureResult(
                "action_entropy_bits",
                action_bits,
                "empirical entropy of the uniform random action stream",
                monte_carlo(args.seed, samples),
            ),
        ]
        if args.variant == "3d":
            notes.append(
                "published 3d action entropy 2.322 bits equals log2(5); this "
                "action set has 4 pushes, so 2.0 bits is the ceiling here"
            )
    return domain, args.measure, measures, notes, args.seed


def _run_iris(args) -> _Fields:
    import numpy as np

    from . import dataset_metrics as dm
    from . import datasets

    ds = datasets.load_iris()
    measures = []
    if args.measure == "dimensionality":
        measures.append(
            MeasureResult(
                "feature_space_dimensionality_log10",
                log10_product([ds.row_count, len(ds.feature_names) + 1]),
                "log10 of rows x columns (features plus the class label)",
                ANALYTIC,
            )
        )
    elif args.measure in ("gini", "sparsity"):
        for class_name in ds.class_names:
            for feature_name in ds.feature_names:
                measures.append(
                    MeasureResult(
                        f"gini_{class_name}_{feature_name}",
                        dm.tabular_gini(ds, class_name, feature_name),
                        "Gini index over the raw per-class measurement values",
                        ANALYTIC,
                    )
                )
    else:
        counts = np.bincount(ds.labels, minlength=len(ds.class_names))
        measures.append(
            MeasureResult(
                "class_distribution_entropy",
                normalized_entropy(counts / counts.sum(), len(ds.class_names)),
                "normalized entropy of the class label distribution; "
                f"event_count = {len(ds.class_names)}",
                ANALYTIC,
            )
        )
    return "iris", args.measure, measures, [], None


def _run_dataset(args) -> _Fields:
    name = args.name
    if name == "iris":
        return _run_iris(args)

    import numpy as np

    from . import dataset_metrics as dm
    from . import datasets

    mode = args.mode or ("binarized" if name == "mnist" else "raw")
    split = args.split or ("train" if name == "mnist" and args.measure == "entropy" else "all")
    directory = args.data_dir or Path(os.environ.get("DCX_DATA_DIR") or "data")
    load = datasets.load_mnist if name == "mnist" else datasets.load_cifar10
    try:
        ds = load(directory, split=split)
    except FileNotFoundError as exc:
        raise DcxError(
            f"{name} files not found: {exc}; pass --data-dir or set DCX_DATA_DIR"
        ) from exc
    measures: list[MeasureResult] = []
    notes = []
    if args.measure == "dimensionality":
        if mode == "binarized" and name == "mnist":
            ds = datasets.binarize(ds)
        measures.append(
            MeasureResult(
                "feature_space_dimensionality_log10",
                dm.feature_space_dimensionality(ds),
                "log10 of pixels x channels x classes x pixel values x images; "
                f"pixel values = {ds.pixel_value_count}",
                ANALYTIC,
            )
        )
    elif args.measure == "sparsity":
        if name == "mnist":
            ds = datasets.binarize(ds)
            convention = "mean zero-pixel fraction after binarization at threshold 0"
        else:
            convention = "mean zero-valued fraction over raw intensities"
        per_image = dm.image_zero_sparsities(ds.images)
        measures.append(
            MeasureResult("zero_sparsity_mean", float(per_image.mean()), convention, ANALYTIC)
        )
        if name == "mnist":
            for summary in dm.summarize_by_class(per_image, ds.labels, ds.class_names):
                measures.append(
                    MeasureResult(
                        f"zero_sparsity_mean_{summary.class_name}",
                        summary.mean,
                        "per-class mean zero-pixel fraction",
                        ANALYTIC,
                    )
                )
    elif args.measure == "gini":
        channels = ("red", "green", "blue") if ds.channel_count == 3 else ("gray",)
        values, skipped = dm.channel_ginis(ds.images)
        for c, channel_name in enumerate(channels):
            measures.append(
                MeasureResult(
                    f"gini_median_{channel_name}",
                    float(np.nanmedian(values[:, c])),
                    "median over images of the per-image channel Gini index",
                    ANALYTIC,
                )
            )
        if skipped:
            notes.append(f"{skipped} all-zero channel planes skipped")
    else:
        binarize_first = name == "mnist" and mode == "binarized"
        per_image = dm.image_entropies(ds.images, binarize_first=binarize_first)
        summaries = dm.summarize_by_class(per_image, ds.labels, ds.class_names)
        convention = (
            "normalized per-image intensity entropy, 256 bins over [0, 255], "
            "channels pooled"
            + ("; binarized to bins 0 and 255 first" if binarize_first else "")
        )
        measures.append(
            MeasureResult(
                "entropy_median_of_medians",
                dm.median_of_medians(summaries),
                convention + f"; split = {split}",
                ANALYTIC,
            )
        )
        for summary in summaries:
            measures.append(
                MeasureResult(
                    f"entropy_median_{summary.class_name}",
                    summary.median,
                    convention,
                    ANALYTIC,
                )
            )
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
                f"{row['measure_name']},{row['a_value']!r},{row['b_value']!r},"
                f"{row['difference']!r},{row['higher']}"
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

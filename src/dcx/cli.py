"""Command-line surface. Every subcommand builds a ComplexityReport and
emits it as text, JSON, or CSV; exit code 0 on success, 1 on measure
errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import cartpole as cp
from . import dataset_metrics as dm
from . import datasets, descriptors, games
from .errors import DcxError
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

_VARIANT_DESCRIPTOR = {"2d": "cartpole2d", "2dg": "cartpole2d-g", "3d": "cartpole3d"}

_3D_NOTE = (
    "3d dynamics are simplified to two independent planar cart-pole systems; "
    "published 3d values used coupled dynamics and are reference-only"
)


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


_GAME_TARGETS = {
    "ttt": (
        ReferenceTarget("ssc_combinatorial_log10", 3.78, 0.01, _PUBLISHED),
        ReferenceTarget("gtc_factorial_log10", 5.56, 0.01, _PUBLISHED),
        ReferenceTarget("legal_positions_total", 5478, 0, _PUBLISHED),
        ReferenceTarget("symmetry_classes_total", 765, 0, _PUBLISHED),
    ),
    "qubic": (
        ReferenceTarget("ssc_combinatorial_log10", 30, 1, _PUBLISHED),
        ReferenceTarget("gtc_factorial_log10", 34, 1, _PUBLISHED),
    ),
}


def _run_game(args) -> ComplexityReport:
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
        MeasureResult(
            "ssc_combinatorial_total",
            float(total),
            "exact integer total of per-ply stone-count arrangements",
            ANALYTIC,
        ),
        MeasureResult(
            "gtc_factorial_log10",
            games.gtc_factorial(spec.cells, avg),
            "log10 of the falling factorial cells! / (cells - avg_moves)!",
            ANALYTIC,
        ),
    ]
    notes = []
    if not args.no_enumerate and spec.cells <= games.ENUMERATION_CELL_LIMIT:
        raw = games.enumerate_states(spec, symmetry=False)
        sym = games.enumerate_states(spec, symmetry=True)
        measures.append(
            MeasureResult(
                "legal_positions_total",
                float(raw.total),
                "breadth-first count of reachable positions; wins halt expansion",
                ENUMERATED,
            )
        )
        measures.append(
            MeasureResult(
                "symmetry_classes_total",
                float(sym.total),
                "breadth-first count of canonical forms under the board symmetry group",
                ENUMERATED,
            )
        )
        raw_entropy = games.ply_entropy(raw)
        sym_entropy = games.ply_entropy(sym)
        measures.append(
            MeasureResult(
                "ply_entropy_raw", raw_entropy.value, raw_entropy.convention, ENUMERATED
            )
        )
        measures.append(
            MeasureResult(
                "ply_entropy_sym", sym_entropy.value, sym_entropy.convention, ENUMERATED
            )
        )
    elif not args.no_enumerate:
        notes.append(
            f"enumeration skipped: {spec.cells} cells exceeds the "
            f"{games.ENUMERATION_CELL_LIMIT}-cell guard"
        )
    name = args.preset if args.preset != "custom" else (
        f"grid_{spec.side}x{spec.dims}d_win{spec.win_length}"
    )
    return ComplexityReport(
        domain_name=name,
        measures=tuple(measures),
        reference_targets=_GAME_TARGETS.get(args.preset, ()),
        notes=tuple(notes),
    )


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


_DESCRIPTOR_TARGETS = {
    "pogo": (
        ReferenceTarget("state_space_complexity_log10", 60.1, 0.1, _PUBLISHED),
        ReferenceTarget("tree_complexity_power_log10", 816.7, 0.1, _PUBLISHED),
        ReferenceTarget("game_space_complexity_log10", 65.0, 0.1, _PUBLISHED),
        ReferenceTarget("information_entropy", 0.870, 0.005, _PUBLISHED),
    ),
    "cartpole2d": (
        ReferenceTarget("state_space_complexity_log10", 6.0, 0.01, _PUBLISHED),
        ReferenceTarget("tree_complexity_uniform_sum_log10", 30.4, 0.05, _PUBLISHED),
        ReferenceTarget("game_space_complexity_log10", 14.0, 0.05, _PUBLISHED),
    ),
    "cartpole2d-g": (
        ReferenceTarget("state_space_complexity_log10", 6.0, 0.01, _PUBLISHED),
        ReferenceTarget("tree_complexity_uniform_sum_log10", 30.4, 0.05, _PUBLISHED),
        ReferenceTarget("game_space_complexity_log10", 14.0, 0.05, _PUBLISHED),
    ),
    "cartpole3d": (
        ReferenceTarget("state_space_complexity_log10", 24.0, 0.01, _PUBLISHED),
        ReferenceTarget("tree_complexity_uniform_sum_log10", 60.3, 0.05, _PUBLISHED),
        ReferenceTarget("game_space_complexity_log10", 27.2, 0.05, _PUBLISHED),
    ),
    "monopoly": (
        ReferenceTarget("strategy_entropy_railroads", 0.52, 0.01, _PUBLISHED),
        ReferenceTarget("strategy_entropy_boardwalk", 0.90, 0.01, _PUBLISHED),
    ),
}


def _descriptor_measures(d: descriptors.DomainDescriptor) -> list[MeasureResult]:
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
    return measures


def _run_descriptor(args) -> ComplexityReport:
    d = _resolve_descriptor(args.source)
    measures = _descriptor_measures(d)
    notes = list(d.notes)
    if descriptors.estimated_slack_log10(d):
        notes.append(
            "estimate-marked components are reported separately as "
            "estimated_slack_log10 and excluded from the firm sums"
        )
    if args.breakdown:
        breakdown = _resolve_breakdown(args.breakdown)
        measures.append(descriptors.information_entropy(breakdown))
    if d.name == "monopoly":
        measures.append(
            _renamed(
                descriptors.strategy_entropy([0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3]),
                "strategy_entropy_railroads",
            )
        )
        measures.append(
            _renamed(
                descriptors.strategy_entropy([0.5, 1 / 6, 1 / 6, 1 / 6]),
                "strategy_entropy_boardwalk",
            )
        )
        notes.append(
            "strategy entropies assume one advantaged player (80% or 50% win "
            "chance) with the rest split evenly"
        )
    return ComplexityReport(
        domain_name=d.name,
        measures=tuple(measures),
        reference_targets=_DESCRIPTOR_TARGETS.get(d.name, ()),
        notes=tuple(notes),
    )


def _renamed(measure: MeasureResult, name: str) -> MeasureResult:
    return MeasureResult(name, measure.value, measure.convention, measure.provenance)


_CARTPOLE_LIMIT_REFERENCE = {"2d": 9.37, "2dg": 9.22, "3d": 10.6}
_CARTPOLE_SPARSITY_REFERENCE = {"2d": 0.1171, "2dg": 0.1118, "3d": 0.054}
_CARTPOLE_FEATURE_REFERENCE = {"2d": 20.556, "2dg": 17.626, "3d": 99.999}
_CARTPOLE_ACTION_REFERENCE = {"2d": 0.999, "2dg": 1.0, "3d": 2.322}


def _run_cartpole(args) -> ComplexityReport:
    params = cp.params_for_variant(args.variant)
    notes = [] if args.variant != "3d" else [_3D_NOTE]
    targets = []
    measures = []
    domain = _VARIANT_DESCRIPTOR[args.variant]

    if args.measure == "table":
        d = descriptors.bundled_descriptor(domain)
        measures = _descriptor_measures(d)
        targets = list(_DESCRIPTOR_TARGETS.get(domain, ()))
        notes.extend(d.notes)
        return ComplexityReport(
            domain_name=domain,
            measures=tuple(measures),
            reference_targets=tuple(targets),
            notes=tuple(notes),
        )

    if args.measure == "limit":
        value = cp.constant_action_limit(params, args.trials, args.seed)
        measures.append(
            MeasureResult(
                "constant_action_limit",
                value,
                "mean repeated identical pushes until failure; uniform "
                "[-0.05, 0.05] inits; the failing step is counted",
                monte_carlo(args.seed, args.trials),
            )
        )
        source = _PUBLISHED if args.variant != "3d" else (
            _PUBLISHED + " (reference only; coupled 3d dynamics)"
        )
        targets.append(
            ReferenceTarget(
                "constant_action_limit",
                _CARTPOLE_LIMIT_REFERENCE[args.variant],
                1.0,
                source,
            )
        )
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
        measures.append(
            MeasureResult(
                "analytic_sparsity",
                value,
                "fraction of random +/-1 walks staying inside the action-limit "
                f"band; one full-length walk per axis; band from {limit_source}; "
                f"episode_length={args.episode_length}; fractional limits "
                "dither the integer band per sample",
                monte_carlo(args.seed, samples),
            )
        )
        measures.append(
            MeasureResult(
                "action_limit_band",
                limit,
                limit_source,
                ANALYTIC if args.limit is not None else monte_carlo(args.seed, args.trials),
            )
        )
        source = _PUBLISHED if args.variant != "3d" else (
            _PUBLISHED + " (reference only; coupled 3d dynamics)"
        )
        targets.append(
            ReferenceTarget(
                "analytic_sparsity",
                _CARTPOLE_SPARSITY_REFERENCE[args.variant],
                0.02,
                source,
            )
        )
    else:
        samples = args.samples if args.samples is not None else 20_000
        cfg = cp.RolloutConfig(seed=args.seed, sample_count=samples, bin_count=args.bins)
        feature_bits, action_bits = cp.rollout_entropy(params, cfg)
        convention = (
            "uniform random actions, restart on failure; pre-step states; "
            f"per-feature min-max then {args.bins} bins; bits summed over features"
        )
        measures.append(
            MeasureResult(
                "feature_entropy_sum_bits",
                feature_bits,
                convention,
                monte_carlo(args.seed, samples),
            )
        )
        measures.append(
            MeasureResult(
                "action_entropy_bits",
                action_bits,
                "empirical entropy of the uniform random action stream",
                monte_carlo(args.seed, samples),
            )
        )
        targets.append(
            ReferenceTarget(
                "feature_entropy_sum_bits",
                _CARTPOLE_FEATURE_REFERENCE[args.variant],
                0.0,
                _PUBLISHED + " (reference only; binning conventions unpublished)",
            )
        )
        targets.append(
            ReferenceTarget(
                "action_entropy_bits",
                _CARTPOLE_ACTION_REFERENCE[args.variant],
                0.01,
                _PUBLISHED,
            )
        )
        if args.variant == "3d":
            notes.append(
                "published 3d action entropy 2.322 bits equals log2(5); this "
                "action set has 4 pushes, so 2.0 bits is the ceiling here"
            )
    return ComplexityReport(
        domain_name=domain,
        measures=tuple(measures),
        reference_targets=tuple(targets),
        seed=args.seed,
        notes=tuple(notes),
    )


def _data_dir(arg: Path | None) -> Path:
    if arg is not None:
        return arg
    env = os.environ.get("DCX_DATA_DIR")
    if env:
        return Path(env)
    return Path("data")


def _load_image_dataset(name: str, args, split: str) -> datasets.LabeledImageDataset:
    directory = _data_dir(args.data_dir)
    try:
        if name == "mnist":
            return datasets.load_mnist(directory, split=split)
        return datasets.load_cifar10(directory, split=split)
    except FileNotFoundError as exc:
        raise DcxError(
            f"{name} files not found: {exc}; pass --data-dir or set DCX_DATA_DIR"
        ) from exc


def _run_dataset_iris(args) -> ComplexityReport:
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
    return ComplexityReport(domain_name="iris", measures=tuple(measures))


def _run_dataset_images(args) -> ComplexityReport:
    name = args.name
    default_mode = "binarized" if name == "mnist" else "raw"
    mode = args.mode or default_mode
    measures: list[MeasureResult] = []
    notes = []
    targets: list[ReferenceTarget] = []
    if args.measure == "dimensionality":
        ds = _load_image_dataset(name, args, args.split or "all")
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
        ds = _load_image_dataset(name, args, args.split or "all")
        if name == "mnist":
            ds = datasets.binarize(ds)
            per_image = 1.0 - np.count_nonzero(
                ds.images.reshape(ds.image_count, -1), axis=1
            ) / (ds.pixel_count * ds.channel_count)
            measures.append(
                MeasureResult(
                    "zero_sparsity_mean",
                    float(per_image.mean()),
                    "mean zero-pixel fraction after binarization at threshold 0",
                    ANALYTIC,
                )
            )
            targets.append(
                ReferenceTarget("zero_sparsity_mean", 0.813, 0.01, _PUBLISHED)
            )
            for summary in dm.summarize_by_class(per_image, ds.labels, ds.class_names):
                measures.append(
                    MeasureResult(
                        f"zero_sparsity_mean_{summary.class_name}",
                        summary.mean,
                        "per-class mean zero-pixel fraction",
                        ANALYTIC,
                    )
                )
        else:
            per_image = 1.0 - np.count_nonzero(
                ds.images.reshape(ds.image_count, -1), axis=1
            ) / (ds.pixel_count * ds.channel_count)
            measures.append(
                MeasureResult(
                    "zero_sparsity_mean",
                    float(per_image.mean()),
                    "mean zero-valued fraction over raw intensities",
                    ANALYTIC,
                )
            )
    elif args.measure == "gini":
        ds = _load_image_dataset(name, args, args.split or "all")
        channels = ("red", "green", "blue") if ds.channel_count == 3 else ("gray",)
        values = np.zeros((ds.image_count, ds.channel_count))
        skipped = 0
        for i in range(ds.image_count):
            for c in range(ds.channel_count):
                try:
                    values[i, c] = dm.channel_gini(ds.images[i], c)
                except DcxError:
                    values[i, c] = np.nan
                    skipped += 1
        for c, channel_name in enumerate(channels):
            column = values[:, c]
            measures.append(
                MeasureResult(
                    f"gini_median_{channel_name}",
                    float(np.nanmedian(column)),
                    "median over images of the per-image channel Gini index",
                    ANALYTIC,
                )
            )
        if skipped:
            notes.append(f"{skipped} all-zero channel planes skipped")
        if name == "cifar10":
            for channel_name, ref in (("red", 0.235), ("green", 0.237), ("blue", 0.26)):
                targets.append(
                    ReferenceTarget(f"gini_median_{channel_name}", ref, 0.01, _PUBLISHED)
                )
    else:
        split = args.split or ("train" if name == "mnist" else "all")
        ds = _load_image_dataset(name, args, split)
        binarize_first = name == "mnist" and mode == "binarized"
        per_image = np.empty(ds.image_count)
        for i in range(ds.image_count):
            per_image[i] = dm.image_entropy(
                ds.images[i], binarize_first=binarize_first
            ).value
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
        if name == "mnist":
            targets.append(
                ReferenceTarget("entropy_median_of_medians", 0.090, 0.02, _PUBLISHED)
            )
        else:
            targets.append(
                ReferenceTarget("entropy_median_of_medians", 0.925, 0.02, _PUBLISHED)
            )
            targets.append(
                ReferenceTarget("entropy_median_bird", 0.892, 0.02, _PUBLISHED)
            )
            targets.append(
                ReferenceTarget("entropy_median_truck", 0.946, 0.02, _PUBLISHED)
            )
    return ComplexityReport(
        domain_name=name,
        measures=tuple(measures),
        reference_targets=tuple(targets),
        notes=tuple(notes),
    )


def _run_compare(args, fmt: str) -> str:
    a = from_json(args.report_a.read_text(encoding="utf-8"))
    b = from_json(args.report_b.read_text(encoding="utf-8"))
    rows = compare(a, b)
    if fmt == "json":
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
        elif args.command == "game":
            output = _emit(_run_game(args), args.format)
        elif args.command == "descriptor":
            output = _emit(_run_descriptor(args), args.format)
        elif args.command == "cartpole":
            output = _emit(_run_cartpole(args), args.format)
        else:
            if args.name == "iris":
                report = _run_dataset_iris(args)
            else:
                report = _run_dataset_images(args)
            output = _emit(report, args.format)
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

"""In-process tracing for the traced run: spans around the calls into each
``dcx`` module, recorded from the benchmark's side.

Each wrapped function is replaced at the attribute its caller looks it up
through (``dcx.games.enumerate_states`` for ``cli``'s ``games.X`` calls,
``dcx.dataset_metrics.gini`` for ``dataset_metrics``' own ``gini`` calls),
so nothing under ``src/dcx`` changes. A span records its group, function,
start, end and parent; spans stay in memory until the run writes them out.
Counters are taken from the wrapped calls' arguments and return values.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import inputs


@dataclass(slots=True)
class Span:
    group: str
    function: str
    start: float
    end: float
    parent: int
    error: type | None = None


class Tracer:
    """Records nested spans and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, group: str, fn, hook=None):
        """fn, recording one span per call; hook(counters, args, kwargs, result)
        runs after a call that returns."""
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters
        name = getattr(fn, "__name__", group)

        def traced(*args, **kwargs):
            span = Span(group, name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc)
                raise
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__name__ = name
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def outer_durations(spans: list[Span]) -> Counter:
    """Per group, the summed duration of spans with no ancestor in that group,
    so that a wrapped function calling another of its group counts once."""
    totals: Counter = Counter()
    for span in spans:
        parent = span.parent
        while parent >= 0 and spans[parent].group != span.group:
            parent = spans[parent].parent
        if parent < 0:
            totals[span.group] += span.end - span.start
    return totals


# --- what the traced run wraps -------------------------------------------------


def _count(name: str, amount=lambda args, kwargs, result: 1):
    def hook(counters, args, kwargs, result):
        counters[name] += amount(args, kwargs, result)

    return hook


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _enumerated(counters, args, kwargs, result):
    counters["games.positions"] += result.total
    counters["games.peak_frontier"] = max(
        counters["games.peak_frontier"], max(result.counts_per_ply)
    )


def _walk_steps(counters, args, kwargs, result):
    limit = _arg(args, kwargs, 0, "limit")
    length = _arg(args, kwargs, 1, "episode_length", 200)
    if limit < length:  # at or beyond the episode length no walk is drawn
        samples = _arg(args, kwargs, 2, "samples", 100_000)
        counters["cartpole.walk_steps"] += samples * length * _arg(args, kwargs, 4, "axes", 1)


def _file_bytes(paths) -> int:
    return sum(p.stat().st_size for p in paths if p.is_file())


def _image_bytes(subdirs: tuple[str, ...], names: dict[str, tuple[str, ...]]):
    """Hook that counts the sizes of the generated files a loader read, and
    the images it returned."""

    def hook(counters, args, kwargs, result):
        directory = Path(_arg(args, kwargs, 0, "data_dir"))
        split = _arg(args, kwargs, 1, "split", "all")
        for sub in subdirs:
            if (directory / sub).is_dir():
                directory = directory / sub
                break
        parts = ("train", "test") if split == "all" else (split,)
        counters["datasets.bytes_in"] += _file_bytes(
            [directory / n for part in parts for n in names[part]]
        )
        counters["datasets.images"] += result.image_count

    return hook


def _iris_bytes(counters, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    source = Path(path) if path is not None else resources.files("dcx").joinpath("data/iris.csv")
    counters["datasets.bytes_in"] += len(source.read_bytes())


def _emitted(counters, args, kwargs, result):
    counters["report.bytes_out"] += len(result.encode("utf-8"))


_CIFAR_NAMES = {"train": inputs.CIFAR_BATCHES[:5], "test": inputs.CIFAR_BATCHES[5:]}


def targets(dcx) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, group, hook) for every call the traced run wraps.

    Each owner is the namespace the caller looks the name up in. Groups
    that feed no metric (games.ply_entropy, datasets.binarize, report.hash)
    still keep their time out of their caller's self time.
    """
    cli, report, descriptors = dcx.cli, dcx.report, dcx.descriptors
    games, cartpole, datasets, dm = dcx.games, dcx.cartpole, dcx.datasets, dcx.dataset_metrics
    out = [
        (cli, "to_json", "report.emit", _emitted),
        (cli, "to_csv", "report.emit", _emitted),
        (cli, "to_text", "report.emit", _emitted),
        (cli, "from_json", "report.parse", None),
        (cli, "compare", "report.compare", None),
        (report.ComplexityReport, "determinism_hash", "report.hash", None),
        (games, "enumerate_states", "games.enumerate", _enumerated),
        (games, "ply_entropy", "games.ply_entropy", None),
        (cartpole, "rollout_entropy", "cartpole.rollout",
         _count("cartpole.rollout_samples", lambda a, k, r: _arg(a, k, 1, "cfg").sample_count)),
        (cartpole, "analytic_sparsity", "cartpole.sparsity", _walk_steps),
        (cartpole, "constant_action_limit", "cartpole.limit",
         _count("cartpole.limit_trials", lambda a, k, r: _arg(a, k, 1, "trials"))),
        (datasets, "load_mnist", "datasets.load",
         _image_bytes(("mnist",), inputs.MNIST_FILES)),
        (datasets, "load_cifar10", "datasets.load",
         _image_bytes(("cifar-10-batches-bin", "cifar10"), _CIFAR_NAMES)),
        (datasets, "load_iris", "datasets.load", _iris_bytes),
        (datasets, "binarize", "datasets.binarize", None),
    ]
    out += [(games, f, "games.closed_form", None)
            for f in ("ssc_upper_bound", "ssc_combinatorial", "gtc_factorial")]
    out += [(descriptors, f, "descriptors.load", None)
            for f in ("load_descriptor", "bundled_descriptor", "load_breakdown", "bundled_breakdown")]
    out += [(descriptors, f, "descriptors.measure", None)
            for f in ("state_space_complexity", "estimated_slack_log10", "environment_space_bound",
                      "game_space_complexity", "tree_complexity", "information_entropy",
                      "strategy_entropy")]
    out += [(dm, f, "dataset_metrics", None)
            for f in ("feature_space_dimensionality", "image_entropy", "channel_gini",
                      "tabular_gini", "summarize_by_class", "median_of_medians")]
    measures_sites = {
        dm: ("gini", "histogram", "shannon_entropy", "log10_product"),
        cartpole: ("histogram", "shannon_entropy"),
        cli: ("log10_product", "normalized_entropy"),
        games: ("normalized_entropy", "log10_int"),
        descriptors: ("gtc_power", "log10_int", "normalized_entropy"),
    }
    out += [(owner, f, "measures", None)
            for owner, names in measures_sites.items() for f in names]
    return out


@contextmanager
def instrument(tracer: Tracer, dcx):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, group, hook in targets(dcx):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(group, original, hook))
        build_parser = dcx.cli.build_parser

        def traced_parser():
            parser = build_parser()
            parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
            return parser

        saved.append((dcx.cli, "build_parser", build_parser))
        dcx.cli.build_parser = tracer.wrap("cli.parse", traced_parser)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


PER_LAYER_TIMES = {
    "cli.parse_s": "cli.parse",
    "report.emit_s": "report.emit",
    "report.parse_s": "report.parse",
    "report.compare_s": "report.compare",
    "descriptors.load_s": "descriptors.load",
    "descriptors.measure_s": "descriptors.measure",
    "games.enumerate_s": "games.enumerate",
    "games.closed_form_s": "games.closed_form",
    "cartpole.rollout_s": "cartpole.rollout",
    "cartpole.sparsity_s": "cartpole.sparsity",
    "cartpole.limit_s": "cartpole.limit",
    "datasets.load_s": "datasets.load",
}
PER_LAYER_SELF = {"cli.self_s": "cli.main", "dataset_metrics.s": "dataset_metrics",
                  "measures.s": "measures"}
PER_LAYER_CALLS = {"report.hash_calls": "report.hash", "dataset_metrics.calls": "dataset_metrics",
                   "measures.calls": "measures"}
PER_LAYER_COUNTS = (
    "report.bytes_out", "games.positions", "games.peak_frontier", "cartpole.rollout_samples",
    "cartpole.walk_steps", "cartpole.limit_trials", "datasets.bytes_in", "datasets.images",
)


def layer_metrics(tracer: Tracer, error_type: type) -> dict[str, float]:
    """Per-layer times and counts from one traced pass.

    A layer that did not run reads 0. Call counts include calls that
    raised; dataset_metrics.degenerate counts the outermost
    dataset_metrics calls that raised error_type (the program's DcxError).
    """
    spans = tracer.spans
    outer = outer_durations(spans)
    own = self_times(spans)
    metrics = {name: outer[group] for name, group in PER_LAYER_TIMES.items()}
    for name, group in PER_LAYER_SELF.items():
        metrics[name] = sum(t for t, s in zip(own, spans) if s.group == group)
    for name, group in PER_LAYER_CALLS.items():
        metrics[name] = sum(1 for s in spans if s.group == group)
    metrics.update({name: tracer.counters[name] for name in PER_LAYER_COUNTS})
    metrics["dataset_metrics.degenerate"] = sum(
        1 for s in spans
        if s.group == "dataset_metrics" and s.error is not None
        and issubclass(s.error, error_type)
        and (s.parent < 0 or spans[s.parent].group != "dataset_metrics")
    )
    return metrics

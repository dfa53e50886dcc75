"""Cases as data: one checked record per CLI subcommand, and `run`, which
computes a case's report with the published targets of its domain. A case
refuses, when made, a field its preset, measure or dataset does not read,
naming it by its flag; a field left at None is not given.

`run` imports the domain module that computes its case: a `GameCase` loads
`games`, a `DescriptorCase` and `CartPoleCase(measure="table")` load
`descriptors`, the other cart-pole measures `cartpole`, and a `DatasetCase`
the two dataset modules; importing this module loads none of them. numpy
comes only with a value that needs it: the search of a board of more than
nine cells, the cart-pole simulator, and the image measures that are array
kernels (CIFAR-10 gini and entropy, MNIST entropy in raw mode).
`dcx.games` states the three routes of a board's enumeration and what
each costs. The descriptor and iris entropies are summed in plain Python
in numpy's order, the iris Gini indices are exact ratios, and the image
zero fractions, binarized entropies and dimensionality are counted from
the file bytes.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import DcxError, InvalidParameter, Record
from .report import ComplexityReport, ReferenceTarget

_PUBLISHED = "published case study"
_3D_REFERENCE = _PUBLISHED + " (reference only; coupled 3d dynamics)"
_BINNING_REFERENCE = _PUBLISHED + " (reference only; binning conventions unpublished)"

_VARIANT_DESCRIPTOR = {"2d": "cartpole2d", "2dg": "cartpole2d-g", "3d": "cartpole3d"}

_3D_NOTE = (
    "3d dynamics are simplified to two independent planar cart-pole systems; "
    "published 3d values used coupled dynamics and are reference-only"
)

_CARTPOLE_2D_TABLE = (("state_space_complexity_log10", 6.0, 0.01, _PUBLISHED),
                      ("tree_complexity_uniform_sum_log10", 30.4, 0.05, _PUBLISHED),
                      ("game_space_complexity_log10", 14.0, 0.05, _PUBLISHED))

# (report domain, measure mode) -> the published targets the report
# carries, as (measure name, value, tolerance, source) in report order.
# The mode is the case's measure, or None for game, descriptor and
# cart-pole table reports. A target may name a measure its report lacks:
# `game ttt --no-enumerate` still carries the enumeration counts, and
# `descriptor pogo` the information entropy that --breakdown adds.
_REFERENCES = {
    ("ttt", None): (("ssc_combinatorial_log10", 3.78, 0.01, _PUBLISHED),
                    ("gtc_factorial_log10", 5.56, 0.01, _PUBLISHED),
                    ("legal_positions_total", 5478, 0, _PUBLISHED),
                    ("symmetry_classes_total", 765, 0, _PUBLISHED)),
    ("qubic", None): (("ssc_combinatorial_log10", 30, 1, _PUBLISHED),
                      ("gtc_factorial_log10", 34, 1, _PUBLISHED)),
    ("pogo", None): (("state_space_complexity_log10", 60.1, 0.1, _PUBLISHED),
                     ("tree_complexity_power_log10", 816.7, 0.1, _PUBLISHED),
                     ("game_space_complexity_log10", 65.0, 0.1, _PUBLISHED),
                     ("information_entropy", 0.870, 0.005, _PUBLISHED)),
    ("cartpole2d", None): _CARTPOLE_2D_TABLE,
    ("cartpole2d-g", None): _CARTPOLE_2D_TABLE,
    ("cartpole3d", None): (("state_space_complexity_log10", 24.0, 0.01, _PUBLISHED),
                           ("tree_complexity_uniform_sum_log10", 60.3, 0.05, _PUBLISHED),
                           ("game_space_complexity_log10", 27.2, 0.05, _PUBLISHED)),
    ("monopoly", None): (("strategy_entropy_railroads", 0.52, 0.01, _PUBLISHED),
                         ("strategy_entropy_boardwalk", 0.90, 0.01, _PUBLISHED)),
    ("cartpole2d", "limit"): (("constant_action_limit", 9.37, 1.0, _PUBLISHED),),
    ("cartpole2d-g", "limit"): (("constant_action_limit", 9.22, 1.0, _PUBLISHED),),
    ("cartpole3d", "limit"): (("constant_action_limit", 10.6, 1.0, _3D_REFERENCE),),
    ("cartpole2d", "sparsity"): (("analytic_sparsity", 0.1171, 0.02, _PUBLISHED),),
    ("cartpole2d-g", "sparsity"): (("analytic_sparsity", 0.1118, 0.02, _PUBLISHED),),
    ("cartpole3d", "sparsity"): (("analytic_sparsity", 0.054, 0.02, _3D_REFERENCE),),
    ("cartpole2d", "entropy"): (("feature_entropy_sum_bits", 20.556, 0.0, _BINNING_REFERENCE),
                                ("action_entropy_bits", 0.999, 0.01, _PUBLISHED)),
    ("cartpole2d-g", "entropy"): (("feature_entropy_sum_bits", 17.626, 0.0, _BINNING_REFERENCE),
                                  ("action_entropy_bits", 1.0, 0.01, _PUBLISHED)),
    ("cartpole3d", "entropy"): (("feature_entropy_sum_bits", 99.999, 0.0, _BINNING_REFERENCE),
                                ("action_entropy_bits", 2.322, 0.01, _PUBLISHED)),
    ("mnist", "sparsity"): (("zero_sparsity_mean", 0.813, 0.01, _PUBLISHED),),
    ("mnist", "entropy"): (("entropy_median_of_medians", 0.090, 0.02, _PUBLISHED),),
    ("cifar10", "gini"): (("gini_median_red", 0.235, 0.01, _PUBLISHED),
                          ("gini_median_green", 0.237, 0.01, _PUBLISHED),
                          ("gini_median_blue", 0.26, 0.01, _PUBLISHED)),
    ("cifar10", "entropy"): (("entropy_median_of_medians", 0.925, 0.02, _PUBLISHED),
                             ("entropy_median_bird", 0.892, 0.02, _PUBLISHED),
                             ("entropy_median_truck", 0.946, 0.02, _PUBLISHED)),
}

_BOARD, _FILES = ("side", "dims", "plies", "win"), ("split", "data_dir")

# (subcommand, the values that choose a case) -> the optional fields that
# case reads: those some case of the subcommand reads, which the others
# refuse. iris is bundled and whole, so has no files, split or binarizing
# to choose; of the images only MNIST dimensionality and entropy binarize.
_READS = {
    ("game", "ttt"): (), ("game", "qubic"): (), ("game", "custom"): _BOARD,
    **{("cartpole", variant, measure): reads
       for variant in _VARIANT_DESCRIPTOR
       for measure, reads in (("table", ()), ("limit", ("trials",)),
                              ("entropy", ("samples", "bins")),
                              ("sparsity", ("trials", "limit", "episode_length")))},
    **{("dataset", name, measure): reads
       for measure in ("dimensionality", "sparsity", "gini", "entropy")
       for name, reads in (("iris", ()), ("cifar10", _FILES),
                           ("mnist", _FILES if measure in ("sparsity", "gini")
                            else ("mode", *_FILES)))},
}


def _refuse_unread(case: Record, key: tuple, what: str) -> None:
    """InvalidParameter unless _READS lists key, or when case sets a field of
    key's subcommand that key's case does not read; what leads the refusal."""
    if key not in _READS:
        raise InvalidParameter(f"unknown {key[0]} case {' '.join(map(repr, key[1:]))}")
    flags = ["--" + name.replace("_", "-") for name in case._fields
             if getattr(case, name) is not None and name not in _READS[key]
             and any(k[0] == key[0] and name in reads for k, reads in _READS.items())]
    if flags:
        raise InvalidParameter(f"{what} does not read {' '.join(flags)}")


def _resolve(source: str, kind: str):
    # a descriptor or breakdown (kind) from an existing file, else from a bare
    # name among the bundled ones: a path must exist
    from . import descriptors

    path = Path(source)
    if path.is_file():
        return getattr(descriptors, f"load_{kind}")(path)
    names = getattr(descriptors, f"BUNDLED_{kind.upper()}S")
    stem = source.removesuffix(".json")
    stem = stem.removesuffix("_breakdown") if kind == "breakdown" else stem
    if path.name == source and stem in names:
        return getattr(descriptors, f"bundled_{kind}")(stem)
    raise DcxError(f"{source!r} is neither a {kind} file nor a bundled name {names}")


class GameCase(Record):
    """Grid game ttt, qubic or custom: side cells per edge in dims dimensions,
    played to plies with lines of win. enumerate=False skips the search."""

    preset: str
    side: int | None = None
    dims: int | None = None
    plies: int | None = None
    win: int | None = None
    avg_length: int | None = None
    enumerate: bool = True

    def __post_init__(self) -> None:
        _refuse_unread(self, ("game", self.preset), f"game {self.preset}")
        missing = [name for name in _BOARD if getattr(self, name) is None]
        if self.preset == "custom" and missing:
            raise DcxError(f"custom games need --side --dims --plies --win (missing {missing})")

    def _measure(self):
        from . import games

        if self.preset != "custom":
            spec, name = games.preset(self.preset), self.preset
        else:
            spec = games.GridGameSpec(side=self.side, dims=self.dims,
                                      max_plies=self.plies, win_length=self.win)
            name = f"grid_{spec.side}x{spec.dims}d_win{spec.win_length}"
        measures, notes = games.grid_measures(spec, self.avg_length, self.enumerate)
        return name, None, measures, notes, None


class DescriptorCase(Record):
    """A descriptor and optional information breakdown: files or bundled names."""

    source: str
    breakdown: str | None = None

    def __post_init__(self) -> None:
        for value in (self.source, "" if self.breakdown is None else self.breakdown):
            if not isinstance(value, str):
                raise InvalidParameter(f"expected a file path or a bundled name, not {value!r}")

    def _measure(self):
        from . import descriptors

        d = _resolve(self.source, "descriptor")
        breakdown = _resolve(self.breakdown, "breakdown") if self.breakdown else None
        measures, notes = descriptors.descriptor_measures(d, breakdown)
        return d.name, None, measures, notes, None


class CartPoleCase(Record):
    """Cart-pole measure table, limit, sparsity or entropy of variant 2d, 2dg or 3d."""

    measure: str = "table"
    variant: str = "2d"
    trials: int | None = None
    samples: int | None = None
    bins: int | None = None
    limit: float | None = None
    episode_length: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        key = ("cartpole", self.variant, self.measure)
        _refuse_unread(self, key, f"cartpole --measure {self.measure}")
        if self.limit is not None and self.trials is not None:
            raise InvalidParameter("--trials measures the sparsity band, which --limit gives")

    def _measure(self):
        domain = _VARIANT_DESCRIPTOR[self.variant]
        lead = [_3D_NOTE] if self.variant == "3d" else []
        if self.measure == "table":
            from .descriptors import bundled_descriptor, descriptor_measures

            measures, notes = descriptor_measures(bundled_descriptor(domain))
            return domain, None, measures, lead + notes, None

        from . import cartpole as cp

        reads = _READS["cartpole", self.variant, self.measure]
        given = {name: getattr(self, name) for name in reads if getattr(self, name) is not None}
        if self.measure == "entropy":  # the one sampled cart-pole measure
            given["seed"] = self.seed
        build = getattr(cp, f"{self.measure}_measures")
        measures, notes = build(cp.params_for_variant(self.variant), **given)
        return domain, self.measure, measures, lead + notes, given.get("seed")


class DatasetCase(Record):
    """Dataset measure dimensionality, sparsity, gini or entropy of iris, or of
    mnist or cifar10 in data_dir, else $DCX_DATA_DIR, else ./data."""

    name: str
    measure: str = "dimensionality"
    mode: str | None = None
    split: str | None = None
    data_dir: str | Path | None = None

    def __post_init__(self) -> None:
        what = f"{self.name} --measure {self.measure}" if self.name == "mnist" else self.name
        _refuse_unread(self, ("dataset", self.name, self.measure), f"dataset {what}")
        if self.mode not in (None, "raw", "binarized"):
            raise InvalidParameter(f"mode must be raw or binarized, not {self.mode!r}")
        if self.data_dir is not None and not isinstance(self.data_dir, (str, os.PathLike)):
            raise InvalidParameter(f"data_dir must be a path, not {self.data_dir!r}")

    def _measure(self):
        from . import dataset_metrics as dm
        from . import datasets

        name = self.name
        if name == "iris":
            measures, notes = dm.iris_measures(datasets.load_iris(), self.measure)
            return name, self.measure, measures, notes, None
        split = self.split or ("train" if name == "mnist" and self.measure == "entropy" else "all")
        directory = Path(self.data_dir or os.environ.get("DCX_DATA_DIR") or "data")
        stream = datasets.stream_mnist if name == "mnist" else datasets.stream_cifar10
        try:
            source = stream(directory, split=split)
        except FileNotFoundError as exc:
            raise DcxError(f"{name} files not found: {exc}; "
                           "pass --data-dir or set DCX_DATA_DIR") from exc
        measures, notes = dm.image_measures(name, source, self.measure, self.mode, split)
        return name, self.measure, measures, notes, None


def run(case: GameCase | DescriptorCase | CartPoleCase | DatasetCase) -> ComplexityReport:
    """case's report, carrying the published targets of its domain."""
    # the report domain and measure mode, which key _REFERENCES, then the
    # measures, the notes, and the seed (None where no value depends on it)
    domain, mode, measures, notes, seed = case._measure()
    targets = tuple(ReferenceTarget(*row) for row in _REFERENCES.get((domain, mode), ()))
    return ComplexityReport(domain, tuple(measures), targets, seed=seed, notes=tuple(notes))

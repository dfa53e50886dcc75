"""Domain complexity estimation.

Measures the size and difficulty of action domains (board games,
control problems, resource games) and perception domains (image and
tabular datasets) along three families: dimensionality (how big the
space is), sparsity (how rare success or signal is), and diversity
(how spread out the content is).

Names are exported lazily (PEP 562): a name's module is imported the
first time the name is read, so `import dcx` loads neither numpy nor any
submodule, and the closed-form measures never pay for numpy.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "cartpole": (
        "CartPoleParams",
        "RolloutConfig",
        "analytic_sparsity",
        "constant_action_limit",
        "params_for_variant",
        "rollout_entropy",
    ),
    "dataset_metrics": (
        "ClassSummary",
        "channel_gini",
        "channel_ginis",
        "feature_space_dimensionality",
        "image_entropies",
        "image_entropy",
        "image_zero_sparsities",
        "median_of_medians",
        "summarize_by_class",
        "tabular_gini",
    ),
    "datasets": (
        "LabeledImageDataset",
        "TabularDataset",
        "binarize",
        "load_cifar10",
        "load_iris",
        "load_mnist",
        "parse_cifar10",
        "parse_idx",
        "parse_iris_csv",
    ),
    "descriptors": (
        "BreakdownElement",
        "Component",
        "DomainDescriptor",
        "InformationBreakdown",
        "bundled_breakdown",
        "bundled_descriptor",
        "environment_space_bound",
        "game_space_complexity",
        "information_entropy",
        "load_breakdown",
        "load_descriptor",
        "path_sparsity_bound",
        "state_space_complexity",
        "strategy_entropy",
        "tree_complexity",
    ),
    "errors": (
        "DcxError",
        "DegenerateInput",
        "FormatError",
        "InvalidDistribution",
        "InvalidParameter",
        "InvalidValue",
        "ResourceLimit",
        "TruncatedInput",
    ),
    "games": (
        "GridGameSpec",
        "enumerate_states",
        "gtc_factorial",
        "ply_entropy",
        "preset",
        "ssc_combinatorial",
        "ssc_upper_bound",
        "win_lines",
    ),
    "measures": (
        "Histogram",
        "MeasureResult",
        "Provenance",
        "gini",
        "gtc_power",
        "histogram",
        "log10_product",
        "normalized_entropy",
        "shannon_entropy",
    ),
    "report": ("ComplexityReport", "ReferenceTarget", "compare", "from_json", "to_json"),
}

# public name -> (submodule, attribute there)
_SOURCES = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_SOURCES["__version__"] = ("report", "TOOL_VERSION")

_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    elif name in _SOURCES:
        module, attribute = _SOURCES[name]
        value = getattr(import_module(f".{module}", __name__), attribute)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCES) | _SUBMODULES)

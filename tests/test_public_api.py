"""The 70 names `dcx` exports, each the object its defining module holds,
resolved on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcx

EXPORTED = {
    "BreakdownElement", "CartPoleParams", "ClassSummary", "ComplexityReport", "Component",
    "DcxError", "DegenerateInput", "DomainDescriptor", "FormatError", "GridGameSpec",
    "Histogram", "InformationBreakdown", "InvalidDistribution", "InvalidParameter",
    "InvalidValue", "LabeledImageDataset", "MeasureResult", "Provenance",
    "ReferenceTarget", "ResourceLimit", "RolloutConfig", "TabularDataset", "TruncatedInput",
    "analytic_sparsity", "binarize", "bundled_breakdown", "bundled_descriptor",
    "channel_gini", "channel_ginis", "compare", "constant_action_limit", "enumerate_states",
    "environment_space_bound", "feature_space_dimensionality", "from_json",
    "game_space_complexity", "gini", "gtc_factorial", "gtc_power", "histogram",
    "image_entropies", "image_entropy", "image_zero_sparsities",
    "information_entropy", "load_breakdown", "load_cifar10", "load_descriptor", "load_iris",
    "load_mnist", "log10_product", "median_of_medians", "normalized_entropy",
    "params_for_variant", "parse_cifar10", "parse_idx", "parse_iris_csv",
    "path_sparsity_bound", "ply_entropy", "preset", "rollout_entropy", "shannon_entropy",
    "ssc_combinatorial", "ssc_upper_bound", "state_space_complexity", "strategy_entropy",
    "summarize_by_class", "tabular_gini", "to_json", "tree_complexity", "win_lines",
}

SUBMODULES = (
    "cartpole", "cli", "dataset_metrics", "datasets", "descriptors", "errors", "games",
    "measures", "report",
)


def run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(dcx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )


def test_all_lists_the_exported_names_once():
    assert len(dcx.__all__) == len(EXPORTED) == 70
    assert set(dcx.__all__) == EXPORTED
    assert EXPORTED <= set(dir(dcx))


def test_each_name_is_its_defining_modules_object():
    # every export is a class or function, so __module__ names where it lives
    strays = [
        name
        for name in sorted(EXPORTED)
        if not getattr(dcx, name).__module__.startswith("dcx.")
        or getattr(importlib.import_module(getattr(dcx, name).__module__), name)
        is not getattr(dcx, name)
    ]
    assert strays == []


def test_version_is_the_report_tool_version():
    assert dcx.__version__ == dcx.report.TOOL_VERSION


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_attributes(name):
    assert getattr(dcx, name) is importlib.import_module(f"dcx.{name}")


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        dcx.nosuch
    assert not hasattr(dcx, "TOOL_VERSION")


def test_star_import_in_a_fresh_interpreter():
    code = (
        "from dcx import *\n"
        "import dcx\n"
        "missing = [n for n in dcx.__all__ if n not in globals()]\n"
        "print(len(dcx.__all__), missing)\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "70 []"


def test_names_resolve_lazily_in_a_fresh_interpreter():
    # a bare import loads no submodule; reading one name loads its module
    # (and what that module imports), and the name is then cached
    code = (
        "import sys\n"
        "import dcx\n"
        "print(sorted(m for m in sys.modules if m.startswith('dcx.')))\n"
        "dcx.gtc_factorial\n"
        "print('dcx.games' in sys.modules, 'numpy' in sys.modules, 'gtc_factorial' in vars(dcx))\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "True False True"]

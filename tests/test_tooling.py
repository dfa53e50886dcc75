"""What tools outside the package read from it: the build's version
attribute, and the functions the traced benchmark run wraps and the
arguments its counters read."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcx
import dcx.cli

ROOT = Path(__file__).resolve().parents[1]


def test_build_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    attr = project["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module, name = attr.rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) == dcx.__version__


def test_every_traced_target_resolves(monkeypatch):
    # `perfbench/run.py --trace 1` replaces each (owner, attribute) that
    # spans.targets names; one that no longer resolves fails the run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    unresolved = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _group, _hook in spans.targets(dcx)
        if not callable(getattr(owner, attr, None))
    ]
    assert unresolved == []
    assert callable(dcx.cli.build_parser) and callable(dcx.cli.main)


def test_every_traced_target_resolves_after_a_bare_import():
    # dcx exports its submodules lazily, so targets() must resolve them
    # itself in a fresh interpreter where only `import dcx` has run
    src = str(Path(dcx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys\n"
        "import dcx\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import spans\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('dcx.'))\n"
        "unresolved = [f'{getattr(o, \"__name__\", o)}.{a}'\n"
        "              for o, a, _g, _h in spans.targets(dcx) if not callable(getattr(o, a, None))]\n"
        "print(loaded, unresolved)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[] []"


@pytest.mark.parametrize(
    ("argv", "cap"),
    [
        (["--measure", "limit", "--trials", "1234"], 1234),
        (["--variant", "3d", "--measure", "sparsity", "--trials", "300"], 300),
        (["--variant", "2dg", "--measure", "sparsity"], 10_000),
    ],
)
def test_limit_trials_counter_reads_the_cap(monkeypatch, argv, cap):
    # the traced benchmark counts cartpole.limit_trials from the second
    # argument of constant_action_limit, which is the cap on the start
    # states its quadrature steps, whatever number it steps below it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    with spans.instrument(tracer, dcx):
        assert dcx.cli.main(["--out", os.devnull, "cartpole", *argv]) == 0
    assert tracer.counters["cartpole.limit_trials"] == cap

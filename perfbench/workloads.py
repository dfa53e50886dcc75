"""The four benchmark workloads, each a list of ``dcx`` invocations.

Every invocation carries the exit code it must end with and the value
checks the benchmark can make without trusting the code under test. The
generic checks (exit code, tracebacks, hashes, value ranges) live in
``check.py``; the per-invocation ones here use only facts the benchmark
knows independently: published enumeration counts, closed-form sums and
the zero fractions of the arrays it generated itself.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

# Paper scale is 70,000 MNIST and 60,000 CIFAR images. A quarter keeps
# every per-image loop several times longer than process start-up while a
# pass over the workload fits the run time more than once.
IMAGE_COUNTS = inputs.ImageCounts(mnist_train=15_000, mnist_test=2_500, cifar_per_batch=2_500)

GAME_BOARDS = (
    {"side": 4, "dims": 2, "plies": 6, "win": 4},
    {"side": 4, "dims": 2, "plies": 6, "win": 3},
)
ROLLOUT_SAMPLES = 200_000
LIMIT_TRIALS = 1_000_000
# cartpole --measure sparsity defaults: 100k walks of 200 steps, limit from 10k trials
SPARSITY_SAMPLES = 100_000
SPARSITY_LENGTH = 200
SPARSITY_LIMIT_TRIALS = 10_000

TTT_POSITIONS = 5478
TTT_CLASSES = 765

Values = dict[str, float]
Check = Callable[[Values, dict], list[str]]


@dataclass(frozen=True)
class Invocation:
    """One ``dcx`` command line and what its output must satisfy.

    ``output`` names the output kind: ``report`` (JSON report), ``text``,
    ``csv``, ``compare`` (JSON rows) or ``error`` (nothing on stdout).
    ``out`` is the file a ``--out`` invocation writes its report to.
    """

    argv: tuple[str, ...]
    output: str = "report"
    exit_code: int = 0
    out: Path | None = None
    check: Check | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    facts: dict = field(default_factory=dict)


def _json(*args: str) -> tuple[str, ...]:
    return ("--format", "json", *args)


def _need(values: Values, *names: str) -> list[str]:
    return [f"measure {n} missing" for n in names if n not in values]


def _equal(values: Values, name: str, expected: float, tol: float = 0.0) -> list[str]:
    if name not in values:
        return [f"measure {name} missing"]
    if abs(values[name] - expected) > tol:
        return [f"{name} = {values[name]!r}, expected {expected!r}"]
    return []


def _arrangement_total(cells: int, plies: int) -> int:
    """Sum over plies of the stone-count arrangements, computed independently."""
    return sum(
        math.comb(cells, (i + 1) // 2) * math.comb(cells - (i + 1) // 2, i // 2)
        for i in range(1, plies + 1)
    )


def _check_ttt(values: Values, _report: dict) -> list[str]:
    return _equal(values, "legal_positions_total", TTT_POSITIONS) + _equal(
        values, "symmetry_classes_total", TTT_CLASSES
    )


def _check_board(board: dict) -> Check:
    total = _arrangement_total(board["side"] ** board["dims"], board["plies"])

    def check(values: Values, _report: dict) -> list[str]:
        problems = _equal(values, "ssc_combinatorial_total", total)
        problems += _need(values, "legal_positions_total", "symmetry_classes_total")
        if problems:
            return problems
        legal = values["legal_positions_total"]
        if (board["plies"] + 1) // 2 < board["win"]:
            # no player can complete a line within the plies, so every
            # arrangement is reachable, and the empty board adds one
            problems += _equal(values, "legal_positions_total", total + 1)
        elif not legal < total + 1:
            problems.append(f"wins must halt expansion: {legal} >= {total + 1}")
        if not values["symmetry_classes_total"] < legal:
            problems.append("symmetry classes must be fewer than positions")
        return problems

    return check


def games(cache: Path, seed: int) -> Workload:
    invocations = [
        Invocation(
            _json("--seed", str(seed), "game", "custom", "--side", str(b["side"]),
                  "--dims", str(b["dims"]), "--plies", str(b["plies"]), "--win", str(b["win"])),
            check=_check_board(b),
        )
        for b in GAME_BOARDS
    ]
    invocations.append(Invocation(_json("--seed", str(seed), "game", "ttt"), check=_check_ttt))
    return Workload("games", invocations, {"boards": list(GAME_BOARDS) + ["ttt"]})


def _check_rollout(action_count: int, state_size: int) -> Check:
    def check(values: Values, _report: dict) -> list[str]:
        problems = _need(values, "feature_entropy_sum_bits", "action_entropy_bits")
        if problems:
            return problems
        if not 0 < values["action_entropy_bits"] <= math.log2(action_count) + 1e-12:
            problems.append(f"action_entropy_bits outside (0, log2 {action_count}]")
        if not 0 < values["feature_entropy_sum_bits"] <= 8 * state_size:
            problems.append(f"feature_entropy_sum_bits outside (0, {8 * state_size}]")
        return problems

    return check


def _check_sparsity(values: Values, _report: dict) -> list[str]:
    problems = _need(values, "analytic_sparsity", "action_limit_band")
    if not problems and not values["action_limit_band"] > 0:
        problems.append("action_limit_band must be positive")
    return problems


def _check_limit(values: Values, _report: dict) -> list[str]:
    problems = _need(values, "constant_action_limit")
    if not problems and not values["constant_action_limit"] >= 1:
        problems.append("constant_action_limit counts the failing push, so it is >= 1")
    return problems


def cartpole(cache: Path, seed: int) -> Workload:
    base = ("--seed", str(seed), "cartpole", "--variant")
    sizes = {"2d": (2, 4), "3d": (4, 8)}
    invocations = [
        Invocation(
            _json(*base, v, "--measure", "entropy", "--samples", str(ROLLOUT_SAMPLES)),
            check=_check_rollout(*sizes[v]),
        )
        for v in ("2d", "3d")
    ]
    invocations += [
        Invocation(_json(*base, v, "--measure", "sparsity"), check=_check_sparsity)
        for v in ("2d", "3d")
    ]
    invocations.append(
        Invocation(
            _json(*base, "2dg", "--measure", "limit", "--trials", str(LIMIT_TRIALS)),
            check=_check_limit,
        )
    )
    facts = {
        "rollout_samples": ROLLOUT_SAMPLES,
        "limit_trials": LIMIT_TRIALS,
        "sparsity_walks": SPARSITY_SAMPLES,
        "sparsity_length": SPARSITY_LENGTH,
        "sparsity_limit_trials": SPARSITY_LIMIT_TRIALS,
    }
    return Workload("cartpole", invocations, facts)


def _check_zero_fraction(expected: float) -> Check:
    def check(values: Values, _report: dict) -> list[str]:
        return _equal(values, "zero_sparsity_mean", expected, tol=1e-12)

    return check


_SKIPPED = re.compile(r"(\d+) all-zero channel planes skipped")


def _check_degenerate(expected: int) -> Check:
    def check(values: Values, report: dict) -> list[str]:
        problems = _need(values, "gini_median_red", "gini_median_green", "gini_median_blue")
        found = [int(m.group(1)) for n in report["notes"] if (m := _SKIPPED.search(n))]
        if found != ([expected] if expected else []):
            problems.append(f"skipped planes {found}, generated {expected}")
        return problems

    return check


def _check_entropy(values: Values, _report: dict) -> list[str]:
    return _need(values, "entropy_median_of_medians")


def images(cache: Path, seed: int) -> Workload:
    directory, manifest = inputs.ensure_images(cache, seed, IMAGE_COUNTS)

    def data(name: str, measure: str, check: Check) -> Invocation:
        return Invocation(
            _json("--seed", str(seed), "dataset", name, "--measure", measure,
                  "--data-dir", str(directory)),
            check=check,
        )

    invocations = [
        data("cifar10", "sparsity", _check_zero_fraction(manifest["cifar_zero_fraction"])),
        data("cifar10", "gini", _check_degenerate(manifest["cifar_degenerate_planes"])),
        data("cifar10", "entropy", _check_entropy),
        data("mnist", "sparsity", _check_zero_fraction(manifest["mnist_zero_fraction"])),
        data("mnist", "entropy", _check_entropy),
    ]
    return Workload("images", invocations, {"inputs": manifest})


def _check_iris_gini(values: Values, _report: dict) -> list[str]:
    count = sum(1 for n in values if n.startswith("gini_"))
    return [] if count == 12 else [f"{count} gini cells, expected 3 classes x 4 features"]


def _check_iris_entropy(values: Values, _report: dict) -> list[str]:
    # iris holds 50 rows of each of its 3 classes
    return _equal(values, "class_distribution_entropy", 1.0, tol=1e-12)


def _check_ttt_sum(values: Values, _report: dict) -> list[str]:
    return _equal(values, "ssc_combinatorial_total", _arrangement_total(9, 9))


DESCRIPTORS = ("cartpole2d", "cartpole2d-g", "cartpole3d", "monopoly", "pogo")


def cli(cache: Path, seed: int) -> Workload:
    directory = cache / f"cli-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    ttt, qubic = directory / "ttt.json", directory / "qubic.json"
    invocations = [Invocation(_json("descriptor", name)) for name in DESCRIPTORS]
    invocations.append(Invocation(("descriptor", "pogo", "--breakdown", "pogo"), output="text"))
    invocations += [
        Invocation(("--format", "csv", "cartpole", "--variant", v, "--measure", "table"),
                   output="csv")
        for v in ("2d", "2dg", "3d")
    ]
    invocations += [
        Invocation(_json("--out", str(ttt), "game", "ttt", "--no-enumerate"), out=ttt,
                   check=_check_ttt_sum),
        Invocation(_json("--out", str(qubic), "game", "qubic"), out=qubic),
    ]
    iris_checks = {"gini": _check_iris_gini, "sparsity": _check_iris_gini,
                   "entropy": _check_iris_entropy}
    invocations += [
        Invocation(_json("--seed", str(seed), "dataset", "iris", "--measure", m),
                   check=iris_checks.get(m))
        for m in ("dimensionality", "sparsity", "gini", "entropy")
    ]
    invocations += [
        Invocation(_json("compare", str(ttt), str(qubic)), output="compare"),
        Invocation(_json("compare", str(qubic), str(ttt)), output="compare"),
        Invocation(("descriptor", "nosuch"), output="error", exit_code=1),
        Invocation(("cartpole", "--variant", "4d"), output="error", exit_code=2),
    ]
    return Workload("cli", invocations, {"descriptors": list(DESCRIPTORS)})


WORKLOADS = {"images": images, "games": games, "cartpole": cartpole, "cli": cli}

"""Tests of the benchmark itself: the input generator, the output checker,
the spawn helper, the reference loop and the span arithmetic. Run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import gzip
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dcx import to_json  # noqa: E402
from dcx.errors import DcxError, DegenerateInput  # noqa: E402
from dcx.measures import ANALYTIC, MeasureResult  # noqa: E402
from dcx.report import ComplexityReport  # noqa: E402

SMALL = inputs.ImageCounts(mnist_train=12, mnist_test=4, cifar_per_batch=30)


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_generator_is_deterministic(tmp_path):
    a = inputs.write_images(tmp_path / "a", 5, SMALL)
    b = inputs.write_images(tmp_path / "b", 5, SMALL)
    c = inputs.write_images(tmp_path / "c", 6, SMALL)
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert a["files"]["mnist/train-images-idx3-ubyte.gz"] > 0


def test_generator_records_the_zero_fractions_it_wrote(tmp_path):
    manifest = inputs.write_images(tmp_path, 3, SMALL)
    pixels = []
    for name in ("train-images-idx3-ubyte.gz", "t10k-images-idx3-ubyte.gz"):
        raw = gzip.decompress((tmp_path / "mnist" / name).read_bytes())
        pixels.append(np.frombuffer(raw[16:], dtype=np.uint8))
    mnist = np.concatenate(pixels)
    assert mnist.size == (SMALL.mnist_train + SMALL.mnist_test) * 28 * 28
    assert manifest["mnist_zero_fraction"] == np.count_nonzero(mnist == 0) / mnist.size
    records = np.concatenate([
        np.frombuffer((tmp_path / "cifar-10-batches-bin" / n).read_bytes(), dtype=np.uint8)
        for n in inputs.CIFAR_BATCHES
    ]).reshape(-1, 3073)
    planes = records[:, 1:].reshape(-1, 3, 1024)
    assert manifest["cifar_zero_fraction"] == np.count_nonzero(planes == 0) / planes.size
    assert manifest["cifar_degenerate_planes"] == int((planes.max(axis=2) == 0).sum())


def test_ensure_images_keeps_one_seed(tmp_path):
    first, _ = inputs.ensure_images(tmp_path, 1, SMALL)
    stamp = (first / "mnist" / "train-images-idx3-ubyte.gz").stat().st_mtime_ns
    again, _ = inputs.ensure_images(tmp_path, 1, SMALL)
    assert (again / "mnist" / "train-images-idx3-ubyte.gz").stat().st_mtime_ns == stamp
    inputs.ensure_images(tmp_path, 2, SMALL)
    assert [p.name for p in tmp_path.iterdir()] == ["images-seed2"]


def _report(**values: float) -> str:
    measures = tuple(MeasureResult(n, v, "test convention", ANALYTIC) for n, v in values.items())
    return to_json(ComplexityReport(domain_name="t", measures=measures))


TTT = workloads.Invocation(("game", "ttt"), check=workloads._check_ttt)
TTT_OK = _report(legal_positions_total=5478.0, symmetry_classes_total=765.0)


def test_checker_accepts_a_correct_report():
    problems, digest = check.check_output(TTT, 0, TTT_OK, "")
    assert problems == []
    assert digest == json.loads(TTT_OK)["determinism_hash"]


def test_checker_flags_a_wrong_exit_code():
    problems, _ = check.check_output(TTT, 1, TTT_OK, "")
    assert problems == ["exit code 1, expected 0"]
    error = workloads.Invocation(("descriptor", "nosuch"), output="error", exit_code=1)
    assert check.check_output(error, 0, "", "")[0] == ["exit code 0, expected 1"]
    assert check.check_output(error, 1, "", "dcx: no such descriptor\n")[0] == []


def test_checker_flags_a_traceback():
    stderr = 'Traceback (most recent call last):\n  File "x"\nTypeError: boom\n'
    problems, _ = check.check_output(TTT, 0, TTT_OK, stderr)
    assert problems == ["traceback on stderr"]


def test_checker_flags_a_hash_mismatch():
    payload = json.loads(TTT_OK)
    payload["measures"][0]["value"] = 5479.0
    problems, _ = check.check_output(TTT, 0, json.dumps(payload), "")
    assert any("differs from the recomputed one" in p for p in problems)


def test_checker_flags_broken_invariants():
    wrong = _report(legal_positions_total=5477.0, symmetry_classes_total=765.0)
    assert check.check_output(TTT, 0, wrong, "")[0] == [
        "legal_positions_total = 5477.0, expected 5478"
    ]
    plain = workloads.Invocation(("dataset", "iris"))
    problems, _ = check.check_output(plain, 0, _report(gini_x=1.5, entropy_y=-0.1), "")
    assert problems == ["gini_x = 1.5 outside [0, 1]", "entropy_y = -0.1 outside [0, 1]"]
    board = workloads.Invocation(("game",), check=workloads._check_board(workloads.GAME_BOARDS[0]))
    short = _report(ssc_combinatorial_total=216696.0, legal_positions_total=216696.0,
                    symmetry_classes_total=30000.0)
    assert check.check_output(board, 0, short, "")[0] == [
        "legal_positions_total = 216696.0, expected 216697"
    ]


def test_ledger_flags_output_that_changes_within_a_seed(tmp_path):
    path = tmp_path / "digests.json"
    ledger = run.Ledger(path)
    ledger.record("game ttt", [], "aaa")
    ledger.record("game ttt", [], "aaa")
    ledger.save()
    later = run.Ledger(path)
    later.record("game ttt", [], "bbb")
    assert (later.attempted, later.failed) == (1, 1)
    assert "differs from an earlier run" in later.problems[0]


def test_spawner_reports_the_childs_own_peak_memory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / run.CACHE).mkdir(parents=True)
    ballast = np.ones(50_000_000 // 8)  # raises this process's peak by 50 MB
    with run.Spawner() as spawner:
        outcome = spawner.run([sys.executable, "-c", "print('hi')"], time.perf_counter() + 60)
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert (outcome.exit_code, outcome.stdout) == (0, "hi\n")
    assert outcome.max_rss_kb / 1024 < own_mb - ballast.nbytes / 2**20


def test_spawner_kills_a_child_at_the_deadline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / run.CACHE).mkdir(parents=True)
    with run.Spawner() as spawner:
        outcome = spawner.run([sys.executable, "-c", "import time; time.sleep(60)"],
                              time.perf_counter())
    assert outcome.exit_code == -9
    assert outcome.wall_s < 30


def test_reference_loop_is_the_same_work_every_time():
    a, b = (run.Reference(size=1000, probes=500, rows=20, stream=1000) for _ in range(2))
    assert (a._keys, a._order) == (b._keys, b._order)
    assert (a._rows == b._rows).all()
    assert len(set(a._order)) > 300  # probes spread over the table
    assert 0 < a.seconds() < 5


def _span(group, start, end, parent=-1):
    return spans.Span(group, group, start, end, parent)


def test_self_time_subtracts_child_coverage():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("games.enumerate", 1.0, 3.0, 0),
        _span("measures", 2.5, 4.0, 0),  # overlaps its sibling by 0.5
        _span("dataset_metrics", 5.0, 6.0, 0),
        _span("measures", 5.2, 5.8, 3),
        _span("measures", 9.5, 11.0, 0),  # runs past its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3.0 - 1.0 - 0.5, 2.0, 1.5, 0.4, 0.6, 1.5])


def test_outer_durations_count_nested_calls_of_a_group_once():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("descriptors.measure", 1.0, 4.0, 0),
        _span("measures", 1.5, 2.0, 1),
        _span("descriptors.measure", 2.0, 3.0, 2),
        _span("descriptors.measure", 5.0, 6.0, 0),
    ]
    assert spans.outer_durations(tree)["descriptors.measure"] == pytest.approx(4.0)


def test_tracer_links_parents_and_counts_errors():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def failing():
        raise DegenerateInput("all-zero plane")

    inner = tracer.wrap("dataset_metrics", failing)

    def outer():
        for _ in range(2):
            try:
                inner()
            except DcxError:
                pass
        return "ok"

    assert tracer.wrap("cli.main", outer)() == "ok"
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    metrics = spans.layer_metrics(tracer, DcxError)
    assert metrics["dataset_metrics.degenerate"] == 2
    assert metrics["dataset_metrics.calls"] == 2
    assert metrics["cli.self_s"] == pytest.approx(5.0 - 2.0)
    assert metrics["dataset_metrics.s"] == pytest.approx(2.0)

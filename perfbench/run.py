"""Benchmark for ``dcx``: run one workload and print its metrics.

    python3 perfbench/run.py --workload games --seed 1 --seconds 28 --trace 0

Run from anywhere; the benchmark works on the checkout it lives in, whose
``src/dcx`` it runs.

With ``--trace 0`` each pass over the workload starts every invocation as
a fresh ``python -m dcx.cli`` process, one at a time, with tracing off.
There are at least three passes (MIN_PASSES), and more while another fits
in ``--seconds``. The end-to-end metrics:

    wall_norm_s  wall_s at the reference host speed: wall_s times
                 REFERENCE_NOMINAL_S over the run's median reference time
    cpu_norm_s   cpu_s scaled the same way
    setup_s      median wall time of ``dcx --help`` (interpreter start,
                 numpy and dcx import, parser build), run twice per pass
    peak_rss_mb  the largest max-RSS of any single dcx process

where wall_s is the sum over the workload's invocations of each one's
median wall time across passes (what a user waits for), and cpu_s the same
for user + system CPU from os.wait4. Both are printed and recorded too. The
host's speed drifts by tens of percent over minutes, so before every
invocation, ``--help`` too, the benchmark times a fixed reference loop
(``Reference``), and the scaled times are what runs made at different
moments compare by; across ten seeds they spread less than the raw ones,
by half or more on games, images and cli.

With ``--trace 1`` the benchmark times a fresh-process ``import dcx.cli``,
then calls ``dcx.cli.main`` in-process for one untraced and one traced pass
and reports the per-layer metrics of the traced pass (see spans.py) and
the tracing overhead. Every output of every mode is checked (check.py);
``failed_frac`` is failed over attempted invocations.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record, with machine and input facts,
goes to ``perfbench/out/``. ``--workload all`` runs the four workloads in
turn and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = Path("perfbench/.cache")
OUT = Path("perfbench/out")
# a workload's child processes are killed this long after its run starts,
# so that a hanging program still ends the run within 180 s
RUN_LIMIT_S = 160
SETUP_RUNS_PER_PASS = 2
# a median needs three samples; with fewer, a slow spell of the host both
# cuts the passes and weighs more in the result
MIN_PASSES = 3
# about the reference loop's time on a 2.1 GHz Xeon; it only fixes the
# scale of the *_norm_s metrics, which compare by their ratio
REFERENCE_NOMINAL_S = 0.1
IMPORT_RUNS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dcx.cli; "
    "print(repr(time.perf_counter() - t))"
)


@dataclass
class Outcome:
    """One invocation's result: exit code, output, and costs for processes."""

    exit_code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float = 0.0
    max_rss_kb: int = 0


class Spawner:
    """Starts child processes through spawn.py, which keeps their max-RSS
    free of this process's memory (see there), one at a time."""

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))

    def run(self, argv: list[str], deadline: float) -> Outcome:
        """Run argv; the child is killed if still running at deadline (perf_counter)."""
        out, err = CACHE / "stdout", CACHE / "stderr"
        request = {
            "argv": argv, "env": self._env, "stdout": str(out), "stderr": str(err),
            "timeout": max(1.0, deadline - time.perf_counter()),
        }
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError("the spawn helper exited")
        reply = json.loads(line)
        return Outcome(
            reply["exit_code"],
            out.read_text(encoding="utf-8", errors="replace"),
            err.read_text(encoding="utf-8", errors="replace"),
            reply["wall_s"], reply["cpu_s"], reply["max_rss_kb"],
        )

    def dcx(self, args: tuple[str, ...], deadline: float) -> Outcome:
        return self.run([sys.executable, "-m", "dcx.cli", *args], deadline)

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Reference:
    """A fixed amount of interpreter, numpy and memory work that measure()
    times before every invocation, to follow the host's speed.

    Three parts, the three kinds of work dcx spends its time on: membership
    tests of 17-tuples, in random order, in a set too large for the core's
    caches (tuple hashing, pointer chasing, cache misses; like the games
    BFS); a Python loop of sorts and cumulative sums over small image rows
    (numpy dispatch on small arrays; like the per-image loops); and
    elementwise passes over a 32 MB array (memory bandwidth; like the
    vectorised cart-pole walks). It runs in this process, not in the spawn
    helper, whose memory must stay small (see spawn.py).
    """

    def __init__(self, size: int = 300_000, probes: int = 40_000, rows: int = 600,
                 stream: int = 4_000_000):
        import numpy

        rng = numpy.random.default_rng(0)
        cells = rng.integers(0, 3, size=(size, 16)).tolist()
        self._keys = [(*row, i) for i, row in enumerate(cells)]
        self._table = set(self._keys)
        self._order = rng.integers(0, size, size=probes).tolist()
        self._rows = rng.integers(0, 256, size=(rows, 1024), dtype=numpy.uint8)
        self._big = rng.random(stream)
        self._out = numpy.empty_like(self._big)

    def seconds(self) -> float:
        import numpy

        keys, table = self._keys, self._table
        gc.disable()
        try:
            start = time.perf_counter()
            found = sum(1 for k in self._order if keys[k] in table)
            total = 0.0
            for row in self._rows:
                total += float(numpy.cumsum(numpy.sort(row), dtype=numpy.float64)[-1])
            for _ in range(4):
                numpy.multiply(self._big, 2.0, out=self._out)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        if found != len(self._order) or total != float(self._rows.sum(dtype=numpy.float64)):
            raise RuntimeError("the reference loop computed a wrong result")
        return elapsed


def run_in_process(main, args: tuple[str, ...]) -> Outcome:
    """Call dcx.cli.main(args) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is a failure to record, not to die on
            traceback.print_exc()
            code = 1
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


class Ledger:
    """Counts attempted and failed invocations, checks outputs and keeps
    every output digest, so that a seed's outputs must repeat exactly across
    passes and across runs of the benchmark."""

    def __init__(self, path: Path):
        self.path = path
        self.digests = json.loads(self.path.read_text()) if self.path.is_file() else {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, key: str, problems: list[str], digest: str | None = None) -> None:
        self.attempted += 1
        if digest is not None:
            known = self.digests.setdefault(key, digest)
            if known != digest:
                problems = problems + [f"output differs from an earlier run of this seed ({known})"]
        if problems:
            self.failed += 1
            self.problems += [f"{key}: {p}" for p in problems]

    def verify(self, inv, outcome: Outcome) -> None:
        import check

        report_text = None
        if inv.out is not None and inv.out.is_file():
            report_text = inv.out.read_text(encoding="utf-8")
        problems, digest = check.check_output(
            inv, outcome.exit_code, outcome.stdout, outcome.stderr, report_text
        )
        self.record(inv.key, problems, digest)

    def save(self) -> None:
        self.path.write_text(json.dumps(self.digests, indent=1, sort_keys=True))


def run_pass(invocations, runner) -> list[Outcome]:
    """Run every invocation once, in order, then return the outcomes.

    A report file from an earlier pass is removed first, so a run that
    fails to write it cannot pass on stale output.
    """
    outcomes = []
    for inv in invocations:
        if inv.out is not None:
            inv.out.unlink(missing_ok=True)
        outcomes.append(runner(inv.argv))
    return outcomes


def measure(wl, ledger: Ledger, seconds: float, spawner: Spawner) -> tuple[dict, dict, list[dict]]:
    """End-to-end metrics from fresh processes, tracing off."""
    reference = Reference()
    setup: list[float] = []
    references: list[float] = []
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    def timed(argv: tuple[str, ...]) -> Outcome:
        references.append(reference.seconds())
        return spawner.dcx(argv, deadline)

    while True:
        for _ in range(SETUP_RUNS_PER_PASS):
            outcome = timed(("--help",))
            ok = outcome.exit_code == 0 and outcome.stdout.startswith("usage: dcx")
            ledger.record("--help", [] if ok else ["--help failed"])
            setup.append(outcome.wall_s)
        outcomes = run_pass(wl.invocations, timed)
        for inv, outcome in zip(wl.invocations, outcomes):
            ledger.verify(inv, outcome)
        passes.append(outcomes)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    per_invocation = []
    for i, inv in enumerate(wl.invocations):
        runs = [p[i] for p in passes]
        per_invocation.append({
            "argv": list(inv.argv),
            "wall_s": [o.wall_s for o in runs],
            "cpu_s": [o.cpu_s for o in runs],
            "max_rss_mb": max(o.max_rss_kb for o in runs) / 1024,
        })
    raw = {
        "wall_s": sum(statistics.median(r["wall_s"]) for r in per_invocation),
        "cpu_s": sum(statistics.median(r["cpu_s"]) for r in per_invocation),
        "reference_s": statistics.median(references),
    }
    scale = REFERENCE_NOMINAL_S / raw["reference_s"]
    metrics = {
        "wall_norm_s": raw["wall_s"] * scale,
        "cpu_norm_s": raw["cpu_s"] * scale,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["max_rss_mb"] for r in per_invocation),
    }
    return metrics, raw, per_invocation


def trace(wl, ledger: Ledger, dcx, name: str, spawner: Spawner) -> tuple[dict, dict, list[dict]]:
    """Per-layer metrics from one traced in-process pass, and its overhead
    over the untraced in-process passes of the same invocations."""
    import spans

    deadline = time.perf_counter() + RUN_LIMIT_S
    imports = []
    for _ in range(IMPORT_RUNS):
        outcome = spawner.run([sys.executable, "-c", IMPORT_PROBE], deadline)
        ledger.record("import dcx.cli", [] if outcome.exit_code == 0 else ["import failed"])
        imports.append(float(outcome.stdout) if outcome.exit_code == 0 else float("nan"))

    def in_process(entry) -> list[Outcome]:
        return run_pass(wl.invocations, lambda argv: run_in_process(entry, argv))

    def verify(outcomes: list[Outcome]) -> None:
        for inv, outcome in zip(wl.invocations, outcomes):
            ledger.verify(inv, outcome)

    # untraced passes on both sides of the traced one, so that warm-up and
    # drift do not count as tracing overhead; the checks run outside the
    # traced region so that their own dcx calls are not counted
    main = dcx.cli.main
    before = in_process(main)
    verify(before)
    tracer = spans.Tracer()
    with spans.instrument(tracer, dcx):
        traced = in_process(tracer.wrap("cli.main", main))
    verify(traced)
    after = in_process(main)
    verify(after)

    metrics = {"cli.import_s": statistics.median(imports)}
    metrics.update(spans.layer_metrics(tracer, dcx.errors.DcxError))
    untraced_s = (sum(o.wall_s for o in before) + sum(o.wall_s for o in after)) / 2
    metrics["trace.overhead_s"] = sum(o.wall_s for o in traced) - untraced_s
    (OUT / f"spans_{name}.json").write_text(json.dumps(
        [[s.group, s.function, s.start, s.end, s.parent] for s in tracer.spans],
        separators=(",", ":"),
    ))
    per_invocation = [
        {"argv": list(inv.argv), "untraced_s": [b.wall_s, a.wall_s], "traced_s": t.wall_s}
        for inv, b, t, a in zip(wl.invocations, before, traced, after)
    ]
    return metrics, {}, per_invocation


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src/dcx").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def machine_facts() -> dict:
    import numpy

    import dcx

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dcx": dcx.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, spawner: Spawner) -> dict:
    import dcx.cli
    import workloads

    wl = workloads.WORKLOADS[name](CACHE, seed)
    ledger = Ledger(CACHE / f"digests-{name}-seed{seed}.json")
    if traced:
        metrics, raw, per_invocation = trace(wl, ledger, dcx, name, spawner)
    else:
        metrics, raw, per_invocation = measure(wl, ledger, seconds, spawner)
    ledger.save()
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "machine": machine_facts(),
        "inputs": wl.facts,
        "metrics": metrics,
        "raw": raw,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted,
        "problems": ledger.problems,
        "invocations": per_invocation,
    }
    (OUT / f"BENCH_{name}_seed{seed}_trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    return record


def declared_units(traced: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_units(bool(args.trace))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    with Spawner() as spawner:
        records = [
            run_workload(n, args.seed, args.seconds, bool(args.trace), spawner) for n in names
        ]

    for record in records:
        if set(record["metrics"]) != set(units):
            raise RuntimeError(
                f"metrics {sorted(record['metrics'])} differ from BENCHMARK.json {sorted(units)}"
            )
        for problem in record["problems"]:
            print(f"{record['workload']}: FAILED {problem}", file=sys.stderr)
        rows = {**record["metrics"], **record["raw"], "failed_frac": record["failed_frac"]}
        for metric, value in rows.items():
            unit = units.get(metric, "ratio" if metric == "failed_frac" else "s")
            print(f"{record['workload']:9s} {metric:26s} {value:14.6f} {unit}")

    def entries(record):
        return {m: {"value": v, "unit": units[m]} for m, v in record["metrics"].items()}

    if len(records) == 1:
        metrics = entries(records[0])
    else:
        metrics = {f"{r['workload']}.{m}": e for r in records for m, e in entries(r).items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    if not (ROOT / "src" / "dcx" / "__init__.py").is_file():
        print(f"perfbench: no dcx sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    CACHE.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    sys.exit(main())

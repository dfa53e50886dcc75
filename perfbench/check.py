"""Checks every ``dcx`` invocation's output, whether it ran as a process or
in-process.

A problem is any of: the wrong exit code, a traceback on stderr, a report
that does not round-trip through ``dcx.from_json``, an embedded
determinism hash that differs from the recomputed one, a value outside its
range, or a failed workload-specific value check. ``check_output`` returns
the problems and a digest of the output; the caller compares digests
across passes and runs of one seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re

from dcx import from_json, to_json
from workloads import Invocation

CSV_HEADER = ["domain_name", "measure_name", "value", "convention", "provenance", "seed", "samples"]
_TEXT_HASH = re.compile(r"^\s*determinism_hash: ([0-9a-f]{64})$", re.MULTILINE)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _unit_interval(name: str) -> bool:
    """Normalized entropies, Gini indices and sparsities all lie in [0, 1]."""
    if name.endswith("_bits"):
        return False
    return "entropy" in name or name.startswith("gini") or "sparsity" in name


def check_values(values: dict[str, float]) -> list[str]:
    problems = []
    for name, value in values.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r} is not a finite number")
        elif _unit_interval(name) and not 0.0 <= value <= 1.0:
            problems.append(f"{name} = {value!r} outside [0, 1]")
    return problems


def check_report(text: str) -> tuple[list[str], str | None, dict, dict]:
    """Round-trip a JSON report through dcx and verify its hash.

    Returns (problems, determinism hash, measure values, payload).
    """
    try:
        payload = json.loads(text)
        report = from_json(text)
    except Exception as exc:  # any failure to read the program's output is a finding
        return [f"report does not parse: {exc!r}"], None, {}, {}
    embedded = payload.get("determinism_hash")
    problems = []
    if report.determinism_hash() != embedded:
        problems.append(f"embedded hash {embedded} differs from the recomputed one")
    if json.loads(to_json(report)) != payload:
        problems.append("report changes on a round trip through from_json")
    values = {m["measure_name"]: m["value"] for m in payload["measures"]}
    return problems + check_values(values), embedded, values, payload


def _check_csv(text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return ["csv header missing or wrong"]
    if len(rows) < 2:
        return ["csv holds no measure rows"]
    try:
        values = {row[1]: float(row[2]) for row in rows[1:]}
    except (IndexError, ValueError):
        return ["csv row without a numeric value"]
    return check_values(values)


def _check_compare(text: str) -> list[str]:
    try:
        rows = json.loads(text)["rows"]
    except (ValueError, KeyError, TypeError):
        return ["compare output is not JSON with rows"]
    if not rows:
        return ["compare found no shared measures"]
    return [
        f"compare row {row['measure_name']}: difference is not a - b"
        for row in rows
        if row["difference"] != row["a_value"] - row["b_value"]
    ]


def check_output(
    inv: Invocation, exit_code: int, stdout: str, stderr: str, report_text: str | None = None
) -> tuple[list[str], str | None]:
    """Problems with one invocation's result, and a digest of its output.

    report_text is the content of ``inv.out`` for invocations that write
    their report to a file.
    """
    problems = []
    if exit_code != inv.exit_code:
        problems.append(f"exit code {exit_code}, expected {inv.exit_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if problems:
        return problems, None
    if inv.output == "error":
        if not stderr.strip():
            return ["expected an error message on stderr"], None
        return [], _sha(stderr)
    if inv.output == "report":
        text = report_text if inv.out is not None else stdout
        if text is None:
            return [f"{inv.out} was not written"], None
        problems, digest, values, payload = check_report(text)
        if not problems and inv.check is not None:
            problems = inv.check(values, payload)
        return problems, digest
    if inv.output == "text":
        match = _TEXT_HASH.search(stdout)
        return ([] if match else ["text report has no determinism_hash line"]), _sha(stdout)
    if inv.output == "csv":
        return _check_csv(stdout), _sha(stdout)
    if inv.output == "compare":
        return _check_compare(stdout), _sha(stdout)
    raise ValueError(f"unknown output kind {inv.output!r}")

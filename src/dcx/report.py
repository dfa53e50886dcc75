"""Uniform report objects: every CLI run emits measures with their
conventions, provenance, seed, and optional published reference values,
as JSON, CSV, or plain text. Reports round-trip losslessly through JSON
and carry a determinism hash that ignores the timestamp.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .errors import FormatError, InvalidParameter
from .measures import MeasureResult, Provenance

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class ReferenceTarget:
    """A published value a measure is expected to land near.

    Annotation only: targets never feed back into computed values.
    """

    measure_name: str
    value: float
    tolerance: float
    source: str


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class ComplexityReport:
    domain_name: str
    measures: tuple[MeasureResult, ...]
    reference_targets: tuple[ReferenceTarget, ...] = ()
    tool_version: str = TOOL_VERSION
    timestamp: str = field(default_factory=_utc_now)
    seed: int | None = None
    notes: tuple[str, ...] = ()

    def determinism_hash(self) -> str:
        """SHA-256 over everything except the timestamp."""
        payload = _report_payload(self)
        payload.pop("timestamp")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _measure_payload(m: MeasureResult) -> dict:
    return {
        "measure_name": m.measure_name,
        "value": m.value,
        "convention": m.convention,
        "provenance": {
            "kind": m.provenance.kind,
            "seed": m.provenance.seed,
            "samples": m.provenance.samples,
        },
    }


def _report_payload(report: ComplexityReport) -> dict:
    return {
        "domain_name": report.domain_name,
        "measures": [_measure_payload(m) for m in report.measures],
        "reference_targets": [
            {
                "measure_name": t.measure_name,
                "value": t.value,
                "tolerance": t.tolerance,
                "source": t.source,
            }
            for t in report.reference_targets
        ],
        "tool_version": report.tool_version,
        "timestamp": report.timestamp,
        "seed": report.seed,
        "notes": list(report.notes),
    }


def to_json(report: ComplexityReport) -> str:
    payload = _report_payload(report)
    payload["determinism_hash"] = report.determinism_hash()
    return json.dumps(payload, indent=2, sort_keys=True)


def _number(value, field: str) -> int | float:
    """value, if it is a JSON number; bool is refused although it subclasses int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"report field {field} must be a number, got {type(value).__name__}")
    return value


def from_json(text: str) -> ComplexityReport:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError("report root must be an object")
    try:
        measures = tuple(
            MeasureResult(
                measure_name=m["measure_name"],
                value=_number(m["value"], "value"),
                convention=m["convention"],
                provenance=Provenance(
                    kind=m["provenance"]["kind"],
                    seed=m["provenance"]["seed"],
                    samples=m["provenance"]["samples"],
                ),
            )
            for m in payload["measures"]
        )
        targets = tuple(
            ReferenceTarget(
                measure_name=t["measure_name"],
                value=_number(t["value"], "value"),
                tolerance=_number(t["tolerance"], "tolerance"),
                source=t["source"],
            )
            for t in payload["reference_targets"]
        )
        return ComplexityReport(
            domain_name=payload["domain_name"],
            measures=measures,
            reference_targets=targets,
            tool_version=payload["tool_version"],
            timestamp=payload["timestamp"],
            seed=payload["seed"],
            notes=tuple(payload["notes"]),
        )
    except KeyError as exc:
        raise FormatError(f"report is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"report has a malformed field: {exc}") from exc


def to_csv(report: ComplexityReport) -> str:
    """One row per measure; header included, plain decimal points."""
    lines = ["domain_name,measure_name,value,convention,provenance,seed,samples"]
    for m in report.measures:
        convention = m.convention.replace('"', "'")
        lines.append(
            ",".join(
                [
                    report.domain_name,
                    m.measure_name,
                    repr(m.value),
                    f'"{convention}"',
                    m.provenance.kind,
                    str(m.provenance.seed if m.provenance.seed is not None else ""),
                    str(m.provenance.samples if m.provenance.samples is not None else ""),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def to_text(report: ComplexityReport) -> str:
    lines = [f"domain: {report.domain_name}"]
    targets = {t.measure_name: t for t in report.reference_targets}
    for m in report.measures:
        line = f"  {m.measure_name:32s} {m.value:.6g}"
        target = targets.get(m.measure_name)
        if target is not None:
            line += f"   [reference {target.value:g} +/- {target.tolerance:g}]"
        lines.append(line)
        lines.append(f"    convention: {m.convention}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    if report.seed is not None:
        lines.append(f"  seed: {report.seed}")
    lines.append(f"  determinism_hash: {report.determinism_hash()}")
    return "\n".join(lines) + "\n"


def compare(a: ComplexityReport, b: ComplexityReport) -> list[dict]:
    """Per shared measure: both values, the difference, and which domain is
    higher. Measures whose conventions differ are refused rather than
    silently compared; no scalar overall score is synthesized.
    """
    a_measures = {m.measure_name: m for m in a.measures}
    b_measures = {m.measure_name: m for m in b.measures}
    shared = sorted(set(a_measures) & set(b_measures))
    if not shared:
        raise InvalidParameter("reports share no measure names")
    rows = []
    for name in shared:
        ma, mb = a_measures[name], b_measures[name]
        if ma.convention != mb.convention:
            raise InvalidParameter(
                f"measure {name!r} was computed under different conventions; "
                "values are not comparable"
            )
        difference = ma.value - mb.value
        if ma.value > mb.value:
            higher = a.domain_name
        elif mb.value > ma.value:
            higher = b.domain_name
        else:
            higher = "tie"
        rows.append(
            {
                "measure_name": name,
                "a_value": ma.value,
                "b_value": mb.value,
                "difference": difference,
                "higher": higher,
            }
        )
    return rows

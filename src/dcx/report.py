"""Uniform report objects: every CLI run emits measures with their
conventions, provenance, seed, and optional published reference values,
as JSON, CSV, or plain text. Reports round-trip losslessly through JSON
and carry a determinism hash that ignores the timestamp.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from .errors import FormatError, InvalidParameter, check_fields, load_json
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
        payload = asdict(self)
        payload.pop("timestamp")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def to_json(report: ComplexityReport) -> str:
    """The report as RFC 8259 JSON, which has no NaN or infinity: a
    non-finite measure value is refused rather than written."""
    for m in report.measures:
        if not math.isfinite(m.value):
            raise FormatError(
                f"measure {m.measure_name} is {m.value!r}, which JSON cannot hold"
            )
    payload = asdict(report)
    payload["determinism_hash"] = report.determinism_hash()
    return json.dumps(payload, indent=2, sort_keys=True)


_REPORT_FIELDS = {
    "domain_name": "str",
    "measures": "list",
    "reference_targets": "list",
    "tool_version": "str",
    "timestamp": "str",
    "seed": "int?",
    "notes": "strs",
}
_MEASURE_FIELDS = {"measure_name": "str", "value": "num", "convention": "str", "provenance": "any"}
_PROVENANCE_FIELDS = {"kind": "str", "seed": "int?", "samples": "int?"}
_TARGET_FIELDS = {"measure_name": "str", "value": "num", "tolerance": "num", "source": "str"}


def _measure(raw, where: str) -> MeasureResult:
    check_fields(raw, where, _MEASURE_FIELDS)
    check_fields(raw["provenance"], f"{where}.provenance", _PROVENANCE_FIELDS)
    return MeasureResult(**{**raw, "provenance": Provenance(**raw["provenance"])})


def _target(raw, where: str) -> ReferenceTarget:
    check_fields(raw, where, _TARGET_FIELDS)
    return ReferenceTarget(**raw)


def from_json(text: str) -> ComplexityReport:
    """Parse a report written by to_json, checking every key and field type.

    Raises FormatError on any other input. The embedded determinism_hash
    is accepted but not trusted: the parsed report recomputes its own.
    """
    payload = load_json(text, "report")
    check_fields(payload, "report", _REPORT_FIELDS, {"determinism_hash": "str"})
    try:
        return ComplexityReport(
            domain_name=payload["domain_name"],
            measures=tuple(
                _measure(m, f"measures[{i}]") for i, m in enumerate(payload["measures"])
            ),
            reference_targets=tuple(
                _target(t, f"reference_targets[{i}]")
                for i, t in enumerate(payload["reference_targets"])
            ),
            tool_version=payload["tool_version"],
            timestamp=payload["timestamp"],
            seed=payload["seed"],
            notes=tuple(payload["notes"]),
        )
    except InvalidParameter as exc:
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

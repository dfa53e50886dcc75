"""Uniform report objects: every CLI run emits measures with their
conventions, provenance, seed, and optional published reference values,
as JSON, CSV, or plain text. Reports round-trip losslessly through JSON
and carry a determinism hash that ignores the timestamp.

The hash's SHA-256 comes from the interpreter's built-in module, imported
by the function that hashes a report, so `dcx --help`, usage errors and a
failed read load no hash code at all.
"""

from __future__ import annotations

import json
import math
import time

from .errors import (
    Factory,
    FormatError,
    InvalidParameter,
    Record,
    asdict,
    check_real,
    from_mapping,
    is_integer,
    load_json,
)
from .measures import MeasureResult

TOOL_VERSION = "0.1.0"


class ReferenceTarget(Record):
    """A published value a measure is expected to land near.

    Annotation only: targets never feed back into computed values.
    """

    measure_name: str
    value: float
    tolerance: float
    source: str

    def __post_init__(self) -> None:
        # stored as a Python int for an integer, so that the hashes keep it
        # one, and as a Python float for any other real number, such as a
        # numpy float32; either way JSON can hold it
        for name, least in (("value", -math.inf), ("tolerance", 0)):
            value = getattr(self, name)
            real = check_real(value, f"target {self.measure_name} {name}", least)
            object.__setattr__(self, name, int(value) if is_integer(value) else real)


def _utc_now() -> str:
    # datetime.now(timezone.utc).isoformat(timespec="seconds"), without
    # importing datetime
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _sha256():
    """CPython's built-in SHA-256 constructor, whose digests are hashlib's.

    hashlib maps OpenSSL's libcrypto, about 3.5 MB of peak RSS and 4-6 ms a
    process to hash a few KB of JSON; the built-in module is _sha2 from
    Python 3.12 and _sha256 before. hashlib serves an interpreter built
    without either.
    """
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256


class ComplexityReport(Record):
    domain_name: str
    measures: tuple[MeasureResult, ...]
    reference_targets: tuple[ReferenceTarget, ...] = ()
    tool_version: str = TOOL_VERSION
    timestamp: str = Factory(_utc_now)
    seed: int | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # each name appears once, so compare reads one value per name
        if len({m.measure_name for m in self.measures}) < len(self.measures):
            raise InvalidParameter("a measure name appears more than once")
        # stored as a Python int, which JSON can hold; a seed may be negative
        if self.seed is not None:
            if not is_integer(self.seed):
                raise InvalidParameter("seed must be an integer")
            object.__setattr__(self, "seed", int(self.seed))

    def determinism_hash(self) -> str:
        """SHA-256 over everything except the timestamp."""
        payload = asdict(self)
        payload.pop("timestamp")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return _sha256()(canonical.encode("utf-8")).hexdigest()


def to_json(report: ComplexityReport) -> str:
    """The report as RFC 8259 JSON, which has no NaN or infinity; a report
    holds none, as its measures and reference targets refuse them."""
    payload = asdict(report)
    payload["determinism_hash"] = report.determinism_hash()
    return json.dumps(payload, indent=2, sort_keys=True)


def from_json(text: str) -> ComplexityReport:
    """Parse a report written by to_json, checking every key and field type.

    Every key is required. Raises FormatError on any other input. The
    embedded determinism_hash is accepted but not trusted: the parsed
    report recomputes its own.
    """
    try:
        return from_mapping(
            ComplexityReport, load_json(text, "report"), "report",
            all_required=True, extra={"determinism_hash": str},
        )
    except InvalidParameter as exc:
        raise FormatError(f"report has a malformed field: {exc}") from exc


def csv_field(text: str, always_quote: bool = False) -> str:
    """text as one RFC 4180 field: quoted, with each quote doubled, when it
    holds a comma, a quote, CR or LF (or always_quote is set)."""
    if always_quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv(report: ComplexityReport) -> str:
    """One row per measure; header included, plain decimal points. Names
    are quoted where RFC 4180 needs it; conventions are always quoted."""
    lines = ["domain_name,measure_name,value,convention,provenance,seed,samples"]
    for m in report.measures:
        lines.append(
            ",".join(
                [
                    csv_field(report.domain_name),
                    csv_field(m.measure_name),
                    repr(m.value),
                    csv_field(m.convention, always_quote=True),
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

"""Report serialization, comparison rules, and the command-line surface."""

import ast
import csv
import gzip
import json
import math
import os
import random
import re
import resource
import struct
import subprocess
import sys
import time
import zipfile
from pathlib import Path

import pytest

import dcx
from dcx.cli import main
from dcx.datasets import load_cifar10
from dcx.errors import (
    MEMORY_BUDGET,
    FormatError,
    InvalidParameter,
    InvalidValue,
    ResourceLimit,
    replace,
)
from dcx.games import gtc_factorial
from dcx.measures import ANALYTIC, MeasureResult, monte_carlo
from dcx.report import (
    ComplexityReport,
    ReferenceTarget,
    compare,
    from_json,
    to_csv,
    to_json,
    to_text,
)
from tiny_images import write_tiny_images


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports dcx from the tree under test."""
    src = str(Path(dcx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


# the runs that read bundled files: a descriptor and breakdown, a cart-pole
# descriptor table and the iris table
BUNDLED_RUNS = (
    ("descriptor", "pogo", "--breakdown", "pogo"),
    ("cartpole", "--measure", "table"),
    ("dataset", "iris", "--measure", "gini"),
)


def run_capped_cli(*args: str) -> subprocess.CompletedProcess:
    """`python -m dcx.cli` with the child's address space capped at 1 GiB,
    so an oversized allocation fails in the child with a MemoryError
    traceback instead of taking the machine's memory."""
    src = str(Path(dcx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "dcx.cli", *args],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=cap,
    )


def report_hash(argv, capsys) -> str:
    assert main(["--format", "json", "--seed", "0", *argv]) == 0
    return json.loads(capsys.readouterr().out)["determinism_hash"]


def sample_report(domain="toy", value=1.5, convention="stated") -> ComplexityReport:
    return ComplexityReport(
        domain_name=domain,
        measures=(
            MeasureResult("alpha", value, convention, ANALYTIC),
            MeasureResult("beta", 2.5, "counted", monte_carlo(seed=3, samples=100)),
        ),
        reference_targets=(ReferenceTarget("alpha", 1.4, 0.2, "worked example"),),
        seed=3,
        notes=("first note", "second note"),
    )


def test_cli_builds_no_measures():
    # every measure's name, convention and provenance is written in the
    # domain module that computes it; the CLI only parses arguments into a
    # case, and a case only resolves inputs and assembles what the domain
    # modules return
    sources = [Path(dcx.cli.__file__).with_name(name) for name in ("cli.py", "cases.py")]
    nodes = [node for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]
    for node in nodes:
        if isinstance(node, ast.Call):
            func = node.func
            assert getattr(func, "id", getattr(func, "attr", None)) != "MeasureResult"
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert not names & {"ANALYTIC", "ENUMERATED", "monte_carlo", "quadrature"}, node.module
            assert not (node.module in ("dataclasses", "errors") and "replace" in names)
        elif isinstance(node, ast.Import):
            assert "dataclasses" not in {alias.name for alias in node.names}


class TestSerialization:
    def test_json_round_trip(self):
        report = sample_report()
        recovered = from_json(to_json(report))
        assert recovered.domain_name == report.domain_name
        assert recovered.measures == report.measures
        assert recovered.reference_targets == report.reference_targets
        assert recovered.notes == report.notes
        assert recovered.seed == report.seed

    def test_hash_ignores_timestamp(self):
        a = sample_report()
        b = ComplexityReport(
            domain_name=a.domain_name,
            measures=a.measures,
            reference_targets=a.reference_targets,
            timestamp="2001-01-01T00:00:00+00:00",
            seed=a.seed,
            notes=a.notes,
        )
        assert a.timestamp != b.timestamp
        assert a.determinism_hash() == b.determinism_hash()

    def test_hash_tracks_values(self):
        assert (
            sample_report(value=1.5).determinism_hash()
            != sample_report(value=1.6).determinism_hash()
        )

    @pytest.mark.parametrize("field", ["value", "tolerance"])
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, True, "1.4", None, pytest.param(10**400, id="1e400")]
    )
    def test_reference_targets_hold_only_numbers_json_can(self, field, bad):
        # to_json would write NaN or Infinity, which from_json then refuses
        bound = " of at least 0" if field == "tolerance" else ""
        with pytest.raises(InvalidParameter,
                           match=f"^target alpha {field} must be a finite number{bound}$"):
            ReferenceTarget(**{"measure_name": "alpha", "value": 1.4, "tolerance": 0.2,
                               "source": "worked example", field: bad})

    def test_integer_reference_targets_stay_integers(self):
        # the published counts are ints; stored as floats they would move
        # every hash of a report that carries them
        target = ReferenceTarget("legal_positions_total", 5478, 0, "published")
        assert type(target.value) is int and type(target.tolerance) is int
        report = replace(sample_report(), reference_targets=(target,))
        recovered = from_json(to_json(report))
        assert recovered == report
        assert recovered.determinism_hash() == report.determinism_hash()
        assert '"value": 5478' in to_json(report)

    @pytest.mark.parametrize(
        ("given", "stored"),
        [("int64", 5), ("float32", 0.5), ("float64", 1.25)],
    )
    def test_numpy_reference_targets_are_stored_as_python_numbers(self, given, stored):
        # an int64 target reached to_json as given, which raised TypeError,
        # and a float32 one was refused though MeasureResult takes it
        np = pytest.importorskip("numpy")
        number = getattr(np, given)(stored)
        target = ReferenceTarget("alpha", number, number, "worked example")
        assert type(target.value) is type(stored) and target.value == stored
        assert type(target.tolerance) is type(stored)
        report = replace(sample_report(), reference_targets=(target,))
        assert from_json(to_json(report)) == report

    def test_negative_tolerance_is_refused(self):
        # a window of -1 names no window; the report decoder refuses it too
        with pytest.raises(InvalidParameter,
                           match="^target alpha tolerance must be a finite number of at least 0$"):
            ReferenceTarget("alpha", 1.0, -1, "worked example")
        payload = json.loads(to_json(sample_report()))
        payload["reference_targets"][0]["tolerance"] = -0.5
        with pytest.raises(FormatError, match="tolerance must be a finite number of at least 0"):
            from_json(json.dumps(payload))

    def test_json_embeds_matching_hash(self):
        report = sample_report()
        payload = json.loads(to_json(report))
        assert payload["determinism_hash"] == report.determinism_hash()

    def test_from_json_rejects_missing_keys(self):
        payload = json.loads(to_json(sample_report()))
        del payload["measures"]
        with pytest.raises(FormatError):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize("measures", [5, [5]], ids=["non-list", "non-dict-entry"])
    def test_from_json_rejects_malformed_measures(self, measures):
        payload = json.loads(to_json(sample_report()))
        payload["measures"] = measures
        with pytest.raises(FormatError):
            from_json(json.dumps(payload))

    @pytest.mark.parametrize("value", ["abc", True, None, [1.0], float("inf"), float("nan")])
    def test_from_json_rejects_non_numeric_values(self, value):
        for field in ("measure value", "target value", "target tolerance"):
            payload = json.loads(to_json(sample_report()))
            if field == "measure value":
                payload["measures"][0]["value"] = value
            else:
                payload["reference_targets"][0][field.split()[1]] = value
            with pytest.raises(FormatError):
                from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        ("path", "value"),
        [
            (("domain_name",), 3),
            (("measures", 0, "measure_name"), 5),
            (("measures", 0, "convention"), None),
            (("measures", 0, "provenance"), "analytic"),
            (("measures", 0, "provenance", "kind"), 1),
            (("measures", 0, "provenance", "kind"), "guessed"),
            (("measures", 1, "provenance", "seed"), True),
            (("measures", 1, "provenance", "samples"), 1.5),
            (("reference_targets", 0, "measure_name"), None),
            (("reference_targets", 0, "source"), ["x"]),
            (("notes",), "abc"),
            (("notes",), [1]),
            (("seed",), "3"),
            (("seed",), False),
            (("tool_version",), 1),
            (("timestamp",), None),
            (("determinism_hash",), 0),
            (("surplus",), 1),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
    )
    def test_from_json_rejects_mistyped_fields(self, path, value):
        payload = json.loads(to_json(sample_report()))
        *parents, key = path
        owner = payload
        for step in parents:
            owner = owner[step]
        owner[key] = value
        with pytest.raises(FormatError):
            from_json(json.dumps(payload))

    def test_report_refuses_a_repeated_measure_name(self):
        # compare reads one value per name, so a report holds each once
        report = sample_report()
        with pytest.raises(InvalidParameter, match="more than once"):
            ComplexityReport("toy", report.measures + report.measures[:1])
        payload = json.loads(to_json(report))
        payload["measures"].append({**payload["measures"][0], "value": 999.0})
        with pytest.raises(FormatError, match="more than once"):
            from_json(json.dumps(payload))

    def test_report_refuses_non_finite_values(self):
        # refused where the report is built, so neither JSON nor text or
        # CSV ever holds one
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(InvalidValue, match="alpha"):
                sample_report(value=value)

    @pytest.mark.parametrize(
        ("value", "seed"),
        [("float32", None), (None, "int64"), ("float32", "int64"), ("float64", "uint8"),
         ("int16", None)],
    )
    def test_numpy_numbers_serialize_as_python_numbers(self, value, seed):
        np = pytest.importorskip("numpy")

        def report(value, seed):
            measure = MeasureResult("alpha", value, "stated", ANALYTIC)
            return ComplexityReport("toy", (measure,), timestamp="fixed", seed=seed)

        python_value = 0.5 if value is None or "float" in value else 2.0
        numpy_value = python_value if value is None else getattr(np, value)(python_value)
        numpy_seed = 3 if seed is None else getattr(np, seed)(3)
        built = report(numpy_value, numpy_seed)
        assert type(built.measures[0].value) is float and type(built.seed) is int
        assert to_json(built) == to_json(report(python_value, 3))

    @pytest.mark.parametrize("value", [True, "0.5", None, 1j, [0.5]])
    def test_measure_value_must_be_a_number(self, value):
        with pytest.raises(InvalidParameter, match="^measure alpha value must be a finite number$"):
            MeasureResult("alpha", value, "stated", ANALYTIC)

    def test_measure_value_past_the_float_range_is_refused(self):
        with pytest.raises(InvalidParameter, match="^measure alpha value must be a finite number$"):
            MeasureResult("alpha", 10**400, "stated", ANALYTIC)

    def test_report_seed_is_an_integer_and_may_be_negative(self):
        measures = sample_report().measures
        assert ComplexityReport("toy", measures, seed=-7).seed == -7
        for seed in (True, 1.5, "3"):
            with pytest.raises(InvalidParameter, match="seed must be an integer"):
                ComplexityReport("toy", measures, seed=seed)

    def test_timestamp_is_the_utc_time_in_seconds(self):
        from datetime import datetime, timedelta, timezone

        stamp = sample_report().timestamp
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp), stamp
        parsed = datetime.fromisoformat(stamp)
        assert parsed.utcoffset() == timedelta(0)
        assert abs(datetime.now(timezone.utc) - parsed) < timedelta(minutes=1)

    def test_from_json_rejects_non_json(self):
        with pytest.raises(FormatError):
            from_json("{]")

    def test_csv_header_and_rows(self):
        text = to_csv(sample_report())
        lines = text.strip().splitlines()
        assert lines[0] == "domain_name,measure_name,value,convention,provenance,seed,samples"
        assert len(lines) == 3
        assert lines[1].startswith("toy,alpha,1.5,")

    def test_csv_fields_survive_commas_quotes_and_newlines(self):
        names = ("mono,poly\nx", 'say "hi"\r\nend')
        report = ComplexityReport(
            domain_name=names[0],
            measures=tuple(
                MeasureResult(name, 1.0, 'quoted "convention"', ANALYTIC) for name in names
            ),
        )
        header, *rows = csv.reader(to_csv(report).splitlines(keepends=True))
        assert len(header) == 7
        assert [(row[0], row[1], row[3]) for row in rows] == [
            (names[0], name, 'quoted "convention"') for name in names
        ]

    def test_text_includes_notes_and_reference(self):
        text = to_text(sample_report())
        assert "note: first note" in text
        assert "[reference 1.4 +/- 0.2]" in text


class TestCompare:
    def test_self_comparison_ties(self):
        report = sample_report()
        rows = compare(report, report)
        assert [r["measure_name"] for r in rows] == ["alpha", "beta"]
        for row in rows:
            assert row["a_value"] == row["b_value"]
            assert row["difference"] == 0
            assert row["higher"] == "tie"

    def test_reports_higher_domain(self):
        low = sample_report(domain="low", value=1.0)
        high = sample_report(domain="high", value=2.0)
        row = {r["measure_name"]: r for r in compare(low, high)}["alpha"]
        assert row["higher"] == "high"
        assert row["difference"] == pytest.approx(-1.0)

    def test_refuses_mismatched_conventions(self):
        a = sample_report(convention="stated one way")
        b = sample_report(convention="stated another way")
        with pytest.raises(InvalidParameter):
            compare(a, b)

    def test_refuses_disjoint_reports(self):
        a = sample_report()
        b = ComplexityReport(
            domain_name="other",
            measures=(MeasureResult("gamma", 1.0, "stated", ANALYTIC),),
        )
        with pytest.raises(InvalidParameter):
            compare(a, b)


class TestCli:
    def test_game_json_values(self, capsys):
        assert main(["--format", "json", "game", "ttt"]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        assert values["ssc_combinatorial_total"] == 6045.0
        assert values["legal_positions_total"] == 5478.0
        assert values["symmetry_classes_total"] == 765.0
        assert values["ssc_combinatorial_log10"] == pytest.approx(3.7814, abs=1e-4)

    def test_qubic_game_json_values(self, capsys):
        assert main(["--format", "json", "game", "qubic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        targets = {t["measure_name"]: t for t in payload["reference_targets"]}
        gtc = values["gtc_factorial_log10"]
        assert gtc == gtc_factorial(64, 20)
        target = targets["gtc_factorial_log10"]
        assert (target["value"], target["tolerance"]) == (34, 1)
        assert abs(gtc - target["value"]) <= target["tolerance"]

    def test_one_cell_board_in_many_dimensions(self, capsys):
        # a side-1 board has one cell whatever its dimension count
        start = time.perf_counter()
        code = main(
            ["--format", "json", "game", "custom", "--side", "1", "--dims", "12",
             "--plies", "1", "--win", "1"]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        assert values["legal_positions_total"] == 2.0
        assert values["symmetry_classes_total"] == 2.0
        assert elapsed < 2.0

    def test_game_enumeration_can_be_skipped(self, capsys):
        assert main(["--format", "json", "game", "ttt", "--no-enumerate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {m["measure_name"] for m in payload["measures"]}
        assert "legal_positions_total" not in names

    def test_custom_game_requires_shape(self, capsys):
        assert main(["game", "custom"]) == 1
        assert "custom games need" in capsys.readouterr().err

    def test_custom_game_past_float_range_omits_the_exact_total(self):
        # the exact arrangement total of a 40x40 board to 1600 plies has
        # about 760 digits: the float total is omitted, its log10 stays
        result = run_python(
            "-m", "dcx.cli", "--format", "json", "game", "custom",
            "--side", "40", "--dims", "2", "--plies", "1600", "--win", "5", "--no-enumerate",
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        report = from_json(result.stdout)
        names = [m.measure_name for m in report.measures]
        assert "ssc_combinatorial_total" not in names
        assert "ssc_combinatorial_log10" in names and "gtc_factorial_log10" in names
        assert any("ssc_combinatorial_total omitted" in note for note in report.notes)

    @pytest.mark.parametrize(
        "edit",
        [
            None,
            {"components": [{"name": "c", "cardinality": {"base": 2, "exp": 10**400},
                             "role": "state"}]},
            {"branching_factor": 10**400},
            {"avg_game_length": 10**400, "max_game_length": 10**400},
        ],
        ids=["board-dims", "power-exp", "branching-factor", "game-lengths"],
    )
    def test_counts_past_the_float_range_exit_1_without_traceback(self, tmp_path, edit):
        if edit is None:
            args = ["game", "custom", "--side", "2", "--dims", "2000", "--plies", "1",
                    "--win", "1", "--no-enumerate"]
        else:
            mapping = {
                "name": "huge",
                "branching_factor": 2,
                "avg_game_length": 3,
                "max_game_length": 4,
                "components": [{"name": "cells", "cardinality": 10, "role": "state"}],
                **edit,
            }
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(mapping), encoding="utf-8")
            args = ["descriptor", str(path)]
        result = run_capped_cli(*args)
        assert result.returncode == 1
        assert result.stderr.startswith("dcx: ") and "float range" in result.stderr
        assert "Traceback" not in result.stderr

    def test_custom_game_runs(self, capsys):
        code = main(
            ["--format", "json", "game", "custom", "--side", "2", "--dims", "2",
             "--plies", "4", "--win", "2"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        # 2x2 board arrangements by ply: 4 + 12 + 12 + 6
        assert values["ssc_combinatorial_total"] == 34.0

    def test_descriptor_bundled(self, capsys):
        code = main(["--format", "json", "descriptor", "pogo", "--breakdown", "pogo"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        assert values["tree_complexity_power_log10"] == pytest.approx(816.73, abs=0.01)
        assert values["information_entropy"] == pytest.approx(0.868, abs=0.001)

    def test_descriptor_from_file(self, tmp_path, capsys):
        mapping = {
            "name": "mini",
            "branching_factor": 2,
            "avg_game_length": 3,
            "max_game_length": 4,
            "components": [{"name": "cells", "cardinality": 1000, "role": "state"}],
        }
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(mapping), encoding="utf-8")
        assert main(["--format", "json", "descriptor", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        assert values["state_space_complexity_log10"] == pytest.approx(3.0)

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_descriptor_with_an_infinite_measure_is_refused_in_every_format(
        self, tmp_path, capsys, fmt
    ):
        # within the float range, but b**(m + 1) has a log10 past it
        mapping = {
            "name": "huge",
            "branching_factor": 10**300,
            "avg_game_length": 3,
            "max_game_length": 10**308,
            "components": [{"name": "cells", "cardinality": 1000, "role": "state"}],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(mapping), encoding="utf-8")
        assert main(["--format", fmt, "descriptor", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("dcx: ") and "tree_complexity_uniform_sum_log10" in err
        assert "inf, not a finite number" in err

    def test_descriptor_unknown_source(self, capsys):
        assert main(["descriptor", "atlantis"]) == 1
        assert "atlantis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [(["pogo_breakdown"], "'pogo_breakdown' is neither a descriptor file nor a bundled name "
          "('cartpole2d', 'cartpole2d-g', 'cartpole3d', 'monopoly', 'pogo')"),
         (["pogo", "--breakdown", "monopoly"],
          "'monopoly' is neither a breakdown file nor a bundled name ('pogo',)"),
         (["pogo", "--breakdown", "../data/pogo"],
          "'../data/pogo' is neither a breakdown file nor a bundled name ('pogo',)")],
    )
    def test_one_rule_refuses_what_names_no_bundled_file(self, capsys, argv, message):
        # "_breakdown" is dropped from a breakdown's name only
        assert main(["descriptor", *argv]) == 1
        assert capsys.readouterr() == ("", f"dcx: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [["descriptor", "{missing}/pogo.json"], ["descriptor", "{missing}/pogo"],
         ["descriptor", "pogo", "--breakdown", "{missing}/pogo_breakdown.json"],
         ["descriptor", "pogo", "--breakdown", "{missing}/pogo"]],
        ids=["descriptor-file", "descriptor-stem", "breakdown-file", "breakdown-stem"],
    )
    def test_a_missing_path_is_refused_not_read_as_a_bundled_name(self, tmp_path, capsys, argv):
        missing = tmp_path / "no_such_dir"
        assert main([a.format(missing=missing) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"dcx: '{missing}/pogo")

    @pytest.mark.parametrize(
        ("descriptor", "breakdown"),
        [("pogo.json", "pogo"), ("pogo", "pogo.json"), ("pogo", "pogo_breakdown"),
         ("pogo", "pogo_breakdown.json")],
    )
    def test_bare_names_read_the_bundled_files(self, capsys, descriptor, breakdown):
        hashes = []
        for argv in (["pogo", "--breakdown", "pogo"], [descriptor, "--breakdown", breakdown]):
            assert main(["--format", "json", "--seed", "0", "descriptor", *argv]) == 0
            hashes.append(json.loads(capsys.readouterr().out)["determinism_hash"])
        assert hashes[0] == hashes[1]

    def test_cartpole_limit_seeded(self, capsys):
        code = main(
            ["--format", "json", "--seed", "0", "cartpole", "--variant", "2d",
             "--measure", "limit", "--trials", "2000"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        assert values["constant_action_limit"] == pytest.approx(9.37, abs=1.0)

    @pytest.mark.parametrize("variant", ["2d", "2dg", "3d"])
    def test_cartpole_limit_and_band_record_their_quadrature(self, capsys, variant):
        # the limit is a quadrature over at most --trials start states: no
        # seed, the states it stepped as samples, and a note naming its
        # levels; a sparsity report's band carries the same
        for measure, name in (("limit", "constant_action_limit"), ("sparsity", "action_limit_band")):
            assert main(["--format", "json", "--seed", "5", "cartpole", "--variant", variant,
                         "--measure", measure, "--trials", "2000"]) == 0
            payload = json.loads(capsys.readouterr().out)
            measures = {m["measure_name"]: m for m in payload["measures"]}
            assert payload["seed"] is None
            assert measures[name]["provenance"] == {"kind": "quadrature", "seed": None, "samples": 1280}
            assert "limit quadrature levels 16^2 to 32^2, 1280 start states" in payload["notes"][-1]
            assert "quadrature" in measures[name]["convention"]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("limit", ["inf", "-inf"])
    def test_cartpole_infinite_limit_refused_in_every_format(self, capsys, fmt, limit):
        args = ["--format", fmt, "cartpole", "--measure", "sparsity", f"--limit={limit}"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("dcx: ") and "finite" in err

    def test_point_mass_entropy_prints_positive_zero(self, capsys):
        args = ["cartpole", "--variant", "2dg", "--measure", "entropy", "--samples", "1"]
        assert main(args) == 0
        out = capsys.readouterr().out
        line = next(row for row in out.splitlines() if "action_entropy" in row)
        assert line.split()[1] == "0"
        assert main(["--format", "json", *args]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        assert math.copysign(1.0, values["action_entropy_bits"]) == 1.0

    def test_cartpole_nan_limit_exits_1(self, capsys):
        code = main(["--format", "json", "cartpole", "--measure", "sparsity", "--limit", "nan"])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("dcx: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["--measure", "sparsity", "--episode-length", "100000000", "--limit", "5"],
            ["--measure", "limit", "--variant", "3d", "--trials", "1000000000"],
            ["--measure", "sparsity", "--trials", "1000000000"],
            ["--measure", "entropy", "--samples", "10000000000"],
            ["--measure", "entropy", "--bins", "100000000000"],
            ["--measure", "sparsity", "--limit", "5000.5", "--episode-length", "100000"],
        ],
    )
    def test_cartpole_refuses_oversized_work_before_allocating(self, args):
        # under the cap an attempted allocation would end in a traceback
        result = run_capped_cli("cartpole", *args)
        assert result.returncode == 1
        assert result.stderr.startswith("dcx: ")
        assert "budget" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("flag", ["--bins", "--samples"])
    def test_cartpole_sizes_past_the_float_range_exit_1_without_traceback(self, flag):
        # the arrays' size in GiB is past the float range too, so the
        # refusal states it, like the count, as 10^x
        result = run_capped_cli("cartpole", "--measure", "entropy", flag, str(10**400))
        assert result.returncode == 1
        assert result.stderr.startswith("dcx: ") and "10^400.000" in result.stderr
        assert "budget" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_dataset_refuses_a_batch_past_the_budget_before_allocating(self, tmp_path):
        # a streamed measure keeps 16 bytes per 1x1 image: its value and its
        # label. Incompressible bytes whose gzip trailers state 200 million
        # such images are within deflate's 1032-fold bound for files this
        # size, but their per-image values are past the budget, so only the
        # budget check stands before the allocation
        root = tmp_path / "mnist"
        root.mkdir()
        count = 200_000_000
        assert MEMORY_BUDGET < 16 * count
        for name, sizes in (("t10k-images-idx3-ubyte", (count, 1, 1)), ("t10k-labels-idx1-ubyte", (count,))):
            header = bytes([0, 0, 0x08, len(sizes)]) + struct.pack(f">{len(sizes)}I", *sizes)
            data = gzip.compress(header + random.Random(0).randbytes(2_200_000))
            stated = len(header) + count
            assert stated < 1032 * len(data)
            (root / f"{name}.gz").write_bytes(data[:-4] + stated.to_bytes(4, "little"))
        result = run_capped_cli("dataset", "mnist", "--split", "test", "--data-dir", str(tmp_path))
        assert result.returncode == 1
        assert result.stderr.startswith("dcx: streaming 200000000 images ")
        assert "budget" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_dataset_streams_a_batch_whose_array_is_past_the_budget(self, tmp_path):
        # incompressible records, each label byte in 0..9, whose gzip
        # trailer states 700,000 of them: within deflate's 1032-fold bound
        # for a file this size, and past the array budget. Loading them into
        # one array is refused before the allocation; a measure streams them,
        # one block at a time, until the gzip stream disagrees with its trailer
        root = tmp_path / "cifar-10-batches-bin"
        root.mkdir()
        records = bytearray(random.Random(0).randbytes(2_200_000))
        records[::3073] = bytes(label % 10 for label in records[::3073])
        data = gzip.compress(bytes(records))
        stated = 700_000 * 3073
        assert MEMORY_BUDGET < stated < 1032 * len(data)
        (root / "test_batch.bin.gz").write_bytes(data[:-4] + stated.to_bytes(4, "little"))
        with pytest.raises(ResourceLimit, match="loading 700000 images .* budget"):
            load_cifar10(tmp_path, split="test")
        result = run_capped_cli("dataset", "cifar10", "--split", "test", "--data-dir", str(tmp_path))
        assert result.returncode == 1
        assert result.stderr == ("dcx: test_batch.bin.gz: damaged gzip stream "
                                 "(Incorrect length of data produced)\n")
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["game", "ttt", "--avg-length", "0"],
            ["cartpole", "--measure", "entropy", "--samples", "0"],
            ["cartpole", "--measure", "sparsity", "--limit", "0"],
            ["cartpole", "--measure", "limit", "--trials", "0"],
            ["cartpole", "--measure", "sparsity", "--trials", "0"],
            ["cartpole", "--measure", "entropy", "--samples", "10", "--bins", "0"],
            ["cartpole", "--measure", "sparsity", "--limit", "3", "--episode-length", "0"],
        ],
    )
    def test_zero_valued_flags_exit_1(self, args, capsys):
        # a zero is a value the kernel refuses, never a request for the default
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("dcx: ")

    @pytest.mark.parametrize(
        ("args", "named"),
        [
            (["--measure", "sparsity", "--samples", "10"], "--samples"),
            (["--measure", "sparsity", "--limit", "3", "--trials", "10"], "--trials"),
            (["--measure", "entropy", "--limit", "3"], "--limit"),
            (["--measure", "table", "--episode-length", "9"], "--episode-length"),
            (["--measure", "limit", "--trials", "100", "--bins", "5", "--samples", "7",
              "--limit", "3", "--episode-length", "9"], "--samples --bins --limit --episode-length"),
        ],
    )
    def test_flags_the_measure_does_not_read_exit_1(self, args, named, capsys):
        assert main(["cartpole", *args]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("dcx: ") and named in err

    @pytest.mark.parametrize(
        ("measure", "flag"), [("entropy", "--samples")]
    )
    def test_negative_seed_exits_1_without_traceback(self, measure, flag):
        result = run_python(
            "-m", "dcx.cli", "--seed", "-1", "cartpole", "--measure", measure, flag, "10",
        )
        assert result.returncode == 1
        assert result.stderr.startswith("dcx: ") and "seed" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["game", "ttt", "--no-enumerate"],
            ["descriptor", "pogo"],
            ["cartpole", "--measure", "table"],
            ["cartpole", "--measure", "sparsity", "--limit", "9.37"],
            ["cartpole", "--measure", "limit", "--trials", "300"],
            ["cartpole", "--measure", "sparsity", "--trials", "300"],
        ],
    )
    def test_closed_forms_accept_any_seed(self, args, capsys):
        # no value of these reports depends on the seed, so none records it;
        # the limit and its band are quadratures, which draw nothing
        for seed in (-1, 2**70):
            assert main(["--format", "json", "--seed", str(seed), *args]) == 0
            assert json.loads(capsys.readouterr().out)["seed"] is None

    def test_cartpole_3d_reports_carry_deviation_note(self, capsys):
        for measure in ("table", "limit"):
            args = ["--format", "json", "cartpole", "--variant", "3d",
                    "--measure", measure]
            if measure == "limit":
                args += ["--trials", "500"]
            assert main(args) == 0
            payload = json.loads(capsys.readouterr().out)
            assert any("two independent planar" in n for n in payload["notes"])

    @pytest.mark.parametrize(
        ("lengths", "code"),
        [(["--plies", "50000000"], 1), (["--plies", "5", "--avg-length", "50000000"], 0)],
    )
    def test_closed_forms_of_a_huge_board_end_within_seconds(self, lengths, code):
        # a 10^8-cell board: the stone-count sum refuses 5 x 10^7 plies before
        # its loop, and the falling factorial of 5 x 10^7 moves is one formula
        start = time.perf_counter()
        result = run_python("-m", "dcx.cli", "game", "custom", "--side", "10000", "--dims", "2",
                            "--win", "1", "--no-enumerate", *lengths)
        assert time.perf_counter() - start < 5.0
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        assert (result.stdout == "") == (code == 1)

    def test_dataset_iris_refuses_the_flags_it_does_not_read(self, capsys):
        argv = ["dataset", "iris", "--measure", "entropy", "--mode", "binarized",
                "--split", "test", "--data-dir", "/nonexistent"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("dcx: ") and "--mode --split --data-dir" in err
        assert main(["dataset", "iris", "--split", "all"]) == 1
        assert capsys.readouterr().err == "dcx: dataset iris does not read --split\n"

    @pytest.mark.parametrize("mode", ["raw", "binarized"])
    @pytest.mark.parametrize(("name", "measure"), [
        *[("cifar10", m) for m in ("dimensionality", "sparsity", "gini", "entropy")],
        ("mnist", "sparsity"), ("mnist", "gini"),
    ])
    def test_image_measures_refuse_a_mode_they_do_not_read(self, name, measure, mode, request,
                                                           capsys):
        # CIFAR-10 is never binarized, and MNIST sparsity and gini read the
        # raw pixels, so --mode was silently ignored on these
        directory = request.getfixturevalue(
            "synthetic_mnist_dir" if name == "mnist" else "synthetic_cifar_dir"
        )
        argv = ["dataset", name, "--measure", measure, "--mode", mode, "--data-dir", str(directory)]
        assert main(argv) == 1
        what = f"{name} --measure {measure}" if name == "mnist" else name
        assert capsys.readouterr() == ("", f"dcx: dataset {what} does not read --mode\n")

    def test_game_presets_refuse_the_board_flags(self, capsys):
        # ttt and qubic fix their board, so --side, --dims, --plies and --win
        # are refused rather than ignored
        assert main(["game", "ttt", "--side", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "dcx: game ttt does not read --side\n"
        argv = ["game", "qubic", "--side", "4", "--dims", "3", "--plies", "9", "--win", "4"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "dcx: game qubic does not read --side --dims --plies --win\n"
        )

    def test_dataset_iris_gini(self, capsys):
        assert main(["--format", "json", "dataset", "iris", "--measure", "gini"]) == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        assert len(values) == 12
        assert values["gini_setosa_petal_width"] == pytest.approx(0.2086, abs=5e-4)

    def test_dataset_missing_files_fail_cleanly(self, tmp_path, capsys):
        code = main(["dataset", "mnist", "--data-dir", str(tmp_path / "none")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_dataset_mnist_on_synthetic_files(self, synthetic_mnist_dir, capsys):
        code = main(
            ["--format", "json", "dataset", "mnist", "--measure", "dimensionality",
             "--data-dir", str(synthetic_mnist_dir)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        # 784 pixels x 1 channel x 10 classes x 2 values x 32 images
        expected = pytest.approx(5.7006, abs=1e-3)
        assert values["feature_space_dimensionality_log10"] == expected

    def test_compare_command(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["--format", "json", "--out", str(a), "game", "ttt"]) == 0
        assert main(["--format", "json", "--out", str(b), "game", "qubic"]) == 0
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "higher=qubic" in out

    def test_compare_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["compare", str(missing), str(missing)]) == 1

    def test_compare_forged_report(self, tmp_path, capsys):
        forged = tmp_path / "forged.json"
        forged.write_text('{"measures": 5}', encoding="utf-8")
        assert main(["compare", str(forged), str(forged)]) == 1
        assert capsys.readouterr().err.startswith("dcx: ")

    def test_compare_refuses_a_report_that_repeats_a_measure(self, tmp_path, capsys):
        # a forged second ssc_upper_bound_log10 would otherwise win silently
        good, forged = tmp_path / "good.json", tmp_path / "forged.json"
        assert main(["--format", "json", "--out", str(good), "game", "ttt", "--no-enumerate"]) == 0
        payload = json.loads(good.read_text(encoding="utf-8"))
        first = payload["measures"][0]
        assert first["measure_name"] == "ssc_upper_bound_log10"
        payload["measures"].append({**first, "value": 999.0})
        forged.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["compare", str(forged), str(good)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("dcx: ") and "more than once" in err

    @pytest.mark.parametrize(
        "argv",
        [["descriptor", "{path}"], ["descriptor", "pogo", "--breakdown", "{path}"],
         ["compare", "{path}", "{path}"]],
        ids=["descriptor", "breakdown", "report"],
    )
    def test_json_nested_past_the_recursion_limit_exits_1(self, tmp_path, argv, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert main([arg.format(path=path) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("dcx: ") and "is not valid JSON: maximum recursion depth" in err

    @pytest.mark.parametrize(
        "argv",
        [["compare", "{path}", "{path}"], ["descriptor", "{path}"],
         ["descriptor", "pogo", "--breakdown", "{path}"]],
        ids=["report", "descriptor", "breakdown"],
    )
    def test_input_that_is_not_utf8_exits_1_without_traceback(self, tmp_path, argv):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        result = run_python("-m", "dcx.cli", *[arg.format(path=path) for arg in argv])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines() == [
            f"dcx: {path} is not UTF-8 text: invalid start byte at byte 0"
        ]
        assert result.stdout == ""

    def test_compare_non_numeric_value_exits_1_without_traceback(self, tmp_path):
        good, forged = tmp_path / "good.json", tmp_path / "forged.json"
        assert main(["--format", "json", "--out", str(good), "game", "ttt", "--no-enumerate"]) == 0
        payload = json.loads(good.read_text(encoding="utf-8"))
        payload["measures"][0]["value"] = "abc"
        forged.write_text(json.dumps(payload), encoding="utf-8")
        result = run_python("-m", "dcx.cli", "compare", str(good), str(forged))
        assert result.returncode == 1
        assert result.stderr.startswith("dcx: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        ("field", "literal"),
        [("measure_name", "5"), ("value", "9" * 5000)],
        ids=["numeric-name", "5000-digit-value"],
    )
    def test_compare_mistyped_field_exits_1_without_traceback(self, tmp_path, field, literal):
        good, forged = tmp_path / "good.json", tmp_path / "forged.json"
        assert main(["--format", "json", "--out", str(good), "game", "ttt", "--no-enumerate"]) == 0
        payload = json.loads(good.read_text(encoding="utf-8"))
        payload["measures"][0][field] = "FORGED"
        forged.write_text(json.dumps(payload).replace('"FORGED"', literal), encoding="utf-8")
        result = run_python("-m", "dcx.cli", "compare", str(forged), str(forged))
        assert result.returncode == 1
        assert result.stderr.startswith("dcx: ")
        assert "Traceback" not in result.stderr

    def test_compare_csv_survives_commas_and_newlines_in_names(self, tmp_path, capsys):
        names = ("mono,poly\nx", 'say "hi"')
        paths = []
        for domain in ("a,1", "b\n2"):
            report = ComplexityReport(
                domain_name=domain,
                measures=tuple(
                    MeasureResult(name, float(len(paths)), "stated", ANALYTIC)
                    for name in names
                ),
            )
            paths.append(tmp_path / f"{len(paths)}.json")
            paths[-1].write_text(to_json(report), encoding="utf-8")
        assert main(["--format", "csv", "compare", *map(str, paths)]) == 0
        header, *rows = csv.reader(capsys.readouterr().out.splitlines(keepends=True))
        assert header == ["measure_name", "a_value", "b_value", "difference", "higher"]
        assert [(row[0], row[4]) for row in rows] == [(name, "b\n2") for name in sorted(names)]

    def test_compare_json_refuses_a_non_finite_difference(self, tmp_path):
        # both reports load, but 1e308 - (-1e308) overflows to inf, which
        # RFC 8259 JSON cannot hold; text and CSV still print it
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, value in ((a, 1e308), (b, -1e308)):
            report = ComplexityReport(
                domain_name=path.stem,
                measures=(MeasureResult("m", value, "stated", ANALYTIC),),
            )
            path.write_text(to_json(report), encoding="utf-8")
        result = run_python("-m", "dcx.cli", "--format", "json", "compare", str(a), str(b))
        assert result.returncode == 1
        assert result.stderr.startswith("dcx: ") and "inf" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        for fmt in ("text", "csv"):
            assert main(["--format", fmt, "compare", str(a), str(b)]) == 0

    def test_import_loads_no_network_modules(self):
        # urllib itself is imported by pathlib (for urllib.parse); the
        # request, HTTP and TLS stacks must stay out
        code = (
            "import sys, dcx.cli; "
            "print(sorted({'urllib.request', 'http.client', 'ssl', 'socket'} & set(sys.modules)))"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        ("argv", "exit_code", "loads"),
        [
            ((), 0, set()),
            (("--help",), 0, set()),
            *[(("--format", "json", "descriptor", name), 0, {"dcx.descriptors"})
              for name in ("cartpole2d", "cartpole2d-g", "cartpole3d", "pogo")],
            *[(("--format", "csv", "cartpole", "--variant", v, "--measure", "table"), 0,
               {"dcx.descriptors"})
              for v in ("2d", "2dg", "3d")],
            (("--format", "json", "game", "ttt", "--no-enumerate"), 0, {"dcx.games"}),
            (("--format", "json", "game", "qubic"), 0, {"dcx.games"}),
            # a board played to at most twice its win length is counted in
            # closed form, others of at most nine cells are searched in
            # plain Python and larger ones with the numpy kernel
            (("--format", "json", "game", "custom", "--side", "4", "--dims", "2",
              "--plies", "6", "--win", "4"), 0, {"dcx.games"}),
            (("--format", "json", "game", "custom", "--side", "4", "--dims", "2",
              "--plies", "6", "--win", "3"), 0, {"dcx.games"}),
            (("--format", "json", "game", "ttt"), 0, {"dcx.games"}),
            (("--format", "json", "game", "custom", "--side", "4", "--dims", "2",
              "--plies", "7", "--win", "3"), 0, {"dcx.games", "numpy"}),
            (("--format", "json", "compare", "{ttt}", "{qubic}"), 0, set()),
            (("--format", "json", "compare", "{qubic}", "{ttt}"), 0, set()),
            (("descriptor", "nosuch"), 1, {"dcx.descriptors"}),
            (("cartpole", "--variant", "4d"), 2, set()),
            (("game", "checkers"), 2, set()),
            *[(("--format", "json", "dataset", "iris", "--measure", m), 0, set())
              for m in ("dimensionality", "sparsity", "gini", "entropy")],
            (("--format", "json", "descriptor", "monopoly"), 0, {"dcx.descriptors"}),
            (("descriptor", "pogo", "--breakdown", "pogo"), 0, {"dcx.descriptors"}),
        ],
        ids=lambda v: ((" ".join(v) or "import") if isinstance(v, tuple)
                       else "+".join(sorted(v)) or "none" if isinstance(v, set) else None),
    )
    def test_numpy_loads_only_where_a_value_needs_it(self, tmp_path, argv, exit_code, loads):
        # closed forms (games, descriptor arithmetic, cart-pole tables,
        # compare, errors), small-board enumeration, the descriptor
        # entropies and the iris table never touch a numpy value, so they
        # must not pay for its import, and each subcommand loads only its
        # own domain module; an empty argv means a bare `import dcx.cli`.
        # No run loads dataclasses, and inspect and numbers load only with
        # numpy, which imports them. No run loads _hashlib, OpenSSL's
        # binding: a report's hash takes the built-in SHA-256
        reports = {"ttt": tmp_path / "ttt.json", "qubic": tmp_path / "qubic.json"}
        for name, path in reports.items():
            extra = ("--no-enumerate",) if name == "ttt" else ()
            assert main(["--format", "json", "--out", str(path), "game", name, *extra]) == 0
        argv = [arg.format(**reports) for arg in argv]
        watched = ("numpy", "dcx.games", "dcx.descriptors", "dataclasses", "inspect", "numbers",
                   "_hashlib")
        loads = loads | ({"inspect", "numbers"} if "numpy" in loads else set())
        probe = (
            "import sys\n"
            "import dcx\n"
            f"watched = {watched!r}\n"
            "before = [m for m in watched if m in sys.modules]\n"
            "from dcx.cli import main\n"
            "try:\n"
            "    code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "after = sorted(m for m in watched if m in sys.modules)\n"
            "print(f'probe: {code} {before} {after}', file=sys.stderr)\n"
        )
        result = run_python("-c", probe, *argv)
        assert "Traceback" not in result.stderr, result.stderr
        assert result.stderr.splitlines()[-1] == f"probe: {exit_code} [] {sorted(loads)}"

    @pytest.mark.parametrize(
        ("argv", "exit_code", "loads"),
        [(("--help",), 0, False), (("compare", "{report}", "{report}"), 0, False),
         (("game", "checkers"), 2, False), (("game", "ttt", "--no-enumerate"), 0, True)],
        ids=["help", "compare", "usage-error", "game"],
    )
    def test_only_a_subcommand_that_runs_a_case_loads_dcx_cases(self, tmp_path, argv, exit_code,
                                                                 loads):
        report = tmp_path / "ttt.json"
        assert main(["--format", "json", "--out", str(report), "game", "ttt", "--no-enumerate"]) == 0
        probe = (
            "import sys\n"
            "from dcx.cli import main\n"
            "try:\n"
            "    code = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(f'probe: {code} {\"dcx.cases\" in sys.modules}', file=sys.stderr)\n"
        )
        result = run_python("-c", probe, *[arg.format(report=report) for arg in argv])
        assert result.stderr.splitlines()[-1] == f"probe: {exit_code} {loads}"

    def test_bundled_files_load_without_resource_machinery(self):
        # -S skips site, which on some hosts imports importlib.resources
        # itself; the package's own loader reads its data files, so neither
        # that nor what it pulls in (inspect from 3.12, tempfile, zipfile)
        # is imported to read them
        probe = (
            "import os, sys\n"
            "from dcx import datasets, descriptors\n"
            "from dcx.cli import main\n"
            "for name in descriptors.BUNDLED_DESCRIPTORS:\n"
            "    descriptors.bundled_descriptor(name)\n"
            "descriptors.bundled_breakdown('pogo')\n"
            "datasets.load_iris()\n"
            f"for argv in {BUNDLED_RUNS!r}:\n"
            "    assert main(['--out', os.devnull, *argv]) == 0, argv\n"
            "heavy = ('importlib.resources', 'inspect', 'tempfile', 'zipfile')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
        )
        result = run_python("-S", "-c", probe)
        assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\n")

    @pytest.mark.parametrize(
        ("name", "measure"),
        [("mnist", "sparsity"), ("mnist", "entropy"), ("cifar10", "gini"), ("cifar10", "entropy")],
    )
    def test_image_summaries_leave_numpy_ma_unloaded(self, name, measure, request):
        # np.median and np.nanmedian import numpy.ma, 17-20 ms of such a
        # run's imports; the class summaries and Gini medians sort instead.
        # MNIST's zero fractions and binarized entropies are counted from
        # the file bytes, so those runs load no numpy at all
        directory = request.getfixturevalue(f"synthetic_{name.removesuffix('10')}_dir")
        probe = (
            "import sys\n"
            "from dcx.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
        )
        result = run_python("-c", probe, "--out", os.devnull, "dataset", name,
                            "--measure", measure, "--data-dir", str(directory))
        assert (result.stdout, result.stderr) == (f"0 {name == 'cifar10'} False\n", "")

    @pytest.mark.parametrize(
        ("argv", "needs_numpy"),
        [
            *[(("mnist", "--measure", m), False)
              for m in ("sparsity", "entropy", "dimensionality")],
            *[(("cifar10", "--measure", m), False) for m in ("sparsity", "dimensionality")],
            *[(("cifar10", "--measure", m), True) for m in ("gini", "entropy")],
            (("mnist", "--measure", "entropy", "--mode", "raw"), True),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else "numpy" if v else "no-numpy",
    )
    def test_counting_image_measures_run_without_numpy(self, tmp_path, argv, needs_numpy, capsys):
        # the zero fractions and binarized entropies take each image's count
        # of nonzero bytes straight from the file bytes, and dimensionality
        # only reads the files through; raw histograms and Gini indices are
        # numpy kernels. The files are written with the standard library only
        directory = write_tiny_images(tmp_path)
        argv = ["--format", "json", "dataset", *argv, "--data-dir", str(directory)]
        probe = (
            "import sys\n"
            "if sys.argv[1] == 'absent':\n"
            "    sys.modules['numpy'] = None  # so that importing numpy fails\n"
            "from dcx.cli import main\n"
            "code = main(sys.argv[2:])\n"
            "print(code, sys.modules.get('numpy') is not None, file=sys.stderr)\n"
        )
        result = run_python("-c", probe, "present" if needs_numpy else "absent", *argv)
        assert result.stderr == f"0 {needs_numpy}\n"
        assert main(argv) == 0
        # the same report but for its timestamp, which has one-second
        # resolution and can tick between the two runs
        child, here = json.loads(result.stdout), json.loads(capsys.readouterr().out)
        del child["timestamp"], here["timestamp"]
        assert child == here

    def test_a_zipped_package_reads_its_bundled_files(self, tmp_path, capsys):
        package = Path(dcx.__file__).resolve().parent
        archive = tmp_path / "dcx.zip"
        with zipfile.ZipFile(archive, "w") as zipped:
            for path in sorted(package.rglob("*")):
                if path.is_file() and "__pycache__" not in path.parts:
                    zipped.write(path, path.relative_to(package.parent))
        probe = (
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "import dcx\n"
            "from dcx.cli import main\n"
            "print(dcx.__file__)\n"
            f"for argv in {BUNDLED_RUNS!r}:\n"
            "    with redirect_stdout(io.StringIO()) as out:\n"
            "        assert main(['--format', 'json', '--seed', '0', *argv]) == 0, argv\n"
            "    print(json.loads(out.getvalue())['determinism_hash'])\n"
        )
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(archive)},
        )
        assert result.stderr == ""
        lines = result.stdout.splitlines()
        assert lines[0] == str(archive / "dcx" / "__init__.py")
        assert lines[1:] == [report_hash(argv, capsys) for argv in BUNDLED_RUNS]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
    @pytest.mark.parametrize(("setting", "threads"), [(None, 1), ("2", 2)])
    def test_numpy_starts_without_a_blas_worker(self, monkeypatch, setting, threads):
        # dcx calls no BLAS routine, so OpenBLAS's worker thread, which
        # spins at start-up, is not started; a setting already made is kept
        if threads > len(os.sched_getaffinity(0)):
            pytest.skip("OpenBLAS starts no more threads than there are CPUs")
        if setting is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
        probe = (
            "import os, sys\n"
            "from dcx.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('probe:', code, 'numpy' in sys.modules, len(os.listdir('/proc/self/task')),\n"
            "      file=sys.stderr)\n"
        )
        # a board of more than nine cells played past twice its win length
        # enumerates with numpy
        result = run_python("-c", probe, "--format", "json", "game", "custom", "--side", "4",
                            "--dims", "2", "--plies", "7", "--win", "3")
        assert result.stderr.splitlines()[-1] == f"probe: 0 True {threads}", result.stderr

    def test_out_to_missing_directory_fails_cleanly(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "report.json"
        assert main(["--format", "json", "--out", str(dest), "game", "ttt"]) == 1
        assert capsys.readouterr().err.startswith("dcx: ")
        assert not dest.exists()

    def test_out_writes_file(self, tmp_path):
        dest = tmp_path / "report.csv"
        assert main(["--format", "csv", "--out", str(dest), "game", "ttt"]) == 0
        assert dest.read_text(encoding="utf-8").startswith("domain_name,")

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["game", "checkers"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

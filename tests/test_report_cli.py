"""Report serialization, comparison rules, and the command-line surface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dcx
from dcx.cli import main
from dcx.errors import FormatError, InvalidParameter
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


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports dcx from the tree under test."""
    src = str(Path(dcx.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


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

    @pytest.mark.parametrize("value", ["abc", True, None, [1.0]])
    def test_from_json_rejects_non_numeric_values(self, value):
        for field in ("measure value", "target value", "target tolerance"):
            payload = json.loads(to_json(sample_report()))
            if field == "measure value":
                payload["measures"][0]["value"] = value
            else:
                payload["reference_targets"][0][field.split()[1]] = value
            with pytest.raises(FormatError):
                from_json(json.dumps(payload))

    def test_from_json_rejects_non_json(self):
        with pytest.raises(FormatError):
            from_json("{]")

    def test_csv_header_and_rows(self):
        text = to_csv(sample_report())
        lines = text.strip().splitlines()
        assert lines[0] == "domain_name,measure_name,value,convention,provenance,seed,samples"
        assert len(lines) == 3
        assert lines[1].startswith("toy,alpha,1.5,")

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

    def test_descriptor_unknown_source(self, capsys):
        assert main(["descriptor", "atlantis"]) == 1
        assert "atlantis" in capsys.readouterr().err

    def test_cartpole_limit_seeded(self, capsys):
        code = main(
            ["--format", "json", "--seed", "0", "cartpole", "--variant", "2d",
             "--measure", "limit", "--trials", "2000"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        values = {m["measure_name"]: m["value"] for m in payload["measures"]}
        assert values["constant_action_limit"] == pytest.approx(9.37, abs=1.0)

    def test_cartpole_3d_reports_carry_deviation_note(self, capsys):
        for measure in ("table", "limit"):
            args = ["--format", "json", "cartpole", "--variant", "3d",
                    "--measure", measure]
            if measure == "limit":
                args += ["--trials", "500"]
            assert main(args) == 0
            payload = json.loads(capsys.readouterr().out)
            assert any("two independent planar" in n for n in payload["notes"])

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

"""Report serialization, comparison rules, and the command-line surface."""

import ast
import csv
import gzip
import json
import math
import os
import random
import resource
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dcx
from dcx.cli import main
from dcx.datasets import load_cifar10
from dcx.errors import MEMORY_BUDGET, FormatError, InvalidParameter, InvalidValue, ResourceLimit
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
    # domain module that computes it; the CLI only resolves inputs and
    # assembles what the domain modules return
    tree = ast.parse(Path(dcx.cli.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            assert getattr(func, "id", getattr(func, "attr", None)) != "MeasureResult"
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert not names & {"ANALYTIC", "ENUMERATED", "monte_carlo"}, node.module
            assert not (node.module == "dataclasses" and "replace" in names)
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

    def test_report_refuses_non_finite_values(self):
        # refused where the report is built, so neither JSON nor text or
        # CSV ever holds one
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(InvalidValue, match="alpha"):
                sample_report(value=value)

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
        ("measure", "flag"), [("limit", "--trials"), ("sparsity", "--trials"), ("entropy", "--samples")]
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
        ],
    )
    def test_closed_forms_accept_any_seed(self, args, capsys):
        # no value of these reports depends on the seed, so none records it
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
            (("--format", "json", "game", "ttt"), 0, {"dcx.games", "numpy"}),
            (("--format", "json", "compare", "{ttt}", "{qubic}"), 0, set()),
            (("--format", "json", "compare", "{qubic}", "{ttt}"), 0, set()),
            (("descriptor", "nosuch"), 1, {"dcx.descriptors"}),
            (("cartpole", "--variant", "4d"), 2, set()),
            (("game", "checkers"), 2, set()),
            (("--format", "json", "dataset", "iris"), 0, {"numpy"}),
            (("--format", "json", "descriptor", "monopoly"), 0, {"dcx.descriptors", "numpy"}),
        ],
        ids=lambda v: ((" ".join(v) or "import") if isinstance(v, tuple)
                       else "+".join(sorted(v)) or "none" if isinstance(v, set) else None),
    )
    def test_numpy_loads_only_where_a_value_needs_it(self, tmp_path, argv, exit_code, loads):
        # closed forms (games, descriptor arithmetic, cart-pole tables,
        # compare, errors) never touch a numpy value, so they must not pay
        # for its import, and each subcommand loads only its own domain
        # module; an empty argv means a bare `import dcx.cli`
        reports = {"ttt": tmp_path / "ttt.json", "qubic": tmp_path / "qubic.json"}
        for name, path in reports.items():
            extra = ("--no-enumerate",) if name == "ttt" else ()
            assert main(["--format", "json", "--out", str(path), "game", name, *extra]) == 0
        argv = [arg.format(**reports) for arg in argv]
        probe = (
            "import sys\n"
            "import dcx\n"
            "watched = ('numpy', 'dcx.games', 'dcx.descriptors')\n"
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
        result = run_python("-c", probe, "--format", "json", "dataset", "iris")
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

"""Determinism hashes of default CLI reports at seed 0.

Each pin is the report's `determinism_hash`, which covers every value,
convention and provenance but not the timestamp. A change that alters a
value on purpose updates its pin and says so in CHANGES.md.
"""

import json

import pytest

from dcx.cli import main

CARTPOLE_PINS = {
    ("2d", "limit"): "e2b6b4ef4c0a7b548494c58569cfc09737c47ccda27c2ca5570444e958a7e002",
    ("2d", "sparsity"): "9ad8f1a7bac4fe07eba0d7469627fd0b36c83e7e9ea2bef686c73350af7bd273",
    ("2d", "entropy"): "42374e5ab88eeace05916e2b9ddcbc885cf94a87e4ebbc3165c0c13b3bed32ad",
    ("2dg", "limit"): "3a2db1e1f37804086ed0d7052c9bf688a1eb3c5639a3c14297d841633c323200",
    ("2dg", "sparsity"): "6a68a65cba09d7dd70a36d9d921c57ecdaddf0f9d558e46fa41fff9b15841c51",
    ("2dg", "entropy"): "a29408e66e1731aeb79c892e78171d6790f7edca4fab8a527a792413fee45ff3",
    ("3d", "limit"): "4fe6567919997fa48997f25c9dacc19d68a44b2991e9d8903821f3a464774233",
    ("3d", "sparsity"): "d974fc633b591a83d61d0b31b5cd4cf528baf02df1b1c91ee39154e408665619",
    ("3d", "entropy"): "eb53b18ab8e7799acaa5c8514254c0388cbb17cb78e5c6aa2e76d904967fc9ca",
}


@pytest.mark.parametrize(("variant", "measure"), sorted(CARTPOLE_PINS))
def test_cartpole_report_hash(variant, measure, capsys):
    args = ["--format", "json", "--seed", "0", "cartpole", "--variant", variant,
            "--measure", measure]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["determinism_hash"] == CARTPOLE_PINS[variant, measure]

"""Golden corpus: what every bundled CLI invocation prints at seed 0.

Report pins are the report's `determinism_hash`, which covers every value,
convention, provenance, reference target and note but not the timestamp.
Byte pins are the sha256 of the exact text a non-report invocation writes:
text and CSV reports, `compare` rows and the two typed usage errors. A
pin changes only when a value changes on purpose, and CHANGES.md lists
the change.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcx
from dcx import cli
from dcx.cases import CartPoleCase, DatasetCase, DescriptorCase, GameCase, run
from dcx.cli import main
from dcx.errors import replace

CARTPOLE_PINS = {
    ("2d", "limit"): "617acbe20bb097e9a75ac3c0c9e19e37ac811fb94736a97858086008959070c6",
    ("2d", "sparsity"): "ef8b1ca49d38cfdfe26a96bb938649d40e62d1a2ddc09ed8ca3d7c59fbb835d0",
    ("2d", "entropy"): "da6363e48a9c556106e0e192b2c0ec1593c4664a6c71cabd616a5170a5701be7",
    ("2dg", "limit"): "a66ff227045113f336225cf70602342b7d62b7baddf1fc903635202d13f8516a",
    ("2dg", "sparsity"): "16ad71343afb3cf018b804c4dc75f3cbc4c2d1ba0688679600fc971576fab4c7",
    ("2dg", "entropy"): "e86599ba54c9fe19a89ff42f9f3faadc377a1dbc01feaef7231f2cdfee669581",
    ("3d", "limit"): "1ac30f412ca5ceee3358a29fa880d01ad0febfee19f8c88e7f2dd95e17f7edc3",
    ("3d", "sparsity"): "ef79c22c5d1086324633096511b602260dbdfa86a9b65c37bf33cb2a0a2eb108",
    ("3d", "entropy"): "63c613f78da62e3d11863402a46d89d730d914f7b6a048d7f2ea1636969db6ad",
}

# determinism_hash of `dcx --format json --seed 0 <command>`
REPORT_PINS = {
    "game ttt":
        "d3ea16193ea8c10fab01d778cb7a30dd065b29ad79e30d1004ae2337a617f799",
    "game ttt --no-enumerate":
        "ea73504c7bf01666163eccf9b680dc2cfd65cedffc330a375c0cdafa23e5eea7",
    "game qubic":
        "37ee88575e1299829010151a14f880dd090a4a32443b95155800a1f9908ffe8c",
    "game custom --side 2 --dims 2 --plies 4 --win 2":
        "99d34e301e88cb61274cda13c62dcff3c82cd8f5b3c9b4d4c4937d089e9e4353",
    "game custom --side 4 --dims 2 --plies 6 --win 4":
        "ea753158e53ab26aac8ffe37459c1374f02b3fab8b609d29bc3f48174fcad53b",
    "game custom --side 4 --dims 2 --plies 6 --win 3":
        "faae0081e80bf5979e4ede691538a5c45f8d5e4412d08733f32cf0e02d36446a",
    "descriptor cartpole2d":
        "9e60ad915c8262c7bb9c7e0c00cecfc5ca990d1c71efb6085ccf30dc48a0a52c",
    "descriptor cartpole2d-g":
        "3eb026eab33beb836753332d076c44be2007c7d466ccaa9e500a0c3fdb572ee0",
    "descriptor cartpole3d":
        "4bea6d9940e0154a7dbed2e981fd266eb809a06721a0458ee892339090840b10",
    "descriptor monopoly":
        "4b3b6f8d4fdd1807de71b67bc7e22661aafe43808025999ac2163e92d1ee45fd",
    "descriptor pogo":
        "1007736ca198c4ab7fccb9c2c4e5b8f31c873d462fcd2bad93760c5e5a2de3c6",
    "descriptor pogo --breakdown pogo":
        "c36bf0e31c8733a5f4afcf84fb762892fb5055eb345978b22dbc36d57ec8c0eb",
    "cartpole --variant 2d --measure table":
        "9e60ad915c8262c7bb9c7e0c00cecfc5ca990d1c71efb6085ccf30dc48a0a52c",
    "cartpole --variant 2dg --measure table":
        "3eb026eab33beb836753332d076c44be2007c7d466ccaa9e500a0c3fdb572ee0",
    "cartpole --variant 3d --measure table":
        "db2c854557fc7ae0512b7ae163ac70314f702d86b66f67c36aff180c30d1b7de",
    "dataset iris --measure dimensionality":
        "643240cc937606380f7066317fca6a1bf6e80226be23d9a869856fa57cfd18f5",
    "dataset iris --measure sparsity":
        "83295acec9a75d866fa9ae6d45f68d31450ec0d79bba9a1895904462bdb85e34",
    "dataset iris --measure gini":
        "83295acec9a75d866fa9ae6d45f68d31450ec0d79bba9a1895904462bdb85e34",
    "dataset iris --measure entropy":
        "f522d82d0a3dff98160b8eec0dead3dd747a9bf4a264e600cf085bba5e50f986",
}

# determinism_hash of `dcx --format json --seed 0 dataset <name> --measure
# <measure> <options> --data-dir <dir>` on the conftest synthetic files
IMAGE_PINS = {
    ("mnist", "dimensionality", ""):
        "a6c75f5f6ca3d333388ab625e514725e5389473c1550ccad3873886c4d3aacb6",
    ("mnist", "dimensionality", "--mode raw"):
        "13e1be968331bb1ef3e196d0fd602c45a2b10eb6467d7ea45fa692a99cb99669",
    ("mnist", "dimensionality", "--mode binarized"):
        "a6c75f5f6ca3d333388ab625e514725e5389473c1550ccad3873886c4d3aacb6",
    ("mnist", "dimensionality", "--split test"):
        "87ccd7e9c3abf7944fb97b112ff7e6be4d8472089c97d8919d83bd5990b6089d",
    ("mnist", "sparsity", ""):
        "67859eb3cf4a23aacd7963fc206ab57d8d2d84aeaa2b7f2514b33bec1e9e24c8",
    ("mnist", "sparsity", "--split test"):
        "dfae512029b8d64873300e2dd9cb5fb9ecde6cb54aac13e74b47c962fa02f6d3",
    ("mnist", "gini", ""):
        "0cd26f51d77bccb1a3cdf659eb9888c20f00718e9b8c6baef688a4fca7b0c235",
    ("mnist", "gini", "--split test"):
        "da989a34214b9eb3561456e4aa56eaec3ac1ee3c8177c67a744cf1a7905ec857",
    ("mnist", "entropy", ""):
        "410798c51d4ed08ef7cdc3da6a46573d8244e3ddc7134ace2a7622eea891df12",
    ("mnist", "entropy", "--mode raw"):
        "14dcf91dc30985aed7802b1f99b19134fc101ee95b6a8e7fb0b684dfc39855c9",
    ("mnist", "entropy", "--mode binarized"):
        "410798c51d4ed08ef7cdc3da6a46573d8244e3ddc7134ace2a7622eea891df12",
    ("mnist", "entropy", "--split test"):
        "541b16226c42be6c5183bcefabc428efe63915f1cdd7912126cf9af5acc636ff",
    ("cifar10", "dimensionality", ""):
        "033930aa336a19aa2290989e4fbcc40e8b1ceb01ac55e702a0315c907aeda18b",
    ("cifar10", "dimensionality", "--split test"):
        "862352eeb54ef55dce2873007ff3c253817f8fae45ca1ebe690d6449203b2d8b",
    ("cifar10", "sparsity", ""):
        "caea2a15c19d75dd880ebd056f5dfbfabfdb26aea9c678ae1e7d409b39b99f8f",
    ("cifar10", "sparsity", "--split test"):
        "9b8af2c8b881994209b8d4ad6e42bba97563afc2e83f317c6152ab68ff0d993f",
    ("cifar10", "gini", ""):
        "33ca907e84d922bc0149f60ff5af713971af1de4f81a99894f23dd8f5e669755",
    ("cifar10", "gini", "--split test"):
        "4838e97f55bc54dd2f18a8251c097448a31a6e07d672aa63994050b773053d0a",
    ("cifar10", "entropy", ""):
        "f3cfce609aa4b8493e9c8cb510098087edf2fc9bf69ba106500ac71676027228",
    ("cifar10", "entropy", "--split test"):
        "9999f5021656100ea579e9bb28230e51e23f28b6db63120f9f95cb4b7cc437d5",
}

# sha256 of the stdout of `dcx <command>`
STDOUT_PINS = {
    "descriptor pogo --breakdown pogo":
        "e1b49b993a17f2dafbf4760434f13c0e750cf9ee6db2a66340862fd20fc7de9e",
    "--format csv cartpole --variant 2d --measure table":
        "50ce175b3d03fc67a7daec08bf7489ba39cfe4a9abbc3b7ce92cac78b8183784",
    "--format csv cartpole --variant 2dg --measure table":
        "6325447fac3e0c49297e0a352f9e23e824b91602135aa2e0e48d1fbad939bdf7",
    "--format csv cartpole --variant 3d --measure table":
        "a2dfe75b5ed55117d10f471ae12fce7bce56f5623edc38fc5c84cf30ae0c2dde",
}

# sha256 of the stdout of `dcx --format json compare <a> <b>`, where ttt is
# the report of `game ttt --no-enumerate` and qubic that of `game qubic`
COMPARE_PINS = {
    ("ttt", "qubic"):
        "74d43279d40fd568bd147e65887cf9e354cf26af88fe614bef6e1832cfee9733",
    ("qubic", "ttt"):
        "7c7d4799422aafab2e1b927dbee0016856e348a44daf5549eb98f4c9c41d1448",
}

# (exit code, sha256 of stderr) of `dcx <command>` in a fresh process with
# COLUMNS=80, since argparse wraps its usage text to the terminal width
ERROR_PINS = {
    "descriptor nosuch": (
        1, "1209f35d593beb10d47aa07bff532bb9dd160af7f6df8dd3d78faa62cca862fc",
    ),
    "cartpole --variant 4d": (
        2, "52e0aa771c7abbf01ebb85d5c82eef60af02552f8953188efd80611fdc1d7a33",
    ),
}

COMPARE_SOURCES = {"ttt": "game ttt --no-enumerate", "qubic": "game qubic"}

# the case of each REPORT_PINS command, built by keyword
REPORT_CASES = {
    "game ttt": GameCase(preset="ttt"),
    "game ttt --no-enumerate": GameCase(preset="ttt", enumerate=False),
    "game qubic": GameCase(preset="qubic"),
    **{f"game custom --side {side} --dims 2 --plies {plies} --win {win}":
       GameCase(preset="custom", side=side, dims=2, plies=plies, win=win)
       for side, plies, win in ((2, 4, 2), (4, 6, 4), (4, 6, 3))},
    **{f"descriptor {name}": DescriptorCase(source=name)
       for name in ("cartpole2d", "cartpole2d-g", "cartpole3d", "monopoly", "pogo")},
    "descriptor pogo --breakdown pogo": DescriptorCase(source="pogo", breakdown="pogo"),
    **{f"cartpole --variant {variant} --measure table": CartPoleCase(variant=variant)
       for variant in ("2d", "2dg", "3d")},
    **{f"dataset iris --measure {measure}": DatasetCase(name="iris", measure=measure)
       for measure in ("dimensionality", "sparsity", "gini", "entropy")},
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_hash(argv: list[str], capsys) -> str:
    assert main(["--format", "json", "--seed", "0", *argv]) == 0
    return json.loads(capsys.readouterr().out)["determinism_hash"]


def stdout_sha(argv: list[str], capsys) -> str:
    assert main(argv) == 0
    return sha256(capsys.readouterr().out)


def compare_sha(a: str, b: str, tmp_path: Path, capsys) -> str:
    paths = {}
    for name, command in COMPARE_SOURCES.items():
        paths[name] = tmp_path / f"{name}.json"
        assert main(["--format", "json", "--out", str(paths[name]), *command.split()]) == 0
    return stdout_sha(["--format", "json", "compare", str(paths[a]), str(paths[b])], capsys)


def error_pin(command: str) -> tuple[int, str]:
    src = str(Path(dcx.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "COLUMNS": "80",
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    result = subprocess.run(
        [sys.executable, "-m", "dcx.cli", *command.split()],
        capture_output=True, text=True, timeout=60, env=env,
    )
    return result.returncode, sha256(result.stderr)


@pytest.mark.parametrize(("variant", "measure"), sorted(CARTPOLE_PINS))
def test_cartpole_report_hash(variant, measure, capsys):
    argv = ["cartpole", "--variant", variant, "--measure", measure]
    assert report_hash(argv, capsys) == CARTPOLE_PINS[variant, measure]


@pytest.mark.parametrize("command", sorted(REPORT_PINS))
def test_report_hash(command, capsys):
    assert report_hash(command.split(), capsys) == REPORT_PINS[command]


def test_report_hash_without_the_built_in_sha256(monkeypatch, capsys):
    # an interpreter built without _sha2 (3.12+) or _sha256 hashes a
    # report with hashlib, whose digest is the same
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert dcx.report._sha256() is hashlib.sha256
    assert report_hash(["game", "qubic"], capsys) == REPORT_PINS["game qubic"]


@pytest.mark.parametrize(("name", "measure", "options"), sorted(IMAGE_PINS))
def test_image_report_hash(name, measure, options, request, capsys):
    directory = request.getfixturevalue(
        "synthetic_mnist_dir" if name == "mnist" else "synthetic_cifar_dir"
    )
    argv = ["dataset", name, "--measure", measure, *options.split(),
            "--data-dir", str(directory)]
    assert report_hash(argv, capsys) == IMAGE_PINS[name, measure, options]


@pytest.mark.parametrize("command", sorted(STDOUT_PINS))
def test_stdout_bytes(command, capsys):
    assert stdout_sha(command.split(), capsys) == STDOUT_PINS[command]


@pytest.mark.parametrize(("a", "b"), sorted(COMPARE_PINS))
def test_compare_bytes(a, b, tmp_path, capsys):
    assert compare_sha(a, b, tmp_path, capsys) == COMPARE_PINS[a, b]


@pytest.mark.parametrize("command", sorted(ERROR_PINS))
def test_error_bytes(command):
    assert error_pin(command) == ERROR_PINS[command]


def check_case(argv: list[str], case, pin: str) -> None:
    # the case the CLI builds is the one built by keyword, survives a
    # replace round trip, and runs to the pinned report without argparse
    assert cli._case(cli.build_parser().parse_args(["--seed", "0", *argv])) == case
    assert replace(case) == case
    assert run(case).determinism_hash() == pin


@pytest.mark.parametrize("command", sorted(REPORT_PINS))
def test_report_case(command):
    check_case(command.split(), REPORT_CASES[command], REPORT_PINS[command])


@pytest.mark.parametrize(("variant", "measure"), sorted(CARTPOLE_PINS))
def test_cartpole_case(variant, measure):
    argv = ["cartpole", "--variant", variant, "--measure", measure]
    case = CartPoleCase(measure=measure, variant=variant, seed=0)
    check_case(argv, case, CARTPOLE_PINS[variant, measure])


@pytest.mark.parametrize(("name", "measure", "options"), sorted(IMAGE_PINS))
def test_image_case(name, measure, options, request):
    directory = request.getfixturevalue(
        "synthetic_mnist_dir" if name == "mnist" else "synthetic_cifar_dir"
    )
    argv = ["dataset", name, "--measure", measure, *options.split(), "--data-dir", str(directory)]
    chosen = dict([options.removeprefix("--").split()]) if options else {}
    case = DatasetCase(name=name, measure=measure, data_dir=directory, **chosen)
    check_case(argv, case, IMAGE_PINS[name, measure, options])

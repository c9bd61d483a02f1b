"""Golden outputs: the README sample config through the CLI, byte for byte.

The README's JSON config runs with `emit_svg: true` and two fit windows
through `spectrum --svg`, `scenario`, `fano --config --out` and `diff`, in a
temporary directory and in-process through `cli.main`. Every file written
and each command's stdout are pinned by sha256, so an output byte that
changes fails here. A change that alters output on purpose updates the pin
it breaks and says in CHANGES.md how much the numbers moved.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from excitonprobe.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

FIT_WINDOWS = [[520.0, 620.0], [570.0, 730.0]]

COMMANDS = {
    "spectrum": ["spectrum", "--config", "run.json", "--svg"],
    "scenario": ["scenario", "--config", "run.json"],
    "fano": ["fano", "--spectrum", "out/baseline.csv", "--config", "run.json",
             "--out", "out/fits.csv"],
    "diff": ["diff", "--base", "out/baseline.csv", "--mod", "out/remove-site-5.csv"],
}

# sha256 of each command's stdout, in the order the commands run.
STDOUT_SHA256 = {
    "spectrum": "10eb4c6d7b6f487e0617bb5f0a1b6516427d8124ad0d2b13cb0031bd41f4bf70",
    "scenario": "e0573f7400eb53e9b11c44e370ff5707439a879ba15bd79e4cc7ec7ec658afe4",
    "fano": "3c2a04a6c2d6c529639bae5b5822718fddda155244e0743f4de506a6b092fafa",
    "diff": "0471e0c29f88e05fef898b6de948f8e670eb9be98136e0acbc7a90083ef49ac7",
}

# sha256 of every file the four commands leave under output_dir.
FILE_SHA256 = {
    "baseline.csv": "c68786ea53bc0034ca9e65be9f933a32237953c559579c735406966fd5d65a2a",
    "baseline.svg": "670f51144c4056bee00a044e41d09aea18dde06c50da73947b0fdaeb5a31cecc",
    "fits.csv": "3c2a04a6c2d6c529639bae5b5822718fddda155244e0743f4de506a6b092fafa",
    "inhibit-J-1-2.csv": "044a3f9d3fd2e28d9a61621ba8c703db0fd8249510876c41018d5bfac1e3c810",
    "inhibit-J-1-2.svg": "97a1f37a28c05b95d65ebbe834982cdb77a9afc385405ee909b618c5b5c36e64",
    "remove-site-5.csv": "708fc799b32843bec3ef7413b43d0545ef9d2a96aafe91ad955bec1fd9074788",
    "remove-site-5.svg": "5e128ac12984c370c0daa7bda8b116c5f1aef514905e330bfe133a733fe14648",
    "report.json": "707196d456eb3a884cbb8b52058c97443383b96fc91b34cba9b894704d0e20f8",
    "set-ports-1g10-6g0.1.csv": "bd9914a77194c194f43fb282f2d7e275315615958c9886bc0667db4bb8d808d5",
    "set-ports-1g10-6g0.1.svg": "2095ba20865274a78f5eee21a823aeb345645e7fe2c7569654171b20ff836a9f",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """(stdout digest per command, file digest per name) of one README run."""
    workdir = tmp_path_factory.mktemp("golden")
    config = json.loads(re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"),
                                   re.S)[0])
    config.update(emit_svg=True, fit_windows=FIT_WINDOWS)
    (workdir / "run.json").write_text(json.dumps(config, indent=2) + "\n")

    stdout = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for name, argv in COMMANDS.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0, name
            stdout[name] = sha256(buf.getvalue().encode("utf-8"))
    out = workdir / config["output_dir"]
    files = {path.name: sha256(path.read_bytes()) for path in sorted(out.iterdir())}
    return stdout, files


@pytest.mark.parametrize("command", list(COMMANDS))
def test_stdout_pinned(golden_run, command):
    assert golden_run[0][command] == STDOUT_SHA256[command]


def test_file_set_pinned(golden_run):
    assert sorted(golden_run[1]) == sorted(FILE_SHA256)


@pytest.mark.parametrize("name", sorted(FILE_SHA256))
def test_file_pinned(golden_run, name):
    assert golden_run[1].get(name) == FILE_SHA256[name]

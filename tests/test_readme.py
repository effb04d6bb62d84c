"""README's examples run as written: its command lines, its Python example and its file formats.

The values README quotes as `module.NAME` = value are the code's.
"""

import importlib
import json
import pathlib
import re
import shlex

import pytest

from retrodictor.cli import main
from retrodictor.formats import parse_ensemble_file, parse_povm_file

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
QUOTED = re.findall(r"`(\w+)\.(\w+)` = (\d+(?:\.\d+)?(?:e[-+]?\d+)?)", README)
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for lang, body in BLOCKS
    if not lang
    for line in body.splitlines()
    if line.startswith("retrodictor ")
]


def test_readme_has_every_example():
    assert {argv[0] for argv in COMMANDS} == {"transform", "ud", "channel", "simulate", "verify"}
    assert [lang for lang, _ in BLOCKS].count("json") == 2
    assert [lang for lang, _ in BLOCKS].count("python") == 1
    assert len(QUOTED) == 10


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = list(argv)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0


def test_readme_python_example_runs():
    (source,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(source, "README.md", "exec"), {})


def test_readme_file_formats_parse(tmp_path):
    ensemble_doc, povm_doc = (json.loads(body) for lang, body in BLOCKS if lang == "json")
    ensemble_path, povm_path = tmp_path / "ensemble.json", tmp_path / "povm.json"
    ensemble_path.write_text(json.dumps(ensemble_doc))
    povm_path.write_text(json.dumps(povm_doc))
    ensemble = parse_ensemble_file(str(ensemble_path))
    povm = parse_povm_file(str(povm_path))
    assert (ensemble.dim, len(ensemble)) == (2, 2)
    assert (povm.dim, len(povm)) == (2, 2)


@pytest.mark.parametrize("module, name, value", QUOTED, ids=[f"{m}.{n}" for m, n, _ in QUOTED])
def test_readme_quoted_value_is_the_code_s(module, name, value):
    assert getattr(importlib.import_module(f"retrodictor.{module}"), name) == float(value)

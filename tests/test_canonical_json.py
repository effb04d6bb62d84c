"""render_json is the stdlib's canonical form: json.dumps(doc, indent=2, sort_keys=True) + "\\n".

A float64 array of one or more dimensions stands for its .tolist().  The
renderer walks a document itself, fills each such array through one
template and renders lists item by item, so these tests compare it with the
stdlib on seeded random documents, on what json rejects, and on every CLI
report.
"""

import json
import math
import pathlib
import random
import struct

import numpy as np
import pytest

from conftest import random_ensemble, random_povm
from retrodictor.cli import main
from retrodictor.ensembles import Povm
from retrodictor.formats import ensemble_to_payload, povm_to_payload, render_json, write_json

SAMPLES = pathlib.Path(__file__).resolve().parents[1] / "sample_inputs"

FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e300, -1e300, 1.7976931348623157e308, 0.1, 1.0, -2.5, 1e16, 1e-7,
]
INTS = [0, -1, 7, 2**53 + 1, -(2**63), 2**64 + 1, 10**40, -(10**100)]
STRINGS = [
    "", "a", "key", "é", "日本語", "😀", "\n", "\t", "\"quoted\"", "back\\slash",
    "\x00\x1f\x7f", " ", "nan", "Infinity", "%s", "%%",
]


def random_float(rng: random.Random) -> float:
    k = rng.randrange(4)
    if k == 0:
        return rng.choice(FLOATS)
    if k == 1:  # any bit pattern: subnormals, infinities and NaN payloads included
        return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    if k == 2:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-320, 300)
    return rng.random()


def scalar(rng: random.Random):
    k = rng.randrange(9)
    if k < 3:
        return random_float(rng)
    if k == 3:
        return np.float64(random_float(rng))
    if k == 4:
        return rng.choice(INTS) if rng.random() < 0.5 else rng.randint(-10**6, 10**6)
    if k == 5:
        return rng.choice([True, False, None])
    return rng.choice(STRINGS) + rng.choice(STRINGS)


def float_block(rng: random.Random, shape: list):
    """A nested list of floats of this shape, sometimes spoiled: ragged, mixed, a tuple, a NaN."""
    if len(shape) == 1:
        row = [rng.random() for _ in range(shape[0])]
    else:
        row = [float_block(rng, shape[1:]) for _ in range(shape[0])]
    spoil = rng.randrange(12)
    if spoil == 0:
        row[rng.randrange(len(row))] = scalar(rng)
    elif spoil == 1 and len(row) > 1:
        row.pop()  # now shorter than its siblings: ragged one level up
    elif spoil == 2:
        row = tuple(row)
    elif spoil == 3:
        row = []
    return row


def float_array(rng: random.Random) -> np.ndarray:
    """A float64 array of 1 to 4 dimensions, some empty, some a non-contiguous view, with edge values in some."""
    shape = [rng.randint(0 if rng.random() < 0.1 else 1, 3) for _ in range(rng.randint(1, 4))]
    draw = random_float if rng.random() < 0.5 else random.Random.random  # NaN, ±inf, -0.0, subnormals
    arr = np.array([draw(rng) for _ in range(math.prod(shape))], np.float64).reshape(shape)
    return arr.T if rng.random() < 0.2 else arr


def value(rng: random.Random, depth: int):
    k = rng.randrange(11) if depth < 3 else rng.choice([0, 10])  # at the deepest level, a scalar or an array
    if k < 3:
        return scalar(rng)
    if k == 10:
        return float_array(rng)
    if k < 5:
        return float_block(rng, [rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
    if k == 5:
        items = [value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.3 else items
    if k == 6:
        return rng.choice([[], {}, [[]], [[], []], [{}], {"": []}, [[[]]]])
    if k == 7:
        keys = rng.choice([STRINGS, INTS, [0.5, -1.0, 2]])
        return {rng.choice(keys): value(rng, depth + 1) for _ in range(rng.randint(1, 4))}
    return {
        rng.choice(STRINGS) + str(rng.randrange(5)): value(rng, depth + 1)
        for _ in range(rng.randint(0, 5))
    }


def unrenderable(rng: random.Random):
    """Something json.dumps rejects, or may: numpy ints and arrays, objects, mixed or odd keys."""
    return rng.choice([
        np.int64(3), np.float32(0.5), np.zeros(2, np.int64), np.bool_(True), object(), {1, 2},
        {"a": 1, 1: 2}, {(1, 2): 3}, {None: 1, "b": 2}, {True: [0.5]},
    ])


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def lists(doc):
    """doc with each float64 array of one or more dimensions replaced by its .tolist()."""
    if type(doc) is np.ndarray and doc.dtype == np.float64 and doc.ndim:
        return doc.tolist()
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(lists, doc))
    if isinstance(doc, dict):
        return {k: lists(v) for k, v in doc.items()}
    return doc


def test_random_documents_render_as_the_stdlib_does():
    rng = random.Random(16)
    rejected = 0
    for _ in range(12_000):
        doc = {"doc": value(rng, 0)} if rng.random() < 0.8 else value(rng, 0)
        if rng.random() < 0.05:
            doc = [doc, unrenderable(rng)] if rng.random() < 0.5 else {"z": doc, "bad": unrenderable(rng)}
        try:
            expected = stdlib(lists(doc))
        except (TypeError, ValueError) as exc:
            rejected += 1
            with pytest.raises(type(exc)) as excinfo:
                render_json(doc)
            assert str(excinfo.value) == str(exc)
        else:
            assert render_json(doc) == expected, repr(doc)
    assert 100 < rejected < 2_000  # the rejection path ran, and most documents rendered


@pytest.mark.parametrize("doc", [
    {"x": [[1.0, math.nan], [math.inf, -math.inf]]},
    {"x": [[-0.0, 5e-324], [1e300, 0.1]]},
    [[[0.5, 0.25]] * 3] * 2,
    {"x": [np.float64(0.1), np.float64(-0.0)], "y": (0.5, 1.0), "z": [1, 0.5]},
    {"é": "ü\n", "\"": {"": []}},
    {3: [0.5], 1: {"a": [[0.5]]}},
    {"x": np.array([[1.0, math.nan], [math.inf, -math.inf]]), "y": np.array([-0.0, 5e-324])},
    {"x": np.zeros(0), "y": np.zeros((2, 0)), "z": np.zeros((0, 3))},
    {3: np.array([0.5, math.nan]), 1: {"a": np.array([[0.5]])}},
    [np.arange(24.0).reshape(2, 3, 4).T, np.arange(6.0).reshape(2, 3)[:, ::2], None],
])
def test_edge_documents_render_as_the_stdlib_does(doc):
    assert render_json(doc) == stdlib(lists(doc))


def test_shared_and_cyclic_lists_behave_as_in_the_stdlib():
    row = [0.5, 0.25]
    shared = {"m": [row, row]}
    assert render_json(shared) == stdlib(shared)
    cyclic, lists_only = [0.5], []
    cyclic.append(cyclic)
    lists_only.append(lists_only)  # every level a list of equal-length lists, forever
    for doc in (cyclic, {"a": [cyclic, cyclic]}, lists_only, [lists_only, lists_only]):
        with pytest.raises(ValueError, match="Circular reference detected"):
            render_json(doc)


@pytest.mark.parametrize("bad", [np.int64(3), np.zeros((2, 2), np.complex128), object(), {"a": [0.5, np.int64(1)]}])
def test_what_json_rejects_raises_the_same_type_error(bad):
    with pytest.raises(TypeError) as stdlib_error:
        stdlib(bad)
    with pytest.raises(TypeError) as ours:
        render_json(bad)
    assert str(ours.value) == str(stdlib_error.value)


SAMPLE_PAIR = [str(SAMPLES / "ud_ensemble.json"), str(SAMPLES / "ud_povm.json")]
REPORTS = {
    "transform": ["transform", *SAMPLE_PAIR],
    "support-restricted": ["transform", *SAMPLE_PAIR, "--support-restricted"],
    # 8 x 8 matrices, and a null among the retrodictive states (the POVM's zero element never fires).
    "transform-d8": ["transform", "{ensemble8}", "{povm8}"],
    "undefined-outcome": ["transform", SAMPLE_PAIR[0], "{never_fires}"],
    "simulate": ["simulate", *SAMPLE_PAIR, "--n", "10000", "--seed", "3"],
    "ud-grid": ["ud", "--eta1", "0.5", "--overlap", "0.5", "--grid-check", "1e-3"],
    "ud": ["ud", "--eta1", "0.9", "--overlap", "0.7071067811865476"],
    "channel": ["channel", "--eta1", "0.7", "--alpha", "0.4"],
    "verify": ["verify", "--suite", "ud", "--suite", "channel"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """Paths of the input files the REPORTS name in braces."""
    rng = np.random.default_rng(8)
    docs = {
        "ensemble8": ensemble_to_payload(random_ensemble(rng, 8, 5)),
        "povm8": povm_to_payload(random_povm(rng, 8, 6)),
        "never_fires": povm_to_payload(Povm((np.eye(2), np.zeros((2, 2))))),
    }
    folder = tmp_path_factory.mktemp("inputs")
    for name, doc in docs.items():
        write_json(doc, str(folder / f"{name}.json"))
    return {name: str(folder / f"{name}.json") for name in docs}


@pytest.mark.parametrize("argv", REPORTS.values(), ids=REPORTS.keys())
def test_cli_reports_are_the_stdlib_rendering_of_themselves(argv, inputs, tmp_path, capsys):
    argv = [arg.format(**inputs) for arg in argv]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    text = out.read_text()
    assert text == stdlib(json.loads(text))
    if argv[0] != "verify":  # verify prints its check lines; the others print the report
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == text


def test_a_simulate_report_with_undefined_cells_is_canonical(tmp_path):
    # Three samples leave an outcome unseen: its retrodictive bounds are null beside the array tables.
    out = tmp_path / "report.json"
    assert main(["simulate", *SAMPLE_PAIR, "--n", "3", "--seed", "0", "--out", str(out)]) in (0, 2)
    text = out.read_text()
    assert text == stdlib(json.loads(text))
    assert None in sum(json.loads(text)["derived"]["retrodictive"]["bound_3sigma"], [])

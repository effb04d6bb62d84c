"""The tolerance table is complete: every reported check is held to its entry, and no other module writes one."""

import ast
import json
import pathlib
import re

import pytest

from retrodictor import tolerances, verify
from retrodictor.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "retrodictor"
PAIR = ["sample_inputs/ud_ensemble.json", "sample_inputs/ud_povm.json"]
ORACLE_STEP = 1e-3
COMMANDS = [
    ["transform", *PAIR],
    ["transform", *PAIR, "--support-restricted"],
    ["ud", "--overlap", "0.4", "--eta1", "0.7", "--grid-check", str(ORACLE_STEP)],
    ["channel", "--overlap", "0.4", "--eta1", "0.7"],
    ["simulate", *PAIR, "--n", "100000", "--seed", "7"],
]
ORACLE_CHECKS = {"closed-vs-grid-oracle": verify.GRID_STEP, "grid-oracle-deviation": ORACLE_STEP}


def test_every_reported_check_has_its_table_tolerance(tmp_path, monkeypatch):
    # (name, tolerance) of every check of verify --suite all and of each command on sample_inputs.
    checks = [(c.name, c.tolerance) for result in verify.run_suites() for c in result.checks]
    monkeypatch.chdir(ROOT)
    for k, argv in enumerate(COMMANDS):
        out = tmp_path / f"report-{k}.json"
        assert main([*argv, "--out", str(out)]) == 0
        checks += [(c["name"], c["tolerance"]) for c in json.loads(out.read_text())["checks"]]
    for name, tolerance in checks:
        if name in ORACLE_CHECKS:
            assert tolerance == tolerances.GRID_ORACLE_STEPS * ORACLE_CHECKS[name], name
        else:
            assert tolerance == tolerances.CHECK_TOLERANCES[name.replace("-on-support", "")], name
    # No entry is left over: each names a check that some report carries.
    assert {name for name, _ in checks} - ORACLE_CHECKS.keys() >= tolerances.CHECK_TOLERANCES.keys()


# Module-level names of tolerances and floors.
TOLERANCE_NAME = re.compile(r"TOL|FLOOR$|^MIN_|^MAX_|ZERO|SIGMA|_CHECKS$|THRESHOLD")


def _numbers(node) -> list:
    return [n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, (int, float))]


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "tolerances.py"}), ids=lambda p: p.name)
def test_no_other_module_writes_a_tolerance(path):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assert not [t.id for t in targets if isinstance(t, ast.Name) and TOLERANCE_NAME.search(t.id)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", None) == "Check":
                assert not _numbers(ast.Tuple(node.args[2:], ast.Load())), ast.unparse(node)
            assert not [k for k in node.keywords if k.arg == "min_eig" and _numbers(k.value)], ast.unparse(node)
        if isinstance(node, ast.Compare) and any(isinstance(n, ast.Constant) and isinstance(n.value, float)
                                                 and 0.0 < abs(n.value) < 1e-3 for n in ast.walk(node)):
            pytest.fail(f"{path.name}: a comparison with a tolerance literal: {ast.unparse(node)}")

"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def test_declared_metrics_match_the_harness():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _traced(workload_cls, tmp_path):
    ctx = run.Context(5, 0.0, str(tmp_path), time.monotonic() + 150, tiny=True, env=run.child_env())
    workload = workload_cls(ctx)
    try:
        _, traced, tracer = run.measure(workload, traced=True)
    finally:
        workload.close()
    assert ctx.failed == 0, ctx.failures
    return traced, tracer.spans, layers.SpanIndex(tracer.spans), layers.layer_metrics(tracer.spans)


def test_cli_stream_counts_match_the_commands_issued(tmp_path):
    traced, spans, ix, m = _traced(run.CliStream, tmp_path)
    n = {kind: len(traced.walls(kind)) for kind in ("transform", "ud", "channel")}
    assert n == {"transform": 6, "ud": 2, "channel": 2}
    for kind, count in n.items():
        assert ix.count(f"cli.cmd_{kind}") == count
    under_cmd = [i for i in ix.ids(layers.TRANSFORM) if ix.has_ancestor(i, ("cli.cmd_transform",))]
    assert len(under_cmd) == n["transform"]
    # Each ud command also transforms its optimal measurement in the purity check.
    assert m["retrodiction.transform_calls"] == n["transform"] + n["ud"]
    assert ix.count("formats.parse_ensemble_file") == ix.count("formats.parse_povm_file") == n["transform"]
    assert ix.count("formats.write_json") == len(traced.ops)
    assert len({s[4] for s in spans}) == len(traced.ops)  # one operation id per command


def test_subprocess_spans_reach_the_tracer(tmp_path):
    traced, _, ix, m = _traced(run.SimulateLarge, tmp_path)
    assert ix.count("cli.cmd_simulate") == ix.count("sim.sample") == len(traced.ops) == 2
    assert m["sim.shards"] == 2 * math.ceil(run.SimulateLarge.draws_tiny / 65536)


def test_verify_suites_are_traced_through_the_suite_table(tmp_path):
    _, _, ix, m = _traced(run.VerifyAll, tmp_path)
    assert ix.count("verify.suite_simulate") == ix.count("verify.suite_failure_modes") == 1
    assert m["sim.shards"] == 2 * math.ceil(10**6 / 65536)  # the suite samples 1e6 twice
    assert m["verify.suite_s.simulate"] > 0


def test_install_rebinds_direct_imports_and_uninstall_restores():
    import retrodictor.cli
    import retrodictor.retrodiction
    import retrodictor.verify

    original = retrodictor.retrodiction.retro_transform
    suite = retrodictor.verify.SUITES["ud"]
    tracer = Tracer()
    tracer.install()
    try:
        assert retrodictor.cli.retro_transform is retrodictor.retrodiction.retro_transform
        assert retrodictor.cli.retro_transform is not original
        assert retrodictor.verify.SUITES["ud"] is not suite
    finally:
        tracer.uninstall()
    assert retrodictor.cli.retro_transform is original
    assert retrodictor.verify.SUITES["ud"] is suite


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None], ["b", 5.0, 6.0, 0, 0, None]]
    ix = layers.SpanIndex(spans)
    assert ix.self_time == [6.0, 3.0, 1.0]
    assert ix.inclusive_s("b") == 4.0


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(v) for v in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)

"""Per-layer metrics computed from recorded spans.

A span's self time is its duration minus the durations of its direct child
spans.  Metric names ending in `_self_s` are self times; other `_s` metrics
are inclusive times of the outermost calls (a call nested inside another
call of the same group is not counted twice).  A layer the workload never
reaches reports 0.
"""

from __future__ import annotations

import statistics

SUITES = ("transform", "ud", "channel", "simulate", "failure-modes")
EIG = "linalg.hermitian_eig"
TRANSFORM = "retrodiction.retro_transform"
VALIDATE = frozenset(
    f"ensembles.validate_{what}"
    for what in ("state_vector", "hermitian_matrix", "density_matrix", "priors", "ensemble", "povm")
)
CORPUS = frozenset(("verify.random_corpus", "verify.unbiased_corpus", "verify.grid_instances"))

# name -> (unit, better).  The order is the order of the report.
METRICS = {
    "linalg.eig_calls": ("count", "lower"),
    "linalg.eig_self_s": ("s", "lower"),
    "linalg.eig_us_d2": ("us", "lower"),
    "linalg.eig_us_d4": ("us", "lower"),
    "linalg.eig_us_d8": ("us", "lower"),
    "linalg.sqrtm_calls": ("count", "lower"),
    "linalg.inv_sqrtm_calls": ("count", "lower"),
    "ensembles.validate_calls": ("count", "lower"),
    "ensembles.validate_self_s": ("s", "lower"),
    "ensembles.eig_share": ("ratio", "lower"),
    "retrodiction.transform_calls": ("count", "lower"),
    "retrodiction.transform_self_s": ("s", "lower"),
    "retrodiction.eig_per_transform": ("count", "lower"),
    "ud.optimal_dual_s": ("s", "lower"),
    "ud.retro_basis_calls": ("count", "lower"),
    "ud.grid_oracle_s": ("s", "lower"),
    "ud.purity_check_s": ("s", "lower"),
    "channel.symmetric_state_calls": ("count", "lower"),
    "channel.no_signaling_s": ("s", "lower"),
    "sim.sample_s": ("s", "lower"),
    "sim.shards": ("count", "lower"),
    "sim.joint_table_s": ("s", "lower"),
    "sim.report_s": ("s", "lower"),
    **{f"verify.suite_s.{suite}": ("s", "lower") for suite in SUITES},
    "verify.corpus_gen_s": ("s", "lower"),
    "formats.parse_s": ("s", "lower"),
    "formats.write_s": ("s", "lower"),
    "formats.bytes_written": ("bytes", "lower"),
    "cli.cmd_self_s.transform": ("s", "lower"),
    "cli.cmd_self_s.ud": ("s", "lower"),
    "cli.cmd_self_s.channel": ("s", "lower"),
    # Untraced latencies from the same run, for comparison with the traced split.
    "cli.p50_ms.transform": ("ms", "lower"),
    "cli.tail_ms.transform": ("ms", "lower"),
    "cli.p50_ms.ud": ("ms", "lower"),
    "cli.p50_ms.channel": ("ms", "lower"),
    "verify.all_s": ("s", "lower"),
    "sim.mdraws_per_s": ("Mdraws/s", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class SpanIndex:
    """Durations, self times and ancestry over one list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child_total = [0.0] * len(spans)
        for s, d in zip(spans, self.dur):
            if s[3] >= 0:
                child_total[s[3]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child_total)]
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def ids(self, names) -> list[int]:
        names = (names,) if isinstance(names, str) else names
        return sorted(i for n in names for i in self.by_name.get(n, ()))

    def count(self, names) -> int:
        return len(self.ids(names))

    def has_ancestor(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def outermost(self, names) -> list[int]:
        names = frozenset((names,) if isinstance(names, str) else names)
        return [i for i in self.ids(names) if not self.has_ancestor(i, names)]

    def inclusive_s(self, names) -> float:
        return sum(self.dur[i] for i in self.outermost(names))

    def self_s(self, names) -> float:
        return sum(self.self_time[i] for i in self.ids(names))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every traced per-layer metric in METRICS (the untraced ones are added by the caller)."""
    ix = SpanIndex(spans)
    eigs = ix.ids(EIG)
    eig_us = {d: [] for d in (2, 4, 8)}
    for i in eigs:
        dim = spans[i][5]["dim"]
        if dim in eig_us:
            eig_us[dim].append(ix.dur[i] * 1e6)
    transforms = ix.count(TRANSFORM)
    eig_in_transform = sum(1 for i in eigs if ix.has_ancestor(i, (TRANSFORM,)))
    eig_in_validation = sum(1 for i in eigs if spans[i][3] >= 0 and spans[spans[i][3]][0] in VALIDATE)
    out = {
        "linalg.eig_calls": len(eigs),
        "linalg.eig_self_s": ix.self_s(EIG),
        **{f"linalg.eig_us_d{d}": _median(v) for d, v in eig_us.items()},
        "linalg.sqrtm_calls": ix.count("linalg.sqrtm_psd"),
        "linalg.inv_sqrtm_calls": ix.count("linalg.inv_sqrtm_psd"),
        "ensembles.validate_calls": len(ix.outermost(VALIDATE)),
        "ensembles.validate_self_s": ix.self_s(VALIDATE),
        "ensembles.eig_share": eig_in_validation / len(eigs) if eigs else 0.0,
        "retrodiction.transform_calls": transforms,
        "retrodiction.transform_self_s": ix.self_s(TRANSFORM),
        "retrodiction.eig_per_transform": eig_in_transform / transforms if transforms else 0.0,
        "ud.optimal_dual_s": ix.inclusive_s("ud.optimal_dual"),
        "ud.retro_basis_calls": ix.count("ud.retro_basis"),
        "ud.grid_oracle_s": ix.inclusive_s("ud.brute_force_dual"),
        "ud.purity_check_s": ix.inclusive_s("ud.verify_purity_identification"),
        "channel.symmetric_state_calls": ix.count("channel.symmetric_state"),
        "channel.no_signaling_s": ix.inclusive_s("channel.no_signaling_check"),
        # The three sim times partition sampling: draws, probability table, report.
        "sim.sample_s": ix.self_s("sim.sample"),
        "sim.shards": sum(spans[i][5]["shards"] for i in ix.ids("sim.sample")),
        "sim.joint_table_s": ix.inclusive_s("sim.joint_probability_table"),
        "sim.report_s": ix.self_s("sim.empirical_report"),
        **{
            f"verify.suite_s.{suite}": ix.inclusive_s(f"verify.suite_{suite.replace('-', '_')}")
            for suite in SUITES
        },
        "verify.corpus_gen_s": ix.inclusive_s(CORPUS),
        "formats.parse_s": ix.inclusive_s(("formats.parse_ensemble_file", "formats.parse_povm_file")),
        "formats.write_s": ix.inclusive_s("formats.write_json"),
        "formats.bytes_written": sum(spans[i][5]["bytes"] for i in ix.ids("formats.write_json")),
        **{f"cli.cmd_self_s.{cmd}": ix.self_s(f"cli.cmd_{cmd}") for cmd in ("transform", "ud", "channel")},
        "trace.spans": len(spans),
    }
    return out

"""Benchmark of the retrodictor package: three seeded workloads, one at a time.

    python3 perfbench/run.py --workload {verify-all,cli-stream,simulate-large} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` next to this directory.
Every workload is a closed loop with one caller: the next command starts when
the previous one has finished, and at most one child process runs at a time.
A workload repeats a fixed round of commands; see WORKLOADS for each round.

With `--trace 0` the workload runs untraced for S seconds and the last line of
stdout is a JSON object with the end-to-end metrics.  With `--trace 1` a fixed
number of rounds runs once untraced and once with spans recorded around the
package's public functions, and the JSON carries the per-layer metrics.  The
lines before the result give provenance and the per-command figures.

Exit code 0 when a result was printed (its "correct" field says whether every
output passed its check); 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
PY = sys.executable
CHILD = os.path.join(HERE, "child.py")
UD_PAIR = (
    os.path.join(ROOT, "sample_inputs", "ud_ensemble.json"),
    os.path.join(ROOT, "sample_inputs", "ud_povm.json"),
)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import generate  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer, read_spans  # noqa: E402

# name -> (unit, better); every workload reports all of them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "round_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
}
RUN_LIMIT_S = 170.0  # children are killed past this, so a run always ends
SETUP_REPEATS = 11
SIGMAS = 5.0
# Joint probabilities below this are structurally zero (the program uses the same cut).
STRUCTURAL_ZERO = 1e-14


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (missing sources, broken interpreter)."""


@dataclass
class Op:
    kind: str
    wall_s: float
    ok: bool
    round: int
    draws: int = 0


@dataclass
class Outcome:
    """The commands one pass over a workload timed."""

    ops: list[Op] = field(default_factory=list)
    peak_rss_kb: int = 0

    def rounds(self) -> list[float]:
        walls: dict[int, float] = {}
        for op in self.ops:
            walls[op.round] = walls.get(op.round, 0.0) + op.wall_s
        return list(walls.values())

    def walls(self, prefix: str) -> list[float]:
        return [op.wall_s for op in self.ops if op.kind.startswith(prefix)]

    def total_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


@dataclass
class Context:
    seed: int
    seconds: float
    tmp: str
    deadline: float
    tiny: bool = False
    env: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    files: int = 0

    def fresh(self, name: str) -> str:
        """A path not used before in this run.

        Files are never rewritten in place: truncating a file that was just
        written can force a flush to disk (ext4 does), which would time the disk.
        """
        self.files += 1
        return os.path.join(self.tmp, f"{self.files:06d}-{name}")

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than eleven samples this is the maximum (percentile 100).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _discard(*paths: str) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def run_child(ctx: Context, argv: list[str], what: str) -> tuple[int, float, int]:
    """Run argv to completion; return exit code, wall seconds, peak RSS in KiB.

    The child's output goes to a log that is deleted unless the child fails.
    """
    timeout = ctx.deadline - time.monotonic()
    if timeout <= 0:
        return -1, 0.0, 0
    log_path = ctx.fresh(what + ".log")
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=ctx.env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if proc.returncode == 0:
        os.remove(log_path)
    return proc.returncode, wall, usage.ru_maxrss


def measure_setup(ctx: Context) -> float:
    """Median time to start the interpreter and import the CLI (which imports retrodictor)."""
    argv = [PY, "-c", "import retrodictor.cli"]
    times = []
    # The first start in a fresh checkout also compiles bytecode; it is not timed.
    for k in range(SETUP_REPEATS + 1):
        rc, wall, _ = run_child(ctx, argv, "setup")
        if rc != 0:
            raise HarnessError(f"`{' '.join(argv)}` exited with {rc}")
        if k:
            times.append(wall)
    return statistics.median(times)


class Workload:
    """A fixed round of commands, repeated in a closed loop."""

    name = ""
    trace_rounds = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def run_round(self, k: int, outcome: Outcome, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def run_subprocess(
        self, k: int, kind: str, cli_args: list[str], outcome: Outcome, tracer: Tracer | None
    ) -> int:
        """One CLI command as its own process, traced through child.py; returns its exit code."""
        ctx = self.ctx
        if tracer is None:
            argv = [PY, "-m", "retrodictor.cli", *cli_args]
        else:
            spans_path = ctx.fresh("spans.jsonl")
            argv = [PY, CHILD, "--spans", spans_path, "--op", str(ctx.attempted), "--", *cli_args]
        rc, wall, rss = run_child(ctx, argv, kind)
        if tracer is not None and os.path.exists(spans_path):
            tracer.extend(read_spans(spans_path))
            os.remove(spans_path)
        outcome.ops.append(Op(kind, wall, False, k))
        outcome.peak_rss_kb = max(outcome.peak_rss_kb, rss)
        return rc


class VerifyAll(Workload):
    """`verify --suite all` as a subprocess; the suites fix its inputs, so the seed is unused."""

    name = "verify-all"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        suites = ["simulate", "failure-modes"] if ctx.tiny else ["all"]
        self.expected = set(suites) if ctx.tiny else set(layers.SUITES)
        self.suite_args = [a for s in suites for a in ("--suite", s)]

    def run_round(self, k, outcome, tracer):
        out = self.ctx.fresh("verify.json")
        rc = self.run_subprocess(k, "verify", ["verify", *self.suite_args, "--out", out], outcome, tracer)
        doc = _load(out)
        ok = (
            rc == 0
            and doc is not None
            and doc.get("passed") is True
            and {s["suite"] for s in doc["suites"]} == self.expected
            and all(s["passed"] for s in doc["suites"])
        )
        outcome.ops[-1].ok = self.ctx.record(ok, f"verify round {k}: exit {rc}")
        if ok:
            _discard(out)


class CliStream(Workload):
    """Seeded single-instance transform, ud and channel commands through `cli.main`, in-process."""

    name = "cli-stream"
    trace_rounds = 20

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        import retrodictor.cli

        self.main = retrodictor.cli.main
        self.devnull = open(os.devnull, "w")
        if ctx.tiny:
            self.trace_rounds = 1
        # One untimed round first: numpy and argparse finish their lazy set-up in it.
        self._run(-1, Outcome(), None)

    def close(self):
        self.devnull.close()

    def commands(self, k: int) -> list[tuple[str, list[str], list[str]]]:
        """Round k as (kind, argv, input files): two transforms per dimension, and
        ud and channel once in each regime, in a seeded order.

        Inputs depend only on (seed, k), so the traced pass replays the same round.
        """
        rng = generate.rng_for(self.ctx.seed, 1000 + k)
        cmds = []
        for dim in generate.TRANSFORM_DIMS:
            for _ in range(2):
                files = [self.ctx.fresh("ensemble.json"), self.ctx.fresh("povm.json")]
                for doc, path in zip(generate.transform_pair(rng, dim), files):
                    generate.write_doc(doc, path)
                cmds.append((f"transform-d{dim}", ["transform", *files], files))
        for command in ("ud", "channel"):
            for clamped in (False, True):
                eta1, s = generate.ud_parameters(rng, clamped)
                args = [command, "--eta1", repr(eta1), "--overlap", repr(s)]
                if command == "ud":
                    args += ["--grid-check", generate.GRID_STEP]
                cmds.append((command, args, []))
        return [cmds[i] for i in rng.permutation(len(cmds))]

    def _run(self, k, outcome, tracer):
        for kind, args, files in self.commands(k):
            report = self.ctx.fresh("report.json")
            argv = [*args, "--out", report]
            errors = io.StringIO()
            if tracer is not None:
                tracer.op = self.ctx.attempted
            with contextlib.redirect_stdout(self.devnull), contextlib.redirect_stderr(errors):
                start = time.perf_counter()
                try:
                    rc = self.main(argv)
                except Exception as exc:  # an escaped exception is a failed command
                    rc = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - start
            doc = _load(report)
            ok = rc == 0 and doc is not None and doc.get("passed") is True
            ok = self.ctx.record(ok, f"round {k} {' '.join(argv)}: exit {rc} {errors.getvalue().strip()}")
            outcome.ops.append(Op(kind, wall, ok, k))
            if ok:
                _discard(report, *files)
        outcome.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def run_round(self, k, outcome, tracer):
        if tracer is None:
            self._run(k, outcome, None)
            return
        tracer.install()
        try:
            self._run(k, outcome, tracer)
        finally:
            tracer.uninstall()


class SimulateLarge(Workload):
    """Large-n `simulate` subprocesses on the paper's UD pair and a seeded D = 8 pair."""

    name = "simulate-large"
    draws = 10**8
    draws_tiny = 2 * 10**5

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        if ctx.tiny:
            self.draws = self.draws_tiny
        d8 = (ctx.fresh("ensemble.json"), ctx.fresh("povm.json"))
        for doc, path in zip(generate.simulate_pair(generate.rng_for(ctx.seed, 7)), d8):
            generate.write_doc(doc, path)
        self.pairs = {"ud-pair": UD_PAIR, "d8-pair": d8}
        self.probs = {
            name: generate.joint_probabilities(*generate.load_pair(*paths))
            for name, paths in self.pairs.items()
        }

    def run_round(self, k, outcome, tracer):
        for j, (name, (ens, povm)) in enumerate(self.pairs.items()):
            out = self.ctx.fresh("simulate.json")
            seed = ((self.ctx.seed << 20) + 2 * k + j) & (2**63 - 1)
            args = ["simulate", ens, povm, "--n", str(self.draws), "--seed", str(seed), "--out", out]
            rc = self.run_subprocess(k, f"simulate-{name}", args, outcome, tracer)
            problems = self.check(rc, _load(out), self.probs[name])
            outcome.ops[-1].ok = self.ctx.record(not problems, f"simulate {name} seed {seed}: {problems}")
            outcome.ops[-1].draws = self.draws
            if not problems:
                _discard(out)

    def check(self, rc: int, doc, probs) -> list[str]:
        """Counts sum to n, structural zeros stay empty, every cell within 5 sigma.

        The CLI's own 3-sigma verdict fails by chance on many-cell inputs, so an
        exit code of 2 is accepted when that check is the only one failing.
        """
        if doc is None:
            return [f"exit {rc}, no report"]
        failing = [c["name"] for c in doc["checks"] if not c["passed"]]
        problems = [] if rc == 0 or (rc == 2 and failing == ["cells-beyond-3sigma"]) else [f"exit {rc}"]
        counts = np.array(doc["derived"]["counts"], dtype=float)
        n = self.draws
        if counts.shape != probs.shape or int(counts.sum()) != n:
            return problems + ["counts do not sum to n"]
        zero = probs < STRUCTURAL_ZERO
        if counts[zero].any():
            problems.append("structural-zero cell drew samples")
        p = probs[~zero]
        if (np.abs(counts[~zero] - n * p) > SIGMAS * np.sqrt(n * p * (1 - p))).any():
            problems.append("joint count beyond 5 sigma")
        for table in ("outcome", "predictive", "retrodictive"):
            t = doc["derived"][table]
            dev = np.array(t["deviation"], dtype=float)
            bound = np.array(t["bound_3sigma"], dtype=float) * SIGMAS / 3.0
            if (np.array(t["defined"]) & (dev > bound)).any():
                problems.append(f"{table} cell beyond 5 sigma")
        return problems


WORKLOADS = {w.name: w for w in (VerifyAll, CliStream, SimulateLarge)}


def measure(workload: Workload, traced: bool) -> tuple[Outcome, Outcome | None, Tracer | None]:
    """Untraced rounds for ctx.seconds; or trace_rounds rounds untraced, then the same traced."""
    ctx, plain = workload.ctx, Outcome()
    if not traced:
        start, k = time.monotonic(), 0
        while k == 0 or time.monotonic() - start < ctx.seconds:
            workload.run_round(k, plain, None)
            k += 1
        return plain, None, None
    for k in range(workload.trace_rounds):
        workload.run_round(k, plain, None)
    with_spans, tracer = Outcome(), Tracer()
    for k in range(workload.trace_rounds):
        workload.run_round(k, with_spans, tracer)
    return plain, with_spans, tracer


def end_to_end(plain: Outcome, setup_s: float) -> dict[str, float]:
    rounds = plain.rounds()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": plain.peak_rss_kb / 1024.0,
        "round_p50_ms": statistics.median(rounds) * 1e3,
        "ops_per_s": sum(op.ok for op in plain.ops) / plain.total_s(),
    }


def untraced_figures(plain: Outcome) -> dict[str, float]:
    """Per-command latencies and sampler throughput; 0 where the workload has none."""
    transform = plain.walls("transform")
    sim = [op for op in plain.ops if op.draws]
    sim_s = sum(op.wall_s for op in sim)
    return {
        "cli.p50_ms.transform": _median(transform) * 1e3,
        "cli.tail_ms.transform": tail(transform)[0] * 1e3 if transform else 0.0,
        "cli.p50_ms.ud": _median(plain.walls("ud")) * 1e3,
        "cli.p50_ms.channel": _median(plain.walls("channel")) * 1e3,
        "verify.all_s": _median(plain.walls("verify")),
        "sim.mdraws_per_s": sum(op.draws for op in sim) / sim_s / 1e6 if sim_s else 0.0,
    }


def describe(plain: Outcome, ctx: Context) -> list[str]:
    """Human-readable per-command figures, under the names the ROADMAP uses."""
    lines = [f"commands: attempted {ctx.attempted}, failed {ctx.failed}, "
             f"error_rate {ctx.failed / max(ctx.attempted, 1):.4f}"]
    for kind in sorted({op.kind for op in plain.ops}):
        walls = plain.walls(kind)
        value, pct = tail(walls)
        lines.append(f"  {kind}: n={len(walls)} p50={_median(walls) * 1e3:.3f} ms "
                     f"p{pct:.1f}={value * 1e3:.3f} ms")
    figures = untraced_figures(plain)
    transform = plain.walls("transform")
    if plain.walls("verify"):
        lines.append(f"verify_all_s: {figures['verify.all_s']:.4f} s (median of {len(plain.walls('verify'))})")
    if transform:
        _, pct = tail(transform)
        lines += [
            f"cli_ops_per_s: {sum(op.ok for op in plain.ops) / plain.total_s():.3f} 1/s "
            f"over {len(plain.ops)} commands",
            f"transform_p50_ms: {figures['cli.p50_ms.transform']:.3f} ms (n={len(transform)})",
            f"transform_tail_ms: {figures['cli.tail_ms.transform']:.3f} ms (p{pct:.1f}, n={len(transform)})",
            f"ud_p50_ms: {figures['cli.p50_ms.ud']:.3f} ms (n={len(plain.walls('ud'))})",
            f"channel_p50_ms: {figures['cli.p50_ms.channel']:.3f} ms (n={len(plain.walls('channel'))})",
        ]
    for name in ("ud-pair", "d8-pair"):
        ops = [op for op in plain.ops if op.kind == f"simulate-{name}"]
        if ops:
            rate = sum(op.draws for op in ops) / sum(op.wall_s for op in ops) / 1e6
            lines.append(f"  {name}: {rate:.3f} Mdraws/s over {len(ops)} commands")
    if figures["sim.mdraws_per_s"]:
        lines.append(f"sim_mdraws_per_s: {figures['sim.mdraws_per_s']:.3f} Mdraws/s")
    return lines


def _blas_threads():
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    """HEAD of the repository the benchmark sits in, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if os.path.realpath(out[0]) == os.path.realpath(ROOT) else None


def provenance() -> dict:
    import platform

    import retrodictor
    import retrodictor.sim

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "rng_algorithm": retrodictor.sim.RNG_ALGORITHM,
        "retrodictor": retrodictor.__version__,
        "git_commit": _git_commit(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "retrodictor", "__init__.py")):
        print(f"perfbench: no retrodictor package under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.makedirs(RUN_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    ctx = Context(args.seed, args.seconds, tmp, time.monotonic() + RUN_LIMIT_S, args.tiny, child_env())
    try:
        setup_s = measure_setup(ctx)
        workload = WORKLOADS[args.workload](ctx)
        try:
            plain, with_spans, tracer = measure(workload, bool(args.trace))
        finally:
            workload.close()
        print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
        print("provenance: " + json.dumps(provenance(), sort_keys=True))
        print(f"setup_s: {setup_s:.4f} s (median of {SETUP_REPEATS} interpreter starts)")
        for line in describe(plain, ctx):
            print(line)
        for failure in ctx.failures[:5]:
            print(f"FAILED: {failure}")
        if tracer is None:
            metrics = end_to_end(plain, setup_s)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        else:
            metrics = {**layers.layer_metrics(tracer.spans), **untraced_figures(plain)}
            metrics["trace.overhead_s"] = with_spans.total_s() - plain.total_s()
            units = {name: unit for name, (unit, _) in layers.METRICS.items()}
            spans_path = os.path.join(RUN_DIR, f"spans-{workload.name}.jsonl")
            tracer.write(spans_path)
            print(f"trace: {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}; "
                  f"traced {with_spans.total_s():.4f} s vs untraced {plain.total_s():.4f} s")
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if ctx.failed:
            print(f"inputs, reports and logs of failed commands kept in {os.path.relpath(tmp, ROOT)}")
        else:
            shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

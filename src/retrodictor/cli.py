"""Command-line surface: transform, ud, channel, simulate, verify.

Reports are machine-readable JSON documents listing every numeric check with
its value, tolerance, and verdict; the human-readable summary is rendered
from the same document.  Exit codes: 0 all checks pass, 1 invalid input or
parameters, 2 numeric failure (singular source, violated identity, flagged
statistics).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .channel import no_signaling_check
from .ensembles import is_unbiased
from .errors import DimensionMismatch, RetrodictorError, ValidationError
from .formats import (
    ensemble_to_payload,
    matrix_to_rows,
    parse_ensemble_file,
    parse_povm_file,
    povm_to_payload,
    render_json,
    write_json,
)
from .retrodiction import retro_transform
from .sim import RNG_ALGORITHM, StatTable, empirical_report, sample
from .tolerances import GRID_ORACLE_STEPS
from .ud import (
    UdInstance,
    brute_force_dual,
    omega_closed_form,
    omega_in_retro_basis,
    omega_matrix,
    optimal_dual,
)
from .verify import Check, checks_for_channel, checks_for_transform, checks_for_ud, run_suites

SEED_ENV_VAR = "RETRODICTOR_SEED"

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_NUMERIC_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID_INPUT, f"{self.prog}: error: {message}\n")


def _check_doc(check: Check) -> dict:
    return {
        "name": check.name,
        "value": check.value,
        "tolerance": check.tolerance,
        "passed": check.passed,
    }


def _finite_or_none(x: float):
    return float(x) if math.isfinite(x) else None


def _float_table(arr: np.ndarray) -> list:
    return [[_finite_or_none(v) for v in row] for row in np.atleast_2d(np.asarray(arr, float))]


def _finish(doc: dict, checks, out_path: str | None) -> int:
    """Attach the checks and the verdict, emit the report, and return the exit code."""
    doc["checks"] = [_check_doc(c) for c in checks]
    doc["passed"] = all(c.passed for c in checks)
    if out_path:
        write_json(doc, out_path)
        for check in checks:
            print(check.line())
        print(f"report written to {out_path}")
    else:
        sys.stdout.write(render_json(doc))
    return EXIT_OK if doc["passed"] else EXIT_NUMERIC_FAILURE


def _base_doc(command: str) -> dict:
    return {
        "tool": {"name": "retrodictor", "version": __version__},
        "command": command,
    }


def _instance_from_args(args) -> UdInstance:
    """The command's instance, as a stack of one."""
    eta = [[args.eta1], [1.0 - args.eta1]]
    if args.overlap is not None:
        return UdInstance.from_overlap([args.overlap], eta)
    return UdInstance([args.alpha], eta)


def cmd_transform(args) -> int:
    ensemble = parse_ensemble_file(args.ensemble)
    povm = parse_povm_file(args.povm)
    dual = retro_transform(ensemble, povm, support_restricted=args.support_restricted)
    checks = checks_for_transform(ensemble, povm, dual)

    doc = _base_doc("transform")
    doc["inputs"] = {
        "ensemble_path": args.ensemble,
        "povm_path": args.povm,
        "ensemble": ensemble_to_payload(ensemble),
        "povm": povm_to_payload(povm),
        "support_restricted": bool(args.support_restricted),
    }
    doc["derived"] = {
        "omega": matrix_to_rows(dual.omega_matrix),
        "unbiased": is_unbiased(dual.omega_matrix),
        "mu": [float(m) for m in dual.mu],
        "undefined_outcomes": [j for j, ok in enumerate(dual.defined.tolist()) if not ok],
        "retro_povm": matrix_to_rows(dual.povm_stack),
        "retro_states": [
            rows if ok else None for rows, ok in zip(matrix_to_rows(dual.state_stack), dual.defined.tolist())
        ],
    }
    return _finish(doc, checks, args.out)


def cmd_ud(args) -> int:
    inst = _instance_from_args(args)
    opt = optimal_dual(inst)
    cf = omega_closed_form(inst)
    checks = list(checks_for_ud(inst, opt))
    (e1,), (e2,) = inst.eta
    doc = _base_doc("ud")
    doc["inputs"] = {"alpha": inst.alpha[0], "eta": [e1, e2], "overlap": inst.s[0], "theta": inst.theta[0]}
    doc["derived"] = {
        "regime": opt.regime[0],
        "mu": [opt.mu1[0], opt.mu2[0], opt.mu0[0]],
        "p_success": opt.p_success[0],
        "omega": matrix_to_rows(omega_matrix(inst)[0]),
        "omega_in_retro_basis": matrix_to_rows(omega_in_retro_basis(inst)[0]),
        "omega_eigenvalues": [cf.w1[0], cf.w2[0]],
        "omega_angle": cf.omega_angle[0],
        "retro_basis": {
            "phi1": matrix_to_rows(opt.basis.vectors[0, :, 0]),
            "phi2": matrix_to_rows(opt.basis.vectors[0, :, 1]),
        },
        "rho0_ret": matrix_to_rows(opt.rho0[0]),
        "predictive_povm": {
            "c": [opt.c[0][0], opt.c[1][0]],
            "elements": matrix_to_rows(opt.elements[0]),
        },
    }
    if args.grid_check is not None:
        (g1,), (g2,), (pg,) = brute_force_dual(inst, args.grid_check)
        doc["derived"]["grid_check"] = {"step": args.grid_check, "mu": [g1, g2], "p_success": pg}
        checks.append(Check("grid-oracle-deviation", abs(pg - opt.p_success[0]), GRID_ORACLE_STEPS * args.grid_check))
    return _finish(doc, checks, args.out)


def cmd_channel(args) -> int:
    inst = _instance_from_args(args)
    report = no_signaling_check(inst)
    checks = checks_for_channel(inst, report)
    (e1,), (e2,) = inst.eta
    doc = _base_doc("channel")
    doc["inputs"] = {"alpha": inst.alpha[0], "eta": [e1, e2], "overlap": inst.s[0]}
    doc["derived"] = {
        "symmetric_state": matrix_to_rows(report.amplitudes[0].reshape(-1)),
        "rho_a": matrix_to_rows(report.reduced_a[0]),
        "rho_a_tilde": matrix_to_rows(report.tilde_a[0]),
        "rho_b": matrix_to_rows(report.reduced_b[0]),
    }
    return _finish(doc, checks, args.out)


def _stat_table_doc(table: StatTable) -> dict:
    return {
        "empirical": _float_table(table.empirical),
        "analytic": _float_table(table.analytic),
        "deviation": _float_table(table.deviation),
        "bound_3sigma": _float_table(table.bound_3sigma),
        "defined": [[bool(v) for v in row] for row in np.atleast_2d(table.defined)],
        "violations": [list(idx) for idx in table.violations()],
    }


def cmd_simulate(args) -> int:
    ensemble = parse_ensemble_file(args.ensemble)
    povm = parse_povm_file(args.povm)
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get(SEED_ENV_VAR, "0"))
    counts = sample(ensemble, povm, args.n, seed)
    report = empirical_report(counts, ensemble)
    total_violations = sum(
        len(t.violations()) for t in (report.outcome, report.predictive, report.retrodictive)
    )
    checks = [Check.named("cells-beyond-3sigma", total_violations)]
    doc = _base_doc("simulate")
    doc["inputs"] = {
        "ensemble_path": args.ensemble,
        "povm_path": args.povm,
        "n": args.n,
        "seed": seed,
        "rng_algorithm": RNG_ALGORITHM,
    }
    doc["derived"] = {
        "counts": [[int(v) for v in row] for row in counts.counts],
        "outcome": _stat_table_doc(report.outcome),
        "predictive": _stat_table_doc(report.predictive),
        "retrodictive": _stat_table_doc(report.retrodictive),
    }
    return _finish(doc, checks, args.out)


def cmd_verify(args) -> int:
    results = run_suites(args.suite)
    doc = _base_doc("verify")
    doc["inputs"] = {"suites": [r.suite for r in results]}
    doc["suites"] = [
        {"suite": r.suite, "checks": [_check_doc(c) for c in r.checks], "passed": r.passed}
        for r in results
    ]
    doc["passed"] = all(r.passed for r in results)
    for r in results:
        for line in r.lines():
            print(line)
    if args.out:
        write_json(doc, args.out)
        print(f"report written to {args.out}")
    print("verify: PASS" if doc["passed"] else "verify: FAIL")
    return EXIT_OK if doc["passed"] else EXIT_NUMERIC_FAILURE


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta1", type=float, required=True, help="prior of the first state, in (0, 1)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, help="state half-angle in radians, in (0, pi/4]")
    group.add_argument("--overlap", type=float, help="state overlap s = cos(2 alpha), in [0, 1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    parser = _Parser(prog="retrodictor", description=__doc__)
    parser.add_argument("--version", action="version", version=f"retrodictor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("transform", help="retrodictive dual of an ensemble/POVM pair")
    p.add_argument("ensemble", help="ensemble JSON file")
    p.add_argument("povm", help="POVM JSON file")
    p.add_argument("--support-restricted", action="store_true",
                   help="invert the source on its support only (singular sources); source "
                        "eigenvalues that are not zero up to roundoff must still clear the floor")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("ud", help="optimal dual of two-state unambiguous discrimination")
    _add_instance_arguments(p)
    p.add_argument("--grid-check", type=float, default=None, metavar="STEP",
                   help="also run the brute-force grid oracle at this step")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("channel", help="symmetric entangled channel and no-signaling checks")
    _add_instance_arguments(p)
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("simulate", help="seeded Monte Carlo sampling of a prepare-measure pair")
    p.add_argument("ensemble", help="ensemble JSON file")
    p.add_argument("povm", help="POVM JSON file")
    p.add_argument("--n", type=int, required=True, help="number of samples (>= 1)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed, a signed 64-bit integer in [-2**63, 2**63) "
                        f"(default: ${SEED_ENV_VAR} or 0)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite name (repeatable): transform, ud, channel, simulate, failure-modes, all")
    p.add_argument("--out", help="also write the JSON report here")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors via exit
        return int(exc.code or 0)
    try:
        # Looked up per call, so a rebinding of a cmd_* function reaches the cached parser.
        return globals()[f"cmd_{args.command}"](args)
    except (ValidationError, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except RetrodictorError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Commands: value, simulate, certify, sweep, logset.  Exit codes:
0 success, 1 certified-bound violation, 2 configuration error,
3 strategy validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

import numpy as np

from .extraction import log_question_set
from .game import exact_value, referee_simulate
from .strategy import (
    NoiseSpec,
    Strategy,
    load_strategy,
    noisy_strategy,
    validate,
)
from .verifier import MAX_CERTIFY_N, SelfTestReport, certify

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3

SWEEP_COLUMNS = ("n,model,param,value,epsilon,delta_cert,"
                 "eps1_meas,eps1_cert,eps2_meas,eps2_cert,eps3_meas,eps3_cert,"
                 "dist_fixed_max,dist_opt_max,junk_norm")


class _ConfigError(Exception):
    """A bad flag or environment setting; main reports it and exits 2."""


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _seed_from(args) -> int | None:
    """--seed wins over the SEED environment variable."""
    seed = args.seed
    if seed is None:
        env = os.environ.get("SEED")
        if env is None:
            return None
        try:
            seed = int(env)
        except ValueError:
            raise _ConfigError("SEED must be an integer") from None
    if seed < 0:
        raise _ConfigError("the seed must be non-negative")
    return seed


def _samples_from(args) -> int:
    if args.samples < 1:
        raise _ConfigError("--samples must be a positive integer")
    return args.samples


def _resolve_strategy(args) -> tuple[Strategy | None, int]:
    """Build or load the strategy named by the arguments."""
    if args.strategy:
        try:
            strat = load_strategy(args.strategy)
        except OSError as exc:
            return None, _fail(f"cannot read strategy file: {exc}", EXIT_CONFIG)
        except ValueError as exc:
            return None, _fail(str(exc), EXIT_CONFIG)
    else:
        if args.n is None:
            return None, _fail("--n is required without --strategy", EXIT_CONFIG)
        if args.n < 2 or args.n % 2:
            return None, _fail("--n must be even and at least 2", EXIT_CONFIG)
        try:
            noise = NoiseSpec(model=args.noise, param=args.noise_param)
        except ValueError as exc:
            return None, _fail(str(exc), EXIT_CONFIG)
        strat = noisy_strategy(args.n, noise)
    diag = validate(strat)
    if not diag.ok:
        return None, _fail(
            "strategy failed validation: residuals "
            f"hermiticity={diag.hermiticity:.3e} unitarity={diag.unitarity:.3e} "
            f"commutation={diag.commutation:.3e} normalization={diag.normalization:.3e}",
            EXIT_VALIDATION)
    return strat, EXIT_OK


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_row(report: SelfTestReport, model: str, param: float) -> list[str]:
    def g(x: float) -> str:
        return format(float(x), ".12g")

    meas = report.measured
    dist_fixed = max(report.distances_fixed.values())
    dist_opt = max(report.distances_optimal.values())
    return [str(report.n), model, g(param), g(report.value), g(report.epsilon),
            g(report.delta_cert), g(meas.eps1), g(report.certified["eps1"]),
            g(meas.eps2), g(report.certified["eps2"]),
            g(meas.eps3), g(report.certified["eps3"]),
            g(dist_fixed), g(dist_opt), g(report.junk_norm)]


def cmd_value(args) -> int:
    strat, code = _resolve_strategy(args)
    if strat is None:
        return code
    try:
        result = exact_value(strat)
    except ValueError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    print(f"{result.value:.12f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    strat, code = _resolve_strategy(args)
    if strat is None:
        return code
    if args.rounds is None or args.rounds < 1:
        return _fail("--rounds must be a positive integer", EXIT_CONFIG)
    seed = _seed_from(args)
    if seed is None:
        return _fail("sampling needs a seed (--seed or SEED)", EXIT_CONFIG)
    result = referee_simulate(strat, args.rounds, np.random.default_rng(seed))
    print(f"estimate {result.value:.12f}")
    print(f"stderr {result.stderr:.12f}")
    print(f"win_rate {result.win_rate:.12f}")
    return EXIT_OK


def cmd_certify(args) -> int:
    samples = _samples_from(args)
    strat, code = _resolve_strategy(args)
    if strat is None:
        return code
    if strat.n > MAX_CERTIFY_N:
        return _fail(f"certification is limited to n <= {MAX_CERTIFY_N}", EXIT_CONFIG)
    seed = _seed_from(args)
    try:
        report = certify(strat, coverage=args.coverage or "auto",
                         samples=samples, seed=0 if seed is None else seed)
    except ValueError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    model, param = ("file", 0.0) if args.strategy else (args.noise, args.noise_param)
    if args.format == "text":
        _write_out(report.to_text(), args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(SWEEP_COLUMNS.split(","))
        writer.writerow(_report_row(report, model, param))
        _write_out(buf.getvalue(), args.out)
    return EXIT_OK if report.passed else EXIT_BOUND_VIOLATION


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def cmd_sweep(args) -> int:
    samples = _samples_from(args)
    try:
        ns = _int_list(args.n or "")
        params = _float_list(args.noise_param_list if args.noise_param_list is not None
                             else "")
    except ValueError as exc:
        return _fail(f"bad grid: {exc}", EXIT_CONFIG)
    for n in ns:
        if n < 2 or n % 2 or n > MAX_CERTIFY_N:
            return _fail(f"grid n = {n} is unusable (even, 2..{MAX_CERTIFY_N})",
                         EXIT_CONFIG)
    seed = _seed_from(args)
    seed = 0 if seed is None else seed
    rows = []
    worst = EXIT_OK
    for n in ns:
        for param in params:
            try:
                noise = NoiseSpec(model=args.noise, param=param)
            except ValueError as exc:
                return _fail(str(exc), EXIT_CONFIG)
            try:
                report = certify(noisy_strategy(n, noise),
                                 coverage=args.coverage or "auto",
                                 samples=samples, seed=seed)
            except ValueError as exc:
                return _fail(str(exc), EXIT_CONFIG)
            rows.append(_report_row(report, args.noise, param))
            if not report.passed:
                worst = EXIT_BOUND_VIOLATION
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_COLUMNS.split(","))
    writer.writerows(rows)
    _write_out(buf.getvalue(), args.out)
    return worst


def cmd_logset(args) -> int:
    if args.n is None:
        return _fail("--n is required", EXIT_CONFIG)
    try:
        questions = log_question_set(args.n)
    except ValueError as exc:
        return _fail(str(exc), EXIT_CONFIG)
    for q in questions:
        print(q)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chsh-selftest",
        description="Simulate and certify parallel CHSH self-tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rounds=False, sweep=False):
        if sweep:
            p.add_argument("--n", type=str, default=None,
                           help="comma-separated list of qubit counts")
            p.add_argument("--noise-param", dest="noise_param_list", type=str,
                           default=None, help="comma-separated parameter grid")
        else:
            p.add_argument("--n", type=int, default=None,
                           help="number of tested qubits (even)")
            p.add_argument("--noise-param", dest="noise_param", type=float,
                           default=0.0, help="noise model parameter")
        p.add_argument("--noise", choices=["none", "bob-rotation",
                                           "partial-entanglement"],
                       default="none", help="noise model for built strategies")
        p.add_argument("--strategy", type=str, default=None,
                       help="path to a strategy file (overrides --n/--noise)")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (falls back to the SEED env var)")
        p.add_argument("--out", type=str, default=None,
                       help="output file (default stdout)")
        p.add_argument("--format", choices=["csv", "text"], default="csv",
                       help="output encoding where both make sense")
        p.add_argument("--coverage", choices=["exhaustive", "sampled"],
                       default=None,
                       help="general-condition coverage (default: exhaustive "
                            "iff n <= 6)")
        p.add_argument("--samples", type=int, default=10_000,
                       help="sample count for sampled coverage")
        if rounds:
            p.add_argument("--rounds", type=int, default=None,
                           help="number of referee rounds")

    p_value = sub.add_parser("value", help="exact game value")
    common(p_value)
    p_value.set_defaults(func=cmd_value)

    p_sim = sub.add_parser("simulate", help="finite-round referee estimate")
    common(p_sim, rounds=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_cert = sub.add_parser("certify", help="full self-test report")
    common(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_sweep = sub.add_parser("sweep", help="certify over an (n, param) grid")
    common(p_sweep, sweep=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_log = sub.add_parser("logset", help="pair-separating question set")
    p_log.add_argument("--n", type=int, default=None)
    p_log.set_defaults(func=cmd_logset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _ConfigError as exc:
        return _fail(str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())

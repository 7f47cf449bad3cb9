"""Command line front end.

Commands: value, simulate, certify, sweep, logset.  Exit codes:
0 success, 1 certified-bound violation, 2 configuration error,
3 strategy validation failure.  Every refusal reaches ``main``, which
prints one ``error: ...`` line and picks the code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys

import numpy as np

from .extraction import log_question_set
from .game import MAX_EXACT_N, exact_value, referee_simulate
from .strategy import (
    NOISE_MODELS,
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

#: largest n logset answers: it prints about (n/2) log2(n/2) characters,
#: so its time and memory grow with n (about 240 MB of text at n = 2 * 10^7)
MAX_LOGSET_N = 1 << 16

SWEEP_COLUMNS = ("n,model,param,value,epsilon,delta_cert,"
                 "eps1_meas,eps1_cert,eps2_meas,eps2_cert,eps3_meas,eps3_cert,"
                 "dist_fixed_max,dist_opt_max,junk_norm")


class _Refusal(Exception):
    """A refused run; main prints the message as an error line and exits with code."""

    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


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
            raise _Refusal("SEED must be an integer") from None
    if seed < 0:
        raise _Refusal("the seed must be non-negative")
    return seed


def _check_strategy_flags(args, max_n: int | None = None, stage: str = "") -> None:
    """Refuse the flags of a strategy to build before anything is built.

    A built strategy with n above ``max_n`` is refused as "<stage> limited
    to n <= max_n": at n = 14 building alone takes seconds, and at n = 20
    numpy cannot allocate the observables.
    """
    if args.strategy:
        return
    if args.n is None:
        raise _Refusal("--n is required without --strategy")
    if args.n < 2 or args.n % 2:
        raise _Refusal("--n must be even and at least 2")
    if max_n is not None and args.n > max_n:
        raise _Refusal(f"{stage} limited to n <= {max_n}")


def _resolve_strategy(args, max_n: int | None = None, stage: str = "") -> Strategy:
    """Build or load the strategy named by the arguments, once
    ``_check_strategy_flags`` accepts them, and validate it."""
    _check_strategy_flags(args, max_n, stage)
    if args.strategy:
        try:
            strat = load_strategy(args.strategy)
        except OSError as exc:
            raise _Refusal(f"cannot read strategy file: {exc}") from None
    else:
        strat = noisy_strategy(args.n, NoiseSpec(model=args.noise, param=args.noise_param))
    diag = validate(strat)
    if not diag.ok:
        raise _Refusal(
            "strategy failed validation: residuals "
            f"hermiticity={diag.hermiticity:.3e} unitarity={diag.unitarity:.3e} "
            f"commutation={diag.commutation:.3e} normalization={diag.normalization:.3e}",
            EXIT_VALIDATION)
    return strat


def _write_out(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Refusal(f"cannot write output: {exc}") from None


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([SWEEP_COLUMNS.split(",")] + rows)
    return buf.getvalue()


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
    print(f"{exact_value(_resolve_strategy(args, MAX_EXACT_N, 'exhaustive value')):.12f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    # every refusal of a flag comes before a strategy is built or read
    _check_strategy_flags(args, MAX_EXACT_N, "referee simulation")
    if args.rounds is None or args.rounds < 1:
        raise _Refusal("--rounds must be a positive integer")
    seed = _seed_from(args)
    if seed is None:
        raise _Refusal("sampling needs a seed (--seed or SEED)")
    strat = _resolve_strategy(args, MAX_EXACT_N, "referee simulation")
    try:
        result = referee_simulate(strat, args.rounds, np.random.default_rng(seed))
    except (MemoryError, ValueError) as exc:  # numpy cannot allocate the per-round draws
        raise _Refusal(f"cannot simulate {args.rounds} rounds: {exc}") from None
    print(f"estimate {result.value:.12f}")
    print(f"stderr {result.stderr:.12f}")
    print(f"win_rate {result.win_rate:.12f}")
    return EXIT_OK


def cmd_certify(args) -> int:
    strat = _resolve_strategy(args, MAX_CERTIFY_N, "certification pipeline")
    seed = _seed_from(args)
    report = certify(strat, seed=0 if seed is None else seed)
    model, param = ("file", 0.0) if args.strategy else (args.noise, args.noise_param)
    text = report.to_text() if args.format == "text" else _csv_text(
        [_report_row(report, model, param)])
    _write_out(text, args.out)
    return EXIT_OK if report.passed else EXIT_BOUND_VIOLATION


def _grid(text: str | None, kind) -> list:
    return [kind(tok) for tok in (text or "").split(",") if tok.strip()]


def cmd_sweep(args) -> int:
    try:
        ns, params = _grid(args.n, int), _grid(args.noise_param_list, float)
    except ValueError as exc:
        raise _Refusal(f"bad grid: {exc}") from None
    for n in ns:
        if n < 2 or n % 2 or n > MAX_CERTIFY_N:
            raise _Refusal(f"grid n = {n} is unusable (even, 2..{MAX_CERTIFY_N})")
    seed = _seed_from(args)
    seed = 0 if seed is None else seed
    noises = [NoiseSpec(model=args.noise, param=param) for param in params]
    rows = []
    worst = EXIT_OK
    for n in ns:
        for noise in noises:
            report = certify(noisy_strategy(n, noise), seed=seed)
            rows.append(_report_row(report, args.noise, noise.param))
            if not report.passed:
                worst = EXIT_BOUND_VIOLATION
    _write_out(_csv_text(rows), args.out)
    return worst


def cmd_logset(args) -> int:
    if args.n is None:
        raise _Refusal("--n is required")
    if args.n > MAX_LOGSET_N:
        raise _Refusal(f"pair-separating question set limited to n <= {MAX_LOGSET_N}")
    for q in log_question_set(args.n):
        print(q)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares only the flags it reads.

    Built once per process: declaring the arguments took 1.5-2.3 ms a
    build on a 2-core box, a tenth of a small command.  Parsing leaves
    the parser unchanged, and each ``cmd_*`` looks up the library
    functions it calls when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="chsh-selftest",
        description="Simulate and certify parallel CHSH self-tests.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_value = sub.add_parser("value", help="exact game value")
    p_value.set_defaults(func=cmd_value)
    p_sim = sub.add_parser("simulate", help="finite-round referee estimate")
    p_sim.set_defaults(func=cmd_simulate)
    p_cert = sub.add_parser("certify", help="full self-test report")
    p_cert.set_defaults(func=cmd_certify)
    p_sweep = sub.add_parser("sweep", help="certify over an (n, param) grid")
    p_sweep.set_defaults(func=cmd_sweep)

    for p in (p_value, p_sim, p_cert):
        p.add_argument("--n", type=int, help="number of tested qubits (even)")
        p.add_argument("--noise-param", dest="noise_param", type=float,
                       default=0.0, help="noise model parameter")
        p.add_argument("--strategy", type=str,
                       help="path to a strategy file (overrides --n/--noise)")
    p_sweep.add_argument("--n", type=str, help="comma-separated list of qubit counts")
    p_sweep.add_argument("--noise-param", dest="noise_param_list", type=str,
                         help="comma-separated parameter grid")
    for p in (p_value, p_sim, p_cert, p_sweep):
        p.add_argument("--noise", choices=NOISE_MODELS, default="none",
                       help="noise model for built strategies")
    for p in (p_sim, p_cert, p_sweep):
        p.add_argument("--seed", type=int,
                       help="RNG seed (falls back to the SEED env var)")
    for p in (p_cert, p_sweep):
        p.add_argument("--out", type=str, help="output file (default stdout)")
    p_sim.add_argument("--rounds", type=int, help="number of referee rounds")
    p_cert.add_argument("--format", choices=["csv", "text"], default="csv",
                        help="report encoding")

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
    except _Refusal as exc:
        message, code = str(exc), exc.code
    except ValueError as exc:  # the library's own refusals of an input
        message, code = str(exc), EXIT_CONFIG
    except MemoryError as exc:  # a build numpy cannot allocate; its message names the size
        message, code = str(exc) or "out of memory", EXIT_CONFIG
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

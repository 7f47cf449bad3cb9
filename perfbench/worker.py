"""One workload process: set up, run ops back to back, check every output.

Run by ``run.py``; not meant to be started by hand.  Usage:

    python3 perfbench/worker.py PLAN.json --out RESULT.json [--seconds S] [--trace 0|1]
    python3 perfbench/worker.py PLAN.json --out RESULT.json --setup-only

The process imports nothing heavy before ``setup_s`` starts, so the time
to import ``chsh_selftest`` (and numpy with it) is part of set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def run_op(cli, argv: list, tracer=None) -> tuple[float, object, str]:
    """Run one CLI command in-process; returns (wall seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    root = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                root = tracer.open("cli.main")
            try:
                code = cli.main(argv)
            finally:
                if root is not None:
                    tracer.close(root)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, min(len(ranked) - 1, round(q * len(ranked)) - 1))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    start = time.perf_counter()
    from chsh_selftest import cli

    import workloads
    for inp in plan["inputs"]:
        workloads.build_strategy(plan["n"], inp["source"])
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(cli, plan, args.seconds, args.trace, args.out))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


def measure(cli, plan: dict, seconds: float, trace: int, out_path: str) -> dict:
    """The closed loop: one op at a time until ``seconds`` have passed."""
    import tracer as tracing
    import workloads

    reference = workloads.load_reference(plan)
    inputs = plan["inputs"]
    corrupt_op = plan.get("corrupt_op")
    tracer = tracing.Tracer() if trace else None
    ops = []
    begin = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - begin < seconds:
        inp = inputs[k % len(inputs)]
        # traced runs pair each traced op with an untraced one on the same
        # input, alternating which goes first, and require equal outputs
        modes = ((True, False) if k % 2 == 0 else (False, True)) if tracer else (False,)
        outputs, records = {}, {}
        for traced in modes:
            if traced:
                tracer.op = k
                tracer.install()
            try:
                dt, code, stdout = run_op(cli, inp["argv"], tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if corrupt_op == k:
                stdout = workloads.corrupt(stdout)
            outputs[traced] = (code, stdout)
            records[traced] = {"input": inp["name"], "s": dt, "code": code, "traced": traced,
                               "error": workloads.check_output(plan, inp, code, stdout,
                                                               reference)}
            ops.append(records[traced])
        if tracer and outputs[True] != outputs[False] and records[True]["error"] is None:
            records[True]["error"] = "traced output differs from untraced output"
        k += 1

    plain = [op["s"] for op in ops if not op["traced"]]
    done = [op["s"] for op in ops if not op["traced"] and op["error"] is None]
    failed = sum(op["error"] is not None for op in ops)
    result = {
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "op_count": len(plain),
        "op_s_p50": statistics.median(plain),
        "op_s_p90": percentile(plain, 0.9) if len(plain) >= 100 else None,
        "items_per_s": plan["items_per_op"] * len(done) / sum(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        traced = [op["s"] for op in ops if op["traced"]]
        overhead = statistics.median(traced) / result["op_s_p50"] - 1.0
        result["per_layer"] = tracer.metrics(len(traced), overhead)
        tracer.write_spans(Path(out_path).with_suffix(".spans.jsonl"))
    return result


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the chsh-selftest command line, one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-n6 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

For each workload this writes the seeded inputs under ``.perfbench-work/``,
times set-up in separate probe processes, then starts one workload process
that runs ops back to back (a closed loop with one client) for ``--seconds``
and checks every output.  The last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones from
an outside-in trace, run as traced/untraced op pairs.  Lines before it give
the machine and provenance, then each metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"

#: set-up is timed this many times per run (probe processes plus the
#: workload process itself) and reported as the median
SETUP_SAMPLES = 7

#: every run, set-up included, ends within this many seconds
RUN_DEADLINE_S = 170.0

NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def provenance(seed: int) -> dict:
    """Machine and software facts, so numbers are compared on one machine only."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {key: os.environ[key] for key in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _worker(plan_path: Path, out: Path, deadline: float, *extra: str) -> dict:
    """Run worker.py to completion and return the result it wrote."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("run deadline passed before the workload process started")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                           "--out", str(out), *extra],
                          capture_output=True, text=True, timeout=remaining, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 spec: dict | None = None, corrupt_op: int | None = None) -> dict:
    """Generate the inputs, time set-up, run the workload process; return its result.

    ``spec`` and ``corrupt_op`` serve the harness self-test: a small-n
    workload table entry, and the index of an op whose output is corrupted.
    """
    import workloads

    deadline = time.monotonic() + RUN_DEADLINE_S
    tag = f"{name}-seed{seed}-trace{trace}"
    input_dir = WORK_DIR / "inputs" / f"{tag}-{os.getpid()}"
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.make_plan(name, seed, input_dir, spec)
        if corrupt_op is not None:
            plan["corrupt_op"] = corrupt_op
        plan_path = input_dir / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
        setups = [_worker(plan_path, input_dir / f"setup{i}.json", deadline,
                          "--setup-only")["setup_s"]
                  for i in range(SETUP_SAMPLES - 1)]
        result = _worker(plan_path, results / f"{tag}.json", deadline,
                         "--seconds", str(seconds), "--trace", str(trace))
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    setups.append(result["setup_s"])
    result.update(workload=name, seed=seed, trace=trace, unit=plan["unit"],
                  setup_samples=setups, setup_s=statistics.median(setups),
                  provenance=provenance(seed))
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "op_s_p50": {"value": result["op_s_p50"], "unit": "s"},
        "items_per_s": {"value": result["items_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def summary(result: dict) -> dict:
    """The final JSON object of one run."""
    metrics = result["per_layer"] if result["trace"] else end_to_end(result)
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_table(result: dict) -> None:
    """Every metric by name and unit, under the names the workload reports."""
    import workloads

    ops = result["op_count"]
    print(f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for op in result["ops"]:
        if op["error"]:
            print(f"  failed op on {op['input']}: {op['error']}")
    p90 = (f"{result['op_s_p90']:.6g} s" if result["op_s_p90"] is not None
           else f"not reported ({ops} ops < 100)")
    rows = [
        ("setup_s", f"{result['setup_s']:.6g} s", f"median of {len(result['setup_samples'])}"),
        ("op_s_p50", f"{result['op_s_p50']:.6g} s", f"{ops} ops"),
        ("op_s_p90", p90, ""),
        (workloads.THROUGHPUT_NAMES[result["unit"]], f"{result['items_per_s']:.6g} 1/s",
         "items_per_s in the result line"),
        ("peak_rss_mb", f"{result['peak_rss_mb']:.6g} MB", ""),
        ("error_rate", f"{result['error_rate']:.6g} fraction", ""),
    ]
    if result["trace"]:
        rows += [(name, f"{m['value']:.6g} {m['unit']}", "per op")
                 for name, m in result["per_layer"].items()]
    for name, value, note in rows:
        print(f"  {name:<44} {value:<24} {note}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
    print("provenance " + json.dumps(results[names[0]]["provenance"]))
    for result in results.values():
        print_table(result)
    if args.workload == "all":
        print(json.dumps({name: summary(r) for name, r in results.items()}))
    else:
        print(json.dumps(summary(results[args.workload])))
    return 0


def prepare() -> None:
    """Find the package sources and cap BLAS threads; call before numpy loads."""
    if not (ROOT / "src" / "chsh_selftest" / "__init__.py").is_file():
        print(f"error: no chsh_selftest sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    for key in BLAS_ENV:
        os.environ[key] = str(NPROC)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]


if __name__ == "__main__":
    prepare()
    sys.exit(main())

"""Self-test of the benchmark harness on n = 2 and n = 4 inputs.

    python3 perfbench/selftest.py

Runs in well under a minute.  It checks that every metric BENCHMARK.json
names is emitted with its unit, that a deliberately corrupted output is
counted in ``error_rate``, that traced and untraced runs give identical
outputs and the expected call counts, that a report differing from its
reference is caught, and that the benchmark refuses to run in a directory
without the package sources.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

MINI = {
    "selftest-certify-n2": dict(command="certify", n=2, flag_models=("bob-rotation",),
                                file_models=(), random_files=1, random_dim=None,
                                unit="reports"),
    "selftest-certify-n4": dict(command="certify", n=4,
                                flag_models=("bob-rotation", "partial-entanglement"),
                                file_models=(), random_files=1, random_dim=None,
                                unit="reports"),
    "selftest-simulate-n4": dict(command="simulate", n=4, flag_models=("bob-rotation",),
                                 file_models=(), random_files=0, random_dim=None,
                                 rounds=2000, unit="rounds"),
    "selftest-value-n4": dict(command="value", n=4, flag_models=(),
                              file_models=("bob-rotation", "partial-entanglement"),
                              random_files=1, random_dim=3, unit="values"),
}

# per-op call counts the trace must show: (distance calls, subtest_table calls)
EXPECTED_CALLS = {
    "selftest-certify-n2": (2 * 4**2, 3),
    "selftest-certify-n4": (2 * 4**4, 3),
    "selftest-simulate-n4": (0, 0),
    "selftest-value-n4": (0, 1),
}

SECONDS = 0.5
SEED = 11


class Failures(list):
    def expect(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            self.append(what)


def emitted(summary: dict, declared: list) -> bool:
    """The result line names exactly the declared metrics, each with its unit."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in summary["metrics"].items()}
    return got == want and all(isinstance(m["value"], (int, float))
                               for m in summary["metrics"].values())


def main() -> int:
    run.prepare()
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = Failures()
    for name, spec in MINI.items():
        plain = run.run_workload(name, SEED, SECONDS, 0, spec)
        summary = run.summary(plain)
        failures.expect(summary["correct"] and summary["failed"] == 0,
                        f"{name}: every op passes its output check")
        failures.expect(emitted(summary, bench["end_to_end"]),
                        f"{name}: every end-to-end metric emitted with its unit")

        traced = run.run_workload(name, SEED, SECONDS, 1, spec)
        summary = run.summary(traced)
        failures.expect(summary["correct"] and summary["attempted"] % 2 == 0,
                        f"{name}: traced and untraced ops give identical outputs")
        failures.expect(emitted(summary, bench["per_layer"]),
                        f"{name}: every per-layer metric emitted with its unit")
        metrics = summary["metrics"]
        calls = (metrics["verifier.extraction_distance.calls"]["value"],
                 metrics["game.subtest_table.calls"]["value"])
        failures.expect(calls == EXPECTED_CALLS[name],
                        f"{name}: distance and subtest_table calls per op {calls} "
                        f"== {EXPECTED_CALLS[name]}")

        corrupted = run.run_workload(name, SEED, SECONDS, 0, spec, corrupt_op=0)
        failures.expect(corrupted["failed"] == 1 and corrupted["error_rate"] > 0
                        and not run.summary(corrupted)["correct"],
                        f"{name}: a corrupted output counts in error_rate "
                        f"({corrupted['failed']}/{corrupted['attempted']})")

    ref_path = workloads.REFERENCE_DIR / f"certify-n6-seed{workloads.DEFAULT_SEED}.json"
    report = next(iter(json.loads(ref_path.read_text(encoding="utf-8")).values()))["report"]
    nudged = json.loads(json.dumps(report))
    nudged["junk_norm"] *= 1 + 1e-9
    failures.expect(workloads.report_difference(report, report) is None
                    and workloads.report_difference(nudged, report) is not None,
                    "a report field off by 1e-9 relative differs from its reference")

    bare = run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable] + bench["command"][1:]
                          + ["--workload", "certify-n6", "--seed", "1",
                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    failures.expect(proc.returncode != 0 and not proc.stdout.strip(),
                    f"without package sources the benchmark exits {proc.returncode} "
                    "and prints no result")

    print(f"{len(failures)} failed" if failures else "all harness checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

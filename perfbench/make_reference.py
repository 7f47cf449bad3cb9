"""Record the certify reports that runs at the default seed are checked against.

    python3 perfbench/make_reference.py

Writes ``reference/<workload>-seed<DEFAULT_SEED>.json`` for each certify
workload: the exit code and parsed ``--format text`` report of every input.
Run it only on a commit whose reports are trusted; a benchmark run at the
default seed then fails any op whose report differs from it in a field
beyond 12 significant digits.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.prepare()
    from chsh_selftest import cli

    import workloads
    from worker import run_op

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, spec in workloads.WORKLOADS.items():
        if spec["command"] != "certify":
            continue
        input_dir = run.WORK_DIR / "inputs" / f"reference-{name}"
        try:
            plan = workloads.make_plan(name, workloads.DEFAULT_SEED, input_dir)
            reference = {}
            for inp in plan["inputs"]:
                _, code, stdout = run_op(cli, inp["argv"])
                reference[inp["name"]] = {"exit": code, "report": json.loads(stdout)}
                print(f"{name} {inp['name']}: exit {code}", flush=True)
        finally:
            shutil.rmtree(input_dir, ignore_errors=True)
        path = workloads.REFERENCE_DIR / f"{name}-seed{workloads.DEFAULT_SEED}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

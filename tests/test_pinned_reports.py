"""The benchmark's correctness gate, run in-process: every certify report
at the pinned seed matches ``perfbench/reference/`` to 12 digits."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from chsh_selftest import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["certify-n6", "certify-n8"])
def test_certify_reports_match_the_pinned_references(tmp_path, workload):
    workloads = load_workloads()
    plan = workloads.make_plan(workload, workloads.DEFAULT_SEED, tmp_path)
    reference = workloads.load_reference(plan)
    assert reference is not None
    for inp in plan["inputs"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(inp["argv"])
        bad = workloads.check_output(plan, inp, code, out.getvalue(), reference)
        assert bad is None, f"{workload} {inp['name']}: {bad}"

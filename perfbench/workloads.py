"""Workload definitions: seeded inputs, per-op command lines and output checks.

A workload is a fixed cycle of inputs.  Each op runs one ``chsh-selftest``
command on the next input of the cycle.  Inputs are drawn from the workload
seed; the program under test only ever sees the command lines and the
strategy files written here.
"""

from __future__ import annotations

import json
import math
import re
import zlib
from pathlib import Path

import numpy as np

TSIRELSON = 2.0 * math.sqrt(2.0)

#: the seed whose certify reports are pinned in ``reference/``
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: random strategies for value-n12 use 32-dimensional sides, which keeps
#: their files near the size of the native-dimension noise-model files
VALUE_RANDOM_DIM = 32

# Each workload: command, qubit count, noise-model inputs given as flags
# (``flag_models``) or as files (``file_models``), random-strategy files and
# their side dimension (None = native 2^(n/2)), the work unit one op
# completes, and for simulate the rounds per op.  Why each workload exists
# is recorded in BENCHMARK.json.
WORKLOADS = {
    "certify-n6": dict(command="certify", n=6,
                       flag_models=("bob-rotation", "partial-entanglement") * 2,
                       file_models=(), random_files=2, random_dim=None,
                       unit="reports"),
    "certify-n8": dict(command="certify", n=8,
                       flag_models=("bob-rotation", "partial-entanglement"),
                       file_models=(), random_files=0, random_dim=None,
                       unit="reports"),
    "simulate-n8": dict(command="simulate", n=8,
                        flag_models=("bob-rotation",) * 4,
                        file_models=(), random_files=0, random_dim=None,
                        unit="rounds", rounds=10_000),
    "value-n12": dict(command="value", n=12, flag_models=(),
                      file_models=("bob-rotation", "partial-entanglement"),
                      random_files=1, random_dim=VALUE_RANDOM_DIM,
                      unit="values"),
}

#: the name the metric table gives to each workload's throughput
THROUGHPUT_NAMES = {"reports": "reports_per_s", "rounds": "rounds_per_s",
                    "values": "values_per_s"}


# ---------------------------------------------------------------------------
# input generation

def _draw_param(model: str, rng: np.random.Generator) -> float:
    """A noise parameter at which every command succeeds."""
    if model == "bob-rotation":
        return float(rng.uniform(0.02, 0.25))
    return float(rng.uniform(0.55, 0.78))  # partial-entanglement, below pi/4


def closed_form_value(model: str, param: float) -> float:
    """Exact game value of a noise-model strategy, any n."""
    if model == "bob-rotation":
        return TSIRELSON * math.cos(param)
    return math.sqrt(2.0) * (1.0 + math.sin(2.0 * param))


def make_plan(workload: str, seed: int, input_dir: Path, spec: dict | None = None) -> dict:
    """Draw the inputs of ``workload`` from ``seed`` and write its strategy files.

    ``spec`` overrides the workload table entry (the harness self-test uses
    it for small n).  Returns the plan the worker process executes.
    """
    spec = dict(WORKLOADS[workload] if spec is None else spec)
    n = spec["n"]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    input_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for i, model in enumerate(spec["flag_models"]):
        param = _draw_param(model, rng)
        inp = {"name": f"{model}-{i}", "source": {"model": model, "param": param},
               "argv": ["--n", str(n), "--noise", model, "--noise-param", repr(param)]}
        if spec["command"] == "simulate":
            inp["argv"] += ["--rounds", str(spec["rounds"]),
                            "--seed", str(int(rng.integers(0, 2**31)))]
        inputs.append(inp)
    for i, model in enumerate(spec["file_models"]):
        param = _draw_param(model, rng)
        inputs.append({"name": f"{model}-file-{i}",
                       "source": {"model": model, "param": param}})
    for i in range(spec["random_files"]):
        dim = spec["random_dim"] or 1 << (n // 2)
        inputs.append({"name": f"random-{i}",
                       "source": {"random": [int(x) for x in rng.integers(0, 2**31, 2)],
                                  "dim": dim}})
    for inp in inputs:
        if "argv" not in inp:
            path = input_dir / f"{inp['name']}.json"
            write_strategy(build_strategy(n, inp["source"]), path)
            inp["argv"] = ["--strategy", str(path)]
        inp["argv"] = [spec["command"]] + inp["argv"]
        if spec["command"] == "certify":
            inp["argv"] += ["--format", "text"]
    return {"workload": workload, "seed": seed, "n": n, "command": spec["command"],
            "unit": spec["unit"], "items_per_op": spec.get("rounds", 1), "inputs": inputs}


def build_strategy(n: int, source: dict):
    """The in-memory strategy an input stands for, via the package constructors."""
    from chsh_selftest import NoiseSpec, noisy_strategy, random_strategy

    if "model" in source:
        return noisy_strategy(n, NoiseSpec(model=source["model"], param=source["param"]))
    dim = source["dim"]
    return random_strategy(n, np.random.default_rng(source["random"]), dim, dim)


def _pairs_text(a: np.ndarray) -> str:
    """``[[re, im], ...]`` for a complex array, each float in shortest
    round-trip form.  Values are formatted once per distinct bit pattern,
    which makes the mostly-zero noise-model matrices cheap to write."""
    flat = np.ascontiguousarray(np.asarray(a, dtype=complex).reshape(-1)).view(np.float64)
    patterns, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    words = np.array([repr(x) for x in patterns.view(np.float64).tolist()],
                     dtype=object)[inverse]
    return "[[" + "], [".join(map(", ".join, zip(words[0::2], words[1::2]))) + "]]"


def write_strategy(strategy, path: Path) -> None:
    """Write a strategy document in the package's file format.

    Every float is written exactly, so loading the file reproduces the
    strategy bit for bit.  Written one matrix at a time to keep memory flat.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f'{{"n": {strategy.n}, "dim_A": {strategy.dim_a}, '
                 f'"dim_B": {strategy.dim_b},\n"state": ')
        fh.write(_pairs_text(strategy.state))
        for key, table in (("alice_obs", strategy.alice_obs), ("bob_obs", strategy.bob_obs)):
            fh.write(f',\n"{key}": {{')
            for j, q in enumerate(sorted(table)):
                fh.write(("," if j else "") + f'\n"{q}": [')
                fh.write(", ".join(_pairs_text(o) for o in table[q]))
                fh.write("]")
            fh.write("}")
        fh.write("}\n")


# ---------------------------------------------------------------------------
# output checks

_FLOAT = re.compile(r"-?\d+\.\d+(?:[eE][-+]?\d+)?")

#: report fields the certify checks read
REPORT_KEYS = ("value", "passed", "distances_fixed", "distances_optimal")


def corrupt(stdout: str) -> str:
    """Replace the first decimal number in an output by 9.0 (self-test only)."""
    return _FLOAT.sub("9.0", stdout, count=1)


def _finite_numbers(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, list):
        return all(_finite_numbers(x) for x in obj)
    return all(_finite_numbers(x) for x in obj.values())


def report_difference(got, ref, where: str = "report") -> str | None:
    """First field where two report documents differ beyond 12 significant digits."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return f"{where}: keys differ"
        for key in ref:
            diff = report_difference(got[key], ref[key], f"{where}.{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: lengths differ"
        for i, (g, r) in enumerate(zip(got, ref)):
            diff = report_difference(g, r, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isclose(got, ref, rel_tol=1e-11, abs_tol=1e-12):
            return None
        return f"{where}: {got!r} != reference {ref!r}"
    return None if got == ref else f"{where}: {got!r} != reference {ref!r}"


def _check_value(value: float, source: dict, tol: float) -> str | None:
    if "model" in source:
        expected = closed_form_value(source["model"], source["param"])
        if abs(value - expected) > tol:
            return f"value {value!r} differs from closed form {expected!r}"
    elif abs(value) > TSIRELSON + tol:
        return f"|value| {value!r} exceeds 2*sqrt(2)"
    return None


def check_output(plan: dict, inp: dict, code, stdout: str,
                 reference: dict | None) -> str | None:
    """None if an op's exit code and output are right, else the reason."""
    command = plan["command"]
    if command == "certify":
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "certify output is not a JSON report"
        if not (isinstance(doc, dict) and doc.get("n") == plan["n"]
                and all(key in doc for key in REPORT_KEYS)):
            return "certify report has the wrong shape"
        if not _finite_numbers(doc):
            return "certify report holds a non-finite number"
        if code != (0 if doc.get("passed") else 1):
            return f"exit code {code} disagrees with passed={doc.get('passed')}"
        fixed, optimal = doc["distances_fixed"], doc["distances_optimal"]
        if set(fixed) != set(optimal):
            return "fixed and optimal distances cover different pairs"
        for pair, dist in optimal.items():
            if dist > fixed[pair] + 1e-12:
                return f"optimal distance exceeds fixed distance at {pair}"
        bad = _check_value(doc["value"], inp["source"], 1e-11)
        if bad:
            return bad
        if reference is not None:
            ref = reference.get(inp["name"])
            if ref is None:
                return f"no reference for input {inp['name']}"
            if code != ref["exit"]:
                return f"exit code {code} differs from reference {ref['exit']}"
            return report_difference(doc, ref["report"])
        return None
    if code != 0:
        return f"exit code {code}"
    if command == "value":
        try:
            value = float(stdout)
        except ValueError:
            return "value output is not a number"
        return _check_value(value, inp["source"], 1e-11)
    # simulate: estimate, stderr and win_rate lines
    try:
        fields = dict(line.split(None, 1) for line in stdout.splitlines() if line.strip())
        estimate, stderr = float(fields["estimate"]), float(fields["stderr"])
        float(fields["win_rate"])
    except (KeyError, ValueError):
        return "simulate output is malformed"
    expected = closed_form_value(inp["source"]["model"], inp["source"]["param"])
    if not (math.isfinite(estimate) and stderr > 0
            and abs(estimate - expected) <= 6.0 * stderr):
        return f"estimate {estimate!r} is not within 6 stderr of {expected!r}"
    return None


def load_reference(plan: dict) -> dict | None:
    """Pinned certify reports for the inputs of ``plan``, at the default seed only."""
    if (plan["workload"] not in WORKLOADS or plan["command"] != "certify"
            or plan["seed"] != DEFAULT_SEED):
        return None
    with open(REFERENCE_DIR / f"{plan['workload']}-seed{DEFAULT_SEED}.json",
              encoding="utf-8") as fh:
        return json.load(fh)

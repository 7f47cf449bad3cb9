"""The package root exports exactly the documented API, and the benchmark's
imports from the root resolve against it."""

import ast
from pathlib import Path

import chsh_selftest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ROOT_API = [
    "Strategy", "NoiseSpec", "NOISE_MODELS", "ideal_strategy", "noisy_strategy",
    "random_strategy", "load_strategy", "save_strategy", "strategy_from_text",
    "strategy_to_text", "validate", "exact_value", "referee_simulate", "certify",
    "SelfTestReport", "MAX_EXACT_N", "MAX_CERTIFY_N", "TSIRELSON",
]


def test_root_exports_exactly_the_documented_api():
    assert sorted(chsh_selftest.__all__) == sorted(ROOT_API)
    assert len(chsh_selftest.__all__) == len(ROOT_API) == 18
    assert all(hasattr(chsh_selftest, name) for name in ROOT_API)


def test_perfbench_root_imports_resolve():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "chsh_selftest":
                # submodules (``from chsh_selftest import cli``) are not root names
                imported += [(path.name, alias.name) for alias in node.names
                             if not (Path(chsh_selftest.__file__).parent
                                     / f"{alias.name}.py").is_file()]
    assert imported, "perfbench/ no longer imports from the package root"
    missing = [(name, what) for name, what in imported if what not in ROOT_API]
    assert not missing, f"perfbench/ imports names the root does not export: {missing}"

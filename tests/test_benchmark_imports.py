"""The benchmark's import contract: every name perfbench/ imports from mlsbm exists.

perfbench/ changes only with the benchmark, so a library deletion that would
break one of its imports must fail here first.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def imported_names():
    """(file, module, name) for every `from mlsbm... import name` in perfbench/*.py."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "mlsbm" or node.module.startswith("mlsbm.")
            ):
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


def test_every_name_perfbench_imports_from_mlsbm_resolves():
    names = imported_names()
    assert ("run.py", "mlsbm.experiments", "resolve_worker_count") in names
    missing = []
    for filename, module_name, name in names:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{filename}: from {module_name} import {name}")
    assert missing == []

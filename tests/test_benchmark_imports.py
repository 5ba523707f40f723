"""The benchmark's contract: what perfbench/ imports from mlsbm exists and runs.

perfbench/ changes only with the benchmark, so a library change that would
break one of its imports, or a call its traced run makes, must fail here first.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np

from mlsbm import (
    MlsbmParams,
    MultiLayerGraph,
    aggregate_bias_adjusted,
    aggregate_layer_sum,
    aggregate_signed,
    bias_adjusted_spectral,
    default_start_battery,
    derive_seed,
    mle_local_search,
    mle_local_search_multistart,
    read_results,
    sample_planted,
    shuffled_test,
    write_results,
)
from mlsbm.cli import main

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


def test_the_calls_traced_py_composes_run_on_one_small_graph(tmp_path, capsys):
    """Each library surface perfbench/traced.py reads, used the way it uses it."""
    inst = sample_planted(MlsbmParams(16, 8, 0.3), seed=derive_seed(1, 0, 0, 0))
    graph = inst.graph
    matrices = (aggregate_signed(graph, inst.tau).matrix, aggregate_bias_adjusted(graph).matrix,
                aggregate_layer_sum(graph).matrix)
    for matrix in matrices:
        assert matrix.shape == (graph.n, graph.n) and np.any(matrix)
    assert MultiLayerGraph(graph.n, graph.T, graph.layers) == graph

    calls = []

    def recover(training):
        calls.append(training.T)
        return bias_adjusted_spectral(training)

    outcome = shuffled_test(graph, recover, rounds=None, seed=5)
    shared = shuffled_test(graph, bias_adjusted_spectral, rounds=None, seed=5)
    assert calls and outcome.decision == shared.decision
    assert outcome.shuffle_rounds_used == shared.shuffle_rounds_used >= 1

    starts = default_start_battery(graph)
    results = [mle_local_search(graph, init) for init in starts]
    assert all(len(result.objective_trace) >= 1 for result in results)
    best = mle_local_search_multistart(graph)
    assert best.objective == max(result.objective for result in results)

    out = tmp_path / "gap.csv"
    argv = ["gap-demo", "--n", "16", "--T", "8", "--rho", "0.3", "--trials", "2", "--seed", "1",
            "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    records = read_results(out)
    assert sorted({record.trial for record in records}) == [0, 1]
    rewritten = [dataclasses.replace(record, loss=record.loss, decision=record.decision,
                                     objective=record.objective, degenerate=record.degenerate)
                 for record in records]
    write_results(rewritten, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()

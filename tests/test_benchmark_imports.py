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
    Assignment,
    MlsbmParams,
    MultiLayerGraph,
    RecoveryResult,
    aggregate_bias_adjusted,
    aggregate_layer_sum,
    aggregate_signed,
    balanced_rounding,
    bias_adjusted_spectral,
    default_start_battery,
    derive_seed,
    hamming_loss,
    mle_local_search,
    mle_local_search_multistart,
    oracle_tau_spectral,
    read_results,
    sample_planted,
    shuffled_test,
    top_two_eigenpairs,
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

    # traced.py's start battery: the same roundings, deduplicated on
    # min(start.labels, start.flipped().labels).
    _, v1, _, v2 = top_two_eigenpairs(aggregate_bias_adjusted(graph).matrix)
    _, u1, _, u2 = top_two_eigenpairs(aggregate_layer_sum(graph).matrix)
    composed = [balanced_rounding(vec) for vec in (v1, v2, v1 + v2, v1 - v2, u2, u1)]
    half = graph.n // 2
    composed.append(Assignment(tuple([0] * half + [1] * half)))
    composed.append(Assignment(tuple(i % 2 for i in range(graph.n))))
    composed.append(composed[0].flipped())  # a flip of an earlier start: dropped
    seen, unique = set(), []
    for start in composed:
        key = min(start.labels, start.flipped().labels)
        if key not in seen:
            seen.add(key)
            unique.append(start)
    starts = default_start_battery(graph)
    assert starts == unique and len(unique) < len(composed)

    # traced.py's spectral route, compared with the library's as (sigma_hat, degenerate).
    for matrix, pick_smaller_mean, library in (
        (aggregate_signed(graph, inst.tau).matrix, False, oracle_tau_spectral(graph, inst.tau)),
        (aggregate_bias_adjusted(graph).matrix, True, bias_adjusted_spectral(graph)),
    ):
        lam1, w1, lam2, w2 = top_two_eigenpairs(matrix)
        degenerate = abs(abs(lam1) - abs(lam2)) <= 1e-10 * max(1.0, abs(lam1))
        smaller = pick_smaller_mean and abs(float(w2.mean())) < abs(float(w1.mean()))
        sigma = balanced_rounding(np.zeros(graph.n) if degenerate else w2 if smaller else w1)
        composed_result = RecoveryResult(sigma, "composed", degenerate=degenerate)
        assert (composed_result.sigma_hat, composed_result.degenerate) == (
            library.sigma_hat, library.degenerate)
        loss = hamming_loss(library.sigma_hat, inst.sigma).value
        assert isinstance(loss, float) and 0.0 <= loss <= 0.5
        assert loss == hamming_loss(composed_result.sigma_hat, inst.sigma).value

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

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsbm import (
    Assignment,
    MlsbmParams,
    MultiLayerGraph,
    ValidationError,
    bias_adjusted_spectral,
    default_shuffle_rounds,
    estimate_density,
    sample_null,
    sample_planted,
    split_layer_test,
    shuffled_test,
)
from mlsbm.detection import to_json_record

from conftest import fresh, parity_even_graph


def complete_layer(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def structured_plus_holdouts(n, T, holdout_a, holdout_b):
    """First T layers carry perfect community structure; two holdouts appended."""
    sigma_bits = tuple([0] * (n // 2) + [1] * (n // 2))
    structured = parity_even_graph(n, T, sigma_bits, tuple([0] * T))
    layers = [layer.tolist() for layer in structured.layers]
    layers.append(holdout_a)
    layers.append(holdout_b)
    return MultiLayerGraph(n=n, T=T + 2, layers=layers), Assignment(sigma_bits)


# ------------------------------------------------------------ estimate_density


def test_density_empty_and_complete():
    assert estimate_density([], 10) == 0.0
    assert estimate_density(complete_layer(4), 4) == 1.0


def test_density_fraction():
    edges = [(1, j) for j in range(2, 11)]  # 9 edges on n=10
    assert estimate_density(edges, 10) == pytest.approx(0.2)


# ----------------------------------------------------------- split_layer_test


def test_split_test_null_like_holdouts_decide_zero():
    # both holdout layers complete: cross-block mean == density == 1
    graph, _ = structured_plus_holdouts(4, 2, complete_layer(4), complete_layer(4))
    outcome = split_layer_test(graph, bias_adjusted_spectral)
    assert outcome.decision == 0
    assert outcome.rho_hat == 1.0
    assert outcome.cross_block_mean == pytest.approx(1.0)


def test_split_test_empty_holdouts_decide_zero():
    graph, _ = structured_plus_holdouts(4, 2, [], [])
    outcome = split_layer_test(graph, bias_adjusted_spectral)
    assert outcome.decision == 0
    assert outcome.rho_hat == 0.0


def test_split_test_detects_structured_holdout():
    # recovery layers give sigma_hat = (0,0,1,1) exactly; the decision layer
    # carries 1 cross edge of 4 (mean 0.25) while the density layer carries
    # 3 of 6 edges (rho_hat 0.5): |0.25 - 0.5| = 0.25 >= 0.15.
    decision_layer = [(1, 3)]
    density_layer = [(1, 2), (1, 3), (1, 4)]
    graph, sigma = structured_plus_holdouts(4, 2, decision_layer, density_layer)
    sigma_hat = bias_adjusted_spectral(graph.layer_slice(0, 2)).sigma_hat
    assert sigma_hat.labels in (sigma.labels, sigma.flipped().labels)
    outcome = split_layer_test(graph, bias_adjusted_spectral)
    assert outcome.rho_hat == pytest.approx(0.5)
    assert outcome.cross_block_mean == pytest.approx(0.25)
    assert outcome.decision == 1


def test_split_test_needs_three_layers():
    graph = MultiLayerGraph(n=4, T=2, layers=[[(1, 2)], [(3, 4)]])
    with pytest.raises(ValidationError):
        split_layer_test(graph, bias_adjusted_spectral)


def test_split_test_information_separation():
    # rho_hat reads only the last layer; cross_block_mean only the second to
    # last (given identical recovery layers).
    base_decision = [(1, 3)]
    graph_a, _ = structured_plus_holdouts(4, 2, base_decision, [(1, 2)])
    graph_b, _ = structured_plus_holdouts(4, 2, base_decision, [(1, 2), (3, 4)])
    out_a = split_layer_test(graph_a, bias_adjusted_spectral)
    out_b = split_layer_test(graph_b, bias_adjusted_spectral)
    assert out_a.cross_block_mean == out_b.cross_block_mean
    assert out_a.rho_hat != out_b.rho_hat

    graph_c, _ = structured_plus_holdouts(4, 2, [(1, 4)], [(1, 2)])
    out_c = split_layer_test(graph_c, bias_adjusted_spectral)
    assert out_c.rho_hat == out_a.rho_hat


# --------------------------------------------------------------- shuffled_test


def test_default_rounds_formula():
    assert default_shuffle_rounds(100, 0.0) == 1
    for n, rho_hat in ((100, 0.01), (200, 0.4), (64, 1e-5)):
        expected = max(1, math.ceil(math.log(n * n * rho_hat + 2)))
        assert default_shuffle_rounds(n, rho_hat) == expected


def test_shuffled_rounds_validation(six_edge_instance):
    graph, _, _ = six_edge_instance
    with pytest.raises(ValidationError):
        shuffled_test(graph, bias_adjusted_spectral, rounds=0)


def test_shuffled_null_like_decides_zero():
    # permutation-invariant exact-null construction: every layer identical
    graph = MultiLayerGraph(n=4, T=4, layers=[complete_layer(4)] * 4)
    outcome = shuffled_test(graph, bias_adjusted_spectral, rounds=4, seed=0)
    assert outcome.decision == 0
    assert outcome.shuffle_rounds_used == 4


def test_shuffled_early_break_reports_rounds_used():
    inst = sample_planted(MlsbmParams(n=64, T=18, rho=0.2), seed=5)
    outcome = shuffled_test(inst.graph, bias_adjusted_spectral, rounds=6, seed=1)
    assert outcome.decision == 1
    assert 1 <= outcome.shuffle_rounds_used <= 6


@given(seed=st.integers(0, 50), graph_seed=st.integers(0, 40))
@settings(max_examples=20, deadline=None)
def test_shuffled_prefix_monotonicity(seed, graph_seed):
    # A decision of 1 at fewer rounds never flips to 0 when the same seed
    # extends the permutation stream with more rounds.
    params = MlsbmParams(n=32, T=10, rho=0.15)
    if graph_seed % 2 == 0:
        graph = sample_planted(params, seed=graph_seed).graph
    else:
        graph = sample_null(params, seed=graph_seed)
    small = shuffled_test(graph, bias_adjusted_spectral, rounds=2, seed=seed)
    large = shuffled_test(graph, bias_adjusted_spectral, rounds=5, seed=seed)
    if small.decision == 1:
        assert large.decision == 1


def test_shuffled_deterministic_given_seed():
    inst = sample_planted(MlsbmParams(n=32, T=10, rho=0.1), seed=3)
    a = shuffled_test(inst.graph, bias_adjusted_spectral, rounds=3, seed=9)
    b = shuffled_test(inst.graph, bias_adjusted_spectral, rounds=3, seed=9)
    assert (a.decision, a.rho_hat, a.cross_block_mean) == (
        b.decision,
        b.rho_hat,
        b.cross_block_mean,
    )


# ------------------------------------------------------------- serialization


def test_decision_json_record():
    graph, _ = structured_plus_holdouts(4, 2, [(1, 3)], [(1, 2), (1, 3), (1, 4)])
    outcome = split_layer_test(graph, bias_adjusted_spectral)
    record = to_json_record(outcome, method="split-test", n=4, T=4)
    assert record["decision"] == 1
    assert record["method"] == "split-test"
    assert record["rho_hat"] == 0.5
    assert record["n"] == 4 and record["T"] == 4


# ----------------------------------------------------- calibrated pilot facts


def test_frozen_pilot_risk_profile():
    # The frozen pilot at n=200, T=64, rho = 12/(n sqrt(T)) justifies the
    # shipped defaults: the chosen round count minimizes measured risk, and
    # even five shuffle rounds keep total risk within 0.1 on the easy cell.
    detection = fresh("detection")
    by_rounds = detection["risk_by_rounds"]
    chosen = str(detection["chosen_rounds"])
    assert by_rounds[chosen]["risk"] == min(v["risk"] for v in by_rounds.values())
    assert by_rounds["5"]["risk"] <= 0.1
    for stats in by_rounds.values():
        assert stats["risk"] == pytest.approx(stats["type_i"] + stats["type_ii"])

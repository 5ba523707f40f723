import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsbm import (
    Assignment,
    MlsbmParams,
    MultiLayerGraph,
    SizeGuardError,
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
from mlsbm.seeding import substream

from conftest import fresh, parity_even_graph, peak_while_refusing


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


def test_density_needs_two_nodes():
    with pytest.raises(ValidationError, match="^n must be >= 2, got 1$"):
        estimate_density([], 1)


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


def test_split_test_needs_even_n():
    graph = MultiLayerGraph(n=5, T=3, layers=[[(1, 2)], [(3, 4)], [(4, 5)]])
    with pytest.raises(ValidationError, match="^split_layer_test needs even n, got 5$"):
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


def test_shuffled_rounds_validation():
    graph = sample_null(MlsbmParams(n=20, T=6, rho=0.3), seed=0)
    for rounds in (0, 2.5, True, "3"):
        with pytest.raises(ValidationError, match="rounds must be an integer >= 1"):
            shuffled_test(graph, bias_adjusted_spectral, rounds=rounds)


def test_shuffled_needs_three_layers():
    graph = MultiLayerGraph(n=4, T=2, layers=[[(1, 2)], [(3, 4)]])
    with pytest.raises(ValidationError, match="^shuffled_test needs at least 3 layers, got 2$"):
        shuffled_test(graph, bias_adjusted_spectral, rounds=1)


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


def test_shuffled_reports_the_deciding_round_else_round_zero():
    def round_outcome(graph, m):
        order = substream(0, m).permutation(graph.T)
        return split_layer_test(graph.permute_layers(order), bias_adjusted_spectral)

    # No round decides 1: round 0's statistics, with every round counted.
    graph = sample_null(MlsbmParams(n=40, T=12, rho=0.3), seed=0)
    per_round = [round_outcome(graph, m) for m in range(4)]
    assert [r.decision for r in per_round] == [0, 0, 0, 0]
    assert per_round[0].rho_hat != per_round[-1].rho_hat
    outcome = shuffled_test(graph, bias_adjusted_spectral, rounds=4, seed=0)
    assert outcome == replace(per_round[0], shuffle_rounds_used=4)
    # Round 2 is the first to decide 1: its statistics, and no later round runs.
    graph = sample_null(MlsbmParams(n=20, T=8, rho=0.3), seed=0)
    per_round = [round_outcome(graph, m) for m in range(3)]
    assert [r.decision for r in per_round] == [0, 0, 1]
    outcome = shuffled_test(graph, bias_adjusted_spectral, rounds=5, seed=0)
    assert outcome == replace(per_round[2], shuffle_rounds_used=3)


def test_shuffled_deterministic_given_seed():
    inst = sample_planted(MlsbmParams(n=32, T=10, rho=0.1), seed=3)
    a = shuffled_test(inst.graph, bias_adjusted_spectral, rounds=3, seed=9)
    b = shuffled_test(inst.graph, bias_adjusted_spectral, rounds=3, seed=9)
    assert (a.decision, a.rho_hat, a.cross_block_mean) == (
        b.decision,
        b.rho_hat,
        b.cross_block_mean,
    )


# ------------------------------------------- shared aggregate vs generic route
#
# With recover=bias_adjusted_spectral the rounds share one full-graph aggregate;
# any other callable recovers on each round's permuted graph. The split test is
# the identity round of the same code. The two routes must agree exactly, in
# both tests, refusals included.


def generic(graph):
    return bias_adjusted_spectral(graph)


def assert_routes_agree(graph, rounds, seed):
    shared = shuffled_test(graph, bias_adjusted_spectral, rounds=rounds, seed=seed)
    assert shared == shuffled_test(graph, generic, rounds=rounds, seed=seed)
    assert split_layer_test(graph, bias_adjusted_spectral) == split_layer_test(graph, generic)


def arm_graph(n, T, rho, seed, planted):
    """A planted or null graph with T layers; odd T drops the last of T + 1."""
    params = MlsbmParams(n=n, T=T + T % 2, rho=rho)
    graph = sample_planted(params, seed).graph if planted else sample_null(params, seed)
    return graph.layer_slice(0, T)


@given(
    n=st.integers(2, 20).map(lambda half: 2 * half),
    T=st.integers(3, 12),
    rho=st.sampled_from([0.05, 0.15, 0.3, 0.6]),
    planted=st.booleans(),
    graph_seed=st.integers(0, 2**32 - 1),
    rounds=st.one_of(st.none(), st.integers(1, 6)),
    seed=st.integers(0, 2**63 - 1),
)
@settings(max_examples=60, deadline=None)
def test_shared_aggregate_route_equals_the_generic_route(n, T, rho, planted, graph_seed, rounds, seed):
    assert_routes_agree(arm_graph(n, T, rho, graph_seed, planted), rounds, seed)


@pytest.mark.parametrize("planted", [True, False], ids=["planted", "null"])
@pytest.mark.parametrize("seed", range(3))
def test_shared_aggregate_route_equals_the_generic_route_at_the_detect_cell(planted, seed):
    assert_routes_agree(arm_graph(200, 64, 0.0075, seed, planted), None, seed)


def refusal(call):
    try:
        call()
    except (ValidationError, SizeGuardError) as exc:
        return type(exc), str(exc)
    raise AssertionError("the call was not refused")


@pytest.mark.parametrize("n", [5, 3, 2])
@pytest.mark.parametrize("T", [2, 3])
@pytest.mark.parametrize("rounds", [0, None, 1])
def test_both_routes_refuse_alike(n, T, rounds):
    # odd n, n = 2, T < 3 and rounds < 1 in every combination: the first
    # refusal and its message are the same on both routes, in both tests, and
    # a refusal for the graph's size names the test that was called
    graph = MultiLayerGraph(n=n, T=T, layers=[[(1, 2)]] * T)
    shuffled = refusal(lambda: shuffled_test(graph, generic, rounds=rounds))
    assert refusal(lambda: shuffled_test(graph, bias_adjusted_spectral, rounds=rounds)) == shuffled
    split = refusal(lambda: split_layer_test(graph, generic))
    assert refusal(lambda: split_layer_test(graph, bias_adjusted_spectral)) == split
    assert "split_layer_test" not in shuffled[1] and "shuffled_test" not in split[1]
    if T < 3 or n % 2:
        assert split[1].startswith("split_layer_test needs")
    if T < 3 or (n % 2 and rounds != 0):  # rounds < 1 is refused before the odd n
        assert shuffled[1].startswith("shuffled_test needs")


def test_shared_route_refuses_the_dense_cap_before_allocating():
    # one 4098 x 4098 float64 aggregate would take 134 MB
    graph = MultiLayerGraph(n=4098, T=3, layers=[[]] * 3)
    for test in (split_layer_test, shuffled_test):  # an empty graph gets one shuffle round
        want = refusal(lambda: test(graph, generic))
        assert want[0] is SizeGuardError
        assert refusal(lambda: test(graph, bias_adjusted_spectral)) == want
        assert peak_while_refusing(lambda g: test(g, bias_adjusted_spectral), graph) < 2**20


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

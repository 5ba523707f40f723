import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsbm import (
    Assignment,
    MlsbmParams,
    MultiLayerGraph,
    SizeGuardError,
    ValidationError,
    edge_probability,
    enumerate_assignments,
    read_graph,
    sample_conditional,
    sample_null,
    sample_planted,
    write_graph,
)


# ---------------------------------------------------------------- parameters


def test_params_reject_odd_sizes():
    with pytest.raises(ValidationError):
        MlsbmParams(n=5, T=2, rho=0.1)
    with pytest.raises(ValidationError):
        MlsbmParams(n=4, T=3, rho=0.1)


@pytest.mark.parametrize("rho", [0.0, -0.1, 2 / 3, 0.7, 1.0])
def test_params_reject_rho_outside_open_interval(rho):
    with pytest.raises(ValidationError):
        MlsbmParams(n=4, T=2, rho=rho)


def test_assignment_must_be_balanced():
    with pytest.raises(ValidationError):
        Assignment((0, 0, 0, 1))
    with pytest.raises(ValidationError):
        Assignment((1,))  # odd length
    assert Assignment((1, 0)).labels == (1, 0)


# ---------------------------------------------------------- edge_probability


def test_edge_probability_connectivity_entries():
    # diagonal of the assortative matrix, off-diagonal, and the flipped layer
    assert edge_probability(0, 0, 0, 0.2) == pytest.approx(0.3)
    assert edge_probability(0, 1, 0, 0.2) == pytest.approx(0.1)
    assert edge_probability(0, 1, 1, 0.2) == pytest.approx(0.3)


def test_edge_probability_rejects_bad_rho():
    with pytest.raises(ValidationError):
        edge_probability(0, 0, 0, 0.7)


@given(
    si=st.integers(0, 1),
    sj=st.integers(0, 1),
    tt=st.integers(0, 1),
    rho=st.floats(1e-6, 0.66, allow_nan=False),
)
def test_edge_probability_invariant_under_global_flip(si, sj, tt, rho):
    assert edge_probability(si, sj, tt, rho) == edge_probability(1 - si, 1 - sj, tt, rho)


@given(
    si=st.integers(0, 1),
    sj=st.integers(0, 1),
    tt=st.integers(0, 1),
    rho=st.floats(1e-6, 0.66, allow_nan=False),
)
def test_edge_probability_is_parity_rule(si, sj, tt, rho):
    expected = 1.5 * rho if (si + sj + tt) % 2 == 0 else 0.5 * rho
    assert edge_probability(si, sj, tt, rho) == pytest.approx(expected)


# ------------------------------------------------------ enumerate_assignments


def test_enumerate_assignments_m2_order():
    got = [a.labels for a in enumerate_assignments(2)]
    assert got == [(0, 1), (1, 0)]


@pytest.mark.parametrize("m,count", [(2, 2), (4, 6), (6, 20)])
def test_enumerate_assignments_counts(m, count):
    assignments = list(enumerate_assignments(m))
    assert len(assignments) == count == math.comb(m, m // 2)
    labels = {a.labels for a in assignments}
    assert len(labels) == count  # no duplicates
    assert all(sum(a.labels) == m // 2 for a in assignments)


def test_enumerate_assignments_guards():
    with pytest.raises(ValidationError):
        list(enumerate_assignments(3))
    with pytest.raises(SizeGuardError):
        list(enumerate_assignments(22))


# ----------------------------------------------------------------- sampling


def test_sample_planted_deterministic():
    params = MlsbmParams(n=4, T=2, rho=0.5)
    a = sample_planted(params, seed=7)
    b = sample_planted(params, seed=7)
    assert a.sigma == b.sigma and a.tau == b.tau
    assert a.graph == b.graph
    c = sample_planted(params, seed=8)
    assert (a.graph, a.sigma, a.tau) != (c.graph, c.sigma, c.tau)


def test_sample_null_deterministic():
    params = MlsbmParams(n=4, T=2, rho=0.5)
    assert sample_null(params, seed=3) == sample_null(params, seed=3)


def test_vanishing_density_gives_empty_graphs():
    params = MlsbmParams(n=4, T=2, rho=1e-9)
    assert sample_planted(params, seed=0).graph.total_edges == 0
    assert sample_null(params, seed=0).total_edges == 0


def test_planted_empirical_density_near_rho():
    params = MlsbmParams(n=100, T=50, rho=0.1)
    graph = sample_planted(params, seed=12345).graph
    slots = math.comb(100, 2) * 50
    density = graph.total_edges / slots
    assert 0.095 <= density <= 0.105


def test_null_empirical_density_near_rho():
    params = MlsbmParams(n=100, T=50, rho=0.1)
    graph = sample_null(params, seed=54321)
    density = graph.total_edges / (math.comb(100, 2) * 50)
    assert 0.095 <= density <= 0.105


def test_sampler_uses_sparse_and_dense_paths_consistently():
    # n=32 exercises the per-slot path, n=128 the binomial block path; both
    # must hit the same mean density.
    for n in (32, 128):
        params = MlsbmParams(n=n, T=40, rho=0.1)
        graph = sample_planted(params, seed=99).graph
        density = graph.total_edges / (math.comb(n, 2) * 40)
        assert abs(density - 0.1) < 0.01


def test_conditional_per_slot_frequencies_match_edge_probability():
    # Monte-Carlo check of the conditional model: every slot's empirical
    # frequency over 1e5 seeded draws sits within 3 standard errors of its
    # Bernoulli parameter.
    n, T, rho = 4, 2, 0.3
    sigma_bits, tau_bits = (0, 1, 0, 1), (1, 0)
    samples = 100_000
    counts = np.zeros((T, n, n))
    for seed in range(samples):
        graph = sample_conditional(n, T, rho, sigma_bits, tau_bits, seed)
        for t, layer in enumerate(graph.layers):
            for i, j in layer:
                counts[t, i - 1, j - 1] += 1
    for t in range(T):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                p = edge_probability(
                    sigma_bits[i - 1], sigma_bits[j - 1], tau_bits[t], rho
                )
                se = math.sqrt(p * (1 - p) / samples)
                freq = counts[t, i - 1, j - 1] / samples
                assert abs(freq - p) <= 3 * se, (t, i, j, freq, p)


def test_planted_instance_dimensions_consistent():
    inst = sample_planted(MlsbmParams(n=8, T=4, rho=0.2), seed=1)
    assert inst.sigma.size == inst.graph.n == 8
    assert inst.tau.size == inst.graph.T == 4
    assert sum(inst.sigma.labels) == 4 and sum(inst.tau.labels) == 2


# ------------------------------------------------------------ graph container


def test_graph_rejects_malformed_layers():
    with pytest.raises(ValidationError):
        MultiLayerGraph(n=4, T=1, layers=[[(1, 1)]])  # self-loop
    with pytest.raises(ValidationError):
        MultiLayerGraph(n=4, T=1, layers=[[(1, 2), (1, 2)]])  # duplicate
    with pytest.raises(ValidationError):
        MultiLayerGraph(n=4, T=1, layers=[[(1, 5)]])  # out of range
    with pytest.raises(ValidationError):
        MultiLayerGraph(n=4, T=2, layers=[[(1, 2)]])  # layer count mismatch


def test_layer_slice_and_permute():
    g = MultiLayerGraph(n=4, T=3, layers=[[(1, 2)], [(3, 4)], [(1, 3), (2, 4)]])
    assert g.layer_slice(1, 3).layers[0].tolist() == [[3, 4]]
    permuted = g.permute_layers([2, 0, 1])
    assert permuted.layers[0].tolist() == [[1, 3], [2, 4]]
    assert permuted.total_edges == g.total_edges == 4
    with pytest.raises(ValidationError):
        g.permute_layers([0, 0, 1])
    with pytest.raises(ValidationError):
        g.layer_slice(2, 2)


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=25, deadline=None)
def test_layer_views_equal_validated_graphs_and_stay_read_only(seed, data):
    g = sample_planted(MlsbmParams(n=10, T=6, rho=0.4), seed=seed).graph
    order = data.draw(st.permutations(range(g.T)))
    start = data.draw(st.integers(0, g.T - 1))
    stop = data.draw(st.integers(start + 1, g.T))
    views = [
        (g.permute_layers(order), [g.layers[o].tolist() for o in order]),
        (g.layer_slice(start, stop), [layer.tolist() for layer in g.layers[start:stop]]),
    ]
    for view, layers in views:
        assert view == MultiLayerGraph(n=g.n, T=len(layers), layers=layers)
        assert view.T == len(view.layers)
        assert all(not layer.flags.writeable for layer in view.layers)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_sampled_graphs_satisfy_container_invariants(seed):
    inst = sample_planted(MlsbmParams(n=10, T=4, rho=0.4), seed=seed)
    for layer in inst.graph.layers:
        pairs = [tuple(edge) for edge in layer]
        assert len(pairs) == len(set(pairs))
        assert all(1 <= i < j <= 10 for i, j in pairs)


# ----------------------------------------------------------------- file I/O


def test_graph_file_round_trip_planted(tmp_path):
    inst = sample_planted(MlsbmParams(n=6, T=4, rho=0.3), seed=11)
    path = tmp_path / "graph.txt"
    write_graph(path, inst)
    got = read_graph(path)
    assert got.graph == inst.graph and got.sigma == inst.sigma and got.tau == inst.tau

    text = path.read_text()
    first = text.splitlines()[0]
    assert first == "mlsbm-edges v1 n=6 T=4"
    assert "sigma " in text and "tau " in text


def test_graph_file_round_trip_null(tmp_path):
    graph = sample_null(MlsbmParams(n=6, T=2, rho=0.3), seed=2)
    path = tmp_path / "null.txt"
    write_graph(path, graph)
    got = read_graph(path)
    assert isinstance(got, MultiLayerGraph) and got == graph


def test_graph_file_edges_sorted(tmp_path):
    inst = sample_planted(MlsbmParams(n=8, T=4, rho=0.4), seed=5)
    path = tmp_path / "sorted.txt"
    write_graph(path, inst)
    rows = [
        tuple(int(x) for x in line.split())
        for line in path.read_text().splitlines()
        if line and line[0].isdigit()
    ]
    assert rows == sorted(rows)


def test_read_graph_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not-a-graph v9 n=4 T=2\n")
    with pytest.raises(ValidationError):
        read_graph(path)

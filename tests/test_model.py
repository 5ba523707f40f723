import hashlib
import itertools
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlsbm import (
    Assignment,
    MlsbmParams,
    MultiLayerGraph,
    PlantedInstance,
    SizeGuardError,
    ValidationError,
    aggregate_signed,
    bias_adjusted_spectral,
    edge_probability,
    ldlr_upper_bound,
    oracle_tau_spectral,
    read_graph,
    run_gap_demo,
    sample_conditional,
    sample_null,
    sample_planted,
    substream,
    write_graph,
)
from mlsbm import model, seeding
from mlsbm.seeding import (
    _PCG64_MULT,
    MAX_SUBSTREAMS,
    _STATE_BLOCK,
    _bulk_substreams,
)

from conftest import assert_as_if_validated, balanced_assignments, traced_peak

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


RHO_ENTRY_POINTS = {
    "params": lambda rho: MlsbmParams(4, 2, rho),
    "gap-demo": lambda rho: run_gap_demo(8, 4, rho, 1),
    "upper-bound": lambda rho: ldlr_upper_bound(4, 2, rho, 1),
}


@pytest.mark.parametrize("rho", ["0.1", "abc", b"0.1", None, True])
@pytest.mark.parametrize("entry", RHO_ENTRY_POINTS)
def test_rho_of_a_non_number_type_is_refused(entry, rho):
    with pytest.raises(ValidationError, match="rho must be a real number"):
        RHO_ENTRY_POINTS[entry](rho)


def test_rho_accepts_numpy_floats():
    assert MlsbmParams(4, 2, np.float32(0.25)).rho == 0.25
    assert type(MlsbmParams(4, 2, np.float64(0.1)).rho) is float
    assert ldlr_upper_bound(4, 2, np.float64(0.01), 1) == ldlr_upper_bound(4, 2, 0.01, 1)


def test_assignment_must_be_balanced():
    with pytest.raises(ValidationError):
        Assignment((0, 0, 0, 1))
    with pytest.raises(ValidationError):
        Assignment((1,))  # odd length
    for labels in [(), (0, 2), ("a", "b"), None, (0, 1, 1, 1, 0, 0, 1, 1)]:
        with pytest.raises(ValidationError):
            Assignment(labels)
    assert Assignment((1, 0)).labels == (1, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Assignment([0.7, 1.2]),
        lambda: Assignment(np.array([0.9, 1.9, 0.1, 1.0])),
        lambda: sample_conditional(4, 2, 0.3, [0.5, 1.5, 0.2, 1.0], [1.9, 0.3], seed=1),
    ],
    ids=["list", "array", "conditional-sampler"],
)
def test_fractional_labels_are_refused_not_truncated(build):
    with pytest.raises(ValidationError, match="entries must all be 0 or 1$"):
        build()


def test_bitstrings_bools_numpy_integers_and_whole_floats_are_labels():
    for labels in ("0110", (False, True, True, False), np.array([0, 1, 1, 0], dtype=np.uint8),
                   (0.0, 1.0, 1.0, 0.0)):
        assert Assignment(labels) == Assignment((0, 1, 1, 0))


def test_assignment_array_is_one_read_only_int8_copy_of_the_labels(tmp_path):
    a = Assignment((1, 0, 0, 1))
    bits = a.as_array()
    assert bits.dtype == np.int8 and bits.tolist() == [1, 0, 0, 1]
    assert a.as_array() is bits and not bits.flags.writeable
    assert list(vars(a)) == ["_bits"]  # the array is all the labelling holds
    assert a.labels == (1, 0, 0, 1) and a.labels is not a.labels  # built on each read
    small = sample_planted(MlsbmParams(n=8, T=6, rho=0.1), seed=2)
    gap = model.sample_planted_empty(100, 40000, seed=2)
    for inst in (small, gap):
        for sampled in (inst.sigma, inst.tau):
            # Sampled labels skip the per-item re-check; they equal validated ones.
            assert_as_if_validated(sampled)
            assert sampled.as_array() is sampled.as_array()
            assert list(vars(sampled)) == ["_bits"]
        validated = PlantedInstance(
            inst.graph, Assignment(inst.sigma.labels), Assignment(inst.tau.labels)
        )
        write_graph(tmp_path / "sampled.edges", inst)
        write_graph(tmp_path / "validated.edges", validated)
        text = (tmp_path / "sampled.edges").read_bytes()
        assert text == (tmp_path / "validated.edges").read_bytes()
        footers = [f"{name} {''.join(map(str, labels.labels))}" for name, labels in
                   (("sigma", inst.sigma), ("tau", inst.tau))]
        assert text.decode("ascii").splitlines()[-2:] == footers
    assert gap.tau.size == 40000


def test_pickled_labellings_and_graphs_come_back_equal_and_read_only():
    labels = Assignment((0, 1, 1, 0))
    inst = sample_planted(MlsbmParams(n=8, T=4, rho=0.3), seed=3)
    sliced = inst.graph.layer_slice(1, 3)  # its table views the whole graph's
    got_labels, got_inst, got_sliced = pickle.loads(pickle.dumps((labels, inst, sliced)))
    assert (got_labels, got_inst, got_sliced) == (labels, inst, sliced)
    labellings = (got_labels, got_inst.sigma, got_inst.tau)
    assert [hash(a) for a in labellings] == [hash(a) for a in (labels, inst.sigma, inst.tau)]
    arrays = [a.as_array() for a in labellings]
    arrays += [array for g in (got_inst.graph, got_sliced) for array in (g.edges, g.layer_ids)]
    assert not any(array.flags.writeable for array in arrays)


@pytest.mark.parametrize(
    "n, T, message",
    [
        (4, -2, "T must be an even integer >= 2, got -2"),
        (4, 3, "T must be an even integer >= 2, got 3"),
        (True, 4, "n must be an integer, got True"),
        (4.0, 4, "n must be an integer, got 4.0"),
        (0, 4, "n must be an even integer >= 2, got 0"),
        (4, "4", "T must be an integer, got '4'"),
    ],
)
def test_the_empty_sampler_refuses_what_the_parameters_refuse(n, T, message):
    with pytest.raises(ValidationError) as empty:
        model.sample_planted_empty(n, T, seed=1)
    with pytest.raises(ValidationError) as params:
        MlsbmParams(n, T, 0.1)
    assert str(empty.value) == str(params.value) == message


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


# ------------------------------------------------------ balanced labellings


@pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
def test_balanced_rows_are_every_balanced_labelling_in_ascending_order(m):
    rows = model._balanced_rows(m)
    expected = [b for b in itertools.product((0, 1), repeat=m) if sum(b) == m // 2]
    assert rows.dtype == np.int8 and rows.shape == (len(expected), m)
    assert [tuple(r) for r in rows.tolist()] == expected
    assert [a.labels for a in balanced_assignments(m)] == expected


def test_balanced_rows_guards():
    with pytest.raises(ValidationError):
        model._balanced_rows(3)
    with pytest.raises(SizeGuardError):
        model._balanced_rows(22)


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


def test_conditional_sampler_refuses_label_lengths_that_miss_the_graph():
    for sigma_bits, tau_bits in (((0, 1, 0), (0, 1)), ((0, 1, 0, 1), (0, 1, 1))):
        with pytest.raises(ValidationError, match="^sigma_bits and tau_bits need lengths 4 and 2$"):
            sample_conditional(4, 2, 0.3, sigma_bits, tau_bits, seed=0)


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
        np.add.at(counts, (graph.layer_ids, graph.edges[:, 0] - 1, graph.edges[:, 1] - 1), 1)
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
    for n, T in ((True, 1), (4, True)):  # a bool is not a size
        with pytest.raises(ValidationError, match="must be an integer"):
            MultiLayerGraph(n=n, T=T, layers=[[(1, 2)]])


@pytest.mark.parametrize(
    "layers, message",
    [
        ([[(2, 1)], [(1, 9)]], "layer 1: edges must satisfy i < j"),
        ([[(1, 2)], [(2, 3), (1, 2), (1, 9)]], "layer 2: node indices must lie in"),
        ([[], [(1, 3), (1, 2)], [(0, 1)]], "layer 2: edges must be sorted"),
        ([[(1, 2)], [(1, 2)], [(3, 4), (3, 4)]], "layer 3: edges must be sorted"),
    ],
)
def test_the_table_validator_reports_the_first_faulty_layer(layers, message):
    # Range before self-loops before order within a layer, and the earliest
    # faulty layer first, whatever faults later layers hold.
    with pytest.raises(ValidationError, match=message):
        MultiLayerGraph(n=4, T=len(layers), layers=layers)


@pytest.mark.parametrize(
    "layers, message",
    [
        ([[(1, 9)], [], [(1, 2**70)]], "layer 1: node indices must lie in [1, 4]"),
        ([[(2, 1)], [(1, 2**70)]], "layer 1: edges must satisfy i < j (no self-loops)"),
        ([[(1, 3), (1, 2)], [(-(2**70), 2)]], "layer 1: edges must be sorted by (i, j)"),
        ([[(1, 2)], [], [(1, 2**70)]], "layer 3: node index outside the int64 range"),
    ],
    ids=["earlier-range", "earlier-self-loop", "earlier-unsorted", "lone-overflow"],
)
def test_constructor_and_reader_report_the_same_first_fault(tmp_path, layers, message):
    with pytest.raises(ValidationError) as built:
        MultiLayerGraph(n=4, T=len(layers), layers=layers)
    path = tmp_path / "faulty.edges"
    lines = [f"{t} {i} {j}" for t, layer in enumerate(layers, 1) for i, j in layer]
    path.write_text("\n".join([f"mlsbm-edges v1 n=4 T={len(layers)}", *lines]) + "\n")
    with pytest.raises(ValidationError) as read:
        read_graph(path)
    assert str(built.value) == str(read.value)
    assert str(built.value).startswith(message)


_LAYER_FAULTS = {
    "shape": ([1, 2, 3], "edge array must have shape (m, 2)"),
    "overflow": ([(1, 2**70)], "node index outside the int64 range"),
    "range": ([(1, 9)], "node indices must lie in [1, 4]"),
    "self-loop": ([(2, 1)], "edges must satisfy i < j (no self-loops)"),
    "order": ([(1, 3), (1, 2)], "edges must be sorted by (i, j) without duplicates"),
    "fraction": ([(1.5, 2.9)], "edges must be (i, j) pairs of whole-number node indices"),
    "text": ([("1.5", "2")], "edges must be (i, j) pairs of whole-number node indices"),
    "none": ([(None, 1)], "edges must be (i, j) pairs of whole-number node indices"),
}


@pytest.mark.parametrize("later", _LAYER_FAULTS)
@pytest.mark.parametrize("first", _LAYER_FAULTS)
def test_the_constructor_reports_the_first_faulty_layer_whatever_the_faults(first, later):
    layers = [[(1, 2)], _LAYER_FAULTS[first][0], [], _LAYER_FAULTS[later][0]]
    with pytest.raises(ValidationError) as raised:
        MultiLayerGraph(n=4, T=len(layers), layers=layers)
    assert str(raised.value) == f"layer 2: {_LAYER_FAULTS[first][1]}"


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


@pytest.mark.parametrize("view, message", [
    (lambda g: g.layer_slice(1, 2.5), "stop must be an integer >= 1, got 2.5"),
    (lambda g: g.layer_slice(0.5, 2), "start must be an integer >= 0, got 0.5"),
    (lambda g: g.layer_slice(1.0, 3), "start must be an integer >= 0, got 1.0"),
    (lambda g: g.layer_slice(0, True), "stop must be an integer >= 1, got True"),
    (lambda g: g.permute_layers([0.5, 1, 2, 3]), "each order entry must be an integer >= 0, got 0.5"),
    (lambda g: g.permute_layers(["0", "1", "2", "3"]),
     "each order entry must be an integer >= 0, got '0'"),
    (lambda g: g.permute_layers([True, False, 2, 3]),
     "each order entry must be an integer >= 0, got True"),
], ids=["fractional-stop", "fractional-start", "float-start", "bool-stop", "fractional-order",
        "text-order", "bool-order"])
def test_layer_positions_must_be_integers(view, message):
    # Truncated, these read as other layers: a slice (1, 2.5) held layers 1 and 2 at T = 1.
    g = sample_planted(MlsbmParams(8, 4, 0.3), seed=1).graph
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        view(g)


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
        assert_table_is_the_validators(view, MultiLayerGraph(n=g.n, T=len(layers), layers=layers))
        assert view.T == len(view.layers)
        assert all(not layer.flags.writeable for layer in view.layers)


def assert_table_is_the_validators(graph, validated):
    """graph's edge table and layer ids equal the public validator's, and are read-only."""
    assert graph == validated
    for got, want in ((graph.edges, validated.edges), (graph.layer_ids, validated.layer_ids)):
        assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
        assert not got.flags.writeable


def assert_container_invariants(graph, order, start, stop):
    """A graph built without validation, and its permuted and sliced tables,
    are what the public validator builds from the same layers."""
    layers = [layer.tolist() for layer in graph.layers]
    assert_table_is_the_validators(graph, MultiLayerGraph(graph.n, graph.T, layers))
    permuted = [layers[o] for o in order]
    assert_table_is_the_validators(
        graph.permute_layers(order), MultiLayerGraph(graph.n, graph.T, permuted)
    )
    assert_table_is_the_validators(
        graph.layer_slice(start, stop), MultiLayerGraph(graph.n, stop - start, layers[start:stop])
    )


@given(
    seed=st.integers(0, 10_000),
    n=st.sampled_from([10, 80]),  # the dense and the sparse path
    planted=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_sampled_graphs_satisfy_container_invariants(seed, n, planted):
    params = MlsbmParams(n=n, T=4, rho=0.4 if n < 64 else 0.05)
    graph = sample_planted(params, seed=seed).graph if planted else sample_null(params, seed)
    for layer in graph.layers:
        pairs = [tuple(edge) for edge in layer]
        assert len(pairs) == len(set(pairs))
        assert all(1 <= i < j <= n for i, j in pairs)
        assert not layer.flags.writeable
    assert_container_invariants(graph, [3, 2, 1, 0], 1, 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda params: sample_planted(params, seed=3).graph,
        lambda params: sample_null(params, seed=3),
        lambda params: model.sample_planted_empty(params.n, params.T, seed=3).graph,
    ],
    ids=["planted", "null", "gap-demo-rho-0"],
)
def test_screened_and_empty_graphs_across_a_substream_block_satisfy_container_invariants(make):
    # Most layers are screened as empty, and T crosses a 4096-layer block.
    params = MlsbmParams(n=100, T=_STATE_BLOCK + 904, rho=5e-5)
    graph = make(params)
    order = np.random.default_rng(0).permutation(params.T).tolist()
    assert_container_invariants(graph, order, 1, params.T - 1)


# ------------------------------------------------- per-layer reference sampler
#
# The sampler as it was before layer substreams were derived in bulk: one
# substream(seed, 2, t) constructed per layer, every per-instance quantity
# recomputed per layer, and the graph built through the validating
# constructor. The bulk sampler must reproduce it draw for draw.


def _reference_block(count, prob, gen):
    if count == 0:
        return np.empty(0, dtype=np.int64)
    k = int(gen.binomial(count, prob))
    if k == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(gen.choice(count, size=k, replace=False)).astype(np.int64)


def _reference_unrank(ranks, members):
    m = len(members)
    firsts = np.arange(m, dtype=np.int64)
    cum = firsts * (m - 1) - firsts * (firsts - 1) // 2
    a = np.searchsorted(cum, ranks, side="right") - 1
    b = ranks - cum[a] + a + 1
    return np.column_stack([members[a], members[b]])


def _reference_pairs(n):
    return np.array(list(itertools.combinations(range(1, n + 1), 2)), dtype=np.int64)


def _reference_planted_layer(n, rho, sigma, tau_bit, gen):
    p_within = 1.5 * rho if tau_bit == 0 else 0.5 * rho
    p_cross = 1.5 * rho if tau_bit == 1 else 0.5 * rho
    if n < 64:
        pairs = _reference_pairs(n)
        parity = (sigma[pairs[:, 0] - 1] + sigma[pairs[:, 1] - 1]) % 2
        return pairs[gen.random(len(pairs)) < np.where(parity == 0, p_within, p_cross)]
    zeros = np.flatnonzero(sigma == 0).astype(np.int64) + 1
    ones = np.flatnonzero(sigma == 1).astype(np.int64) + 1
    n0, n1 = len(zeros), len(ones)
    pairs0 = n0 * (n0 - 1) // 2
    ranks_within = _reference_block(pairs0 + n1 * (n1 - 1) // 2, p_within, gen)
    ranks_cross = _reference_block(n0 * n1, p_cross, gen)
    rows = [np.empty((0, 2), dtype=np.int64)]
    in0 = ranks_within < pairs0
    if in0.any():
        rows.append(_reference_unrank(ranks_within[in0], zeros))
    if (~in0).any():
        rows.append(_reference_unrank(ranks_within[~in0] - pairs0, ones))
    if len(ranks_cross):
        i, j = zeros[ranks_cross // n1], ones[ranks_cross % n1]
        rows.append(np.column_stack([np.minimum(i, j), np.maximum(i, j)]))
    edges = np.concatenate(rows)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def _reference_null_layer(n, rho, gen):
    if n < 64:
        pairs = _reference_pairs(n)
        return pairs[gen.random(len(pairs)) < rho]
    ranks = _reference_block(n * (n - 1) // 2, rho, gen)
    return _reference_unrank(ranks, np.arange(1, n + 1, dtype=np.int64))


def reference_sample_conditional(n, T, rho, sigma_bits, tau_bits, seed):
    sigma = np.array(sigma_bits, dtype=np.int8)
    layers = [
        _reference_planted_layer(n, rho, sigma, tau_bits[t], substream(seed, 2, t))
        for t in range(T)
    ]
    return MultiLayerGraph(n, T, layers)


def _reference_balanced(m, gen):
    labels = np.zeros(m, dtype=np.int8)
    labels[gen.permutation(m)[: m // 2]] = 1
    return Assignment(tuple(int(x) for x in labels))


def reference_sample_planted(params, seed):
    sigma = _reference_balanced(params.n, substream(seed, 0))
    tau = _reference_balanced(params.T, substream(seed, 1))
    graph = reference_sample_conditional(
        params.n, params.T, params.rho, sigma.labels, tau.labels, seed
    )
    return graph, sigma, tau


def reference_sample_null(params, seed):
    layers = [
        _reference_null_layer(params.n, params.rho, substream(seed, 2, t))
        for t in range(params.T)
    ]
    return MultiLayerGraph(params.n, params.T, layers)


SAMPLER_SEEDS = st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**130))


@pytest.mark.parametrize("sizes", [(2, 63), (64, 140)], ids=["dense", "sparse"])
@given(seed=SAMPLER_SEEDS, data=st.data())
@settings(max_examples=40, deadline=None)
def test_conditional_sampler_matches_per_layer_reference(sizes, seed, data):
    n = data.draw(st.integers(*sizes))
    T = data.draw(st.integers(1, 6))  # T = 1 and odd T are legal here
    rho = data.draw(st.floats(1e-4, 0.6))
    # Unbalanced labels too, down to a single community.
    sigma_bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    tau_bits = data.draw(st.lists(st.integers(0, 1), min_size=T, max_size=T))
    got = sample_conditional(n, T, rho, sigma_bits, tau_bits, seed)
    assert got == reference_sample_conditional(n, T, rho, sigma_bits, tau_bits, seed)
    assert all(not layer.flags.writeable for layer in got.layers)


@pytest.mark.parametrize("sizes", [(1, 31), (32, 70)], ids=["dense", "sparse"])
@given(seed=SAMPLER_SEEDS, data=st.data())
@settings(max_examples=30, deadline=None)
def test_planted_and_null_samplers_match_per_layer_reference(sizes, seed, data):
    params = MlsbmParams(
        n=2 * data.draw(st.integers(*sizes)),
        T=2 * data.draw(st.integers(1, 4)),
        rho=data.draw(st.floats(1e-4, 0.6)),
    )
    inst = sample_planted(params, seed)
    assert (inst.graph, inst.sigma, inst.tau) == reference_sample_planted(params, seed)
    assert sample_null(params, seed) == reference_sample_null(params, seed)


# Layers of exactly 128 edges: int8, the narrowest signed type that holds
# -128, cannot hold +128, so no edge count may be narrowed that way. Each
# case pins one such layer.
@pytest.mark.parametrize("seed", [59, 213, 260])
def test_null_layers_of_exactly_128_edges_match_per_layer_reference(seed):
    params = MlsbmParams(n=20, T=2, rho=0.6)
    got = sample_null(params, seed)
    assert int((got.layer_ids == 1).sum()) == 128
    assert got == reference_sample_null(params, seed)


def test_planted_layer_of_exactly_128_edges_matches_per_layer_reference():
    params = MlsbmParams(n=20, T=2, rho=0.6)
    inst = sample_planted(params, seed=146)
    assert int((inst.graph.layer_ids == 0).sum()) == 128
    assert (inst.graph, inst.sigma, inst.tau) == reference_sample_planted(params, 146)


def test_conditional_layer_of_exactly_128_edges_matches_per_layer_reference():
    sigma_bits = [int(i in (8, 27, 33, 37, 38)) for i in range(43)]
    got = sample_conditional(43, 1, 0.115234375, sigma_bits, (0,), seed=1)
    assert got.total_edges == 128
    assert got == reference_sample_conditional(43, 1, 0.115234375, sigma_bits, (0,), 1)


# Expected edges per example are capped so that rho near 0.6 stays quick.
_REGIME_EDGE_BUDGET = 150_000


@given(
    seed=SAMPLER_SEEDS,
    n=st.integers(64, 120),
    ones=st.integers(0, 120),
    T=st.integers(1, 5000),
    log_rho=st.floats(math.log(1e-6), math.log(0.6)),
)
# One example per regime: replayed empty layers across the 4096-layer block
# edge, inversion draws with edges, BTPE, p > 0.5, and one-community sigma
# (a zero-slot cross block) on either side.
@example(seed=3, n=100, ones=50, T=4500, log_rho=math.log(5e-5))
@example(seed=4, n=100, ones=50, T=200, log_rho=math.log(0.005))
@example(seed=5, n=100, ones=50, T=20, log_rho=math.log(0.05))
@example(seed=6, n=64, ones=32, T=6, log_rho=math.log(0.5))
@example(seed=7, n=100, ones=0, T=4200, log_rho=math.log(5e-5))
@example(seed=8, n=100, ones=100, T=300, log_rho=math.log(0.01))
# The sparse null cell at n = 64 in numpy's inversion branch.
@example(seed=9, n=64, ones=32, T=3000, log_rho=math.log(1e-4))
# One community, with many replayed one-slot layers.
@example(seed=10, n=100, ones=0, T=600, log_rho=math.log(2e-4))
# Many layers whose two blocks draw one slot each, across the block edge.
@example(seed=11, n=100, ones=50, T=4500, log_rho=math.log(4e-4))
# 1.5 rho > 0.5: numpy inverts 1 - p on the 63-slot cross block; no replay.
@example(seed=12, n=64, ones=63, T=4, log_rho=math.log(0.35))
@settings(max_examples=20, deadline=None)
def test_screened_sampler_matches_per_layer_reference_in_every_regime(seed, n, ones, T, log_rho):
    rho = math.exp(log_rho)
    T = max(1, min(T, int(_REGIME_EDGE_BUDGET / (math.comb(n, 2) * rho))))
    labels = np.random.default_rng(seed % 2**32)
    sigma_bits = np.zeros(n, dtype=int)
    sigma_bits[labels.permutation(n)[: min(ones, n)]] = 1
    tau_bits = labels.integers(0, 2, size=T).tolist()
    got = sample_conditional(n, T, rho, sigma_bits.tolist(), tau_bits, seed)
    assert got == reference_sample_conditional(n, T, rho, sigma_bits, tau_bits, seed)
    params = MlsbmParams(n=n - n % 2, T=T + T % 2, rho=rho)
    inst = sample_planted(params, seed)
    assert (inst.graph, inst.sigma, inst.tau) == reference_sample_planted(params, seed)
    assert sample_null(params, seed) == reference_sample_null(params, seed)


def _uint32_words(before, after):
    """uint32 words a draw took between two PCG64 states: two per output, net of the buffer."""
    state, inc = before["state"]["state"], before["state"]["inc"]
    for steps in range(1024):
        if state == after["state"]["state"]:
            return 2 * steps + before["has_uint32"] - after["has_uint32"]
        state = (state * _PCG64_MULT + inc) % 2**128
    raise AssertionError("the draw took more than 1024 PCG64 outputs")


def _numpy_layer(gen, counts, probs):
    """A layer's slot codes through numpy's own binomial and choice calls on gen.

    Returns the codes, the generator state after them, and every reason the
    replay must leave the layer to numpy: a block outside numpy's inversion
    branch (or with one slot), a double within the margin of a threshold
    the inversion compares it with, a restart of the inversion, or a
    rejected bounded draw.
    """
    bitgen = gen.bit_generator
    codes, reasons, offset = [], set(), 0
    for count, p in zip(counts, probs):
        if count:
            replayable = 1 < count < 2**32 and 0 < p <= 0.5 and p * count <= 30
            if not replayable:
                reasons.add("not replayable")
            before = bitgen.state
            peek = np.random.Generator(np.random.PCG64())
            peek.bit_generator.state = before
            k = int(gen.binomial(count, p))
            if replayable:
                if _uint32_words(before, bitgen.state) > 2:
                    reasons.add("restart")  # a second double
                # U against px(X) = P(k = X) for X = 0 .. k, as numpy compares them.
                u, q = peek.random(), 1.0 - p
                px = total = math.exp(count * math.log(q))
                for x in range(k + 1):
                    if abs(u - px) <= model._SCREEN_MARGIN * total:
                        reasons.add("margin")
                    u -= px
                    px = ((count - x) * p * px) / ((x + 1) * q)
                    total += px
            if k:
                before = bitgen.state
                codes += (gen.choice(count, size=k, replace=False) + offset).tolist()
                # Floyd's loop draws k words (none on [0, 0]), the shuffle k - 1.
                words = 2 * k - 1 - (k == count)
                if replayable and _uint32_words(before, bitgen.state) > words:
                    reasons.add("rejected")
        offset += count
    return codes, bitgen.state, reasons


def _layer_generators(seed, count):
    """The PCG64 states of `count` layers as _replay takes them, and one numpy generator per layer.

    seed is a substream seed (layer t draws from substream(seed, 2, t)) or a
    list of explicit (state, inc) pairs, for draws no seed search reaches.
    """
    if isinstance(seed, int):
        _, blocks = _bulk_substreams(seed, 2, count)
        return next(blocks)[1], [substream(seed, 2, t) for t in range(count)]
    halves = [(s >> 64, s & 2**64 - 1, inc >> 64, inc & 2**64 - 1) for s, inc in seed]
    gens = [np.random.Generator(np.random.PCG64()) for _ in seed]
    for gen, (state, inc) in zip(gens, seed):
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
    return tuple(np.array(half, dtype=np.uint64) for half in zip(*halves)), gens


REPLAY_COUNTS = st.one_of(
    st.integers(0, 3), st.integers(2, 10**5), st.integers(2**31 - 3, 2**32 + 3)
)
# Expected slots per block, p = mean / count (capped at 0.6): mostly k in {0, 1}.
REPLAY_MEANS = st.one_of(st.floats(1e-3, 2.0), st.floats(2.0, 40.0))


@given(
    seed=st.integers(0, 2**63 - 1),
    counts=st.lists(REPLAY_COUNTS, min_size=1, max_size=2),
    means=st.lists(REPLAY_MEANS, min_size=4, max_size=4),
    types=st.lists(st.integers(0, 1), min_size=1, max_size=6),
)
# Both blocks draw one slot: the second reads the first's buffered high word.
@example(seed=5, counts=[4950, 4950], means=[1.0] * 4, types=[0])
# count just above 2**31: half of all bounded draws are rejected, this one too.
@example(seed=5, counts=[2**31 + 1], means=[1.0] * 4, types=[0])
# p * count = 30 exactly is still numpy's inversion branch (and draws k >= 2).
@example(seed=1, counts=[2**20], means=[30.0] * 4, types=[0, 1])
# The first double lies within the margin of qn.
@example(seed=0, counts=[4950], means=[1.3267069996139969] * 4, types=[0])
# count = 1 is never replayed; a zero-slot block draws nothing.
@example(seed=2, counts=[1, 4950], means=[0.5] * 4, types=[0, 1])
@example(seed=3, counts=[0, 4950], means=[0.5] * 4, types=[1, 0, 1])
# Floyd's draw on [0, 3] repeats a value already chosen, so it takes 3 instead.
@example(seed=1, counts=[6], means=[2.5] * 4, types=[0])
# Blocks of 2 and 4 slots, at the gap cell's block sizes.
@example(seed=3, counts=[2450, 2500], means=[3.0] * 4, types=[0])
# The double lies within the margin of the third threshold, P(k <= 2).
@example(seed=0, counts=[4950], means=[3.8216678089010054] * 4, types=[0])
# k = 3, and the shuffle's draw on [0, 2] reads the word 0, which Lemire
# rejects (probability 2**-32, hence an explicit generator state).
@example(
    seed=[(0xB0726B7D46F723F331339C7FE6DB42, 0x5D9DC9F81818E811892F902BD23F0825)],
    counts=[4950],
    means=[3.0] * 4,
    types=[0],
)
# Every slot of a block of count 2: Floyd's first draw is on [0, 0] and reads no word.
@example(seed=0, counts=[2], means=[1.0] * 4, types=[0, 0, 0, 0, 0, 0])
@settings(max_examples=300, deadline=None)
def test_replay_makes_numpys_binomial_and_choice_draws(seed, counts, means, types):
    probs = [
        [min(0.6, mean / count) if count else 0.25 for mean, count in zip(means[2 * kind :], counts)]
        for kind in (0, 1)
    ]
    plan = model._replay_plan(counts, probs)
    states, gens = _layer_generators(seed, len(types))
    replay = plan and model._replay(states, np.array(types), plan)
    for t, (kind, gen) in enumerate(zip(types, gens)):
        codes, state, reasons = _numpy_layer(gen, counts, probs[kind])
        if plan is None:  # no layer type replays
            assert "not replayable" in reasons
            continue
        assert bool(replay.to_numpy[t]) == bool(reasons), reasons
        if not reasons:
            got = replay.codes[t]
            assert got[got >= 0].tolist() == codes
            assert replay.words.state(t) == state
    if plan is None:
        return
    # The sampler's first pass replays at most one slot per block and defers
    # the rest; what it does replay, it replays as the full replay does.
    first = model._replay(states, np.array(types), plan, most=1)
    assert not (first.to_numpy & first.deferred).any()
    assert (replay.to_numpy | (replay.largest >= 2))[first.deferred].all()
    kept = ~first.deferred
    assert (first.largest[kept] <= 1).all()
    assert np.array_equal(first.to_numpy[kept], replay.to_numpy[kept])
    for name in ("outputs", "has_uint32", "uinteger"):
        assert np.array_equal(getattr(first.words, name)[kept], getattr(replay.words, name)[kept])
    for row, full in zip(first.codes[kept & ~first.to_numpy], replay.codes[kept & ~first.to_numpy]):
        assert row[row >= 0].tolist() == full[full >= 0].tolist()


def _record_numpy_layers(monkeypatch):
    """The layer index of every draw the block samplers make through numpy, probes included."""
    drawn, block_sampler = [], model._block_sampler

    def recording(*args):
        sampler = block_sampler(*args)

        def draw(t, gen, codes):
            drawn.append(t)
            sampler.draw(t, gen, codes)

        return sampler._replace(draw=draw)

    monkeypatch.setattr(model, "_block_sampler", recording)
    return drawn


def test_only_layers_the_replay_cannot_draw_reach_numpy(monkeypatch):
    drawn = _record_numpy_layers(monkeypatch)
    params = MlsbmParams(n=100, T=_STATE_BLOCK + 904, rho=5e-5)
    inst = sample_planted(params, seed=1)
    sigma, tau = inst.sigma.as_array(), inst.tau.as_array()
    n1 = int(sigma.sum())
    n0 = params.n - n1
    within = (1.5 * params.rho, 0.5 * params.rho)
    planted = (
        inst.graph,
        (n0 * (n0 - 1) // 2 + n1 * (n1 - 1) // 2, n0 * n1),
        [(within[bit], within[1 - bit]) for bit in tau],
        lambda rows: [
            sum(sigma[i - 1] == sigma[j - 1] for i, j in rows),
            sum(sigma[i - 1] != sigma[j - 1] for i, j in rows),
        ],
    )
    drawn_planted = drawn[:]
    drawn.clear()
    null = (
        sample_null(params, seed=1),
        (math.comb(params.n, 2),),
        [(params.rho,)] * params.T,
        lambda rows: [len(rows)],
    )
    for got, (graph, counts, probs, block_sizes) in zip((drawn_planted, drawn[:]), (planted, null)):
        reasons = [
            _numpy_layer(substream(1, 2, t), counts, probs[t])[2] for t in range(params.T)
        ]
        # Only a margin hit, a restart or a rejected draw sends a layer to numpy.
        routed = {t for t in range(params.T) if reasons[t]}
        largest = [min(2, max(block_sizes(layer))) for layer in graph.layers]
        # Plus the call's three probes: its first replayed layers whose
        # largest block draws 0, 1, and 2 or more slots.
        probes = [
            next(t for t in range(params.T) if t not in routed and largest[t] == c)
            for c in range(3)
        ]
        assert sorted(got) == sorted(routed | set(probes))
        assert len(got) == len(routed) + 3 <= 10


def test_at_most_ten_layers_of_the_gap_cell_reach_numpy(monkeypatch):
    drawn = _record_numpy_layers(monkeypatch)
    params = MlsbmParams(n=100, T=40_000, rho=5e-5)
    for seed in range(3):
        drawn.clear()
        graph = sample_planted(params, seed).graph
        assert 3 <= len(drawn) <= 10  # the three probes, and what the replay refuses
        assert len(set(drawn)) == len(drawn)
        # Hundreds of layers hold two or more edges; all but those above are replayed.
        assert np.sum(np.bincount(graph.layer_ids, minlength=params.T) >= 2) > 500


def test_a_first_replay_pass_never_grows_its_table(monkeypatch):
    depths, derive = [], seeding._Words._derive

    def recording(words, depth):
        depths.append(depth)
        derive(words, depth)

    monkeypatch.setattr(seeding._Words, "_derive", recording)
    params = MlsbmParams(n=100, T=40_000, rho=5e-5)
    blocks = -(-params.T // _STATE_BLOCK)
    # A layer with at most one slot per block reads a double per block and a
    # fresh word per two one-slot blocks: 3 outputs for the planted model's
    # two blocks, 2 for the null model's one. Each state block's first pass
    # derives one such table; the deferred pass starts there and grows.
    for sample, depth in ((sample_planted, 3), (sample_null, 2)):
        depths.clear()
        sample(params, seed=1)
        assert depths[:blocks] == [depth] * blocks
        assert depths[blocks] == depth and len(depths) > blocks + 1


def _words_changed(name, change):
    """A corruption of the replay's generator record: its `name` array goes through change."""

    def corrupt(replay):
        setattr(replay.words, name, change(getattr(replay.words, name)))
        return replay

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r._replace(codes=np.where(r.codes >= 0, r.codes + 1, -1)),
        _words_changed("outputs", lambda outputs: outputs + 1),
        _words_changed("has_uint32", lambda has_uint32: ~has_uint32),
        _words_changed("uinteger", lambda uinteger: uinteger ^ np.uint64(1)),
        # Only the layers with a block of two or more slots, which only the
        # call's third probe draws.
        lambda r: r._replace(
            codes=np.where((r.largest >= 2)[:, None] & (r.codes >= 0), r.codes + 1, r.codes)
        ),
    ],
    ids=["slot", "outputs", "has_uint32", "uinteger", "multi-slot"],
)
def test_a_corrupted_replay_raises(monkeypatch, corrupt):
    replay = model._replay
    monkeypatch.setattr(model, "_replay", lambda *args: corrupt(replay(*args)))
    params = MlsbmParams(n=100, T=4000, rho=5e-5)
    with pytest.raises(RuntimeError, match="than its replay"):
        sample_planted(params, seed=1)
    with pytest.raises(RuntimeError, match="than its replay"):
        sample_null(params, seed=1)


def test_a_corrupted_inversion_threshold_raises(monkeypatch):
    # qn = 1 replays every layer as empty, so the probe draws layer 0
    # through numpy and finds edges.
    plan = model._replay_plan
    monkeypatch.setattr(
        model, "_replay_plan", lambda *args: plan(*args)._replace(qn=np.ones_like(plan(*args).qn))
    )
    params = MlsbmParams(n=100, T=8, rho=0.005)
    with pytest.raises(RuntimeError, match="layer 1 drew differently"):
        sample_planted(params, seed=1)
    with pytest.raises(RuntimeError, match="layer 1 drew differently"):
        sample_null(params, seed=1)


@pytest.mark.parametrize("T", [1, 2], ids=["one-key", "lexsort"])
def test_sampled_rows_sort_by_layer_and_pair_on_both_sides_of_the_key_bound(monkeypatch, T):
    n = math.isqrt(2**63 - 1)  # T * n**2 < 2**63 only for T = 1
    lexsorts, lexsort = [], np.lexsort

    def counting(keys):
        lexsorts.append(len(keys))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", counting)
    layer = [(n - 1, n), (1, n), (2, 3), (1, 2), (n - 2, n - 1)]
    edges = np.array(layer * T, dtype=np.int64)
    graph = model._graph_from_edges(n, T, edges, np.repeat(np.arange(T), len(layer)))
    assert graph == MultiLayerGraph(n, T, [sorted(layer)] * T)
    assert lexsorts == [3] * (T - 1)


class _RecordingGenerator:
    """Forwards the sampler's binomial and choice calls to gen, recording each; no other draw."""

    def __init__(self, gen):
        self.gen, self.calls = gen, []

    @property
    def bit_generator(self):
        return self.gen.bit_generator

    def binomial(self, count, prob):
        k = self.gen.binomial(count, prob)
        self.calls.append(("binomial", int(k)))
        return k

    def choice(self, count, size, replace):
        self.calls.append(("choice", size))
        return self.gen.choice(count, size=size, replace=replace)


def _record_layer_generators(monkeypatch):
    made, bulk = [], model._bulk_substreams

    def recording(seed, tag, count):
        gen, blocks = bulk(seed, tag, count)
        made.append(_RecordingGenerator(gen))
        return made[-1], blocks

    monkeypatch.setattr(model, "_bulk_substreams", recording)
    return made


def test_layers_drawn_through_numpy_make_the_reference_samplers_calls(monkeypatch):
    made = _record_layer_generators(monkeypatch)
    drawn = _record_numpy_layers(monkeypatch)
    params = MlsbmParams(n=100, T=4000, rho=5e-5)
    inst = sample_planted(params, seed=1)
    planted_layers = len(drawn)
    null = sample_null(params, seed=1)
    assert (inst.graph, inst.sigma, inst.tau) == reference_sample_planted(params, 1)
    assert null == reference_sample_null(params, 1)
    # Layers drawn through numpy: the ones the replay leaves, and the probes.
    # Each makes one binomial per non-empty block (two planted, one null),
    # then a choice of k slots when k >= 1; the generator has no other draw.
    for gen, layers, blocks in zip(made, (planted_layers, len(drawn) - planted_layers), (2, 1)):
        calls = iter(gen.calls)
        for name, k in calls:
            assert name == "binomial"
            if k:
                assert next(calls) == ("choice", k)
        assert sum(name == "binomial" for name, _ in gen.calls) == layers * blocks
        assert ("choice", 1) in gen.calls


def test_gap_cell_sample_peaks_under_its_measured_bound():
    # The gap cell derives 40,000 layer substreams in ten state blocks, and
    # the peak sits in the last block's replay. With tau held as one 40 KB
    # int8 array (no 320 KB label tuple) and each drawn code's layer kept as
    # a uint32 tag, it reads 883 KB (it was 1,291 KB).
    params = MlsbmParams(n=100, T=40000, rho=5e-5)
    sample_planted(params, seed=1)
    assert traced_peak(lambda: sample_planted(params, seed=2)) < 980 * 1024


def test_gap_cell_labels_peak_under_their_measured_bound():
    # Two permutations and two int8 label arrays: 353 KB (667 KB when tau was
    # also a tuple, built through a list).
    model.sample_planted_empty(100, 40000, seed=1)
    assert traced_peak(lambda: model.sample_planted_empty(100, 40000, seed=2)) < 390 * 1024


def test_gap_cell_signed_sum_and_unit_peak_under_their_measured_bounds():
    # Each edge is signed from its layer's tau bit: no T-sized float64 weight
    # vector. aggregate_signed reads 577 KB (940 KB with the weights) and a
    # whole gap unit, sample then both spectral methods, 888 KB (1,526 KB).
    params = MlsbmParams(n=100, T=40000, rho=5e-5)
    inst = sample_planted(params, seed=2)
    aggregate_signed(inst.graph, inst.tau)
    assert traced_peak(lambda: aggregate_signed(inst.graph, inst.tau)) < 635 * 1024

    def unit():
        unit_inst = sample_planted(params, seed=3)
        oracle_tau_spectral(unit_inst.graph, unit_inst.tau)
        bias_adjusted_spectral(unit_inst.graph)

    assert traced_peak(unit) < 1100 * 1024


def test_detect_cell_samplers_peak_under_their_measured_bounds():
    # No layer type replays at (200, 64, 0.0075). The peak sits in decode:
    # _unrank_within's temporaries beside the codes and each code's uint32
    # layer tag. Over seeds 1-3, sample_planted reads 546-557 KB and
    # sample_null 571-578 KB, about 2.5x the graph they return.
    params = MlsbmParams(n=200, T=64, rho=0.0075)
    for sample, bound in ((sample_planted, 615), (sample_null, 640)):
        sample(params, seed=0)
        for seed in (1, 2, 3):
            assert traced_peak(lambda: sample(params, seed)) < bound * 1024


def test_more_than_two_to_the_32_layers_are_refused_before_allocating():
    params = MlsbmParams(n=100, T=MAX_SUBSTREAMS + 2, rho=0.01)
    tracemalloc.start()
    try:
        # tau alone would be a permutation of 2**32 items (34 GB)
        with pytest.raises(SizeGuardError):
            sample_planted(params, seed=1)
        with pytest.raises(SizeGuardError):
            sample_null(params, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_more_than_two_to_the_32_nodes_are_refused_before_allocating():
    params = MlsbmParams(n=2**40, T=2, rho=1e-13)
    tracemalloc.start()
    try:
        # sigma alone would be a permutation of 2**40 items (8 TiB)
        with pytest.raises(SizeGuardError, match="node counts are capped"):
            sample_planted(params, seed=1)
        with pytest.raises(SizeGuardError, match="node counts are capped"):
            sample_null(params, seed=1)
        with pytest.raises(SizeGuardError, match="node counts are capped"):
            model.sample_planted_empty(MAX_SUBSTREAMS + 2, 2, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


# sha256 of edges + layer_ids of sample_planted and sample_null, recorded
# while every layer with a block of two or more slots was drawn through
# numpy, so their replay must match numpy bit for bit. The golden studies
# only reach the dense sampler (n < 64).
SAMPLED_GRAPH_HASHES = {
    ((100, 40000, 5e-05), 0): (
        "5b1eccefc7c88e37dbe021fc6a1212cceaecb179adaf30bff41de683c20315fb",
        "cb1c5cac58f504ddb2a2b7860663d35805a0f91607e01d7d5ea5985dd73185ed",
    ),
    ((100, 40000, 5e-05), 1): (
        "95383fa9b2ca6240e817feb158aaaa37d6e5ecc90ac7fbca9e496a1df82deb0b",
        "667ee409c9af625e1659bee8fbb3aaf40b9ba862d5442ab6cfc7e4282e6bf85b",
    ),
    ((100, 40000, 5e-05), 2): (
        "581c9c6017a16836433bd78ccbe3e7b4651b893a22ff23f406e6874d22bf88dd",
        "999c6b2952dcd13b9e584c9845f1ac8d91cf4b155c503284b56ee74fc4c66749",
    ),
    ((100, 4000, 0.0005), 0): (
        "9b48438e3fc4f89e1a7e5e1f7954892b9980d84a2c7dae1afd15e049689f13e0",
        "97565a15c06cdbebc58f8058194aa65e46b5de6cdb4cd178cef4c6b5e76caedf",
    ),
    ((100, 4000, 0.0005), 1): (
        "00bc6b63168c3ae005f15c6c48d0cc264f6995b330a61d7d32a3a8c042339adc",
        "9ff041c7c5fc974a3be61094b396a3dad79e4a1a89e4ffd891ff79c6bdbf085a",
    ),
    ((100, 4000, 0.0005), 2): (
        "eadb6f2d15aa351a1c78830b4c76cffc23f4147e8c7ce2f905f1ff1b6a4dac24",
        "bc0e4e01ddcb910499bf27cd213867e0bc61128228834d34cfcb584576f9bfed",
    ),
    ((128, 8198, 0.001), 0): (
        "6d358ecc713a39efa73e1c6c37cd059ad41c9f4e75354c9339253667e0137c66",
        "223cb672710ee523ed52efefc809d6e4383d0853bab3dc6941ba063819c12e42",
    ),
    ((128, 8198, 0.001), 1): (
        "17272de55d6321a3aa85bd803317e7b4281228263d89c5899dbe5613991a4fd7",
        "dcf16e923765897bed11190ced8ed0e3b90ec1ab6a19dc675ae80c7c37c4404c",
    ),
    ((128, 8198, 0.001), 2): (
        "b6ac316bfbf4245a1a79f8739e7409a0341d0808674009146e1621826164fdae",
        "ff9f4768cb0edc8a32594ede1cac74a90a848f38ce60c3b6a2f628277412b7b7",
    ),
    ((200, 64, 0.0075), 0): (
        "474ff13de2ff448dee9e5f58e541f44d8b9da3083796d6dacb1a958dc0a4d9d0",
        "7422b10947c0a38a97df20697a3b6c3d0cccfe57990257ab136895813b184691",
    ),
    ((200, 64, 0.0075), 1): (
        "96f66e13887d41461de67081cd1db55d49a4a582fa6f27723eda9792ad6aeeac",
        "ef5bb194a759b2bfcdc2fd86fd5ee120d09d42b8b8c451f3dce882dfec440269",
    ),
    ((200, 64, 0.0075), 2): (
        "31220a3cc907c064c7cddb8ce51af8d03d65dc594991263a8c62688fca9e7b35",
        "84f7f8603538df476024fc7400ac9817adba508e09792f88975a6c911e3a0c12",
    ),
    ((256, 8, 0.01), 0): (
        "f99b4c90d63777b370f76c26127197e47b55974adff1d617e12290101063da51",
        "b186ef438f3ed51be5c9385246befc070924f00c01cf8233171991204ba0c950",
    ),
    ((256, 8, 0.01), 1): (
        "a9ae2cf43982fb963f736aa84e7478d53fec2aa22ea0270c3421ef83a624b2eb",
        "6baf68ac67d54c0d920bc44dd085a13dbed7ab1137b34bccdbc5c3c209888e21",
    ),
    ((256, 8, 0.01), 2): (
        "01d048a0c380290a19e0ecacfba64383d262b4e7c16fe574f6d6a9b342918c1f",
        "27ff68c12f0b104836a31e66f86f3a9f5ee2f60842d1b6084513484c9da738bb",
    ),
}


@pytest.mark.parametrize("cell, seed", list(SAMPLED_GRAPH_HASHES), ids=str)
def test_sampled_graphs_are_the_pinned_graphs(cell, seed):
    params = MlsbmParams(*cell)

    def digest(graph):
        return hashlib.sha256(graph.edges.tobytes() + graph.layer_ids.tobytes()).hexdigest()

    planted, null = SAMPLED_GRAPH_HASHES[cell, seed]
    assert digest(sample_planted(params, seed).graph) == planted
    assert digest(sample_null(params, seed)) == null


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


def test_write_graph_bytes_with_empty_first_middle_and_last_layers(tmp_path):
    layers = [[], [(1, 2), (3, 4)], [], [(1, 3)], [(2, 4), (3, 4)], []]
    graph = MultiLayerGraph(n=4, T=6, layers=layers)
    sigma, tau = Assignment((0, 0, 1, 1)), Assignment((0, 1, 0, 1, 1, 0))
    path = tmp_path / "planted.txt"
    write_graph(path, PlantedInstance(graph, sigma, tau))
    assert path.read_bytes() == (
        b"mlsbm-edges v1 n=4 T=6\n"
        b"2 1 2\n2 3 4\n4 1 3\n5 2 4\n5 3 4\n"
        b"sigma 0011\ntau 010110\n"
    )
    assert read_graph(path) == PlantedInstance(graph, sigma, tau)


def test_planted_labels_off_the_graph_are_refused_before_any_file_is_written(tmp_path):
    graph = MultiLayerGraph(n=4, T=2, layers=[[(1, 2)], []])
    path = tmp_path / "planted.txt"
    sigma, tau = Assignment((0, 0, 1, 1)), Assignment((0, 1))
    for labels, message in (((tau, tau), "^sigma has 2 labels but the graph has 4 nodes$"),
                            ((sigma, sigma), "^tau has 4 labels but the graph has 2 layers$")):
        with pytest.raises(ValidationError, match=message):
            write_graph(path, PlantedInstance(graph, *labels))
    assert not path.exists()


@pytest.mark.parametrize("T", [10**12, MAX_SUBSTREAMS + 1])
def test_read_graph_refuses_more_than_two_to_the_32_layers_before_reading_edges(tmp_path, T):
    path = tmp_path / "huge.txt"
    path.write_text(f"mlsbm-edges v1 n=4 T={T}\n1 1 2\n")
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            read_graph(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_read_graph_at_the_layer_cap_allocates_per_edge_not_per_layer(tmp_path, monkeypatch):
    path = tmp_path / "cap.txt"
    path.write_text(f"mlsbm-edges v1 n=4 T={MAX_SUBSTREAMS}\n{MAX_SUBSTREAMS} 1 2\n")

    def refuse(graph):
        raise AssertionError("read_graph built the per-layer views")

    monkeypatch.setattr(MultiLayerGraph, "layers", property(refuse))
    tracemalloc.start()
    try:
        graph = read_graph(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert graph.T == MAX_SUBSTREAMS and graph.total_edges == 1
    assert graph.edges.tolist() == [[1, 2]] and graph.layer_ids.tolist() == [MAX_SUBSTREAMS - 1]


def test_read_graph_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not-a-graph v9 n=4 T=2\n")
    with pytest.raises(ValidationError):
        read_graph(path)


def test_read_graph_refuses_non_ascii_bytes_and_int64_overflow(tmp_path):
    path = tmp_path / "bad.txt"
    for body in (b"1 1 2\xe9\n", b"1 1 99999999999999999999\n", b"1 -99999999999999999999 2\n"):
        path.write_bytes(b"mlsbm-edges v1 n=4 T=2\n" + body)
        with pytest.raises(ValidationError):
            read_graph(path)
    # An overflow is reported after an earlier layer's fault, as before.
    path.write_bytes(b"mlsbm-edges v1 n=4 T=2\n1 2 1\n2 1 99999999999999999999\n")
    with pytest.raises(ValidationError, match="layer 1: edges must satisfy i < j"):
        read_graph(path)
    path.write_bytes(b"mlsbm-edges v1 n=4 T=2\n1 1 2\n2 1 99999999999999999999\n")
    with pytest.raises(ValidationError, match="layer 2: node index outside the int64 range"):
        read_graph(path)


def test_read_graph_refuses_a_repeated_footer(tmp_path):
    path = tmp_path / "twice.txt"
    for footers, name in (("sigma 0011\ntau 01\nsigma 0101\n", "sigma"),
                          ("sigma 0011\ntau 01\ntau 10\n", "tau")):
        path.write_text("mlsbm-edges v1 n=4 T=2\n1 1 2\n" + footers)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: repeated {name} footer$"):
            read_graph(path)


# Small headers keep each example quick; large T is refused or read in
# O(E) memory (tests above), so these headers are not about memory.
HEADERS = st.builds(
    "mlsbm-edges v1 n={} T={}".format,
    st.sampled_from(["6", "1", "0", "-6", "2", "99999999999999999999", "6x", ""]),
    st.sampled_from(["4", "1", "0", "-1", "3", "x", ""]),
).map(str.encode)
TOKENS = st.sampled_from(
    [b" ", b"\n", b"0", b"1", b"7", b"-1", b"99999999999999999999", b"sigma", b"tau",
     b"1_0", b"0x1", b"\xff", b"\xc3\xa9", b"\x00", b"\t", b"\x0c", b"\x1c", b"\r"]
)


@given(header=HEADERS, seed=st.integers(0, 50), data=st.data())
@settings(max_examples=300, deadline=None)
def test_read_graph_on_mutated_files_raises_only_validation_errors(
    tmp_path_factory, header, seed, data
):
    path = tmp_path_factory.mktemp("fuzz") / "graph.txt"
    write_graph(path, sample_planted(MlsbmParams(n=6, T=4, rho=0.3), seed=seed))
    body = bytearray(path.read_bytes().split(b"\n", 1)[1])
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(body)))
        kind = data.draw(st.sampled_from(["insert", "replace", "delete"]))
        if kind == "delete":
            del body[at:at + data.draw(st.integers(1, 8))]
        elif kind == "replace" and at < len(body):
            body[at] = data.draw(st.integers(0, 255))
        else:
            body[at:at] = data.draw(TOKENS)
    path.write_bytes(header + b"\n" + bytes(body))
    try:
        got = read_graph(path)
    except ValidationError:
        return
    graph = got.graph if isinstance(got, PlantedInstance) else got
    assert graph == MultiLayerGraph(graph.n, graph.T, [layer.tolist() for layer in graph.layers])


@pytest.mark.parametrize("text", ["", "012"])
def test_from_bitstring_refuses_an_empty_or_non_binary_string(text):
    with pytest.raises(ValidationError, match=r"^bitstring must be non-empty over \{0,1\}, got "):
        Assignment.from_bitstring(text)


def test_edge_probability_refuses_a_non_bit_label():
    with pytest.raises(ValidationError, match="^tau_t must be 0 or 1, got 2"):
        edge_probability(0, 1, 2, 0.1)

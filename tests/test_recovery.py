import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlsbm import (
    Assignment,
    MlsbmParams,
    MultiLayerGraph,
    SizeGuardError,
    ValidationError,
    aggregate_bias_adjusted,
    aggregate_layer_sum,
    aggregate_signed,
    aggregate_sum_spectral,
    balanced_rounding,
    bias_adjusted_spectral,
    default_start_battery,
    edge_probability,
    hamming_loss,
    mle_exhaustive,
    mle_local_search,
    mle_local_search_multistart,
    mle_objective,
    oracle_tau_spectral,
    sample_conditional,
    sample_null,
    sample_planted,
    top_two_eigenpairs,
)
from mlsbm import recovery
from mlsbm.experiments import RECOVERY_RUNNERS
from mlsbm.model import _balanced_rows, _from_table
from mlsbm.recovery import _edge_arrays, _tau_for_sigma, to_json_record

from conftest import (
    assert_as_if_validated,
    balanced_assignments,
    fresh,
    parity_even_graph,
    peak_while_refusing,
)


def empty_graph(n, T):
    return MultiLayerGraph(n=n, T=T, layers=[[] for _ in range(T)])


# ------------------------------------------------------------- mle_objective


def test_objective_empty_graph_is_zero(six_edge_instance):
    _, sigma, tau = six_edge_instance
    assert mle_objective(empty_graph(4, 2), sigma, tau) == 0


def test_objective_counts_parity_even_edges(six_edge_instance):
    graph, sigma, tau = six_edge_instance
    assert mle_objective(graph, sigma, tau) == 6
    assert mle_objective(graph, sigma, tau.flipped()) == 0


def test_objective_dimension_mismatch(six_edge_instance):
    graph, sigma, _ = six_edge_instance
    with pytest.raises(ValidationError):
        mle_objective(graph, sigma, Assignment((0, 1, 0, 1)))


@given(seed=st.integers(0, 500), si=st.integers(0, 5), ti=st.integers(0, 1))
@settings(max_examples=30, deadline=None)
def test_objective_parity_complement_and_flip(seed, si, ti):
    inst = sample_planted(MlsbmParams(n=4, T=2, rho=0.4), seed=seed)
    sigma = balanced_assignments(4)[si]
    tau = balanced_assignments(2)[ti]
    total = inst.graph.total_edges
    assert mle_objective(inst.graph, sigma, tau) + mle_objective(
        inst.graph, sigma, tau.flipped()
    ) == total
    assert mle_objective(inst.graph, sigma, tau) == mle_objective(
        inst.graph, sigma.flipped(), tau
    )


# ------------------------------------------------------------ mle_exhaustive


def test_exhaustive_recovers_noiseless_fixture(six_edge_instance):
    graph, sigma, _ = six_edge_instance
    result = mle_exhaustive(graph)
    assert result.objective == 6
    assert hamming_loss(result.sigma_hat, sigma).value == 0.0


def test_exhaustive_empty_graph_ties_to_first_candidate():
    result = mle_exhaustive(empty_graph(4, 2))
    assert result.objective == 0
    assert result.sigma_hat.labels[0] == 0  # only sigma with sigma_1 = 0 are searched
    assert result.sigma_hat == balanced_assignments(4)[0]


def test_exhaustive_complete_tensor_objective_constant():
    layers = [[(i, j) for i in range(1, 5) for j in range(i + 1, 5)]] * 2
    graph = MultiLayerGraph(n=4, T=2, layers=layers)
    values = {
        mle_objective(graph, sigma, tau)
        for sigma in balanced_assignments(4)
        for tau in balanced_assignments(2)
    }
    assert values == {6}
    assert mle_exhaustive(graph).objective == 6


@given(seed=st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_exhaustive_dominates_planted_truth(seed):
    inst = sample_planted(MlsbmParams(n=6, T=4, rho=0.3), seed=seed)
    best = mle_exhaustive(inst.graph)
    assert best.objective >= mle_objective(inst.graph, inst.sigma, inst.tau)


def test_exhaustive_size_guard():
    with pytest.raises(SizeGuardError):
        mle_exhaustive(empty_graph(22, 2))


def reference_exhaustive(graph):
    """Every balanced (sigma, tau) pair scored at once, against an E x T one-hot matrix.

    The oracle for mle_exhaustive, which enumerates sigma alone and takes tau
    from the balanced per-layer margin rule. Ties break by enumeration order,
    sigma-major, and sigma_hat is flipped to start with 0 (flipping sigma keeps
    every pair parity).
    """
    n, T = graph.n, graph.T
    sigmas = balanced_assignments(n)
    taus = balanced_assignments(T)
    tau_mat = np.array([a.labels for a in taus], dtype=np.int64)
    e_i, e_j, e_t = _edge_arrays(graph)
    layer_totals = np.bincount(e_t, minlength=T).astype(np.int64)
    onehot = (e_t[:, None] == np.arange(T)[None, :]).astype(np.int64)
    best_val, best_sigma_idx, best_tau_idx = -1, 0, 0
    for start in range(0, len(sigmas), 2048):
        sig_mat = np.array([a.labels for a in sigmas[start : start + 2048]], dtype=np.int64)
        odd_per_layer = ((sig_mat[:, e_i] + sig_mat[:, e_j]) % 2) @ onehot
        even_per_layer = layer_totals[None, :] - odd_per_layer
        # objective(sigma, tau) = sum_t (tau_t ? odd_t : even_t)
        objs = even_per_layer @ (1 - tau_mat.T) + odd_per_layer @ tau_mat.T
        flat = int(np.argmax(objs))
        if int(objs.flat[flat]) > best_val:
            best_val = int(objs.flat[flat])
            best_sigma_idx, best_tau_idx = start + flat // len(taus), flat % len(taus)
    sigma_hat = sigmas[best_sigma_idx]
    if sigma_hat.labels[0] == 1:
        sigma_hat = sigma_hat.flipped()
    return sigma_hat, taus[best_tau_idx], best_val


def graph_of_kind(kind, n, T, rho, seed):
    """A planted or null sample, layers of density 0.9 to 1.0 (most scores tie), or no edges."""
    if kind == "planted":
        return sample_planted(MlsbmParams(n, T, rho), seed).graph
    if kind == "null":
        return sample_null(MlsbmParams(n, T, rho), seed)
    if kind == "empty":
        return empty_graph(n, T)
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    layers = []
    for _ in range(T):
        density = rng.choice([1.0, 0.99, 0.95, 0.9])
        layers.append([p for p, keep in zip(pairs, rng.random(len(pairs)) < density) if keep])
    return MultiLayerGraph(n=n, T=T, layers=layers)


def candidates(n, T):
    return math.comb(n, n // 2) * math.comb(T, T // 2)


# The reference oracle's own bound: its cost grows with the (sigma, tau) candidates.
ADMITTED_SHAPES = [
    (n, T) for n in range(2, 21, 2) for T in range(2, 21, 2) if candidates(n, T) <= 10**7
]


def assert_exhaustive_matches_reference(graph):
    result = mle_exhaustive(graph)
    assert (result.sigma_hat, result.tau_hat, result.objective) == reference_exhaustive(graph)
    assert result.objective == mle_objective(graph, result.sigma_hat, result.tau_hat)


@given(
    shape=st.sampled_from([s for s in ADMITTED_SHAPES if candidates(*s) <= 10**5]),
    kind=st.sampled_from(["planted", "null", "dense", "empty"]),
    rho=st.floats(0.01, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_exhaustive_matches_the_double_enumeration(shape, kind, rho, seed):
    assert_exhaustive_matches_reference(graph_of_kind(kind, *shape, rho, seed))


@pytest.mark.parametrize(
    "n, T, kind",
    [(20, 2, "planted"), (6, 20, "dense"), (10, 16, "planted"), (12, 12, "dense")],
)
def test_exhaustive_matches_the_double_enumeration_at_the_caps(n, T, kind):
    assert_exhaustive_matches_reference(graph_of_kind(kind, n, T, 0.3, seed=n * T))


@pytest.mark.parametrize("kind", ["planted", "dense", "empty"])
def test_exhaustive_blocks_of_any_size_keep_the_first_maximizer(monkeypatch, kind):
    graph = graph_of_kind(kind, 8, 4, 0.3, seed=5)
    whole = mle_exhaustive(graph)
    assert (whole.sigma_hat, whole.tau_hat, whole.objective) == reference_exhaustive(graph)
    for rows in (1, 2, 7):
        monkeypatch.setattr(recovery, "_EXHAUSTIVE_BLOCK", rows * (graph.total_edges + graph.T + 1))
        assert mle_exhaustive(graph) == whole


def edge_in_layers(n, T, layers):
    """Edge (1, 2) in each of the given layers, built from the table alone: nothing of size T."""
    ids = np.asarray(layers, dtype=np.int64)
    return _from_table(n, T, np.tile(np.array([[1, 2]], dtype=np.int64), (len(ids), 1)), ids)


def test_exhaustive_refuses_a_large_n_before_counting_its_labellings():
    # C(2^31, 2^30) alone would not finish
    graph = edge_in_layers(2**31, 2, [])
    assert peak_while_refusing(mle_exhaustive, graph, match="got n=2147483648,") < 2**16


@pytest.mark.parametrize("edges, admitted", [(1, True), (2, False)])
def test_exhaustive_block_budget_bounds_one_sigma_row(edges, admitted):
    # n = 2 has one sigma, whose row of E + T + 1 cells meets the budget at E = 1
    graph = edge_in_layers(2, recovery._EXHAUSTIVE_BLOCK - 2, range(edges))
    if admitted:
        assert mle_exhaustive(graph).objective == edges
    else:
        assert peak_while_refusing(mle_exhaustive, graph, match=r"E \+ T \+ 1 = 524289$") < 2**16


class SearchStarted(Exception):
    pass


@pytest.mark.parametrize("edges, admitted", [(1, True), (2, False)])
def test_exhaustive_work_budget_at_twenty_nodes(monkeypatch, edges, admitted):
    # C(20, 10)/2 = 92,378 sigma rows of E + T + 1 cells: 1,082 cost 99,952,996
    # <= 10^8 and 1,083 cost 100,045,374. The admitted search would take seconds,
    # so it stops where it starts enumerating.
    def search(n):
        raise SearchStarted

    monkeypatch.setattr(recovery, "_balanced_rows", search)
    graph = edge_in_layers(20, 1080, range(edges))
    if admitted:
        with pytest.raises(SearchStarted):
            mle_exhaustive(graph)
    else:
        assert peak_while_refusing(mle_exhaustive, graph, match=r"E \+ T \+ 1 = 1083$") < 2**16


@pytest.mark.parametrize("budget, admitted", [(50, True), (49, False)])
def test_exhaustive_work_budget_counts_sigma_rows_times_row_cells(monkeypatch, budget, admitted):
    # C(6, 3)/2 = 10 sigma rows of E + T + 1 = 5 cells
    monkeypatch.setattr(recovery, "_EXHAUSTIVE_WORK", budget)
    graph = empty_graph(6, 4)
    if admitted:
        assert mle_exhaustive(graph).objective == 0
    else:
        assert peak_while_refusing(mle_exhaustive, graph, match=r"E \+ T \+ 1 = 5$") < 2**16


def test_exhaustive_recovers_where_bias_adjusted_spectral_does_not_at_400_layers():
    # rho = 4 / (n sqrt(T)): above the exact MLE's threshold, below spectral's
    inst = sample_planted(MlsbmParams(16, 400, 0.0125), seed=1)
    best = mle_exhaustive(inst.graph)
    assert hamming_loss(best.sigma_hat, inst.sigma).value == 0.0
    assert best.objective >= mle_objective(inst.graph, inst.sigma, inst.tau)
    spectral = bias_adjusted_spectral(inst.graph)
    assert hamming_loss(spectral.sigma_hat, inst.sigma).value >= 0.3


def test_exhaustive_memory_stays_flat_in_the_layer_count():
    inst = sample_planted(MlsbmParams(16, 800, 4 / (16 * math.sqrt(800))), seed=1)
    tracemalloc.start()
    try:
        mle_exhaustive(inst.graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_the_first_half_of_the_enumeration_is_the_sigma_starting_with_zero(n):
    rows = _balanced_rows(n)
    half = len(rows) // 2
    assert (rows[:half, 0] == 0).all() and (rows[half:, 0] == 1).all()


# ---------------------------------------------------------- mle_local_search


def test_local_search_fixed_point_at_truth(six_edge_instance):
    graph, sigma, _ = six_edge_instance
    result = mle_local_search(graph, sigma)
    assert result.objective == 6
    assert result.sigma_hat == sigma


def test_local_search_empty_graph_keeps_init():
    init = Assignment((0, 1, 1, 0))
    result = mle_local_search(empty_graph(4, 2), init)
    assert result.sigma_hat == init
    assert result.objective == 0


@given(seed=st.integers(0, 400), init_idx=st.integers(0, 19))
@settings(max_examples=25, deadline=None)
def test_local_search_trace_is_monotone(seed, init_idx):
    inst = sample_planted(MlsbmParams(n=6, T=4, rho=0.4), seed=seed)
    init = balanced_assignments(6)[init_idx]
    result = mle_local_search(inst.graph, init)
    trace = result.objective_trace
    assert trace is not None and len(trace) >= 1
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == result.objective
    assert result.objective >= mle_objective(inst.graph, init, result.tau_hat)
    assert result.objective == mle_objective(inst.graph, result.sigma_hat, result.tau_hat)


def test_multistart_objective_matches_recount():
    # The incremental objective and gain bookkeeping must agree with a fresh
    # count at the benchmark's local-search cell, after hundreds of swaps.
    graph = sample_planted(MlsbmParams(n=256, T=8, rho=0.01), seed=0).graph
    result = mle_local_search_multistart(graph)
    assert len(result.objective_trace) > 10
    assert result.objective == mle_objective(graph, result.sigma_hat, result.tau_hat)


def reference_local_search(graph, init, max_rounds=50):
    """The ascent with its swap gains recomputed from every edge after each swap.

    Oracle for mle_local_search, which keeps the gains up to date
    incrementally: both must take the same swaps and report the same result.
    """
    n = graph.n
    e_i, e_j, e_t = _edge_arrays(graph)

    def objective_of(sig, tau) -> int:
        if len(e_i) == 0:
            return 0
        parity = (sig[e_i] + sig[e_j] + tau[e_t]) % 2
        return int(len(e_i) - parity.sum())

    sig = init.as_array().astype(np.int64)
    tau, _ = _tau_for_sigma(graph, sig)
    obj = objective_of(sig, tau)
    trace = [obj]

    for _ in range(max_rounds):
        changed = False
        new_tau, _ = _tau_for_sigma(graph, sig)
        if not np.array_equal(new_tau, tau):
            tau = new_tau
            obj = objective_of(sig, tau)
            trace.append(obj)
            changed = True
        # s_e = +1 if edge e gains by flipping one endpoint, -1 if it loses.
        while True:
            if len(e_i) == 0:
                break
            s_e = (2 * ((sig[e_i] + sig[e_j] + tau[e_t]) % 2) - 1).astype(np.float64)
            d = np.zeros(n)
            np.add.at(d, e_i, s_e)
            np.add.at(d, e_j, s_e)
            c = np.zeros((n, n))
            np.add.at(c, (e_i, e_j), s_e)
            c_sym = c + c.T
            zeros_idx = np.flatnonzero(sig == 0)
            ones_idx = np.flatnonzero(sig == 1)
            delta = (
                d[zeros_idx][:, None]
                + d[ones_idx][None, :]
                - 2.0 * c_sym[np.ix_(zeros_idx, ones_idx)]
            )
            flat = int(np.argmax(delta))
            gain = delta.flat[flat]
            if gain <= 0:
                break
            u = int(zeros_idx[flat // len(ones_idx)])
            v = int(ones_idx[flat % len(ones_idx)])
            sig[u], sig[v] = 1, 0
            obj += int(round(gain))
            trace.append(obj)
            changed = True
        if not changed:
            break
    return Assignment(tuple(int(x) for x in sig)), Assignment(tuple(int(x) for x in tau)), obj, tuple(trace)


def assert_matches_reference(graph, init):
    result = mle_local_search(graph, init)
    got = (result.sigma_hat, result.tau_hat, result.objective, result.objective_trace)
    assert got == reference_local_search(graph, init)


def random_starts(draw, rng, n):
    return [Assignment(tuple(int(b) for b in rng.permutation([0] * (n // 2) + [1] * (n // 2))))
            for _ in range(draw(st.integers(1, 3)))]


@st.composite
def ascent_cases(draw):
    """Even n in 4..40, T in {2, 4, 6}, some layers empty, density up to 0.6."""
    n = 2 * draw(st.integers(2, 20))
    T = draw(st.sampled_from([2, 4, 6]))
    rho = draw(st.floats(0.0, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    layers = []
    for _ in range(T):
        if draw(st.booleans()) and draw(st.booleans()):
            layers.append([])
        else:
            layers.append([p for p, keep in zip(pairs, rng.random(len(pairs)) < rho) if keep])
    return MultiLayerGraph(n=n, T=T, layers=layers), random_starts(draw, rng, n)


@st.composite
def tie_heavy_cases(draw):
    """Even n in 4..32, T in {2, 4, 6, 8}, complete and near-complete layers.

    The signed aggregate of such layers is nearly constant, so most swap gains
    tie and the ascent's tie-break decides which swap is taken.
    """
    n = 2 * draw(st.integers(2, 16))
    T = draw(st.sampled_from([2, 4, 6, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    layers = []
    for _ in range(T):
        rho = draw(st.sampled_from([1.0, 0.99, 0.95, 0.9]))
        layers.append([p for p, keep in zip(pairs, rng.random(len(pairs)) < rho) if keep])
    return MultiLayerGraph(n=n, T=T, layers=layers), random_starts(draw, rng, n)


@given(case=st.one_of(ascent_cases(), tie_heavy_cases()))
@settings(max_examples=100, deadline=None)
def test_local_search_matches_rebuild_every_swap_reference(case):
    graph, randoms = case
    for init in default_start_battery(graph) + randoms:
        assert_matches_reference(graph, init)


def test_local_search_matches_reference_at_the_benchmark_cell():
    # The local-search benchmark's cell: hundreds of swaps over its start battery.
    graph = sample_planted(MlsbmParams(n=256, T=8, rho=0.01), seed=0).graph
    for init in default_start_battery(graph):
        assert_matches_reference(graph, init)


def score_type(graph):
    """The integer type the ascent scores swaps in on graph."""
    return recovery._signed_sums(graph)(np.repeat([0, 1], graph.T // 2)).dtype


def test_score_type_at_the_benchmark_cell_and_at_a_tie_heavy_cell():
    bench = sample_planted(MlsbmParams(n=256, T=8, rho=0.01), seed=0).graph
    assert score_type(bench) == np.int32  # K (E + T + 1) = 65,536 * 2,642
    pairs = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
    complete = MultiLayerGraph(8, 4, [pairs] * 4)
    assert score_type(complete) == np.int16  # 64 * 117


def star_graph(n, T):
    """Every edge at node 1, every edge even under sigma0 = 0^(n/2) 1^(n/2), tau0 = 0^(T/2) 1^(T/2).

    The tau0 = 0 layers join node 1 to the rest of its side, the tau0 = 1
    layers to the whole other side. So g[0] = E, as far as a gain term can
    reach: node 1's swap scores reach about K E, near the bound, and -2 K g[0]
    about twice the bound.
    """
    same = [(1, v) for v in range(2, n // 2 + 1)]
    other = [(1, v) for v in range(n // 2 + 1, n + 1)]
    return MultiLayerGraph(n, T, [same] * (T // 2) + [other] * (T // 2))


# The bound K (E + T + 1) on either side of the int8 -> int16 and int16 ->
# int32 switches. Each id is K (2E + 2T + 2), which bounds -2 K g as the
# bound does what the ascent reads: from 64640 on, -2 K g is past int16, so
# it would wrap there if it were computed before it is halved.
@pytest.mark.parametrize(
    "n, T, scores",
    [(2, 10, np.int8), (4, 2, np.int8), (2, 20, np.int8), (2, 22, np.int16),
     (4, 6, np.int16), (8, 56, np.int16), (8, 58, np.int16), (8, 112, np.int16),
     (8, 114, np.int32), (8, 148, np.int32)],
    ids=["128", "192", "248", "272", "512", "32384", "33536", "64640", "65792", "85376"],
)
def test_local_search_at_the_edges_of_its_score_types(n, T, scores):
    graph = star_graph(n, T)
    assert recovery._score_bound(graph) == n * n * ((n + 1) * T // 2 + 1)
    assert score_type(graph) == scores
    sigma0 = [0] * (n // 2) + [1] * (n // 2)
    swapped = [1] + sigma0[1 : n // 2] + [0] + sigma0[n // 2 + 1 :]  # nodes 1 and n/2 + 1
    for init in [Assignment(tuple(sigma0)), Assignment(tuple(swapped))] + default_start_battery(graph):
        assert_matches_reference(graph, init)


@given(case=st.one_of(ascent_cases(), tie_heavy_cases()), data=st.data())
@settings(max_examples=40, deadline=None)
def test_labellings_built_without_revalidation_equal_their_validated_twins(case, data):
    graph, randoms = case
    # few distinct scores, so most of the rounding is tie-breaking
    scores = data.draw(st.lists(st.integers(-2, 2), min_size=graph.n, max_size=graph.n))
    built = [balanced_rounding(scores), balanced_rounding(np.zeros(graph.n))]
    for init in randoms:
        result = mle_local_search(graph, init)
        built += [result.sigma_hat, result.tau_hat]
    built += [labelling.flipped() for labelling in built + randoms]
    for labelling in built:
        assert_as_if_validated(labelling)


# W[0, 1] = W[2, 3] = 128 under the planted tau: past int8, so W must be kept wider.
@example(case=(MultiLayerGraph(4, 256, [[(1, 2), (3, 4)]] * 128 + [[(1, 3), (2, 4)]] * 128), []))
@given(case=st.one_of(ascent_cases(), tie_heavy_cases()))
@settings(max_examples=50, deadline=None)
def test_multistart_builds_each_signed_sum_once_and_ascends_as_the_reference(case):
    graph, _ = case
    battery = default_start_battery(graph)
    # The battery's best under the rebuild-every-swap reference, ties to the earliest.
    expected = max(
        (reference_local_search(graph, init) for init in battery), key=lambda result: result[2]
    )
    taus_seen, aggregate = [], recovery._weighted_layer_sum

    def recording(graph, tau=None):
        taus_seen.append(None if tau is None else tuple(tau.tolist()))
        return aggregate(graph, tau)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "_weighted_layer_sum", recording)
        for init in battery:
            mle_local_search(graph, init)
        # Every distinct tau the starts reach.
        taus = set(taus_seen)
        taus_seen.clear()
        result = mle_local_search_multistart(graph)
    assert (result.sigma_hat, result.tau_hat, result.objective, result.objective_trace) == expected
    # One layer sum for the start battery, then one signed sum per tau.
    assert taus_seen.count(None) == 1 and len(taus_seen) == 1 + len(taus)


def test_local_search_rebuilds_gains_when_tau_changes(monkeypatch):
    # Pinned ascent: one swap, then tau changes, then another swap, so the
    # gains are rebuilt mid-ascent and the rebuilt ones are used.
    graph = sample_planted(MlsbmParams(n=8, T=4, rho=0.4), seed=6).graph
    init = Assignment((1, 1, 1, 1, 0, 0, 0, 0))
    taus_seen = []
    aggregate = recovery._weighted_layer_sum

    def recording(graph, tau=None):
        taus_seen.append(tuple(tau.tolist()))
        return aggregate(graph, tau)

    monkeypatch.setattr(recovery, "_weighted_layer_sum", recording)
    assert_matches_reference(graph, init)
    assert len(set(taus_seen)) == len(taus_seen) == 2
    assert mle_local_search(graph, init).objective_trace == (19, 21, 24, 31)


@given(seed=st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_local_search_never_beats_exhaustive(seed):
    inst = sample_planted(MlsbmParams(n=8, T=4, rho=0.4), seed=seed)
    exhaustive = mle_exhaustive(inst.graph)
    local = mle_local_search_multistart(inst.graph)
    assert local.objective <= exhaustive.objective


def test_single_init_match_rate_regression():
    # Frozen pilot measurement: starting local search from the single
    # bias-adjusted spectral init matches the exhaustive optimum well below
    # the multistart rate at this size. Pinned so a silent behavior change
    # in either the init or the ascent is caught; the pilot itself checks
    # that no ascent beats the exhaustive objective.
    assert fresh("mle")["single_start_match_rate_n12_T8_rho0.4"] == 0.58


def test_multistart_reaches_exhaustive_optimum_on_fixture(six_edge_instance):
    graph, sigma, _ = six_edge_instance
    result = mle_local_search_multistart(graph)
    assert result.objective == 6
    assert hamming_loss(result.sigma_hat, sigma).value == 0.0
    assert result.method == "mle-local-multistart"


def test_start_battery_is_deduped_and_balanced():
    inst = sample_planted(MlsbmParams(n=12, T=8, rho=0.4), seed=0)
    battery = default_start_battery(inst.graph)
    assert len(battery) >= 3
    keys = {min(s.labels, s.flipped().labels) for s in battery}
    assert len(keys) == len(battery)  # no flip-duplicates
    assert all(sum(s.labels) == 6 for s in battery)
    # the two structure-free fallbacks are always present
    half = Assignment(tuple([0] * 6 + [1] * 6))
    alternating = Assignment(tuple(i % 2 for i in range(12)))
    assert any(min(s.labels, s.flipped().labels) == min(half.labels, half.flipped().labels) for s in battery)
    assert any(
        min(s.labels, s.flipped().labels)
        == min(alternating.labels, alternating.flipped().labels)
        for s in battery
    )


# ---------------------------------------------------------- balanced_rounding


def test_rounding_tie_break_prefers_low_indices():
    assert balanced_rounding(np.zeros(4)).labels == (1, 1, 0, 0)


def test_rounding_top_half_selection():
    assert balanced_rounding(np.array([3.0, 1.0, -2.0, 0.0])).labels == (1, 1, 0, 0)


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=6, max_size=6, unique=True))
def test_rounding_negation_complements(scores):
    scores = np.asarray(scores)
    a = balanced_rounding(scores)
    b = balanced_rounding(-scores)
    assert a == b.flipped()


# --------------------------------------------------------------- eigensolver


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_power_iteration_matches_dense_solver(seed):
    # Build a matrix with well-separated |eigenvalue| gaps; power iteration
    # only targets spectra where the top-2 magnitudes are distinct.
    gen = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(gen.normal(size=(16, 16)))
    magnitudes = 10.0 * np.cumprod(gen.uniform(0.5, 0.75, size=16)) / 0.6
    signs = gen.choice([-1.0, 1.0], size=16)
    matrix = (Q * (signs * magnitudes)) @ Q.T
    l1, v1, l2, v2 = top_two_eigenpairs(matrix)
    w, V = np.linalg.eigh(matrix)
    order = np.argsort(-np.abs(w))
    assert l1 == pytest.approx(w[order[0]], rel=1e-6)
    assert l2 == pytest.approx(w[order[1]], rel=1e-6)
    assert abs(np.dot(v1, V[:, order[0]])) == pytest.approx(1.0, abs=1e-5)
    assert abs(np.dot(v2, V[:, order[1]])) == pytest.approx(1.0, abs=1e-5)


def reference_power_iteration(matrix):
    """The power iteration before its Rayleigh mat-vec was reused: two mat-vecs a step."""
    n = matrix.shape[0]
    v = np.cos(np.arange(1, n + 1, dtype=np.float64))
    v /= np.linalg.norm(v)
    rayleigh = 0.0
    for _ in range(recovery._POWER_MAX_ITER):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, v
        v_new = w / norm
        r_new = float(v_new @ (matrix @ v_new))
        if abs(r_new - rayleigh) <= recovery._POWER_TOL * max(1.0, abs(r_new)):
            return r_new, v_new
        v, rayleigh = v_new, r_new
    return rayleigh, v


def reference_top_two_eigenpairs(matrix):
    lam1, v1 = reference_power_iteration(matrix)
    lam2, v2 = reference_power_iteration(matrix - lam1 * np.outer(v1, v1))
    return lam1, v1, lam2, v2


def _power_iteration_matrices():
    """Aggregates the solver meets: the gap cell (a +-2.466 pair that runs to the
    1000-iteration cap), planted and null arms of the detection workload, the
    local-search start battery's two aggregates, a zero matrix, and small dense
    ones."""
    gap = sample_planted(MlsbmParams(n=100, T=40000, rho=5e-5), seed=1).graph
    yield "gap", aggregate_bias_adjusted(gap).matrix
    for seed in range(3):
        params = MlsbmParams(n=200, T=62, rho=0.0075)
        yield f"planted-{seed}", aggregate_bias_adjusted(sample_planted(params, seed).graph).matrix
        yield f"null-{seed}", aggregate_bias_adjusted(sample_null(params, seed)).matrix
    battery = sample_planted(MlsbmParams(n=256, T=8, rho=0.01), seed=0).graph
    yield "battery-bias-adjusted", aggregate_bias_adjusted(battery).matrix
    yield "battery-layer-sum", aggregate_layer_sum(battery).matrix
    yield "zero", np.zeros((8, 8))
    for seed in range(3):
        inst = sample_planted(MlsbmParams(n=16, T=6, rho=0.3), seed=seed)
        yield f"signed-{seed}", aggregate_signed(inst.graph, inst.tau).matrix


def test_power_iteration_equals_the_two_mat_vec_reference_exactly():
    for name, matrix in _power_iteration_matrices():
        before = matrix.copy()
        got = top_two_eigenpairs(matrix)
        want = reference_top_two_eigenpairs(matrix)
        assert got[0] == want[0] and got[2] == want[2], name
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[3], want[3]), name
        # the caller's matrix is not deflated; the library's own aggregates are, in place
        assert np.array_equal(matrix, before), name
        in_place = recovery._top_two_in_place(before)
        assert in_place[0] == got[0] and in_place[2] == got[2], name
        assert np.array_equal(in_place[1], got[1]) and np.array_equal(in_place[3], got[3]), name
        # the returned vectors are the caller's: a later call does not write into them
        kept = got[1].copy(), got[3].copy()
        top_two_eigenpairs(matrix)
        assert np.array_equal(got[1], kept[0]) and np.array_equal(got[3], kept[1]), name


# ------------------------------------------------------------------ spectral


def expected_adjacency(n, rho, sigma_bits, tau_bit):
    mean = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                mean[i, j] = edge_probability(
                    sigma_bits[i], sigma_bits[j], tau_bit, rho
                )
    return mean


def test_bias_adjusted_selection_recovers_at_expectation_level():
    # Replace each layer by its conditional mean: the debiased squared sum
    # has a rank-2 structure (plus a uniform shift on the complement) whose
    # smaller-|mean| top eigenvector is constant on communities. n must be
    # large enough that the quadratic-in-n signal eigenvalue beats the
    # linear-in-n diagonal-removal shift.
    n, rho = 16, 0.3
    sigma_bits = tuple(i % 2 for i in range(n))
    M = np.zeros((n, n))
    for tau_bit in (0, 1, 0, 1):
        EA = expected_adjacency(n, rho, sigma_bits, tau_bit)
        sq = EA @ EA
        M += sq - np.diag(np.diag(sq))
    w, V = np.linalg.eigh(M)
    order = np.argsort(-np.abs(w))
    v1, v2 = V[:, order[0]], V[:, order[1]]
    vec = v1 if abs(v1.mean()) <= abs(v2.mean()) else v2
    labels = balanced_rounding(vec)
    assert hamming_loss(labels, Assignment(sigma_bits)).value == 0.0


def test_bias_adjusted_empty_graph_degenerate():
    result = bias_adjusted_spectral(empty_graph(8, 2))
    assert result.degenerate
    assert result.sigma_hat == balanced_rounding(np.zeros(8))


def test_bias_adjusted_on_two_nodes_is_degenerate():
    # two nodes have no wedge, so the aggregate is the zero matrix whether or
    # not the edge is present, and the eigen-gap rule flags it
    for graph in (empty_graph(2, 2), MultiLayerGraph(n=2, T=3, layers=[[(1, 2)]] * 3)):
        result = bias_adjusted_spectral(graph)
        assert result.degenerate
        assert result.sigma_hat == balanced_rounding(np.zeros(2))


def test_bias_adjusted_matrix_matches_dense_reference():
    inst = sample_planted(MlsbmParams(n=16, T=6, rho=0.3), seed=3)
    fast = aggregate_bias_adjusted(inst.graph).matrix
    ref = np.zeros((16, 16))
    for layer in inst.graph.layers:
        A = np.zeros((16, 16))
        for i, j in layer:
            A[i - 1, j - 1] = A[j - 1, i - 1] = 1.0
        ref += A @ A - np.diag(A.sum(axis=1))
    assert np.array_equal(fast, ref)
    assert np.array_equal(fast, fast.T)
    assert np.all(np.diag(fast) == 0.0)


def test_dense_materialization_cap():
    with pytest.raises(SizeGuardError):
        aggregate_bias_adjusted(empty_graph(4098, 2))


@pytest.mark.parametrize(
    "call",
    [
        aggregate_bias_adjusted,
        aggregate_layer_sum,
        lambda graph: aggregate_signed(graph, Assignment((0, 1))),
        lambda graph: mle_local_search(graph, Assignment((0, 1) * (graph.n // 2))),
        mle_local_search_multistart,
        default_start_battery,
    ],
    ids=["bias-adjusted", "layer-sum", "signed", "local-search", "local-multistart",
         "start-battery"],
)
def test_dense_cap_refuses_before_allocating(call):
    # one 4098 x 4098 float64 matrix would take 134 MB
    assert peak_while_refusing(call, empty_graph(4098, 2)) < 2**20


@pytest.mark.parametrize(
    "method, call, T",
    [
        ("bias_adjusted_spectral", bias_adjusted_spectral, 3),
        ("aggregate_sum_spectral", aggregate_sum_spectral, 3),
        # an Assignment has even length, so no tau fits an odd T
        ("oracle_tau_spectral", lambda graph: oracle_tau_spectral(graph, Assignment((0, 1))), 2),
    ],
    ids=["bias-adjusted", "layer-sum", "oracle-tau"],
)
def test_spectral_methods_refuse_odd_n(method, call, T):
    with pytest.raises(ValidationError, match=f"^{method} needs even n >= 2, got n=5$"):
        call(empty_graph(5, T))


@pytest.mark.parametrize("n, T", [(5, 2), (4, 3)], ids=["odd-n", "odd-T"])
def test_multistart_refuses_odd_sizes_before_the_start_battery(monkeypatch, n, T):
    def battery_ran(graph):
        raise AssertionError("the start battery ran before the size check")

    monkeypatch.setattr(recovery, "aggregate_bias_adjusted", battery_ran)
    with pytest.raises(ValidationError, match="mle_local_search_multistart needs even n >= 2 and even T"):
        mle_local_search_multistart(empty_graph(n, T))


@pytest.mark.parametrize(
    "call",
    [lambda graph: mle_local_search(graph, Assignment((0, 1))), mle_local_search_multistart],
    ids=["local-search", "local-multistart"],
)
def test_swap_score_guard_refuses_before_allocating(call):
    # 2^62 empty layers: swap scores could overflow int64, and any T-sized array
    # would take 2^65 bytes.
    graph = _from_table(2, 2**62, np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64))
    assert peak_while_refusing(call, graph, match="overflow int64") < 2**20


@st.composite
def layered_graphs(draw):
    """Small graphs mixing empty, single-edge, star and random layers."""
    n = draw(st.integers(2, 9))
    T = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    layers = []
    for _ in range(T):
        kind = draw(st.sampled_from(["empty", "single", "star", "random"]))
        if kind == "empty":
            layers.append([])
        elif kind == "single":
            layers.append([draw(st.sampled_from(pairs))])
        elif kind == "star":
            center = draw(st.integers(1, n))
            layers.append([(min(center, v), max(center, v)) for v in range(1, n + 1) if v != center])
        else:
            keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
            layers.append([pair for pair, k in zip(pairs, keep) if k])
    return MultiLayerGraph(n=n, T=T, layers=layers)


def dense_adjacency(layer, n):
    A = np.zeros((n, n))
    for i, j in layer:
        A[i - 1, j - 1] = A[j - 1, i - 1] = 1.0
    return A


@given(graph=layered_graphs(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_aggregators_match_dense_oracle(graph, data):
    view = data.draw(st.sampled_from(["whole", "permuted", "sliced"]))
    if view == "permuted":
        graph = graph.permute_layers(data.draw(st.permutations(range(graph.T))))
    elif view == "sliced":
        start = data.draw(st.integers(0, graph.T - 1))
        graph = graph.layer_slice(start, data.draw(st.integers(start + 1, graph.T)))
    n = graph.n
    adjacency = [dense_adjacency(layer, n) for layer in graph.layers]
    squared = sum(A @ A - np.diag(A.sum(axis=1)) for A in adjacency)
    assert np.array_equal(aggregate_bias_adjusted(graph).matrix, squared)
    assert np.array_equal(aggregate_layer_sum(graph).matrix, sum(adjacency))
    if graph.T % 2 == 0:
        half = graph.T // 2
        tau = Assignment(tuple(data.draw(st.permutations([0] * half + [1] * half))))
        signed = sum((1 - 2 * b) * A for b, A in zip(tau.labels, adjacency))
        assert np.array_equal(aggregate_signed(graph, tau).matrix, signed)


def test_aggregates_of_an_edgeless_graph_are_float64_zeros():
    graph = MultiLayerGraph(n=4, T=2, layers=[[], []])
    for aggregate in (aggregate_bias_adjusted(graph), aggregate_layer_sum(graph),
                      aggregate_signed(graph, Assignment((0, 1)))):
        assert aggregate.matrix.dtype == np.float64 and not aggregate.matrix.any()


def test_bias_adjusted_star_layer_links_every_leaf_pair():
    n = 40
    star = [(1, v) for v in range(2, n + 1)]
    matrix = aggregate_bias_adjusted(MultiLayerGraph(n=n, T=2, layers=[star, []])).matrix
    expected = np.ones((n, n)) - np.eye(n)
    expected[0, :] = expected[:, 0] = 0.0
    assert np.array_equal(matrix, expected)


def test_sum_spectral_single_layer_classical_regime():
    sigma_bits = tuple(i % 2 for i in range(256))
    graph = sample_conditional(256, 1, 0.2, sigma_bits, (0,), seed=9)
    result = aggregate_sum_spectral(graph)
    assert hamming_loss(result.sigma_hat, Assignment(sigma_bits)).value <= 0.02


def test_sum_spectral_empty_graph_degenerate():
    result = aggregate_sum_spectral(empty_graph(8, 2))
    assert result.degenerate
    assert result.sigma_hat == balanced_rounding(np.zeros(8))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: deflated power iteration restarts from the same vector, so it "
    "skips a repeated top eigenvalue and the degeneracy rule cannot fire",
)
def test_repeated_top_eigenvalue_is_degenerate():
    # each layer holds two disjoint K4s (nodes 1-4 and 5-8): the layer sum has
    # eigenvalue 6 twice, on the span of the two clique indicators, so the top
    # two eigenvalues tie and the spectral step must report it
    k4 = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    layer = k4 + [(i + 4, j + 4) for i, j in k4]
    graph = MultiLayerGraph(n=8, T=2, layers=[layer, layer])
    assert np.allclose(np.linalg.eigvalsh(aggregate_layer_sum(graph).matrix)[-2:], 6.0)
    assert aggregate_sum_spectral(graph).degenerate


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: power iteration does not converge on a +-lambda pair, so it "
    "returns neither eigenpair and flags nothing",
)
def test_plus_minus_top_eigenvalue_pair_is_resolved():
    # eigenvalues 1 and -1 tie in magnitude: the 2 x 2 form of an unflagged
    # +-lambda pair, which is also what a 2-node layer sum holds
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    l1, v1, l2, v2 = top_two_eigenpairs(matrix)
    assert sorted((l1, l2)) == pytest.approx([-1.0, 1.0], abs=1e-8)
    for value, vector in ((l1, v1), (l2, v2)):
        assert np.linalg.norm(matrix @ vector - value * vector) <= 1e-8


def test_layer_sum_matrix_is_edge_count():
    graph, _, _ = (
        parity_even_graph(4, 2, (0, 0, 1, 1), (0, 1)),
        None,
        None,
    )
    matrix = aggregate_layer_sum(graph).matrix
    assert matrix[0, 1] == 1.0 and matrix[0, 2] == 1.0
    assert matrix.sum() == 2 * graph.total_edges


def test_oracle_tau_signed_sum_structure(six_edge_instance):
    graph, sigma, tau = six_edge_instance
    signed = aggregate_signed(graph, tau).matrix
    # layer 1 enters +1, layer 2 enters -1
    assert signed[0, 1] == 1.0  # within edge, layer 1
    assert signed[0, 2] == -1.0  # cross edge, layer 2
    result = oracle_tau_spectral(graph, tau)
    assert hamming_loss(result.sigma_hat, sigma).value == 0.0


def test_oracle_tau_expectation_level():
    n, T, rho = 8, 4, 0.3
    sigma_bits = (0, 1, 0, 1, 1, 0, 1, 0)
    S = np.zeros((n, n))
    for tau_bit in (0, 0, 1, 1):
        sign = 1.0 if tau_bit == 0 else -1.0
        S += sign * expected_adjacency(n, rho, sigma_bits, tau_bit)
    # within-community entries T*rho/2, cross -T*rho/2
    within = S[0, 2]
    cross = S[0, 1]
    assert within == pytest.approx(T * rho / 2)
    assert cross == pytest.approx(-T * rho / 2)


def test_oracle_tau_dimension_mismatch(six_edge_instance):
    graph, _, _ = six_edge_instance
    with pytest.raises(ValidationError):
        oracle_tau_spectral(graph, Assignment((0, 1, 0, 1)))


def test_oracle_tau_empty_graph_degenerate():
    result = oracle_tau_spectral(empty_graph(8, 2), Assignment((0, 1)))
    assert result.degenerate
    assert result.sigma_hat == balanced_rounding(np.zeros(8))


@given(seed=st.integers(0, 300))
@settings(max_examples=10, deadline=None)
def test_spectral_results_are_balanced(seed):
    inst = sample_planted(MlsbmParams(n=10, T=4, rho=0.3), seed=seed)
    for result in (
        bias_adjusted_spectral(inst.graph),
        aggregate_sum_spectral(inst.graph),
        oracle_tau_spectral(inst.graph, inst.tau),
    ):
        assert sum(result.sigma_hat.labels) == 5
        hamming_loss(result.sigma_hat, inst.sigma)  # well-defined


# -------------------------------------------------------------- serialization


def test_result_json_record(six_edge_instance):
    graph, sigma, _ = six_edge_instance
    result = mle_exhaustive(graph)
    record = to_json_record(result, loss_vs_truth=hamming_loss(result.sigma_hat, sigma).value)
    assert record["method"] == "mle-exhaustive"
    assert record["objective"] == 6
    assert record["loss_vs_truth"] == 0.0
    assert record["degenerate_flag"] is False
    assert isinstance(record["sigma_hat"], str) and set(record["sigma_hat"]) <= {"0", "1"}


@pytest.mark.parametrize("method", sorted(RECOVERY_RUNNERS))
def test_result_json_record_keeps_every_set_field(method):
    inst = sample_planted(MlsbmParams(n=8, T=4, rho=0.4), seed=2)
    result = RECOVERY_RUNNERS[method](inst.graph, inst.tau)
    record = to_json_record(result)
    expected = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if value is not None:
            key = "degenerate_flag" if field.name == "degenerate" else field.name
            expected[key] = value.bitstring() if isinstance(value, Assignment) else value
    assert record == expected
    assert ("objective_trace" in record) == (method == "mle-local-search")


# ------------------------------------------------------------------ refusals


@pytest.mark.parametrize("scores", [np.zeros(3), np.zeros(0), np.zeros((2, 2))],
                         ids=["odd", "empty", "2-D"])
def test_rounding_refuses_scores_it_cannot_halve(scores):
    with pytest.raises(ValidationError, match="^scores must be a non-empty even-length vector"):
        balanced_rounding(scores)

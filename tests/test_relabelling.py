"""Relabelling as an oracle: recovery does not depend on how nodes or layers are numbered.

A spectral runner's loss does not depend on node order, and spectral and
exhaustive recovery return the same result with the layers reordered. Local
search is left out of both: its ascent breaks ties by lowest node index, and
its tau step breaks margin ties by layer index, so its result depends on
both orders by design.
"""

import math

import numpy as np
import pytest

from mlsbm import Assignment, MlsbmParams, hamming_loss, sample_planted
from mlsbm.experiments import RECOVERY_RUNNERS
from mlsbm.model import _graph_from_edges


def relabelled(instance, seed):
    """The instance's graph and sigma with node i renamed pi(i), pi a seeded permutation of 1..n."""
    graph = instance.graph
    pi = np.random.default_rng(seed).permutation(graph.n) + 1
    sigma = np.empty(graph.n, dtype=np.int8)
    sigma[pi - 1] = instance.sigma.as_array()
    edges = np.sort(pi[graph.edges - 1], axis=1)
    # _graph_from_edges builds its sort key in the layer column it is given
    return _graph_from_edges(graph.n, graph.T, edges, graph.layer_ids.copy()), Assignment(sigma)


def losses(n, T, c, seed, method):
    """method's loss at rho = c / (n sqrt T) on the planted graph, then on it relabelled."""
    instance = sample_planted(MlsbmParams(n, T, c / (n * math.sqrt(T))), seed)
    graph, sigma = relabelled(instance, seed)
    run = RECOVERY_RUNNERS[method]
    return (
        hamming_loss(run(instance.graph, instance.tau).sigma_hat, instance.sigma).value,
        hamming_loss(run(graph, instance.tau).sigma_hat, sigma).value,
    )


@pytest.mark.parametrize(
    "n, T, c, seeds, method",
    [
        (64, 16, 6, range(9000, 9010), "bias-adjusted-spectral"),
        (64, 16, 6, range(9000, 9010), "sum-spectral"),
        (64, 16, 6, range(9000, 9010), "oracle-tau-spectral"),
        (128, 16, 8, range(9000, 9013), "bias-adjusted-spectral"),
        (128, 16, 8, range(9000, 9013), "oracle-tau-spectral"),
    ],
)
def test_spectral_losses_do_not_depend_on_node_order(n, T, c, seeds, method):
    for seed in seeds:
        before, after = losses(n, T, c, seed, method)
        assert before == after, seed


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: lambda_2 sits in the noise bulk, so power iteration from the "
    "unpermuted cos(1..n) start returns a different unconverged vector",
)
def test_sum_spectral_loss_does_not_depend_on_node_order_in_the_noise_bulk():
    # 0.484 on the planted graph, 0.469 relabelled
    before, after = losses(128, 16, 8, 9005, "sum-spectral")
    assert before == after


def reordered(instance, seed):
    """The instance's graph and tau with layers reordered by a seeded permutation of 0..T-1."""
    order = np.random.default_rng(seed).permutation(instance.graph.T)
    return instance.graph.permute_layers(order), Assignment(instance.tau.as_array()[order])


@pytest.mark.parametrize(
    "n, T, rho, seeds, method",
    [
        *(
            (n, T, c / (n * math.sqrt(T)), range(9000, 9010), method)
            for n, T, c in ((64, 16, 6), (128, 16, 8))
            for method in ("bias-adjusted-spectral", "sum-spectral", "oracle-tau-spectral")
        ),
        (16, 8, 0.4, range(9000, 9005), "mle-exhaustive"),
    ],
)
def test_recovery_does_not_depend_on_layer_order(n, T, rho, seeds, method):
    run = RECOVERY_RUNNERS[method]
    for seed in seeds:
        instance = sample_planted(MlsbmParams(n, T, rho), seed)
        graph, tau = reordered(instance, seed)
        before, after = run(instance.graph, instance.tau), run(graph, tau)
        assert after.sigma_hat == before.sigma_hat, seed
        assert (after.objective, after.degenerate) == (before.objective, before.degenerate), seed

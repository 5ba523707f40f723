"""Split-layer detection: recover on early layers, test density on holdouts.

The test recovers a community estimate from the first T layers, estimates the
overall density from the last layer, and measures the cross-block edge average
on the second-to-last layer. Under the null the cross-block average matches
the density estimate; under the planted model it sits near rho/2 or 3*rho/2
(depending on the holdout layer's hidden type), so a relative deviation of
0.3 separates the hypotheses once recovery is reasonably accurate.

The shuffling wrapper reruns the test on uniformly permuted layers and takes
the maximum decision, which guards against adversarially ordered layers. Each
round adds false-positive risk, which is why the CLI's `detect` runs the plain
test (`split-test`) unless asked for `shuffled-test`; a sweep config names its
methods explicitly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError
from .model import Assignment, MultiLayerGraph, _check_size
from .recovery import RecoveryResult, _bias_adjusted_without, bias_adjusted_spectral
from .seeding import substream

# Decision margin: decide planted iff |cross_mean - rho_hat| >= 0.3 * rho_hat.
# Fixed, never tuned. The separation budget behind it: with recovery loss
# below 0.1 the planted cross-block mean stays below 0.55*rho in expectation
# (below 0.6*rho with high probability), while rho_hat concentrates within
# 0.1*rho of rho, leaving a 0.3*rho gap on the planted side; under the null
# the cross-block mean also concentrates within 0.1*rho of rho.
MARGIN_FACTOR = 0.3

RecoverFn = Callable[[MultiLayerGraph], RecoveryResult]


@dataclass(frozen=True)
class DetectionDecision:
    """Outcome of one detection test."""

    decision: int
    rho_hat: float
    cross_block_mean: float
    shuffle_rounds_used: int

    def __post_init__(self):
        if self.decision not in (0, 1):
            raise ValidationError(f"decision must be 0 or 1, got {self.decision}")
        if self.rho_hat < 0:
            raise ValidationError(f"rho_hat must be >= 0, got {self.rho_hat}")


def to_json_record(decision: DetectionDecision, **metadata) -> dict:
    return {**asdict(decision), **metadata}


def estimate_density(layer: np.ndarray, n: int) -> float:
    """Edge count of one layer divided by the number of node pairs."""
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    return len(layer) / math.comb(n, 2)


def split_layer_test(graph: MultiLayerGraph, recover: RecoverFn) -> DetectionDecision:
    """Run the three-way split test on a graph with T + 2 layers.

    Layers 1..T feed the recovery procedure only; layer T+1 supplies the
    cross-block average only; layer T+2 supplies the density estimate only.
    An empty density estimate decides 0 (no evidence of anything). This is
    the shuffled test's round on the identity order.
    """
    return _split_rounds(graph, recover, "split_layer_test")(np.arange(graph.T))


def _split_rounds(
    graph: MultiLayerGraph, recover: RecoverFn, test: str
) -> Callable[[np.ndarray], DetectionDecision]:
    """order -> split_layer_test(graph.permute_layers(order), recover), one order at a time.

    A round holds out layers order[-2] (cross-block) and order[-1] (density).
    bias_adjusted_spectral's rounds share one full-graph aggregate. A graph
    the rounds cannot run on is refused in the name of `test`, the caller.
    """
    if graph.T < 3:
        raise ValidationError(f"{test} needs at least 3 layers, got {graph.T}")
    if graph.n % 2 != 0:
        raise ValidationError(f"{test} needs even n, got {graph.n}")
    shared = _bias_adjusted_without(graph) if recover is bias_adjusted_spectral else None

    def split_round(order: np.ndarray) -> DetectionDecision:
        cross, density = int(order[-2]), int(order[-1])
        if shared is not None:
            result = shared((cross, density))
        else:
            result = recover(graph.permute_layers(order).layer_slice(0, graph.T - 2))
        return _decide(graph, result.sigma_hat, cross, density)

    return split_round


def _decide(graph: MultiLayerGraph, sigma_hat: Assignment, cross: int, density: int) -> DetectionDecision:
    """The split test's decision from sigma_hat and the two held-out layer positions."""
    rho_hat = estimate_density(graph.layer_slice(density, density + 1).edges, graph.n)
    cross_layer = graph.layer_slice(cross, cross + 1).edges
    labels = sigma_hat.as_array()
    cross_count = int((labels[cross_layer[:, 0] - 1] != labels[cross_layer[:, 1] - 1]).sum())
    cross_mean = 4.0 * cross_count / (graph.n * graph.n)
    if rho_hat == 0.0:
        decision = 0
    else:
        decision = 1 if abs(cross_mean - rho_hat) >= MARGIN_FACTOR * rho_hat else 0
    return DetectionDecision(
        decision=decision,
        rho_hat=rho_hat,
        cross_block_mean=cross_mean,
        shuffle_rounds_used=0,
    )


def default_shuffle_rounds(n: int, rho_hat: float) -> int:
    """Heuristic round count ~ log(n^2 * rho_hat), floored at 1."""
    return max(1, math.ceil(math.log(n * n * rho_hat + 2.0)))


def shuffled_test(
    graph: MultiLayerGraph,
    recover: RecoverFn,
    rounds: Optional[int] = None,
    seed: int = 0,
) -> DetectionDecision:
    """Max of split_layer_test over `rounds` uniform layer permutations.

    Round m permutes layers with the substream (seed, m), so a run with fewer
    rounds is always a prefix of a run with more rounds (monotone decisions).
    With rounds=None the heuristic default based on the unpermuted last
    layer's density is used. The result carries the statistics of the first
    round that decides 1, else those of round 0. With recover set to
    bias_adjusted_spectral the rounds share one full-graph aggregate, with
    decisions identical to recovering on each round's permuted graph.
    """
    if graph.T < 3:
        raise ValidationError(f"shuffled_test needs at least 3 layers, got {graph.T}")
    if rounds is None:
        rho_hat = estimate_density(graph.layer_slice(graph.T - 1, graph.T).edges, graph.n)
        rounds = default_shuffle_rounds(graph.n, rho_hat)
    rounds = _check_size(rounds, "rounds", 1)
    split_round = _split_rounds(graph, recover, "shuffled_test")
    for m in range(rounds):
        outcome = split_round(substream(seed, m).permutation(graph.T))
        if m == 0:
            first = outcome
        if outcome.decision == 1:
            # max over rounds is already decided; later rounds cannot flip it
            return replace(outcome, shuffle_rounds_used=m + 1)
    return replace(first, shuffle_rounds_used=rounds)

import functools
import json
from pathlib import Path

import pytest

from calibrate import PROTOCOLS
from mlsbm import Assignment, MultiLayerGraph

FIXTURES = Path(__file__).parent / "fixtures"


@functools.cache
def fresh(name):
    """One scripts/calibrate.py protocol, run once per session, in its fixture form."""
    return json.loads(json.dumps(PROTOCOLS[name]()))


def parity_even_graph(n, T, sigma_bits, tau_bits):
    """The noiseless tensor containing exactly the parity-even slots."""
    layers = []
    for t in range(T):
        edges = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (sigma_bits[i - 1] + sigma_bits[j - 1] + tau_bits[t]) % 2 == 0:
                    edges.append((i, j))
        layers.append(edges)
    return MultiLayerGraph(n=n, T=T, layers=layers)


@pytest.fixture
def six_edge_instance():
    """n=4, T=2 noiseless fixture: 2 within-pair edges + 4 cross-pair edges."""
    sigma = Assignment((0, 0, 1, 1))
    tau = Assignment((0, 1))
    graph = parity_even_graph(4, 2, sigma.labels, tau.labels)
    return graph, sigma, tau

import functools
import itertools
import json
import os
import time
import tracemalloc
from pathlib import Path

import pytest

from calibrate import PROTOCOLS
from mlsbm import Assignment, MultiLayerGraph, SizeGuardError, experiments

FIXTURES = Path(__file__).parent / "fixtures"


@functools.cache
def fresh(name):
    """One scripts/calibrate.py protocol, run once per session, in its fixture form."""
    return json.loads(json.dumps(PROTOCOLS[name]()))


def peak_while_refusing(call, graph, match=None) -> int:
    """Peak traced bytes while call(graph) raises SizeGuardError."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=match):
            call(graph)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spare_cpus(patch, count):
    """Let this process run on count + 1 CPUs.

    A study of count + 2 units or more then forks count helpers.
    """
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(count + 1)))


def assert_no_child_left():
    """Fail if this process has a child, running or unreaped."""
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process is left behind: waitpid gave {left}")


def sample_in_caller_only(patch, error):
    """Make the studies' sampler raise error in forked helpers.

    Samples in the calling process are slowed, so that helpers take units.
    """
    caller, sample = os.getpid(), experiments.sample_planted

    def sample_here(params, seed):
        if os.getpid() != caller:
            raise error(f"refused in a helper at seed {seed}")
        time.sleep(0.05)
        return sample(params, seed)

    patch.setattr(experiments, "sample_planted", sample_here)


def balanced_assignments(m):
    """Every balanced labelling of m items, ascending in label order.

    Zero positions chosen in lexicographic order give the label rows in
    ascending order.
    """
    return [
        Assignment(tuple(0 if k in zeros else 1 for k in range(m)))
        for zeros in itertools.combinations(range(m), m // 2)
    ]


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

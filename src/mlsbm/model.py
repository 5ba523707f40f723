"""Balanced two-community multilayer graph model: types, sampling, storage.

A planted instance hides one balanced node labelling sigma shared by all
layers and one balanced layer-type labelling tau. The slot (i, j, t) with
i < j holds an edge with probability 3*rho/2 when sigma(i) + sigma(j) + tau(t)
is even and rho/2 when it is odd, independently across slots. The null model
fills every slot independently with probability rho. Layers are simple
undirected graphs stored as sorted edge lists with 1-based node indices.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import SizeGuardError, ValidationError
from .seeding import (
    _bulk_substreams,
    _check_substream_count,
    _pcg64_doubles,
    _reseed_each,
    substream,
)

MAX_DENSITY = 2.0 / 3.0
FORMAT_HEADER = "mlsbm-edges v1"

# Per-slot Bernoulli fallback below this node count; block-binomial counts
# plus distinct-pair unranking at or above it (needed for layer counts ~1e4).
_SPARSE_MIN_NODES = 64

# Substream tags, fixed forever: changing them changes every sampled instance.
_SIGMA_STREAM = 0
_TAU_STREAM = 1
_LAYER_STREAM = 2

_ENUM_MAX_ITEMS = 20

# A first draw within this relative distance below numpy's empty-layer bound
# still goes to numpy (see _empty_bound).
_SCREEN_MARGIN = 1e-9

# Shared read-only empty layer: most layers of a sparse cell draw no edge.
_NO_EDGES = np.empty((0, 2), dtype=np.int64)
_NO_EDGES.setflags(write=False)


def _check_even(value, name: str, minimum: int) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum or value % 2 != 0:
        raise ValidationError(f"{name} must be an even integer >= {minimum}, got {value}")
    return value


def _check_rho(rho) -> float:
    rho = float(rho)
    if not (0.0 < rho < MAX_DENSITY):
        raise ValidationError(f"rho must lie strictly inside (0, {MAX_DENSITY:.6g}), got {rho}")
    return rho


def _as_bits(values, name: str) -> tuple[int, ...]:
    try:
        bits = tuple(map(int, values))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a sequence of bits") from exc
    if not set(bits) <= {0, 1}:
        raise ValidationError(f"{name} entries must all be 0 or 1")
    return bits


@dataclass(frozen=True)
class MlsbmParams:
    """Model parameters: node count, layer count, overall density scale.

    Both counts must be even (balanced labellings need even sizes) and rho
    must satisfy 0 < rho < 2/3 so that 3*rho/2 is a valid edge probability.
    """

    n: int
    T: int
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "n", _check_even(self.n, "n", 2))
        object.__setattr__(self, "T", _check_even(self.T, "T", 2))
        object.__setattr__(self, "rho", _check_rho(self.rho))


@dataclass(frozen=True)
class Assignment:
    """A balanced binary labelling: exactly half the entries are 1."""

    labels: tuple[int, ...]

    def __post_init__(self):
        bits = _as_bits(self.labels, "labels")
        if len(bits) == 0 or len(bits) % 2 != 0:
            raise ValidationError(f"labels length must be even and positive, got {len(bits)}")
        if sum(bits) != len(bits) // 2:
            raise ValidationError(
                f"labels must be balanced: expected {len(bits) // 2} ones, got {sum(bits)}"
            )
        object.__setattr__(self, "labels", bits)

    @property
    def size(self) -> int:
        return len(self.labels)

    def as_array(self) -> np.ndarray:
        return np.array(self.labels, dtype=np.int8)

    def flipped(self) -> "Assignment":
        return Assignment(tuple(1 - b for b in self.labels))

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.labels)

    @classmethod
    def from_bitstring(cls, text: str) -> "Assignment":
        if not text or any(c not in "01" for c in text):
            raise ValidationError(f"bitstring must be non-empty over {{0,1}}, got {text!r}")
        return cls(tuple(int(c) for c in text))


def _validate_layer_edges(edges: np.ndarray, n: int, where: str) -> np.ndarray:
    try:
        edges = np.asarray(edges, dtype=np.int64)
    except OverflowError as exc:
        raise ValidationError(f"{where}: node index outside the int64 range") from exc
    if edges.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValidationError(f"{where}: edge array must have shape (m, 2)")
    i, j = edges[:, 0], edges[:, 1]
    if (i < 1).any() or (j > n).any():
        raise ValidationError(f"{where}: node indices must lie in [1, {n}]")
    if (i >= j).any():
        raise ValidationError(f"{where}: edges must satisfy i < j (no self-loops)")
    if len(edges) > 1:
        # Row-to-row lexicographic comparison: no key arithmetic to overflow int64.
        ascending = (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))
        if not ascending.all():
            raise ValidationError(f"{where}: edges must be sorted by (i, j) without duplicates")
    edges = edges.copy()
    edges.setflags(write=False)
    return edges


@dataclass(frozen=True, eq=False)
class MultiLayerGraph:
    """Edge lists of T simple undirected layers over n shared nodes.

    Nodes are 1-based. Each layer is an int64 array of shape (m_t, 2) holding
    rows (i, j) with i < j, sorted lexicographically, free of duplicates.
    """

    n: int
    T: int
    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValidationError(f"n must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.T, (int, np.integer)) or self.T < 1:
            raise ValidationError(f"T must be an integer >= 1, got {self.T!r}")
        if len(self.layers) != self.T:
            raise ValidationError(f"expected {self.T} layers, got {len(self.layers)}")
        checked = tuple(
            _validate_layer_edges(layer, self.n, f"layer {t + 1}")
            for t, layer in enumerate(self.layers)
        )
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "T", int(self.T))
        object.__setattr__(self, "layers", checked)

    # The sampler's sorted (E, 2) edge table and its layer ids, of which
    # `layers` are views; None for graphs built any other way.
    _edge_table = None

    @classmethod
    def _from_checked(
        cls, n: int, layers: tuple[np.ndarray, ...], edge_table=None
    ) -> "MultiLayerGraph":
        """Wrap layers taken from a validated graph without checking them again.

        Validated layers are read-only, so the new graph can share them.
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "T", len(layers))
        object.__setattr__(graph, "layers", layers)
        if edge_table is not None:
            object.__setattr__(graph, "_edge_table", edge_table)
        return graph

    def __eq__(self, other):
        if not isinstance(other, MultiLayerGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.T == other.T
            and all(np.array_equal(a, b) for a, b in zip(self.layers, other.layers))
        )

    @property
    def total_edges(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def layer_slice(self, start: int, stop: int) -> "MultiLayerGraph":
        """Sub-graph keeping layers [start, stop) (0-based layer positions, start < stop)."""
        if not (0 <= start < stop <= self.T):
            raise ValidationError(f"layer slice [{start}, {stop}) out of range for T={self.T}")
        return MultiLayerGraph._from_checked(self.n, self.layers[start:stop])

    def permute_layers(self, order: Sequence[int]) -> "MultiLayerGraph":
        """Reorder layers; `order[k]` is the old position placed at new position k."""
        order = [int(o) for o in order]
        if sorted(order) != list(range(self.T)):
            raise ValidationError("order must be a permutation of 0..T-1")
        return MultiLayerGraph._from_checked(self.n, tuple(self.layers[o] for o in order))


@dataclass(frozen=True)
class PlantedInstance:
    """A sampled graph together with the hidden labels that produced it."""

    graph: MultiLayerGraph
    sigma: Assignment
    tau: Assignment

    def __post_init__(self):
        if self.sigma.size != self.graph.n:
            raise ValidationError(
                f"sigma has {self.sigma.size} labels but the graph has {self.graph.n} nodes"
            )
        if self.tau.size != self.graph.T:
            raise ValidationError(
                f"tau has {self.tau.size} labels but the graph has {self.graph.T} layers"
            )


def edge_probability(sigma_i: int, sigma_j: int, tau_t: int, rho: float) -> float:
    """Slot edge probability: 3*rho/2 on even parity, rho/2 on odd.

    Parity is sigma_i + sigma_j + tau_t; even parity marks the dense slots
    (within-community in assortative layers, cross-community in
    disassortative ones).
    """
    for name, bit in (("sigma_i", sigma_i), ("sigma_j", sigma_j), ("tau_t", tau_t)):
        if bit not in (0, 1):
            raise ValidationError(f"{name} must be 0 or 1, got {bit!r}")
    rho = _check_rho(rho)
    if (sigma_i + sigma_j + tau_t) % 2 == 0:
        return 1.5 * rho
    return 0.5 * rho


@functools.lru_cache(maxsize=64)
def _all_pairs(n: int) -> np.ndarray:
    """All node pairs (i < j, 1-based) in lexicographic order; cached readonly."""
    pairs = np.array(list(itertools.combinations(range(1, n + 1), 2)), dtype=np.int64)
    pairs.setflags(write=False)
    return pairs


def _unrank_within(ranks: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Map lexicographic pair ranks to (i, j) pairs of one sorted member list."""
    m = len(members)
    firsts = np.arange(m, dtype=np.int64)
    # cum[a] = number of pairs whose first position is < a
    cum = firsts * (m - 1) - firsts * (firsts - 1) // 2
    a = np.searchsorted(cum, ranks, side="right") - 1
    b = ranks - cum[a] + a + 1
    return np.column_stack([members[a], members[b]])


def _empty_bound(count: int, prob: float) -> float:
    """Largest first double for which binomial(count, prob) surely draws 0, or -1.

    numpy's inversion branch (0 < p <= 0.5 and p * count <= 30) draws one
    double U and returns 0 iff U <= (1 - p) ** count, computed as
    exp(count * log(1 - p)). The margin leaves ulp-level doubt to numpy. A
    zero-slot block draws nothing, BTPE (p * count > 30) draws a varying
    number of doubles and p > 0.5 inverts 1 - p, so none of them is screened.
    """
    if count == 0 or not 0.0 < prob <= 0.5 or prob * count > 30.0:
        return -1.0
    return math.exp(count * math.log(1.0 - prob)) * (1.0 - _SCREEN_MARGIN)


class _LayerSampler(NamedTuple):
    """One instance's layer draws, recorded as slot codes.

    A slot code ranks a node pair among the layer's slots, with the blocks
    laid end to end in draw order. `draw(t, gen, codes)` makes layer t's
    numpy calls and appends its codes, and `decode(codes)` maps any codes
    to (i, j) rows in one pass. `bounds[b][types[t]]` is block b's
    _empty_bound for layer t; None means no layer is screened.
    """

    types: np.ndarray
    draw: Callable[[int, np.random.Generator, array], None]
    decode: Callable[[np.ndarray], np.ndarray]
    bounds: np.ndarray | None = None


def _dense_sampler(n: int, types: np.ndarray, slot_probs: Sequence) -> _LayerSampler:
    """Per-slot uniforms against slot_probs[type]; a code is the index into _all_pairs(n)."""
    pairs = _all_pairs(n)

    def draw(t: int, gen: np.random.Generator, codes: array) -> None:
        codes.extend(np.flatnonzero(gen.random(len(pairs)) < slot_probs[types[t]]).tolist())

    return _LayerSampler(types, draw, lambda codes: pairs[codes])


def _block_sampler(types: np.ndarray, counts: Sequence[int], probs: Sequence, decode):
    """Per block of counts[b] slots, a binomial number k of them, then k distinct slot ranks.

    probs[type][b] is block b's slot probability in a layer of that type.
    """
    offsets = np.cumsum([0, *counts[:-1]]).tolist()

    def draw(t: int, gen: np.random.Generator, codes: array) -> None:
        for count, offset, prob in zip(counts, offsets, probs[types[t]]):
            if count:
                k = int(gen.binomial(count, prob))
                if k:
                    codes.extend((gen.choice(count, size=k, replace=False) + offset).tolist())

    bounds = np.array([[_empty_bound(c, p[b]) for p in probs] for b, c in enumerate(counts)])
    return _LayerSampler(types, draw, decode, bounds)


def _planted_sampler(n: int, rho: float, sigma: np.ndarray, tau: np.ndarray) -> _LayerSampler:
    # (p_within, p_cross) for tau bit 0 (assortative) and 1 (disassortative).
    probs = ((1.5 * rho, 0.5 * rho), (0.5 * rho, 1.5 * rho))
    if n < _SPARSE_MIN_NODES:
        pairs = _all_pairs(n)
        even = (sigma[pairs[:, 0] - 1] + sigma[pairs[:, 1] - 1]) % 2 == 0
        slot_probs = tuple(np.where(even, p_within, p_cross) for p_within, p_cross in probs)
        return _dense_sampler(n, tau, slot_probs)
    zeros = np.flatnonzero(sigma == 0).astype(np.int64) + 1
    ones = np.flatnonzero(sigma == 1).astype(np.int64) + 1
    n0, n1 = len(zeros), len(ones)
    pairs0 = n0 * (n0 - 1) // 2
    count_within = pairs0 + n1 * (n1 - 1) // 2

    def decode(codes: np.ndarray) -> np.ndarray:
        edges = np.empty((len(codes), 2), dtype=np.int64)
        for members, low, high in ((zeros, 0, pairs0), (ones, pairs0, count_within)):
            sel = (codes >= low) & (codes < high)
            edges[sel] = _unrank_within(codes[sel] - low, members)
        sel = codes >= count_within
        if sel.any():
            first, second = np.divmod(codes[sel] - count_within, n1)
            a, b = zeros[first], ones[second]
            edges[sel, 0], edges[sel, 1] = np.minimum(a, b), np.maximum(a, b)
        return edges

    return _block_sampler(tau, (count_within, n0 * n1), probs, decode)


def _null_sampler(n: int, T: int, rho: float) -> _LayerSampler:
    types = np.broadcast_to(np.int8(0), (T,))  # one layer type, no T-sized allocation
    if n < _SPARSE_MIN_NODES:
        return _dense_sampler(n, types, (rho,))
    members = np.arange(1, n + 1, dtype=np.int64)
    return _block_sampler(
        types, (n * (n - 1) // 2,), ((rho,),), lambda codes: _unrank_within(codes, members)
    )


def _sample_layers(n: int, T: int, seed: int, sampler: _LayerSampler) -> MultiLayerGraph:
    """Draw layer t with substream (seed, layer-tag, t) for every t.

    A layer whose first PCG64 doubles fall under every block's empty bound
    draws nothing, so it skips numpy; the first such layer of each call is
    drawn through numpy anyway and must come out empty. Every other layer
    re-seeds one generator and appends its slot codes. One pass then decodes
    and sorts all codes, and the layers are read-only views of that table,
    so the graph skips re-validation.
    """
    gen, blocks = _bulk_substreams(seed, _LAYER_STREAM, T)
    codes = array("q")
    sizes = np.zeros(T, dtype=np.int64)
    unchecked = True
    for start, states in blocks:
        drawn = np.arange(len(states[0]))
        if sampler.bounds is not None:
            types = sampler.types[start : start + len(drawn)]
            doubles = _pcg64_doubles(states, len(sampler.bounds))
            empty = np.logical_and.reduce([d <= b[types] for d, b in zip(doubles, sampler.bounds)])
            if unchecked and empty.any():
                probe = array("q")
                for k in _reseed_each(gen, states, np.flatnonzero(empty)[:1]):
                    sampler.draw(start + k, gen, probe)
                if probe:
                    raise RuntimeError("a layer screened as empty drew edges through numpy")
                unchecked = False
            drawn = drawn[~empty]
        for k in _reseed_each(gen, states, drawn):
            before = len(codes)
            sampler.draw(start + k, gen, codes)
            sizes[start + k] = len(codes) - before
    edges = sampler.decode(np.frombuffer(codes, dtype=np.int64))
    del codes  # freed before the sort allocates
    return _graph_from_edges(n, edges, sizes)


def _graph_from_edges(n: int, edges: np.ndarray, sizes: np.ndarray) -> MultiLayerGraph:
    """Sort decoded (i, j) rows, grouped by layer, into one read-only (t, i, j) table."""
    layer_ids = np.repeat(np.arange(len(sizes)), sizes)
    table = edges[np.lexsort((edges[:, 1], edges[:, 0], layer_ids))]
    table.setflags(write=False)
    layer_ids.setflags(write=False)
    layers = [_NO_EDGES] * len(sizes)
    nonempty = np.flatnonzero(sizes)
    ends = np.cumsum(sizes)[nonempty]
    for t, start, end in zip(nonempty.tolist(), (ends - sizes[nonempty]).tolist(), ends.tolist()):
        layers[t] = table[start:end]
    return MultiLayerGraph._from_checked(n, tuple(layers), (table, layer_ids))


def sample_conditional(
    n: int,
    T: int,
    rho: float,
    sigma_bits: Sequence[int],
    tau_bits: Sequence[int],
    seed: int,
) -> MultiLayerGraph:
    """Sample a graph with fixed labels; balance and evenness are NOT required.

    This is the low-level conditional sampler: sigma_bits and tau_bits may be
    any bit sequences of lengths n and T (e.g. a single layer with tau = (0,)).
    """
    for name, size in (("n", n), ("T", T)):
        if not isinstance(size, (int, np.integer)) or isinstance(size, bool):
            raise ValidationError(f"{name} must be an integer, got {size!r}")
    n, T = int(n), int(T)
    sigma = _as_bits(sigma_bits, "sigma_bits")
    tau = _as_bits(tau_bits, "tau_bits")
    if len(sigma) != n or n < 2:
        raise ValidationError(f"sigma_bits must have length n >= 2, got n={n}, len={len(sigma)}")
    if len(tau) != T or T < 1:
        raise ValidationError(f"tau_bits must have length T >= 1, got T={T}, len={len(tau)}")
    rho = _check_rho(rho)
    sampler = _planted_sampler(n, rho, np.array(sigma, dtype=np.int8), np.array(tau, dtype=np.int8))
    return _sample_layers(n, T, seed, sampler)


def _sample_balanced(m: int, gen: np.random.Generator) -> Assignment:
    order = gen.permutation(m)
    labels = np.zeros(m, dtype=np.int8)
    labels[order[: m // 2]] = 1
    return Assignment(tuple(labels.tolist()))


def sample_planted(params: MlsbmParams, seed: int) -> PlantedInstance:
    """Draw sigma and tau uniformly from the balanced labellings, then sample edges.

    Pure function of (params, seed): layer t always consumes substream
    (seed, layer-tag, t), so the output is reproducible and layers could be
    sampled in parallel.
    """
    _check_substream_count(params.T)  # before tau's permutation of T items
    sigma = _sample_balanced(params.n, substream(seed, _SIGMA_STREAM))
    tau = _sample_balanced(params.T, substream(seed, _TAU_STREAM))
    sampler = _planted_sampler(params.n, params.rho, sigma.as_array(), tau.as_array())
    graph = _sample_layers(params.n, params.T, seed, sampler)
    return PlantedInstance(graph=graph, sigma=sigma, tau=tau)


def sample_null(params: MlsbmParams, seed: int) -> MultiLayerGraph:
    """Sample the null model: every slot independently Bernoulli(rho)."""
    return _sample_layers(params.n, params.T, seed, _null_sampler(params.n, params.T, params.rho))


def enumerate_assignments(m: int) -> list[Assignment]:
    """All balanced assignments of m items, ascending in label-tuple order.

    Guarded at m <= 20 (binom(20, 10) = 184756 vectors); the order is pinned
    because MLE tie-breaking references it.
    """
    m = _check_even(m, "m", 2)
    if m > _ENUM_MAX_ITEMS:
        raise SizeGuardError(f"enumerate_assignments is capped at m={_ENUM_MAX_ITEMS}, got {m}")
    out = []
    # Zero positions chosen in lexicographic order produce label tuples in
    # ascending lexicographic order (zeros early = smaller tuple).
    for zero_positions in itertools.combinations(range(m), m // 2):
        labels = [1] * m
        for p in zero_positions:
            labels[p] = 0
        out.append(Assignment(tuple(labels)))
    return out


def write_graph(
    path: Union[str, Path],
    graph: Union[MultiLayerGraph, PlantedInstance],
    sigma: Assignment | None = None,
    tau: Assignment | None = None,
) -> None:
    """Write the text edge format; planted labels go into footer lines.

    Format: header "mlsbm-edges v1 n=<n> T=<T>", one line "t i j" per edge
    (1-based, i < j) sorted by (t, i, j), then optional footers
    "sigma <bits>" and "tau <bits>" (both or neither).
    """
    if isinstance(graph, PlantedInstance):
        if sigma is None:
            sigma = graph.sigma
        if tau is None:
            tau = graph.tau
        graph = graph.graph
    if (sigma is None) != (tau is None):
        raise ValidationError("sigma and tau footers must be written together")
    lines = [f"{FORMAT_HEADER} n={graph.n} T={graph.T}"]
    for t, layer in enumerate(graph.layers, start=1):
        for i, j in layer:
            lines.append(f"{t} {i} {j}")
    if sigma is not None:
        if sigma.size != graph.n or tau.size != graph.T:
            raise ValidationError("footer label lengths must match the graph dimensions")
        lines.append(f"sigma {sigma.bitstring()}")
        lines.append(f"tau {tau.bitstring()}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_graph(path: Union[str, Path]) -> Union[MultiLayerGraph, PlantedInstance]:
    """Parse the text edge format; returns a PlantedInstance when footers exist."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not an ASCII file ({exc.reason} at byte {exc.start})") from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty file")
    header = lines[0].split()
    if (
        len(header) != 4
        or " ".join(header[:2]) != FORMAT_HEADER
        or not header[2].startswith("n=")
        or not header[3].startswith("T=")
    ):
        raise ValidationError(f"{path}: bad header {lines[0]!r}")
    try:
        n = int(header[2][2:])
        T = int(header[3][2:])
    except ValueError as exc:
        raise ValidationError(f"{path}: bad header numbers") from exc
    per_layer: list[list[tuple[int, int]]] = [[] for _ in range(T)]
    sigma_bits: str | None = None
    tau_bits: str | None = None
    last_t = 0
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "sigma":
            sigma_bits = parts[1] if len(parts) == 2 else None
            if sigma_bits is None:
                raise ValidationError(f"{path}: malformed sigma footer")
            continue
        if parts[0] == "tau":
            tau_bits = parts[1] if len(parts) == 2 else None
            if tau_bits is None:
                raise ValidationError(f"{path}: malformed tau footer")
            continue
        if sigma_bits is not None or tau_bits is not None:
            raise ValidationError(f"{path}: edge lines after footers")
        if len(parts) != 3:
            raise ValidationError(f"{path}: bad edge line {ln!r}")
        try:
            t, i, j = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"{path}: bad edge line {ln!r}") from exc
        if not (1 <= t <= T):
            raise ValidationError(f"{path}: layer index {t} outside [1, {T}]")
        if t < last_t:
            raise ValidationError(f"{path}: edges must be sorted by layer")
        last_t = t
        per_layer[t - 1].append((i, j))
    graph = MultiLayerGraph(n, T, per_layer)
    if (sigma_bits is None) != (tau_bits is None):
        raise ValidationError(f"{path}: sigma and tau footers must appear together")
    if sigma_bits is not None:
        sigma = Assignment.from_bitstring(sigma_bits)
        tau = Assignment.from_bitstring(tau_bits)
        return PlantedInstance(graph=graph, sigma=sigma, tau=tau)
    return graph

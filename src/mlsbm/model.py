"""Balanced two-community multilayer graph model: types, sampling, storage.

A planted instance hides one balanced node labelling sigma shared by all
layers and one balanced layer-type labelling tau. The slot (i, j, t) with
i < j holds an edge with probability 3*rho/2 when sigma(i) + sigma(j) + tau(t)
is even and rho/2 when it is odd, independently across slots. The null model
fills every slot independently with probability rho; it is the same layer
sampler with one community and one layer type. Layers are simple undirected
graphs with 1-based node indices. A graph stores all of them as one edge
table sorted by (layer, i, j), plus that table's layer column.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import SizeGuardError, ValidationError
from .seeding import (
    MAX_SUBSTREAMS,
    _M32,
    _bulk_substreams,
    _check_substream_count,
    _joined,
    _pcg64_outputs,
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

# A binomial draw within this relative distance of a replayed inversion
# threshold still goes to numpy (see _replay).
_SCREEN_MARGIN = 1e-9

def _check_even(value, name: str, minimum: int) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum or value % 2 != 0:
        raise ValidationError(f"{name} must be an even integer >= {minimum}, got {value}")
    return value


def _check_real(value, name: str) -> float:
    """value as a float; anything but a real number (a bool, str, bytes or None) is refused."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_rho(rho) -> float:
    rho = _check_real(rho, "rho")
    if not (0.0 < rho < MAX_DENSITY):
        raise ValidationError(f"rho must lie strictly inside (0, {MAX_DENSITY:.6g}), got {rho}")
    return rho


def _as_bits(values, name: str) -> np.ndarray:
    """values as an int8 array of 0/1 bits; anything else is refused."""
    try:
        bits = tuple(map(int, values))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a sequence of bits") from exc
    if not set(bits) <= {0, 1}:
        raise ValidationError(f"{name} entries must all be 0 or 1")
    return np.array(bits, dtype=np.int8)


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


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Assignment:
    """A balanced binary labelling: exactly half the entries are 1.

    Stored as one read-only int8 array of the bits; `labels` builds their
    tuple each time it is read.
    """

    _bits: np.ndarray

    def __init__(self, labels: Iterable[int]):
        bits = _as_bits(labels, "labels")
        if len(bits) == 0 or len(bits) % 2 != 0:
            raise ValidationError(f"labels length must be even and positive, got {len(bits)}")
        ones = int(bits.sum())
        if ones != len(bits) // 2:
            raise ValidationError(
                f"labels must be balanced: expected {len(bits) // 2} ones, got {ones}"
            )
        bits.setflags(write=False)
        object.__setattr__(self, "_bits", bits)

    @classmethod
    def _from_array(cls, bits: np.ndarray) -> "Assignment":
        """The labelling of a balanced int8 0/1 array, kept as it is: no per-item re-check."""
        labels = object.__new__(cls)
        bits.setflags(write=False)
        object.__setattr__(labels, "_bits", bits)
        return labels

    def __reduce__(self):
        return Assignment._from_array, (self._bits,)  # unpickled read-only, as built

    def __eq__(self, other):
        if not isinstance(other, Assignment):
            return NotImplemented
        return np.array_equal(self._bits, other._bits)

    def __hash__(self):
        return hash(self._bits.tobytes())

    def __repr__(self):
        return f"Assignment(labels={self.labels!r})"

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(self._bits.tolist())

    @property
    def size(self) -> int:
        return len(self._bits)

    def as_array(self) -> np.ndarray:
        """The labels as the read-only int8 array the labelling is stored as."""
        return self._bits

    def flipped(self) -> "Assignment":
        return Assignment._from_array(np.subtract(1, self._bits, dtype=np.int8))

    def bitstring(self) -> str:
        return (self._bits + ord("0")).tobytes().decode("ascii")

    @classmethod
    def from_bitstring(cls, text: str) -> "Assignment":
        if not text or any(c not in "01" for c in text):
            raise ValidationError(f"bitstring must be non-empty over {{0,1}}, got {text!r}")
        return cls(text)


def _check_caps(n: int, T: int) -> None:
    """Refuse a sampler more than 2**32 nodes or layers before anything of that size exists."""
    if n > MAX_SUBSTREAMS:
        raise SizeGuardError(f"node counts are capped at {MAX_SUBSTREAMS}, got {n}")
    _check_substream_count(T)


def _check_size(value, name: str, minimum: int) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_table(n: int, edges: np.ndarray, layer_ids: np.ndarray) -> None:
    """The one edge validator: 1 <= i < j <= n, rows strictly increasing in (t, i, j).

    layer_ids must be sorted. The first faulty layer is reported, range before
    self-loops before order, as a layer-by-layer check would. Each row is
    compared with its predecessor: no key arithmetic, so no int64 overflow.
    """
    i, j, t = edges[:, 0], edges[:, 1], layer_ids
    out_of_range = (i < 1) | (j > n)
    loop = i >= j
    unsorted = np.zeros(len(edges), dtype=bool)
    ascending = (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))
    unsorted[1:] = (t[1:] == t[:-1]) & ~ascending
    bad = np.flatnonzero(out_of_range | loop | unsorted)
    if not len(bad):
        return
    layer = int(t[bad[0]])
    rows = slice(*np.searchsorted(t, [layer, layer + 1]))
    for fault, message in (
        (out_of_range, f"node indices must lie in [1, {n}]"),
        (loop, "edges must satisfy i < j (no self-loops)"),
        (unsorted, "edges must be sorted by (i, j) without duplicates"),
    ):
        if fault[rows].any():
            raise ValidationError(f"layer {layer + 1}: {message}")


def _edge_table(n: int, layers: Iterable[tuple[int, object]]) -> tuple[np.ndarray, np.ndarray]:
    """The checked (edges, layer_ids) table of (0-based layer, (i, j) rows) pairs in layer order.

    The first faulty layer is reported, as a layer-by-layer check would: an
    int64 overflow or a bad shape in layer t is reported only once the layers
    before t pass.
    """
    ids, rows = [], []

    def fault(t: int, message: str) -> ValidationError:
        _edge_table(n, zip(ids, rows))  # raises the first fault of an earlier layer, if any
        return ValidationError(f"layer {t + 1}: {message}")

    for t, layer in layers:
        try:
            layer_rows = np.asarray(layer, dtype=np.int64)
        except OverflowError as exc:
            raise fault(t, "node index outside the int64 range") from exc
        if layer_rows.size and (layer_rows.ndim != 2 or layer_rows.shape[1] != 2):
            raise fault(t, "edge array must have shape (m, 2)")
        ids.append(t)
        rows.append(layer_rows.reshape(-1, 2))
    edges = np.concatenate([np.empty((0, 2), dtype=np.int64), *rows])
    layer_ids = np.repeat(np.array(ids, dtype=np.int64), [len(r) for r in rows])
    _check_table(n, edges, layer_ids)
    return edges, layer_ids


@dataclass(frozen=True, eq=False, init=False)
class MultiLayerGraph:
    """T simple undirected layers over n shared nodes, stored as one edge table.

    `edges` is a read-only int64 array of shape (E, 2) holding every edge
    (i, j) of every layer, 1-based with i < j, and `layer_ids` is its
    read-only 0-based layer column. Rows are sorted by (layer, i, j) and free
    of duplicates. Nothing of size T is stored: `layers` builds T read-only
    views of the table each time it is read.
    """

    n: int
    T: int
    edges: np.ndarray
    layer_ids: np.ndarray

    def __init__(self, n: int, T: int, layers: Sequence):
        """Validate T per-layer edge lists; layers[t] holds layer t's sorted (i, j) rows."""
        n, T = _check_size(n, "n", 2), _check_size(T, "T", 1)
        if len(layers) != T:
            raise ValidationError(f"expected {T} layers, got {len(layers)}")
        _from_table(n, T, *_edge_table(n, enumerate(layers)), self)

    def __reduce__(self):
        return _from_table, (self.n, self.T, self.edges, self.layer_ids)  # unpickled read-only

    def __eq__(self, other):
        if not isinstance(other, MultiLayerGraph):
            return NotImplemented
        return (self.n, self.T) == (other.n, other.T) and all(
            np.array_equal(a, b)
            for a, b in ((self.edges, other.edges), (self.layer_ids, other.layer_ids))
        )

    @property
    def total_edges(self) -> int:
        return len(self.edges)

    @property
    def layers(self) -> tuple[np.ndarray, ...]:
        """Every layer's (m_t, 2) rows as read-only views of `edges`; O(T) per read."""
        return tuple(np.split(self.edges, np.searchsorted(self.layer_ids, np.arange(1, self.T))))

    def layer_slice(self, start: int, stop: int) -> "MultiLayerGraph":
        """Sub-graph keeping layers [start, stop) (0-based layer positions, start < stop)."""
        if not (0 <= start < stop <= self.T):
            raise ValidationError(f"layer slice [{start}, {stop}) out of range for T={self.T}")
        first, last = np.searchsorted(self.layer_ids, [start, stop])
        ids = self.layer_ids[first:last]
        ids = ids - start if start else ids  # a view when the slice starts at layer 0
        return _from_table(self.n, int(stop - start), self.edges[first:last], ids)

    def permute_layers(self, order: Sequence[int]) -> "MultiLayerGraph":
        """Reorder layers; `order[k]` is the old position placed at new position k."""
        order = np.array([int(o) for o in order], dtype=np.int64)
        if not np.array_equal(np.sort(order), np.arange(self.T)):
            raise ValidationError("order must be a permutation of 0..T-1")
        starts = np.searchsorted(self.layer_ids, np.arange(self.T + 1))
        sizes = np.diff(starts)[order]
        # Row r of new layer k is row r - (k's new start) + (its old start).
        shift = starts[order] - (np.cumsum(sizes) - sizes)
        layer_ids = np.repeat(np.arange(self.T), sizes)
        rows = np.arange(len(layer_ids)) + np.repeat(shift, sizes)
        # np.take: ≈10x faster than fancy indexing edges[rows] on an (E, 2) table.
        return _from_table(self.n, self.T, np.take(self.edges, rows, axis=0), layer_ids)


def _from_table(
    n: int, T: int, edges: np.ndarray, layer_ids: np.ndarray, graph: MultiLayerGraph | None = None
) -> MultiLayerGraph:
    """The one table constructor: wraps a valid (t, i, j)-sorted table, made read-only.

    Sampled, permuted and sliced tables are valid by construction, so unchecked.
    `graph` is the instance the public constructor fills in after validating.
    """
    graph = object.__new__(MultiLayerGraph) if graph is None else graph
    edges.setflags(write=False)
    layer_ids.setflags(write=False)
    for name, value in (("n", n), ("T", T), ("edges", edges), ("layer_ids", layer_ids)):
        object.__setattr__(graph, name, value)
    return graph


@dataclass(frozen=True)
class PlantedInstance:
    """A sampled graph together with the hidden labels that produced it."""

    graph: MultiLayerGraph
    sigma: Assignment
    tau: Assignment

    def __post_init__(self):
        _check_label_sizes(self.graph, sigma=self.sigma, tau=self.tau)


def _check_label_sizes(graph: MultiLayerGraph, **labels: Assignment) -> None:
    """Refuse labels whose length is not the graph's: tau labels layers, any other name nodes."""
    for name, a in labels.items():
        size, unit = (graph.T, "layers") if name == "tau" else (graph.n, "nodes")
        if a.size != size:
            raise ValidationError(f"{name} has {a.size} labels but the graph has {size} {unit}")


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


class _ReplayPlan(NamedTuple):
    """How numpy would draw each block with slots, per layer type, for _replay.

    numpy's binomial(count, p) takes its inversion branch when 0 < p <= 0.5
    and p * count <= 30. With q = 1 - p, px = qn = exp(count * log(q)) and
    one double U, it returns X = 0 if U <= px; otherwise it sets X += 1,
    U -= px, px = ((count - X + 1) * p * px) / (X * q) and compares again,
    restarting from a fresh double once X > bound = (int64) min(count,
    count * p + 10 * sqrt(count * p * q + 1)). A layer type with a block
    outside that branch (BTPE, p > 0.5, count = 1, or count >= 2**32) is
    not replayable. The float operations are numpy's own, in its order.
    """

    counts: tuple[int, ...]
    offsets: tuple[int, ...]
    qn: np.ndarray  # (blocks, types); 2.0 where not replayable, so U never passes it
    probs: np.ndarray  # (blocks, types)
    bounds: np.ndarray  # (blocks, types)
    replayable: np.ndarray  # (types,) bool


def _replay_plan(counts: Sequence[int], probs: Sequence) -> _ReplayPlan | None:
    """The _ReplayPlan of blocks counts[b] under probs[type][b]; None if no type replays.

    Zero-slot blocks draw nothing, so they are left out.
    """
    offsets = np.cumsum([0, *counts[:-1]]).tolist()
    blocks = [b for b, count in enumerate(counts) if count]
    qn = np.full((len(blocks), len(probs)), 2.0)
    prob_table = np.zeros_like(qn)
    bounds = np.zeros(qn.shape, dtype=np.int64)
    replayable = np.ones(len(probs), dtype=bool)
    for row, b in enumerate(blocks):
        count = counts[b]
        for kind, p in enumerate(probs):
            prob = p[b]
            if 1 < count < 2**32 and 0.0 < prob <= 0.5 and prob * count <= 30.0:
                q, mean = 1.0 - prob, count * prob
                qn[row, kind] = math.exp(count * math.log(q))
                prob_table[row, kind] = prob
                bounds[row, kind] = int(min(count, mean + 10.0 * math.sqrt(mean * q + 1)))
            else:
                replayable[kind] = False
    if not replayable.any():
        return None
    return _ReplayPlan(
        tuple(counts[b] for b in blocks),
        tuple(offsets[b] for b in blocks),
        qn,
        prob_table,
        bounds,
        replayable,
    )


class _Words:
    """numpy's PCG64 reads for many layers at once, replayed from a table of raw outputs.

    Row k's generator starts at states' k-th entry. `outputs` counts the
    outputs each row has consumed; `has_uint32` and `uinteger` are the high
    half numpy's next_uint32 keeps buffered. Each read takes an index array
    of the rows that read. A read past the table's depth derives a table
    twice as deep.
    """

    def __init__(self, states: tuple[np.ndarray, ...], depth: int):
        self.states = states
        self.outputs = np.zeros(len(states[0]), dtype=np.intp)
        self.has_uint32 = np.zeros(len(states[0]), dtype=bool)
        self.uinteger = np.zeros(len(states[0]), dtype=np.uint64)
        self._derive(depth)

    def _derive(self, depth: int) -> None:
        # One flat table, read at output * L + row: faster than 2-D fancy indexing.
        self.depth, self.raw = depth, _pcg64_outputs(self.states, depth).reshape(-1)

    def _next(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = self.outputs[rows]
        if len(at) and at.max() >= self.depth:
            self._derive(2 * int(at.max()) + 2)
        return at, self.raw[at * len(self.outputs) + rows]

    def double(self, rows: np.ndarray) -> np.ndarray:
        """next_double: a fresh output's top 53 bits."""
        at, word = self._next(rows)
        self.outputs[rows] = at + 1
        return (word >> np.uint64(11)) * 2.0**-53

    def bounded(self, rows: np.ndarray, high, to_numpy: np.ndarray) -> np.ndarray:
        """Lemire's draw on [0, high] (high < 2**32 - 1, scalar or per row), as numpy makes it.

        The uint32 word is the low half of a fresh output, whose high half
        stays buffered, or that buffered half. high = 0 reads no word and
        gives 0. A rejected draw, which numpy would retry, sets to_numpy.
        """
        span = np.asarray(high, dtype=np.uint64) + np.uint64(1)
        reads = span > 1
        buffered = self.has_uint32[rows]
        at, word = self._next(rows)
        u32 = np.where(buffered, self.uinteger[rows], word & _M32)
        fresh = ~buffered & reads
        self.uinteger[rows[fresh]] = word[fresh] >> np.uint64(32)
        self.outputs[rows[fresh]] = at[fresh] + 1
        self.has_uint32[rows] = buffered ^ reads
        m = u32 * span
        to_numpy[rows[(m & _M32) < (np.uint64(2**32) - span) % span]] = True
        return (m >> np.uint64(32)).astype(np.int64)


class _Replayed(NamedTuple):
    """numpy's draws for each layer of a set of generators, replayed from their PCG64 outputs.

    Layers with `to_numpy` set must be drawn through numpy, and layers with
    `deferred` set (a block of more than `most` slots) by a later replay
    without `most`. For the others,
    codes[k] holds layer k's slot codes in draw order, -1 where it draws
    none, `largest` the most slots one of its blocks draws, and `outputs`,
    `has_uint32` and `uinteger` the generator's state after the layer.
    """

    to_numpy: np.ndarray
    deferred: np.ndarray
    largest: np.ndarray
    codes: np.ndarray
    outputs: np.ndarray
    has_uint32: np.ndarray
    uinteger: np.ndarray


def _replay(
    states: tuple[np.ndarray, ...], types: np.ndarray, plan: _ReplayPlan, most: int | None = None
) -> _Replayed:
    """Replay numpy's binomial and choice(count, size=k, replace=False) draws for every layer.

    Each block reads one double and runs numpy's inversion loop. Its k slots
    then come from Floyd's loop, a Lemire draw on [0, j] for j = count - k
    .. count - 1 that takes j instead of a value already chosen, and a
    shuffle, a draw on [0, i] swapping items i and that draw for i = k - 1
    .. 1. (choice's tail shuffle needs k > count // 50 with count > 10000,
    which bound <= 85 rules out.) A layer goes to numpy if its type is not
    replayable, the loop restarts, a Lemire draw is rejected, or a double
    lies within _SCREEN_MARGIN of a threshold it is compared with, which
    leaves ulp-level doubt about exp and log to numpy. A layer with a block
    of more than `most` slots is deferred.
    """
    L = len(types)
    words = _Words(states, 2 * len(plan.counts))
    kinds = types.astype(np.intp)
    to_numpy = ~plan.replayable[kinds]
    deferred = np.zeros(L, dtype=bool)
    largest = np.zeros(L, dtype=np.int64)
    codes = [np.empty((L, 0), dtype=np.int64)]
    for b, (count, offset) in enumerate(zip(plan.counts, plan.offsets)):
        rows = np.flatnonzero(~(to_numpy | deferred))
        kind = kinds[rows]
        u = words.double(rows)
        px = plan.qn[b][kind]
        total = px.copy()  # every px compared so far: the scale of U's rounding
        k = np.zeros(L, dtype=np.int64)
        for X in itertools.count():
            near = np.abs(u - px) <= _SCREEN_MARGIN * total
            to_numpy[rows[near]] = True
            going = ~near & (u > px)
            if X == most:
                deferred[rows[going]] = True
                break
            restart = going & (X >= plan.bounds[b][kind])  # numpy would draw a fresh double
            to_numpy[rows[restart]] = True
            going &= ~restart
            if not going.any():
                break
            rows, kind, u, px, total = (a[going] for a in (rows, kind, u, px, total))
            p = plan.probs[b][kind]
            k[rows] = X + 1
            u -= px
            px = ((count - X) * p * px) / ((X + 1) * (1.0 - p))
            total += px
        k[to_numpy | deferred] = 0
        largest = np.maximum(largest, k)
        chosen = np.full((L, int(k.max(initial=0))), -1, dtype=np.int64)
        for s in range(chosen.shape[1]):
            rows = np.flatnonzero(k > s)
            j = count - k[rows] + s
            drawn = words.bounded(rows, j, to_numpy)
            taken = (chosen[rows, :s] == drawn[:, None]).any(axis=1)
            chosen[rows, s] = np.where(taken, j, drawn)
        for i in range(chosen.shape[1] - 1, 0, -1):
            rows = np.flatnonzero(k > i)
            swap = words.bounded(rows, i, to_numpy)
            chosen[rows, i], chosen[rows, swap] = chosen[rows, swap], chosen[rows, i]
        codes.append(np.where(chosen >= 0, chosen + offset, -1))
        del k, chosen  # freed before the next block allocates
    return _Replayed(
        to_numpy,
        deferred,
        largest,
        np.concatenate(codes, axis=1),
        words.outputs,
        words.has_uint32,
        words.uinteger,
    )


class _LayerSampler(NamedTuple):
    """One instance's layer draws, recorded as slot codes.

    A slot code ranks a node pair among the layer's slots, with the blocks
    laid end to end in draw order. `draw(t, gen, codes)` makes layer t's
    numpy calls and appends its codes, and `decode(codes)` maps any codes
    to (i, j) rows in one pass. With a `plan`, _replay draws the layers it
    can in bulk; None means every layer goes through numpy.
    """

    types: np.ndarray
    draw: Callable[[int, np.random.Generator, array], None]
    decode: Callable[[np.ndarray], np.ndarray]
    plan: _ReplayPlan | None = None


def _block_sampler(types: np.ndarray, counts: Sequence[int], probs: Sequence, decode):
    """Per block of counts[b] slots, a binomial number k of them, then k distinct slot ranks.

    probs[type][b] is block b's slot probability in a layer of that type.
    Layers of a type whose blocks all lie in numpy's inversion branch are
    replayed in bulk instead (see _replay).
    """
    offsets = np.cumsum([0, *counts[:-1]]).tolist()

    def draw(t: int, gen: np.random.Generator, codes: array) -> None:
        for count, offset, prob in zip(counts, offsets, probs[types[t]]):
            if count:
                k = int(gen.binomial(count, prob))
                if k:
                    codes.extend((gen.choice(count, size=k, replace=False) + offset).tolist())

    return _LayerSampler(types, draw, decode, _replay_plan(counts, probs))


def _planted_probs(rho: float) -> tuple[tuple[float, float], ...]:
    """(p_within, p_cross) for tau bit 0 (assortative) and 1 (disassortative)."""
    return ((1.5 * rho, 0.5 * rho), (0.5 * rho, 1.5 * rho))


def _layer_sampler(n: int, sigma: np.ndarray, types: np.ndarray, probs: Sequence) -> _LayerSampler:
    """Layers of type c hold slot (i, j) with probability probs[c] = (p_within, p_cross).

    A slot is within when sigma(i) = sigma(j). The null model is the one
    community, one type case: an all-zero sigma leaves the cross block no
    slots. Below _SPARSE_MIN_NODES each slot compares a uniform with its
    probability, and a code is the slot's index into _all_pairs(n).
    """
    if n < _SPARSE_MIN_NODES:
        pairs = _all_pairs(n)
        within = sigma[pairs[:, 0] - 1] == sigma[pairs[:, 1] - 1]
        slot_probs = tuple(np.where(within, p_within, p_cross) for p_within, p_cross in probs)

        def draw(t: int, gen: np.random.Generator, codes: array) -> None:
            codes.extend(np.flatnonzero(gen.random(len(pairs)) < slot_probs[types[t]]).tolist())

        return _LayerSampler(types, draw, lambda codes: pairs[codes])
    zeros = np.flatnonzero(sigma == 0).astype(np.int64) + 1
    ones = np.flatnonzero(sigma == 1).astype(np.int64) + 1
    n0, n1 = len(zeros), len(ones)
    pairs0 = n0 * (n0 - 1) // 2
    count_within = pairs0 + n1 * (n1 - 1) // 2

    def decode(codes: np.ndarray) -> np.ndarray:
        if not n0 * n1:  # one community, as in the null model: no masks, no copies
            return _unrank_within(codes, zeros if n0 else ones)
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

    return _block_sampler(types, (count_within, n0 * n1), probs, decode)


def _sample_layers(n: int, T: int, seed: int, sampler: _LayerSampler) -> MultiLayerGraph:
    """Draw layer t with substream (seed, layer-tag, t) for every t.

    Without a replay plan every layer re-seeds one generator and draws
    through numpy. With one, _replay_layers replays each state block's
    layers whose blocks draw 0 or 1 slots, then, in one pass, the layers of
    every block it deferred. One pass then decodes and sorts all codes into
    the graph's table, which skips re-validation.
    """
    gen, blocks = _bulk_substreams(seed, _LAYER_STREAM, T)
    drawn: list[tuple[np.ndarray, np.ndarray]] = []  # (codes, each code's layer), any order
    deferred = []
    unprobed = [True, True, True]  # see _replay_layers
    for start, states in blocks:
        layers = np.arange(start, start + len(states[0]), dtype=np.uint32)  # T <= 2**32
        if sampler.plan is None:
            drawn.append(_draw_each(sampler, gen, states, layers, layers - start))
        else:
            later = _replay_layers(sampler, gen, states, layers, 1, drawn, unprobed)
            deferred.append((layers[later], *(half[later] for half in states)))
    if deferred:
        layers, *states = (np.concatenate(column) for column in zip(*deferred))
        _replay_layers(sampler, gen, tuple(states), layers, None, drawn, unprobed)
    codes, tags = (np.concatenate(column) for column in zip(*drawn))
    del drawn
    edges = sampler.decode(codes)
    del codes  # freed before the sort allocates
    tags = tags.astype(np.int64)  # the sort key's memory (see _graph_from_edges)
    return _graph_from_edges(n, T, edges, tags)


def _draw_each(
    sampler: _LayerSampler,
    gen: np.random.Generator,
    states: tuple[np.ndarray, ...],
    layers: np.ndarray,
    picks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw layers[picks], whose generators are states[picks], through numpy.

    Returns the codes and each code's layer.
    """
    codes = array("q")
    sizes = np.zeros(len(picks), dtype=np.int64)
    for row, k in enumerate(_reseed_each(gen, states, picks)):
        before = len(codes)
        sampler.draw(int(layers[k]), gen, codes)
        sizes[row] = len(codes) - before
    return np.frombuffer(codes, dtype=np.int64), np.repeat(layers[picks], sizes)


def _replay_layers(
    sampler: _LayerSampler,
    gen: np.random.Generator,
    states: tuple[np.ndarray, ...],
    layers: np.ndarray,
    most: int | None,
    drawn: list,
    unprobed: list[bool],
) -> np.ndarray:
    """Replay layers (generators `states`), draw those it refuses through numpy, and add all to drawn.

    Returns the mask of the layers with a block of more than `most` slots,
    which the replay defers. While unprobed[c], the first replayed layer
    whose largest block draws c slots (c = 2 meaning 2 or more) is drawn
    through numpy as well, and must match its replay. A function of its
    own, so that its temporaries are freed block by block.
    """
    replay = _replay(states, sampler.types[layers], sampler.plan, most)
    done = ~(replay.to_numpy | replay.deferred)
    for c in range(3):
        if unprobed[c]:
            found = np.flatnonzero(done & (np.minimum(replay.largest, 2) == c))
            if len(found):
                _probe(sampler, gen, states, layers, found[0], replay)
                unprobed[c] = False
    if replay.to_numpy.any():
        drawn.append(_draw_each(sampler, gen, states, layers, np.flatnonzero(replay.to_numpy)))
    replayed = (replay.codes >= 0) & done[:, None]
    drawn.append((replay.codes[replayed], np.repeat(layers, replayed.sum(axis=1))))
    return replay.deferred


def _probe(
    sampler: _LayerSampler,
    gen: np.random.Generator,
    states: tuple[np.ndarray, ...],
    layers: np.ndarray,
    k: int,
    replay: _Replayed,
) -> None:
    """Draw replayed layer layers[k] through numpy; it must match the replay."""
    codes, *_ = _draw_each(sampler, gen, states, layers, np.array([k]))
    expected = {
        "bit_generator": "PCG64",
        "state": _joined(states, k, int(replay.outputs[k])),
        "has_uint32": int(replay.has_uint32[k]),
        "uinteger": int(replay.uinteger[k]),
    }
    replayed = replay.codes[k]
    if codes.tolist() != replayed[replayed >= 0].tolist() or gen.bit_generator.state != expected:
        raise RuntimeError(f"layer {layers[k] + 1} drew differently through numpy than its replay")


def _graph_from_edges(n: int, T: int, edges: np.ndarray, layer_ids: np.ndarray) -> MultiLayerGraph:
    """Sort decoded (i, j) rows of layers layer_ids, in any order, into the graph's (t, i, j) table.

    The rows sort on one unique int64 key (t*n + i - 1)*n + j <= T*n**2,
    5-10x faster than a three-key lexsort, which is kept for T*n**2 >= 2**63.
    The key is built in layer_ids' own memory (the caller's temporary), and
    the sorted layer column is key // n**2, since (i - 1)*n + j < n**2.
    """
    if T * n * n < 2**63:
        key = layer_ids
        key *= n
        key += edges[:, 0]
        key -= 1
        key *= n
        key += edges[:, 1]
        order = np.argsort(key)
        layer_ids = np.take(key, order)
        del key  # freed before the edges are taken
        layer_ids //= n * n
    else:
        order = np.lexsort((edges[:, 1], edges[:, 0], layer_ids))
        layer_ids = layer_ids[order]
    return _from_table(n, T, np.take(edges, order, axis=0), layer_ids)


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
    n, T = _check_size(n, "n", 2), _check_size(T, "T", 1)
    sigma = _as_bits(sigma_bits, "sigma_bits")
    tau = _as_bits(tau_bits, "tau_bits")
    if (len(sigma), len(tau)) != (n, T):
        raise ValidationError(f"sigma_bits and tau_bits need lengths {n} and {T}")
    rho = _check_rho(rho)
    return _sample_layers(n, T, seed, _layer_sampler(n, sigma, tau, _planted_probs(rho)))


def _sample_balanced(m: int, gen: np.random.Generator) -> Assignment:
    order = gen.permutation(m)
    labels = np.zeros(m, dtype=np.int8)
    labels[order[: m // 2]] = 1
    return Assignment._from_array(labels)


def sample_planted(params: MlsbmParams, seed: int) -> PlantedInstance:
    """Draw sigma and tau uniformly from the balanced labellings, then sample edges.

    Pure function of (params, seed): layer t always consumes substream
    (seed, layer-tag, t), so the output is reproducible and layers could be
    sampled in parallel.
    """
    labels = sample_planted_empty(params.n, params.T, seed)
    sigma, tau = labels.sigma.as_array(), labels.tau.as_array()
    sampler = _layer_sampler(params.n, sigma, tau, _planted_probs(params.rho))
    graph = _sample_layers(params.n, params.T, seed, sampler)
    return PlantedInstance(graph=graph, sigma=labels.sigma, tau=labels.tau)


def sample_planted_empty(n: int, T: int, seed: int) -> PlantedInstance:
    """The rho = 0 limit of sample_planted: its sigma and tau for this seed, and no edges."""
    n, T = _check_even(n, "n", 2), _check_even(T, "T", 2)
    _check_caps(n, T)  # before the permutations of n and T items
    sigma = _sample_balanced(n, substream(seed, _SIGMA_STREAM))
    tau = _sample_balanced(T, substream(seed, _TAU_STREAM))
    graph = _from_table(n, T, np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64))
    return PlantedInstance(graph=graph, sigma=sigma, tau=tau)


def sample_null(params: MlsbmParams, seed: int) -> MultiLayerGraph:
    """Sample the null model: every slot independently Bernoulli(rho)."""
    n, T, rho = params.n, params.T, params.rho
    _check_caps(n, T)
    types = np.broadcast_to(np.int8(0), (T,))  # one layer type, no T-sized allocation
    sampler = _layer_sampler(n, np.zeros(n, dtype=np.int8), types, ((rho, rho),))
    return _sample_layers(n, T, seed, sampler)


def _balanced_rows(m: int) -> np.ndarray:
    """All balanced labellings of m items as a (C(m, m/2), m) int8 array, rows ascending.

    Guarded at m <= 20 (binom(20, 10) = 184756 rows); the order is pinned
    because MLE tie-breaking references it.
    """
    m = _check_even(m, "m", 2)
    if m > _ENUM_MAX_ITEMS:
        raise SizeGuardError(f"balanced labellings are enumerated up to m={_ENUM_MAX_ITEMS}, got {m}")
    # Zero positions chosen in lexicographic order produce label rows in
    # ascending lexicographic order (zeros early = smaller row).
    count = math.comb(m, m // 2)
    zeros = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), m // 2)),
        dtype=np.int64,
        count=count * (m // 2),
    ).reshape(count, m // 2)
    rows = np.ones((count, m), dtype=np.int8)
    np.put_along_axis(rows, zeros, 0, axis=1)
    return rows


def write_graph(path: Union[str, Path], graph: Union[MultiLayerGraph, PlantedInstance]) -> None:
    """Write the text edge format; a PlantedInstance's labels go into footer lines.

    Format: header "mlsbm-edges v1 n=<n> T=<T>", one line "t i j" per edge
    (1-based, i < j) sorted by (t, i, j), then, for a PlantedInstance only,
    the footers "sigma <bits>" and "tau <bits>".
    """
    footers = []
    if isinstance(graph, PlantedInstance):
        footers = [f"sigma {graph.sigma.bitstring()}", f"tau {graph.tau.bitstring()}"]
        graph = graph.graph
    lines = [f"{FORMAT_HEADER} n={graph.n} T={graph.T}"]
    layer_numbers = (graph.layer_ids + 1).tolist()
    lines += [f"{t} {i} {j}" for t, (i, j) in zip(layer_numbers, graph.edges.tolist())]
    Path(path).write_text("\n".join(lines + footers) + "\n", encoding="ascii")


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
    _check_substream_count(T)  # the samplers' cap, before any edge is read
    layers: list[tuple[int, list[tuple[int, int]]]] = []  # only the layers with edges
    footers: dict[str, str] = {}
    last_t = 0
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] in ("sigma", "tau"):
            if len(parts) != 2:
                raise ValidationError(f"{path}: malformed {parts[0]} footer")
            if parts[0] in footers:
                raise ValidationError(f"{path}: repeated {parts[0]} footer")
            footers[parts[0]] = parts[1]
            continue
        if footers:
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
        if t > last_t:
            layers.append((t - 1, []))
            last_t = t
        layers[-1][1].append((i, j))
    n, T = _check_size(n, "n", 2), _check_size(T, "T", 1)
    graph = _from_table(n, T, *_edge_table(n, layers))
    if len(footers) == 1:
        raise ValidationError(f"{path}: sigma and tau footers must appear together")
    if footers:
        sigma = Assignment.from_bitstring(footers["sigma"])
        tau = Assignment.from_bitstring(footers["tau"])
        return PlantedInstance(graph=graph, sigma=sigma, tau=tau)
    return graph

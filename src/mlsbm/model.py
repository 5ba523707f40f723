"""Balanced two-community multilayer graph model: types, sampling, storage.

A planted instance hides one balanced node labelling sigma shared by all
layers and one balanced layer-type labelling tau. The slot (i, j, t) with
i < j holds an edge with probability 3*rho/2 when sigma(i) + sigma(j) + tau(t)
is even and rho/2 when it is odd, independently across slots. The null model
fills every slot independently with probability rho. Layers are simple
undirected graphs with 1-based node indices. A graph stores all of them as
one edge table sorted by (layer, i, j), plus that table's layer column.
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
# threshold still goes to numpy (see _replay_plan).
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
    and p * count <= 30: with qn = exp(count * log(1 - p)) and one double U,
    it returns 0 if U <= qn, 1 if U - qn <= px1 = (count * p * qn) / (1 * q),
    q = 1 - p, and more otherwise. `choice(count, size=1, replace=False)`,
    count < 2**32, then runs Floyd's loop once, and its shuffle of one item
    draws nothing: Lemire's bounded draw m = u32 * count from one uint32
    word, retried when m mod 2**32 < (2**32 - count) mod count. A layer
    type with a block outside that branch (BTPE, p > 0.5, count = 1, whose
    inversion may restart, or count >= 2**32) is not replayable. The float
    operations are numpy's own, in its order.
    """

    counts: tuple[int, ...]
    offsets: tuple[int, ...]
    qn: np.ndarray  # (blocks, types); 2.0 where not replayable, so U never passes it
    px1: np.ndarray  # (blocks, types)
    thresholds: tuple[int, ...]  # Lemire's rejection bound per block
    replayable: np.ndarray  # (types,) bool


def _replay_plan(counts: Sequence[int], probs: Sequence) -> _ReplayPlan | None:
    """The _ReplayPlan of blocks counts[b] under probs[type][b]; None if no type replays.

    Zero-slot blocks draw nothing, so they are left out.
    """
    offsets = np.cumsum([0, *counts[:-1]]).tolist()
    blocks = [b for b, count in enumerate(counts) if count]
    qn = np.full((len(blocks), len(probs)), 2.0)
    px1 = np.zeros_like(qn)
    replayable = np.ones(len(probs), dtype=bool)
    for row, b in enumerate(blocks):
        count = counts[b]
        for kind, p in enumerate(probs):
            prob = p[b]
            if 1 < count < 2**32 and 0.0 < prob <= 0.5 and prob * count <= 30.0:
                q = 1.0 - prob
                qn[row, kind] = math.exp(count * math.log(q))
                px1[row, kind] = (count * prob * qn[row, kind]) / (1 * q)
            else:
                replayable[kind] = False
    if not replayable.any():
        return None
    return _ReplayPlan(
        tuple(counts[b] for b in blocks),
        tuple(offsets[b] for b in blocks),
        qn,
        px1,
        tuple((2**32 - counts[b]) % counts[b] for b in blocks),
        replayable,
    )


class _Replayed(NamedTuple):
    """numpy's draws for each layer of a state block, replayed from its PCG64 outputs.

    Layers with `to_numpy` set must be drawn through numpy; for the others,
    codes[k, b] is the slot code block b draws in layer k, or -1 if it draws
    none, and `outputs`, `has_uint32` and `uinteger` are the generator's
    state after the layer: PCG64 outputs consumed and the buffered uint32.
    """

    to_numpy: np.ndarray
    codes: np.ndarray
    outputs: np.ndarray
    has_uint32: np.ndarray
    uinteger: np.ndarray


def _replay(states: tuple[np.ndarray, ...], types: np.ndarray, plan: _ReplayPlan) -> _Replayed:
    """Replay every layer of a state block whose blocks each draw 0 or 1 slots.

    A block's binomial reads one double from a fresh PCG64 output. A block
    with one slot then reads a uint32 word: the low half of a fresh output,
    whose high half stays buffered, or that buffered half. A layer goes to
    numpy if its type is not replayable, a block draws 2 or more slots, a
    Lemire draw is rejected, or a double lies within _SCREEN_MARGIN of a
    threshold, which leaves ulp-level doubt about exp and log to numpy.
    """
    L = len(types)
    raw = _pcg64_outputs(states, 2 * len(plan.counts))
    cols = np.arange(L)
    outputs = np.zeros(L, dtype=np.intp)
    has_uint32 = np.zeros(L, dtype=bool)
    uinteger = np.zeros(L, dtype=np.uint64)
    to_numpy = ~plan.replayable[types]
    codes = np.full((L, len(plan.counts)), -1, dtype=np.int64)
    for b, (count, offset, threshold) in enumerate(zip(plan.counts, plan.offsets, plan.thresholds)):
        qn, px1 = plan.qn[b][types], plan.px1[b][types]
        u = (raw[outputs, cols] >> np.uint64(11)) * 2.0**-53
        outputs += 1
        one = u > qn
        rest = u - qn  # numpy's U -= px on its way to X = 1
        to_numpy |= np.abs(rest) <= _SCREEN_MARGIN * qn
        to_numpy |= one & (np.abs(rest - px1) <= _SCREEN_MARGIN * (qn + px1))
        to_numpy |= one & (rest > px1)
        fresh = one & ~has_uint32
        word = raw[outputs, cols]
        u32 = np.where(has_uint32, uinteger, word & _M32)
        uinteger = np.where(fresh, word >> np.uint64(32), uinteger)
        outputs += fresh
        has_uint32 ^= one
        m = u32 * np.uint64(count % 2**32)  # count >= 2**32 is never replayed
        to_numpy |= one & ((m & _M32) < threshold)
        codes[one, b] = (m[one] >> np.uint64(32)).astype(np.int64) + offset
    return _Replayed(to_numpy, codes, outputs, has_uint32, uinteger)


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


def _dense_sampler(n: int, types: np.ndarray, slot_probs: Sequence) -> _LayerSampler:
    """Per-slot uniforms against slot_probs[type]; a code is the index into _all_pairs(n)."""
    pairs = _all_pairs(n)

    def draw(t: int, gen: np.random.Generator, codes: array) -> None:
        codes.extend(np.flatnonzero(gen.random(len(pairs)) < slot_probs[types[t]]).tolist())

    return _LayerSampler(types, draw, lambda codes: pairs[codes])


def _block_sampler(types: np.ndarray, counts: Sequence[int], probs: Sequence, decode):
    """Per block of counts[b] slots, a binomial number k of them, then k distinct slot ranks.

    probs[type][b] is block b's slot probability in a layer of that type.
    Layers whose blocks draw 0 or 1 slots are replayed in bulk instead (see
    _replay).
    """
    offsets = np.cumsum([0, *counts[:-1]]).tolist()

    def draw(t: int, gen: np.random.Generator, codes: array) -> None:
        for count, offset, prob in zip(counts, offsets, probs[types[t]]):
            if count:
                k = int(gen.binomial(count, prob))
                if k:
                    codes.extend((gen.choice(count, size=k, replace=False) + offset).tolist())

    return _LayerSampler(types, draw, decode, _replay_plan(counts, probs))


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

    Without a replay plan every layer re-seeds one generator and draws
    through numpy; with one, _replay_block draws each state block. One pass
    then decodes and sorts all codes into the graph's table, which skips
    re-validation.
    """
    gen, blocks = _bulk_substreams(seed, _LAYER_STREAM, T)
    codes = array("q")
    sizes = np.zeros(T, dtype=np.int64)
    unprobed = [True, True]  # the call's first replayed layer without / with an edge
    for start, states in blocks:
        if sampler.plan is None:
            _draw_each(sampler, gen, states, start, np.arange(len(states[0])), codes, sizes)
        else:
            _replay_block(sampler, gen, states, start, codes, sizes, unprobed)
    edges = sampler.decode(np.frombuffer(codes, dtype=np.int64))
    del codes  # freed before the sort allocates
    return _graph_from_edges(n, edges, sizes)


def _draw_each(
    sampler: _LayerSampler,
    gen: np.random.Generator,
    states: tuple[np.ndarray, ...],
    start: int,
    picks: np.ndarray,
    codes: array,
    sizes: np.ndarray,
) -> None:
    """Draw layers start + picks through numpy, appending their codes and sizes."""
    for k in _reseed_each(gen, states, picks):
        before = len(codes)
        sampler.draw(start + k, gen, codes)
        sizes[start + k] = len(codes) - before


def _replay_block(
    sampler: _LayerSampler,
    gen: np.random.Generator,
    states: tuple[np.ndarray, ...],
    start: int,
    codes: array,
    sizes: np.ndarray,
    unprobed: list[bool],
) -> None:
    """Replay one state block, draw the layers it leaves through numpy, and append all codes.

    While unprobed[has_edge], the block's first replayed layer with (or
    without) an edge is drawn through numpy as well, and must match its
    replay. The replayed and numpy codes are merged in layer order. A
    function of its own, so that its temporaries are freed block by block.
    """
    L = len(states[0])
    replay = _replay(states, sampler.types[start : start + L], sampler.plan)
    block_sizes = sizes[start : start + L]
    block_sizes[:] = (replay.codes >= 0).sum(axis=1)
    for has_edge in (False, True):
        if unprobed[has_edge]:
            found = np.flatnonzero(~replay.to_numpy & ((block_sizes > 0) == has_edge))
            if len(found):
                _probe(sampler, gen, states, start, found[0], replay)
                unprobed[has_edge] = False
    drawn = array("q")
    _draw_each(sampler, gen, states, start, np.flatnonzero(replay.to_numpy), drawn, sizes)
    from_numpy = np.repeat(replay.to_numpy, block_sizes)
    merged = np.empty(len(from_numpy), dtype=np.int64)
    merged[from_numpy] = np.frombuffer(drawn, dtype=np.int64)
    replayed = replay.codes[~replay.to_numpy]
    merged[~from_numpy] = replayed[replayed >= 0]
    codes.frombytes(merged.view(np.uint8))


def _probe(
    sampler: _LayerSampler,
    gen: np.random.Generator,
    states: tuple[np.ndarray, ...],
    start: int,
    k: int,
    replay: _Replayed,
) -> None:
    """Draw replayed layer start + k through numpy; it must match the replay."""
    drawn = array("q")
    for _ in _reseed_each(gen, states, np.array([k])):
        sampler.draw(start + k, gen, drawn)
    expected = {
        "bit_generator": "PCG64",
        "state": _joined(states, k, int(replay.outputs[k])),
        "has_uint32": int(replay.has_uint32[k]),
        "uinteger": int(replay.uinteger[k]),
    }
    codes = replay.codes[k]
    if drawn.tolist() != codes[codes >= 0].tolist() or gen.bit_generator.state != expected:
        raise RuntimeError(f"layer {start + k + 1} drew differently through numpy than its replay")


def _graph_from_edges(n: int, edges: np.ndarray, sizes: np.ndarray) -> MultiLayerGraph:
    """Sort decoded (i, j) rows, grouped by layer, into the graph's (t, i, j) table.

    The rows sort on one unique int64 key (t*n + i - 1)*n + j <= T*n**2,
    5-10x faster than a three-key lexsort, which is kept for T*n**2 >= 2**63.
    """
    T = len(sizes)
    layer_ids = np.repeat(np.arange(T), sizes)
    if T * n * n < 2**63:
        key = layer_ids * n
        key += edges[:, 0]
        key -= 1
        key *= n
        key += edges[:, 1]
        order = np.argsort(key)
    else:
        order = np.lexsort((edges[:, 1], edges[:, 0], layer_ids))
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
    labels = sample_planted_empty(params.n, params.T, seed)
    sampler = _planted_sampler(params.n, params.rho, labels.sigma.as_array(), labels.tau.as_array())
    graph = _sample_layers(params.n, params.T, seed, sampler)
    return PlantedInstance(graph=graph, sigma=labels.sigma, tau=labels.tau)


def sample_planted_empty(n: int, T: int, seed: int) -> PlantedInstance:
    """The rho = 0 limit of sample_planted: its sigma and tau for this seed, and no edges."""
    _check_substream_count(T)  # before tau's permutation of T items
    sigma = _sample_balanced(n, substream(seed, _SIGMA_STREAM))
    tau = _sample_balanced(T, substream(seed, _TAU_STREAM))
    graph = _from_table(n, T, np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64))
    return PlantedInstance(graph=graph, sigma=sigma, tau=tau)


def sample_null(params: MlsbmParams, seed: int) -> MultiLayerGraph:
    """Sample the null model: every slot independently Bernoulli(rho)."""
    return _sample_layers(params.n, params.T, seed, _null_sampler(params.n, params.T, params.rho))


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
    layer_numbers = (graph.layer_ids + 1).tolist()
    lines += [f"{t} {i} {j}" for t, (i, j) in zip(layer_numbers, graph.edges.tolist())]
    if sigma is not None:
        if sigma.size != graph.n or tau.size != graph.T:
            raise ValidationError("footer label lengths must match the graph dimensions")
        lines += [f"sigma {sigma.bitstring()}", f"tau {tau.bitstring()}"]
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
    _check_substream_count(T)  # the samplers' cap, before any edge is read
    layers: list[tuple[int, list[tuple[int, int]]]] = []  # only the layers with edges
    footers: dict[str, str] = {}
    last_t = 0
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] in ("sigma", "tau"):
            if len(parts) != 2:
                raise ValidationError(f"{path}: malformed {parts[0]} footer")
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

"""Community recovery: exhaustive/local MLE and three spectral aggregators.

The MLE maximizes the parity-even edge count over balanced (sigma, tau). The
spectral methods aggregate layers three ways: squared adjacencies with the
diagonal degree bias removed (works without knowing layer types), the plain
layer sum (a baseline that cancels under balanced layer types), and the
type-signed sum (an oracle that needs the true tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SizeGuardError, ValidationError
from .model import _ENUM_MAX_ITEMS, Assignment, MultiLayerGraph, _balanced_rows
from .model import _check_label_sizes

# Dense n x n matrices are materialized only below this size.
_DENSE_MAX_NODES = 4096
# mle_exhaustive's budgets in margin-table cells; one sigma row holds E + T + 1.
_EXHAUSTIVE_BLOCK = 2**19  # per block of sigma rows (about 14 MB at its peak)
_EXHAUSTIVE_WORK = 10**8  # over the whole search (about 3 s)
_DEGENERATE_EIGEN_TOL = 1e-10
_POWER_TOL = 1e-8
_POWER_MAX_ITER = 1000
_DEFLATE_ROWS = 32  # rows per step of the in-place deflation
# Relabel-then-swap rounds of mle_local_search.
_MAX_ROUNDS = 50


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one recovery method on one graph."""

    sigma_hat: Assignment
    method: str
    tau_hat: Optional[Assignment] = None
    objective: Optional[int] = None
    degenerate: bool = False
    # Objective value after every accepted local-search step; None elsewhere.
    objective_trace: Optional[tuple[int, ...]] = None


def to_json_record(result: RecoveryResult, loss_vs_truth: Optional[float] = None) -> dict:
    """Every field of the result that is not None, labellings as bitstrings.

    `degenerate` is written as `degenerate_flag`.
    """
    record = {f.name: getattr(result, f.name) for f in fields(result)}
    record["degenerate_flag"] = record.pop("degenerate")
    record["loss_vs_truth"] = loss_vs_truth
    return {
        key: value.bitstring() if isinstance(value, Assignment) else value
        for key, value in record.items()
        if value is not None
    }


@dataclass(frozen=True, eq=False)
class AggregateMatrix:
    """Symmetric layer aggregate feeding a spectral method."""

    matrix: np.ndarray


def _check_even_sizes(graph: MultiLayerGraph, method: str, even_T: bool = True):
    """Refuse an odd n, and (with even_T) an odd T; every graph has n >= 2."""
    n, T = graph.n, graph.T
    if even_T and (n % 2 != 0 or T % 2 != 0):
        raise ValidationError(f"{method} needs even n >= 2 and even T, got n={n}, T={T}")
    if n % 2 != 0:
        raise ValidationError(f"{method} needs even n >= 2, got n={n}")


def _check_dense_size(n: int) -> None:
    if n > _DENSE_MAX_NODES:
        raise SizeGuardError(
            f"dense matrices are capped at n={_DENSE_MAX_NODES}, got n={n}"
        )


def _edge_arrays(graph: MultiLayerGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graph's edge table as 0-based (i, j, t) arrays, in layer order."""
    return graph.edges[:, 0] - 1, graph.edges[:, 1] - 1, graph.layer_ids


def aggregate_bias_adjusted(graph: MultiLayerGraph) -> AggregateMatrix:
    """Sum over layers of (A_t @ A_t - degree diagonal), by counting two-hop paths.

    For i != j the (i, j) entry of A_t @ A_t is the number of common neighbors
    of i and j in layer t, so accumulating common-neighbor pairs and leaving
    the diagonal at zero realizes the debiased square without dense products.
    """
    _check_dense_size(graph.n)
    flat = np.zeros(graph.n * graph.n, dtype=np.float64)
    _add_wedges(flat, graph, 1.0)
    return AggregateMatrix(flat.reshape(graph.n, graph.n))


def _add_wedges(flat: np.ndarray, graph: MultiLayerGraph, sign: float) -> None:
    """Add `sign` to the flat n x n matrix once per two-hop path (i, middle, j), i != j.

    The 2E half-edges (middle, other) of all layers are sorted by layer and
    middle node, so the neighbors of one node in one layer form a run. Pass d
    adds every pair of run members d positions apart, in both orders, and
    keeps only the positions whose run reaches d + 1 further on; the passes
    stop once no run is longer than d. There are at most (max layer degree)
    passes of at most 2E pairs each, so time is O(E * max degree) and memory
    O(E) beyond `flat`: the full wedge list is never built. Entries stay
    integer counts, so adding and subtracting layers is exact.
    """
    n = graph.n
    e_i, e_j, e_t = _edge_arrays(graph)
    # Half-edge (middle, other) in layer t as (t * n + middle) * n + other.
    codes = np.concatenate([(e_t * n + e_i) * n + e_j, (e_t * n + e_j) * n + e_i])
    codes.sort()
    del e_i, e_j, e_t  # freed before the passes allocate theirs
    pos = np.flatnonzero(codes[1:] // n == codes[:-1] // n)
    d = 1
    while len(pos):
        a = codes[pos] % n
        b = codes[pos + d] % n
        np.add.at(flat, np.concatenate([a * n + b, b * n + a]), sign)
        d += 1
        pos = pos[pos + d < len(codes)]
        pos = pos[codes[pos + d] // n == codes[pos] // n]


def _weighted_layer_sum(graph: MultiLayerGraph, tau: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum over layers of (1 - 2 tau[t]) A_t, or of A_t without tau, as a dense n x n matrix.

    tau holds the layers' 0/1 bits. One bincount over both orientations
    with each edge's sign as its weight, so the only float64 arrays are
    bincount's copy of the 2E signs and the one n x n result: nothing of
    size T. (An unweighted count would need a second n x n array, its int64
    counts, before the float64 result.)
    """
    n = graph.n
    e_i, e_j, e_t = _edge_arrays(graph)
    cells = np.concatenate([e_i * n + e_j, e_j * n + e_i])
    signs = np.ones(len(e_t), dtype=np.int8) if tau is None else 1 - 2 * tau[e_t]
    sums = np.bincount(cells, weights=np.concatenate([signs, signs]), minlength=n * n)
    return sums.astype(np.float64, copy=False).reshape(n, n)  # int64 from numpy when E = 0


def aggregate_layer_sum(graph: MultiLayerGraph) -> AggregateMatrix:
    """Plain sum of adjacency matrices."""
    _check_dense_size(graph.n)
    return AggregateMatrix(_weighted_layer_sum(graph))


def aggregate_signed(graph: MultiLayerGraph, tau: Assignment) -> AggregateMatrix:
    """Type-signed sum: layers with tau_t = 1 enter with weight -1."""
    _check_dense_size(graph.n)
    _check_label_sizes(graph, tau=tau)
    return AggregateMatrix(_weighted_layer_sum(graph, tau.as_array()))


def _power_iteration(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Deterministic power iteration: largest-|eigenvalue| pair.

    Fixed index-dependent start vector (no randomness); stops when the
    Rayleigh quotient moves by <= 1e-8 relative, or after 1000 iterations.
    Each step writes into the same three vectors; the returned vector is
    owned by this call.
    """
    n = matrix.shape[0]
    v = np.cos(np.arange(1, n + 1, dtype=np.float64))
    v /= np.linalg.norm(v)
    w = matrix @ v
    v_new = np.empty(n)
    rayleigh = 0.0
    for _ in range(_POWER_MAX_ITER):
        norm = math.sqrt(np.dot(w, w))
        if norm == 0.0:
            # v lies in the null space; treat as eigenvalue 0
            return 0.0, v
        np.divide(w, norm, out=v_new)
        # The Rayleigh quotient's mat-vec is the next iteration's w.
        np.dot(matrix, v_new, out=w)
        r_new = float(v_new @ w)
        if abs(r_new - rayleigh) <= _POWER_TOL * max(1.0, abs(r_new)):
            return r_new, v_new
        v, v_new, rayleigh = v_new, v, r_new
    return rayleigh, v


def top_two_eigenpairs(matrix: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Top-2 eigenpairs by |eigenvalue| via power iteration plus deflation."""
    return _top_two_in_place(np.array(matrix, dtype=np.float64))


def _top_two_in_place(matrix: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
    """top_two_eigenpairs of a float64 matrix that is not read again: it is deflated in place.

    matrix - lam1 * outer(v1, v1) is formed _DEFLATE_ROWS rows at a time,
    with the same products in the same order as one outer product, so no
    second n x n array is allocated.
    """
    lam1, v1 = _power_iteration(matrix)
    n = len(v1)
    block = np.empty((min(n, _DEFLATE_ROWS), n))
    for start in range(0, n, _DEFLATE_ROWS):
        rows = matrix[start : start + _DEFLATE_ROWS]
        part = block[: len(rows)]
        np.multiply.outer(v1[start : start + _DEFLATE_ROWS], v1, out=part)
        part *= lam1
        rows -= part
    lam2, v2 = _power_iteration(matrix)
    return lam1, v1, lam2, v2


def balanced_rounding(scores) -> Assignment:
    """Assign 1 to the n/2 largest scores; ties go to the lowest index first."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or len(scores) % 2 != 0 or len(scores) == 0:
        raise ValidationError("scores must be a non-empty even-length vector")
    order = np.argsort(-scores, kind="stable")
    labels = np.zeros(len(scores), dtype=np.int8)
    labels[order[: len(scores) // 2]] = 1
    return Assignment._from_array(labels)


def _spectral_round(matrix: np.ndarray, method: str, pick_smaller_mean: bool) -> RecoveryResult:
    """Round the top eigenvector of a float64 aggregate, which is deflated in place."""
    lam1, v1, lam2, v2 = _top_two_in_place(matrix)
    # A zero matrix reads lam1 = lam2 = 0, so it takes this fallback too.
    if abs(abs(lam1) - abs(lam2)) <= _DEGENERATE_EIGEN_TOL * max(1.0, abs(lam1)):
        return RecoveryResult(balanced_rounding(np.zeros(len(matrix))), method, degenerate=True)
    if pick_smaller_mean:
        # The community vector is near-orthogonal to all-ones; the density
        # direction is not, so the smaller |mean| identifies the signal.
        v = v1 if abs(float(v1.mean())) <= abs(float(v2.mean())) else v2
    else:
        v = v1
    return RecoveryResult(balanced_rounding(v), method)


def bias_adjusted_spectral(graph: MultiLayerGraph) -> RecoveryResult:
    """Spectral clustering on the debiased squared-adjacency sum."""
    _check_even_sizes(graph, "bias_adjusted_spectral", even_T=False)
    return _spectral_round(aggregate_bias_adjusted(graph).matrix, "bias-adjusted", True)


def _bias_adjusted_without(graph: MultiLayerGraph) -> Callable[[Sequence[int]], RecoveryResult]:
    """held-out layer positions -> bias_adjusted_spectral of the other layers.

    Each call subtracts its layers' wedges from a copy of one full aggregate.
    Entries are integer counts below 2**53, so that is a fresh aggregate exactly.
    """
    _check_even_sizes(graph, "bias_adjusted_spectral", even_T=False)
    full = aggregate_bias_adjusted(graph).matrix

    def without(held_out: Sequence[int]) -> RecoveryResult:
        matrix = full.copy()
        for t in held_out:
            _add_wedges(matrix.reshape(-1), graph.layer_slice(t, t + 1), -1.0)
        return _spectral_round(matrix, "bias-adjusted", True)

    return without


def aggregate_sum_spectral(graph: MultiLayerGraph) -> RecoveryResult:
    """Spectral clustering on the plain layer sum (type-blind baseline)."""
    _check_even_sizes(graph, "aggregate_sum_spectral", even_T=False)
    return _spectral_round(aggregate_layer_sum(graph).matrix, "sum-aggregate", True)


def oracle_tau_spectral(graph: MultiLayerGraph, tau: Assignment) -> RecoveryResult:
    """Spectral clustering on the type-signed sum, using the true tau."""
    _check_even_sizes(graph, "oracle_tau_spectral", even_T=False)
    # The signed sum cancels the density direction, so the top eigenvector
    # itself carries the community signal.
    return _spectral_round(aggregate_signed(graph, tau).matrix, "oracle-tau", False)


def mle_objective(graph: MultiLayerGraph, sigma: Assignment, tau: Assignment) -> int:
    """Count edges sitting on parity-even slots under (sigma, tau)."""
    _check_label_sizes(graph, sigma=sigma, tau=tau)
    margins = _layer_margins(graph, sigma.as_array())
    return (graph.total_edges + int(margins @ (1 - 2 * tau.as_array()))) // 2


def _layer_margins(graph: MultiLayerGraph, sig: np.ndarray) -> np.ndarray:
    """Every layer's even minus odd edge count under sigma: the one parity count.

    sig is one labelling (n,) or a batch (k, n); the result is (T,) or (k, T)
    int64. The table is in layer order, so a layer's odd count is the rise of
    one running sum across its rows. The objective under (sigma, tau) is
    (E + sum_t (1 - 2 tau_t) margin_t) / 2.
    """
    e_i, e_j, e_t = _edge_arrays(graph)
    bounds = np.searchsorted(e_t, np.arange(graph.T + 1))
    odd = np.zeros(sig.shape[:-1] + (len(e_t) + 1,), dtype=np.int64)
    np.cumsum(sig[..., e_i] != sig[..., e_j], axis=-1, out=odd[..., 1:])
    return np.diff(bounds) - 2 * np.diff(odd[..., bounds], axis=-1)


def _tau_for_sigma(graph: MultiLayerGraph, sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Balanced tau (int8 bits) maximizing the objective for fixed sigma, and that maximum.

    For fixed sigma the objective separates over layers, so the T/2 layers
    with the largest margins get tau_t = 0; a stable sort gives tied layers
    tau_t = 0 in index order, which makes tau the lexicographically smallest
    optimum. sig is one labelling (n,) or a batch (k, n), as in _layer_margins.
    """
    margins = _layer_margins(graph, sig)
    order = np.argsort(-margins, axis=-1, kind="stable")
    tau = np.ones(margins.shape, dtype=np.int8)
    np.put_along_axis(tau, order[..., : graph.T // 2], 0, axis=-1)
    return tau, (graph.total_edges + (margins * (1 - 2 * tau)).sum(axis=-1)) // 2


def mle_exhaustive(graph: MultiLayerGraph) -> RecoveryResult:
    """Global maximizer of the parity-even edge count over balanced (sigma, tau).

    Only sigma is enumerated; each sigma is scored with its best tau from
    _tau_for_sigma, the rule the local search uses. Flipping sigma preserves
    every pair parity, so only the first half of _balanced_rows(n), the
    sigma with sigma_1 = 0, is searched. sigma_hat is the first maximizer in
    that order and tau_hat the lexicographically smallest optimal tau for it.
    Sigma is scored in blocks of _EXHAUSTIVE_BLOCK // (E + T + 1) rows, so
    memory stays flat in T; the whole search is refused before any block is
    built if it would cost more than _EXHAUSTIVE_WORK cells.
    """
    n, T = graph.n, graph.T
    _check_even_sizes(graph, "mle_exhaustive")
    row = graph.total_edges + T + 1
    # n goes first: math.comb of a large n is itself unbounded work.
    if n > _ENUM_MAX_ITEMS or row > _EXHAUSTIVE_BLOCK or (
        half := math.comb(n, n // 2) // 2
    ) * row > _EXHAUSTIVE_WORK:
        raise SizeGuardError(
            f"mle_exhaustive searches n <= {_ENUM_MAX_ITEMS} with E + T + 1 <= {_EXHAUSTIVE_BLOCK}"
            f" and C(n, n/2)/2 * (E + T + 1) <= {_EXHAUSTIVE_WORK}, got n={n}, E + T + 1 = {row}"
        )
    sigmas = _balanced_rows(n)[:half]
    rows = _EXHAUSTIVE_BLOCK // row
    best = -1
    for start in range(0, half, rows):
        block = sigmas[start : start + rows]
        taus, objs = _tau_for_sigma(graph, block)
        k = int(np.argmax(objs))
        if objs[k] > best:
            best, sigma_hat, tau_hat = int(objs[k]), block[k], taus[k]
    return RecoveryResult(
        Assignment(sigma_hat),
        "mle-exhaustive",
        tau_hat=Assignment(tau_hat),
        objective=best,
    )


def default_start_battery(graph: MultiLayerGraph) -> list[Assignment]:
    """Deterministic balanced starting points for multistart ascent.

    Roundings of the top-2 eigenvectors of the bias-adjusted aggregate and of
    the plain layer sum, the sum/difference combinations of the former pair,
    and two fixed patterns. Starts that are global flips of an earlier start
    are dropped: the ascent landscape is flip-symmetric, so they converge to
    flip-equivalent results with identical objectives.
    """
    n = graph.n
    l1, v1, l2, v2 = _top_two_in_place(aggregate_bias_adjusted(graph).matrix)
    s1, u1, s2, u2 = _top_two_in_place(aggregate_layer_sum(graph).matrix)
    starts = [balanced_rounding(vec) for vec in (v1, v2, v1 + v2, v1 - v2, u2, u1)]
    starts.append(Assignment(tuple([0] * (n // 2) + [1] * (n // 2))))
    starts.append(Assignment(tuple(i % 2 for i in range(n))))
    seen = set()
    unique = []
    for start in starts:
        bits = start.as_array()
        key = (bits ^ bits[0]).tobytes()  # the same for a start and its flip
        if key not in seen:
            seen.add(key)
            unique.append(start)
    return unique


def _score_bound(graph: MultiLayerGraph) -> int:
    """K (E + T + 1), K = n^2: above every value the swap ascent reads, in magnitude.

    |W| <= min(T, E) entrywise, so |-2 K W| <= K (E + T). |g| <= E, so K g
    and the per-node terms K g + (n u or -v) are below K (E + 1). A swap
    changes the objective, an integer in [0, E], by at most E, so its score
    K gain - (u n + v) lies in (-K (E + 1), K E].
    """
    return graph.n * graph.n * (graph.total_edges + graph.T + 1)


def _check_ascent(graph: MultiLayerGraph, method: str) -> None:
    """Refuse what the swap ascent cannot run on, before anything is allocated."""
    n, T = graph.n, graph.T
    _check_even_sizes(graph, method)
    _check_dense_size(n)
    # The bound _signed_sums sizes the score type by; int64 is the widest type.
    if _score_bound(graph) >= 2**63:
        raise SizeGuardError(f"{method} swap scores overflow int64 at n={n}, T={T}")


def mle_local_search_multistart(graph: MultiLayerGraph) -> RecoveryResult:
    """Best of mle_local_search over the deterministic start battery.

    Single-start ascent from one spectral initialization lands in a wrong
    basin on a sizable fraction of small dense instances; restarting from a
    fixed battery of complementary initializations recovers the exhaustive
    optimum far more reliably at unchanged asymptotic cost. Ties keep the
    earliest start, so the result is deterministic.
    """
    _check_ascent(graph, "mle_local_search_multistart")
    best: Optional[RecoveryResult] = None
    signed_sums = _signed_sums(graph)  # shared by the starts, which reach few distinct tau
    for init in default_start_battery(graph):
        result = _ascent(graph, init, signed_sums)
        if best is None or result.objective > best.objective:
            best = result
    assert best is not None
    return replace(best, method="mle-local-multistart")


def mle_local_search(graph: MultiLayerGraph, init: Assignment) -> RecoveryResult:
    """Alternating ascent toward the MLE from a given starting labelling.

    Each round relabels layers optimally for the current sigma, then applies
    best-improvement swaps (one 0-node for one 1-node) while any swap raises
    the objective, for at most _MAX_ROUNDS rounds. The objective never
    decreases; the result is locally optimal under single swaps and layer
    relabelings.

    With x = 1 - 2 sigma in {+1, -1}^n and the signed aggregate
    W = sum_t (1 - 2 tau_t) A_t, swapping a 0-node u with a 1-node v changes
    the objective by g[v] - g[u] - 2 W[u, v], where g = W x. g and a
    contiguous zeros x ones block of -2W are built only when tau changes
    (O(n^2), at most once per round), and W once per tau (O(E + n^2); the
    multistart's starts share these builds). An accepted swap updates
    g += 2 (W[:, v] - W[:, u]) and the block's row and column at u's and v's
    positions in O(n), so each step costs two broadcast passes and one argmax
    over the n^2 / 4 block. Its scores K gain - (u n + v), K = n^2, break
    ties toward the smallest (u, v), as a row-major argmax over index-sorted
    zeros and ones would. They are kept in the narrowest signed integer type
    that holds K (E + T + 1): int32 at n = 256 and E of a few thousand.
    """
    _check_label_sizes(graph, init=init)
    _check_ascent(graph, "mle_local_search")
    return _ascent(graph, init, _signed_sums(graph))


def _signed_sums(graph: MultiLayerGraph) -> Callable[[np.ndarray], np.ndarray]:
    """tau -> -2 K W, W = sum_t (1 - 2 tau_t) A_t and K = n^2, each W built once.

    -2 K W comes in the score type: the narrowest signed integer type that
    holds -_score_bound(graph), which _ascent computes in throughout. A
    flipped tau gives exactly -W, so tau and 1 - tau share one build. Each W
    is kept in the smallest signed integer type holding +-T, which bounds
    every entry, so a battery's few builds cost little memory.
    """
    K = graph.n * graph.n
    entries = np.min_scalar_type(-graph.T - 1)
    scores = np.min_scalar_type(-_score_bound(graph))
    built: dict[bytes, np.ndarray] = {}

    def signed_sum(tau: np.ndarray) -> np.ndarray:
        flip = int(tau[0])
        canonical = tau ^ flip
        key = canonical.tobytes()
        if key not in built:
            built[key] = _weighted_layer_sum(graph, canonical).astype(entries)
        return np.multiply(built[key], 2 * K if flip else -2 * K, dtype=scores)

    return signed_sum


def _ascent(
    graph: MultiLayerGraph, init: Assignment, signed_sums: Callable[[np.ndarray], np.ndarray]
) -> RecoveryResult:
    """mle_local_search's ascent from init, reading -2 K W from signed_sums(tau).

    Everything is computed in W's integer type, which is exact: every value
    stored (W, K W, K g, terms, the scores) is below _score_bound in
    magnitude, so it fits; numpy's integer +, - and matmul wrap modulo
    2**bits, so an intermediate that overflows cannot change a final value
    that is in range; and argmax only ever reads values that are in range.
    K g is the matvec of K W = (-2 K W) >> 1, an exact halving of even
    entries, since -2 K g itself reaches 2 K E on a star.
    """
    n = graph.n
    K = n * n

    sig = init.as_array().copy()
    zeros, ones = np.flatnonzero(sig == 0), np.flatnonzero(sig == 1)
    tau, trace = None, []
    # Each accepted swap raises obj, an integer in [0, E], by at least 1, so a
    # correct ascent makes at most E swaps; more means the gains are corrupt.
    swaps_left = graph.total_edges

    for _ in range(_MAX_ROUNDS):
        new_tau, new_obj = _tau_for_sigma(graph, sig)
        changed = tau is not None and not np.array_equal(new_tau, tau)
        if tau is None or changed:
            tau, obj = new_tau, int(new_obj)
            trace.append(obj)
            W = signed_sums(tau)  # W holds -2 K W
            kg = (W >> 1) @ (2 * sig - 1).astype(W.dtype)
            # Swapping u for v scores W[u, v] - terms[0, u] + terms[1, v].
            terms = kg + np.outer([n, -1], np.arange(n)).astype(W.dtype)
            block = W[np.ix_(zeros, ones)]
            score = np.empty_like(block)
        while True:  # best-improvement swaps at fixed tau
            np.subtract(block, terms[0, zeros][:, None], out=score)
            np.add(score, terms[1, ones], out=score)
            flat = int(score.argmax())
            best = int(score.flat[flat])
            if best <= 0:
                break
            if swaps_left == 0:
                raise AssertionError("local search exceeded E swaps: swap gains are inconsistent")
            swaps_left -= 1
            a, b = divmod(flat, n // 2)
            u, v = int(zeros[a]), int(ones[b])
            zeros[a], ones[b] = v, u
            block[a] = W[v, ones]
            block[:, b] = W[u, zeros]  # W is symmetric
            terms += W[u] - W[v]
            sig[u], sig[v] = 1, 0
            obj += (best + u * n + v) // K
            trace.append(obj)
            changed = True
        if not changed:
            break
    return RecoveryResult(
        Assignment._from_array(sig),
        "mle-local",
        tau_hat=Assignment._from_array(tau),
        objective=obj,
        objective_trace=tuple(trace),
    )

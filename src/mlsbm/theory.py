"""Exact theory quantities and their brute-force verification oracles.

Three families live here, each with at least two independent computation
routes so tests can cross-check them:

- the chi-square divergence between the planted mixture (conditional on the
  layer types) and the null model: a single closed-form sum over community
  overlaps, against full enumeration of every adjacency tensor;
- the squared norm of the low-degree projection of the likelihood ratio: a
  combinatorial triple sum over parity classes, against subset-by-subset
  signed expectations, against an explicit likelihood projection;
- counting/bounding machinery for parity classes of slot subsets, plus two
  small combinatorial identities (a signed convolution identity and a
  hypergeometric tail bound) used by the analysis.

The four brute-force oracles share one enumeration core: a parity table of
(sigma_i + sigma_j + tau_t) mod 2 over balanced labellings x slots, one
chunked pass over all 2^slots adjacency tensors (chi-square and projection),
and one guard that refuses oversized tables before allocating them. The
exact routes (closed forms, and `_lambda_table`'s parity-class counts) stay
independent of that core.

All heavy weights are computed in log-space with log-sum-exp accumulation;
the only signed quantity (the per-subset expectation) handles its sign
separately from its magnitude.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BoundInapplicableError, SizeGuardError, ValidationError
from .model import (
    Assignment,
    MlsbmParams,
    _as_bits,
    _balanced_rows,
    _check_even,
    _check_real,
    _check_rho,
    _check_size,
)

# Hard enumeration caps (errors, never silent truncation).
TENSOR_GUARD_SLOTS = 24
SUBSET_GUARD = 10**7
# Slots a subset enumeration may list, however few subsets it then walks:
# a degree-1 norm over 99,000 slots took 1.8 s and 13 MB on a 2-vCPU VM.
_SLOT_GUARD = 10**5
# Cells an oracle's parity table (labellings x slots) and its likelihood
# table (2^slots tensors x labellings) may hold, checked before allocation.
_TABLE_GUARD_CELLS = 1 << 27
# Tensors per likelihood chunk, and its tensors x labellings cap.
_CHUNK_TENSORS = 1 << 15
_CHUNK_CELLS = 1 << 20

Slot = tuple[int, int, int]


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return math.log(math.comb(n, k))


def _logsumexp(values) -> float:
    values = [v for v in values if v != -math.inf]
    if not values:
        return -math.inf
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


def _expm1_or_inf(x: float) -> float:
    """exp(x) - 1, or inf where it overflows a double."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def kappa(rho: float) -> float:
    """Per-slot signal amplitude of a standardized edge variable."""
    rho = _check_rho(rho)
    return (rho / 2.0) / math.sqrt(rho * (1.0 - rho))


# ---------------------------------------------------------------------------
# chi-square divergence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiSquareReport:
    """Chi-square divergence with its per-overlap log decomposition."""

    value: float
    per_c_terms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if self.value < 0:
            raise ValidationError(f"chi-square value must be >= 0, got {self.value}")


def _chi_square_bases(rho: float) -> tuple[float, float]:
    """Per-slot factors of the squared-likelihood sum.

    A slot whose parity agrees under the two community labellings contributes
    (1 - 3*rho/4)/(1 - rho); a slot whose parity differs contributes
    (1 - 5*rho/4)/(1 - rho). Both are positive for rho < 2/3.
    """
    same = (1.0 - 0.75 * rho) / (1.0 - rho)
    mixed = (1.0 - 1.25 * rho) / (1.0 - rho)
    return same, mixed


def chi_square_closed_form(n: int, T: int, rho: float) -> ChiSquareReport:
    """Exact chi-square divergence via the overlap sum; layer-type free.

    Averaging the squared likelihood over two independent balanced labellings
    reduces to a sum over the overlap c of their 1-classes: pairs of nodes in
    the same agreement class contribute the `same` base, pairs across classes
    the `mixed` base, with multiplicities C(n-2c,2)+C(2c,2) and 2c(n-2c) per
    layer. The result does not depend on the layer types at all.
    """
    n, T, rho = astuple(MlsbmParams(n, T, rho))
    log_same, log_mixed = (math.log(b) for b in _chi_square_bases(rho))
    log_total = _log_comb(n, n // 2)
    terms = []
    for c in range(n // 2 + 1):
        agree = 2 * c  # nodes on which the two labellings agree as 1s do not matter;
        # what matters is the disagreement count d = n - 2c splitting pairs
        d = n - agree
        same_pairs = math.comb(d, 2) + math.comb(n - d, 2)
        mixed_pairs = d * (n - d)
        log_term = (
            2.0 * _log_comb(n // 2, c)
            + T * same_pairs * log_same
            + T * mixed_pairs * log_mixed
            - log_total
        )
        terms.append((c, log_term))
    value = _expm1_or_inf(_logsumexp(t for _, t in terms))
    return ChiSquareReport(value=max(value, 0.0), per_c_terms=tuple(terms))


# ---------------------------------------------------------------------------
# enumeration core shared by the brute-force oracles
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _slot_list(n: int, T: int) -> tuple[Slot, ...]:
    """Fixed slot order: layer-major, node pairs lexicographic inside a layer."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return tuple((i, j, t) for t in range(1, T + 1) for (i, j) in pairs)


def _parity_table(name: str, n: int, T: int, slots: Optional[Sequence[Slot]] = None,
                  tau=None, tensors: bool = False) -> np.ndarray:
    """(labellings x slots) int8 table of (sigma_i + sigma_j + tau_t) mod 2.

    Rows run over balanced sigma in `_balanced_rows` order for a fixed
    tau (T bits, or an Assignment), else sigma-major over balanced (sigma,
    tau). `slots` defaults to every slot of (n, T). The guard counts this
    table's cells and, with `tensors`, the 2^slots x labellings likelihood
    cells, and refuses before the slots, tau or any labelling is built.
    """
    n_slots = math.comb(n, 2) * T if slots is None else len(slots)
    if tensors and n_slots > TENSOR_GUARD_SLOTS:
        raise SizeGuardError(f"{name} is capped at {TENSOR_GUARD_SLOTS} slots, got {n_slots}")
    labellings = math.comb(n, n // 2) * (1 if tau is not None else math.comb(T, T // 2))
    cells = max(labellings * max(n_slots, 1), labellings << n_slots if tensors else 0)
    if cells > _TABLE_GUARD_CELLS:
        raise SizeGuardError(f"{name} needs {cells} table cells > {_TABLE_GUARD_CELLS}")
    if tau is not None:
        tau = tau.as_array() if isinstance(tau, Assignment) else _as_bits(tau, "tau")
        if len(tau) != T:
            raise ValidationError(f"tau has {len(tau)} entries but T={T}")
    slots = _slot_list(n, T) if slots is None else slots
    i, j, t = np.array(slots, dtype=np.int64).reshape(-1, 3).T - 1
    sigmas = _balanced_rows(n)
    node_part = sigmas[:, i] + sigmas[:, j]
    if tau is not None:
        table = node_part + tau[t]
    else:
        taus = _balanced_rows(T)
        table = (node_part[:, None, :] + taus[None, :, t]).reshape(labellings, n_slots)
    table %= 2
    return table


def _tensor_chunks(parity: np.ndarray, rho: float):
    """Every adjacency tensor over the parity table's slots, in code order.

    Yields (bits, log P1, log P0) per chunk: the tensors' 0/1 entries, their
    log-likelihood averaged over the table's labellings (3*rho/2 on even
    parity, rho/2 on odd) and under the null model. `bits` is a view of one
    buffer that the next chunk overwrites.
    """
    labellings, n_slots = parity.shape
    probs = np.where(parity == 0, 1.5 * rho, 0.5 * rho)
    log_p = np.log(probs)
    log_q = np.log1p(-probs)
    chunk = max(1, min(_CHUNK_TENSORS, _CHUNK_CELLS // labellings, 1 << n_slots))
    exponents = np.arange(n_slots, dtype=np.uint32)
    buffer = np.empty((chunk, n_slots))
    for start in range(0, 1 << n_slots, chunk):
        codes = np.arange(start, min(start + chunk, 1 << n_slots), dtype=np.uint32)
        bits = buffer[: len(codes)]
        np.copyto(bits, (codes[:, None] >> exponents[None, :]) & 1)
        log_like = bits @ log_p.T + (1.0 - bits) @ log_q.T
        top = log_like.max(axis=1)
        log_p1 = top + np.log(np.exp(log_like - top[:, None]).sum(axis=1)) - math.log(labellings)
        edges = bits.sum(axis=1)
        yield bits, log_p1, edges * math.log(rho) + (n_slots - edges) * math.log1p(-rho)


def chi_square_bruteforce(n: int, T: int, rho: float, tau) -> float:
    """Chi-square divergence by enumerating every adjacency tensor.

    tau may be any bit sequence of length T (the divergence is conditional on
    the layer types); only the node labelling is averaged. Guarded at
    binom(n,2)*T <= 24 slots by the enumeration core.
    """
    n, T, rho = _check_even(n, "n", 2), _check_size(T, "T", 1), _check_rho(rho)
    parity = _parity_table("chi_square_bruteforce", n, T, tau=tau, tensors=True)
    # (P1 - P0)^2 / P0 = P0 * expm1(log P1 - log P0)^2: every term is
    # non-negative, so no cancellation enters the sum
    return math.fsum(
        float(np.sum(np.exp(log_p0) * np.expm1(log_p1 - log_p0) ** 2))
        for _, log_p1, log_p0 in _tensor_chunks(parity, rho)
    )


# ---------------------------------------------------------------------------
# signed subset expectations and the low-degree norm
# ---------------------------------------------------------------------------


def _validate_alpha(alpha: Iterable, n: int, T: int) -> tuple[Slot, ...]:
    out: list[Slot] = []
    for slot in alpha:
        try:
            i, j, t = (int(x) for x in slot)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed slot {slot!r}") from exc
        if not (1 <= i < j <= n):
            raise ValidationError(f"slot {slot!r} violates 1 <= i < j <= {n}")
        if not (1 <= t <= T):
            raise ValidationError(f"slot {slot!r} has layer outside [1, {T}]")
        out.append((i, j, t))
    if len(set(out)) != len(out):
        raise ValidationError("alpha contains duplicate slots")
    return tuple(out)


def _parity_sets(alpha: Sequence[Slot]) -> tuple[int, int]:
    """Sizes of the odd-appearance node set and odd-appearance layer set."""
    node_mask = 0
    layer_mask = 0
    for i, j, t in alpha:
        node_mask ^= (1 << (i - 1)) | (1 << (j - 1))
        layer_mask ^= 1 << (t - 1)
    return node_mask.bit_count(), layer_mask.bit_count()


def _class_weight(n: int, T: int, r: int, k: int) -> float:
    """Weight of parity class (r, k): C(n/2,r) C(T/2,k) / (C(n,2r) C(T,2k)), one int/int division."""
    return math.comb(n // 2, r) * math.comb(T // 2, k) / (math.comb(n, 2 * r) * math.comb(T, 2 * k))


def chi_alpha_expectation(alpha, n: int, T: int, rho: float) -> float:
    """Planted-model expectation of the standardized edge product over alpha.

    Zero whenever the odd-appearance layer set has odd size; otherwise
    kappa^{|alpha|} times a signed ratio of binomials determined by the
    odd-appearance set sizes. The odd-appearance node set is always even
    because each slot contributes two node appearances.
    """
    n, T, rho = astuple(MlsbmParams(n, T, rho))
    alpha = _validate_alpha(alpha, n, T)
    u_size, v_size = _parity_sets(alpha)
    assert u_size % 2 == 0, "node parity set size must be even"
    if v_size % 2 == 1:
        return 0.0
    r, k = u_size // 2, v_size // 2
    return float((-1) ** (r + k) * kappa(rho) ** len(alpha) * _class_weight(n, T, r, k))


def chi_alpha_expectation_bruteforce(alpha, n: int, T: int, rho: float) -> float:
    """Same expectation by direct averaging over every balanced (sigma, tau).

    Computes the raw parity sum per slot (no parity-set shortcut), so this is
    an independent route for cross-checking the closed form.
    """
    n, T, rho = astuple(MlsbmParams(n, T, rho))
    alpha = _validate_alpha(alpha, n, T)
    parity = _parity_table("chi_alpha_expectation_bruteforce", n, T, alpha)
    count = len(parity)
    sign_total = count - 2 * int(np.count_nonzero(np.bitwise_xor.reduce(parity, axis=1)))
    return kappa(rho) ** len(alpha) * sign_total / count


def _check_subset_guard(n: int, T: int, a: int) -> int:
    n_slots = math.comb(n, 2) * T
    if n_slots > _SLOT_GUARD:
        raise SizeGuardError(f"subset enumeration is capped at {_SLOT_GUARD} slots, got {n_slots}")
    total = math.comb(n_slots, a)
    if total > SUBSET_GUARD:
        raise SizeGuardError(
            f"subset enumeration needs binom({n_slots}, {a}) = {total} > {SUBSET_GUARD}"
        )
    return n_slots


def _subset_sizes(n: int, T: int, D: int) -> range:
    """Subset sizes 1..D, stopped at binom(n,2)*T: no slot subset is larger.

    Every size passes the subset guard before any subset is listed.
    """
    sizes = range(1, min(D, math.comb(n, 2) * T) + 1)
    for a in sizes:
        _check_subset_guard(n, T, a)
    return sizes


@functools.lru_cache(maxsize=256)
def _lambda_table(n: int, T: int, a: int) -> tuple[tuple[tuple[tuple[int, int], int], ...], int, int]:
    """Exact parity-class sizes for slot subsets of size a.

    Returns (((r, k), count), ...), the odd-layer-parity subset count, and the
    total subset count. One sweep classifies every subset by the sizes
    of its odd-appearance node and layer sets.
    """
    n_slots = _check_subset_guard(n, T, a)
    slots = _slot_list(n, T)
    node_masks = [((1 << (i - 1)) | (1 << (j - 1))) for (i, j, t) in slots]
    layer_masks = [1 << (t - 1) for (i, j, t) in slots]
    counts: dict[tuple[int, int], int] = {}
    odd_v = 0
    for combo in itertools.combinations(range(n_slots), a):
        nm = 0
        lm = 0
        for s in combo:
            nm ^= node_masks[s]
            lm ^= layer_masks[s]
        u = nm.bit_count()
        v = lm.bit_count()
        assert u % 2 == 0, "node parity set size must be even"
        if v % 2 == 1:
            odd_v += 1
        else:
            key = (u // 2, v // 2)
            counts[key] = counts.get(key, 0) + 1
    frozen = tuple(sorted(counts.items()))
    return frozen, odd_v, math.comb(n_slots, a)


def lambda_count_partition(n: int, T: int, a: int) -> dict:
    """Full classification for one subset size: class sizes plus the excluded
    odd-layer-parity count and the grand total (partition identity check)."""
    n = _check_even(n, "n", 2)
    T = _check_even(T, "T", 2)
    table, odd_v, total = _lambda_table(n, T, _check_size(a, "a", 1))
    return {"counts": dict(table), "odd_layer_parity": odd_v, "total_subsets": total}


def lambda_count_bound(
    n: int, T: int, a: int, r: int, k: int, strengthened: bool = False
) -> float:
    """Combinatorial upper bound 2^{1+5a/2} a^{4a/3} C(n,2r) C(T,2k) n^{a-r} T^{a/2-k}.

    The strengthened variant replaces a^{4a/3} by a^a (valid when the layer
    count dominates the squared degree). Evaluated in log-space; returns inf
    on overflow. The bound is asymptotic in (n, T); at tiny sizes it can in
    principle be crossed, which callers log rather than fail.
    """
    a, r, k = _check_size(a, "a", 1), _check_size(r, "r", 0), _check_size(k, "k", 0)
    if 2 * r > n or 2 * k > T:
        return 0.0
    power_term = float(a) * math.log(a) if strengthened else (4.0 * a / 3.0) * math.log(a)
    log_bound = (
        (1.0 + 2.5 * a) * math.log(2.0)
        + power_term
        + _log_comb(n, 2 * r)
        + _log_comb(T, 2 * k)
        + (a - r) * math.log(n)
        + (a / 2.0 - k) * math.log(T)
    )
    try:
        return math.exp(log_bound)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class LdlrReport:
    """Squared norm of the low-degree likelihood-ratio projection minus one."""

    degree: int
    value: float
    per_a_terms: tuple[tuple[int, float], ...]
    kappa: float

    def __post_init__(self):
        if self.value < -1e-15:
            raise ValidationError(f"norm must be >= 0, got {self.value}")


def ldlr_norm_exact(n: int, T: int, rho: float, D: int) -> LdlrReport:
    """Norm via the parity-class triple sum with exact class sizes.

    Term a equals kappa^{2a} times the sum over classes (r, k) of
    count * [C(n/2,r) C(T/2,k) / (C(n,2r) C(T,2k))]^2; the squared
    denominators come from squaring the per-subset signed expectation.
    """
    n, T, rho = astuple(MlsbmParams(n, T, rho))
    D = _check_size(D, "D", 1)
    kap = kappa(rho)
    terms = []
    for a in _subset_sizes(n, T, D):
        table, _, _ = _lambda_table(n, T, a)
        term = 0.0
        for (r, k), count in table:
            ratio = _class_weight(n, T, r, k)
            term += count * ratio * ratio
        terms.append((a, kap ** (2 * a) * term))
    return LdlrReport(
        degree=D,
        value=math.fsum(t for _, t in terms),
        per_a_terms=tuple(terms),
        kappa=kap,
    )


def ldlr_norm_bruteforce(n: int, T: int, rho: float, D: int) -> float:
    """Norm by summing squared brute-force expectations over every subset.

    Every slot subset of size 1..D gets its expectation from the exhaustive
    (sigma, tau) average (never the closed form), making this a fully
    independent route.
    """
    n, T, rho = astuple(MlsbmParams(n, T, rho))
    sizes = _subset_sizes(n, T, _check_size(D, "D", 1))
    # sign of each slot under each (sigma, tau): +1 on even parity
    signs = 1 - 2 * _parity_table("ldlr_norm_bruteforce", n, T)
    kap = kappa(rho)
    terms = []
    for a in sizes:
        scale = kap ** (2 * a)
        for combo in itertools.combinations(range(signs.shape[1]), a):
            mean_sign = float(signs[:, combo].prod(axis=1, dtype=np.int64).mean())
            terms.append(scale * mean_sign * mean_sign)
    return math.fsum(terms)


def ldlr_projection_oracle(n: int, T: int, rho: float, D: int) -> float:
    """Norm by explicit likelihood projection over every adjacency tensor.

    Builds the likelihood ratio L = P1/P0 on all 2^slots tensors chunk by
    chunk, adds up each basis coefficient (the P0-expectation of L times the
    standardized edge product) across chunks, and sums the squares.
    Validates that the standardized products behave as an orthonormal basis.
    """
    n, T, rho = astuple(MlsbmParams(n, T, rho))
    sizes = _subset_sizes(n, T, _check_size(D, "D", 1))
    parity = _parity_table("ldlr_projection_oracle", n, T, tensors=True)
    combos = [c for a in sizes for c in itertools.combinations(range(parity.shape[1]), a)]
    coeffs = np.zeros(len(combos))
    for bits, log_p1, log_p0 in _tensor_chunks(parity, rho):
        weight = np.exp(log_p0) * np.exp(log_p1 - log_p0)  # P0 times the likelihood ratio
        std = (bits - rho) / math.sqrt(rho * (1.0 - rho))
        for idx, combo in enumerate(combos):
            coeffs[idx] += np.sum(weight * std[:, combo].prod(axis=1))
    return math.fsum((coeffs * coeffs).tolist())


def ldlr_upper_bound(n: int, T: int, rho: float, D: int, strengthened: bool = False) -> float:
    """Bound 8*xi/(1-xi) with xi = 2 D^{4/3} rho n sqrt(T).

    The strengthened variant uses xi = 2 D rho n sqrt(T), valid when the
    layer count dominates the squared degree. Requires xi < 1; otherwise the
    geometric-sum step behind the bound fails and the bound is inapplicable.
    rho = 0 is allowed here (the bound degenerates to 0).
    """
    n, T, D = _check_size(n, "n", 1), _check_size(T, "T", 1), _check_size(D, "D", 1)
    rho = _check_real(rho, "rho")
    if rho < 0 or not math.isfinite(rho):
        raise ValidationError(f"rho must be a finite non-negative real, got {rho}")
    power = float(D) if strengthened else float(D) ** (4.0 / 3.0)
    xi = 2.0 * power * rho * n * math.sqrt(T)
    if xi >= 1.0:
        raise BoundInapplicableError(
            f"bound inapplicable: xi = {xi:.6g} >= 1 (needs xi < 1)", xi=xi
        )
    return 8.0 * xi / (1.0 - xi)


# ---------------------------------------------------------------------------
# small combinatorial lemmas
# ---------------------------------------------------------------------------


def _check_vandermonde(m, k) -> tuple[int, int]:
    m, k = _check_size(m, "m", 1), _check_size(k, "k", 0)
    if k > m:
        raise ValidationError(f"k must satisfy 0 <= k <= m, got {k!r}")
    return m, k


def signed_vandermonde(m: int, k: int) -> int:
    """Direct evaluation of sum_i (-1)^i C(m,i) C(m,k-i), exact integers."""
    m, k = _check_vandermonde(m, k)
    return sum((-1) ** i * math.comb(m, i) * math.comb(m, k - i) for i in range(k + 1))


def signed_vandermonde_closed_form(m: int, k: int) -> int:
    """Closed form: 0 for odd k, (-1)^{k/2} C(m, k/2) for even k."""
    m, k = _check_vandermonde(m, k)
    if k % 2 == 1:
        return 0
    return (-1) ** (k // 2) * math.comb(m, k // 2)


def hypergeometric_cdf(N: int, K: int, m: int, x_max: int) -> Fraction:
    """Exact P(X <= x_max) for X ~ Hypergeometric(N, K, m), as a Fraction."""
    N, K, m = _check_size(N, "N", 0), _check_size(K, "K", 0), _check_size(m, "m", 0)
    if K > N or m > N:
        raise ValidationError("need K <= N and m <= N")
    lo = max(0, m - (N - K))
    hi = min(m, K)
    if x_max < lo:
        return Fraction(0)
    numerator = sum(
        math.comb(K, x) * math.comb(N - K, m - x) for x in range(lo, min(int(x_max), hi) + 1)
    )
    return Fraction(numerator, math.comb(N, m))


def hypergeometric_tail_check(N: int, K: int, m: int, t: float) -> tuple[float, float]:
    """Exact lower-tail probability P(X <= (K/N - t) m) next to exp(-2 t^2 m)."""
    N, K, m = _check_size(N, "N", 1), _check_size(K, "K", 0), _check_size(m, "m", 0)
    t = float(t)
    if not (0.0 < t < m * K / N):
        raise ValidationError(f"t must satisfy 0 < t < m*K/N = {m * K / N:.6g}, got {t}")
    threshold = (K / N - t) * m
    # tiny slack so thresholds that are mathematically integers are included
    # despite binary rounding (e.g. (0.5 - 0.2) * 10)
    x_max = math.floor(threshold + 1e-9)
    exact = float(hypergeometric_cdf(N, K, m, x_max))
    bound = math.exp(-2.0 * t * t * m)
    return exact, bound

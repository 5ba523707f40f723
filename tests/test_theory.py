import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsbm import (
    BoundInapplicableError,
    SizeGuardError,
    ValidationError,
    chi_alpha_expectation,
    chi_alpha_expectation_bruteforce,
    chi_square_bruteforce,
    chi_square_closed_form,
    hypergeometric_cdf,
    hypergeometric_tail_check,
    kappa,
    lambda_count_bound,
    lambda_count_partition,
    ldlr_norm_bruteforce,
    ldlr_norm_exact,
    ldlr_projection_oracle,
    ldlr_upper_bound,
    signed_vandermonde,
    signed_vandermonde_closed_form,
)
from mlsbm import theory
from mlsbm.model import edge_probability
from mlsbm.theory import _parity_table, _slot_list

from conftest import balanced_assignments


def logsumexp(values):
    peak = max(values)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in values))


def all_slots(n, T):
    return [(i, j, t) for t in range(1, T + 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


# -------------------------------------------------------------------- kappa


@given(rho=st.floats(1e-4, 0.66))
def test_kappa_formula(rho):
    assert kappa(rho) == pytest.approx((rho / 2) / math.sqrt(rho * (1 - rho)))


# -------------------------------------------------------------- chi-square


def test_chi_square_single_slot_algebraic_value():
    # n=2, T=1: the sole pair is always cross-community, so the planted
    # marginal is Bernoulli(rho/2) or Bernoulli(3rho/2) by layer type; both
    # give divergence rho/(4(1-rho)) = kappa^2.
    for rho in (0.1, 0.25, 0.5):
        for tau in ((0,), (1,)):
            value = chi_square_bruteforce(2, 1, rho, tau)
            assert value == pytest.approx(rho / (4 * (1 - rho)), rel=1e-12)
            assert value == pytest.approx(kappa(rho) ** 2, rel=1e-12)


def test_chi_square_closed_matches_brute_small_grid():
    for rho in (0.05, 0.1, 0.3):
        closed = chi_square_closed_form(4, 2, rho).value
        for tau in ((0, 1), (1, 0)):
            brute = chi_square_bruteforce(4, 2, rho, tau)
            assert abs(closed - brute) <= 1e-10 * max(1.0, abs(closed), abs(brute))


def test_chi_square_vanishes_with_density():
    assert chi_square_closed_form(4, 2, 1e-8).value < 1e-6


def test_chi_square_monotone_in_rho():
    values = [
        chi_square_closed_form(4, 2, rho).value
        for rho in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v >= 0 for v in values)


def test_chi_square_report_internal_consistency():
    report = chi_square_closed_form(6, 4, 0.2)
    logs = [term for _, term in report.per_c_terms]
    recomputed = math.expm1(logsumexp(logs))
    assert report.value == pytest.approx(recomputed, rel=1e-12)
    assert [c for c, _ in report.per_c_terms] == list(range(0, 4))


def test_chi_square_overflow_is_inf_not_an_error():
    for n, T, rho in ((200, 10**6, 0.01), (2, 10**10, 0.1)):
        assert chi_square_closed_form(n, T, rho).value == math.inf


def test_chi_square_brute_force_guard_and_validation():
    with pytest.raises(SizeGuardError):
        chi_square_bruteforce(4, 5, 0.1, (0,) * 5)  # 30 slots > 24
    with pytest.raises(ValidationError):
        chi_square_bruteforce(4, 2, 0.1, (0, 2))
    with pytest.raises(ValidationError):
        chi_square_closed_form(5, 2, 0.1)
    with pytest.raises(ValidationError):
        chi_square_closed_form(4, 2, 0.9)


def test_chi_square_tau_independence_exhaustive():
    values = [chi_square_bruteforce(4, 2, 0.3, tau) for tau in ((0, 1), (1, 0))]
    assert values[0] == pytest.approx(values[1], rel=1e-12)


# ------------------------------------------------------- enumeration core


@given(
    n=st.sampled_from([2, 4, 6]),
    T=st.sampled_from([2, 4]),
    rho=st.floats(1e-3, 0.66),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_parity_table_cells_are_the_model_edge_probabilities(n, T, rho, data):
    slots = _slot_list(n, T)
    sigmas = [s.labels for s in balanced_assignments(n)]
    taus = [t.labels for t in balanced_assignments(T)]
    fixed_tau = tuple(data.draw(st.lists(st.integers(0, 1), min_size=T, max_size=T)))
    layouts = (
        (_parity_table("test", n, T, slots, fixed_tau), [(s, fixed_tau) for s in sigmas]),
        (_parity_table("test", n, T, slots), [(s, t) for s in sigmas for t in taus]),
    )
    for table, rows in layouts:
        assert table.shape == (len(rows), len(slots))
        probs = np.where(table == 0, 1.5 * rho, 0.5 * rho)
        for row, (sigma, tau) in zip(probs, rows):
            expected = [
                edge_probability(sigma[i - 1], sigma[j - 1], tau[t - 1], rho)
                for i, j, t in slots
            ]
            assert row.tolist() == expected


@pytest.mark.parametrize(
    "call",
    [
        lambda: ldlr_projection_oracle(4, 4, 0.1, 1),  # 2^24 tensors x 36 labellings
        lambda: ldlr_projection_oracle(2, 16, 0.1, 1),  # 2^16 tensors x 25740 labellings
        lambda: chi_alpha_expectation_bruteforce([(1, 2, 1)], 20, 20, 0.1),  # 184756^2 rows
    ],
    ids=["projection-4-4", "projection-2-16", "alpha-20-20"],
)
def test_oracle_guard_refuses_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match="table cells"):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tensor_oracles_sum_across_uneven_chunks(monkeypatch):
    # 4096 tensors in one chunk, then in chunks of 100 with a short last one
    whole = (chi_square_bruteforce(4, 2, 0.3, (0, 1)), ldlr_projection_oracle(4, 2, 0.3, 2))
    monkeypatch.setattr(theory, "_CHUNK_TENSORS", 100)
    chunked = (chi_square_bruteforce(4, 2, 0.3, (0, 1)), ldlr_projection_oracle(4, 2, 0.3, 2))
    for a, b in zip(whole, chunked):
        assert b == pytest.approx(a, rel=1e-12)


def test_ldlr_routes_reject_a_float_degree():
    for route in (ldlr_norm_exact, ldlr_norm_bruteforce, ldlr_projection_oracle, ldlr_upper_bound):
        with pytest.raises(ValidationError, match="D must be an integer >= 1, got 2.0"):
            route(4, 2, 0.01, 2.0)


# -------------------------------------------------- Walsh-basis expectations


def test_singleton_alpha_expectation_is_zero():
    for slot in all_slots(4, 2):
        assert chi_alpha_expectation([slot], 4, 2, 0.3) == 0.0


def test_paired_layer_alpha_closed_value():
    # alpha = {(1,2,layer1), (1,2,layer2)}: U empty, V = both layers
    alpha = [(1, 2, 1), (1, 2, 2)]
    value = chi_alpha_expectation(alpha, 4, 2, 0.3)
    assert value == pytest.approx(-kappa(0.3) ** 2, rel=1e-12)


def test_alpha_expectation_brute_matches_closed_up_to_size_three():
    slots = all_slots(4, 2)
    rho = 0.25
    from itertools import combinations

    checked = 0
    for size in (1, 2, 3):
        for alpha in combinations(slots, size):
            closed = chi_alpha_expectation(alpha, 4, 2, rho)
            brute = chi_alpha_expectation_bruteforce(alpha, 4, 2, rho)
            assert abs(closed - brute) <= 1e-12 * max(1.0, abs(closed)), alpha
            checked += 1
    assert checked == 12 + 66 + 220


def test_alpha_validation():
    with pytest.raises(ValidationError):
        chi_alpha_expectation([(2, 1, 1)], 4, 2, 0.3)  # i >= j
    with pytest.raises(ValidationError):
        chi_alpha_expectation([(1, 2, 3)], 4, 2, 0.3)  # layer out of range
    with pytest.raises(ValidationError):
        chi_alpha_expectation([(1, 2, 1), (1, 2, 1)], 4, 2, 0.3)  # duplicate


# ------------------------------------------------------------- lambda counts


def class_count(n, T, a, r, k):
    """Exact size of the (a, r, k) parity class."""
    return lambda_count_partition(n, T, a)["counts"].get((r, k), 0)


def test_lambda_singletons_all_zero():
    for r in range(0, 3):
        for k in range(0, 2):
            assert class_count(4, 2, 1, r, k) == 0


def test_lambda_paired_slots_count():
    assert class_count(4, 2, 2, 0, 1) == 6


def test_lambda_partition_accounts_for_every_subset():
    for n, T, a in ((4, 2, 1), (4, 2, 2), (4, 2, 3), (8, 4, 2)):
        partition = lambda_count_partition(n, T, a)
        total = math.comb(math.comb(n, 2) * T, a)
        assert partition["total_subsets"] == total
        assert sum(partition["counts"].values()) + partition["odd_layer_parity"] == total
        # |U_alpha| is always even: every (r, k) key indexes even |U| = 2r
        assert all(r >= 0 and k >= 0 for r, k in partition["counts"])


def test_lambda_guard():
    with pytest.raises(SizeGuardError):
        lambda_count_partition(40, 40, 9)


def sweep_bound_violations(n, T, max_a, strengthened=False):
    violations = []
    for a in range(1, max_a + 1):
        for r in range(0, n // 2 + 1):
            for k in range(0, T // 2 + 1):
                exact = class_count(n, T, a, r, k)
                bound = lambda_count_bound(n, T, a, r, k, strengthened=strengthened)
                if exact > bound:
                    violations.append((a, r, k, exact, bound))
    return violations


def test_lambda_bound_sanity_sweep_small_size_logged():
    # asymptotic bound: at the smallest size violations are logged, not failed
    violations = sweep_bound_violations(4, 2, 3)
    if violations:
        warnings.warn(f"asymptotic count bound exceeded at n=4, T=2: {violations}")


def test_lambda_bound_holds_at_moderate_size():
    assert sweep_bound_violations(8, 4, 3) == []
    assert sweep_bound_violations(8, 4, 3, strengthened=True) == []


def test_lambda_bound_monotone_in_subset_size():
    values = [lambda_count_bound(8, 4, a, 1, 1) for a in range(1, 11)]
    assert all(v >= 0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_lambda_bound_strengthened_never_larger():
    for a in range(1, 8):
        for r in range(0, 4):
            for k in range(0, 2):
                default = lambda_count_bound(8, 4, a, r, k)
                strengthened = lambda_count_bound(8, 4, a, r, k, strengthened=True)
                assert strengthened <= default


def test_lambda_bound_empty_classes():
    # 2r > n or 2k > T: the class is empty and the bound degenerates to zero
    assert lambda_count_bound(4, 2, 2, 3, 0) == 0.0
    assert lambda_count_bound(4, 2, 2, 0, 2) == 0.0
    assert class_count(4, 2, 2, 3, 0) == 0


# ---------------------------------------------------------------- LDLR norm


def test_ldlr_degree_one_is_exactly_zero():
    for rho in (0.1, 0.2, 0.5):
        assert ldlr_norm_exact(4, 2, rho, 1).value == 0.0
        assert ldlr_norm_bruteforce(4, 2, rho, 1) == 0.0
        assert ldlr_projection_oracle(4, 2, rho, 1) == pytest.approx(0.0, abs=1e-20)


def test_ldlr_exact_matches_bruteforce():
    exact = ldlr_norm_exact(4, 2, 0.2, 3).value
    brute = ldlr_norm_bruteforce(4, 2, 0.2, 3)
    assert abs(exact - brute) <= 1e-10 * max(1.0, exact)


def test_ldlr_projection_oracle_agrees():
    exact = ldlr_norm_exact(4, 2, 0.5, 2).value
    projected = ldlr_projection_oracle(4, 2, 0.5, 2)
    assert abs(exact - projected) <= 1e-9 * max(1.0, exact)


@pytest.mark.parametrize("n,T", [(2, 2), (4, 2), (2, 4), (4, 4), (6, 2), (2, 6)])
def test_ldlr_oracles_track_the_exact_route_to_rounding(n, T):
    # Each oracle sums its terms exactly rounded, so the brute force sits
    # within 1e-15 relative of the exact route; the projection's chunked
    # coefficients within 1e-13 (its degree-1 zero within 1e-20 absolute).
    for rho in (0.1, 0.3, 0.5):
        for D in range(1, 5):
            exact = ldlr_norm_exact(n, T, rho, D).value
            assert abs(ldlr_norm_bruteforce(n, T, rho, D) - exact) <= 1e-15 * exact
            try:
                projected = ldlr_projection_oracle(n, T, rho, D)
            except SizeGuardError:  # 2^slots tensors past the guard: (4, 4) and (6, 2)
                continue
            assert projected == pytest.approx(exact, rel=1e-13, abs=1e-20)


def test_ldlr_monotone_in_degree_and_density():
    by_degree = [ldlr_norm_exact(4, 2, 0.2, D).value for D in (1, 2, 3)]
    assert by_degree[0] <= by_degree[1] <= by_degree[2]
    by_rho = [ldlr_norm_exact(4, 2, rho, 2).value for rho in (0.1, 0.2, 0.3, 0.5)]
    assert all(b >= a for a, b in zip(by_rho, by_rho[1:]))


def test_ldlr_report_per_degree_terms_sum_to_value():
    report = ldlr_norm_exact(4, 2, 0.3, 3)
    assert report.degree == 3
    assert report.kappa == pytest.approx(kappa(0.3))
    assert [a for a, _ in report.per_a_terms] == [1, 2, 3]
    assert math.fsum(v for _, v in report.per_a_terms) == pytest.approx(
        report.value, rel=1e-12
    )
    assert all(v >= 0 for _, v in report.per_a_terms)


def test_ldlr_degree_past_the_slot_count_stops_at_it():
    # binom(4, 2) * 2 = 12 slots: no subset has more, so D = 10^9 is D = 12
    start = time.perf_counter()
    huge = ldlr_norm_exact(4, 2, 0.1, 10**9)
    assert time.perf_counter() - start < 1.0
    capped = ldlr_norm_exact(4, 2, 0.1, 12)
    assert huge.value == capped.value and huge.per_a_terms == capped.per_a_terms
    assert huge.degree == 10**9
    assert ldlr_norm_bruteforce(4, 2, 0.1, 10**9) == ldlr_norm_bruteforce(4, 2, 0.1, 12)
    assert ldlr_projection_oracle(4, 2, 0.1, 10**9) == ldlr_projection_oracle(4, 2, 0.1, 12)


def test_ldlr_squared_denominators_adjudicated():
    # The same triple sum with unsquared binomial denominators disagrees with
    # the brute-force oracle by far more than the numeric tolerance: the
    # squared form is the correct one.
    n, T, rho, D = 4, 2, 0.2, 3
    brute = ldlr_norm_bruteforce(n, T, rho, D)
    unsquared = 0.0
    for a in range(1, D + 1):
        for r in range(0, n // 2 + 1):
            for k in range(0, T // 2 + 1):
                count = class_count(n, T, a, r, k)
                if count == 0:
                    continue
                numer = math.comb(n // 2, r) * math.comb(T // 2, k)
                denom = math.comb(n, 2 * r) * math.comb(T, 2 * k)
                unsquared += count * kappa(rho) ** (2 * a) * numer**2 / denom
    assert abs(unsquared - brute) / brute > 0.1


def test_ldlr_guard():
    with pytest.raises(SizeGuardError):
        ldlr_norm_exact(10, 10, 0.1, 6)


def test_ldlr_guard_refuses_a_long_slot_list_before_building_it():
    # degree 1 admits binom(slots, 1) subsets, but listing 9.95 million
    # slots would take minutes
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="capped at 100000 slots, got 9950000"):
        ldlr_norm_exact(200, 500, 0.1, 1)
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------------ xi bound


def test_xi_bound_zero_density():
    assert ldlr_upper_bound(4, 2, 0.0, 3) == 0.0


def test_xi_bound_arithmetic_and_dominance():
    n, T, rho, D = 4, 2, 0.01, 2
    xi = 2 * D ** (4 / 3) * rho * n * math.sqrt(T)
    assert xi == pytest.approx(0.28509, rel=1e-4)
    bound = ldlr_upper_bound(n, T, rho, D)
    assert bound == pytest.approx(8 * xi / (1 - xi), rel=1e-12)
    assert ldlr_norm_exact(n, T, rho, D).value <= bound


def test_xi_bound_inapplicable_raises_with_xi():
    with pytest.raises(BoundInapplicableError) as excinfo:
        ldlr_upper_bound(100, 100, 0.1, 3)
    assert excinfo.value.xi >= 1.0


def test_xi_bound_strengthened_variant_smaller():
    n, T, rho, D = 4, 2, 0.01, 3
    assert ldlr_upper_bound(n, T, rho, D, strengthened=True) < ldlr_upper_bound(
        n, T, rho, D
    )


# --------------------------------------------------------- appendix lemmas


def test_signed_vandermonde_reference_values():
    assert signed_vandermonde(3, 1) == 0
    assert signed_vandermonde(2, 2) == -2
    assert signed_vandermonde(6, 4) == 15


def test_signed_vandermonde_direct_summation_oracle():
    for m in range(1, 12):
        for k in range(0, m + 1):
            direct = sum(
                (-1) ** i * math.comb(m, i) * math.comb(m, k - i)
                for i in range(0, k + 1)
            )
            assert signed_vandermonde(m, k) == direct
            assert signed_vandermonde_closed_form(m, k) == direct


def test_signed_vandermonde_range_validation():
    with pytest.raises(ValidationError):
        signed_vandermonde(3, 4)
    with pytest.raises(ValidationError):
        signed_vandermonde(0, 0)


def test_hypergeometric_cdf_exact_fractions():
    assert hypergeometric_cdf(4, 2, 2, 0) == Fraction(1, 6)
    assert hypergeometric_cdf(4, 2, 2, 1) == Fraction(5, 6)
    assert hypergeometric_cdf(4, 2, 2, 2) == Fraction(1)
    assert hypergeometric_cdf(20, 10, 10, 10) == Fraction(1)


def test_hypergeometric_symmetric_midpoint():
    # balanced case: P(X <= m/2) = 1/2 + P(X = m/2)/2 by symmetry
    cdf_mid = hypergeometric_cdf(20, 10, 10, 5)
    mode_mass = hypergeometric_cdf(20, 10, 10, 5) - hypergeometric_cdf(20, 10, 10, 4)
    assert cdf_mid == Fraction(1, 2) + mode_mass / 2


def test_hypergeometric_tail_examples():
    for t in (0.1, 0.2, 0.3):
        exact, bound = hypergeometric_tail_check(20, 10, 10, t)
        assert 0.0 <= exact <= bound
        assert bound == pytest.approx(math.exp(-2 * t * t * 10), rel=1e-12)


def test_hypergeometric_tail_near_boundary():
    exact, bound = hypergeometric_tail_check(20, 10, 10, 0.49)
    assert exact <= bound
    assert exact == pytest.approx(float(hypergeometric_cdf(20, 10, 10, 0)), rel=1e-12)


def test_hypergeometric_tail_threshold_rounding_slack():
    # (K/N - t)m = 2.9999999999999996 in binary; the threshold must still be 3
    exact, _ = hypergeometric_tail_check(20, 10, 10, 0.2)
    assert exact == pytest.approx(float(hypergeometric_cdf(20, 10, 10, 3)), rel=1e-12)


def test_hypergeometric_tail_validation():
    with pytest.raises(ValidationError):
        hypergeometric_tail_check(20, 10, 10, 0.0)
    with pytest.raises(ValidationError):
        hypergeometric_tail_check(20, 10, 10, 5.0)  # t == mK/N upper limit
    with pytest.raises(ValidationError):
        hypergeometric_tail_check(0, 0, 0, 0.1)  # no population to draw from


@given(
    N=st.integers(4, 40).filter(lambda v: v % 2 == 0),
    m_frac=st.sampled_from([2, 4]),
)
@settings(max_examples=20, deadline=None)
def test_hypergeometric_cdf_total_mass(N, m_frac):
    K, m = N // 2, N // m_frac
    assert hypergeometric_cdf(N, K, m, m) == Fraction(1)

"""Acceptance suite: exact-formula oracle equivalence at desk scale plus
calibrated finite-size Monte-Carlo checks.

The suite runs scripts/calibrate.py's PROTOCOLS table once per session
(conftest.fresh), compares its rendering with the frozen fixture byte for byte
(the pipeline is deterministic), then asserts each target on the fresh
numbers. One deliberate failure ships in this file: the computational-regime
median-loss target of 0.05 is not met by the pinned spectral pipeline at
n=128 (measured 0.0625); the assertion message in that test carries the evidence.
"""

import math
import os
import subprocess
import sys
import warnings

import pytest

from calibrate import BASE_SEED, PROTOCOLS, render
from conftest import FIXTURES, assert_no_child_left, fresh, parity_even_graph, spare_cpus
from mlsbm import Assignment
from mlsbm.cli import main
from mlsbm.errors import BoundInapplicableError
from mlsbm.metrics import hamming_loss
from mlsbm.recovery import mle_exhaustive
from mlsbm.theory import (
    chi_square_bruteforce,
    chi_square_closed_form,
    hypergeometric_tail_check,
    lambda_count_bound,
    lambda_count_partition,
    ldlr_norm_bruteforce,
    ldlr_norm_exact,
    ldlr_projection_oracle,
    ldlr_upper_bound,
    signed_vandermonde,
    signed_vandermonde_closed_form,
)


# ---------------------------------------------------------------------------
# 1. chi-square divergence: closed form == enumeration, for every layer typing
# ---------------------------------------------------------------------------


def test_chi_square_closed_form_matches_enumeration_for_every_tau():
    for rho in (0.05, 0.1, 0.3, 0.5):
        closed = chi_square_closed_form(4, 2, rho).value
        for tau in ((0, 1), (1, 0)):
            brute = chi_square_bruteforce(4, 2, rho, tau)
            assert closed == pytest.approx(brute, rel=1e-10)


# ---------------------------------------------------------------------------
# 2. low-degree norm: three independent computation routes agree
# ---------------------------------------------------------------------------


def test_low_degree_norm_three_routes_agree():
    for rho in (0.1, 0.2, 0.5):
        for D in (1, 2, 3):
            exact = ldlr_norm_exact(4, 2, rho, D).value
            brute = ldlr_norm_bruteforce(4, 2, rho, D)
            projected = ldlr_projection_oracle(4, 2, rho, D)
            if D == 1:
                # degree-1 terms all carry odd node parity, so the norm is 0;
                # the two algebraic routes return it literally, the
                # least-squares projection at its double-precision floor
                assert exact == 0.0 and brute == 0.0
                assert abs(projected) <= 1e-20
            else:
                assert brute == pytest.approx(exact, rel=1e-9)
                assert projected == pytest.approx(exact, rel=1e-9)


# ---------------------------------------------------------------------------
# 3. parity-class counts partition the subsets; counting bound at the larger size
# ---------------------------------------------------------------------------


def test_parity_class_partition_and_count_bound():
    for (n, T), strict in (((4, 2), False), ((8, 4), True)):
        for a in (1, 2, 3):
            partition = lambda_count_partition(n, T, a)
            counted = sum(partition["counts"].values()) + partition["odd_layer_parity"]
            assert counted == partition["total_subsets"]
            for (r, k), exact in partition["counts"].items():
                bound = lambda_count_bound(n, T, a, r, k)
                if strict:
                    assert exact <= bound
                elif exact > bound:
                    # asymptotic counting bound; small-size exceedances are
                    # reported, not failed
                    warnings.warn(
                        f"count bound exceeded at n={n} T={T} a={a} r={r} k={k}: "
                        f"{exact} > {bound:.6g}",
                        RuntimeWarning,
                    )


# ---------------------------------------------------------------------------
# 4. signed convolution identity; hypergeometric tail bound sweep
# ---------------------------------------------------------------------------


def test_signed_convolution_identity_and_tail_bound_sweep():
    for m in range(1, 31):
        for k in range(0, m + 1):
            assert signed_vandermonde(m, k) == signed_vandermonde_closed_form(m, k)
    points = 0
    for N in (20, 40, 60, 100, 200):
        K = N // 2
        for m in (N // 4, N // 2):
            for t in (0.05, 0.1, 0.2, 0.3, 0.45):
                exact, bound = hypergeometric_tail_check(N, K, m, t)
                assert exact <= bound + 1e-15
                points += 1
    assert points == 50


# ---------------------------------------------------------------------------
# 5. norm upper bound: dominance when applicable; regime probe below ten
# ---------------------------------------------------------------------------


def test_norm_upper_bound_dominance_and_regime_probe():
    applicable = 0
    for rho in (0.005, 0.01, 0.02, 0.1, 0.2, 0.5):
        for D in (1, 2, 3):
            exact = ldlr_norm_exact(4, 2, rho, D).value
            try:
                bound = ldlr_upper_bound(4, 2, rho, D)
            except BoundInapplicableError as exc:
                assert exc.xi >= 1.0
                continue
            applicable += 1
            assert exact <= bound
    assert applicable >= 3  # the small-density corner keeps the check non-vacuous

    n, T = 1000, 100
    rho = 0.5 * math.log(n) ** -1.4 / (n * math.sqrt(T))
    D = math.ceil(math.log(n) ** 1.01)
    assert D == 8
    with pytest.raises(BoundInapplicableError) as excinfo:
        ldlr_upper_bound(n, T, rho, D)
    assert excinfo.value.xi == pytest.approx(1.069173686750102, rel=1e-12)
    bound = ldlr_upper_bound(n, T, rho, D, strengthened=True)
    assert bound == pytest.approx(9.189028470990914, rel=1e-12)
    assert bound < 10.0


# ---------------------------------------------------------------------------
# 6. exact search correctness and the local-search battery
# ---------------------------------------------------------------------------


def test_exhaustive_search_noiseless_and_calibrated_noisy_recovery():
    for n in (4, 6):
        sigma = Assignment(tuple([0] * (n // 2) + [1] * (n // 2)))
        for T in (2, 4):
            tau = Assignment(tuple([0] * (T // 2) + [1] * (T // 2)))
            graph = parity_even_graph(n, T, sigma.labels, tau.labels)
            result = mle_exhaustive(graph)
            assert hamming_loss(result.sigma_hat, sigma).value == 0.0

    mean = fresh("mle")["exhaustive_mean_loss_n10_T6_rho0.4"]
    assert mean <= 0.1


def test_local_search_battery_matches_exact_objective_often_enough():
    rate = fresh("mle")["multistart_match_rate_n12_T8_rho0.4"]
    assert rate >= 0.8


# ---------------------------------------------------------------------------
# 7. computational-regime recovery at n=128, T=64, rho = 8/(n sqrt(T))
# ---------------------------------------------------------------------------


def test_computational_regime_bias_adjusted_median_loss():
    median = fresh("spectral")["bias_adjusted_median_loss"]
    assert median <= 0.05, (
        f"median loss {median} over the 20 frozen seeds misses the 0.05 target. "
        "This failure is genuine, not a seed artifact: across 30 disjoint "
        "20-seed batches at this cell the median is 0.0625 in 23 and <= 0.05 "
        "in only 7, so the pinned pipeline (squared-adjacency accumulation "
        "with degree correction, top-2 eigenpairs by magnitude, "
        "smaller-|mean| eigenvector, balanced sign rounding) typically sits "
        "one misplaced node pair above the target at n=128. Pipeline "
        "fidelity was cross-checked (dense matmul aggregation, eigensolver "
        "swap) with identical losses; the companion signal-cancellation "
        "check on the same instances passes. See "
        "tests/fixtures/calibration.json."
    )


def test_computational_regime_sum_spectral_cancellation():
    median = fresh("spectral")["sum_spectral_median_loss"]
    assert median >= 0.4


# ---------------------------------------------------------------------------
# 8. oracle-vs-blind gap demo and its easy control cell
# ---------------------------------------------------------------------------


def test_gap_demo_between_thresholds_and_control_cell():
    summary = fresh("gap")["gap_cell"]
    assert summary["between_thresholds"] is True
    assert summary["median_oracle_loss"] <= 0.25
    assert summary["median_spectral_loss"] >= 0.4

    control = fresh("gap")["control_cell"]
    assert control["median_oracle_loss"] <= 0.05
    assert control["median_spectral_loss"] <= 0.05


# ---------------------------------------------------------------------------
# 9. detection risk on the calibrated easy and hard cells
# ---------------------------------------------------------------------------


def test_detection_risk_easy_cell_low_hard_cell_high():
    easy_risk = fresh("detection")["easy_risk_at_chosen"]
    assert easy_risk <= 0.1
    hard_risk = fresh("detection")["hard_risk_at_chosen"]
    assert hard_risk >= 0.8


# ---------------------------------------------------------------------------
# 10. the phase example below rho = 0.01/(nT); the fixture the protocols write
# ---------------------------------------------------------------------------


def test_phase_example_easy_cell_recovers_below_info_cell_does_not():
    phase = fresh("phase")
    assert phase["easy_cell_mean_loss"] <= 0.05
    for loss in phase["below_info_mean_loss_by_method"].values():
        assert loss >= 0.4


def test_calibration_fixture_is_what_the_protocols_produce():
    fixture = {"base_seed": BASE_SEED, **{name: fresh(name) for name in PROTOCOLS}}
    assert render(fixture).encode() == (FIXTURES / "calibration.json").read_bytes()


def test_calibrate_script_runs_standalone_with_skip():
    argv = [sys.executable, "scripts/calibrate.py", "--skip", "mle", "spectral", "gap", "detection"]
    done = subprocess.run(argv, capture_output=True, text=True, check=False,
                          cwd=FIXTURES.parents[1], env={**os.environ, "PYTHONPATH": "src"})
    assert done.returncode == 0, done.stderr
    assert done.stdout == render({"base_seed": BASE_SEED, "phase": fresh("phase")})


def test_calibrate_script_refuses_to_write_a_fixture_with_skipped_sections(tmp_path):
    out = tmp_path / "calibration.json"
    argv = [sys.executable, "scripts/calibrate.py", "--skip", "phase", "--out", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, check=False,
                          cwd=FIXTURES.parents[1], env={**os.environ, "PYTHONPATH": "src"})
    assert done.returncode == 2 and done.stdout == ""
    assert "--out writes the whole fixture, so it cannot be used with --skip" in done.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# 11. byte-identical outputs across repeat runs and worker counts
# ---------------------------------------------------------------------------


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_outputs_byte_identical_across_runs_and_worker_counts(
    tmp_path, monkeypatch, capsys
):
    # seeded single-shot subcommands: identical stdout on repeat runs
    for argv in (
        ("recover", "--n", "16", "--T", "8", "--rho", "0.3", "--seed", "4",
         "--method", "sum-spectral"),
        ("detect", "--n", "8", "--T", "6", "--rho", "0.3", "--seed", "5",
         "--null", "--method", "shuffled-test", "--rounds", "1"),
        ("theory", "chi2", "--n", "4", "--T", "2", "--rho", "0.1", "--json"),
    ):
        code_a, out_a = _run_cli(capsys, *argv)
        code_b, out_b = _run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    # generate: identical files on repeat runs
    first, second = tmp_path / "g1.edges", tmp_path / "g2.edges"
    gen = ("generate", "--n", "10", "--T", "4", "--rho", "0.2", "--seed", "3",
           "--planted")
    assert _run_cli(capsys, *gen, "--out", str(first))[0] == 0
    assert _run_cli(capsys, *gen, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()

    # sweep: identical CSVs across repeat runs, on 1 process and on 4
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "kind = recovery\n"
        "cells = 8:4:0.3, 10:4:0.2\n"
        "methods = bias-adjusted-spectral, sum-spectral\n"
        "trials = 4\n"
        "base_seed = 13\n"
    )
    outputs = []
    for tag, helpers in (("a", 0), ("b", 0), ("c", 3), ("d", 3)):
        spare_cpus(monkeypatch, helpers)  # 8 units: 1 + helpers processes
        path = tmp_path / f"sweep-{tag}.csv"
        code, _ = _run_cli(capsys, "sweep", "--config", str(config),
                           "--out", str(path))
        assert code == 0
        assert_no_child_left()
        outputs.append(path.read_bytes())
    assert len(set(outputs)) == 1

    # gap-demo: identical stdout and records on 1 process and on 3
    runs = []
    for tag, helpers in (("x", 0), ("y", 3)):
        spare_cpus(monkeypatch, helpers)  # 4 units: at most 2 helpers
        path = tmp_path / f"gap-{tag}.csv"
        code, out = _run_cli(capsys, "gap-demo", "--n", "16", "--T", "64",
                             "--rho", "0.02", "--trials", "4", "--seed", "21",
                             "--out", str(path))
        assert code == 0
        assert_no_child_left()
        runs.append((out.replace(f"gap-{tag}.csv", "gap.csv"), path.read_bytes()))
    assert runs[0] == runs[1]

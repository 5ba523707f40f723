"""End-to-end command-line checks, run in process through main(argv)."""

import hashlib
import json
import os
import sys
import time
import tracemalloc
import warnings

import pytest

from conftest import assert_no_child_left, parity_even_graph, sample_in_caller_only, spare_cpus
from mlsbm import Assignment, MlsbmParams, ValidationError, hamming_loss, sample_planted
from mlsbm import experiments, theory
from mlsbm.cli import main
from mlsbm.detection import to_json_record as detection_record
from mlsbm.errors import SizeGuardError
from mlsbm.experiments import (
    DETECTION_RUNNERS,
    RECOVERY_RUNNERS,
    ExperimentConfig,
    read_results,
    run_phase_diagram,
    write_results,
)
from mlsbm.model import MultiLayerGraph, PlantedInstance, read_graph, write_graph
from mlsbm.recovery import to_json_record as recovery_record
from mlsbm.seeding import derive_seed


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def complete_graph(n, T):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return MultiLayerGraph(n=n, T=T, layers=[list(edges) for _ in range(T)])


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_generate_is_deterministic_and_writes_footers(tmp_path, capsys):
    args = ("generate", "--n", "8", "--T", "4", "--rho", "0.3",
            "--seed", "7", "--planted")
    first = tmp_path / "a.edges"
    second = tmp_path / "b.edges"
    code, out, _ = run(capsys, *args, "--out", str(first))
    assert code == 0 and str(first) in out
    code, _, _ = run(capsys, *args, "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.startswith("mlsbm-edges v1 n=8 T=4")
    assert "sigma" in text and "tau" in text  # planted footers present


def test_generate_writes_a_layer_of_exactly_128_edges(tmp_path, capsys):
    # Layer 2 of this null graph draws 128 edges, one more than an int8 holds.
    out = tmp_path / "g.edges"
    code, _, err = run(capsys, "generate", "--n", "20", "--T", "2", "--rho", "0.6",
                       "--seed", "59", "--out", str(out))
    assert code == 0, err
    assert int((read_graph(out).layer_ids == 1).sum()) == 128


def test_generate_rejects_bad_parameters(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--n", "7", "--T", "4",
                       "--rho", "0.3", "--out", str(tmp_path / "x"))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "generate", "--n", "8", "--T", "4",
                       "--rho", "0.9", "--out", str(tmp_path / "x"))
    assert code == 2 and "error:" in err
    assert not (tmp_path / "x").exists()


def test_generate_surfaces_io_failures(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--n", "8", "--T", "4", "--rho", "0.3",
                       "--out", str(tmp_path / "no-such-dir" / "x.edges"))
    assert code == 1 and "io error" in err


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------


def test_recover_exact_search_on_noiseless_file(tmp_path, capsys):
    sigma, tau = Assignment((0, 0, 1, 1)), Assignment((0, 1))
    graph = parity_even_graph(4, 2, sigma.labels, tau.labels)
    path = tmp_path / "planted.edges"
    write_graph(path, PlantedInstance(graph=graph, sigma=sigma, tau=tau))
    out_path = tmp_path / "result.json"
    code, _, _ = run(capsys, "recover", "--in", str(path),
                     "--method", "mle-exhaustive", "--out", str(out_path))
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["loss_vs_truth"] == 0.0
    assert record["method"] == "mle-exhaustive"
    assert record["objective"] == 6


def test_recover_inline_sampling_prints_json(capsys):
    code, out, _ = run(capsys, "recover", "--n", "16", "--T", "8", "--rho", "0.3",
                       "--seed", "4", "--method", "sum-spectral")
    assert code == 0
    record = json.loads(out)
    assert 0.0 <= record["loss_vs_truth"] <= 0.5
    assert len(record["sigma_hat"]) == 16


def test_recover_needs_a_graph_source(capsys):
    code, _, err = run(capsys, "recover", "--n", "16", "--method", "sum-spectral")
    assert code == 2 and "--in FILE" in err


def test_recover_oracle_method_requires_planted_input(tmp_path, capsys):
    path = tmp_path / "null.edges"
    write_graph(path, complete_graph(6, 4))
    code, _, err = run(capsys, "recover", "--in", str(path),
                       "--method", "oracle-tau-spectral")
    assert code == 2 and "planted" in err


@pytest.mark.parametrize("edge_line", [b"1 1 2\xe9", b"1 1 99999999999999999999"],
                         ids=["non-ascii", "int64-overflow"])
def test_recover_on_an_unparseable_file_is_a_validation_error(tmp_path, capsys, edge_line):
    path = tmp_path / "bad.edges"
    path.write_bytes(b"mlsbm-edges v1 n=4 T=2\n" + edge_line + b"\n")
    code, _, err = run(capsys, "recover", "--in", str(path), "--method", "sum-spectral")
    assert code == 2 and err.startswith("error:")


def test_recover_on_a_file_declaring_too_many_layers_is_a_size_guard(tmp_path, capsys):
    path = tmp_path / "huge.edges"
    path.write_text("mlsbm-edges v1 n=4 T=1000000000000\n1 1 2\n")
    code, _, err = run(capsys, "recover", "--in", str(path), "--method", "sum-spectral")
    assert code == 3 and err.startswith("size guard:")


def test_recover_local_search_on_an_odd_layer_count_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "odd.edges"
    write_graph(path, complete_graph(6, 3))
    code, _, err = run(capsys, "recover", "--in", str(path), "--method", "mle-local-search")
    assert code == 2 and "mle_local_search_multistart needs even n >= 2 and even T" in err


def test_recover_exhaustive_on_an_odd_layer_count_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "odd.edges"
    write_graph(path, complete_graph(6, 3))
    code, _, err = run(capsys, "recover", "--in", str(path), "--method", "mle-exhaustive")
    assert code == 2 and "mle_exhaustive needs even n >= 2 and even T, got n=6, T=3" in err


def test_recover_exhaustive_at_twenty_layers_prints_the_pinned_record(capsys):
    # A 20-layer search: C(6, 3)/2 = 10 sigma rows of E + T + 1 cells each.
    code, out, _ = run(capsys, "recover", "--n", "6", "--T", "20", "--rho", "0.4",
                       "--seed", "1", "--method", "mle-exhaustive")
    assert code == 0
    assert out == (
        '{\n  "degenerate_flag": false,\n  "loss_vs_truth": 0.0,\n  "method": "mle-exhaustive",\n'
        '  "objective": 103,\n  "sigma_hat": "010011",\n  "tau_hat": "10110111000000110110"\n}\n'
    )


def test_recover_exhaustive_at_four_hundred_layers_recovers_the_truth(capsys):
    code, out, _ = run(capsys, "recover", "--method", "mle-exhaustive", "--n", "16",
                       "--T", "400", "--rho", "0.0125", "--seed", "1")
    assert code == 0 and json.loads(out)["loss_vs_truth"] == 0.0


def test_recover_exhaustive_refuses_before_allocating(tmp_path, capsys):
    # one edge, but the search costs E + T + 1 cells per sigma, so T alone is refused
    path = tmp_path / "long.edges"
    path.write_text(f"mlsbm-edges v1 n=4 T={2**32}\n1 1 2\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "recover", "--in", str(path), "--method", "mle-exhaustive")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and out == "" and peak < 2**20
    assert err.startswith("size guard: mle_exhaustive searches n <= 20 with ")
    assert err.endswith(f"got n=4, E + T + 1 = {2**32 + 2}\n")
    code, _, err = run(capsys, "recover", "--method", "mle-exhaustive", "--n", "24",
                       "--T", "2", "--rho", "0.2")
    assert code == 3 and "got n=24," in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("mlsbm-edges v1 n=4 T=2\n2 1 2\n1 3 4\n", "edges must be sorted by layer"),
        ("mlsbm-edges v1 n=4 T=2\nsigma 0011\ntau 01\n1 1 2\n", "edge lines after footers"),
        ("mlsbm-edges v1 n=4 T=2\n1 1 2\nsigma 0011 0101\ntau 01\n", "malformed sigma footer"),
        ("mlsbm-edges v1 n=4 T=2\n1 1 2\ntau 01\n", "sigma and tau footers must appear together"),
        ("", "empty file"),
    ],
    ids=["unsorted", "edge-after-footer", "malformed-footer", "lone-footer", "empty"],
)
def test_recover_from_a_malformed_file_exits_2_with_the_reader_message(
    tmp_path, capsys, text, message
):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    code, out, err = run(capsys, "recover", "--in", str(path), "--method", "sum-spectral")
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


def test_recover_from_a_file_refuses_sampling_flags(tmp_path, capsys):
    path = tmp_path / "g.edges"
    write_graph(path, complete_graph(6, 4))
    code, out, err = run(capsys, "recover", "--in", str(path), "--n", "999", "--seed", "0",
                         "--method", "sum-spectral")
    assert code == 2 and out == ""
    assert err == ("error: --in FILE reads the graph from the file; "
                   "drop the sampling flags --n --seed\n")
    for flag in (("--T", "4"), ("--rho", "0.5")):
        assert run(capsys, "recover", "--in", str(path), *flag, "--method", "sum-spectral")[0] == 2


def test_recover_unknown_method_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["recover", "--n", "8", "--T", "4", "--rho", "0.3",
              "--method", "guesswork"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def test_detect_permutation_invariant_input_accepts_null(tmp_path, capsys):
    path = tmp_path / "flat.edges"
    write_graph(path, complete_graph(6, 4))
    code, out, _ = run(capsys, "detect", "--in", str(path))
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "split-test" and record["decision"] == 0
    code, out, _ = run(capsys, "detect", "--in", str(path),
                       "--method", "shuffled-test", "--rounds", "2")
    assert code == 0
    record = json.loads(out)
    assert record["decision"] == 0 and record["shuffle_rounds_used"] == 2


@pytest.mark.parametrize("method", list(DETECTION_RUNNERS))
def test_detect_refuses_zero_rounds_for_every_method(capsys, method):
    code, out, err = run(capsys, "detect", "--n", "20", "--T", "6", "--rho", "0.3",
                         "--rounds", "0", "--method", method)
    assert code == 2 and out == ""
    assert err == "error: rounds must be an integer >= 1, got 0\n"


def test_detect_from_a_file_refuses_sampling_flags(tmp_path, capsys):
    path = tmp_path / "g.edges"
    write_graph(path, sample_planted(MlsbmParams(n=8, T=6, rho=0.3), 1))
    code, out, err = run(capsys, "detect", "--in", str(path), "--null", "--n", "999",
                         "--rho", "5")
    assert code == 2 and out == ""
    assert err == ("error: --in FILE reads the graph from the file; "
                   "drop the sampling flags --n --rho --null\n")
    for flag in (("--T", "6"), ("--seed", "3"), ("--null",)):
        assert run(capsys, "detect", "--in", str(path), *flag)[0] == 2
    assert run(capsys, "detect", "--in", str(path))[0] == 0


def test_detect_inline_null_sampling(capsys):
    code, out, _ = run(capsys, "detect", "--n", "8", "--T", "6", "--rho", "0.3",
                       "--seed", "5", "--null")
    assert code == 0
    record = json.loads(out)
    assert record["decision"] in (0, 1)


# ---------------------------------------------------------------------------
# every method in the dispatch tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, method",
    [("recover", m) for m in RECOVERY_RUNNERS] + [("detect", m) for m in DETECTION_RUNNERS],
)
def test_cli_prints_the_dispatch_table_record(tmp_path, capsys, command, method):
    # n = 10 keeps mle-exhaustive's enumeration small
    path = tmp_path / "planted.edges"
    write_graph(path, sample_planted(MlsbmParams(n=10, T=6, rho=0.4), seed=3))
    instance = read_graph(path)
    if command == "recover":
        code, out, _ = run(capsys, "recover", "--in", str(path), "--method", method)
        result = RECOVERY_RUNNERS[method](instance.graph, instance.tau)
        loss = hamming_loss(result.sigma_hat, instance.sigma).value
        expected = recovery_record(result, loss_vs_truth=loss)
    else:
        code, out, _ = run(capsys, "detect", "--in", str(path), "--method", method,
                           "--rounds", "2", "--shuffle-seed", "5")
        outcome = DETECTION_RUNNERS[method](instance.graph, 2, 5)
        expected = detection_record(outcome, method=method, n=10, T=6)
    assert code == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# theory reports
# ---------------------------------------------------------------------------


def test_theory_chi2_small_case_passes(capsys):
    code, out, _ = run(capsys, "theory", "chi2",
                       "--n", "4", "--T", "2", "--rho", "0.1")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "theory", "chi2",
                       "--n", "4", "--T", "2", "--rho", "0.1", "--json")
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["closed_form"] == pytest.approx(payload["brute_force"], rel=1e-10)


@pytest.mark.parametrize("n, T", [("4", "2"), ("8", "4")], ids=["brute-force-runs", "skipped"])
def test_theory_chi2_rejects_a_malformed_tau(capsys, n, T):
    for tau in ("0a", "02", "0x", "0", "011"):
        code, out, err = run(capsys, "theory", "chi2", "--n", n, "--T", T,
                             "--rho", "0.1", "--tau", tau)
        assert code == 2 and err.startswith("error: tau ") and out == ""


def test_theory_chi2_skips_brute_force_past_the_guard(capsys):
    code, out, _ = run(capsys, "theory", "chi2",
                       "--n", "8", "--T", "4", "--rho", "0.1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute_force"] is None


def test_theory_chi2_reports_the_oracle_guard_and_builds_no_default_tau(capsys):
    # 2 slots per layer x 10^7 layers: the default tau would be a 10 MB string
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "theory", "chi2",
                           "--n", "2", "--T", "10000000", "--rho", "1e-4")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 1 << 20
    assert "brute force skipped: chi_square_bruteforce is capped at 24 slots" in out


def test_theory_chi2_overflow_prints_inf_and_exits_zero(capsys):
    for n, T, rho in (("200", "1000000", "0.01"), ("2", "10000000000", "0.1")):
        code, out, _ = run(capsys, "theory", "chi2", "--n", n, "--T", T, "--rho", rho)
        assert code == 0 and out.startswith("closed form: inf\nbrute force skipped: ")


def test_theory_json_reports_are_strict_json(capsys):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    code, out, _ = run(capsys, "theory", "chi2", "--n", "2", "--T", "10000000000",
                       "--rho", "0.1", "--json")
    assert code == 0
    assert json.loads(out, parse_constant=refuse)["closed_form"] == "inf"


def test_theory_ldlr_past_the_slot_cap_is_a_size_guard_refusal(capsys):
    code, _, err = run(capsys, "theory", "ldlr", "--n", "200", "--T", "500",
                       "--rho", "0.001", "--D", "1")
    assert code == 3 and err.startswith("size guard: subset enumeration is capped at")


def test_theory_ldlr_degree_past_the_slot_count_exits_zero(capsys):
    code, out, _ = run(capsys, "theory", "ldlr", "--n", "4", "--T", "2",
                       "--rho", "0.1", "--D", "1000000000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True and len(payload["per_a_terms"]) == 12


def test_theory_ldlr_degree_one_is_exactly_zero(capsys):
    code, out, _ = run(capsys, "theory", "ldlr", "--n", "4", "--T", "2",
                       "--rho", "0.2", "--D", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 0.0
    assert payload["brute_force"] == pytest.approx(0.0, abs=1e-12)
    assert payload["agree"] is True


def test_theory_ldlr_skips_the_projection_past_the_table_guard(capsys):
    # 24 slots x 36 labellings: the projection would enumerate 2^24 x 36
    # likelihood cells; the other two routes run
    code, out, _ = run(capsys, "theory", "ldlr", "--n", "4", "--T", "4",
                       "--rho", "0.1", "--D", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["projection"] is None and payload["agree"] is True
    assert payload["exact"] == payload["brute_force"] == 0.0
    code, out, _ = run(capsys, "theory", "ldlr", "--n", "4", "--T", "4",
                       "--rho", "0.1", "--D", "1")
    assert code == 0 and "projection skipped: ldlr_projection_oracle needs" in out


@pytest.mark.parametrize(
    "rho, D, code",
    [
        # all three routes read 1.46e-200
        ("1e-100", "2", 0),
        # the exact norm is 0 and the projection reads rounding noise
        ("0.1", "1", 0),
        ("1e-20", "1", 0),
        ("1e-20", "2", 0),
        ("0.3", "12", 0),
        # the projection reads nan, without a floating-point warning
        ("1e-320", "2", 1),
    ],
)
def test_theory_ldlr_agreement_is_relative(capsys, rho, D, code):
    got, out, err = run(capsys, "theory", "ldlr", "--n", "4", "--T", "2",
                        "--rho", rho, "--D", D, "--json")
    assert got == code
    assert json.loads(out)["agree"] is (code == 0)
    assert err == ""


def test_theory_ldlr_fails_a_projection_orders_of_magnitude_off(capsys, monkeypatch):
    # both differences are far below 1e-9 in absolute terms; only a
    # relative check sees 3.65e-127 against the exact 1.46e-200
    monkeypatch.setattr(theory, "ldlr_projection_oracle", lambda n, T, rho, D: 3.65e-127)
    got, out, err = run(capsys, "theory", "ldlr", "--n", "4", "--T", "2",
                        "--rho", "1e-100", "--D", "2", "--json")
    assert got == 1
    assert json.loads(out)["agree"] is False
    assert err == ""


def test_theory_chi2_passes_at_a_density_below_rounding_of_one(capsys):
    code, out, _ = run(capsys, "theory", "chi2",
                       "--n", "4", "--T", "2", "--rho", "1e-100", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["agree"] is True
    assert payload["closed_form"] == pytest.approx(payload["brute_force"], rel=1e-10, abs=0)


def test_theory_lambda_partitions_and_guards(capsys):
    code, out, _ = run(capsys, "theory", "lambda",
                       "--n", "8", "--T", "4", "--a", "3")
    assert code == 0 and "PASS: counts partition the subsets" in out
    code, _, err = run(capsys, "theory", "lambda",
                       "--n", "40", "--T", "40", "--a", "9")
    assert code == 3 and "size guard" in err


def test_theory_lambda_reports_each_parity_class(capsys):
    # an even a, so subsets with an even layer-parity set fill the table
    argv = ("theory", "lambda", "--n", "8", "--T", "4", "--a", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (
        "subsets of size a=2: 6216\n"
        "  r=0 k=1: exact=168 bound=156048 ok\n"
        "  r=1 k=0: exact=672 bound=364112 ok\n"
        "  r=1 k=1: exact=2016 bound=546168 ok\n"
        "  r=2 k=0: exact=840 bound=113785 ok\n"
        "  r=2 k=1: exact=2520 bound=170677 ok\n"
        "odd layer-parity subsets (excluded): 0\n"
        "PASS: counts partition the subsets\n"
    )
    code, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["partition_holds"] and payload["odd_layer_parity"] == 0
    cells = [(c["r"], c["k"], c["exact"], c["bound_holds"]) for c in payload["cells"]]
    assert cells == [(0, 1, 168, True), (1, 0, 672, True), (1, 1, 2016, True),
                     (2, 0, 840, True), (2, 1, 2520, True)]
    assert [c["upper_bound"] for c in payload["cells"]] == pytest.approx(
        [156047.87301268164, 364111.70369625743, 546167.5555443858,
         113784.90740508052, 170677.36110762067], rel=1e-12)
    assert sum(c[2] for c in cells) == payload["total_subsets"] == 6216


def test_theory_bounds_default_inapplicable_strengthened_applies(capsys):
    probe = ("--n", "1000", "--T", "100", "--rho", "3.3411677710940697e-06",
             "--D", "8")
    code, out, _ = run(capsys, "theory", "bounds", *probe, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["applicable"] is False
    assert payload["xi"] == pytest.approx(1.069173686750102, rel=1e-12)
    code, out, _ = run(capsys, "theory", "bounds", *probe, "--strengthened", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["applicable"] is True
    assert payload["bound"] == pytest.approx(9.189028470990914, rel=1e-12)
    assert payload["bound"] < 10.0
    assert payload["exact"] is None  # exact route is guarded at this size


def test_theory_bounds_dominance_at_a_small_point(capsys):
    code, out, _ = run(capsys, "theory", "bounds", "--n", "4", "--T", "2",
                       "--rho", "0.01", "--D", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["applicable"] is True and payload["dominated"] is True
    assert payload["exact"] <= payload["bound"]


def test_theory_lemmas_sweeps_pass(capsys):
    code, out, _ = run(capsys, "theory", "lemmas", "--m-max", "12")
    assert code == 0
    assert out.count("PASS") == 2


@pytest.mark.parametrize("m_max", ["0", "-3"])
def test_theory_lemmas_refuses_an_empty_sweep(capsys, m_max):
    code, out, err = run(capsys, "theory", "lemmas", "--m-max", m_max)
    assert code == 2 and out == ""
    assert err == f"error: m-max must be an integer >= 1, got {m_max}\n"


# ---------------------------------------------------------------------------
# sweep and gap-demo
# ---------------------------------------------------------------------------


def write_sweep_config(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "kind = recovery\n"
        "cells = 8:4:0.3\n"
        "methods = sum-spectral\n"
        "trials = 2\n"
        "base_seed = 13\n"
    )
    return path


def test_sweep_writes_csv_and_summarizes(tmp_path, capsys):
    config = write_sweep_config(tmp_path)
    out_csv = tmp_path / "results.csv"
    code, out, _ = run(capsys, "sweep", "--config", str(config), "--out", str(out_csv))
    assert code == 0
    assert "cell n8-T4-rho0.3 method sum-spectral: mean loss" in out
    assert "(2/2 trials)" in out
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 2  # header + trials x methods
    assert (tmp_path / "results.csv.config.json").exists()


def test_sweep_output_byte_identical_across_runs(tmp_path, capsys):
    config = write_sweep_config(tmp_path)
    first, second = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run(capsys, "sweep", "--config", str(config), "--out", str(first))[0] == 0
    assert run(capsys, "sweep", "--config", str(config), "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def refuse_sampling(patch):
    def refuse(*args):
        raise AssertionError("the study ran before its output path was checked")

    patch.setattr(experiments, "sample_planted", refuse)


def test_sweep_refuses_overwrite_without_force(tmp_path, capsys):
    config = write_sweep_config(tmp_path)
    out_csv = tmp_path / "results.csv"
    sidecar = tmp_path / "results.csv.config.json"
    assert run(capsys, "sweep", "--config", str(config), "--out", str(out_csv))[0] == 0
    with pytest.MonkeyPatch.context() as patch:
        refuse_sampling(patch)
        code, _, err = run(capsys, "sweep", "--config", str(config), "--out", str(out_csv))
        assert code == 1 and "io error" in err and "results.csv:" in err
        # the sidecar alone is refused too
        out_csv.unlink()
        code, _, err = run(capsys, "sweep", "--config", str(config), "--out", str(out_csv))
        assert code == 1 and "io error" in err and "results.csv.config.json:" in err
    assert run(capsys, "sweep", "--config", str(config), "--out", str(out_csv),
               "--force")[0] == 0
    assert out_csv.exists() and sidecar.exists()


def test_sweep_needs_an_output_path(tmp_path, monkeypatch, capsys):
    config = write_sweep_config(tmp_path)
    refuse_sampling(monkeypatch)
    code, _, err = run(capsys, "sweep", "--config", str(config))
    assert code == 2 and "--out" in err


def test_gap_demo_refuses_overwrite_without_force_before_running(tmp_path, monkeypatch, capsys):
    out_csv = tmp_path / "gap.csv"
    out_csv.write_text("kept\n")
    argv = ("gap-demo", "--n", "16", "--T", "64", "--rho", "0.02", "--trials", "2",
            "--out", str(out_csv))
    with pytest.MonkeyPatch.context() as patch:
        refuse_sampling(patch)
        code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "io error" in err and "gap.csv:" in err
    assert out_csv.read_text() == "kept\n"
    assert run(capsys, *argv, "--force")[0] == 0
    assert out_csv.read_text() != "kept\n"


def test_sweep_detection_kind_reports_risk(tmp_path, capsys):
    config = tmp_path / "det.cfg"
    config.write_text(
        "kind = detection\n"
        "cells = 8:6:0.3\n"
        "methods = split-test\n"
        "trials = 2\n"
    )
    out_csv = tmp_path / "det.csv"
    code, out, _ = run(capsys, "sweep", "--config", str(config), "--out", str(out_csv))
    assert code == 0
    assert "method split-test: risk" in out
    assert len(out_csv.read_text().splitlines()) == 1 + 2 * 2  # arms x trials


def test_sweep_on_an_exponent_grid_matches_the_library_phase_diagram(tmp_path, capsys):
    config = tmp_path / "ray.cfg"
    config.write_text(
        "n_values = 8, 12\n"
        "a = 1.0\n"
        "b = 0.5\n"
        "methods = bias-adjusted-spectral, sum-spectral\n"
        "trials = 2\n"
        "base_seed = 3\n"
    )
    out_csv = tmp_path / "ray.csv"
    assert run(capsys, "sweep", "--config", str(config), "--out", str(out_csv))[0] == 0
    expected = ExperimentConfig.from_exponents(
        [8, 12], 1.0, 0.5, methods=("bias-adjusted-spectral", "sum-spectral"),
        trials=2, base_seed=3,
    )
    library_csv = tmp_path / "library.csv"
    write_results(run_phase_diagram(expected), library_csv)
    assert out_csv.read_bytes() == library_csv.read_bytes()
    sidecar = json.loads((tmp_path / "ray.csv.config.json").read_text())
    assert sidecar == expected.to_json_dict()


def test_sweep_refuses_a_repeated_cell_before_running(tmp_path, capsys):
    for cells in ("cells = 8:4:0.3, 8:4:0.30", "n_values = 8, 8\na = 0.5\nb = 0.5"):
        config = tmp_path / "dup.cfg"
        config.write_text(f"kind = recovery\n{cells}\ntrials = 1\n")
        code, out, err = run(capsys, "sweep", "--config", str(config),
                             "--out", str(tmp_path / "dup.csv"))
        assert code == 2 and "repeats cell n8-T4-rho" in err and out == ""
        assert not (tmp_path / "dup.csv").exists()


def refuse_sweep(tmp_path, capsys, config_text):
    """Run a sweep that must be refused: exit 2, one error line, no output file."""
    config = tmp_path / "bad.cfg"
    config.write_text(config_text)
    code, out, err = run(capsys, "sweep", "--config", str(config),
                         "--out", str(tmp_path / "bad.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize(
    "n_values, a, b",
    [("0, 8", "1", "1.2"), ("-8", "0.5", "1"), ("8", "1e400", "1"), ("8", "nan", "1"),
     ("8", "1", "inf"), ("8", "1000", "1"), ("8", "1", "-1000"), ("7", "1", "1")],
    ids=["zero-n", "negative-n", "infinite-a", "nan-a", "infinite-b", "overflowing-T",
         "overflowing-rho", "odd-n"],
)
def test_sweep_refuses_a_bad_exponent_grid(tmp_path, capsys, n_values, a, b):
    refuse_sweep(tmp_path, capsys, f"n_values = {n_values}\na = {a}\nb = {b}\n")
    with pytest.raises(ValidationError):
        ExperimentConfig.from_exponents([int(v) for v in n_values.split(",")], float(a), float(b))


def test_exponent_grid_refuses_a_fractional_node_count():
    # a cell with n = 8.9 is refused; the grid used to truncate it to 8
    with pytest.raises(ValidationError, match="^n must be an integer, got 8.9$"):
        ExperimentConfig.from_exponents([8.9], 1, 1)


def test_sweep_refuses_rounds_on_a_recovery_sweep(tmp_path, capsys):
    refuse_sweep(tmp_path, capsys, "kind = recovery\ncells = 8:4:0.3\nrounds = 3\n")
    with pytest.raises(ValidationError, match="^rounds is for detection sweeps"):
        ExperimentConfig(kind="recovery", cells=((8, 4, 0.3),), methods=("sum-spectral",),
                         trials=1, rounds=3)


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--n", "8", "--T", "4", "--rho", "0.1", "--seed", "-1", "--out", "g.edges"),
        ("recover", "--n", "8", "--T", "4", "--rho", "0.1", "--seed", "-1",
         "--method", "sum-spectral"),
        ("gap-demo", "--n", "8", "--T", "4", "--rho", "0.1", "--seed", "-1", "--trials", "1"),
        ("detect", "--n", "8", "--T", "4", "--rho", "0.1", "--shuffle-seed", "-1",
         "--method", "shuffled-test"),
        ("detect", "--n", "8", "--T", "4", "--rho", "0.1", "--shuffle-seed", "-1",
         "--method", "split-test"),
    ],
    ids=["generate", "recover", "gap-demo", "detect-shuffle", "detect-split"],
)
def test_negative_seeds_are_validation_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines()[-1] == "error: seed must be a non-negative integer, got -1"


# sha256 of each study's CSV, config sidecar and stdout, recorded before the
# three studies shared one recovery unit and one row builder.
GOLDEN_STUDIES = {
    "rec": (
        ("sweep", "--config", "rec.cfg"),
        {
            "stdout": "0f29a739484918f9a9c73d4a8aa0f91b002dab04a0044f7be09366e905a40c6e",
            "csv": "7cc9fb7aec34d89f5609b9a37b695cdf07acfc38b173f8b7c26829b25d47d270",
            "sidecar": "d78cbf4d7a8ea5d14ff8bf8679a9b68e32af41d209e4671469e232fc96a6aa74",
        },
    ),
    "det": (
        ("sweep", "--config", "det.cfg", "--out", "det.csv"),
        {
            "stdout": "571ba18adc60b4a359c43b418fc7ba57fb57427de93a88947a6e3371dd3f591c",
            "csv": "09e22a8d72455eff794dce79b1b15ee3f41b895ec7626e6cf646b4a6221d7163",
            "sidecar": "b95fd7b0fcd3cb22214b4679cd8946e77d09253d4ffe9d1e0c22e577169c72dd",
        },
    ),
    "gap": (
        ("gap-demo", "--n", "8", "--T", "4", "--rho", "0.1", "--trials", "3",
         "--seed", "3", "--out", "gap.csv"),
        {
            "stdout": "567d12f6140b144f48aad9f234571e9b4d6940643724216166332901e8ed89a6",
            "csv": "91f148ce07a46963b5831a148e43ea129fef03a2131102ebf85fabb36f5a1ee0",
        },
    ),
    "gap0": (
        ("gap-demo", "--n", "8", "--T", "4", "--rho", "0", "--trials", "2",
         "--seed", "3", "--out", "gap0.csv"),
        {
            "stdout": "a47018b5d5162b69b49b3ef553355ab7fe31ada4d6b82446a2aa13317cb75515",
            "csv": "2a1e5037acc93a5cb5245f5d7e2467ea7d2cb4793adc8c1f69565cf8f0c648bc",
        },
    ),
}


def test_study_outputs_match_golden_bytes(tmp_path, monkeypatch, capsys):
    # every recovery method with a size-guarded mle-exhaustive row at n=24, a
    # split + shuffled detection sweep, and the gap demo at rho > 0 and rho = 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rec.cfg").write_text(
        "kind = recovery\ncells = 8:4:0.3, 24:4:0.1\n"
        "methods = bias-adjusted-spectral, sum-spectral, oracle-tau-spectral, mle-exhaustive,"
        " mle-local-search\n"
        "trials = 2\nbase_seed = 5\noutput_path = rec.csv\n"
    )
    (tmp_path / "det.cfg").write_text(
        "kind = detection\ncells = 8:4:0.3, 10:6:0.2\nmethods = split-test, shuffled-test\n"
        "trials = 2\nbase_seed = 7\nrounds = 3\n"
    )
    for name, (argv, golden) in GOLDEN_STUDIES.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        files = {"stdout": out.encode(), "csv": (tmp_path / f"{name}.csv").read_bytes()}
        sidecar = tmp_path / f"{name}.csv.config.json"
        if sidecar.exists():
            files["sidecar"] = sidecar.read_bytes()
        digests = {key: hashlib.sha256(data).hexdigest() for key, data in files.items()}
        assert digests == golden, name


def test_gap_demo_prints_summary_and_writes_records(tmp_path, capsys):
    out_csv = tmp_path / "gap.csv"
    code, out, _ = run(capsys, "gap-demo", "--n", "16", "--T", "64",
                       "--rho", "0.02", "--trials", "2", "--seed", "21",
                       "--out", str(out_csv))
    assert code == 0
    summary = json.loads(out)
    assert summary["between_thresholds"] is True
    assert summary["trials"] == 2
    assert summary["records_path"] == str(out_csv)
    assert len(out_csv.read_text().splitlines()) == 1 + 2 * 2  # methods x trials


def test_gap_demo_past_the_dense_cap_is_a_size_guard_refusal(capsys):
    code, _, err = run(capsys, "gap-demo", "--n", "4098", "--T", "2",
                       "--rho", "1e-6", "--trials", "1")
    assert code == 3
    warning, refusal = err.splitlines()
    assert warning.startswith("warning: gap demo parameters are not between the thresholds: ")
    assert refusal.startswith("size guard")


def test_two_node_studies_run_and_flag_bias_adjusted_spectral_degenerate(tmp_path, capsys):
    # two nodes have no wedge, so the bias-adjusted aggregate is zero: every
    # n = 2 bias-adjusted row is degenerate, and the tests decide on that labelling
    (tmp_path / "rec.cfg").write_text(
        "kind = recovery\ncells = 2:4:0.3, 8:4:0.3\n"
        "methods = bias-adjusted-spectral, sum-spectral, oracle-tau-spectral, mle-exhaustive,"
        " mle-local-search\ntrials = 2\n"
    )
    (tmp_path / "det.cfg").write_text(
        "kind = detection\ncells = 2:4:0.3\nmethods = split-test, shuffled-test\ntrials = 2\n"
    )
    for name in ("rec", "det"):
        code, _, err = run(capsys, "sweep", "--config", str(tmp_path / f"{name}.cfg"),
                           "--out", str(tmp_path / f"{name}.csv"))
        assert (code, err) == (0, "")
    records = read_results(tmp_path / "rec.csv")
    assert len(records) == 2 * 5 * 2
    two_node = [r for r in records if r.n == 2 and r.method == "bias-adjusted-spectral"]
    assert len(two_node) == 2 and all(r.degenerate for r in two_node)
    assert len(read_results(tmp_path / "det.csv")) == 2 * 2 * 2  # arms x methods x trials
    for method in ("split-test", "shuffled-test"):
        code, out, _ = run(capsys, "detect", "--n", "2", "--T", "4", "--rho", "0.3",
                           "--method", method)
        assert code == 0 and json.loads(out)["n"] == 2
    code, out, _ = run(capsys, "gap-demo", "--n", "2", "--T", "4", "--rho", "0.3",
                       "--trials", "1")
    assert code == 0 and json.loads(out)["gap_defined"] is False


def test_detection_sweep_past_the_dense_cap_is_refused_before_sampling(tmp_path, monkeypatch,
                                                                      capsys):
    def refuse(*args):
        raise AssertionError("the sweep sampled before its size guard")

    monkeypatch.setattr(experiments, "sample_planted", refuse)
    monkeypatch.setattr(experiments, "sample_null", refuse)
    config = tmp_path / "det.cfg"
    config.write_text("kind = detection\ncells = 4098:4:0.0001\nmethods = split-test\n")
    code, out, err = run(capsys, "sweep", "--config", str(config), "--out",
                         str(tmp_path / "det.csv"))
    assert (code, out) == (3, "")
    assert err == "size guard: dense matrices are capped at n=4096, got n=4098\n"


def test_study_outputs_identical_across_helper_counts(tmp_path, monkeypatch, capsys):
    # A study's units may run in forked helpers; neither their number nor a
    # leftover MLSBM_WORKERS changes a byte of stdout or of the CSV.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MLSBM_WORKERS", "8")
    (tmp_path / "rec.cfg").write_text(
        "kind = recovery\ncells = 8:4:0.3, 10:4:0.2\n"
        "methods = mle-local-search, bias-adjusted-spectral\n"
        "trials = 3\nbase_seed = 13\n"  # 2 cells x 3 trials = 6 units
    )
    (tmp_path / "det.cfg").write_text(
        "kind = detection\ncells = 8:4:0.3, 10:6:0.2\nmethods = shuffled-test\n"
        "trials = 3\nbase_seed = 7\nrounds = 3\n"
    )
    studies = {
        "rec": ("sweep", "--config", "rec.cfg", "--force", "--out"),
        "det": ("sweep", "--config", "det.cfg", "--force", "--out"),
        "gap": ("gap-demo", "--n", "8", "--T", "4", "--rho", "0.1", "--trials", "5",
                "--seed", "3", "--force", "--out"),
    }

    def outputs(helpers):
        spare_cpus(monkeypatch, helpers)
        result = {}
        for name, argv in studies.items():
            code, out, _ = run(capsys, *argv, f"{name}.csv")
            assert code == 0, (name, helpers)
            result[name] = (out, (tmp_path / f"{name}.csv").read_bytes())
        assert_no_child_left()
        return result

    serial = outputs(0)
    assert outputs(1) == serial
    assert outputs(3) == serial


@pytest.mark.parametrize("error, code", [(ValidationError, 2), (SizeGuardError, 3)])
def test_a_unit_failing_in_a_helper_keeps_its_exit_code(tmp_path, monkeypatch, capsys,
                                                        error, code):
    spare_cpus(monkeypatch, 1)
    sample_in_caller_only(monkeypatch, error)
    config = tmp_path / "rec.cfg"
    config.write_text("kind = recovery\ncells = 8:4:0.3\nmethods = sum-spectral\ntrials = 6\n")
    got, out, err = run(capsys, "sweep", "--config", str(config), "--out",
                        str(tmp_path / "rec.csv"))
    assert (got, out) == (code, "")
    assert "refused in a helper at seed " in err
    assert not (tmp_path / "rec.csv").exists()
    assert_no_child_left()


@pytest.mark.parametrize("helpers", [1, 3])
def test_warnings_raised_in_helpers_are_printed(monkeypatch, capsys, helpers):
    caller, sample = os.getpid(), experiments.sample_planted

    def sample_warning(params, seed):
        warnings.warn(f"sampling seed {seed}", RuntimeWarning)
        if os.getpid() == caller:
            time.sleep(0.05)  # so that the helpers take units
        return sample(params, seed)

    spare_cpus(monkeypatch, helpers)
    monkeypatch.setattr(experiments, "sample_planted", sample_warning)
    code, _, err = run(capsys, "gap-demo", "--n", "16", "--T", "64", "--rho", "0.02",
                       "--trials", "6")
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == len(set(lines)) == 6
    assert all(line.startswith("warning: sampling seed ") for line in lines)
    assert_no_child_left()


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_unit_warnings_are_printed_in_unit_order_whatever_the_helper_count(
        tmp_path, monkeypatch, capsys, helpers):
    # Each unit's sampler warns with its seed, and with one text that
    # Python's default action shows once. The gap demo prints every warning;
    # the sweep leaves them to the default action. Stdout, stderr and CSV are
    # those of a run without helpers, with the seeds in unit order.
    caller, sample = os.getpid(), experiments.sample_planted

    def sample_warning(params, seed):
        warnings.warn(f"sampling seed {seed}", RuntimeWarning)
        warnings.warn("sampling", RuntimeWarning)
        if os.getpid() == caller:
            time.sleep(0.05)  # so that the helpers take units
        return sample(params, seed)

    def show(message, category, filename, lineno, file=None, line=None):
        print(f"{category.__name__}: {message}", file=sys.stderr)

    monkeypatch.setattr(experiments, "sample_planted", sample_warning)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rec.cfg").write_text(
        "kind = recovery\ncells = 16:8:0.2\nmethods = sum-spectral\ntrials = 8\n")
    studies = {
        "gap": ("gap-demo", "--n", "16", "--T", "64", "--rho", "0.02", "--trials", "6"),
        "rec": ("sweep", "--config", "rec.cfg"),
    }

    def outputs():
        result = {}
        for name, argv in studies.items():
            with warnings.catch_warnings():
                warnings.resetwarnings()
                warnings.showwarning = show
                code, out, err = run(capsys, *argv, "--force", "--out", f"{name}.csv")
            assert code == 0, name
            result[name] = (out, err.splitlines(), (tmp_path / f"{name}.csv").read_bytes())
        assert_no_child_left()
        return result

    spare_cpus(monkeypatch, 0)
    serial = outputs()
    spare_cpus(monkeypatch, helpers)
    shared = outputs()
    assert shared == serial
    seeds = [derive_seed(0, 0, trial, 0) for trial in range(8)]
    assert shared["gap"][1] == [line for seed in seeds[:6] for line in
                                (f"warning: sampling seed {seed}", "warning: sampling")]
    assert shared["rec"][1] == [f"RuntimeWarning: sampling seed {seeds[0]}",
                                "RuntimeWarning: sampling"] + [
        f"RuntimeWarning: sampling seed {seed}" for seed in seeds[1:]]


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--n", "8", "--T", "4", "--rho", "0.3",
              "--out", "x", "--frobnicate"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name in ("generate", "recover", "detect", "theory", "sweep", "gap-demo"):
        assert name in out

"""End-to-end command-line checks, run in process through main(argv)."""

import json

import pytest

from conftest import parity_even_graph
from mlsbm import Assignment, MlsbmParams, hamming_loss, sample_planted
from mlsbm.cli import main
from mlsbm.detection import to_json_record as detection_record
from mlsbm.experiments import (
    DETECTION_RUNNERS,
    RECOVERY_RUNNERS,
    ExperimentConfig,
    run_phase_diagram,
    write_results,
)
from mlsbm.model import MultiLayerGraph, PlantedInstance, read_graph, write_graph
from mlsbm.recovery import to_json_record as recovery_record


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


def test_theory_chi2_rejects_a_malformed_tau(capsys):
    for tau in ("0a", "02", "011"):
        code, _, err = run(capsys, "theory", "chi2", "--n", "4", "--T", "2",
                           "--rho", "0.1", "--tau", tau)
        assert code == 2 and err.startswith("error: tau ")


def test_theory_chi2_skips_brute_force_past_the_guard(capsys):
    code, out, _ = run(capsys, "theory", "chi2",
                       "--n", "8", "--T", "4", "--rho", "0.1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute_force"] is None


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


def test_theory_lambda_partitions_and_guards(capsys):
    code, out, _ = run(capsys, "theory", "lambda",
                       "--n", "8", "--T", "4", "--a", "3")
    assert code == 0 and "PASS: counts partition the subsets" in out
    code, _, err = run(capsys, "theory", "lambda",
                       "--n", "40", "--T", "40", "--a", "9")
    assert code == 3 and "size guard" in err


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


def test_sweep_refuses_overwrite_without_force(tmp_path, capsys):
    config = write_sweep_config(tmp_path)
    out_csv = tmp_path / "results.csv"
    assert run(capsys, "sweep", "--config", str(config), "--out", str(out_csv))[0] == 0
    code, _, err = run(capsys, "sweep", "--config", str(config), "--out", str(out_csv))
    assert code == 1 and "io error" in err
    assert run(capsys, "sweep", "--config", str(config), "--out", str(out_csv),
               "--force")[0] == 0


def test_sweep_needs_an_output_path(tmp_path, capsys):
    config = write_sweep_config(tmp_path)
    code, _, err = run(capsys, "sweep", "--config", str(config))
    assert code == 2 and "--out" in err


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

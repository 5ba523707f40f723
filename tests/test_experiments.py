"""Sweep orchestration: configs, determinism, CSV round-trips, risk assembly."""

import dataclasses
import json
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsbm import MlsbmParams, MultiLayerGraph, read_graph, sample_planted, write_graph
from mlsbm import experiments
from mlsbm.errors import SizeGuardError, ValidationError
from mlsbm.experiments import (
    CSV_COLUMNS,
    DETECTION_RUNNERS,
    RECOVERY_RUNNERS,
    ExperimentConfig,
    TrialRecord,
    detection_risk_by_cell,
    parse_config_text,
    read_config,
    read_results,
    resolve_worker_count,
    run_detection_sweep,
    run_gap_demo,
    run_phase_diagram,
    write_results,
)
from mlsbm.recovery import mle_local_search_multistart


def small_recovery_config(**overrides):
    base = dict(
        kind="recovery",
        cells=((8, 4, 0.3), (10, 4, 0.2)),
        methods=("bias-adjusted-spectral", "sum-spectral"),
        trials=3,
        base_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_kind():
    with pytest.raises(ValidationError):
        small_recovery_config(kind="benchmark")


def test_config_rejects_odd_cells():
    with pytest.raises(ValidationError):
        small_recovery_config(cells=((7, 4, 0.3),))
    with pytest.raises(ValidationError):
        small_recovery_config(cells=((8, 5, 0.3),))


def test_config_rejects_density_out_of_range():
    with pytest.raises(ValidationError):
        small_recovery_config(cells=((8, 4, 0.0),))
    with pytest.raises(ValidationError):
        small_recovery_config(cells=((8, 4, 2.0 / 3.0),))


def test_config_rejects_empty_and_malformed():
    with pytest.raises(ValidationError):
        small_recovery_config(cells=())
    with pytest.raises(ValidationError):
        small_recovery_config(cells=((8, 4),))
    with pytest.raises(ValidationError):
        small_recovery_config(methods=())
    with pytest.raises(ValidationError):
        small_recovery_config(trials=0)
    with pytest.raises(ValidationError):
        small_recovery_config(base_seed=-1)
    with pytest.raises(ValidationError):
        small_recovery_config(rounds=0)


def test_config_cell_errors_name_the_cell():
    with pytest.raises(ValidationError) as excinfo:
        small_recovery_config(cells=((8, 4, 0.3), (7, 4, 0.3)))
    assert str(excinfo.value) == "cell (7, 4, 0.3): n must be an even integer >= 2, got 7"
    with pytest.raises(ValidationError, match=r"^cell \(8, 4, 0\.0\): rho must lie strictly"):
        small_recovery_config(cells=((8, 4, 0.0),))
    with pytest.raises(ValidationError, match=r"^cell \(8, True, 0\.3\): T must be an integer"):
        small_recovery_config(cells=((8, True, 0.3),))
    assert small_recovery_config(cells=((8, 4, 1 / 3),)).cells == ((8, 4, 1 / 3),)


def test_bool_counts_are_rejected():
    with pytest.raises(ValidationError, match="trials must be an integer >= 1, got True"):
        small_recovery_config(trials=True)
    with pytest.raises(ValidationError, match="rounds must be an integer >= 1, got True"):
        small_recovery_config(kind="detection", methods=("shuffled-test",), rounds=True)
    with pytest.raises(ValidationError, match="trials must be an integer >= 1, got True"):
        run_gap_demo(4, 2, 0.1, True)


def test_config_refuses_a_repeated_cell():
    # 0.30 and 0.3 are one cell once normalized; so are two equal grid points
    for cells in (((8, 4, 0.3), (10, 4, 0.2), (8, 4, 0.30)), ((8, 4, 0.3), (np.int64(8), 4, 3 / 10))):
        with pytest.raises(ValidationError, match=r"repeats cell n8-T4-rho0\.3$"):
            small_recovery_config(cells=cells)
    with pytest.raises(ValidationError, match="repeats cell n8-T"):
        ExperimentConfig.from_exponents([8, 8], 0.5, 0.5)


def test_config_seed_and_counts_are_checked_once_at_the_boundary():
    for seed in (1.5, True, -1):
        with pytest.raises(ValidationError, match="^base_seed must be a non-negative integer"):
            small_recovery_config(base_seed=seed)
    cfg = small_recovery_config(trials=np.int64(2), base_seed=np.int64(3))
    assert type(cfg.trials) is int and type(cfg.base_seed) is int


def test_config_method_names_gated_by_kind():
    # recovery methods are rejected on detection configs and vice versa
    with pytest.raises(ValidationError):
        small_recovery_config(methods=("split-test",))
    with pytest.raises(ValidationError):
        small_recovery_config(kind="detection", methods=("mle-exhaustive",))
    cfg = small_recovery_config(kind="detection", methods=tuple(DETECTION_RUNNERS))
    assert cfg.methods == tuple(DETECTION_RUNNERS)
    assert set(RECOVERY_RUNNERS) >= {"bias-adjusted-spectral", "mle-exhaustive"}


def test_from_exponents_rounds_layer_count_to_even():
    cfg = ExperimentConfig.from_exponents([6], a=1.5, b=1.2, trials=2)
    ((n, T, rho),) = cfg.cells
    assert (n, T) == (6, 16)  # 6**1.5 = 14.697 -> 15 -> bumped even
    assert rho == pytest.approx(6.0**-1.2)
    cfg = ExperimentConfig.from_exponents([2], a=0.5, b=1.0)
    assert cfg.cells == ((2, 2, 0.5),)  # floor at T = 2


def test_trial_record_validates_ranges():
    good = dict(
        cell="c", n=8, T=4, rho=0.1, method="sum-spectral", trial=0, seed=1,
        loss=0.25, decision=None, objective=None, wall_time_ms=None, degenerate=False,
    )
    TrialRecord(**good)
    with pytest.raises(ValidationError):
        TrialRecord(**{**good, "loss": 0.6})
    with pytest.raises(ValidationError):
        TrialRecord(**{**good, "loss": None, "decision": 2})
    for text in ({"cell": "a\rb"}, {"method": "\r"}):
        with pytest.raises(ValidationError, match="must not contain"):
            TrialRecord(**{**good, **text})


def test_csv_schema_is_pinned():
    assert CSV_COLUMNS == (
        "cell", "n", "T", "rho", "method", "trial", "seed",
        "loss", "decision", "objective", "wall_time_ms", "degenerate",
    )
    assert CSV_COLUMNS == tuple(f.name for f in dataclasses.fields(TrialRecord))


# ---------------------------------------------------------------------------
# serial runs and determinism
# ---------------------------------------------------------------------------


def test_resolve_worker_count(monkeypatch):
    # Studies always run serially; a leftover MLSBM_WORKERS is ignored, not parsed.
    for raw in ("3", "0", "four"):
        monkeypatch.setenv("MLSBM_WORKERS", raw)
        assert resolve_worker_count(10) == 1
    monkeypatch.delenv("MLSBM_WORKERS")
    assert resolve_worker_count(4) == 1


def strip_timing(records):
    return [dataclasses.replace(r, wall_time_ms=None) for r in records]


def test_phase_diagram_identical_across_runs_and_worker_counts(monkeypatch):
    cfg = small_recovery_config()
    monkeypatch.setenv("MLSBM_WORKERS", "1")
    serial = run_phase_diagram(cfg)
    again = run_phase_diagram(cfg)
    monkeypatch.setenv("MLSBM_WORKERS", "3")
    pooled = run_phase_diagram(cfg)
    assert strip_timing(serial) == strip_timing(again) == strip_timing(pooled)


def test_written_files_byte_identical_across_worker_counts(tmp_path, monkeypatch):
    cfg = small_recovery_config()
    paths = []
    for workers in ("1", "3"):
        monkeypatch.setenv("MLSBM_WORKERS", workers)
        path = tmp_path / f"sweep-w{workers}.csv"
        write_results(run_phase_diagram(cfg), path, cfg)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    sidecars = [json.loads((tmp_path / f"sweep-w{w}.csv.config.json").read_text()) for w in ("1", "3")]
    assert sidecars[0] == sidecars[1] == cfg.to_json_dict()


def test_phase_diagram_records_are_ordered_and_paired():
    cfg = small_recovery_config()
    records = run_phase_diagram(cfg)
    assert len(records) == len(cfg.cells) * cfg.trials * len(cfg.methods)
    # cell-major, then trial, then config method order; methods share the seed
    expected = [
        (f"n{n}-T{T}-rho{rho!r}", trial, method)
        for (n, T, rho) in cfg.cells
        for trial in range(cfg.trials)
        for method in cfg.methods
    ]
    assert [(r.cell, r.trial, r.method) for r in records] == expected
    for pair in zip(records[::2], records[1::2]):
        assert pair[0].seed == pair[1].seed


def test_size_guarded_method_records_degenerate_row():
    cfg = ExperimentConfig(
        kind="recovery",
        cells=((24, 2, 0.2),),
        methods=("mle-exhaustive", "sum-spectral"),
        trials=1,
        base_seed=5,
    )
    by_method = {r.method: r for r in run_phase_diagram(cfg)}
    guarded = by_method["mle-exhaustive"]
    assert guarded.degenerate and guarded.loss is None and guarded.objective is None
    survived = by_method["sum-spectral"]
    assert survived.loss is not None and 0.0 <= survived.loss <= 0.5


def test_phase_diagram_rejects_detection_config():
    cfg = small_recovery_config(kind="detection", methods=("split-test",))
    with pytest.raises(ValidationError):
        run_phase_diagram(cfg)
    with pytest.raises(ValidationError):
        run_detection_sweep(small_recovery_config())


def test_loss_trend_non_increasing_in_density():
    # Fixed (n, T) column, five density points, twenty trials: denser graphs
    # carry more signal, so the averaged loss should trend downward with a
    # small Monte-Carlo allowance per step.
    rhos = (0.02, 0.05, 0.1, 0.2, 0.3)
    cfg = ExperimentConfig(
        kind="recovery",
        cells=tuple((16, 8, r) for r in rhos),
        methods=("bias-adjusted-spectral",),
        trials=20,
        base_seed=77,
    )
    losses = {}
    for record in run_phase_diagram(cfg):
        losses.setdefault(record.rho, []).append(record.loss)
    means = [statistics.mean(losses[r]) for r in rhos]
    for earlier, later in zip(means, means[1:]):
        assert later <= earlier + 0.05
    assert means[-1] <= means[0] - 0.15


# ---------------------------------------------------------------------------
# detection sweeps
# ---------------------------------------------------------------------------


def test_detection_sweep_pairs_planted_and_null_arms():
    cfg = ExperimentConfig(
        kind="detection",
        cells=((8, 6, 0.3),),
        methods=("split-test", "shuffled-test"),
        trials=2,
        base_seed=3,
        rounds=1,
    )
    records = run_detection_sweep(cfg)
    assert len(records) == 2 * 2 * 2  # arms x trials x methods
    assert {r.cell.rsplit("|", 1)[1] for r in records} == {"planted", "null"}
    assert all(r.decision in (0, 1) and r.loss is None for r in records)
    risks = detection_risk_by_cell(records)
    assert set(risks) == {
        ("n8-T6-rho0.3", "split-test"),
        ("n8-T6-rho0.3", "shuffled-test"),
    }
    assert all(0.0 <= v <= 2.0 for v in risks.values())


def test_detection_sweep_needs_enough_layers_for_the_split():
    cfg = ExperimentConfig(
        kind="detection", cells=((8, 2, 0.3),), methods=("split-test",), trials=1
    )
    with pytest.raises(ValidationError):
        run_detection_sweep(cfg)


def test_detection_risk_assembly_arithmetic():
    def rec(arm, decision, trial):
        return TrialRecord(
            cell=f"n8-T6-rho0.3|{arm}", n=8, T=6, rho=0.3, method="split-test",
            trial=trial, seed=trial, loss=None, decision=decision,
            objective=None, wall_time_ms=None, degenerate=False,
        )

    records = [
        rec("planted", 1, 0), rec("planted", 1, 1),  # no misses
        rec("null", 0, 0), rec("null", 1, 1),        # one false alarm of two
    ]
    risks = detection_risk_by_cell(records)
    assert risks[("n8-T6-rho0.3", "split-test")] == pytest.approx(0.5)
    bad = dataclasses.replace(records[0], cell="n8-T6-rho0.3", decision=None, loss=0.0)
    with pytest.raises(ValidationError):
        detection_risk_by_cell([bad])


# ---------------------------------------------------------------------------
# gap demo
# ---------------------------------------------------------------------------


def test_gap_demo_zero_density_reports_undefined_gap():
    with pytest.warns(RuntimeWarning):
        summary = run_gap_demo(8, 4, 0.0, trials=2, base_seed=9)
    assert summary["degenerate_trials"] == 2
    assert summary["gap_defined"] is False
    assert summary["median_gap"] is None
    assert "degenerate" in summary["note"]


def test_gap_demo_warns_outside_the_interesting_regime():
    with pytest.warns(RuntimeWarning, match="between the thresholds"):
        run_gap_demo(16, 8, 0.3, trials=1, base_seed=0)


def test_gap_demo_between_thresholds_is_quiet_and_paired():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = run_gap_demo(16, 64, 0.02, trials=3, base_seed=21)
    assert summary["between_thresholds"] is True
    assert len(summary["oracle_losses"]) == len(summary["spectral_losses"]) == 3
    assert summary["gap_defined"] is True
    assert summary["median_gap"] == pytest.approx(
        summary["median_spectral_loss"] - summary["median_oracle_loss"], abs=0.5
    )


def test_gap_demo_validates_arguments():
    with pytest.raises(ValidationError):
        run_gap_demo(7, 4, 0.1, trials=1)
    with pytest.raises(ValidationError):
        run_gap_demo(8, 4, 0.1, trials=0)
    with pytest.raises(ValidationError):
        run_gap_demo(8, 4, 0.7, trials=1)
    for n, T in ((8.5, 4), ("8", "4"), (8, 4.9), (True, 4), (8, 2.0)):
        with pytest.raises(ValidationError, match="must be an integer, got "):
            run_gap_demo(n, T, 0.1, 1)
    with pytest.raises(ValidationError, match="^n must be an even integer >= 4, got 2$"):
        run_gap_demo(2, 4, 0.1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValidationError, match="^seed must be a non-negative integer"):
            run_gap_demo(8, 4, 0.1, 1, base_seed=1.5)


def test_gap_demo_refuses_past_the_dense_cap_before_sampling(monkeypatch):
    # sampling this instance takes tens of seconds and over 1 GB before a
    # method would refuse n = 5000
    def refuse(*args):
        raise AssertionError("the gap demo sampled before its size guard")

    monkeypatch.setattr(experiments, "sample_planted", refuse)
    with pytest.warns(RuntimeWarning), pytest.raises(SizeGuardError, match="n=5000"):
        run_gap_demo(5000, 40000, 5e-5, 1)


def test_library_paths_never_build_the_per_layer_views(monkeypatch, tmp_path):
    # `layers` costs O(T) views per read (about 70 ms at T = 40000); the
    # library reads the edge table instead.
    def refuse(graph):
        raise AssertionError("library code built MultiLayerGraph.layers")

    monkeypatch.setattr(MultiLayerGraph, "layers", property(refuse))
    run_gap_demo(16, 64, 0.02, trials=1, base_seed=21)
    with pytest.warns(RuntimeWarning):
        run_gap_demo(8, 4, 0.0, trials=1, base_seed=9)
    run_detection_sweep(
        ExperimentConfig(
            kind="detection",
            cells=((8, 6, 0.3),),
            methods=("split-test", "shuffled-test"),
            trials=2,
            base_seed=3,
        )
    )
    instance = sample_planted(MlsbmParams(n=16, T=8, rho=0.3), seed=4)
    mle_local_search_multistart(instance.graph)
    path = tmp_path / "graph.txt"
    write_graph(path, instance)
    assert read_graph(path).graph == instance.graph


# ---------------------------------------------------------------------------
# results files
# ---------------------------------------------------------------------------


def test_write_results_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_results([], path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_write_results_line_count_and_round_trip(tmp_path):
    cfg = small_recovery_config(trials=1, methods=("sum-spectral",), cells=((8, 4, 0.3),))
    records = run_phase_diagram(cfg)
    records.append(
        TrialRecord(
            cell="n24-T2-rho0.2", n=24, T=2, rho=0.2, method="mle-exhaustive",
            trial=0, seed=99, loss=None, decision=None, objective=None,
            wall_time_ms=None, degenerate=True,
        )
    )
    records.append(
        TrialRecord(
            cell="n8-T6-rho0.3|null", n=8, T=6, rho=0.3, method="split-test",
            trial=1, seed=7, loss=None, decision=0, objective=None,
            wall_time_ms=12.5, degenerate=False,
        )
    )
    path = tmp_path / "out.csv"
    write_results(records, path)
    assert len(path.read_text().splitlines()) == 1 + len(records)
    # timing is dropped by default, so compare everything else
    assert read_results(path) == strip_timing(records)


def test_write_results_refuses_overwrite_without_flag(tmp_path):
    path = tmp_path / "out.csv"
    write_results([], path)
    with pytest.raises(FileExistsError):
        write_results([], path)
    write_results([], path, overwrite=True)


def test_write_results_surfaces_path_in_io_errors(tmp_path):
    target = tmp_path / "missing-dir" / "out.csv"
    with pytest.raises(OSError, match="missing-dir"):
        write_results([], target)
    with pytest.raises(OSError, match="nothing.csv"):
        read_results(tmp_path / "nothing.csv")


def test_read_results_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError, match="missing header"):
        read_results(empty)
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("cell,n\n")
    with pytest.raises(ValidationError, match="header"):
        read_results(bad_header)
    bad_flag = tmp_path / "flag.csv"
    bad_flag.write_text(
        ",".join(CSV_COLUMNS) + "\n" + "c,8,4,0.1,sum-spectral,0,1,,,,,maybe\n"
    )
    with pytest.raises(ValidationError, match="degenerate"):
        read_results(bad_flag)


def test_read_results_names_the_file_and_column_on_a_bad_value(tmp_path):
    path = tmp_path / "typo.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + "c,eight,4,0.1,sum-spectral,0,1,,,,,0\n")
    with pytest.raises(ValidationError) as excinfo:
        read_results(path)
    assert str(excinfo.value) == f"{path}: bad n value 'eight'"
    assert isinstance(excinfo.value, ValueError)
    path.write_text(",".join(CSV_COLUMNS) + "\n" + "c,8,4,0.1,sum-spectral,0,1,0.75,,,,0\n")
    with pytest.raises(ValidationError, match=f"^{path}: loss must lie in"):
        read_results(path)


# any encodable text a record accepts, quotes, commas and newlines included
text_cells = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"))
trial_records = st.builds(
    TrialRecord,
    cell=text_cells,
    n=st.integers(),
    T=st.integers(),
    rho=st.floats(allow_nan=False),
    method=text_cells,
    trial=st.integers(),
    seed=st.integers(min_value=0),
    loss=st.none() | st.floats(0.0, 0.5),
    decision=st.sampled_from((None, 0, 1)),
    objective=st.none() | st.integers(),
    wall_time_ms=st.none() | st.integers(0, 10**9).map(lambda k: k / 1000),
    degenerate=st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(trial_records, max_size=5))
def test_results_csv_round_trips_every_valid_record(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("round-trip") / "records.csv"
    write_results(records, path, include_timing=True)
    assert read_results(path) == records


def test_timing_column_only_written_on_request(tmp_path):
    cfg = small_recovery_config(trials=1, methods=("sum-spectral",), cells=((8, 4, 0.3),))
    records = run_phase_diagram(cfg)
    bare = tmp_path / "bare.csv"
    timed = tmp_path / "timed.csv"
    write_results(records, bare)
    write_results(records, timed, include_timing=True)
    bare_row = bare.read_text().splitlines()[1].split(",")
    timed_row = timed.read_text().splitlines()[1].split(",")
    timing_col = CSV_COLUMNS.index("wall_time_ms")
    assert bare_row[timing_col] == ""
    assert float(timed_row[timing_col]) >= 0.0


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_parse_config_cells_form():
    cfg = parse_config_text(
        """
        # recovery sweep over two cells
        kind = recovery
        cells = 8:4:0.3, 10:4:0.2
        methods = sum-spectral, bias-adjusted-spectral
        trials = 3
        base_seed = 11
        """
    )
    assert cfg.cells == ((8, 4, 0.3), (10, 4, 0.2))
    assert cfg.methods == ("sum-spectral", "bias-adjusted-spectral")
    assert cfg.trials == 3 and cfg.base_seed == 11 and cfg.rounds is None


def test_parse_config_exponent_grid_matches_from_exponents():
    cfg = parse_config_text("n_values = 6, 8\na = 1.5\nb = 1.2\ntrials = 2")
    assert cfg == ExperimentConfig.from_exponents([6, 8], a=1.5, b=1.2, trials=2)


def test_parse_config_defaults_methods_by_kind():
    assert parse_config_text("cells = 8:4:0.3").methods == ("bias-adjusted-spectral",)
    cfg = parse_config_text("kind = detection\ncells = 8:6:0.3\nrounds = 2")
    assert cfg.methods == ("shuffled-test",) and cfg.rounds == 2


def test_parse_config_rejects_malformed_text():
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config_text("colour = blue")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config_text("trials = 1\ntrials = 2\ncells = 8:4:0.3")
    with pytest.raises(ValidationError, match="key = value"):
        parse_config_text("just words")
    with pytest.raises(ValidationError, match="not both"):
        parse_config_text("cells = 8:4:0.3\nn_values = 8\na = 1\nb = 1")
    with pytest.raises(ValidationError, match="needs 'cells'"):
        parse_config_text("trials = 4")
    with pytest.raises(ValidationError, match="n:T:rho"):
        parse_config_text("cells = 8:4")
    with pytest.raises(ValidationError, match="bad number"):
        parse_config_text("cells = eight:4:0.3")
    with pytest.raises(ValidationError, match="integer"):
        parse_config_text("cells = 8:4:0.3\ntrials = 2.5")


def test_read_config_round_trip(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("cells = 8:4:0.3\nmethods = sum-spectral\ntrials = 2\n")
    cfg = read_config(path)
    assert cfg.cells == ((8, 4, 0.3),) and cfg.trials == 2
    with pytest.raises(OSError, match="absent.cfg"):
        read_config(tmp_path / "absent.cfg")

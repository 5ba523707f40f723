"""Sweep orchestration: configs, determinism, CSV round-trips, risk assembly."""

import dataclasses
import json
import os
import select
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, sample_in_caller_only, spare_cpus
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


GOOD_RECORD = dict(
    cell="c", n=8, T=4, rho=0.1, method="sum-spectral", trial=0, seed=1,
    loss=0.25, decision=None, objective=None, wall_time_ms=None, degenerate=False,
)


def test_trial_record_validates_ranges():
    good = GOOD_RECORD
    TrialRecord(**good)
    with pytest.raises(ValidationError):
        TrialRecord(**{**good, "loss": 0.6})
    with pytest.raises(ValidationError):
        TrialRecord(**{**good, "loss": None, "decision": 2})
    for text in ({"cell": "a\rb"}, {"method": "\r"}):
        with pytest.raises(ValidationError, match="must not contain"):
            TrialRecord(**{**good, **text})


def test_unique_seed_check_refuses_a_unit_with_two_seeds_and_a_shared_seed():
    good = GOOD_RECORD
    first = TrialRecord(**good)
    experiments._assert_unique_seeds([first, TrialRecord(**{**good, "method": "oracle-tau-spectral"})])
    with pytest.raises(AssertionError, match=r"^unit \('c', 0\) saw two different seeds$"):
        experiments._assert_unique_seeds([first, TrialRecord(**{**good, "seed": 2})])
    with pytest.raises(AssertionError, match="^derived seeds collide across"):
        experiments._assert_unique_seeds([first, TrialRecord(**{**good, "trial": 1})])


def test_csv_schema_is_pinned():
    assert CSV_COLUMNS == (
        "cell", "n", "T", "rho", "method", "trial", "seed",
        "loss", "decision", "objective", "wall_time_ms", "degenerate",
    )
    assert CSV_COLUMNS == tuple(f.name for f in dataclasses.fields(TrialRecord))


# ---------------------------------------------------------------------------
# units shared with helper processes, and determinism
# ---------------------------------------------------------------------------


def test_resolve_worker_count(monkeypatch):
    # The caller plus one helper per spare CPU, and no more helpers than the
    # units left after unit 0 and the caller's next one. A leftover
    # MLSBM_WORKERS is ignored, not parsed.
    monkeypatch.setenv("MLSBM_WORKERS", "four")
    for cpus, n_units, workers in [(1, 10, 1), (2, 1, 1), (2, 2, 1), (2, 3, 2), (2, 10, 2),
                                   (4, 3, 2), (4, 4, 3), (4, 5, 4), (4, 10, 4)]:
        spare_cpus(monkeypatch, cpus - 1)
        assert resolve_worker_count(n_units) == workers, (cpus, n_units)
    # Where the affinity call is missing, every CPU counts.
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert resolve_worker_count(10) == 3
    monkeypatch.delattr(os, "fork")
    assert resolve_worker_count(10) == 1


def strip_timing(records):
    return [dataclasses.replace(r, wall_time_ms=None) for r in records]


def test_phase_diagram_identical_across_runs_and_worker_counts(monkeypatch):
    cfg = small_recovery_config()
    spare_cpus(monkeypatch, 0)
    serial = run_phase_diagram(cfg)
    again = run_phase_diagram(cfg)
    spare_cpus(monkeypatch, 3)
    shared = run_phase_diagram(cfg)
    assert strip_timing(serial) == strip_timing(again) == strip_timing(shared)
    assert_no_child_left()


def test_written_files_byte_identical_across_worker_counts(tmp_path, monkeypatch):
    cfg = small_recovery_config()
    paths = []
    for helpers in (0, 1, 3):
        spare_cpus(monkeypatch, helpers)
        path = tmp_path / f"sweep-h{helpers}.csv"
        write_results(run_phase_diagram(cfg), path, cfg)
        paths.append(path)
    assert len({path.read_bytes() for path in paths}) == 1
    sidecars = [json.loads(Path(f"{path}.config.json").read_text()) for path in paths]
    assert sidecars == [cfg.to_json_dict()] * 3


def test_units_after_the_first_are_shared_with_helpers(monkeypatch):
    # Unit 0 is drawn before any fork; later units reach the helpers.
    caller = os.getpid()

    def draw(u):
        if u == 0:
            assert_no_child_left()

        def score():
            if u != 0 and os.getpid() == caller:
                time.sleep(0.05)  # so that the helpers take units too
            return [os.getpid()]

        return score

    spare_cpus(monkeypatch, 3)
    monkeypatch.setattr(experiments, "_assert_unique_seeds", lambda records: None)
    pids = experiments._run_units(12, draw)
    assert pids[0] == caller
    assert len(set(pids)) > 1
    assert_no_child_left()


def wait_for_a_byte(fd, seconds=30.0):
    ready, _, _ = select.select([fd], [], [], seconds)
    assert ready, f"no byte within {seconds} s"
    os.read(fd, 1)


def test_unit_0_is_scored_while_helpers_take_the_next_units(monkeypatch):
    # Unit 0's score returns only once a helper has run a unit.
    caller = os.getpid()
    reader, writer = os.pipe()

    def draw(u):
        if u == 0:
            assert_no_child_left()
        elif os.getpid() != caller:
            os.write(writer, b"u")

        def score():
            if u == 0:
                wait_for_a_byte(reader)
            return [os.getpid()]

        return score

    spare_cpus(monkeypatch, 1)
    monkeypatch.setattr(experiments, "_assert_unique_seeds", lambda records: None)
    try:
        pids = experiments._run_units(6, draw)
    finally:
        os.close(reader)
        os.close(writer)
    assert pids[0] == caller and set(pids) - {caller}
    assert_no_child_left()


def test_a_failure_scoring_unit_0_while_helpers_run_is_raised(monkeypatch):
    caller = os.getpid()
    reader, writer = os.pipe()

    def draw(u):
        def score():
            if u == 0:
                wait_for_a_byte(reader)
                raise ValidationError("unit 0 refused")
            if os.getpid() != caller:
                os.write(writer, b"u")
                time.sleep(0.05)  # still running when unit 0 fails
            return []

        return score

    spare_cpus(monkeypatch, 3)
    try:
        with pytest.raises(ValidationError, match="^unit 0 refused$"):
            experiments._run_units(40, draw)
    finally:
        os.close(reader)
        os.close(writer)
    assert_no_child_left()


def test_every_unit_runs_once_with_more_processes_than_cpus(tmp_path, monkeypatch):
    # A unit handed out twice, or never, would show in the log.
    log = os.open(tmp_path / "units.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def draw(u):
        def score():
            os.write(log, f"{u}\n".encode())
            return [u]

        return score

    spare_cpus(monkeypatch, 5)
    monkeypatch.setattr(experiments, "_assert_unique_seeds", lambda records: None)
    try:
        assert experiments._run_units(400, draw) == list(range(400))
    finally:
        os.close(log)
    assert sorted(map(int, (tmp_path / "units.log").read_text().split())) == list(range(400))
    assert_no_child_left()


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_a_failed_study_raises_its_lowest_failing_unit(monkeypatch, helpers):
    # What a serial run raises, whichever process ran the failing units, and
    # whichever stage of a unit failed.
    def refuse(u):
        raise SizeGuardError(f"unit {u} refused")

    def draw(u):
        if u == 5:
            refuse(u)
        return lambda: refuse(u) if u == 9 else []

    spare_cpus(monkeypatch, helpers)
    with pytest.raises(SizeGuardError, match="^unit 5 refused$"):
        experiments._run_units(12, draw)
    assert_no_child_left()


@pytest.mark.parametrize("error", [ValidationError, SizeGuardError])
def test_a_unit_failing_in_a_helper_raises_its_type_and_message_here(monkeypatch, error):
    spare_cpus(monkeypatch, 1)
    sample_in_caller_only(monkeypatch, error)
    with pytest.raises(error, match="^refused in a helper at seed "):
        run_phase_diagram(small_recovery_config(trials=4))
    assert_no_child_left()


def test_a_helper_that_dies_without_reporting_is_a_runtime_error(monkeypatch):
    caller = os.getpid()

    def draw(u):
        def score():
            if os.getpid() != caller:
                os._exit(7)
            time.sleep(0.05)  # so that the helper takes a unit
            return []

        return score

    spare_cpus(monkeypatch, 1)
    with pytest.raises(RuntimeError, match="exited with code 7 before reporting"):
        experiments._run_units(6, draw)
    assert_no_child_left()


# A helper that dies right after it steps the unit counter, holding the lock
# and the unit it just took.
DIES_HOLDING_THE_LOCK = """
import os, sys, time, types
from conftest import assert_no_child_left
from mlsbm import cli, experiments

caller = os.getpid()

def lseek(fd, pos, how):
    offset = os.lseek(fd, pos, how)
    if os.getpid() != caller and how == os.SEEK_CUR:
        os._exit(9)
    return offset

experiments.os = types.SimpleNamespace(
    **{**vars(os), "lseek": lseek, "sched_getaffinity": lambda pid: {0, 1}})
try:
    if sys.argv[1] == "units":
        experiments._run_units(6, lambda u: lambda: time.sleep(0.05) or [])
    else:
        cli.main(["gap-demo", "--n", "16", "--T", "64", "--rho", "0.02", "--trials", "6"])
finally:
    assert_no_child_left()
"""


@pytest.mark.parametrize("route", ["units", "cli"])
def test_a_helper_that_dies_holding_the_lock_fails_the_study(route):
    # The kernel drops a dead holder's lock, so the other processes run the
    # units left and the study fails within seconds instead of hanging.
    root = Path(__file__).parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(str(root / d) for d in ("src", "scripts", "tests"))}
    child = subprocess.Popen([sys.executable, "-c", DIES_HOLDING_THE_LOCK, route], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        _, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, 9)
            child.wait()
    assert child.returncode == 1
    assert err.endswith("RuntimeError: a study helper exited with code 9 before reporting\n")
    assert_no_child_left()


@pytest.mark.parametrize("helpers", [0, 3])
def test_warning_filters_act_in_the_unit_and_show_once_in_the_caller(monkeypatch, helpers):
    # An error filter fails its unit, an ignore filter drops the warning, and
    # the default action shows a repeated warning once. Only the units up to
    # the lowest failing one are shown, in unit order.
    def draw(u):
        def score():
            warnings.warn(f"unit {u}", UserWarning)
            warnings.warn("every unit", UserWarning)
            if u == 5:
                warnings.warn("unit 5 refused", RuntimeWarning)
            return []

        return score

    spare_cpus(monkeypatch, helpers)
    with warnings.catch_warnings(record=True) as shown:
        warnings.resetwarnings()
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "unit 3$")
        with pytest.raises(RuntimeWarning, match="^unit 5 refused$"):
            experiments._run_units(12, draw)
    assert [str(w.message) for w in shown] == [
        "unit 0", "every unit", "unit 1", "unit 2", "unit 4", "unit 5"]
    assert_no_child_left()


@pytest.mark.parametrize("fails", [False, True], ids=["passing", "failing"])
@pytest.mark.parametrize("helpers", [0, 3])
def test_a_study_leaves_no_file_descriptor_open(monkeypatch, helpers, fails):
    # Neither the unit counter nor a report pipe outlives the study.
    def draw(u):
        def score():
            if fails and u == 5:
                raise ValidationError("unit 5 refused")
            return []

        return score

    spare_cpus(monkeypatch, helpers)
    before = os.listdir("/proc/self/fd")
    if fails:
        with pytest.raises(ValidationError, match="^unit 5 refused$"):
            experiments._run_units(12, draw)
    else:
        assert experiments._run_units(12, draw) == []
    assert os.listdir("/proc/self/fd") == before
    assert_no_child_left()


@pytest.mark.parametrize("code", [
    # A 2-unit study forks nothing; a 6-unit one on 4 CPUs forks 3 helpers.
    "import os, sys; from mlsbm.experiments import resolve_worker_count, run_gap_demo; "
    "run_gap_demo(16, 64, 0.02, 2); "
    "os.sched_getaffinity = lambda pid: set(range(4)); "
    "assert resolve_worker_count(6) == 4; run_gap_demo(16, 64, 0.02, 6); "
    "assert 'multiprocessing' not in sys.modules",
    # Where fcntl and os.fork are missing (Windows), a study runs serially.
    "import os, sys; sys.modules['fcntl'] = None; del os.fork; "
    "from mlsbm.experiments import resolve_worker_count, run_gap_demo; "
    "assert resolve_worker_count(6) == 1; run_gap_demo(16, 64, 0.02, 6); "
    "assert 'multiprocessing' not in sys.modules",
], ids=["fork", "no-fcntl-no-fork"])
def test_studies_never_load_multiprocessing(code):
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parents[1])})


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
    with pytest.raises(ValidationError, match="^n must be an even integer >= 2, got 0$"):
        run_gap_demo(0, 4, 0.1, 1)
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
    with pytest.raises(ValidationError, match="^config exponent grid: bad number"):
        parse_config_text("n_values = 8, x\na = 1\nb = 1")


def test_read_results_refuses_a_row_with_the_wrong_column_count(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\nn8-T4-rho0.3,8\n")
    with pytest.raises(ValidationError) as refusal:
        read_results(path)
    assert str(refusal.value).startswith(f"{path}: malformed row ")


def test_read_config_round_trip(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("cells = 8:4:0.3\nmethods = sum-spectral\ntrials = 2\n")
    cfg = read_config(path)
    assert cfg.cells == ((8, 4, 0.3),) and cfg.trials == 2
    with pytest.raises(OSError, match="absent.cfg"):
        read_config(tmp_path / "absent.cfg")

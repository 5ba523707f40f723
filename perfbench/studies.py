"""Workload definitions, study processes and output checks shared by both run modes."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
FIXTURE = ROOT / "tests" / "fixtures" / "calibration.json"

DEFAULT_SEED = 20260821
# A study process still running this long after its workload run started is
# killed and the run stops with HarnessTimeout, so that it ends within three
# minutes. The clock restarts with each workload run (restart_clock).
RUN_LIMIT_S = 165.0
_run_started = time.monotonic()


class HarnessTimeout(Exception):
    """A study process outlived the run's time limit: a benchmark failure, not a unit's."""


def restart_clock() -> None:
    global _run_started
    _run_started = time.monotonic()


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "gap" (gap-demo), "detection" or "recovery" (sweep)
    n: int
    T: int
    rho: float
    method: str  # headline method of the study
    trials: int  # units per study
    canary_trials: int  # units of the reference-checked study at DEFAULT_SEED

    @property
    def cell(self) -> str:
        return f"{self.n}:{self.T}:{self.rho!r}"

    def prepare(self, seed: int, trials: int, workdir: Path, tag: str) -> tuple[list[str], Path]:
        """argv for mlsbm.cli.main and the CSV path it will write; a sweep's config
        file is written next to it."""
        out = workdir / f"{tag}.csv"
        if self.kind == "gap":
            argv = ["gap-demo", "--n", str(self.n), "--T", str(self.T), "--rho", repr(self.rho),
                    "--trials", str(trials), "--seed", str(seed), "--out", str(out)]
            return argv, out
        config = workdir / f"{tag}.cfg"
        config.write_text(
            f"kind = {self.kind}\ncells = {self.cell}\nmethods = {self.method}\n"
            f"trials = {trials}\nbase_seed = {seed}\n",
            encoding="utf-8",
        )
        return ["sweep", "--config", str(config), "--out", str(out)], out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gap",
            "T-heavy sparse gap-demo cell: sampling and validating 40,000 layers per "
            "unit dominates (the graph construct path)",
            "gap", 100, 40000, 5e-5, "oracle-tau-spectral", trials=2, canary_trials=2,
        ),
        Workload(
            "detect",
            "n-heavy detection-risk cell: the shuffled test permutes, slices and "
            "re-aggregates layers (the graph read path)",
            "detection", 200, 64, 12 / (200 * 64 ** 0.5), "shuffled-test",
            trials=4, canary_trials=2,
        ),
        Workload(
            "local-search",
            "the only workload that runs MLE local search from the spectral start battery",
            "recovery", 256, 8, 0.01, "mle-local-search", trials=8, canary_trials=4,
        ),
    )
}


# ---------------------------------------------------------------------------
# study processes
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Study:
    code: int
    setup_s: float | None
    study_s: float | None
    rss_mb: float
    csv: Path
    log: Path

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.study_s is not None and self.csv.exists()

    def failure(self) -> str:
        lines = self.log.read_text(errors="replace").strip().splitlines()
        return f"exit code {self.code}" + (f": {lines[-1]}" if lines else "")


def child_env(workers: int | None) -> dict:
    env = dict(os.environ)
    env.pop("MLSBM_WORKERS", None)
    if workers is not None:
        env["MLSBM_WORKERS"] = str(workers)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_study(argv: list[str], csv_path: Path, workdir: Path, tag: str, *,
              setup_only: bool = False, workers: int | None = None) -> Study:
    """Run mlsbm.cli.main(argv) in a fresh process, wait for it and time it.

    workers=None leaves the program's default pool; setup_only stops the
    process when its first unit starts.
    """
    marks_path = workdir / f"{tag}.marks.json"
    log_path = workdir / f"{tag}.log"
    cmd = [sys.executable, str(BENCH / "child.py"), str(marks_path),
           "setup" if setup_only else "full", "--", *argv]
    with open(log_path, "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(workers), stdout=log,
                                stderr=subprocess.STDOUT)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(1.0, RUN_LIMIT_S - (launched - _run_started)), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    if killed.is_set():
        raise HarnessTimeout(f"{tag}: study killed at the run's {RUN_LIMIT_S:.0f}-s limit")
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
    first, end = marks.get("first_unit"), marks.get("end")
    return Study(
        code=proc.returncode,
        setup_s=None if first is None else first - launched,
        study_s=None if first is None or end is None else end - first,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        csv=csv_path,
        log=log_path,
    )


def percentile_tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p75/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    best = None
    for p in (75, 90, 95, 99, 99.9):
        if len(ordered) * (1 - p / 100) >= 10:
            best = (f"p{p:g}", ordered[int(len(ordered) * p / 100)])
    return best


def describe(values: list[float], fmt: str) -> str:
    """Median, the tail percentile if there is one, min, max and the sample count."""
    text = f"median {fmt.format(statistics.median(values))}"
    tail = percentile_tail(values)
    if tail:
        text += f", {tail[0]} {fmt.format(tail[1])}"
    return text + f", min {fmt.format(min(values))}, max {fmt.format(max(values))}, n={len(values)}"


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_units(path: Path) -> dict[int, list[dict]]:
    """CSV rows grouped by trial: each workload has one cell, so a trial is a unit."""
    units: dict[int, list[dict]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            units.setdefault(int(row["trial"]), []).append(row)
    return units


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Tally:
    """Attempted and failed units, with one note per kind of failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)

    def compare(self, got: Study, trials: int, expected_units: dict, expected_digest: str,
                what: str) -> None:
        """Count the units of `got` whose rows differ from the expected ones."""
        if not got.ok:
            self.add(trials, trials, f"{what}: {got.failure()}")
            return
        units = read_units(got.csv)
        bad = sum(units.get(u) != expected_units.get(u) for u in range(trials))
        if bad == 0 and sha256(got.csv) != expected_digest:
            bad = trials  # same values in different bytes: the CSV contract broke
        self.add(trials, bad, f"{what}: {bad}/{trials} units differ")


def quality(w: Workload, units: dict) -> dict:
    """loss_median of the headline method, or detection_risk (type I + type II)."""
    rows = [row for unit in units.values() for row in unit]
    if w.kind == "detection":
        planted = [row["decision"] for row in rows if row["cell"].endswith("|planted")]
        null = [row["decision"] for row in rows if row["cell"].endswith("|null")]
        return {"detection_risk": null.count("1") / len(null) + planted.count("0") / len(planted)}
    return {"loss_median": statistics.median(
        float(row["loss"]) for row in rows if row["method"] == w.method)}


def load_reference(path: Path, w: Workload) -> dict:
    with open(path, encoding="utf-8") as fh:
        entry = json.load(fh)["workloads"][w.name]
    if (entry["cell"], entry["trials"], entry["seed"]) != (w.cell, w.canary_trials, DEFAULT_SEED):
        raise SystemExit(f"{path}: the {w.name} reference was recorded for another study")
    entry["units"] = {int(u): rows for u, rows in entry["units"].items()}
    return entry


def fixture_mismatches(w: Workload, units: dict, fixture: Path) -> set[int]:
    """On the gap cell, units whose losses differ from the calibration fixture's prefix."""
    with open(fixture, encoding="utf-8") as fh:
        cell = json.load(fh)["gap"]["gap_cell"]
    if (w.kind, w.n, w.T, w.rho) != ("gap", cell["n"], cell["T"], cell["rho"]):
        return set()
    bad = set()
    for u in range(w.canary_trials):
        losses = {row["method"]: float(row["loss"]) for row in units.get(u, [])}
        if losses != {"oracle-tau-spectral": cell["oracle_losses"][u],
                      "bias-adjusted-spectral": cell["spectral_losses"][u]}:
            bad.add(u)
    return bad


def check_canary(w: Workload, workdir: Path, tally: Tally, reference: Path,
                 fixture: Path) -> None:
    """Run the study at DEFAULT_SEED and compare it with the recorded reference.

    The canary runs at least two units, so it uses the default pool, while
    the reference was recorded with MLSBM_WORKERS=1: a result that only the
    pool corrupts shows here on every run. A unit fails if its rows differ from the reference or, on the gap cell,
    from the calibration fixture. If every unit matches but the CSV digest or
    the quality metric does not, every unit fails.
    """
    trials = w.canary_trials
    argv, out = w.prepare(DEFAULT_SEED, trials, workdir, "canary")
    got = run_study(argv, out, workdir, "canary")
    ref = load_reference(reference, w)
    if not got.ok:
        tally.add(trials, trials, f"canary: {got.failure()}")
        return
    units = read_units(got.csv)
    bad = {u for u in range(trials) if units.get(u) != ref["units"].get(u)}
    bad |= fixture_mismatches(w, units, fixture)
    measured = quality(w, units)
    if not bad and (sha256(got.csv) != ref["sha256"]
                    or measured != {k: ref.get(k) for k in measured}):
        bad = set(range(trials))
    tally.add(trials, len(bad), f"canary vs reference: {len(bad)}/{trials} units differ")

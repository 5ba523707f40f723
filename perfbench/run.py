"""Study benchmark for mlsbm: three Monte-Carlo studies run the way a user runs them.

Usage (from the repository root):

    python3 perfbench/run.py --workload gap|detect|local-search|all \
        [--seed N] [--seconds S] [--trace 0|1]

Each study is one ``python3`` process that calls ``mlsbm.cli.main`` with a
generated argv (``gap-demo --out`` or ``sweep --config ... --out``) and the
program's default worker pool; the package is imported from ``src/`` of this
checkout. Study k of a run has base seed ``100 * seed + k``, so the same
``--seed`` gives the same instances and each study samples its own.

``--trace 0`` measures end to end, with no tracing in the study processes:

* ``setup_s``: process launch to the first unit starting, median over
  set-up probes and timed studies;
* ``trials_per_s``: (cell, trial) units per second of study wall time, from
  the first unit starting to the CSV written, summed over the timed studies
  (their mean rate, weighted by time: a study's units differ in work, since
  a shuffled test stops at its first positive round);
* ``peak_rss_mb``: peak resident memory of the study process, median.

The studies repeat until ``--seconds`` have passed. ``failed_ratio``,
``loss_median`` and ``detection_risk`` are printed by name as well; the first
is also the ``failed`` / ``attempted`` pair of the result line.

``--trace 1`` runs study 0 once with the default pool and once with
``MLSBM_WORKERS=1``, then calls the library's public functions one unit at a
time with spans around each call (see ``traced.py``) and prints the per-layer
metrics.

Every run checks outputs. A canary study at the default seed is compared with
``reference.json`` (and, on ``gap``, with the calibration fixture's loss
prefix). In the traced run, the study must write byte-identical CSVs with
either pool, and the composition of public calls must reproduce the library
and the CLI. A unit that raises, runs
in a command that exits non-zero, or differs from its reference counts as
failed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A study process still
running 165 s into a workload run is killed, and the run exits with code 3
and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from studies import (DEFAULT_SEED, FIXTURE, OUT, REFERENCE, SRC, WORKLOADS, HarnessTimeout,
                     Study, Tally, Workload, check_canary, describe, quality, read_units,
                     restart_clock, run_study, sha256)

SETUP_PROBES = 5
MIN_STUDIES = 3
MAX_STUDIES = 100
# No new timed study starts after this many seconds of one run.
LAST_START_S = 120.0


# ---------------------------------------------------------------------------
# provenance and reporting
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(w: Workload, seed: int, units: int) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy
    from mlsbm.experiments import resolve_worker_count

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "workers": resolve_worker_count(units),
        "workload": w.name,
        "cell": w.cell,
        "method": w.method,
        "seed": seed,
        "trials": w.trials,
        "why": w.why,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def study_seed(seed: int, k: int) -> int:
    """Base seed of timed study k: each study samples instances of its own."""
    return MAX_STUDIES * seed + k


def run_end_to_end(w: Workload, seed: int, seconds: float, workdir: Path,
                   tally: Tally) -> tuple[dict, dict]:
    began = time.monotonic()
    argv, out = w.prepare(study_seed(seed, 0), w.trials, workdir, "probe")
    setups = []
    for k in range(SETUP_PROBES):
        probe = run_study(argv, out, workdir, f"probe{k}", setup_only=True)
        tally.add(1, int(probe.setup_s is None), f"set-up probe {k}: {probe.failure()}")
        if probe.setup_s is not None:
            setups.append(probe.setup_s)

    studies: list[Study] = []
    timed_from = time.monotonic()
    while len(studies) < MIN_STUDIES or time.monotonic() - timed_from < seconds:
        k = len(studies)
        argv, out = w.prepare(study_seed(seed, k), w.trials, workdir, f"study{k}")
        studies.append(run_study(argv, out, workdir, f"study{k}"))
        tally.add(w.trials, 0 if studies[-1].ok else w.trials,
                  f"study {k}: {studies[-1].failure()}")
        if time.monotonic() - began > LAST_START_S or k + 1 == MAX_STUDIES:
            break

    good = [s for s in studies if s.ok]
    setups += [s.setup_s for s in good]
    rates = [w.trials / s.study_s for s in good]
    rss = [s.rss_mb for s in good]
    metrics = {}
    if setups:
        metrics["setup_s"] = metric(statistics.median(setups), "s")
    if good:
        metrics["trials_per_s"] = metric(
            w.trials * len(good) / sum(s.study_s for s in good), "1/s")
        metrics["peak_rss_mb"] = metric(statistics.median(rss), "MB")
    report = {
        "setup_s": describe(setups, "{:.4f} s") if setups else "n/a",
        "trials_per_s": (f"{metrics['trials_per_s']['value']:.4f} 1/s over all studies; "
                         f"per study {describe(rates, '{:.4f} 1/s')}") if good else "n/a",
        "peak_rss_mb": describe(rss, "{:.2f} MB") if good else "n/a",
        "study_s": describe([s.study_s for s in good], "{:.3f} s") if good else "n/a",
        "loss_median": "n/a on this workload",
        "detection_risk": "n/a on this workload",
    }
    first = studies[:MIN_STUDIES]
    if all(s.ok for s in first):
        units = {(k, u): rows for k, s in enumerate(first) for u, rows in read_units(s.csv).items()}
        for key, value in quality(w, units).items():
            report[key] = (f"{value:.6g} (ratio) over the units of the first {MIN_STUDIES} "
                           "studies, exact at this seed")
    return metrics, report


def run_one(w: Workload, seed: int, seconds: float, trace: int,
            reference: Path) -> tuple[Tally, dict]:
    """One workload run: the canary check, then the timed or the traced studies."""
    restart_clock()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    tally = Tally()
    try:
        check_canary(w, workdir, tally, reference, FIXTURE)
        if trace:
            from traced import run_traced

            metrics, report = run_traced(w, study_seed(seed, 0), seconds, workdir, tally)
        else:
            metrics, report = run_end_to_end(w, seed, seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"provenance": provenance(w, seed, w.trials), "report": report,
              "attempted": tally.attempted, "failed": tally.failed, "notes": tally.notes,
              "metrics": metrics}
    with open(OUT / f"{w.name}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(f"== {w.name}: cell {w.cell}, method {w.method}, seed {seed}, "
          f"{w.trials} trials per study, {record['provenance']['workers']} workers")
    for key, text in report.items():
        print(f"  {key}: {text}")
    print(f"  failed_ratio: {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(1, tally.attempted):.4f} (ratio)")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    return tally, metrics


def record_reference(workloads: list[Workload], path: Path) -> None:
    """Write the canary studies' rows and digests as the reference for later runs.

    The studies run with MLSBM_WORKERS=1, so that the canary, which runs with
    the default pool, is also checked against the serial result.
    """
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT))
    try:
        entries = {}
        for w in workloads:
            argv, out = w.prepare(DEFAULT_SEED, w.canary_trials, workdir, w.name)
            got = run_study(argv, out, workdir, w.name, workers=1)
            if not got.ok:
                raise SystemExit(f"{w.name}: reference study failed: {got.failure()}")
            units = read_units(got.csv)
            entries[w.name] = {"cell": w.cell, "seed": DEFAULT_SEED, "trials": w.canary_trials,
                               "sha256": sha256(got.csv), **quality(w, units),
                               "units": {str(u): rows for u, rows in sorted(units.items())}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps({"workloads": entries}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", type=Path, metavar="PATH",
                        help="record the canary studies as a reference and exit")
    args = parser.parse_args()
    os.environ.pop("MLSBM_WORKERS", None)  # studies choose their pool explicitly
    if not (SRC / "mlsbm" / "__init__.py").is_file():
        print(f"error: no mlsbm package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = [WORKLOADS[n] for n in names]
    if args.record_reference:
        record_reference(workloads, args.record_reference)
        return 0

    total = Tally()
    metrics: dict = {}
    for w in workloads:
        try:
            tally, got = run_one(w, args.seed, args.seconds, args.trace, REFERENCE)
        except HarnessTimeout as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        total.add(tally.attempted, tally.failed)
        if len(workloads) == 1:
            metrics = got
        else:
            metrics.update({f"{w.name}.{k}": v for k, v in got.items()})
    print(json.dumps({"correct": total.failed == 0, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

1. ``BENCHMARK.json`` keeps to the benchmark contract's limits.
2. Smoke runs on tiny cells of every workload print every metric that
   ``BENCHMARK.json`` names, with its unit, and pass their checks.
3. A deliberately corrupted reference (one unit per workload), and on the
   ``gap`` cell a corrupted calibration fixture, make ``failed`` > 0.
4. A directory holding only ``BENCHMARK.json`` and the benchmark exits
   non-zero without printing a result.

Takes about a minute; exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import record_reference, run_one
from studies import BENCH, FIXTURE, OUT, REFERENCE, ROOT, WORKLOADS, Tally, Workload, check_canary

# Tiny cells of the same workloads: the same code paths, about a second per study.
SMOKE_CELLS = {"gap": (16, 64, 0.05), "detection": (16, 8, 0.3), "recovery": (16, 8, 0.3)}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def smoke(w: Workload) -> Workload:
    n, T, rho = SMOKE_CELLS[w.kind]
    return dataclasses.replace(w, n=n, T=T, rho=rho, trials=2, canary_trials=2)


def quiet_run(w: Workload, trace: int, reference: Path) -> tuple[Tally, dict, str]:
    """run_one on a workload, one second, seed 5; returns its tally, metrics and summary."""
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        tally, metrics = run_one(w, 5, 1.0, trace, reference)
    return tally, metrics, summary.getvalue()


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the contract's keys")
    check(spec["command"][:2] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"],
          "command and paths name only the benchmark")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in 1..60")
    check(set(w["name"] for w in spec["workloads"]) == set(WORKLOADS)
          and all(len(w["why"]) <= 200 for w in spec["workloads"]),
          "workloads match run.py's, each with a short why")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    check(len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names),
          "names are unique and well formed")
    check(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
          "units and directions are well formed")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values())
          and bounds.get("setup_s") == max(bounds.values()),
          "bounds are at most 0.25 and setup_s has the largest")
    check(len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024, "BENCHMARK.json under 64 KiB")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    smokes = [smoke(w) for w in WORKLOADS.values()]
    try:
        reference = tmp / "reference.json"
        with contextlib.redirect_stdout(io.StringIO()):
            record_reference(smokes, reference)

        expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
        for w in smokes:
            for trace in (0, 1):
                tally, metrics, summary = quiet_run(w, trace, reference)
                units = {k: v.get("unit") for k, v in metrics.items()}
                check(tally.attempted > 0 and tally.failed == 0
                      and units == {m["name"]: m["unit"] for m in expected[trace]},
                      f"{w.name} --trace {trace}: passes and prints every metric with its unit")
                if trace == 0:
                    check(all(f"  {m}: " in summary for m in ("setup_s", "trials_per_s",
                                                               "peak_rss_mb", "failed_ratio",
                                                               "loss_median", "detection_risk")),
                          f"{w.name}: the summary names all six study metrics")

        corrupted = json.loads(reference.read_text())
        for entry in corrupted["workloads"].values():
            row = entry["units"]["0"][0]
            if row["decision"]:
                row["decision"] = "1" if row["decision"] == "0" else "0"
            else:
                row["loss"] = "0.4375" if row["loss"] != "0.4375" else "0.0625"
        bad = tmp / "corrupted.json"
        bad.write_text(json.dumps(corrupted))
        for w in smokes:
            tally, _, _ = quiet_run(w, 0, bad)
            check(tally.failed > 0, f"{w.name}: a corrupted reference gives failed > 0")

        fixture = json.loads(FIXTURE.read_text())
        fixture["gap"]["gap_cell"]["spectral_losses"][1] += 0.02
        bad_fixture = tmp / "calibration.json"
        bad_fixture.write_text(json.dumps(fixture))
        tally = Tally()
        check_canary(WORKLOADS["gap"], tmp, tally, REFERENCE, bad_fixture)
        check(tally.failed == 1, "gap: a corrupted calibration fixture fails its unit")

        bare = tmp / "bare"
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gap",
                               "--seconds", "1"], cwd=bare, capture_output=True, text=True,
                              timeout=180, check=False)
        check(done.returncode != 0 and "correct" not in done.stdout,
              "without the program it exits non-zero, no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(problems)} problems" if problems else "all checks pass")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

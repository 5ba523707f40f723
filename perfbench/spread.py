"""Run the benchmark once per seed and report each metric's run-to-run spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload gap [--seeds 1-10] [--seconds 20] [--trace 0]

The spread of a metric is the distance between the first and third quartile
of its per-run values (``statistics.quantiles(values, n=4)``) as a share of
their median. For end-to-end metrics it is printed next to a third of the
bound fixed in ``BENCHMARK.json``, the target a steady benchmark stays under.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", type=Path, help="also write the values and spreads as JSON")
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    failures = 0
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", args.trace]
        started = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        wall = time.monotonic() - started
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            failures += 1
            print(f"seed {seed}: exit {done.returncode}, {lines[-1] if lines else done.stderr}")
            continue
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed} ({wall:.0f} s): " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in result["metrics"].items() if k in bounds),
            flush=True)

    spreads = {}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else None
        spreads[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "runs": len(vals)}
        target = f" (target < {bounds[name] / 3:.4f})" if name in bounds else ""
        if name in bounds or args.trace == "1":
            print(f"{name}: median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"spread {'n/a' if spread is None else f'{spread:.4f}'}{target}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "seconds": seconds, "failures": failures,
                                        "values": values, "spreads": spreads}, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

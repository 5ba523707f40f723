"""One-shot pilot calibration for the finite-size acceptance thresholds.

PROTOCOLS is the only home of the seeded Monte-Carlo protocols the tests
assert on; this script writes their numbers to a JSON fixture, frozen after
review. The tests run the same table once per session, compare its rendering
with the fixture byte for byte (everything is deterministic), then assert the
target thresholds. Re-run only after an intentional algorithm change:

    python3 scripts/calibrate.py --out tests/fixtures/calibration.json
"""

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from mlsbm import (
    ExperimentConfig,
    MlsbmParams,
    aggregate_sum_spectral,
    bias_adjusted_spectral,
    detection_risk_by_cell,
    hamming_loss,
    mle_exhaustive,
    mle_local_search,
    mle_local_search_multistart,
    run_detection_sweep,
    run_gap_demo,
    run_phase_diagram,
    sample_planted,
)

BASE_SEED = 20260821


def mle_pilot() -> dict:
    losses = []
    for trial in range(20):
        inst = sample_planted(MlsbmParams(n=10, T=6, rho=0.4), seed=BASE_SEED + trial)
        result = mle_exhaustive(inst.graph)
        losses.append(hamming_loss(result.sigma_hat, inst.sigma).value)
    single_matches = 0
    multi_matches = 0
    for trial in range(50):
        inst = sample_planted(MlsbmParams(n=12, T=8, rho=0.4), seed=BASE_SEED + 1000 + trial)
        exhaustive = mle_exhaustive(inst.graph)
        init = bias_adjusted_spectral(inst.graph).sigma_hat
        single = mle_local_search(inst.graph, init)
        multi = mle_local_search_multistart(inst.graph)
        # neither ascent may beat the exact optimum it is matched against
        assert max(single.objective, multi.objective) <= exhaustive.objective, trial
        single_matches += single.objective == exhaustive.objective
        multi_matches += multi.objective == exhaustive.objective
    return {
        "exhaustive_mean_loss_n10_T6_rho0.4": sum(losses) / len(losses),
        "exhaustive_losses": losses,
        "single_start_match_rate_n12_T8_rho0.4": single_matches / 50.0,
        "multistart_match_rate_n12_T8_rho0.4": multi_matches / 50.0,
    }


def spectral_pilot() -> dict:
    n, T = 128, 64
    rho = 8.0 / (n * T**0.5)
    bias_losses, sum_losses = [], []
    for trial in range(20):
        inst = sample_planted(MlsbmParams(n=n, T=T, rho=rho), seed=BASE_SEED + 2000 + trial)
        bias = bias_adjusted_spectral(inst.graph)
        plain = aggregate_sum_spectral(inst.graph)
        bias_losses.append(hamming_loss(bias.sigma_hat, inst.sigma).value)
        sum_losses.append(hamming_loss(plain.sigma_hat, inst.sigma).value)
    return {
        "rho": rho,
        "bias_adjusted_median_loss": statistics.median(bias_losses),
        "bias_adjusted_losses": bias_losses,
        "sum_spectral_median_loss": statistics.median(sum_losses),
        "sum_spectral_losses": sum_losses,
    }


def gap_pilot() -> dict:
    import warnings

    gap = run_gap_demo(100, 40000, 5e-5, trials=10, base_seed=BASE_SEED)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        control = run_gap_demo(128, 64, 0.05, trials=10, base_seed=BASE_SEED)
    strip = ("records",)
    return {
        "gap_cell": {k: v for k, v in gap.items() if k not in strip},
        "control_cell": {k: v for k, v in control.items() if k not in strip},
    }


def detection_pilot() -> dict:
    n, T = 200, 64
    rho_easy = 12.0 / (n * T**0.5)
    rho_hard = 0.01 / (n * T)
    easy = ExperimentConfig(
        kind="detection",
        cells=((n, T, rho_easy),),
        methods=("shuffled-test",),
        trials=50,
        base_seed=BASE_SEED,
    )
    by_rounds = {}
    for rounds in (1, 2, 3, 5):
        records = run_detection_sweep(replace(easy, rounds=rounds))
        risk = next(iter(detection_risk_by_cell(records).values()))
        planted = [r.decision for r in records if r.cell.endswith("|planted")]
        null = [r.decision for r in records if r.cell.endswith("|null")]
        by_rounds[str(rounds)] = {
            "risk": risk,
            "type_i": sum(null) / len(null),
            "type_ii": 1.0 - sum(planted) / len(planted),
        }
    chosen = min(by_rounds, key=lambda k: (by_rounds[k]["risk"], int(k)))
    hard = replace(easy, cells=((n, T, rho_hard),), rounds=int(chosen))
    hard_risk = next(iter(detection_risk_by_cell(run_detection_sweep(hard)).values()))
    return {
        "rho_easy": rho_easy,
        "rho_hard": rho_hard,
        "risk_by_rounds": by_rounds,
        "chosen_rounds": int(chosen),
        "easy_risk_at_chosen": by_rounds[chosen]["risk"],
        "hard_risk_at_chosen": hard_risk,
    }


def phase_example_pilot() -> dict:
    easy = ExperimentConfig(
        kind="recovery",
        cells=((128, 64, 0.05),),
        methods=("bias-adjusted-spectral",),
        trials=10,
        base_seed=BASE_SEED,
    )
    easy_records = run_phase_diagram(easy)
    easy_mean = sum(r.loss for r in easy_records) / len(easy_records)
    n, T = 64, 16
    rho_blind = 0.01 / (n * T)
    blind = ExperimentConfig(
        kind="recovery",
        cells=((n, T, rho_blind),),
        methods=("bias-adjusted-spectral", "sum-spectral", "mle-local-search"),
        trials=10,
        base_seed=BASE_SEED,
    )
    blind_records = run_phase_diagram(blind)
    blind_means = {}
    for method in blind.methods:
        losses = [r.loss for r in blind_records if r.method == method and r.loss is not None]
        blind_means[method] = sum(losses) / len(losses) if losses else None
    return {
        "easy_cell_mean_loss": easy_mean,
        "below_info_rho": rho_blind,
        "below_info_mean_loss_by_method": blind_means,
    }


PROTOCOLS = {
    "mle": mle_pilot,
    "spectral": spectral_pilot,
    "gap": gap_pilot,
    "detection": detection_pilot,
    "phase": phase_example_pilot,
}


def render(fixture: dict) -> str:
    """The fixture's JSON text, exactly as tests/fixtures/calibration.json holds it."""
    return json.dumps(fixture, indent=2, sort_keys=True) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the fixture JSON here (default: stdout only)")
    parser.add_argument(
        "--skip", nargs="*", default=[], choices=list(PROTOCOLS),
        help="pilot sections to skip (for quick reruns; stdout only)",
    )
    args = parser.parse_args()
    if args.out and args.skip:
        parser.error("--out writes the whole fixture, so it cannot be used with --skip")
    fixture = {"base_seed": BASE_SEED}
    for name, fn in PROTOCOLS.items():
        if name in args.skip:
            continue
        start = time.perf_counter()
        fixture[name] = fn()
        print(f"[{name}] done in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    text = render(fixture)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

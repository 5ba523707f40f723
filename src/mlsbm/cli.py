"""Command-line entry point.

Subcommands: generate | recover | detect | theory | sweep | gap-demo.
Exit codes: 0 success, 1 runtime/IO failure (including a FAIL verdict in a
theory report), 2 validation failure, 3 size-guard refusal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

from . import detection, experiments, metrics, model, recovery, seeding, theory
from .errors import BoundInapplicableError, SizeGuardError, ValidationError

_REL_TOL_CHI2 = 1e-10
_REL_TOL_LDLR = 1e-9


def _rel_close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _finite_json(value):
    """value with each non-finite float spelled as the string 'inf', '-inf' or 'nan'."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(item) for item in value]
    return value


def _emit(args, payload: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(_finite_json(payload), indent=2, sort_keys=True, allow_nan=False))
    else:
        for line in lines:
            print(line)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    params = model.MlsbmParams(n=args.n, T=args.T, rho=args.rho)
    sample = model.sample_planted if args.planted else model.sample_null
    model.write_graph(args.out, sample(params, args.seed))
    print(f"wrote {args.out}")
    return 0


def _load_graph_argument(args, *, allow_null_inline: bool = False):
    """Graph from --in, or sampled inline from --n/--T/--rho/--seed."""
    if args.input:
        sampling = {"--n": args.n, "--T": args.T, "--rho": args.rho, "--seed": args.seed}
        ignored = [flag for flag, value in sampling.items() if value is not None]
        if allow_null_inline and args.null:
            ignored.append("--null")
        if ignored:
            raise ValidationError(f"--in FILE reads the graph from the file; "
                                  f"drop the sampling flags {' '.join(ignored)}")
        loaded = model.read_graph(args.input)
        if isinstance(loaded, model.PlantedInstance):
            return loaded.graph, loaded
        return loaded, None
    if args.n is None or args.T is None or args.rho is None:
        raise ValidationError("need either --in FILE or all of --n/--T/--rho")
    params = model.MlsbmParams(n=args.n, T=args.T, rho=args.rho)
    seed = 0 if args.seed is None else args.seed
    if allow_null_inline and args.null:
        return model.sample_null(params, seed), None
    instance = model.sample_planted(params, seed)
    return instance.graph, instance


def _cmd_recover(args) -> int:
    graph, instance = _load_graph_argument(args)
    tau = None if instance is None else instance.tau
    result = experiments.RECOVERY_RUNNERS[args.method](graph, tau)
    loss = None
    if instance is not None:
        loss = metrics.hamming_loss(result.sigma_hat, instance.sigma).value
    record = recovery.to_json_record(result, loss_vs_truth=loss)
    _write_or_print(json.dumps(record, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_detect(args) -> int:
    # checked for every method, also those that never shuffle
    seeding._check_seed(args.shuffle_seed)
    if args.rounds is not None:
        model._check_size(args.rounds, "rounds", 1)
    graph, _ = _load_graph_argument(args, allow_null_inline=True)
    outcome = experiments.DETECTION_RUNNERS[args.method](graph, args.rounds, args.shuffle_seed)
    record = detection.to_json_record(outcome, method=args.method, n=graph.n, T=graph.T)
    _write_or_print(json.dumps(record, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_theory_chi2(args) -> int:
    # a given tau is checked before the brute force's size guard can skip it
    if args.tau is not None and len(model._as_bits(args.tau, "tau")) != args.T:
        raise ValidationError(f"tau has {len(args.tau)} entries but T={args.T}")
    closed = theory.chi_square_closed_form(args.n, args.T, args.rho)
    lines = [f"closed form: {closed.value!r}"]
    payload: dict = {"closed_form": closed.value, "per_c_log_terms": list(closed.per_c_terms)}
    half = args.T // 2
    # the balanced split by default, drawn lazily: the guard may refuse T first
    tau = args.tau or (int(t >= half) for t in range(args.T))
    status = 0
    try:
        brute = theory.chi_square_bruteforce(args.n, args.T, args.rho, tau)
    except SizeGuardError as exc:
        lines.append(f"brute force skipped: {exc}")
        payload["brute_force"] = None
    else:
        tau = args.tau or "0" * half + "1" * (args.T - half)
        agree = _rel_close(closed.value, brute, _REL_TOL_CHI2)
        lines.append(f"brute force (tau={tau}): {brute!r}")
        lines.append("PASS: closed form matches brute force" if agree
                     else "FAIL: closed form disagrees with brute force")
        payload.update({"brute_force": brute, "tau": tau, "agree": agree})
        status = 0 if agree else 1
    _emit(args, payload, lines)
    return status


def _cmd_theory_ldlr(args) -> int:
    exact = theory.ldlr_norm_exact(args.n, args.T, args.rho, args.D)
    values = {"exact": exact.value}
    lines = [f"exact triple sum: {exact.value!r}"]
    for name, fn in (
        ("brute_force", theory.ldlr_norm_bruteforce),
        ("projection", theory.ldlr_projection_oracle),
    ):
        try:
            values[name] = fn(args.n, args.T, args.rho, args.D)
            lines.append(f"{name.replace('_', ' ')}: {values[name]!r}")
        except SizeGuardError as exc:
            values[name] = None
            lines.append(f"{name.replace('_', ' ')} skipped: {exc}")
    computed = [v for v in values.values() if v is not None]
    agree = all(_rel_close(computed[0], v, _REL_TOL_LDLR) for v in computed[1:])
    lines.append("PASS: all computed routes agree" if agree
                 else "FAIL: computed routes disagree")
    payload = dict(values)
    payload.update({"agree": agree, "per_a_terms": list(exact.per_a_terms), "kappa": exact.kappa})
    _emit(args, payload, lines)
    return 0 if agree else 1


def _cmd_theory_lambda(args) -> int:
    partition = theory.lambda_count_partition(args.n, args.T, args.a)
    counts = partition["counts"]
    lines = [f"subsets of size a={args.a}: {partition['total_subsets']}"]
    rows = []
    ok_partition = (
        sum(counts.values()) + partition["odd_layer_parity"] == partition["total_subsets"]
    )
    for (r, k), exact in sorted(counts.items()):
        bound = theory.lambda_count_bound(args.n, args.T, args.a, r, k)
        held = exact <= bound
        rows.append({"r": r, "k": k, "exact": exact, "upper_bound": bound, "bound_holds": held})
        lines.append(f"  r={r} k={k}: exact={exact} bound={bound:.6g} "
                     f"{'ok' if held else 'exceeded (asymptotic bound, small size)'}")
    lines.append(f"odd layer-parity subsets (excluded): {partition['odd_layer_parity']}")
    lines.append("PASS: counts partition the subsets" if ok_partition
                 else "FAIL: partition identity violated")
    payload = {
        "total_subsets": partition["total_subsets"],
        "odd_layer_parity": partition["odd_layer_parity"],
        "cells": rows,
        "partition_holds": ok_partition,
    }
    _emit(args, payload, lines)
    return 0 if ok_partition else 1


def _cmd_theory_bounds(args) -> int:
    payload: dict = {}
    lines = []
    try:
        bound = theory.ldlr_upper_bound(
            args.n, args.T, args.rho, args.D, strengthened=args.strengthened
        )
        variant = "strengthened" if args.strengthened else "default"
        lines.append(f"{variant} bound: {bound!r}")
        payload.update({"bound": bound, "applicable": True, "strengthened": args.strengthened})
    except BoundInapplicableError as exc:
        lines.append(f"INAPPLICABLE: {exc}")
        payload.update({"bound": None, "applicable": False, "xi": exc.xi,
                        "strengthened": args.strengthened})
        _emit(args, payload, lines)
        return 0
    status = 0
    try:
        exact = theory.ldlr_norm_exact(args.n, args.T, args.rho, args.D)
        dominated = exact.value <= bound
        lines.append(f"exact norm: {exact.value!r}")
        lines.append("PASS: exact norm is dominated by the bound" if dominated
                     else "FAIL: exact norm exceeds the bound")
        payload.update({"exact": exact.value, "dominated": dominated})
        if not dominated:
            status = 1
    except SizeGuardError as exc:
        lines.append(f"exact norm skipped: {exc}")
        payload["exact"] = None
    _emit(args, payload, lines)
    return status


def _cmd_theory_lemmas(args) -> int:
    model._check_size(args.m_max, "m-max", 1)
    mismatches = []
    for m in range(1, args.m_max + 1):
        for k in range(0, m + 1):
            direct = theory.signed_vandermonde(m, k)
            closed = theory.signed_vandermonde_closed_form(m, k)
            if direct != closed:
                mismatches.append((m, k, direct, closed))
    lines = [
        f"signed convolution identity checked for 1 <= m <= {args.m_max}: "
        + ("PASS" if not mismatches else f"FAIL at {mismatches[:3]}")
    ]
    violations = []
    points = 0
    for N in (20, 40, 60, 100, 200):
        K = N // 2
        for m in (N // 4, N // 2):
            for t in (0.05, 0.1, 0.2, 0.3, 0.45):
                exact, bound = theory.hypergeometric_tail_check(N, K, m, t)
                points += 1
                if exact > bound + 1e-15:
                    violations.append((N, K, m, t, exact, bound))
    lines.append(
        f"hypergeometric tail bound checked on {points} points: "
        + ("PASS" if not violations else f"FAIL at {violations[:3]}")
    )
    ok = not mismatches and not violations
    payload = {
        "vandermonde_mismatches": mismatches,
        "tail_points": points,
        "tail_violations": violations,
        "all_pass": ok,
    }
    _emit(args, payload, lines)
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    config = experiments.read_config(args.config)
    if config.kind == "recovery":
        records = experiments.run_phase_diagram(config)
    else:
        records = experiments.run_detection_sweep(config)
    out = args.out or config.output_path
    if not out:
        raise ValidationError("no output path: pass --out or set output_path in the config")
    experiments.write_results(
        records, out, config, overwrite=args.force, include_timing=args.timing
    )
    if config.kind == "recovery":
        losses: dict[tuple[str, str], list[float]] = {}
        for r in records:
            cell_losses = losses.setdefault((r.cell, r.method), [])
            if r.loss is not None:
                cell_losses.append(r.loss)
        for (cell, method), cell_losses in losses.items():
            mean = sum(cell_losses) / len(cell_losses) if cell_losses else float("nan")
            print(f"cell {cell} method {method}: mean loss {mean:.4f} "
                  f"({len(cell_losses)}/{config.trials} trials)")
    else:
        risks = experiments.detection_risk_by_cell(records)
        for (cell, method), risk in sorted(risks.items()):
            print(f"cell {cell} method {method}: risk {risk:.4f}")
    print(f"wrote {out}")
    return 0


def _cmd_gap_demo(args) -> int:
    # one "warning: ..." line per warning, also when the run then fails
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            summary = experiments.run_gap_demo(args.n, args.T, args.rho, args.trials, args.seed)
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    records = summary.pop("records")
    if args.out:
        experiments.write_results(records, args.out, overwrite=args.force,
                                  include_timing=args.timing)
        summary["records_path"] = args.out
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_cell(parser: argparse.ArgumentParser, with_rho: bool = True) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--T", type=int, required=True)
    if with_rho:
        parser.add_argument("--rho", type=float, required=True)


def _add_inline_sampling(parser: argparse.ArgumentParser, with_null: bool) -> None:
    parser.add_argument("--in", dest="input", metavar="PATH",
                        help="read an mlsbm-edges v1 graph file")
    parser.add_argument("--n", type=int, help="nodes (inline sampling)")
    parser.add_argument("--T", type=int, help="layers (inline sampling)")
    parser.add_argument("--rho", type=float, help="edge density (inline sampling)")
    parser.add_argument("--seed", type=int, help="sampling seed")
    if with_null:
        parser.add_argument("--null", action="store_true",
                            help="sample from the null model instead of the planted one")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlsbm",
        description="Multi-layer stochastic block model toolkit: sampling, "
                    "recovery, detection, exact theory checks, experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a graph and write it to a file")
    _add_cell(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--planted", action="store_true",
                   help="planted model with sigma/tau footers (default: null model)")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("recover", help="run one recovery method on a graph")
    _add_inline_sampling(p, with_null=False)
    p.add_argument("--method", required=True, choices=sorted(experiments.RECOVERY_RUNNERS))
    p.add_argument("--out", metavar="PATH", help="write the JSON result here instead of stdout")
    p.set_defaults(handler=_cmd_recover)

    p = sub.add_parser("detect", help="run the planted-vs-null test on a graph")
    _add_inline_sampling(p, with_null=True)
    p.add_argument("--method", default="split-test",
                   choices=list(experiments.DETECTION_RUNNERS))
    p.add_argument("--rounds", type=int, help="shuffle rounds (default: heuristic)")
    p.add_argument("--shuffle-seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("theory", help="exact formulas against brute-force oracles")
    tsub = p.add_subparsers(dest="report", required=True)

    t = tsub.add_parser("chi2", help="chi-square divergence, closed form vs enumeration")
    _add_cell(t)
    t.add_argument("--tau", help="layer-type bits for the brute force (default balanced split)")
    t.add_argument("--json", action="store_true")
    t.set_defaults(handler=_cmd_theory_chi2)

    t = tsub.add_parser("ldlr", help="low-degree norm, three computation routes")
    _add_cell(t)
    t.add_argument("--D", type=int, required=True)
    t.add_argument("--json", action="store_true")
    t.set_defaults(handler=_cmd_theory_ldlr)

    t = tsub.add_parser("lambda", help="parity-class counts and their bounds")
    _add_cell(t, with_rho=False)
    t.add_argument("--a", type=int, required=True)
    t.add_argument("--json", action="store_true")
    t.set_defaults(handler=_cmd_theory_lambda)

    t = tsub.add_parser("bounds", help="norm upper bound applicability and dominance")
    _add_cell(t)
    t.add_argument("--D", type=int, required=True)
    t.add_argument("--strengthened", action="store_true")
    t.add_argument("--json", action="store_true")
    t.set_defaults(handler=_cmd_theory_bounds)

    t = tsub.add_parser("lemmas", help="signed convolution identity and tail bound sweeps")
    t.add_argument("--m-max", type=int, default=30)
    t.add_argument("--json", action="store_true")
    t.set_defaults(handler=_cmd_theory_lemmas)

    p = sub.add_parser("sweep", help="run a configured experiment sweep to CSV")
    p.add_argument("--config", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH", help="results CSV (overrides config output_path)")
    p.add_argument("--force", action="store_true", help="overwrite existing output files")
    p.add_argument("--timing", action="store_true",
                   help="include wall times (breaks byte-for-byte reproducibility)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("gap-demo", help="oracle vs type-blind spectral on paired instances")
    _add_cell(p)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH", help="write per-trial records CSV here")
    p.add_argument("--force", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(handler=_cmd_gap_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

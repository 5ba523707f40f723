"""Traced run: a workload's units composed from public mlsbm calls, one span per call.

The study first runs through the CLI twice, with the program's default pool
and with ``MLSBM_WORKERS=1``; both CSVs must be byte-identical. Then every
unit of the study is recomposed in this process from the library's public
functions:

* spectral methods: aggregate -> ``top_two_eigenpairs`` -> pick the
  eigenvector (smaller |mean| for the type-blind aggregate, the top one for
  the oracle) -> ``balanced_rounding``;
* local search: the start battery -> ``mle_local_search`` per start -> the
  best objective, earliest start first;
* detection: ``shuffled_test`` with the composed bias-adjusted method as its
  recover callback.

Each composition must reproduce the library function it stands for
(``oracle_tau_spectral``, ``bias_adjusted_spectral``, ``default_start_battery``,
``mle_local_search_multistart``) and the CLI's CSV row, else its unit fails.
Those library calls run in ``check.*`` spans, and the probes ``seeding.substream``
(the instance's substreams, constructed again) and ``model.MultiLayerGraph``
(the graph validated again) measure parts of the sampler from outside; neither
counts towards a unit's time. In the first pass each unit also runs untraced,
through the library's own calls, right after its traced twin: the base of
the tracing overhead. Spans are
kept in memory and written to ``out/spans-<workload>.jsonl`` at the end.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from studies import (OUT, SRC, Study, Tally, Workload, describe, read_units, run_study,
                     sha256)

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from mlsbm import (  # noqa: E402
    Assignment,
    MlsbmParams,
    MultiLayerGraph,
    RecoveryResult,
    aggregate_bias_adjusted,
    aggregate_layer_sum,
    aggregate_signed,
    balanced_rounding,
    bias_adjusted_spectral,
    default_start_battery,
    derive_seed,
    hamming_loss,
    mle_local_search,
    mle_local_search_multistart,
    oracle_tau_spectral,
    read_config,
    read_results,
    sample_null,
    sample_planted,
    shuffled_test,
    substream,
    top_two_eigenpairs,
    write_results,
)
from mlsbm.experiments import resolve_worker_count  # noqa: E402

# The library's eigen-gap tolerance below which a spectral result is degenerate.
DEGENERATE_TOL = 1e-10
# Seed purpose tags of a (cell, trial) unit and substream tags of a sampled
# instance, as the program derives them.
SEED_INSTANCE, SEED_SHUFFLE_PLANTED, SEED_NULL, SEED_SHUFFLE_NULL = 0, 1, 2, 3
SIGMA_STREAM, TAU_STREAM, LAYER_STREAM = 0, 1, 2

UNIT = "experiments.unit"
PROBES = ("seeding.substream", "model.MultiLayerGraph")
# Spans whose p50 duration is reported as <name>.ms.
TIMED = (
    "model.sample_planted", "model.sample_null", *PROBES,
    "recovery.aggregate_bias_adjusted", "recovery.aggregate_signed",
    "recovery.aggregate_layer_sum", "recovery.top_two_eigenpairs",
    "recovery.balanced_rounding", "recovery.default_start_battery",
    "recovery.mle_local_search", "metrics.hamming_loss", "experiments.write_results",
)
# Spans whose self time is reported as <name>.share of the units' time.
SHARED = tuple(name for name in TIMED if name != "experiments.write_results") + (
    "detection.shuffled_test",)
COUNTS = (
    "model.layers", "model.edges", "recovery.wedges", "recovery.degenerate",
    "recovery.local_search.steps", "recovery.local_search.starts",
    "detection.recover_calls", "detection.shuffle_rounds_used",
)


class Tracer:
    """Spans [name, parent index, unit id, start ns, end ns] and counters, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit = -1  # id of the unit being traced; -1 outside units
        self.units_started = 0
        self.counts: collections.Counter = collections.Counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, self.stack[-1] if self.stack else None, self.unit, 0, 0]
        self.spans.append(record)
        self.stack.append(index)
        record[3] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[4] = time.perf_counter_ns()
            self.stack.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, unit, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "unit": unit, "start_ns": start, "end_ns": end}) + "\n")


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------


def sample(tr: Tracer, params: MlsbmParams, seed: int, planted: bool):
    """Sample one instance, then probe its substreams and graph validation."""
    if planted:
        with tr.span("model.sample_planted"):
            instance = sample_planted(params, seed)
        graph = instance.graph
        paths = [(SIGMA_STREAM,), (TAU_STREAM,)]
    else:
        with tr.span("model.sample_null"):
            instance = graph = sample_null(params, seed)
        paths = []
    tr.counts["model.layers"] += graph.T
    tr.counts["model.edges"] += graph.total_edges
    paths += [(LAYER_STREAM, t) for t in range(graph.T)]
    with tr.span("seeding.substream"):
        for path in paths:
            substream(seed, *path)
    with tr.span("model.MultiLayerGraph"):
        MultiLayerGraph(graph.n, graph.T, graph.layers)
    return instance


def spectral(tr: Tracer, n: int, aggregate: str, build, pick_smaller_mean: bool) -> RecoveryResult:
    """aggregate -> top_two_eigenpairs -> pick -> balanced_rounding."""
    with tr.span(aggregate):
        matrix = build().matrix
    if aggregate == "recovery.aggregate_bias_adjusted":
        tr.counts["recovery.wedges"] += int(matrix.sum()) // 2
    degenerate = not np.any(matrix)
    if not degenerate:
        with tr.span("recovery.top_two_eigenpairs"):
            lam1, v1, lam2, v2 = top_two_eigenpairs(matrix)
        degenerate = abs(abs(lam1) - abs(lam2)) <= DEGENERATE_TOL * max(1.0, abs(lam1))
    if degenerate:
        tr.counts["recovery.degenerate"] += 1
        scores = np.zeros(n)
    elif pick_smaller_mean and abs(float(v2.mean())) < abs(float(v1.mean())):
        scores = v2
    else:
        scores = v1
    with tr.span("recovery.balanced_rounding"):
        sigma = balanced_rounding(scores)
    return RecoveryResult(sigma, aggregate, degenerate=degenerate)


def same_spectral(a: RecoveryResult, b: RecoveryResult) -> bool:
    return (a.sigma_hat, a.degenerate) == (b.sigma_hat, b.degenerate)


def loss_of(tr: Tracer, sigma_hat: Assignment, sigma: Assignment) -> float:
    with tr.span("metrics.hamming_loss"):
        return hamming_loss(sigma_hat, sigma).value


def gap_unit(tr: Tracer, w: Workload, base_seed: int, u: int) -> tuple[list[dict], bool]:
    seed = derive_seed(base_seed, 0, u, SEED_INSTANCE)
    inst = sample(tr, MlsbmParams(w.n, w.T, w.rho), seed, planted=True)
    graph = inst.graph
    oracle = spectral(tr, w.n, "recovery.aggregate_signed",
                      lambda: aggregate_signed(graph, inst.tau), False)
    blind = spectral(tr, w.n, "recovery.aggregate_bias_adjusted",
                     lambda: aggregate_bias_adjusted(graph), True)
    rows = [dict(seed=seed, loss=loss_of(tr, r.sigma_hat, inst.sigma), decision=None,
                 objective=None, degenerate=r.degenerate) for r in (oracle, blind)]
    with tr.span("check.library"):
        same = (same_spectral(oracle, oracle_tau_spectral(graph, inst.tau))
                and same_spectral(blind, bias_adjusted_spectral(graph)))
    return rows, same


def start_battery(tr: Tracer, graph: MultiLayerGraph) -> list[Assignment]:
    """Roundings of the top eigenvectors of two aggregates, plus two fixed patterns."""
    with tr.span("recovery.aggregate_bias_adjusted"):
        adjusted = aggregate_bias_adjusted(graph).matrix
    tr.counts["recovery.wedges"] += int(adjusted.sum()) // 2
    with tr.span("recovery.top_two_eigenpairs"):
        _, v1, _, v2 = top_two_eigenpairs(adjusted)
    with tr.span("recovery.aggregate_layer_sum"):
        layer_sum = aggregate_layer_sum(graph).matrix
    with tr.span("recovery.top_two_eigenpairs"):
        _, u1, _, u2 = top_two_eigenpairs(layer_sum)
    starts = []
    for vec in (v1, v2, v1 + v2, v1 - v2, u2, u1):
        with tr.span("recovery.balanced_rounding"):
            starts.append(balanced_rounding(vec))
    half = graph.n // 2
    starts.append(Assignment(tuple([0] * half + [1] * half)))
    starts.append(Assignment(tuple(i % 2 for i in range(graph.n))))
    seen, unique = set(), []
    for start in starts:  # a global flip of an earlier start adds nothing
        key = min(start.labels, start.flipped().labels)
        if key not in seen:
            seen.add(key)
            unique.append(start)
    return unique


def local_search_unit(tr: Tracer, w: Workload, base_seed: int, u: int) -> tuple[list[dict], bool]:
    seed = derive_seed(base_seed, 0, u, SEED_INSTANCE)
    inst = sample(tr, MlsbmParams(w.n, w.T, w.rho), seed, planted=True)
    graph = inst.graph
    with tr.span("recovery.default_start_battery"):
        starts = start_battery(tr, graph)
    results = []
    for init in starts:
        with tr.span("recovery.mle_local_search"):
            results.append(mle_local_search(graph, init))
    best = results[0]
    for result in results[1:]:
        if result.objective > best.objective:
            best = result
    tr.counts["recovery.local_search.starts"] += len(results)
    tr.counts["recovery.local_search.steps"] += sum(len(r.objective_trace) - 1 for r in results)
    tr.counts["recovery.local_search.useful"] += sum(r.objective == best.objective for r in results)
    rows = [dict(seed=seed, loss=loss_of(tr, best.sigma_hat, inst.sigma), decision=None,
                 objective=best.objective, degenerate=False)]
    with tr.span("check.library"):
        lib = mle_local_search_multistart(graph)
        same = (starts == default_start_battery(graph)
                and (lib.sigma_hat, lib.tau_hat, lib.objective)
                == (best.sigma_hat, best.tau_hat, best.objective))
    return rows, same


def detect_unit(tr: Tracer, w: Workload, base_seed: int, u: int) -> tuple[list[dict], bool]:
    params = MlsbmParams(w.n, w.T, w.rho)
    rows, same = [], True
    for planted, seed_tag, shuffle_tag in ((True, SEED_INSTANCE, SEED_SHUFFLE_PLANTED),
                                           (False, SEED_NULL, SEED_SHUFFLE_NULL)):
        seed = derive_seed(base_seed, 0, u, seed_tag)
        instance = sample(tr, params, seed, planted)
        graph = instance.graph if planted else instance
        first = []

        def recover(training: MultiLayerGraph) -> RecoveryResult:
            tr.counts["detection.recover_calls"] += 1
            result = spectral(tr, training.n, "recovery.aggregate_bias_adjusted",
                              lambda: aggregate_bias_adjusted(training), True)
            if not first:
                first.append((training, result))
            return result

        with tr.span("detection.shuffled_test"):
            outcome = shuffled_test(graph, recover, rounds=None,
                                    seed=derive_seed(base_seed, 0, u, shuffle_tag))
        tr.counts["detection.shuffle_rounds_used"] += outcome.shuffle_rounds_used
        rows.append(dict(seed=seed, loss=None, decision=outcome.decision, objective=None,
                         degenerate=False))
        with tr.span("check.library"):
            training, result = first[0]
            same = same and same_spectral(result, bias_adjusted_spectral(training))
    return rows, same


UNITS = {"gap": gap_unit, "recovery": local_search_unit, "detection": detect_unit}


def plain_unit(w: Workload, base_seed: int, u: int) -> None:
    """The same unit through the library's own calls, untraced: the base of the overhead."""
    params = MlsbmParams(w.n, w.T, w.rho)
    if w.kind == "detection":
        for planted, seed_tag, shuffle_tag in ((True, SEED_INSTANCE, SEED_SHUFFLE_PLANTED),
                                               (False, SEED_NULL, SEED_SHUFFLE_NULL)):
            seed = derive_seed(base_seed, 0, u, seed_tag)
            graph = sample_planted(params, seed).graph if planted else sample_null(params, seed)
            shuffled_test(graph, bias_adjusted_spectral, rounds=None,
                          seed=derive_seed(base_seed, 0, u, shuffle_tag))
        return
    inst = sample_planted(params, derive_seed(base_seed, 0, u, SEED_INSTANCE))
    if w.kind == "gap":
        results = [oracle_tau_spectral(inst.graph, inst.tau), bias_adjusted_spectral(inst.graph)]
    else:
        results = [mle_local_search_multistart(inst.graph)]
    for result in results:
        hamming_loss(result.sigma_hat, inst.sigma)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def traced_pass(tr: Tracer, w: Workload, seed: int, cli_csv: Path, config, out: Path,
                tally: Tally, plain: list[float] | None = None) -> None:
    """Compose every unit once, compare it with the CLI's rows, then write the CSV again.

    With a `plain` list, each unit also runs untraced right after its traced
    twin, and its time in ms is appended.
    """
    records = read_results(cli_csv)
    by_unit = collections.defaultdict(list)
    for record in records:
        by_unit[record.trial].append(record)
    composed: list[dict] = []
    bad = 0
    for u in range(w.trials):
        tr.unit = tr.units_started
        tr.units_started += 1
        try:
            with tr.span(UNIT):
                rows, same = UNITS[w.kind](tr, w, seed, u)
        except Exception as exc:  # a unit that raises fails; the run goes on
            tally.add(1, 1, f"traced unit {u} raised {exc!r}")
            bad += 1
            continue
        if plain is not None:
            start = time.perf_counter_ns()
            plain_unit(w, seed, u)
            plain.append((time.perf_counter_ns() - start) / 1e6)
        expected = [dict(seed=r.seed, loss=r.loss, decision=r.decision, objective=r.objective,
                         degenerate=r.degenerate) for r in by_unit[u]]
        failed = not same or rows != expected
        bad += failed
        tally.add(1, int(failed), f"traced unit {u}: the composition differs from the library "
                                  "or the CLI")
        composed += rows
    tr.unit = -1
    if bad:
        return
    rewritten = [dataclasses.replace(r, **{k: v for k, v in row.items() if k != "seed"})
                 for r, row in zip(records, composed)]
    with tr.span("experiments.write_results"):
        write_results(rewritten, out, config)
    if sha256(out) != sha256(cli_csv):
        tally.add(0, w.trials, "the CSV written from the composed rows differs from the CLI's")


def summarize(tr: Tracer) -> tuple[dict, list[float]]:
    """Durations and self times per span name, and each unit's time net of probes and checks.

    Times are in ms. A span's self time is its duration minus its children's.
    """
    children = collections.defaultdict(list)
    for index, span in enumerate(tr.spans):
        if span[1] is not None:
            children[span[1]].append(index)
    dur = [(end - start) / 1e6 for _, _, _, start, end in tr.spans]
    names = collections.defaultdict(lambda: {"dur": [], "self": []})
    units = []
    for index, (name, *_rest) in enumerate(tr.spans):
        kids = children[index]
        names[name]["dur"].append(dur[index])
        names[name]["self"].append(dur[index] - sum(dur[k] for k in kids))
        if name == UNIT:
            units.append(dur[index] - sum(dur[k] for k in kids if excluded(tr.spans[k][0])))
    return names, units


def excluded(name: str) -> bool:
    """Probes and checks run inside a unit but are not part of its work."""
    return name in PROBES or name.startswith("check.")


def run_traced(w: Workload, seed: int, seconds: float, workdir: Path,
               tally: Tally) -> tuple[dict, dict]:
    began = time.monotonic()
    argv, pool_csv = w.prepare(seed, w.trials, workdir, "pool")
    pool = run_study(argv, pool_csv, workdir, "pool")
    serial_argv, serial_csv = w.prepare(seed, w.trials, workdir, "serial")
    serial = run_study(serial_argv, serial_csv, workdir, "serial", workers=1)
    if not pool.ok:
        tally.add(w.trials, w.trials, f"default-pool study: {pool.failure()}")
        return {}, {}
    tally.add(w.trials, 0)
    tally.compare(serial, w.trials, read_units(pool_csv), sha256(pool_csv),
                  "MLSBM_WORKERS=1 vs default pool")
    config = read_config(argv[argv.index("--config") + 1]) if "--config" in argv else None

    tr = Tracer()
    passes, counts, plain = 0, {}, []
    while passes == 0 or time.monotonic() - began < seconds:
        traced_pass(tr, w, seed, pool_csv, config, workdir / f"traced{passes}.csv", tally,
                    plain if passes == 0 else None)
        passes += 1
        if passes == 1:
            counts = dict(tr.counts)  # exact counts for the study's units
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{w.name}.jsonl")
    names, units = summarize(tr)
    return (per_layer(w, names, units, counts, plain, pool, serial),
            report(w, names, units, passes, plain, pool, serial))


def per_layer(w: Workload, names: dict, units: list[float], counts: dict, plain: list[float],
              pool: Study, serial: Study) -> dict:
    total = sum(units)
    serial_s = serial.study_s if serial.ok else 0.0

    def entry(name: str) -> dict:
        return names.get(name, {"dur": [], "self": []})

    def own(name: str) -> float:
        """Self time of a stage, or the whole duration of a probe, summed."""
        return sum(entry(name)["dur" if name in PROBES else "self"])

    values = {f"{name}.ms": (p50(entry(name)["dur"]), "ms") for name in TIMED}
    values.update({f"{name}.share": (own(name) / total, "ratio") for name in SHARED})
    values.update({name: (counts.get(name, 0), "count") for name in COUNTS})
    values.update({
        "detection.shuffled_test.self_ms": (p50(entry("detection.shuffled_test")["self"]), "ms"),
        "experiments.unit.ms": (p50(units), "ms"),
        "experiments.units": (len(units), "count"),
        "experiments.workers": (resolve_worker_count(w.trials), "count"),
        "experiments.study_s": (pool.study_s, "s"),
        "experiments.study_s.workers1": (serial_s, "s"),
        "experiments.pool_speedup": (serial_s / pool.study_s, "ratio"),
        "trace.overhead_ratio": (overhead(w, units, plain), "ratio"),
        "trace.unattributed_ratio": (own(UNIT) / total, "ratio"),
        "recovery.local_search.useful_ratio": (
            counts.get("recovery.local_search.useful", 0)
            / max(1, counts.get("recovery.local_search.starts", 0)), "ratio"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def overhead(w: Workload, units: list[float], plain: list[float]) -> float:
    """Traced ÷ untraced time of the first pass's units, each pair run back to back."""
    return sum(units[:w.trials]) / sum(plain)


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def report(w: Workload, names: dict, units: list[float], passes: int, plain: list[float],
           pool: Study, serial: Study) -> dict:
    total = sum(units)
    lines = {"units": f"{len(units)} traced units in {passes} passes, unit time "
                      f"{describe(units, '{:.2f} ms')} (net of probes and checks)"}
    modules = collections.Counter()
    stages = [n for n in names if n != UNIT and not n.startswith("check.")]
    for name in sorted(stages, key=lambda n: -sum(names[n]["self"])):
        entry = names[name]
        probe = name in PROBES
        own = sum(entry["dur"] if probe else entry["self"])
        if not probe and name != "experiments.write_results":
            modules[name.split(".")[0]] += own
        lines[name] = (f"{len(entry['dur'])} calls, {describe(entry['dur'], '{:.3f} ms')}; "
                       f"{'probe' if probe else 'self'} {own:.1f} ms "
                       f"= {100 * own / total:.1f}% of unit time")
    unattributed = sum(names[UNIT]["self"])
    modules["experiments"] += unattributed
    lines["unattributed (unit self time)"] = (f"{unattributed:.1f} ms "
                                              f"= {100 * unattributed / total:.1f}%")
    lines["modules (self time share)"] = ", ".join(
        f"{m} {100 * t / total:.1f}%" for m, t in modules.most_common())
    lines["dominant self time"] = max(
        (n for n in stages if n not in PROBES and n != "experiments.write_results"),
        key=lambda n: sum(names[n]["self"]))
    if serial.ok:
        lines["study (default pool / MLSBM_WORKERS=1)"] = (
            f"{pool.study_s:.3f} s / {serial.study_s:.3f} s, pool speedup "
            f"{serial.study_s / pool.study_s:.3f}")
    lines["trace overhead"] = (f"{overhead(w, units, plain):.3f}: traced ÷ untraced time of "
                               f"the study's units, untraced {sum(plain):.1f} ms in all")
    return lines

"""Monte-Carlo orchestration: phase diagrams, detection sweeps, gap demo.

Every sweep is deterministic given its config: trial seeds derive from
(base_seed, cell index, trial index, purpose tag) through independent seed
substreams, methods within a trial run sequentially on the identical
instance (paired comparisons), and units run one after another in one loop,
so output rows come out in cell/trial order. Wall time is measured per
method call but only written to disk on request, so default output files
are byte-identical across runs.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
import warnings
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from .detection import DetectionDecision, shuffled_test, split_layer_test
from .errors import SizeGuardError, ValidationError
from .metrics import detection_risk, hamming_loss
from .model import (
    MAX_DENSITY,
    Assignment,
    MlsbmParams,
    MultiLayerGraph,
    _check_even,
    _check_real,
    _check_size,
    sample_null,
    sample_planted,
    sample_planted_empty,
)
from .recovery import (
    RecoveryResult,
    _check_dense_size,
    aggregate_sum_spectral,
    bias_adjusted_spectral,
    mle_exhaustive,
    mle_local_search_multistart,
    oracle_tau_spectral,
)
from .seeding import _check_seed, derive_seed

# Seed purpose tags inside one (cell, trial) unit.
_SEED_INSTANCE = 0
_SEED_SHUFFLE_PLANTED = 1
_SEED_NULL = 2
_SEED_SHUFFLE_NULL = 3


def _oracle_tau_runner(graph: MultiLayerGraph, tau: Optional[Assignment]) -> RecoveryResult:
    if tau is None:
        raise ValidationError("oracle-tau-spectral needs a planted input carrying layer types")
    return oracle_tau_spectral(graph, tau)


# The one map from method names to code, used by the CLI, the sweeps and the
# gap demo. Recovery runners take (graph, planted tau or None); detection
# runners take (graph, shuffle rounds or None, shuffle seed).
RECOVERY_RUNNERS: dict[
    str, Callable[[MultiLayerGraph, Optional[Assignment]], RecoveryResult]
] = {
    "bias-adjusted-spectral": lambda graph, tau: bias_adjusted_spectral(graph),
    "sum-spectral": lambda graph, tau: aggregate_sum_spectral(graph),
    "oracle-tau-spectral": _oracle_tau_runner,
    "mle-exhaustive": lambda graph, tau: mle_exhaustive(graph),
    "mle-local-search": lambda graph, tau: mle_local_search_multistart(graph),
}

DETECTION_RUNNERS: dict[
    str, Callable[[MultiLayerGraph, Optional[int], int], DetectionDecision]
] = {
    "split-test": lambda graph, rounds, seed: split_layer_test(graph, bias_adjusted_spectral),
    "shuffled-test": lambda graph, rounds, seed: shuffled_test(
        graph, bias_adjusted_spectral, rounds=rounds, seed=seed
    ),
}


def _int_from_text(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValidationError(f"config key {key}: expected integer, got {text!r}") from exc


def _list_from_text(key: str, text: str) -> tuple[str, ...]:
    """A comma list, blank items dropped."""
    return tuple(filter(None, (item.strip() for item in text.split(","))))


def _cells_from_text(key: str, text: str) -> tuple[tuple[int, int, float], ...]:
    cells = []
    for chunk in _list_from_text(key, text):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValidationError(f"config cell {chunk!r}: expected n:T:rho")
        try:
            cells.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ValidationError(f"config cell {chunk!r}: bad number") from exc
    return tuple(cells)


def _from_text(parse: Callable[[str, str], Any], **default) -> Any:
    """A field that config files spell as text, converted by parse(key, text)."""
    return field(metadata={"from_text": parse}, **default)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a cell grid, the methods to run, and the trial budget."""

    kind: str
    cells: tuple[tuple[int, int, float], ...] = _from_text(_cells_from_text)
    methods: tuple[str, ...] = _from_text(_list_from_text)
    trials: int = _from_text(_int_from_text)
    base_seed: int = _from_text(_int_from_text, default=0)
    output_path: Optional[str] = _from_text(lambda key, text: text or None, default=None)
    # Shuffle rounds for detection sweeps; None uses the heuristic default.
    rounds: Optional[int] = _from_text(_int_from_text, default=None)

    def __post_init__(self):
        if self.kind not in ("recovery", "detection"):
            raise ValidationError(f"kind must be 'recovery' or 'detection', got {self.kind!r}")
        object.__setattr__(self, "trials", _check_size(self.trials, "trials", 1))
        object.__setattr__(self, "base_seed", _check_seed(self.base_seed, "base_seed"))
        cells = []
        if not self.cells:
            raise ValidationError("config needs at least one (n, T, rho) cell")
        for cell in self.cells:
            try:
                n, T, rho = cell
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"malformed cell {cell!r}") from exc
            try:
                params = MlsbmParams(n=n, T=T, rho=rho)
            except ValidationError as exc:
                raise ValidationError(f"cell {cell!r}: {exc}") from exc
            normalized = astuple(params)
            if normalized in cells:
                raise ValidationError(f"cell {cell!r} repeats cell {_cell_id(*normalized)}")
            cells.append(normalized)
        object.__setattr__(self, "cells", tuple(cells))
        methods = tuple(self.methods)
        if not methods:
            raise ValidationError("config needs at least one method")
        valid = RECOVERY_RUNNERS if self.kind == "recovery" else DETECTION_RUNNERS
        for method in methods:
            if method not in valid:
                raise ValidationError(
                    f"unknown {self.kind} method {method!r}; valid: {sorted(valid)}"
                )
        object.__setattr__(self, "methods", methods)
        if self.rounds is not None:
            if self.kind != "detection":
                raise ValidationError("rounds is for detection sweeps; no recovery method shuffles")
            object.__setattr__(self, "rounds", _check_size(self.rounds, "rounds", 1))

    @classmethod
    def from_exponents(
        cls,
        n_values: Sequence[int],
        a: float,
        b: float,
        *,
        methods: Sequence[str] = ("bias-adjusted-spectral",),
        **other_fields,
    ) -> "ExperimentConfig":
        """Grid from scaling exponents: T = n^a rounded to even, rho = n^-b.

        Each n must be an even integer >= 2 and a, b finite reals. The other
        fields pass through as keywords, with the config-file defaults.
        """
        a, b = _check_real(a, "a"), _check_real(b, "b")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValidationError(f"exponents must be finite, got a={a}, b={b}")
        cells = []
        for n in n_values:
            n = _check_even(n, "n", 2)
            try:
                T = max(2, int(round(float(n) ** a)))
                rho = float(n) ** -b
            except OverflowError as exc:
                raise ValidationError(f"n^a or n^-b overflows at n={n}, a={a}, b={b}") from exc
            cells.append((n, T + T % 2, rho))
        return cls(cells=tuple(cells), methods=tuple(methods),
                   **{**_FILE_DEFAULTS, **other_fields})

    def to_json_dict(self) -> dict:
        return {"format": "mlsbm-sweep-config v1", **asdict(self),
                "cells": [list(cell) for cell in self.cells], "methods": list(self.methods)}


@dataclass(frozen=True)
class TrialRecord:
    """One method execution on one sampled instance, CSV-row shaped."""

    cell: str
    n: int
    T: int
    rho: float
    method: str
    trial: int
    seed: int
    loss: Optional[float]
    decision: Optional[int]
    objective: Optional[int]
    wall_time_ms: Optional[float]
    degenerate: bool

    def __post_init__(self):
        if self.loss is not None and not (0.0 <= self.loss <= 0.5):
            raise ValidationError(f"loss must lie in [0, 1/2], got {self.loss}")
        if self.decision is not None and self.decision not in (0, 1):
            raise ValidationError(f"decision must be 0 or 1, got {self.decision}")
        # the CSV writer leaves a lone \r unquoted, and readers end the row there
        if "\r" in self.cell + self.method:
            raise ValidationError(f"cell and method must not contain '\\r': {self.cell!r}, "
                                  f"{self.method!r}")


def _optional(fmt: Callable[[Any], str], parse: Callable[[str], Any]) -> tuple:
    """The codec of an optional column: None is the empty cell."""
    return (lambda value: "" if value is None else fmt(value),
            lambda text: parse(text) if text else None)


# One (format, parse) codec per results-CSV column, in TrialRecord's field order.
_CSV_CODECS: dict[str, tuple[Callable[[Any], str], Callable[[str], Any]]] = {
    "cell": (str, str),
    "n": (str, int),
    "T": (str, int),
    "rho": (repr, float),
    "method": (str, str),
    "trial": (str, int),
    "seed": (str, int),
    "loss": _optional(lambda loss: repr(float(loss)), float),
    "decision": _optional(str, int),
    "objective": _optional(str, int),
    "wall_time_ms": _optional("{:.3f}".format, float),
    "degenerate": (lambda flag: "1" if flag else "0", {"0": False, "1": True}.__getitem__),
}
CSV_COLUMNS = tuple(_CSV_CODECS)


def _cell_id(n: int, T: int, rho: float) -> str:
    return f"n{n}-T{T}-rho{rho!r}"


def resolve_worker_count(n_units: int) -> int:
    """Always 1: studies run their units serially, in one loop.

    Nothing in the library calls it. perfbench/run.py (for its provenance
    record) and perfbench/traced.py still import it, so it stays until the
    benchmark drops those imports.
    """
    return 1


def _assert_unique_seeds(records: Sequence[TrialRecord]) -> None:
    by_unit: dict[tuple[str, int], int] = {}
    for record in records:
        key = (record.cell, record.trial)
        if key in by_unit and by_unit[key] != record.seed:
            raise AssertionError(f"unit {key} saw two different seeds")
        by_unit[key] = record.seed
    seeds = list(by_unit.values())
    if len(set(seeds)) != len(seeds):
        raise AssertionError("derived seeds collide across (cell, trial) units")


def _run_units(n_units: int, unit_fn: Callable[[int], list[TrialRecord]]) -> list[TrialRecord]:
    """Run unit_fn(0..n_units-1) in order and concatenate their records."""
    records = [record for u in range(n_units) for record in unit_fn(u)]
    _assert_unique_seeds(records)
    return records


def _timed_rows(methods: Sequence[str], score: Callable[[str], tuple], cell: str,
                n: int, T: int, rho: float, trial: int, seed: int) -> list[TrialRecord]:
    """A timed study row per method from score(method) = (loss, decision, objective, degenerate)."""
    rows = []
    for method in methods:
        start = time.perf_counter()
        loss, decision, objective, degenerate = score(method)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        rows.append(TrialRecord(
            cell=cell, n=n, T=T, rho=rho, method=method, trial=trial, seed=seed, loss=loss,
            decision=decision, objective=objective, wall_time_ms=elapsed_ms, degenerate=degenerate,
        ))
    return rows


def _run_recovery(cells: Sequence[tuple[int, int, float]], methods: Sequence[str], trials: int,
                  base_seed: int, cell_prefix: str) -> list[TrialRecord]:
    """Score every recovery method on one planted instance per (cell, trial) unit.

    rho = 0 plants sigma and tau over empty layers. A method refusing the
    instance's size is recorded as degenerate with an empty loss.
    """

    def unit(u: int) -> list[TrialRecord]:
        ci, ti = divmod(u, trials)
        n, T, rho = cells[ci]
        seed = derive_seed(base_seed, ci, ti, _SEED_INSTANCE)
        if rho == 0.0:
            instance = sample_planted_empty(n, T, seed)
        else:
            instance = sample_planted(MlsbmParams(n=n, T=T, rho=rho), seed)

        def score(method: str) -> tuple:
            try:
                result = RECOVERY_RUNNERS[method](instance.graph, instance.tau)
            except SizeGuardError:
                return None, None, None, True
            loss = hamming_loss(result.sigma_hat, instance.sigma).value
            return loss, None, result.objective, result.degenerate

        return _timed_rows(methods, score, cell_prefix + _cell_id(n, T, rho), n, T, rho, ti, seed)

    return _run_units(len(cells) * trials, unit)


def run_phase_diagram(config: ExperimentConfig) -> list[TrialRecord]:
    """Run every recovery method on planted instances over the cell grid.

    One instance per (cell, trial); methods share it so comparisons are
    paired. A method hitting its size guard is recorded as degenerate with an
    empty loss instead of aborting the sweep.
    """
    if config.kind != "recovery":
        raise ValidationError(f"run_phase_diagram needs kind='recovery', got {config.kind!r}")
    return _run_recovery(config.cells, config.methods, config.trials, config.base_seed,
                         cell_prefix="")


def run_detection_sweep(config: ExperimentConfig) -> list[TrialRecord]:
    """Paired planted/null trials through the split test or its shuffled max.

    Each (cell, trial) samples one planted and one null graph from disjoint
    seed substreams; cell ids gain a '|planted' / '|null' suffix so the risk
    can be assembled per cell afterwards.
    """
    if config.kind != "detection":
        raise ValidationError(f"run_detection_sweep needs kind='detection', got {config.kind!r}")
    for n, T, rho in config.cells:
        if T < 4:
            raise ValidationError(f"detection cells need T >= 4 for the layer split, got T={T}")

    def unit(u: int) -> list[TrialRecord]:
        ci, ti = divmod(u, config.trials)
        n, T, rho = config.cells[ci]
        params = MlsbmParams(n=n, T=T, rho=rho)
        arms = (
            ("planted", _SEED_INSTANCE, _SEED_SHUFFLE_PLANTED),
            ("null", _SEED_NULL, _SEED_SHUFFLE_NULL),
        )
        out = []
        for arm, seed_tag, shuffle_tag in arms:
            seed = derive_seed(config.base_seed, ci, ti, seed_tag)
            if arm == "planted":
                graph = sample_planted(params, seed).graph
            else:
                graph = sample_null(params, seed)
            shuffle_seed = derive_seed(config.base_seed, ci, ti, shuffle_tag)

            def score(method: str) -> tuple:
                outcome = DETECTION_RUNNERS[method](graph, config.rounds, shuffle_seed)
                return None, outcome.decision, None, False

            cell = f"{_cell_id(n, T, rho)}|{arm}"
            out += _timed_rows(config.methods, score, cell, n, T, rho, ti, seed)
        return out

    return _run_units(len(config.cells) * config.trials, unit)


def detection_risk_by_cell(records: Sequence[TrialRecord]) -> dict[tuple[str, str], float]:
    """Type-I + type-II error per (cell, method) from paired sweep records."""
    grouped: dict[tuple[str, str], tuple[list[int], list[int]]] = {}
    for record in records:
        if record.decision is None or "|" not in record.cell:
            raise ValidationError(f"record for cell {record.cell!r} is not a detection record")
        base, arm = record.cell.rsplit("|", 1)
        truths, decisions = grouped.setdefault((base, record.method), ([], []))
        truths.append(1 if arm == "planted" else 0)
        decisions.append(record.decision)
    return {
        key: detection_risk(truths, decisions) for key, (truths, decisions) in grouped.items()
    }


def run_gap_demo(n: int, T: int, rho: float, trials: int, base_seed: int = 0) -> dict:
    """Paired oracle-tau vs type-blind spectral losses on identical instances.

    Interesting parameters sit between the thresholds (n*T*rho large,
    n*sqrt(T)*rho small); anything else triggers a warning but still runs,
    so the easy control cell can reuse this code path. rho = 0 is allowed
    and yields empty graphs: both methods flag degenerate and the gap is
    reported undefined. n past the dense cap is refused before sampling.
    """
    n, T, rho = _check_even(n, "n", 4), _check_even(T, "T", 2), _check_real(rho, "rho")
    if not (0.0 <= rho < MAX_DENSITY):
        raise ValidationError(f"rho must lie in [0, {MAX_DENSITY:.6g}), got {rho}")
    trials = _check_size(trials, "trials", 1)
    info_scale = n * T * rho
    comp_scale = n * math.sqrt(T) * rho
    between = info_scale >= 10.0 and comp_scale <= 3.0
    if not between:
        warnings.warn(
            "gap demo parameters are not between the thresholds: "
            f"n*T*rho = {info_scale:.4g} (want >> 1), "
            f"n*sqrt(T)*rho = {comp_scale:.4g} (want <~ 1)",
            RuntimeWarning,
            stacklevel=2,
        )
    _check_dense_size(n)

    records = _run_recovery(((n, T, rho),), ("oracle-tau-spectral", "bias-adjusted-spectral"),
                            trials, base_seed, cell_prefix="gap-")
    oracle = [r for r in records if r.method == "oracle-tau-spectral"]
    spectral = [r for r in records if r.method == "bias-adjusted-spectral"]
    paired = [(o.loss, s.loss) for o, s in zip(oracle, spectral)
              if not o.degenerate and not s.degenerate]
    summary: dict = {
        "n": n,
        "T": T,
        "rho": rho,
        "trials": trials,
        "between_thresholds": between,
        "degenerate_trials": trials - len(paired),
        "oracle_losses": [r.loss for r in oracle],
        "spectral_losses": [r.loss for r in spectral],
        "gap_defined": bool(paired),
        "records": records,
    }
    for key, values in (("median_oracle_loss", [o for o, _ in paired]),
                        ("median_spectral_loss", [s for _, s in paired]),
                        ("median_gap", [s - o for o, s in paired])):
        summary[key] = statistics.median(values) if paired else None
    if not paired:
        summary["note"] = "gap undefined: every trial was degenerate"
    return summary


# ---------------------------------------------------------------------------
# results round-tripping
# ---------------------------------------------------------------------------


def write_results(
    records: Sequence[TrialRecord],
    path: Union[str, Path],
    config: Optional[ExperimentConfig] = None,
    *,
    overwrite: bool = False,
    include_timing: bool = False,
) -> None:
    """Write records as CSV (fixed schema) plus an optional config sidecar.

    Timing is omitted unless include_timing is set, keeping default output
    byte-identical across runs. Existing files are refused without
    overwrite=True.
    """
    path = Path(path)
    sidecar = Path(str(path) + ".config.json")
    for target in (path,) + ((sidecar,) if config is not None else ()):
        if target.exists() and not overwrite:
            raise FileExistsError(f"{target}: refusing to overwrite without the explicit flag")
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for record in records:
                if not include_timing:
                    record = replace(record, wall_time_ms=None)
                writer.writerow([fmt(getattr(record, name))
                                 for name, (fmt, _) in _CSV_CODECS.items()])
        if config is not None:
            with open(sidecar, "w", encoding="utf-8") as fh:
                json.dump(config.to_json_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing results to {path}: {exc}") from exc


def _read_row(row: Sequence[str]) -> TrialRecord:
    if len(row) != len(CSV_COLUMNS):
        raise ValidationError(f"malformed row {row!r}")
    values = {}
    for (name, (_, parse)), text in zip(_CSV_CODECS.items(), row):
        try:
            values[name] = parse(text)
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"bad {name} value {text!r}") from exc
    return TrialRecord(**values)


def read_results(path: Union[str, Path]) -> list[TrialRecord]:
    """Parse a results CSV back into records (inverse of write_results)."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise OSError(f"failed reading results from {path}: {exc}") from exc
    try:
        if not rows:
            raise ValidationError("empty results file (missing header)")
        if tuple(rows[0]) != CSV_COLUMNS:
            raise ValidationError(f"unexpected header {rows[0]!r}")
        return [_read_row(row) for row in rows[1:]]
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# config files: flat key = value text with comma arrays
# ---------------------------------------------------------------------------

# Defaults of the fields that ExperimentConfig requires (methods default by kind).
_FILE_DEFAULTS = {"kind": "recovery", "trials": 1}
_GRID_KEYS = ("n_values", "a", "b")
_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} | set(_GRID_KEYS)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key = value sweep-config format.

    Keys: ExperimentConfig's fields (methods and cells as comma lists, a cell
    as n:T:rho), or the exponent grid n_values (comma list) + a + b in place
    of cells. Lines starting with # are comments.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()

    given = dict(_FILE_DEFAULTS)
    for f in fields(ExperimentConfig):
        if f.name in values:
            parse = f.metadata.get("from_text", lambda key, text: text)
            given[f.name] = parse(f.name, values[f.name])
    given.setdefault("methods", ("shuffled-test",) if given["kind"] == "detection"
                     else ("bias-adjusted-spectral",))
    grid = {key: values[key] for key in _GRID_KEYS if key in values}
    if "cells" in given and grid:
        raise ValidationError("config must use either 'cells' or the exponent grid, not both")
    if "cells" in given:
        return ExperimentConfig(**given)
    if len(grid) != len(_GRID_KEYS):
        raise ValidationError("config needs 'cells' or all of 'n_values', 'a', 'b'")
    try:
        n_values = [int(v) for v in _list_from_text("n_values", grid["n_values"])]
        a, b = float(grid["a"]), float(grid["b"])
    except ValueError as exc:
        raise ValidationError("config exponent grid: bad number") from exc
    return ExperimentConfig.from_exponents(n_values, a, b, **given)


def read_config(path: Union[str, Path]) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed reading config from {path}: {exc}") from exc
    return parse_config_text(text)

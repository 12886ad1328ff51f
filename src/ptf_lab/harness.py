"""Experiment runner: sweeps, per-trial records, CSV/JSON persistence.

``run_trial(config, cell, stream)`` is the one function that makes a trial:
it draws from ``distributions.trial_rng(master_seed, stream)``, runs one
learner on one fresh random instance and returns a ``Trial`` (CSV row,
instance and learner result).  sample_search gets a label-only oracle
(order 0 only); iterative and batch get a full one (orders 0..d-1).  A
sweep's stream is cell index * trials + trial index, so stream t of a
one-cell sweep is trial t.  ``backend`` names the draw mode,
``distributions.EXACT`` by default; the float64 expansion of uniform roots
serves only configs that name ``FLOAT``.  Both modes draw the same roots and
points from a stream, Dirichlet roots are always expanded exactly, and signs
are evaluated exactly in either mode.  ``dirichlet_alpha`` picks the root
law of every learner's instances: None for i.i.d. uniform roots, alpha > 0
for Dirichlet(alpha) gaps; the sidecar's ``model`` names it.  The row's
``correct`` says whether every label equals the ground truth that
``instances.true_labels`` reads off the instance's roots, which shares no
code with the oracle's sign evaluation.
Batch rows also carry the learner's ``iterations``, ``loop_rounds`` and
``final_round``, which other learners leave empty.  A trial that raises, in
generation, learning or the check, still yields its row, with ``correct``
false and ``case`` "Type: message", and its ``Trial`` has no instance or
result; a configuration error raises when the ``ExperimentConfig`` is
built, before any trial runs.
Aggregates per sweep cell go to a JSON sidecar that entropy comparison
consumes.

PTF_LAB_THREADS caps the process pool; unset, empty or 1 runs trials inline,
and a value that is not an integer raises before any trial runs.  The
pool and the witness constructions of ``adversarial`` are imported only when
a run or a report uses them, so importing the harness stays cheap.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import numbers
import operator
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import batch, iterative, sample_search
from .distributions import (
    DIRICHLET,
    EXACT,
    FLOAT,
    RootModel,
    dirichlet_multinomial_entropy,
    random_instance,
    trial_rng,
)
from .instances import Instance, true_labels
from .oracle import Oracle

ITERATIVE = "iterative"
BATCH = "batch"
SAMPLE_SEARCH = "sample_search"

CSV_COLUMNS = [
    "trial",
    "seed_stream",
    "d",
    "n",
    "alpha",
    "learner",
    "backend",
    "queries_total",
    "queries_order0",
    "queries_order1",
    "queries_order2",
    "queries_order3",
    "queries_higher_json",
    "rounds",
    "z",
    "case",
    "iterations",
    "loop_rounds",
    "final_round",
    "correct",
    "wall_ms",
]

_csv_cells = operator.itemgetter(*CSV_COLUMNS)  # a row's cells in column order


@dataclass(frozen=True)
class ExperimentConfig:
    learner: str
    d_values: tuple[int, ...]
    n_values: tuple[int, ...]
    trials: int
    master_seed: int
    backend: str = EXACT  # the float64 expansion serves only callers that name FLOAT
    alphas: tuple[float, ...] = ()  # batch learner only
    dirichlet_alpha: Optional[float] = None  # None: uniform roots; else Dirichlet(alpha) gaps
    random_leading: bool = False
    out: Optional[str] = None

    def __post_init__(self):
        if self.learner not in (ITERATIVE, BATCH, SAMPLE_SEARCH):
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.backend not in (EXACT, FLOAT):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not isinstance(self.master_seed, numbers.Integral) or self.master_seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.master_seed!r}")
        if not self.d_values or not self.n_values:
            raise ValueError("sweep lists must be non-empty")
        if min(self.n_values) < 1:
            raise ValueError("n must be at least 1")
        # raises on d or dirichlet_alpha out of range; run_trial reads these
        models = {d: RootModel(d, self.dirichlet_alpha) for d in self.d_values}
        object.__setattr__(self, "_root_models", models)
        if self.out is not None and Path(self.out).suffix == ".json":
            raise ValueError(f"out {self.out!r} ends in .json, the suffix of its JSON sidecar")
        if self.learner != BATCH and self.alphas:
            raise ValueError(f"alphas apply to the batch learner only, not {self.learner!r}")
        if self.learner == BATCH:
            if not self.alphas:
                raise ValueError("batch sweeps need at least one alpha")
            for cell in self.cells():  # raises on alpha or n out of range
                batch.BatchParams(d=cell["d"], n=cell["n"], alpha=cell["alpha"])

    def root_model(self, d: int) -> RootModel:
        """The distribution of a degree-d instance's roots, for a d of the sweep."""
        return self._root_models[d]

    def cells(self) -> list[dict]:
        out = []
        for d in self.d_values:
            for n in self.n_values:
                if self.learner == BATCH:
                    for a in self.alphas:
                        out.append({"d": d, "n": n, "alpha": a})
                else:
                    alpha = "" if self.dirichlet_alpha is None else self.dirichlet_alpha
                    out.append({"d": d, "n": n, "alpha": alpha})
        return out


@dataclass
class Trial:
    """A trial's CSV row, instance and learner result; the last two are None if it raised."""

    row: dict
    instance: Optional[Instance]
    result: object


def run_trial(config: ExperimentConfig, cell: dict, stream: int) -> Trial:
    """Make trial `stream` of the sweep: one learner on one fresh random instance."""
    rng = trial_rng(config.master_seed, stream)
    d, n = cell["d"], cell["n"]
    row = {
        "trial": stream % config.trials,
        "seed_stream": stream,
        "d": d,
        "n": n,
        "alpha": cell["alpha"],
        "learner": config.learner,
        "backend": config.backend,
        "z": "",
        "case": "",
        "iterations": "",
        "loop_rounds": "",
        "final_round": "",
    }
    oracle = instance = result = None
    start = None
    correct = False
    try:
        instance = random_instance(
            n,
            config.root_model(d),
            rng,
            backend=config.backend,
            random_leading=config.random_leading,
        )
        start = time.perf_counter()
        oracle = Oracle(instance.hidden, d, label_only=config.learner == SAMPLE_SEARCH)
        if config.learner == ITERATIVE:
            result = iterative.learn_all(instance, oracle)
        elif config.learner == BATCH:
            result = batch.learn_all(instance, oracle, cell["alpha"], rng)
            row["iterations"] = result.iterations
            row["loop_rounds"] = result.loop_rounds
            row["final_round"] = result.final_round
        else:
            result = sample_search.sample_and_search(instance, oracle, rng)
            row["z"] = result.z
            row["case"] = result.case
        wall_ms = (time.perf_counter() - start) * 1000.0
        correct = bool(np.array_equal(np.asarray(result.labels), true_labels(instance)))
    except Exception as exc:  # a failed trial is a row, not the end of the sweep
        wall_ms = 0.0 if start is None else (time.perf_counter() - start) * 1000.0
        row["case"] = f"{type(exc).__name__}: {exc}"
        instance = result = None

    per_order = list(oracle.per_order) if oracle is not None else []
    per_order += [0] * (4 - len(per_order))  # orders 0..3 have columns of their own
    higher = {str(o): c for o, c in enumerate(per_order) if o > 3 and c}
    row.update(
        {
            "queries_total": sum(per_order),
            "queries_order0": per_order[0],
            "queries_order1": per_order[1],
            "queries_order2": per_order[2],
            "queries_order3": per_order[3],
            "queries_higher_json": json.dumps(higher) if higher else "{}",
            "rounds": oracle.rounds if oracle is not None else 0,
            "correct": correct,
            "wall_ms": f"{wall_ms:.3f}",
        }
    )
    return Trial(row, instance, result)


def _row(task: tuple) -> dict:
    # only the row leaves the trial, so only rows cross the process pool
    return run_trial(*task).row


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict]
    cell_stats: list[dict]

    @property
    def all_correct(self) -> bool:
        return all(r["correct"] for r in self.rows)


def worker_count() -> int:
    """The process pool's size from PTF_LAB_THREADS; unset or empty runs inline."""
    env = os.environ.get("PTF_LAB_THREADS", "")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"PTF_LAB_THREADS must be an integer, not {env!r}") from None


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run all cells x trials; write CSV and JSON if an output path is set."""
    cells = config.cells()
    tasks = [
        (config, cell, ci * config.trials + tr)
        for ci, cell in enumerate(cells)
        for tr in range(config.trials)
    ]

    workers = worker_count()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_row, tasks, chunksize=8))
    else:
        rows = [_row(t) for t in tasks]

    cell_stats = []
    per_cell = config.trials
    for ci, cell in enumerate(cells):
        chunk = rows[ci * per_cell : (ci + 1) * per_cell]
        totals = np.array([r["queries_total"] for r in chunk], dtype=float)
        stats = {
            **{k: v for k, v in cell.items()},
            "learner": config.learner,
            "backend": config.backend,
            "model": config.root_model(cell["d"]).kind,
            "trials": len(chunk),
            "all_correct": all(r["correct"] for r in chunk),
            "mean_queries": float(totals.mean()),
            "stderr_queries": float(totals.std(ddof=1) / math.sqrt(len(totals)))
            if len(totals) > 1
            else 0.0,
            "max_queries": int(totals.max()),
            "mean_rounds": float(np.mean([r["rounds"] for r in chunk])),
        }
        if config.learner == SAMPLE_SEARCH:
            # a trial that raised has z = "" and no probe count to average
            zs = [r["z"] for r in chunk if r["z"] != ""]
            stats["mean_z"] = float(np.mean(zs)) if zs else None
            stats["case_counts"] = {
                c: sum(1 for r in chunk if r["case"] == c) for c in ("a", "b")
            }
        cell_stats.append(stats)

    result = ExperimentResult(config=config, rows=rows, cell_stats=cell_stats)
    if config.out:
        write_outputs(result, Path(config.out))
    return result


def write_outputs(result: ExperimentResult, out_csv: Path) -> None:
    """Write the rows as CSV to out_csv and the cell aggregates as JSON beside it.

    Each file is written over its old bytes and then cut at the new length,
    leaving the bytes a truncating write would: on ext4 (``auto_da_alloc``)
    closing a file that was truncated to zero and written again flushes it,
    which cost about 100 us a file, against 12-20 us written over.
    """
    if not out_csv.parent.is_dir():  # mkdir(exist_ok=True) raises and catches on every call
        out_csv.parent.mkdir(parents=True, exist_ok=True)
    rows = io.StringIO(newline="")
    writer = csv.writer(rows)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(_csv_cells, result.rows))  # every row holds every column
    _write_over(out_csv, rows.getvalue(), newline="")
    config = result.config  # its fields hold no mutable value, so no asdict copy
    fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    agg = {"config": fields, "cells": result.cell_stats}
    _write_over(out_csv.with_suffix(".json"), json.dumps(agg, indent=1))


def _write_over(path: Path, text: str, newline: Optional[str] = None) -> None:
    """Write text to path over its old bytes, then cut the file at the text's end."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as fh:
        fh.write(text)
        fh.truncate()


def verify_lower_bounds() -> list[dict]:
    """Build and exactly verify the fixed witness grid; one report entry each.

    Interval n = 20; missing derivative d in {3, 4, 5} x n in {2, 3, 4, 5};
    linear d in {2, 3, 4, 5}; multivariate n in {2, 10, 32}.  The report is
    pinned byte for byte by tests/fixtures/verify_lower_bounds.jsonl.
    """
    from . import adversarial

    report = []

    def entry(name, **kw):
        report.append({"construction": name, **kw, "ok": True})

    w = adversarial.interval_witness(20)
    adversarial.verify_witness(w)
    entry("interval", n=20, inferable=adversarial.count_restricted_inferences(w))
    for d in (3, 4, 5):
        for n in (2, 3, 4, 5):
            w = adversarial.missing_derivative_witness(d, n)
            adversarial.verify_witness(w)
            entry(
                "missing_derivative",
                d=d,
                n=n,
                inferable=adversarial.count_restricted_inferences(w),
            )
    for d in (2, 3, 4, 5):
        roots = [-(i + 2) for i in range(d)]
        w = adversarial.linear_lower_witness(d, roots)
        adversarial.verify_witness(w)
        entry(
            "linear",
            d=d,
            epsilon=w.meta["epsilon"],
            inferable=adversarial.count_restricted_inferences(w),
        )
    for n in (2, 10, 32):
        rep = adversarial.multivariate_witness(n)
        entry("multivariate", n=n, base=rep.base_choice, agreeing=rep.agreeing)
    return report


def compare_entropy(paths: Sequence[str | Path]) -> list[dict]:
    """Check mean query counts of average-case runs against entropy floors.

    A cell's ``floor`` is the entropy in bits of its gap counts,
    ``dirichlet_multinomial_entropy(n, d, alpha)`` with alpha = 1 for uniform
    roots, and ``ok`` says whether its mean query count clears the floor minus
    3 standard errors.  At alpha = 0.1, d = 8, n = 4096 (300 trials, seed 7)
    sample_search averaged 4,067 queries against a 49.5-bit floor.  Raises
    ValueError on a file that is not JSON or not shaped like a sidecar, or if
    no sample_search cell is read.
    """
    report = []
    for path in paths:
        try:
            agg = json.loads(Path(path).read_text())
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"{path} is not a JSON sidecar of `run`: {exc}") from None
        try:
            if agg["config"]["learner"] != SAMPLE_SEARCH:
                continue
            for cell in agg["cells"]:
                n, d = cell["n"], cell["d"]
                slack = 3 * cell["stderr_queries"]
                mean = cell["mean_queries"]
                alpha = cell["alpha"] if cell["model"] == DIRICHLET else 1.0
                floor = dirichlet_multinomial_entropy(n, d, alpha)
                rec = {
                    "file": str(path),
                    "d": d,
                    "n": n,
                    "model": cell["model"],
                    "alpha": cell["alpha"],
                    "mean_queries": mean,
                    "slack": slack,
                    "floor": floor,
                    "ok": mean >= floor - slack,
                }
                report.append(rec)
        except (KeyError, TypeError) as exc:  # JSON, but not a sidecar's keys or types
            raise ValueError(f"{path} is not a JSON sidecar of `run`: {exc!r}") from None
    if not report:  # a check that read no cell would pass having checked nothing
        raise ValueError(f"no sample_search cell in {', '.join(map(str, paths))}")
    return report


def print_bounds(d_values: Sequence[int], n_values: Sequence[int]) -> str:
    """Tabulate the deterministic iterative query bound."""
    lines = ["d,n,query_bound"]
    for d in d_values:
        for n in n_values:
            lines.append(f"{d},{n},{iterative.query_bound(d, n)}")
    return "\n".join(lines)

"""Experiment runner: sweeps, per-trial records, CSV/JSON persistence.

Every trial draws its own RNG stream from the master seed (stream index =
cell_index * trials + trial_index), runs one learner on one fresh random
instance, and yields one CSV row.  ``backend`` names the draw mode
(``distributions.EXACT`` or ``FLOAT``), which picks how the instance's roots
and points are drawn; signs are evaluated exactly in either mode.  ``model``
picks the root distribution of every learner's instances.  The row's
``correct`` says whether every label equals the ground truth that
``instances.true_labels`` reads off the instance's roots, which shares no
code with the oracle's sign evaluation.
Batch rows also carry the learner's ``iterations``, ``loop_rounds`` and
``final_round``, which other learners leave empty.  A trial that raises, in
generation, learning or the check, still yields its row, with ``correct``
false and ``case`` "Type: message"; a configuration error raises when the
``ExperimentConfig`` is built, before any trial runs.
Aggregates per sweep cell go to a JSON sidecar that entropy comparison
consumes.

PTF_LAB_THREADS caps the process pool; unset or 1 runs trials inline.  The
pool and the witness constructions of ``adversarial`` are imported only when
a run or a report uses them, so importing the harness stays cheap.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import batch, iterative, sample_search
from .distributions import (
    DIRICHLET,
    EXACT,
    FLOAT,
    UNIFORM,
    RootModel,
    Seed,
    dirichlet_multinomial_entropy,
    ComputationTooLarge,
    dirichlet_entropy_surrogate,
    entropy_lower_bound_uniform,
    random_instance,
)
from .instances import true_labels
from .oracle import Oracle, QueryLedger, QuerySet

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


@dataclass(frozen=True)
class ExperimentConfig:
    learner: str
    d_values: tuple[int, ...]
    n_values: tuple[int, ...]
    trials: int
    master_seed: int
    backend: str = FLOAT  # draw mode of roots and points
    alphas: tuple[float, ...] = ()  # batch learner only
    model: str = UNIFORM  # root model of every learner's instances
    dirichlet_alpha: float = 1.0
    random_leading: bool = False
    out: Optional[str] = None

    def __post_init__(self):
        if self.learner not in (ITERATIVE, BATCH, SAMPLE_SEARCH):
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.backend not in (EXACT, FLOAT):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.d_values or not self.n_values:
            raise ValueError("sweep lists must be non-empty")
        if min(self.n_values) < 1:
            raise ValueError("n must be at least 1")
        for d in self.d_values:  # raises on d or a model out of range
            self.root_model(d)
        if self.learner == BATCH:
            if not self.alphas:
                raise ValueError("batch sweeps need at least one alpha")
            for cell in self.cells():  # raises on alpha or n out of range
                batch.BatchParams(d=cell["d"], n=cell["n"], alpha=cell["alpha"])

    def root_model(self, d: int) -> RootModel:
        """The distribution of a degree-d instance's roots."""
        alpha = self.dirichlet_alpha if self.model == DIRICHLET else None
        return RootModel(self.model, d, alpha)

    def cells(self) -> list[dict]:
        out = []
        for d in self.d_values:
            for n in self.n_values:
                if self.learner == BATCH:
                    for a in self.alphas:
                        out.append({"d": d, "n": n, "alpha": a})
                else:
                    alpha = self.dirichlet_alpha if self.model == DIRICHLET else ""
                    out.append({"d": d, "n": n, "alpha": alpha})
        return out

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _run_single_trial(args: tuple) -> dict:
    config, cell, trial_idx, stream = args
    rng = Seed(config.master_seed, stream).rng()
    d, n = cell["d"], cell["n"]
    row = {
        "trial": trial_idx,
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
    oracle = None
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
        if config.learner == SAMPLE_SEARCH:
            oracle = Oracle(instance.hidden, QuerySet.label_only(d))
        else:
            oracle = Oracle(instance.hidden, QuerySet.full(d))
        if config.learner == ITERATIVE:
            result = iterative.learn_all(instance, oracle)
        elif config.learner == BATCH:
            params = batch.BatchParams(d=d, n=n, alpha=cell["alpha"])
            result = batch.learn_all(instance, oracle, params, rng)
            row["iterations"] = result.iterations
            row["loop_rounds"] = result.loop_rounds
            row["final_round"] = result.final_round
        else:
            result = sample_search.sample_and_search(instance, oracle, d, rng)
            row["z"] = result.z
            row["case"] = result.case
        wall_ms = (time.perf_counter() - start) * 1000.0
        correct = bool(np.array_equal(np.asarray(result.labels), true_labels(instance)))
    except Exception as exc:  # a failed trial is a row, not the end of the sweep
        wall_ms = 0.0 if start is None else (time.perf_counter() - start) * 1000.0
        row["case"] = f"{type(exc).__name__}: {exc}"

    ledger = oracle.ledger if oracle is not None else QueryLedger()
    per_order = ledger.per_order
    row.update(
        {
            "queries_total": ledger.total,
            "queries_order0": per_order.get(0, 0),
            "queries_order1": per_order.get(1, 0),
            "queries_order2": per_order.get(2, 0),
            "queries_order3": per_order.get(3, 0),
            "queries_higher_json": json.dumps(
                {str(o): c for o, c in sorted(per_order.items()) if o > 3}
            ),
            "rounds": ledger.rounds,
            "correct": correct,
            "wall_ms": f"{wall_ms:.3f}",
        }
    )
    return row


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[dict]
    cell_stats: list[dict]

    @property
    def all_correct(self) -> bool:
        return all(r["correct"] for r in self.rows)


def _worker_count() -> int:
    env = os.environ.get("PTF_LAB_THREADS")
    if env is None:
        return 1
    return max(1, int(env))


def run(config: ExperimentConfig) -> ExperimentResult:
    """Run all cells x trials; write CSV and JSON if an output path is set."""
    cells = config.cells()
    tasks = []
    for ci, cell in enumerate(cells):
        for tr in range(config.trials):
            stream = ci * config.trials + tr
            tasks.append((config, cell, tr, stream))

    workers = _worker_count()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_single_trial, tasks, chunksize=8))
    else:
        rows = [_run_single_trial(t) for t in tasks]

    cell_stats = []
    per_cell = config.trials
    for ci, cell in enumerate(cells):
        chunk = rows[ci * per_cell : (ci + 1) * per_cell]
        totals = np.array([r["queries_total"] for r in chunk], dtype=float)
        stats = {
            **{k: v for k, v in cell.items()},
            "learner": config.learner,
            "backend": config.backend,
            "model": config.model,
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
    """Write the rows as CSV to out_csv and the cell aggregates as JSON beside it."""
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([row.get(c, "") for c in CSV_COLUMNS] for row in result.rows)
    agg = {"config": result.config.to_json(), "cells": result.cell_stats}
    out_csv.with_suffix(".json").write_text(json.dumps(agg, indent=1))


def verify_lower_bounds(
    interval_n: int = 20,
    missing_d: Sequence[int] = (3, 4, 5),
    missing_n: Sequence[int] = (2, 3, 4, 5),
    linear_d: Sequence[int] = (2, 3, 4, 5),
    multivariate_n: Sequence[int] = (2, 10, 32),
) -> list[dict]:
    """Build and verify every requested witness; one report entry each."""
    from . import adversarial

    report = []

    def entry(name, **kw):
        report.append({"construction": name, **kw, "ok": True})

    w = adversarial.interval_witness(interval_n)
    adversarial.verify_witness(w)
    entry("interval", n=interval_n, inferable=adversarial.count_restricted_inferences(w))
    for d in missing_d:
        for n in missing_n:
            w = adversarial.missing_derivative_witness(d, n)
            adversarial.verify_witness(w)
            entry(
                "missing_derivative",
                d=d,
                n=n,
                inferable=adversarial.count_restricted_inferences(w),
            )
    for d in linear_d:
        roots = [-(i + 2) for i in range(d)]
        w = adversarial.linear_lower_witness(d, roots)
        adversarial.verify_witness(w)
        entry(
            "linear",
            d=d,
            epsilon=w.meta["epsilon"],
            inferable=adversarial.count_restricted_inferences(w),
        )
    for n in multivariate_n:
        rep = adversarial.multivariate_witness(n)
        if not rep.verified():
            raise adversarial.WitnessVerificationError(
                f"multivariate witness n={n}: majority off-diagonal check failed"
            )
        entry("multivariate", n=n, base=rep.base_choice, agreeing=rep.agreeing)
    return report


def compare_entropy(paths: Sequence[str | Path]) -> list[dict]:
    """Check mean query counts of average-case runs against entropy floors.

    Every cell must clear log2 C(n+d, d) minus 3 standard errors.  Dirichlet
    cells are also checked against the exact count-distribution entropy when
    the summation is feasible, and against the (d-1) log2 n surrogate
    (flagged) otherwise.  Each report entry's ``ok`` says whether the cell
    cleared every floor.
    """
    report = []
    for path in paths:
        agg = json.loads(Path(path).read_text())
        if agg["config"]["learner"] != SAMPLE_SEARCH:
            continue
        for cell in agg["cells"]:
            n, d = cell["n"], cell["d"]
            slack = 3 * cell["stderr_queries"]
            mean = cell["mean_queries"]
            bounds = {"uniform_floor": entropy_lower_bound_uniform(n, d)}
            if cell["model"] == DIRICHLET:
                alpha = cell["alpha"]
                try:
                    bounds["dirichlet_exact"] = dirichlet_multinomial_entropy(n, d, alpha)
                except ComputationTooLarge:
                    bounds["dirichlet_surrogate"] = dirichlet_entropy_surrogate(n, d)
            ok = all(mean >= b - slack for b in bounds.values())
            rec = {
                "file": str(path),
                "d": d,
                "n": n,
                "model": cell["model"],
                "alpha": cell["alpha"],
                "mean_queries": mean,
                "slack": slack,
                "bounds": bounds,
                "ok": ok,
            }
            report.append(rec)
    return report


def print_bounds(d_values: Sequence[int], n_values: Sequence[int]) -> str:
    """Tabulate the deterministic iterative query bound."""
    lines = ["d,n,query_bound"]
    for d in d_values:
        for n in n_values:
            lines.append(f"{d},{n},{iterative.query_bound(d, n)}")
    return "\n".join(lines)

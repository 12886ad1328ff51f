"""Sweep benchmark of ptf_lab: three learner workloads through harness.run.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process runs one workload inline, with
PTF_LAB_THREADS unset:

1. a checked pass over the workload's fixed trial set, made of chunks with
   one harness.run config per cell and chunk, each with its own master seed
   drawn from --seed: every trial's labels are compared with the exact signs
   of its hidden polynomial (checks.py) and its learner's properties are
   checked; the count metrics come from this pass;
2. timed rounds over the first chunks until --seconds is used up (at least
   MIN_ROUNDS), one chunk per pass; every pass must reproduce the checked
   rows exactly.  trials_per_s divides a round's trials by the sum over
   chunks of each chunk's median pass time.  Between passes, spread evenly
   over --seconds, SETUP_STARTS fresh interpreters each import
   ptf_lab.harness and build the workload's configs; setup_s is their median
   wall time.  With --trace 1 every pass is followed by a traced one
   (layers.py) and set-up is not measured; per-layer metrics are medians over
   rounds, and trace.overhead_ms is the traced minus the plain time per trial.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

if not (SRC / "ptf_lab" / "__init__.py").is_file():
    sys.exit(f"sweepbench: no ptf_lab sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(ROOT))  # for the statistics helpers of tests/util.py

import numpy as np  # noqa: E402

from ptf_lab import batch, harness, iterative, sample_search  # noqa: E402
from tests.util import dkw_radius, ks_statistic_discrete, z_law_cdf_grid  # noqa: E402

import checks  # noqa: E402
from layers import Tracer, patched  # noqa: E402

SETUP_STARTS = 15
MIN_ROUNDS = 3
KS_DELTA = 1e-3
ROW_KEY = (
    "seed_stream",
    "queries_total",
    "queries_order0",
    "queries_order1",
    "queries_order2",
    "queries_order3",
    "queries_higher_json",
    "rounds",
    "z",
    "case",
    "correct",
)


@dataclass(frozen=True)
class Workload:
    """Cells d x (n, alphas), run as chunks: one harness.run config per cell and chunk.

    Every chunk is checked; the first timed_chunks are timed again and again,
    one chunk per pass, so each chunk's time is the median of several passes.
    """

    learner: str
    backend: str
    d_values: tuple[int, ...]
    n: int
    alphas: tuple[float, ...]
    chunk_trials: int  # per cell
    checked_chunks: int
    timed_chunks: int

    def chunks(self, name: str, seed: int) -> list[list[harness.ExperimentConfig]]:
        return [
            [
                harness.ExperimentConfig(
                    learner=self.learner,
                    d_values=(d,),
                    n_values=(self.n,),
                    trials=self.chunk_trials,
                    master_seed=int(
                        np.random.SeedSequence([seed, chunk, cell]).generate_state(1)[0]
                    ),
                    backend=self.backend,
                    alphas=self.alphas,
                    out=str(OUT_DIR / f"{name}-d{d}.csv"),
                )
                for cell, d in enumerate(self.d_values)
            ]
            for chunk in range(self.checked_chunks)
        ]


WORKLOADS = {
    "exact-iterative": Workload(harness.ITERATIVE, "exact", (2, 6), 256, (), 10, 4, 4),
    "float-batch": Workload(harness.BATCH, "float", (3, 4), 2**15, (0.4,), 5, 6, 6),
    "float-sample-search": Workload(harness.SAMPLE_SEARCH, "float", (2, 6), 4096, (), 500, 14, 6),
}


def setup_start(configs) -> float:
    """Wall time of a fresh interpreter that imports the harness and builds the configs."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); from ptf_lab import harness; "
        + "; ".join(f"harness.{c!r}" for c in configs)
    )
    env = {k: v for k, v in os.environ.items() if k != "PTF_LAB_THREADS"}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def _checking(fn, verdicts: list):
    """Wrap a learner entry point: compare each result's labels with the exact reference."""

    def wrapper(instance, *args):
        try:
            result = fn(instance, *args)
        except Exception as exc:
            verdicts.append((f"learner raised {type(exc).__name__}: {exc}", None))
            raise
        reference = checks.exact_labels(instance.hidden.coeffs, instance.points)
        bad = checks.label_mismatches(result.labels, reference)
        problem = f"{bad} labels differ from the exact signs" if bad else None
        verdicts.append((problem, getattr(result, "search_queries", None)))
        return result

    return wrapper


def trial_problems(w: Workload, d: int, row: dict, verdict) -> list[str]:
    label_problem, search_queries = verdict
    problems = [label_problem] if label_problem else []
    if row["correct"] is not True:
        problems.append(f"harness reports it incorrect ({row['case']})")
    total, rounds = row["queries_total"], row["rounds"]
    if w.learner == harness.ITERATIVE:
        bound = checks.iterative_query_bound(d, w.n)
        if total > bound:
            problems.append(f"{total} queries exceed the bound {bound}")
        if rounds != total:
            problems.append(f"{rounds} rounds for {total} sequential queries")
    elif w.learner == harness.SAMPLE_SEARCH and search_queries is not None:
        bound = checks.search_query_bound(d, w.n)
        if search_queries != total - row["z"]:
            problems.append(f"z + search_queries != queries_total ({row['z']} + {search_queries} != {total})")
        if search_queries > bound:
            problems.append(f"{search_queries} search queries exceed d(ceil(log2 n) + 2) = {bound}")
    return problems


def checked_pass(w: Workload, chunks):
    """Run every chunk with checks, keeping no rows.

    Returns the row keys of the timed chunks, (queries_total, rounds) of
    every trial, the per-trial failures and the run-level problems.
    """
    verdicts: list = []
    learners = [
        (iterative, "learn_all"),
        (batch, "learn_all"),
        (sample_search, "sample_and_search"),
    ]
    expected, counts, failures = [], [], []
    z = {d: [] for d in w.d_values}
    with patched((mod, name, _checking(getattr(mod, name), verdicts)) for mod, name in learners):
        for k, configs in enumerate(chunks):
            chunk_keys = []
            for d, config in zip(w.d_values, configs):
                verdicts.clear()
                rows = harness.run(config).rows
                if len(verdicts) != len(rows):
                    raise RuntimeError(f"{len(verdicts)} learner calls for {len(rows)} rows")
                for row, verdict in zip(rows, verdicts):
                    problems = trial_problems(w, d, row, verdict)
                    if problems:
                        failures.append(f"d={d} stream {row['seed_stream']}: " + "; ".join(problems))
                    counts.append((row["queries_total"], row["rounds"]))
                if w.learner == harness.SAMPLE_SEARCH:
                    z[d].extend(row["z"] for row in rows)
                chunk_keys.append(row_keys(rows))
            if k < w.timed_chunks:
                expected.append(chunk_keys)
    run_problems = []
    if w.learner == harness.SAMPLE_SEARCH:
        radius = dkw_radius(w.chunk_trials * len(chunks), len(w.d_values), KS_DELTA)
        for d, zs in z.items():
            ks = ks_statistic_discrete(zs, z_law_cdf_grid(w.n, d))
            if ks > radius:
                run_problems.append(f"d={d}: KS distance of z to its exact law {ks:.4f} > {radius:.4f}")
    return expected, counts, failures, run_problems


def row_keys(rows) -> list[tuple]:
    return [tuple(r[k] for k in ROW_KEY) for r in rows]


def timed_pass(configs, expected, tracer=None):
    """Time one pass of harness.run over the configs; return (seconds, rows that differ)."""
    start = time.perf_counter()
    if tracer is None:
        results = [harness.run(c) for c in configs]
    else:
        with tracer.installed():
            results = [tracer.run(c) for c in configs]
    seconds = time.perf_counter() - start
    differ = sum(
        a != b for res, keys in zip(results, expected) for a, b in zip(row_keys(res.rows), keys)
    )
    return seconds, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    os.environ.pop("PTF_LAB_THREADS", None)
    w = WORKLOADS[args.workload]
    chunks = w.chunks(args.workload, args.seed)
    timed = chunks[: w.timed_chunks]
    setup_configs = [c for configs in timed for c in configs]

    expected, counts, failures, run_problems = checked_pass(w, chunks)
    attempted, failed = len(counts), len(failures)
    round_trials = w.timed_chunks * w.chunk_trials * len(w.d_values)

    plain = [[] for _ in timed]  # seconds of each pass, per chunk
    traced = [[] for _ in timed]
    layer_metrics = []  # one dict per traced round
    setup_times = []
    rounds = 0
    window_start = time.perf_counter()
    deadline = window_start + args.seconds
    while True:
        round_start = time.perf_counter()
        tracer = Tracer() if args.trace else None
        for k, configs in enumerate(timed):
            seconds, differ = timed_pass(configs, expected[k])
            plain[k].append(seconds)
            if tracer is not None:
                seconds, traced_differ = timed_pass(configs, expected[k], tracer)
                traced[k].append(seconds)
                differ += traced_differ
            failed += differ
            if differ:
                failures.append(f"{differ} rows of chunk {k} differ from the checked pass")
            due = window_start + len(setup_times) * args.seconds / SETUP_STARTS
            if not args.trace and len(setup_times) < SETUP_STARTS and time.perf_counter() >= due:
                setup_times.append(setup_start(setup_configs))
        if tracer is not None:
            layer_metrics.append(tracer.metrics(round_trials))
        attempted += round_trials * (1 + args.trace)
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - round_start) > deadline:
            break
    while not args.trace and len(setup_times) < SETUP_STARTS:  # those the last round left due
        setup_times.append(setup_start(setup_configs))

    for line in failures + run_problems:
        print(f"sweepbench: {line}", file=sys.stderr)
    # A round's typical time: the sum over chunks of each chunk's median pass.
    plain_s = sum(statistics.median(t) for t in plain)
    if args.trace:
        metrics = {
            name: (statistics.median(m[name][0] for m in layer_metrics), unit)
            for name, (_, unit) in layer_metrics[0].items()
        }
        traced_s = sum(statistics.median(t) for t in traced)
        metrics["trace.overhead_ms"] = ((traced_s - plain_s) / round_trials * 1e3, "ms")
    else:
        metrics = {
            "trials_per_s": (round_trials / plain_s, "1/s"),
            "queries_per_trial": (float(np.mean([q for q, _ in counts])), "count"),
            "rounds_per_trial": (float(np.mean([r for _, r in counts])), "count"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(
        f"sweepbench: {args.workload} seed {args.seed}: {len(counts)} checked trials, "
        f"{rounds} timed rounds of {w.timed_chunks} chunks ({round_trials} trials)"
    )
    print(
        json.dumps(
            {
                "correct": not failures and not run_problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

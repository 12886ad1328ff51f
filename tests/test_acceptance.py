"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to stream the lines.  Every
criterion runs at fixed seeds.  Criteria 1, 3, 6, 10 and 11 check each trial
or construction, so any failure is a fault.  For the statistical criteria,
delta is the chance that a correct program fails the check at fresh seeds:

- 7: delta = 1e-3 for its four KS checks of Z together, from the DKW
  inequality, which holds for every law.  Its ratio bounds read exact means
  and its search bound holds per trial.
- 8 (Dir(2) <= Dir(1)) and 9 (mean >= entropy floor): one-sided tests at
  3 standard errors, 12 in all, each with delta ~ 1.3e-3 under a normal
  approximation when the true means sit on the boundary.  The totals are
  heavy-tailed, so the approximation is loose; at the pinned seeds each
  comparison clears its boundary by at least 5.7 standard errors.
- 4 (mean rounds), 5 (coverage frequency >= 0.4) and 8 (alpha = 144
  budget) have fixed margins and no calibrated delta.  At the pinned seeds
  every trial of 4 meets its bound, all 500 trials of 5 are covered, and
  the budget of 8 is 800 standard errors above the mean.

Criterion 2 needs no statistics: each iterative trial's query total must lie
in the accounting sandwich its own level signs imply (``query_sandwich``),
and on the n = 2^8 cells those signs must equal the exact reference signs.

The fixtures are harness trials: rows of ``harness.run``, or ``run_trial`` where
a criterion reads level signs.  Each cell is a one-cell config, so its stream t
is ``trial_rng(seed, t)``.  Criteria 5, 6 and 11 are not sweeps.
"""

import math

import numpy as np
import pytest

from ptf_lab import batch, iterative
from ptf_lab.distributions import RootModel, random_instance, trial_rng
from ptf_lab.harness import BATCH, ITERATIVE, SAMPLE_SEARCH, ExperimentConfig, run, run_trial
from ptf_lab.harness import entropy_floors, verify_lower_bounds
from ptf_lab.oracle import Oracle

from util import (
    dkw_radius,
    infer_at,
    ks_statistic_discrete,
    pattern_block,
    query_sandwich,
    reference_signs,
    z_law_cdf_grid,
    z_law_mean,
)

DELTA = 1e-3  # false-alarm rate of criterion 7's KS checks, all cells together


def criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def rows(learner, d, n, trials, seed, backend="float", **kw) -> list[dict]:
    return run(ExperimentConfig(learner, (d,), (n,), trials, seed, backend=backend, **kw)).rows


def sample_search_rows(d, n, trials, seed, alpha=None, backend="float") -> list[dict]:
    """Uniform roots if alpha is None, else Dirichlet(alpha) root gaps."""
    return rows(SAMPLE_SEARCH, d, n, trials, seed, backend, dirichlet_alpha=alpha)


def iterative_rows(d, n, trials, seed, backend="float") -> list[dict]:
    """Each trial's row, segment counts, accounting sandwich and, at n = 2^8,
    whether its level signs are exact; the rest of the trial is dropped."""
    config = ExperimentConfig(ITERATIVE, (d,), (n,), trials, seed, backend=backend)
    out = []
    for t in range(trials):
        trial = run_trial(config, config.cells()[0], t)
        inst, signs = trial.instance, trial.result.level_signs
        exact = None
        if n == 2**8:
            xs, coeffs = inst.points.tolist(), inst.hidden.coeffs
            exact = all(reference_signs(coeffs, xs, o) == s.tolist() for o, s in signs.items())
        row = dict(trial.row, segment_counts=trial.result.segment_counts, signs_true=exact)
        out.append(dict(row, sandwich=query_sandwich(signs, n)))
    return out


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def iterative_c1():
    records = []
    seed = 11_000
    for d in range(1, 7):
        records += iterative_rows(d, 2**8, 84, seed, "exact")
        records += iterative_rows(d, 2**12, 84, seed + 1)
        seed += 2
    return records


@pytest.fixture(scope="module")
def batch_c1():
    records = []
    seed = 12_000
    for d in range(1, 7):
        records += rows(BATCH, d, 2**8, 84, seed, "exact", alphas=(0.5,))
        records += rows(BATCH, d, 2**12, 84, seed + 1, alphas=(0.5,))
        seed += 2
    return records


@pytest.fixture(scope="module")
def sample_search_c1():
    records = []
    seed = 13_000
    for d in range(1, 6):
        for alpha in (None, 1.0, 2.0):
            records += sample_search_rows(d, 2**8, 34, seed, alpha, "exact")
            records += sample_search_rows(d, 2**12, 34, seed + 1, alpha)
            seed += 2
    return records


@pytest.fixture(scope="module")
def iterative_d4():
    return {
        2**8: iterative_rows(4, 2**8, 300, 14_000),
        2**16: iterative_rows(4, 2**16, 300, 14_001),
    }


@pytest.fixture(scope="module")
def avg_cells():
    """Average-case sweep cells shared by criteria 7, 8, and 9."""
    n12 = 2**12
    alpha_conc = float(math.ceil(math.log2(n12) ** 2))
    return {
        ("uniform", None, 1, 2**10): sample_search_rows(1, 2**10, 2000, 15_000),
        ("uniform", None, 1, 2**16): sample_search_rows(1, 2**16, 2000, 15_001),
        ("uniform", None, 4, 2**10): sample_search_rows(4, 2**10, 2000, 15_002),
        ("uniform", None, 4, 2**16): sample_search_rows(4, 2**16, 2000, 15_003),
        ("dirichlet", 1.0, 4, n12): sample_search_rows(4, n12, 1000, 15_004, 1.0),
        ("dirichlet", 2.0, 4, n12): sample_search_rows(4, n12, 1000, 15_005, 2.0),
        ("dirichlet", alpha_conc, 4, n12): sample_search_rows(4, n12, 1000, 15_006, alpha_conc),
        ("dirichlet", 1.0, 2, 20): sample_search_rows(2, 20, 1500, 15_007, 1.0),
        ("dirichlet", 2.0, 3, 30): sample_search_rows(3, 30, 1500, 15_008, 2.0),
    }


def mean_se(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


# ---------------------------------------------------------------- criteria


def test_criterion_1_perfect_labeling(iterative_c1, batch_c1, sample_search_c1):
    groups = {
        "iterative": iterative_c1,
        "batch": batch_c1,
        "sample_search": sample_search_c1,
    }
    errors = {name: sum(not r["correct"] for r in recs) for name, recs in groups.items()}
    counts = {name: len(recs) for name, recs in groups.items()}
    ok = all(v == 0 for v in errors.values()) and all(v >= 1000 for v in counts.values())
    criterion(
        1,
        "perfect labeling",
        ok,
        f"label errors {errors} over trials {counts}",
    )


def test_criterion_2_iterative_deterministic_bound(iterative_c1, iterative_d4):
    records = list(iterative_c1) + iterative_d4[2**8] + iterative_d4[2**16]
    over = [r for r in records if r["queries_total"] > iterative.query_bound(r["d"], r["n"])]
    outside = [r for r in records if not r["sandwich"][0] <= r["queries_total"] <= r["sandwich"][1]]
    checked = [r for r in records if r["n"] == 2**8]
    wrong = [r for r in checked if not r["signs_true"]]
    criterion(
        2,
        "iterative query bound",
        not over and not outside and not wrong and len(checked) == 6 * 84 + 300,
        f"{len(over)} bound violations; {len(outside)} of {len(records)} totals outside "
        f"their accounting sandwich; {len(wrong)} of {len(checked)} n = 2^8 trials "
        "with level signs off the exact reference",
    )


def test_criterion_3_segment_bound(iterative_c1, iterative_d4):
    records = list(iterative_c1) + iterative_d4[2**8] + iterative_d4[2**16]
    violations = 0
    checked = 0
    for r in records:
        for level, count in r["segment_counts"].items():
            checked += 1
            if count > iterative.segment_bound(r["d"], level):
                violations += 1
    criterion(
        3,
        "segment count bound",
        violations == 0,
        f"{violations} violations over {checked} learner levels",
    )


def test_criterion_4_batch_rounds():
    details = []
    ok = True
    for i, alpha in enumerate((0.35, 0.5, 1.0)):
        trials = rows(BATCH, 2, 10**4, 200, 16_000 + i, alphas=(alpha,))
        assert all(r["correct"] for r in trials)
        mean = float(np.mean([r["rounds"] for r in trials]))
        bound = 1 + 2 / alpha + 1
        ok &= mean <= bound
        details.append(f"alpha={alpha}: mean {mean:.2f} <= {bound:.2f}")
    criterion(4, "batch round bound", ok, "; ".join(details))


def test_criterion_5_coverage_lemma():
    d, k = 2, 9
    m = 4 * k + 1
    threshold = (m - 2 * k) / m
    hits = 0
    trials = 500
    for t in range(trials):
        rng = trial_rng(17_000, t)
        inst = random_instance(500, RootModel(d), rng)
        sampled = np.unique(rng.integers(0, 500, size=m))
        pts = np.asarray(inst.points)
        patterns = pattern_block(inst.hidden, pts[sampled], d)
        rest = np.delete(np.arange(500), sampled)
        positions, _ = infer_at(sampled, patterns, rest)
        hits += len(positions) / len(rest) >= threshold
    freq = hits / trials
    criterion(
        5,
        "coverage lemma",
        freq >= 0.4,
        f"frequency of coverage >= {threshold:.4f} was {freq:.3f} over {trials} trials",
    )


def test_criterion_6_inference_dimension_witness():
    failures = 0
    for d in (2, 3):
        size = d * d + d + 3
        for t in range(200):
            rng = trial_rng(18_000 + d, t)
            inst = random_instance(size, RootModel(d), rng, backend="exact")
            patterns = pattern_block(inst.hidden, inst.points, d)
            idx = np.arange(size)
            recovered = 0
            for i in range(size):
                positions, _ = infer_at(
                    np.delete(idx, i), np.delete(patterns, i, axis=1), idx[i : i + 1]
                )
                if len(positions):
                    recovered += 1
                    break
            failures += recovered == 0
    criterion(
        6,
        "inference dimension witness",
        failures == 0,
        f"{failures} of 400 exact instances had no recoverable point",
    )


def test_criterion_7_average_case_scaling(avg_cells):
    # Z is heavy-tailed (Var Z ~ 4n at d = 1), so ratios of sample means are
    # noise.  Check each uniform cell's Z against its exact law, then apply
    # the ratio bounds to the law's exact means.
    uniform = {key: recs for key, recs in avg_cells.items() if key[0] == "uniform"}
    ks_over = []
    search_over = 0
    for (_, _, d, n), recs in uniform.items():
        ks = ks_statistic_discrete([r["z"] for r in recs], z_law_cdf_grid(n, d))
        radius = dkw_radius(len(recs), len(uniform), DELTA)
        if ks > radius:
            ks_over.append((d, n, round(ks, 4), round(radius, 4)))
        cap = d * (math.ceil(math.log2(n)) + 2)
        search_over += sum(r["queries_total"] - r["z"] > cap for r in recs)
    ratio1 = z_law_mean(2**16, 1) / z_law_mean(2**10, 1)
    ratio4 = z_law_mean(2**16, 4) / z_law_mean(2**10, 4)
    ok = not ks_over and ratio1 <= 2.2 and ratio4 <= 2.5 and not search_over
    criterion(
        7,
        "average-case scaling",
        ok,
        f"{len(ks_over)} of {len(uniform)} cells off the exact law of Z {ks_over or ''}; "
        f"exact E[Z] ratio d=1 {ratio1:.2f} <= 2.2, d=4 {ratio4:.2f} <= 2.5; "
        f"{search_over} trials over the search bound",
    )


def test_criterion_8_dirichlet_regimes(avg_cells):
    n12 = 2**12
    alpha_conc = float(math.ceil(math.log2(n12) ** 2))
    m1, s1 = mean_se([r["queries_total"] for r in avg_cells[("dirichlet", 1.0, 4, n12)]])
    m2, s2 = mean_se([r["queries_total"] for r in avg_cells[("dirichlet", 2.0, 4, n12)]])
    mc, _ = mean_se([r["queries_total"] for r in avg_cells[("dirichlet", alpha_conc, 4, n12)]])
    slack = 3 * math.hypot(s1, s2)
    budget = 3 * 4 * math.log2(n12)
    ok = (m2 <= m1 + slack) and (mc <= budget)
    criterion(
        8,
        "dirichlet regimes",
        ok,
        f"Dir(2) {m2:.1f} <= Dir(1) {m1:.1f} + {slack:.1f}; "
        f"alpha={alpha_conc:.0f} mean {mc:.1f} <= {budget:.0f}",
    )


def test_criterion_9_entropy_floor(avg_cells):
    # each cell against the entropy of its own count law (harness.entropy_floors)
    violations = []
    for (model, alpha, d, n), recs in avg_cells.items():
        mean, se = mean_se([r["queries_total"] for r in recs])
        violations += [
            (model, alpha, d, n, kind)
            for kind, f in entropy_floors(model, alpha, n, d).items()
            if mean < f - 3 * se
        ]
    criterion(
        9,
        "entropy floor",
        not violations,
        f"{len(violations)} floor violations over {len(avg_cells)} cells {violations or ''}",
    )


def test_criterion_10_lower_bound_fixtures():
    report = verify_lower_bounds()
    inferable = sum(entry.get("inferable", 0) for entry in report)
    ok = all(entry["ok"] for entry in report) and inferable == 0
    criterion(
        10,
        "lower-bound fixtures",
        ok,
        f"{len(report)} constructions verified; {inferable} restricted inferences",
    )


def test_criterion_11_cross_learner_sanity():
    mismatches = 0
    for t in range(50):
        rng = trial_rng(19_000, t)
        inst = random_instance(512, RootModel(3), rng)
        o1 = Oracle(inst.hidden, 3)
        res_iter = iterative.learn_all(inst, o1)
        o2 = Oracle(inst.hidden, 3)
        params = batch.BatchParams(d=3, n=512, alpha=0.5)
        res_batch = batch.learn_all(inst, o2, params, trial_rng(19_500, t))
        if not np.array_equal(res_iter.labels, res_batch.labels):
            mismatches += 1
    criterion(
        11,
        "cross-learner sanity",
        mismatches == 0,
        f"{mismatches} of 50 shared instances produced differing label vectors",
    )

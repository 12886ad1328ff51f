"""Golden grid: pinned per-trial query counts for a fixed set of sweep cells.

Each cell is one ``harness.run`` config.  For every trial the grid pins
``queries_total``, the per-order counts (orders 0..d-1), ``rounds`` and
``correct``.  A change that is meant to be a pure speed-up or refactor must
leave every entry as it is; a change that moves one must say why.

The grid covers the three learners on the exact backend, the smallest
cases each learner allows (d = 1, and n = 1 where the learner takes it),
a random leading sign, a Dirichlet root model, and one float cell per
learner.  The values were recorded before the integer sign kernel replaced
``Fraction`` Horner in exact sign evaluation.  The two batch cells with an
explicit alpha in their name, one of which runs two outer iterations per
trial, were recorded before the batch learner's bookkeeping moved from
``np.unique``/``np.delete`` and binary search to boolean masks and counts.
The two iterative cells at n = 256, the exact-iterative benchmark's shape,
were recorded before the exact draws became array passes and the iterative
learner lost its memo.  The batch cell at d = 6, n = 4096, whose batch size
m = 5760 exceeds n so that every trial is one exhaustive round, was recorded
before each round became one (orders x points) block request.
"""

import json

import pytest

from ptf_lab import harness
from ptf_lab.harness import ExperimentConfig, run
from ptf_lab.distributions import EXACT, FLOAT

IT, BA, SS = harness.ITERATIVE, harness.BATCH, harness.SAMPLE_SEARCH

# name -> ExperimentConfig keywords (one d and one n per cell)
CELLS = {
    "iterative-exact-d1-n1": dict(learner=IT, d=1, n=1, backend=EXACT, trials=4, seed=101),
    "iterative-exact-d1-n33": dict(learner=IT, d=1, n=33, backend=EXACT, trials=4, seed=102),
    "iterative-exact-d3-n64-lead": dict(
        learner=IT, d=3, n=64, backend=EXACT, trials=4, seed=103, random_leading=True
    ),
    "iterative-exact-d5-n40": dict(learner=IT, d=5, n=40, backend=EXACT, trials=4, seed=104),
    # the exact-iterative benchmark's shape
    "iterative-exact-d2-n256": dict(learner=IT, d=2, n=256, backend=EXACT, trials=4, seed=106),
    "iterative-exact-d6-n256": dict(learner=IT, d=6, n=256, backend=EXACT, trials=4, seed=105),
    "batch-exact-d1-n1024": dict(
        learner=BA, d=1, n=1024, backend=EXACT, trials=4, seed=201, alphas=(0.5,)
    ),
    "batch-exact-d2-n512-lead": dict(
        learner=BA, d=2, n=512, backend=EXACT, trials=4, seed=202, alphas=(0.5,),
        random_leading=True,
    ),
    "sample_search-exact-d1-n1": dict(learner=SS, d=1, n=1, backend=EXACT, trials=4, seed=301),
    "sample_search-exact-d3-n64-lead": dict(
        learner=SS, d=3, n=64, backend=EXACT, trials=4, seed=302, random_leading=True
    ),
    "sample_search-exact-dirichlet-d2-n32": dict(
        learner=SS, d=2, n=32, backend=EXACT, trials=4, seed=303, dirichlet_alpha=1.0,
    ),
    "iterative-float-d3-n256": dict(learner=IT, d=3, n=256, backend=FLOAT, trials=4, seed=401),
    "batch-float-d3-n4096": dict(
        learner=BA, d=3, n=4096, backend=FLOAT, trials=3, seed=402, alphas=(0.5,)
    ),
    "sample_search-float-d2-n512": dict(
        learner=SS, d=2, n=512, backend=FLOAT, trials=4, seed=403
    ),
    # two outer iterations per trial, so the update of the remaining set counts
    "batch-float-d2-n4096-a0.2": dict(
        learner=BA, d=2, n=4096, backend=FLOAT, trials=4, seed=404, alphas=(0.2,)
    ),
    # the float-batch benchmark's shape
    "batch-float-d4-n32768-a0.4": dict(
        learner=BA, d=4, n=32768, backend=FLOAT, trials=2, seed=405, alphas=(0.4,)
    ),
    # m >= n: no coverage loop, every point goes into the one exhaustive round
    "batch-float-d6-n4096-a0.5": dict(
        learner=BA, d=6, n=4096, backend=FLOAT, trials=3, seed=406, alphas=(0.5,)
    ),
}


def config_of(cell: dict) -> ExperimentConfig:
    kw = dict(cell)
    d, n, seed = kw.pop("d"), kw.pop("n"), kw.pop("seed")
    return ExperimentConfig(d_values=(d,), n_values=(n,), master_seed=seed, **kw)


def observe(cell: dict) -> list[tuple]:
    """(queries_total, per-order counts for orders 0..d-1, rounds, correct) per trial."""
    out = []
    for row in run(config_of(cell)).rows:
        higher = {int(o): c for o, c in json.loads(row["queries_higher_json"]).items()}
        per_order = tuple(
            row[f"queries_order{o}"] if o <= 3 else higher.get(o, 0) for o in range(row["d"])
        )
        assert sum(per_order) == row["queries_total"]
        out.append((row["queries_total"], per_order, row["rounds"], row["correct"]))
    return out


# (queries_total, per-order counts, rounds, correct) per trial, in trial order
EXPECTED = {
    'batch-exact-d1-n1024': [
        (292, (292,), 2, True),
        (285, (285,), 2, True),
        (278, (278,), 2, True),
        (279, (279,), 2, True),
    ],
    'batch-exact-d2-n512-lead': [
        (572, (286, 286), 2, True),
        (552, (276, 276), 2, True),
        (1116, (558, 558), 3, True),
        (604, (302, 302), 2, True),
    ],
    'batch-float-d2-n4096-a0.2': [
        (374, (187, 187), 3, True),
        (418, (209, 209), 3, True),
        (412, (206, 206), 3, True),
        (402, (201, 201), 3, True),
    ],
    'batch-float-d3-n4096': [
        (4650, (1550, 1550, 1550), 2, True),
        (4674, (1558, 1558, 1558), 2, True),
        (4644, (1548, 1548, 1548), 2, True),
    ],
    'batch-float-d4-n32768-a0.4': [
        (12344, (3086, 3086, 3086, 3086), 2, True),
        (12556, (3139, 3139, 3139, 3139), 2, True),
    ],
    'batch-float-d6-n4096-a0.5': [
        (24576, (4096, 4096, 4096, 4096, 4096, 4096), 1, True),
        (24576, (4096, 4096, 4096, 4096, 4096, 4096), 1, True),
        (24576, (4096, 4096, 4096, 4096, 4096, 4096), 1, True),
    ],
    'iterative-exact-d1-n1': [
        (1, (1,), 1, True),
        (1, (1,), 1, True),
        (1, (1,), 1, True),
        (1, (1,), 1, True),
    ],
    'iterative-exact-d1-n33': [
        (7, (7,), 7, True),
        (7, (7,), 7, True),
        (2, (2,), 2, True),
        (7, (7,), 7, True),
    ],
    'iterative-exact-d2-n256': [
        (25, (15, 10), 25, True),
        (29, (19, 10), 29, True),
        (28, (18, 10), 28, True),
        (27, (17, 10), 27, True),
    ],
    'iterative-exact-d6-n256': [
        (184, (52, 42, 37, 25, 18, 10), 184, True),
        (178, (54, 41, 33, 21, 19, 10), 178, True),
        (190, (52, 48, 36, 27, 17, 10), 190, True),
        (190, (53, 46, 37, 26, 18, 10), 190, True),
    ],
    'iterative-exact-d3-n64-lead': [
        (42, (20, 14, 8), 42, True),
        (39, (17, 14, 8), 39, True),
        (42, (20, 14, 8), 42, True),
        (42, (20, 14, 8), 42, True),
    ],
    'iterative-exact-d5-n40': [
        (75, (23, 20, 12, 12, 8), 75, True),
        (73, (19, 19, 15, 12, 8), 73, True),
        (82, (24, 23, 16, 12, 7), 82, True),
        (86, (26, 22, 19, 12, 7), 86, True),
    ],
    'iterative-float-d3-n256': [
        (55, (26, 19, 10), 55, True),
        (53, (25, 18, 10), 53, True),
        (48, (20, 18, 10), 48, True),
        (55, (27, 18, 10), 55, True),
    ],
    'sample_search-exact-d1-n1': [
        (1, (1,), 1, True),
        (1, (1,), 1, True),
        (1, (1,), 1, True),
        (1, (1,), 1, True),
    ],
    'sample_search-exact-d3-n64-lead': [
        (17, (17, 0, 0), 17, True),
        (18, (18, 0, 0), 18, True),
        (17, (17, 0, 0), 17, True),
        (46, (46, 0, 0), 46, True),
    ],
    'sample_search-exact-dirichlet-d2-n32': [
        (11, (11, 0), 11, True),
        (10, (10, 0), 10, True),
        (14, (14, 0), 14, True),
        (14, (14, 0), 14, True),
    ],
    'sample_search-float-d2-n512': [
        (22, (22, 0), 22, True),
        (32, (32, 0), 32, True),
        (20, (20, 0), 20, True),
        (20, (20, 0), 20, True),
    ],
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_cell(name):
    assert observe(CELLS[name]) == EXPECTED[name]

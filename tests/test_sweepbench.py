"""The sweep benchmark's hooks into the package: what it patches and what it checks."""

import sys
from pathlib import Path

import numpy as np
import pytest

from ptf_lab import batch, harness, iterative, sample_search
from ptf_lab.distributions import EXACT, FLOAT
from ptf_lab.instances import Instance, true_labels

from util import make_instance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "sweepbench"))
import checks  # noqa: E402
import layers  # noqa: E402


def test_every_traced_attribute_exists():
    for layer, owner, name, _ in layers.TARGETS:
        assert callable(getattr(owner, name, None)), layer


def test_harness_calls_every_hook_by_name(monkeypatch):
    # run.py and layers.Tracer patch these names, and run.py reads each
    # learner call's instance from its first positional argument
    learners = {
        harness.ITERATIVE: (iterative, "learn_all"),
        harness.BATCH: (batch, "learn_all"),
        harness.SAMPLE_SEARCH: (sample_search, "sample_and_search"),
    }
    hooks = [*learners.values(), (harness, "random_instance"), (harness, "true_labels")]
    firsts = {}  # hook -> the first positional argument of each call
    for owner, name in hooks:
        def counted(*args, _fn=getattr(owner, name), _hook=(owner, name), **kwargs):
            firsts[_hook].append(args[0] if args else None)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    for learner, hook in learners.items():
        firsts.update((h, []) for h in hooks)
        kw = {"alphas": (0.5,)} if learner == harness.BATCH else {}
        rows = harness.run(harness.ExperimentConfig(learner, (2,), (64,), 3, 5, **kw)).rows
        assert all(row["correct"] for row in rows)
        called = (hook, *hooks[3:])
        assert {h: len(v) for h, v in firsts.items()} == {h: 3 * (h in called) for h in hooks}
        assert all(isinstance(first, Instance) for first in firsts[hook])


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_exact_label_check_equals_true_labels(backend):
    inst = make_instance(512, 6, seed=77, backend=backend)
    reference = checks.exact_labels(inst.hidden.coeffs, inst.points)
    assert np.array_equal(reference, true_labels(inst))

"""Scaling and negation relations: every learner reads signs and indices only.

Multiplying the points and the roots by 2^k keeps every derivative's sign at
every point: q(x) = prod(x - 2^k r) = 2^(kd) p(x / 2^k), so q^(j)(2^k x) =
2^(k(d-j)) p^(j)(x).  Flipping the leading sign negates every derivative, so
it negates every sign except at a point where a derivative vanishes
(sign(0) = +1).  So on the same rng stream after generation, a learner must
spend the same queries per order and rounds on the scaled or negated
instance, and return the same labels, or their negation.  A scaled point
above 1 skips the float filter, which answers only points in [-1, 1], and
gets integer Horner; at k = 30 every point above 2^-30 does.
"""

import copy

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptf_lab import batch, iterative, sample_search
from ptf_lab.distributions import RootModel, random_instance, trial_rng
from ptf_lab.harness import BATCH, ITERATIVE, SAMPLE_SEARCH
from ptf_lab.instances import Instance, true_labels
from ptf_lab.oracle import Oracle
from ptf_lab.polynomial import eval_sign_block, from_roots

SCALES = (1, 7, 30)  # k in 2^k


def learn(learner: str, instance: Instance, rng) -> tuple:
    """One learner on one instance: its labels, per-order query counts and rounds."""
    d = instance.d
    oracle = Oracle(instance.hidden, d, label_only=learner == SAMPLE_SEARCH)
    if learner == ITERATIVE:
        result = iterative.learn_all(instance, oracle)
    elif learner == BATCH:
        result = batch.learn_all(instance, oracle, 0.5, rng)
    else:
        result = sample_search.sample_and_search(instance, oracle, rng)
    return np.asarray(result.labels), list(oracle.per_order), oracle.rounds


def rebuilt(instance: Instance, scale: int, leading: int) -> Instance:
    """The instance with points and roots times 2^scale and the given leading sign."""
    roots = [r * 2**scale for r in instance.roots]
    return Instance(
        points=instance.points * 2.0**scale,
        hidden=from_roots(roots, leading=leading),
        d=instance.d,
        roots=roots,
    )


@given(
    learner=st.sampled_from([ITERATIVE, BATCH, SAMPLE_SEARCH]),
    master=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    n=st.sampled_from([2, 7, 64, 1024]),
    alpha=st.one_of(st.none(), st.floats(0.05, 4)),
)
@example(learner=ITERATIVE, master=1, d=3, n=64, alpha=None)
@example(learner=BATCH, master=2, d=4, n=1024, alpha=0.2)
@example(learner=SAMPLE_SEARCH, master=3, d=2, n=1024, alpha=None)
@example(learner=SAMPLE_SEARCH, master=4, d=5, n=64, alpha=0.2)
@settings(max_examples=150, deadline=None)
def test_scaled_and_negated_instances_cost_the_same(learner, master, d, n, alpha):
    assume(learner != BATCH or n > 7)  # alpha = 0.5 needs n > e^2
    rng = trial_rng(master)
    inst = random_instance(n, RootModel(d, alpha), rng, random_leading=True)
    lead = inst.hidden.leading_sign
    labels, per_order, rounds = learn(learner, inst, copy.deepcopy(rng))
    assert np.array_equal(labels, true_labels(inst))

    for k in SCALES:
        got = learn(learner, rebuilt(inst, k, lead), copy.deepcopy(rng))
        assert np.array_equal(got[0], labels), k
        assert got[1:] == (per_order, rounds), k

    neg = rebuilt(inst, 0, -lead)
    orders = range(1 if learner == SAMPLE_SEARCH else d)
    polys = [p.hidden.derivative(o) for p in (inst, neg) for o in orders]
    signs = eval_sign_block(polys, inst.points)
    # both +1 at a point only where the derivative vanishes there
    assume(not np.any(signs[: len(orders)] == signs[len(orders) :]))
    got = learn(learner, neg, copy.deepcopy(rng))
    assert np.array_equal(got[0], -labels)
    assert got[1:] == (per_order, rounds)

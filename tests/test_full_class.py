"""Every learner on the full hypothesis class, not only the drawn law.

The harness draws real-rooted polynomials with all d roots in (0, 1), on
which every derivative's roots are real and interlace.  The learners promise
more: every PTF of degree at most d.  ``util.full_class_instances`` builds
such instances with complex roots, real roots on points or outside their
range, a leading coefficient of either sign, and degree below d; each
learner must label every point as ``true_labels`` does.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ptf_lab import batch, iterative, sample_search
from ptf_lab.batch import BatchParams
from ptf_lab.instances import true_labels

from util import full_class_instances, full_oracle, label_oracle, query_sandwich


def looping_alpha(d: int, n: int, t: float) -> float | None:
    """An alpha in (1/ln n, 1] whose batch size m = ceil(2k n^alpha) is below n,
    a fraction t of the way across that range; None if n is too small for one."""
    k = d * d + d + 3
    low, high = 1 / math.log(n), math.log((n - 1) / (2 * k)) / math.log(n)
    return low + t * (high - low) if high > low else None


@given(inst=full_class_instances(), seed=st.integers(0, 2**32 - 1), t=st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_every_learner_labels_the_full_class(inst, seed, t):
    d, n = inst.d, inst.n
    want = true_labels(inst)

    oracle = full_oracle(inst)
    result = iterative.learn_all(inst, oracle)
    assert np.array_equal(result.labels, want)
    least, most = query_sandwich(result.level_signs, n)
    assert least <= oracle.queries <= min(most, iterative.query_bound(d, n))

    rng = np.random.default_rng(seed)
    result = sample_search.sample_and_search(inst, label_oracle(inst), rng)
    assert np.array_equal(result.labels, want)

    alpha = looping_alpha(d, n, t)
    for a in (1.0,) if alpha is None else (1.0, alpha):
        result = batch.learn_all(inst, full_oracle(inst), a, rng)
        assert np.array_equal(result.labels, want), a
        # at alpha = 1 every point is asked in one final round; below it the loop runs
        assert (result.loop_rounds > 0) == (BatchParams(d, n, a).m < n), a

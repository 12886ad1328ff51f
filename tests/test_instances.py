"""Instance validation and ground truth read off the roots."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptf_lab.instances import Instance, true_labels
from ptf_lab.polynomial import Polynomial, from_roots

F = Fraction

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=16)


def times_x2_plus_1(p: Polynomial) -> Polynomial:
    """p(x) * (x^2 + 1): two more degrees and no more real roots."""
    c = list(p.coeffs) + [0, 0]
    return Polynomial([c[i] + (c[i - 2] if i >= 2 else 0) for i in range(len(c))])


@given(
    roots=st.lists(fractions, max_size=5, unique=True),
    others=st.lists(fractions, max_size=12),
    on_roots=st.lists(st.integers(min_value=0, max_value=4), max_size=3),
    leading=st.sampled_from([-1, 1]),
    no_real_factor=st.booleans(),
    slack=st.integers(min_value=0, max_value=2),
)
@example(roots=[F(1, 2)], others=[], on_roots=[0], leading=-1, no_real_factor=False, slack=0)
@example(roots=[F(1, 2)], others=[F(1, 4)], on_roots=[], leading=1, no_real_factor=False, slack=0)
@settings(max_examples=300, deadline=None)
def test_true_labels_equal_exact_signs(roots, others, on_roots, leading, no_real_factor, slack):
    # points on roots (sign 0 counts as +1), either leading sign, hidden
    # degree below d, and roots that are not all of hidden's roots
    roots = sorted(roots)
    points = set(others)
    if roots:
        points.update(roots[i % len(roots)] for i in on_roots)
    if not points:
        points.add(F(0))
    hidden = from_roots(roots, leading=leading)
    if no_real_factor:
        hidden = times_x2_plus_1(hidden)
    inst = Instance(
        points=tuple(sorted(points)),
        hidden=hidden,
        d=max(hidden.degree, 1) + slack,
        roots=tuple(roots),
    )
    assert np.array_equal(true_labels(inst), hidden.eval_sign_many(inst.points))


def test_float_points_on_and_between_roots():
    inst = Instance(
        points=np.array([0.1, 0.25, 0.5, 0.75, 0.9]),
        hidden=from_roots([0.25, 0.75], leading=-1),
        d=3,
        roots=(0.25, 0.75),
    )
    assert true_labels(inst).tolist() == [-1, 1, 1, 1, -1]
    assert inst.roots == (0.25, 0.75) and all(type(r) is float for r in inst.roots)


class TestValidation:
    quadratic = Polynomial([2, -3, 1])  # x^2 - 3x + 2 = (x - 1)(x - 2)

    def instance(self, hidden, roots, points=(0, 3)):
        return Instance(points=points, hidden=hidden, d=2, roots=roots)

    def test_accepts_real_and_missing_roots(self):
        assert self.instance(self.quadratic, (1, 2)).roots == (1, 2)
        assert self.instance(Polynomial([1, 0, 1]), ()).roots == ()
        assert self.instance(Polynomial([5]), ()).roots == ()

    @pytest.mark.parametrize("roots", [(2, 1), (1, 1)])
    def test_rejects_unsorted_or_repeated_roots(self, roots):
        with pytest.raises(ValueError, match="strictly increasing"):
            self.instance(self.quadratic, roots)

    @pytest.mark.parametrize(
        "hidden,roots",
        [
            (Polynomial([2, -3, 1]), (0, 1, 2)),  # more roots than the degree
            (Polynomial([2, -3, 1]), (1,)),  # odd count, even degree
            (Polynomial([1, 0, 1]), (0,)),
            (Polynomial([-1, 1]), ()),  # even count, odd degree
            (Polynomial([5]), (1,)),
            (Polynomial([]), (1,)),
        ],
    )
    def test_rejects_impossible_root_counts(self, hidden, roots):
        with pytest.raises(ValueError, match="cannot change sign"):
            self.instance(hidden, roots)

    def test_rejects_unsorted_points(self):
        with pytest.raises(ValueError, match="points"):
            self.instance(self.quadratic, (1, 2), points=(F(1, 2), F(1, 3)))
        with pytest.raises(ValueError, match="points"):
            self.instance(self.quadratic, (1, 2), points=np.array([0.5, 0.5]))

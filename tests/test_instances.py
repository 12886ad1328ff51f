"""Instance validation and ground truth read off the roots."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptf_lab.distributions import DIRICHLET, EXACT, FLOAT, UNIFORM, RootModel, Seed, random_instance
from ptf_lab.instances import Instance, true_labels
from ptf_lab.polynomial import Polynomial, eval_sign_block, from_roots

F = Fraction

fractions = st.integers(min_value=-64, max_value=64).map(lambda v: F(v, 16))  # float64 holds them


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


# Dirichlet roots are exact in both draw modes, uniform roots only in the
# exact one.  Float uniform draws are left out: float from_roots rounds their
# coefficients, so the hidden polynomial need not change sign exactly at the
# listed roots until every hidden polynomial is expanded exactly.
drawn_models = st.one_of(
    st.tuples(st.just(DIRICHLET), st.sampled_from([EXACT, FLOAT])),
    st.tuples(st.just(UNIFORM), st.just(EXACT)),
)


@given(
    master=st.integers(0, 2**32 - 1),
    stream=st.integers(0, 2**16),
    n=st.sampled_from([1, 2, 64, 4096]),
    d=st.integers(1, 12),
    alpha=st.floats(0.05, 4),
    kind_mode=drawn_models,
    random_leading=st.booleans(),
)
@example(  # tightly clustered Dirichlet roots, drawn in the float mode
    master=99, stream=6, n=4096, d=8, alpha=0.1, kind_mode=(DIRICHLET, FLOAT), random_leading=False
)
@settings(max_examples=100, deadline=None)
def test_drawn_instances_label_as_their_hidden_polynomial(
    master, stream, n, d, alpha, kind_mode, random_leading
):
    kind, mode = kind_mode
    model = RootModel(kind, d, alpha if kind == DIRICHLET else None)
    rng = Seed(master, stream).rng()
    inst = random_instance(n, model, rng, backend=mode, random_leading=random_leading)
    assert np.array_equal(true_labels(inst), eval_sign_block((inst.hidden,), inst.points)[0])


def test_float_points_on_and_between_roots():
    inst = Instance(
        points=np.array([0.1, 0.25, 0.5, 0.75, 0.9]),
        hidden=from_roots([0.25, 0.75], leading=-1),
        d=3,
        roots=(0.25, 0.75),
    )
    assert true_labels(inst).tolist() == [-1, 1, 1, 1, -1]
    assert inst.roots == (0.25, 0.75) and all(type(r) is float for r in inst.roots)


@pytest.mark.parametrize("root", [2**53 + 1, F(2**53) + F(1, 3), F(2**53 + 2) - F(1, 3)])
def test_roots_are_compared_with_points_exactly(root):
    # each root lies strictly between the two points, but its nearest float
    # is one of them
    points = np.array([2.0**53, 2.0**53 + 2])
    inst = Instance(points=points, hidden=from_roots([root]), d=1, roots=(root,))
    assert true_labels(inst).tolist() == [-1, 1]


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
            self.instance(self.quadratic, (1, 2), points=(F(1, 2), F(1, 4)))
        with pytest.raises(ValueError, match="points"):
            self.instance(self.quadratic, (1, 2), points=np.array([0.5, 0.5]))

    def test_points_become_float64_only_if_exact(self):
        inst = self.instance(self.quadratic, (1, 2), points=(F(1, 2), 3, np.int64(4)))
        assert inst.points.dtype == np.float64 and inst.points.tolist() == [0.5, 3.0, 4.0]
        with pytest.raises(ValueError, match="rounded"):
            self.instance(self.quadratic, (1, 2), points=(F(1, 3), 3))
        with pytest.raises(ValueError, match="rounded"):
            self.instance(self.quadratic, (1, 2), points=(0, 2**53 + 1))
        with pytest.raises(ValueError, match="finite"):
            self.instance(self.quadratic, (1, 2), points=np.array([0.5, np.inf]))

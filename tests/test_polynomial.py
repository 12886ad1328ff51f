"""Polynomial arithmetic, sign evaluation, and pattern tests."""

import copy
import math
import pickle
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptf_lab.distributions import RootModel, Seed, random_instance
from ptf_lab.polynomial import (
    DuplicateRoots,
    Polynomial,
    eval_sign_block,
    from_roots,
    sign_of,
)

from util import exact_value, fraction_from_roots, reference_sign, reference_signs

F = Fraction


class TestFromRoots:
    def test_two_integer_roots(self):
        assert from_roots([1, 2]).coeffs == (2, -3, 1)

    def test_single_root_zero(self):
        assert from_roots([0]).coeffs == (0, 1)

    def test_exact_quarter_roots(self):
        # expansion of (x - 1/4)(x - 1/2)(x - 3/4), frozen from exact arithmetic
        p = from_roots([F(1, 4), F(1, 2), F(3, 4)])
        assert p.coeffs == (F(-3, 32), F(11, 16), F(-3, 2), 1)
        assert [float(c) for c in p.coeffs] == [-0.09375, 0.6875, -1.5, 1.0]

    def test_duplicate_roots_rejected(self):
        with pytest.raises(DuplicateRoots):
            from_roots([1, 1, 2])

    def test_negative_leading(self):
        assert from_roots([1], leading=-1).coeffs == (1, -1)

    def test_float_matches_exact_expansion(self):
        exact = from_roots([F(1, 4), F(1, 2), F(3, 4)])
        fl = from_roots([0.25, 0.5, 0.75])
        assert all(type(c) is float for c in fl.coeffs)  # float roots keep float coefficients
        assert fl.coeffs == tuple(float(c) for c in exact.coeffs)


class TestEvalSign:
    def test_interior_point(self):
        assert Polynomial([-1, 0, 1]).eval_sign(0) == -1

    def test_root_gets_positive_sign(self):
        # sign(0) = +1, no tolerance band
        assert Polynomial([-1, 0, 1]).eval_sign(1) == 1

    def test_large_integer_evaluation_is_exact(self):
        # x^3 - 648 x^2 + 7776 x at 215 is exactly -18,343,585
        h = Polynomial([0, 7776, -648, 1])
        assert exact_value(h.coeffs, 215) == -18343585
        assert h.eval_sign(215) == -1

    def test_exact_kernel_edge_cases(self):
        assert Polynomial([]).eval_sign(F(1, 3)) == 1  # zero polynomial
        assert Polynomial([F(-1, 3)]).eval_sign(5) == -1  # constant
        p = from_roots([F(1, 4), F(1, 2), F(3, 4)], leading=-1)
        assert [p.eval_sign(x) for x in (0, F(3, 8), F(5, 8), 1)] == [1, -1, 1, -1]
        assert [p.eval_sign(r) for r in (F(1, 4), F(1, 2), F(3, 4))] == [1, 1, 1]
        # derivative: -(3x^2 - 3x + 11/16) has roots 1/2 +- 1/sqrt(48)
        dp = p.derivative()
        assert [dp.eval_sign(x) for x in (0, F(1, 2), 1)] == [-1, 1, -1]

    def test_exact_kernel_does_not_wrap_numpy_integers(self):
        # numpy integers are Rational; int64 products would wrap silently
        p = Polynomial([np.int64(-(2**40)), F(1, 2**30)])  # scaled constant -2^70
        assert p.eval_sign(0) == -1
        q = Polynomial([np.int64(-1)] + [np.int64(0)] * 5 + [np.int64(1)])  # x^6 - 1
        assert q.eval_sign(np.int64(2**11)) == 1

    def test_sign_of_zero(self):
        assert sign_of(0) == 1
        assert sign_of(0.0) == 1
        assert sign_of(-0.0) == 1


class TestDerivative:
    def test_power_rule(self):
        assert Polynomial([0, 0, 0, 1]).derivative(2).coeffs == (0, 6)

    def test_first_derivative(self):
        assert Polynomial([2, -3, 1]).derivative().coeffs == (-3, 2)

    def test_order_beyond_degree_is_zero(self):
        p = Polynomial([2, -3, 1]).derivative(5)
        assert p.coeffs == ()
        assert p.degree == -1

    def test_order_zero_is_identity(self):
        p = Polynomial([2, -3, 1])
        assert p.derivative(0) is p


def construction_paths():
    """One polynomial per way the package builds one, by name."""
    return {
        "int coefficients": Polynomial([3, -4, 0, 1]),
        "float from_roots": from_roots([0.25, -0.5, 0.75], leading=-1),
        "exact from_roots": from_roots([F(1, 3), F(-1, 2), F(3, 4)]),
        "derivative": from_roots([F(1, 3), F(-1, 2), F(3, 4)]).derivative(),
    }


class TestOneClass:
    @pytest.mark.parametrize("path", sorted(construction_paths()))
    def test_every_path_makes_a_polynomial(self, path):
        p = construction_paths()[path]
        assert type(p) is Polynomial
        assert type(p.derivative(2)) is Polynomial
        assert type(p.derivative(9)) is Polynomial  # the zero polynomial

    def test_derivative_coeffs_are_made_once(self):
        dp = from_roots([F(1, 3), F(-1, 2)]).derivative()
        first = dp.coeffs
        assert first == (F(1, 6), 2)  # (x - 1/3)(x + 1/2) = x^2 + x/6 - 1/6
        assert dp.coeffs is first
        assert all(type(c) is Fraction for c in first)

    @pytest.mark.parametrize("path", sorted(construction_paths()))
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle_round_trip(self, path, clone):
        p = construction_paths()[path]
        q = clone(p)
        assert type(q) is Polynomial and q == p
        assert [(type(c), c) for c in q.coeffs] == [(type(c), c) for c in p.coeffs]
        assert (q.degree, q._floats, q._bound) == (p.degree, p._floats, p._bound)
        xs = [-1.0, -0.5, F(1, 3), 0.0, 0.75, 2, F(-7, 3)]
        assert [q.eval_sign(x) for x in xs] == [p.eval_sign(x) for x in xs]

    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_random_instance_pickles(self, backend):
        inst = random_instance(
            50, RootModel("uniform", 4), Seed(19, 3).rng(), backend=backend, random_leading=True
        )
        back = pickle.loads(pickle.dumps(inst))
        assert back.hidden == inst.hidden and back.roots == inst.roots and back.d == inst.d
        assert back.points.tolist() == inst.points.tolist()
        assert back.hidden.eval_sign_many(back.points).tolist() == (
            inst.hidden.eval_sign_many(inst.points).tolist()
        )


class TestSignPattern:
    # a point's sign pattern is its column of an (orders x points) block
    @pytest.mark.parametrize(
        "x,expected",
        [(1, (1, 1, 1)), (-1, (1, -1, 1)), (0, (1, 1, 1))],
    )
    def test_square(self, x, expected):
        p = Polynomial([0, 0, 1])
        block = eval_sign_block([p.derivative(o) for o in range(3)], [x])
        assert block.dtype == np.int8
        assert tuple(block[:, 0]) == expected

    def test_length_and_constant_tail(self):
        p = from_roots([F(1, 3), F(2, 3)], leading=-1)
        xs = [F(1, 2), 0, 2.5, -0.75]
        block = eval_sign_block([p.derivative(o) for o in range(5)], xs)
        assert block.shape == (5, 4)
        assert block[:3, 0].tolist() == [1, 1, -1]  # p(1/2) > 0, p'(1/2) = 0, p'' < 0
        # orders above the degree evaluate the zero polynomial: sign +1
        assert block[3:].tolist() == [[1] * 4] * 2


class TestBackends:
    def test_block_keeps_the_points_as_given(self):
        # np.asarray turns each of these lists into a float64 array that
        # rounds its big int; the block reads the int as given
        big = 2**63 + 1
        assert Polynomial([-big, 1]).eval_sign_many([-1, big + 1]).tolist() == [-1, 1]
        big = 2**53 + 1
        assert Polynomial([-big, 1]).eval_sign_many([0.5, big]).tolist() == [-1, 1]

    def test_vectorized_matches_scalar(self):
        p = from_roots([0.2, 0.5, 0.9])
        xs = np.concatenate([np.linspace(0, 1, 17), [0.2, 0.5, 0.9]])
        many = p.eval_sign_many(xs)
        assert many.dtype == np.int8
        assert many.tolist() == [p.eval_sign(float(x)) for x in xs]


coeff_fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)
point_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=64)
# roots as the exact draw makes them: v / 2^53 for integers v in (0, 2^53)
dyadic_roots = st.integers(1, 2**53 - 1).map(lambda v: F(v, 2**53))


@given(
    a=st.lists(coeff_fractions, min_size=1, max_size=6),
    b=st.lists(coeff_fractions, min_size=1, max_size=6),
    order=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_derivative_is_linear(a, b, order):
    def added(u, v):
        return [x + y for x, y in zip_longest(u, v, fillvalue=0)]

    pa, pb = Polynomial(a), Polynomial(b)
    lhs = Polynomial(added(a, b)).derivative(order)
    rhs = Polynomial(added(pa.derivative(order).coeffs, pb.derivative(order).coeffs))
    assert lhs == rhs


@given(
    coeffs=st.lists(st.one_of(coeff_fractions, st.integers(-9, 9)), max_size=7),
    order=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_integer_derivative_matches_fraction_rule(coeffs, order):
    # the derivative is built on integers; callers see the Fraction rule's result
    ref = list(coeffs)
    for _ in range(order):
        ref = [i * ref[i] for i in range(1, len(ref))]
    expected = Polynomial(ref)
    got = Polynomial(coeffs).derivative(order)
    assert got.degree == expected.degree
    assert got.coeffs == expected.coeffs
    assert got == expected and hash(got) == hash(expected)
    assert got.derivative() == expected.derivative()


@given(
    roots=st.lists(
        st.one_of(point_fractions, st.integers(-9, 9), dyadic_roots), max_size=7, unique=True
    ),
    leading=st.sampled_from([-1, 1]),
    xs=st.lists(point_fractions, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_integer_from_roots_matches_fraction_expansion(roots, leading, xs):
    got = from_roots(roots, leading=leading)
    expected = fraction_from_roots(roots, leading=leading)
    assert got.degree == expected.degree == len(roots)
    assert got.coeffs == expected.coeffs
    assert got == expected and hash(got) == hash(expected)
    assert got.leading_sign == expected.leading_sign == (-1 if expected.coeffs[-1] < 0 else 1)
    floats = np.array(xs, dtype=float) / 8  # inside [-1, 1], where the float filter runs
    for order in range(len(roots) + 1):
        dg, de = got.derivative(order), expected.derivative(order)
        assert dg == de
        for x in xs + floats.tolist():
            assert dg.eval_sign(x) == de.eval_sign(x)
        assert np.array_equal(dg.eval_sign_many(floats), de.eval_sign_many(floats))


@given(
    roots=st.lists(point_fractions, min_size=1, max_size=5, unique=True),
    leading=st.sampled_from([-1, 1]),
)
@settings(max_examples=60, deadline=None)
def test_sign_flips_exactly_once_across_each_root(roots, leading):
    roots = sorted(roots)
    p = from_roots(roots, leading=leading)
    probes = [roots[0] - 1]
    probes += [(a + b) / 2 for a, b in zip(roots, roots[1:])]
    probes += [roots[-1] + 1]
    signs = [p.eval_sign(x) for x in probes]
    # rightmost gap carries the leading sign; one flip per crossed root
    assert signs[-1] == leading
    for i, s in enumerate(signs):
        assert s == leading * (-1) ** (len(roots) - i)


@given(
    coeffs=st.lists(coeff_fractions, min_size=1, max_size=7),
    x=point_fractions,
)
@settings(max_examples=150, deadline=None)
def test_exact_and_float_signs_agree_away_from_zero(coeffs, x):
    exact = Polynomial(coeffs)
    fl = Polynomial([float(c) for c in coeffs])
    xf = float(x)
    acc = 0.0
    max_mag = 1.0
    for c in reversed(fl.coeffs):
        acc = acc * xf + c
        max_mag = max(max_mag, abs(acc))
    exact_val = exact_value(exact.coeffs, x)
    assume(abs(exact_val) > max_mag * 2.0**-40)
    assert fl.eval_sign(xf) == exact.eval_sign(x)


# sample points are dyadic with denominator 2^53, as the exact backend draws them
dyadic_points = st.integers(min_value=-(2**54), max_value=2**54).map(lambda v: F(v, 2**53))
exact_points = st.one_of(point_fractions, dyadic_points, st.integers(min_value=-9, max_value=9))


@given(
    coeffs=st.lists(coeff_fractions, min_size=0, max_size=7),
    x=exact_points,
    order=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=300, deadline=None)
def test_exact_sign_kernel_matches_fraction_value(coeffs, x, order):
    # the integer kernel against the sign of the Fraction value, for either
    # leading sign; the empty list is the zero polynomial (sign +1)
    for s in (1, -1):
        p = Polynomial([s * c for c in coeffs]).derivative(order)
        assert p.eval_sign(x) == sign_of(exact_value(p.coeffs, x))


@given(
    roots=st.lists(st.one_of(point_fractions, dyadic_points), min_size=1, max_size=6, unique=True),
    scale=coeff_fractions.filter(lambda c: c != 0),
    pick=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=150, deadline=None)
def test_exact_sign_kernel_at_roots(roots, scale, pick):
    p = from_roots(roots)
    p = Polynomial([scale * c for c in p.coeffs])
    root = roots[pick % len(roots)]
    assert exact_value(p.coeffs, root) == 0
    assert p.eval_sign(root) == 1  # sign(0) = +1
    for x in (root - F(1, 2**60), root + F(1, 2**60)):
        assert p.eval_sign(x) == sign_of(exact_value(p.coeffs, x))


@given(
    coeffs=st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=6),
    x=st.floats(min_value=-3, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_finite_difference_matches_formal_derivative(coeffs, x):
    p = Polynomial([float(c) for c in coeffs])
    deriv = exact_value(p.derivative().coeffs, x)
    assume(abs(deriv) > 1.0)
    h = 1e-6 * max(1.0, abs(x))
    numeric = (exact_value(p.coeffs, x + h) - exact_value(p.coeffs, x - h)) / (2 * h)
    assert math.isclose(numeric, deriv, rel_tol=1e-5)


# the certified kernel against the Fraction reference of tests/util.py
nonzero_scales = st.one_of(
    coeff_fractions.filter(lambda c: c != 0),
    st.floats(min_value=-1e6, max_value=1e6).filter(lambda c: c != 0),
    st.sampled_from([5e-324, -3e-320, 2.0**-1000, 1e300]),  # subnormal and huge coefficients
)
float_points = st.one_of(
    st.floats(min_value=-4, max_value=4),  # |x| > 1 included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 1.0, -1.0]),  # subnormal points
)
other_points = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9).map(np.int64),
    point_fractions,
)


@given(
    roots=st.lists(
        st.integers(min_value=-(2**20), max_value=2**20).map(lambda v: F(v, 2**19)),
        max_size=6,
        unique=True,
    ),
    scale=nonzero_scales,
    floats=st.lists(float_points, max_size=6),
    others=st.lists(other_points, max_size=4),
    order=st.integers(min_value=0, max_value=3),
)
@example(roots=[], scale=1, floats=[0.5], others=[2], order=1)  # the zero polynomial
@example(roots=[F(1, 2), F(3, 4)], scale=5e-324, floats=[5e-324, 0.625], others=[], order=0)
@example(  # |x| > 1, where sum |c_i| |x|^i is far above the bound's sum |c_i|
    roots=[F(v, 2**8) for v in (878322, 878323, 878328, 878329, 878330, 878333, 878334, 878346)],
    scale=1,
    floats=[float.fromhex("0x1.acde3fffe5322p+11")],
    others=[],
    order=0,
)
@settings(max_examples=300, deadline=None)
def test_eval_sign_equals_reference_sign(roots, scale, floats, others, order):
    # roots are dyadic, so their floats are exact points on the roots; the
    # neighbours one ulp either side are the hardest points for the filter
    coeffs = [scale * c for c in from_roots(roots).coeffs]  # floats when scale is one
    p = Polynomial(coeffs).derivative(order)
    on_roots = [float(r) for r in roots]
    near = [np.nextafter(r, side) for r in on_roots for side in (-np.inf, np.inf)]
    xs = on_roots + [float(x) for x in near] + floats
    want = [reference_sign(coeffs, x, order) for x in xs]
    assert [p.eval_sign(x) for x in xs] == want
    assert p.eval_sign_many(np.array(xs, dtype=np.float64)).tolist() == want
    mixed = xs + others
    want += [reference_sign(coeffs, x, order) for x in others]
    assert reference_signs(coeffs, mixed, order) == want
    assert [p.eval_sign(x) for x in others] == want[len(xs):]
    assert p.eval_sign_many(mixed).tolist() == want


def test_clustered_float_draw_signs_are_exact():
    # Dirichlet(0.1) roots cluster, so the float draw's polynomial (the
    # exact expansion of its Fraction roots) and its derivatives come close
    # to 0 at many points; plain float Horner gets some of these signs wrong
    d = 8
    inst = random_instance(4096, RootModel("dirichlet", d, 0.1), Seed(99, 6).rng())
    coeffs, xs = inst.hidden.coeffs, inst.points.tolist()
    for order in range(d):
        want = [reference_sign(coeffs, x, order) for x in xs]
        q = inst.hidden.derivative(order)
        assert q.eval_sign_many(inst.points).tolist() == want, order
        assert [q.eval_sign(x) for x in xs] == want, order


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_and_points_raise(bad):
    with pytest.raises((ValueError, OverflowError)):
        Polynomial([0.5, bad])
    with pytest.raises((ValueError, OverflowError)):
        from_roots([0.5, bad])
    p = Polynomial([0.5, -1.0, 1.0])
    for q in (p, p.derivative(), Polynomial([])):
        for x in (bad, np.float64(bad), np.float32(bad)):
            with pytest.raises((ValueError, OverflowError)):
                q.eval_sign(x)
        with pytest.raises((ValueError, OverflowError)):
            q.eval_sign_many(np.array([0.25, bad]))
        with pytest.raises((ValueError, OverflowError)):
            q.eval_sign_many([F(1, 4), bad])


def float_horner(coeffs, x: float) -> float:
    """Plain float64 Horner on the rounded coefficients, as the filter runs it."""
    acc = 0.0
    for c in reversed([float(c) for c in coeffs]):
        acc = acc * x + c
    return acc


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.nextafter(1.0, 2), -math.nextafter(1.0, 2)]
FILTER_ROOTS = [0.1, 0.3, 0.7, -0.45]  # floats, so exact points on the roots


@pytest.mark.parametrize("leading", [1, -1])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_eval_sign_on_every_input_type(leading, order):
    coeffs = from_roots([F(r) for r in FILTER_ROOTS], leading=leading).coeffs
    p = Polynomial(coeffs).derivative(order)
    floats = list(EDGE_FLOATS)
    for r in FILTER_ROOTS + [0.5, -0.9]:
        floats += [r, math.nextafter(r, -2), math.nextafter(r, 2)]
    points = floats + [np.float64(x) for x in floats] + [np.float32(x) for x in floats]
    points += [0, 1, -1, 2, np.int64(-3), F(1, 3), F(7, 10), F(-9, 20), F(3, 2)]
    for x in points:
        assert p.eval_sign(x) == reference_sign(coeffs, x, order), (type(x), x)
    if order == 0:
        # on a root the float Horner value of the rounded coefficients is a
        # rounding error of either sign, inside the bound; a filter that read
        # its sign there would answer -1 for some root, where the truth is +1
        assert any(float_horner(coeffs, r) < 0 for r in FILTER_ROOTS)

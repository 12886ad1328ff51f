"""Polynomial arithmetic, sign evaluation, and pattern tests."""

import json
import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptf_lab.polynomial import (
    EXACT,
    FLOAT,
    BackendMismatch,
    DuplicateRoots,
    Polynomial,
    from_roots,
    sign_of,
    sign_pattern,
)

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
        assert fl.backend == FLOAT
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
        assert h.eval(215) == -18343585
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


class TestSignPattern:
    @pytest.mark.parametrize(
        "x,expected",
        [(1, (1, 1, 1)), (-1, (1, -1, 1)), (0, (1, 1, 1))],
    )
    def test_square(self, x, expected):
        assert sign_pattern(Polynomial([0, 0, 1]), x, 2) == expected

    def test_degree_exceeds_bound(self):
        with pytest.raises(ValueError):
            sign_pattern(Polynomial([0, 0, 1]), 0, 1)

    def test_length_and_constant_tail(self):
        p = from_roots([F(1, 3), F(2, 3)], leading=-1)
        pat = sign_pattern(p, F(1, 2), 4)
        assert len(pat) == 5
        # orders above the degree evaluate the zero polynomial: sign +1
        assert pat[3] == pat[4] == 1


class TestBackends:
    def test_exact_rejects_float_point(self):
        with pytest.raises(BackendMismatch):
            Polynomial([1, 1]).eval(0.5)
        with pytest.raises(BackendMismatch):
            Polynomial([F(1, 3), 1]).eval_sign(0.5)
        with pytest.raises(BackendMismatch):
            Polynomial([]).eval_sign(0.5)
        with pytest.raises(BackendMismatch):
            Polynomial([F(1, 3), 1, 1]).derivative().eval_sign(0.5)

    def test_exact_rejects_float_coeff(self):
        with pytest.raises(BackendMismatch):
            Polynomial([0.5, 1], backend=EXACT)

    def test_vectorized_matches_scalar(self):
        p = from_roots([0.2, 0.5, 0.9])
        xs = np.concatenate([np.linspace(0, 1, 17), [0.2, 0.5, 0.9]])
        many = p.eval_sign_many(xs)
        assert many.dtype == np.int8
        assert many.tolist() == [p.eval_sign(float(x)) for x in xs]

    def test_json_round_trip_exact(self):
        p = from_roots([F(1, 4), F(1, 2)])
        q = Polynomial.from_json(json.loads(json.dumps(p.to_json())))
        assert q == p
        assert q.to_json()["coeffs"][0] == "1/8"

    def test_json_round_trip_float(self):
        p = from_roots([0.25, 0.5])
        assert Polynomial.from_json(json.loads(json.dumps(p.to_json()))) == p


coeff_fractions = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)
point_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=64)


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
    expected = Polynomial(ref, backend=EXACT)
    got = Polynomial(coeffs, backend=EXACT).derivative(order)
    assert got.degree == expected.degree
    assert got.coeffs == expected.coeffs
    assert got == expected and hash(got) == hash(expected)
    assert got.to_json() == expected.to_json()
    assert got.derivative() == expected.derivative()


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
    fl = Polynomial([float(c) for c in coeffs], backend=FLOAT)
    xf = float(x)
    acc = 0.0
    max_mag = 1.0
    for c in reversed(fl.coeffs):
        acc = acc * xf + c
        max_mag = max(max_mag, abs(acc))
    exact_val = exact.eval(x)
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
        assert p.eval_sign(x) == sign_of(p.eval(x))


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
    assert p.eval(root) == 0
    assert p.eval_sign(root) == 1  # sign(0) = +1
    for x in (root - F(1, 2**60), root + F(1, 2**60)):
        assert p.eval_sign(x) == sign_of(p.eval(x))


@given(
    coeffs=st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=6),
    x=st.floats(min_value=-3, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_finite_difference_matches_formal_derivative(coeffs, x):
    p = Polynomial([float(c) for c in coeffs], backend=FLOAT)
    deriv = p.derivative().eval(x)
    assume(abs(deriv) > 1.0)
    h = 1e-6 * max(1.0, abs(x))
    numeric = (p.eval(x + h) - p.eval(x - h)) / (2 * h)
    assert math.isclose(numeric, deriv, rel_tol=1e-5)

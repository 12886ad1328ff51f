"""Witness construction and exact verification tests."""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import pytest

from ptf_lab.adversarial import (
    MultivariateReport,
    SizeLimit,
    ToleranceBreach,
    Witness,
    WitnessVerificationError,
    count_restricted_inferences,
    interval_witness,
    linear_lower_witness,
    linear_witness_at,
    missing_derivative_witness,
    multivariate_witness,
    verify_witness,
)
from ptf_lab.polynomial import Polynomial, from_roots

from util import exact_value, witness_from_json

F = Fraction
FIXTURE_DIR = Path(__file__).parent / "fixtures"


class TestIntervalWitness:
    def test_alternative_roots(self):
        w = interval_witness(3)
        # the alternative flipping point 2 is (x - 2.25)(x - 1.75)
        flip, alt = w.alternatives[1]
        assert flip == 1 and w.points[1] == 2
        assert alt.coeffs == (F(63, 16), -4, 1)
        assert alt.eval_sign(2) == -1
        assert alt.eval_sign(1) == alt.eval_sign(3) == 1

    def test_base_all_positive(self):
        w = interval_witness(5)
        assert all(w.base.eval_sign(x) == 1 for x in w.points)

    def test_verifies(self):
        verify_witness(interval_witness(20))

    def test_verifies_with_second_derivative_too(self):
        # both x^2 and the dipped quadratics have constant positive curvature
        w = interval_witness(10)
        w2 = dataclasses.replace(w, query_orders=frozenset({0, 2}))
        verify_witness(w2)

    def test_no_restricted_inference(self):
        assert count_restricted_inferences(interval_witness(20)) == 0

    def test_broken_witness_caught(self):
        w = interval_witness(3)
        bad = dataclasses.replace(w, query_orders=frozenset({0, 1}))
        with pytest.raises(WitnessVerificationError):
            verify_witness(bad)  # first derivatives disagree left of the dip


class TestMissingDerivativeWitness:
    def test_point_recursion(self):
        w = missing_derivative_witness(3, 3)
        assert w.points == (6, 215, 9938374)

    def test_frozen_negative_value(self):
        w = missing_derivative_witness(3, 2)
        _, h2 = w.alternatives[0]
        assert h2.coeffs == (0, 7776, -648, 1)
        assert exact_value(h2.coeffs, 215) == -18343585
        assert h2.eval_sign(215) == -1

    def test_query_orders_skip_d_minus_1(self):
        w = missing_derivative_witness(4, 2)
        assert sorted(w.query_orders) == [0, 1, 2, 4]

    def test_all_agreement_signs_positive(self):
        # every alternative is positive at every other point on all declared orders
        w = missing_derivative_witness(3, 3)
        for flip, alt in w.alternatives:
            for j, x in enumerate(w.points):
                if j == flip:
                    continue
                for order in sorted(w.query_orders):
                    assert alt.derivative(order).eval_sign(x) == 1

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("n", [2, 4])
    def test_verifies(self, d, n):
        verify_witness(missing_derivative_witness(d, n))

    def test_no_restricted_inference(self):
        assert count_restricted_inferences(missing_derivative_witness(3, 4)) == 0

    def test_bit_budget(self):
        with pytest.raises(SizeLimit):
            missing_derivative_witness(3, 6, bit_budget=100)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            missing_derivative_witness(2, 3)
        with pytest.raises(ValueError):
            missing_derivative_witness(3, 7)


class TestLinearWitness:
    def test_small_case(self):
        w = linear_lower_witness(2, [-2, -1])
        verify_witness(w)
        assert len(w.points) == 2
        assert count_restricted_inferences(w) == 0

    def test_epsilon_one_sixth_also_verifies(self):
        roots = [F(-2), F(-1)]
        verify_witness(linear_witness_at(2, roots, F(1, 6)))

    def test_flip_by_construction(self):
        # disagreement at s_i never needs a smaller epsilon: the replaced
        # factor straddles the point by construction
        w = linear_lower_witness(3, [-5, -3, -2])
        for flip, alt in w.alternatives:
            x = w.points[flip]
            assert alt.eval_sign(x) != w.base.eval_sign(x)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_grid_verifies(self, d):
        roots = [-(i + 2) for i in range(d)]
        w = linear_lower_witness(d, roots)
        verify_witness(w)
        assert count_restricted_inferences(w) == 0
        assert "epsilon" in w.meta

    def test_input_validation(self):
        with pytest.raises(ValueError):
            linear_lower_witness(2, [-1, -1])
        with pytest.raises(ValueError):
            linear_lower_witness(2, [-1, 1])
        with pytest.raises(ValueError):
            linear_lower_witness(1, [-1])


class TestCountRestrictedInferences:
    # witnesses without alternatives, so that only the base's patterns count
    @staticmethod
    def bare(base, orders):
        return Witness(
            points=(1, 2, 3, 4, 5), base=base, alternatives=(), query_orders=frozenset(orders), d=2
        )

    def test_equal_patterns_infer_every_interior_point(self):
        # x^2 has pattern (+, +) at 1..5: each of 2, 3, 4 is sandwiched
        assert count_restricted_inferences(self.bare(Polynomial([0, 0, 1]), {0, 1})) == 3

    def test_sign_change_blocks_its_neighbours(self):
        # x - 5/2 has patterns (-, +) at 1, 2 and (+, +) at 3, 4, 5: only 4
        base = from_roots([F(5, 2)])
        assert count_restricted_inferences(self.bare(base, {0, 1})) == 1

    def test_missing_order_infers_nothing(self):
        assert count_restricted_inferences(self.bare(Polynomial([0, 0, 1]), {0})) == 0


class TestWitnessSerialization:
    def test_round_trip(self):
        # a checked-in fixture reads back as the witness its constructor builds
        for name, w in (
            ("interval_n20", interval_witness(20)),
            ("missing_derivative_d3_n4", missing_derivative_witness(3, 4)),
            ("linear_d3", linear_lower_witness(3, [-4, -3, -2])),
        ):
            again = witness_from_json((FIXTURE_DIR / f"{name}.json").read_text())
            assert again.points == w.points
            assert again.base == w.base
            assert again.alternatives == w.alternatives
            assert again.query_orders == w.query_orders
            verify_witness(again)


class TestMultivariate:
    def test_reference_constants(self):
        rep = multivariate_witness(10)
        assert rep.c1 == pytest.approx(1 / math.tan(math.pi / 22))
        assert rep.c1 == pytest.approx(6.9551, abs=2e-4)
        assert rep.c2 == pytest.approx(56.330, abs=2e-3)

    def test_alternative_positive_only_at_own_point(self):
        # verified internally; also check one alternative by hand
        rep = multivariate_witness(10)
        assert rep.verified()
        assert rep.agreeing == 10  # all off-diagonals share a sign here

    @pytest.mark.parametrize("n", [2, 10, 32])
    def test_grid(self, n):
        rep = multivariate_witness(n)
        assert isinstance(rep, MultivariateReport)
        assert rep.verified()
        assert rep.min_margin > 1e-9

    def test_tolerance_breach(self):
        with pytest.raises(ToleranceBreach):
            multivariate_witness(10, tol=1.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            multivariate_witness(1)
        with pytest.raises(ValueError):
            multivariate_witness(65)

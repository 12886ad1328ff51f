"""Witness construction and exact verification tests."""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import pytest

from ptf_lab import adversarial
from ptf_lab.adversarial import (
    MultivariateReport,
    SizeLimit,
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


class TestVerifyWitness:
    # base x^2 at 1, 2, 3: every label and slope is positive
    @staticmethod
    def square(alternatives, orders=(0, 1)):
        return Witness(
            points=(1, 2, 3),
            base=Polynomial([0, 0, 1]),
            alternatives=alternatives,
            query_orders=frozenset(orders),
            d=2,
        )

    def test_flipped_point_checks_only_the_label(self):
        # (x - 3/4)(x - 3/2) is negative only at 1, where its slope is too
        verify_witness(self.square(((0, from_roots([F(3, 4), F(3, 2)])),)))

    def test_alternative_that_does_not_flip(self):
        w = self.square(((0, from_roots([F(1, 2), F(3, 2)])), (1, Polynomial([0, 0, 1]))))
        with pytest.raises(
            WitnessVerificationError, match="^alternative 1 fails to flip its point's label$"
        ):
            verify_witness(w)

    def test_disagreement_at_a_higher_order(self):
        # -(x - 1/2)(x - 11/4) flips 3 and keeps 1 and 2 positive, but its
        # slope is negative at 2
        w = self.square(((2, from_roots([F(1, 2), F(11, 4)], leading=-1)),))
        with pytest.raises(
            WitnessVerificationError, match="^alternative 2 disagrees with base at point 1, order 1$"
        ):
            verify_witness(w)

    def test_first_failure_in_point_order(self):
        # (x - 3/2)(x - 5/2) has a negative slope at 1, a negative label at 2
        # and a positive label at 3: point 0's slope is reported first
        alt = from_roots([F(3, 2), F(5, 2)])
        with pytest.raises(WitnessVerificationError, match="at point 0, order 1$"):
            verify_witness(self.square(((2, alt),)))
        with pytest.raises(WitnessVerificationError, match="^alternative 0 fails to flip"):
            verify_witness(self.square(((0, alt),)))

    def test_no_label_order_checks_no_flip(self):
        # the base's own second derivative agrees everywhere, flip or not
        verify_witness(self.square(((0, Polynomial([0, 0, 1])),), orders=(2,)))


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
        # 600! has about 4,700 bits; its fifth cube-minus-one passes 2^20
        with pytest.raises(SizeLimit):
            missing_derivative_witness(600, 6)

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
        assert rep.c1 == F(1 / math.tan(math.pi / 22)).limit_denominator(10**6)
        assert rep.c2 == rep.c1**2 + rep.c1 + 1
        assert float(rep.c1) == pytest.approx(6.9551, abs=2e-4)
        assert float(rep.c2) == pytest.approx(56.330, abs=2e-3)

    def test_alternative_positive_only_at_own_point(self):
        # verified internally; also check one alternative by hand
        rep = multivariate_witness(10)
        assert rep.agreeing * 2 >= rep.n
        assert rep.agreeing == 10  # all off-diagonals share a sign here

    @pytest.mark.parametrize("n", [2, 3, 10, 32, 64])
    def test_grid(self, n):
        rep = multivariate_witness(n)
        assert isinstance(rep, MultivariateReport)
        assert all(isinstance(v, F) for v in (rep.c1, rep.c2, rep.epsilon))
        assert rep.agreeing * 2 >= rep.n

    def test_majority_off_diagonal_is_checked(self, monkeypatch):
        # no zeroed off-diagonal agrees with either base
        rotated = adversarial._rotated_quadratic

        def zero_off_diagonal(theta, c1, c2):
            xx, _, yy = rotated(theta, c1, c2)
            return xx, F(0), yy

        monkeypatch.setattr(adversarial, "_rotated_quadratic", zero_off_diagonal)
        with pytest.raises(WitnessVerificationError, match="majority off-diagonal check failed"):
            multivariate_witness(10)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            multivariate_witness(1)
        with pytest.raises(ValueError):
            multivariate_witness(65)

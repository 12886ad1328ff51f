"""Exact-arithmetic non-inferability witnesses and their verifiers.

A witness is a point set, a base polynomial, and one alternative polynomial
per flippable point.  The alternative agrees with the base at every other
point on every declared query order but disagrees on the flipped point's
label, so no learner restricted to those query orders can ever pin that
label down from the rest.  ``verify_witness`` checks this on sign blocks
(query orders x points, from ``polynomial.eval_sign_block``): the base's
block once, then one block per alternative.  Every witness is verified in
exact rational/integer arithmetic, the two-variable construction included:
its points and rotations are rational points of the unit circle, and its
constructor raises unless at least half the alternatives' off-diagonals
share the chosen base's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .batch import infer_labels
from .polynomial import Polynomial, eval_sign_block, from_roots

BIT_BUDGET = 2**20
MAX_HALVINGS = 256


class SizeLimit(ValueError):
    """Intermediate integers exceeded the configured bit budget."""


class EpsilonSearchFailed(RuntimeError):
    """No verifying epsilon found within the halving budget."""


class WitnessVerificationError(AssertionError):
    """A witness failed its exact agreement / disagreement checks."""


@dataclass(frozen=True)
class Witness:
    """Point set with per-point alternatives certifying non-inferability.

    ``alternatives`` maps a point (by index into ``points``) to the
    polynomial that flips exactly that point's label while agreeing with
    ``base`` everywhere else on every order in ``query_orders``.
    """

    points: tuple
    base: Polynomial
    alternatives: tuple[tuple[int, Polynomial], ...]
    query_orders: frozenset[int]
    d: int
    meta: dict = field(default_factory=dict)


def verify_witness(w: Witness) -> None:
    """Exact check of every agreement and disagreement claim; raises on failure.

    The base's (orders x points) sign block is built once and compared with
    one block per alternative.  The first failure in point order, then
    order, is the one reported.
    """
    orders = sorted(w.query_orders)
    base = eval_sign_block([w.base.derivative(o) for o in orders], w.points)
    for flip_idx, alt in w.alternatives:
        same = eval_sign_block([alt.derivative(o) for o in orders], w.points) == base
        bad = ~same.T  # (points, orders): any disagreement fails ...
        bad[flip_idx] = False  # ... but at the flipped point only the label
        if 0 in w.query_orders:  # is claimed, and it must differ (row 0)
            bad[flip_idx, 0] = same[0, flip_idx]
        if bad.any():
            j, k = np.argwhere(bad)[0].tolist()
            if j == flip_idx:
                raise WitnessVerificationError(
                    f"alternative {flip_idx} fails to flip its point's label"
                )
            raise WitnessVerificationError(
                f"alternative {flip_idx} disagrees with base at point {j}, order {orders[k]}"
            )


def count_restricted_inferences(w: Witness) -> int:
    """Withheld points the restricted sandwich rule can label from the rest.

    The rule is only sound when both sandwich endpoints expose the signs of
    every order 0..d-1, so witnesses whose query set lacks one of those
    orders admit no inference at all.  For full-order witnesses each point
    in turn is withheld, the rest queried, and ``batch.infer_labels`` is
    asked about it, with the points in x order and their patterns, taken
    under the base polynomial, as a (d, points) block.
    """
    if not set(range(w.d)) <= set(w.query_orders):
        return 0
    by_x = sorted(w.points)
    size = len(by_x)
    patterns = eval_sign_block([w.base.derivative(o) for o in range(w.d)], by_x)
    count = 0
    for r in range(size):
        at = np.delete(np.arange(size), r)
        count += bool(infer_labels(at, size, np.delete(patterns, r, axis=1))[r])
    return count


def interval_witness(n: int) -> Witness:
    """Label-query witness on the integers 1..n with base x^2.

    The alternative for point i has roots i +- 1/4, so it dips negative only
    inside (i - 1/4, i + 1/4) and agrees with the all-positive base labels on
    every other integer.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    points = tuple(range(1, n + 1))
    base = Polynomial([0, 0, 1])
    quarter = Fraction(1, 4)
    alternatives = tuple(
        (i, from_roots([i + 1 - quarter, i + 1 + quarter]))
        for i in range(n)
    )
    return Witness(
        points=points,
        base=base,
        alternatives=alternatives,
        query_orders=frozenset({0}),
        d=2,
    )


def _missing_derivative_points(d: int, n: int) -> list[int]:
    s = [math.factorial(d)]
    for _ in range(n - 1):
        nxt = s[-1] ** 3 - 1
        if nxt.bit_length() > BIT_BUDGET:
            raise SizeLimit(f"point exceeds {BIT_BUDGET} bits")
        s.append(nxt)
    return s


def missing_derivative_witness(d: int, n: int) -> Witness:
    """Witness that removing access to order d-1 makes inference impossible.

    Points grow triple-exponentially (s_1 = d!, s_j = s_{j-1}^3 - 1).  The
    alternative for s_j (j >= 2) is
    x^d - d s_{j-1}^3 x^{d-1} + d(d-1) s_{j-1}^4 x^{d-2}; it goes negative at
    s_j while matching the all-positive base x^d at every other point on all
    orders except d-1.  The first point has no alternative: it anchors the
    recursion and the agreement checks of the others.
    """
    if d < 3:
        raise ValueError("construction needs d >= 3")
    if not 2 <= n <= 6:
        raise ValueError("n must be in 2..6 (points grow triple-exponentially)")
    s = _missing_derivative_points(d, n)
    base = Polynomial([0] * d + [1])
    alternatives = []
    for j in range(1, n):
        prev = s[j - 1]
        coeffs = [0] * (d + 1)
        coeffs[d] = 1
        coeffs[d - 1] = -d * prev**3
        coeffs[d - 2] = d * (d - 1) * prev**4
        alternatives.append((j, Polynomial(coeffs)))
    return Witness(
        points=tuple(s),
        base=base,
        alternatives=tuple(alternatives),
        query_orders=frozenset(range(d + 1)) - {d - 1},
        d=d,
    )


def linear_witness_at(d: int, roots: Sequence[Fraction], eps: Fraction) -> Witness:
    """The size-d witness at an explicit eps, without verification."""
    base = from_roots(roots)
    points = tuple(r + eps for r in roots)
    alternatives = []
    for i, r in enumerate(roots):
        others = [q for q in roots if q != r]
        alt = from_roots(others + [r + 2 * eps])
        alternatives.append((i, alt))
    return Witness(
        points=points,
        base=base,
        alternatives=tuple(alternatives),
        query_orders=frozenset(range(d + 1)),
        d=d,
        meta={"epsilon": f"{eps.numerator}/{eps.denominator}"},
    )


def linear_lower_witness(d: int, roots: Sequence) -> Witness:
    """Witness of size d with all query orders available, built from a base
    with d simple negative roots.

    The alternative for point s_i = r_i + eps replaces the factor (x - r_i)
    with (x - (r_i + 2 eps)), flipping only s_i.  eps starts at a third of
    the smallest root gap and is halved until every agreement condition
    verifies exactly.
    """
    roots = sorted(Fraction(r) for r in roots)
    if len(roots) != d or d < 2:
        raise ValueError("need d >= 2 distinct roots")
    if any(a == b for a, b in zip(roots, roots[1:])):
        raise ValueError("roots must be distinct")
    if roots[-1] >= 0:
        raise ValueError("roots must all be negative")
    eps = min(b - a for a, b in zip(roots, roots[1:])) / 3
    for _ in range(MAX_HALVINGS):
        w = linear_witness_at(d, roots, eps)
        try:
            verify_witness(w)
            return w
        except WitnessVerificationError:
            eps = eps / 2
    raise EpsilonSearchFailed(f"no verifying epsilon after {MAX_HALVINGS} halvings")


@dataclass
class MultivariateReport:
    """Exact verification of the two-variable quadratic construction.

    ``c1``, ``c2`` and ``epsilon`` are the rationals the checks ran on, and
    ``agreeing`` is at least n / 2: ``multivariate_witness`` raises otherwise.
    """

    n: int
    c1: Fraction
    c2: Fraction
    epsilon: Fraction
    base_choice: str  # "h" (negative off-diagonal) or "h_prime" (positive)
    agreeing: int  # alternatives whose off-diagonal matches the chosen base


def _rational(value: float) -> Fraction:
    return Fraction(value).limit_denominator(10**6)


def _unit_point(angle: float) -> tuple[Fraction, Fraction]:
    """Rational point ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)) near the given
    angle on the unit circle, with t a rational close to tan(angle/2)."""
    t = _rational(math.tan(angle / 2))
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def _rotated_quadratic(theta: float, c1: Fraction, c2: Fraction) -> tuple[Fraction, ...]:
    """(xx, xy, yy) with f(R p) - c2 (|p|^2 - 1) = xx x^2 + 2 xy x y + yy y^2 + c2,
    where f(u, v) = u v - c1 v^2 and R is the rational rotation near theta."""
    ct, st = _unit_point(theta)
    # u = x ct - y st, v = x st + y ct
    xx = ct * st - c1 * st * st - c2
    yy = -st * ct - c1 * ct * ct - c2
    xy = (ct * ct - st * st) / 2 - c1 * st * ct
    return xx, xy, yy


def multivariate_witness(n: int) -> MultivariateReport:
    """Verify that label, gradient, and Hessian sign queries cannot separate
    the two-variable construction's alternatives from its base.

    Points sit on the first-quadrant unit arc near angles pi*i/(2(n+1)).  Each
    alternative is a rotated copy of u v - c1 v^2 (plus a multiple of
    x^2 + y^2 - 1 that vanishes on the arc) whose thin positive sector
    contains exactly one sample point.  Points, rotations and constants are
    rationals picked with floats; every sign is then checked exactly, and a
    zero fails the strict claim it is checked against.
    """
    if not 2 <= n <= 64:
        raise ValueError("n must be in 2..64")
    pts = [_unit_point(math.pi * i / (2 * (n + 1))) for i in range(1, n + 1)]
    if any(x * x + y * y != 1 for x, y in pts):
        raise WitnessVerificationError("sample point off the unit circle")
    eps = min(min(x / y, y / x) for x, y in pts)
    c1 = _rational(1 / math.tan(math.pi / (2 * (n + 1))))
    c2 = c1 * c1 + c1 + 1

    # base hypotheses h (off-diagonal -eps) and h' (+eps) are all-negative on
    # the sample, with negative partials and Hessian diagonals
    for off in (-eps, eps):
        for x, y in pts:
            if not -x * x - y * y + off * x * y < 0:
                raise WitnessVerificationError("base hypothesis not negative on sample")
            if not (-2 * x + off * y < 0 and -2 * y + off * x < 0):
                raise WitnessVerificationError("base gradient not negative on sample")

    quads = [
        _rotated_quadratic(-math.pi / (4 * (n + 1)) - math.pi * (i - 1) / (2 * (n + 1)), c1, c2)
        for i in range(1, n + 1)
    ]
    # the base is the hypothesis whose off-diagonal sign at least half the
    # alternatives share
    negatives = sum(xy < 0 for _, xy, _ in quads)
    positives = sum(xy > 0 for _, xy, _ in quads)
    base_choice, agreeing = ("h", negatives) if 2 * negatives >= n else ("h_prime", positives)
    if 2 * agreeing < n:
        raise WitnessVerificationError(
            f"multivariate witness n={n}: majority off-diagonal check failed"
        )
    for i, (xx, xy, yy) in enumerate(quads, start=1):
        for j, (x, y) in enumerate(pts, start=1):
            val = xx * x * x + 2 * xy * x * y + yy * y * y + c2
            if not (val > 0 if j == i else val < 0):
                raise WitnessVerificationError(f"alternative {i} has wrong sign at point {j}")
            if j != i and not (xx * x + xy * y < 0 and xy * x + yy * y < 0):
                raise WitnessVerificationError(
                    f"alternative {i} gradient not negative at point {j}"
                )
        if not (xx < 0 and yy < 0):
            raise WitnessVerificationError(f"alternative {i} Hessian diagonal not negative")
    return MultivariateReport(
        n=n,
        c1=c1,
        c2=c2,
        epsilon=eps,
        base_choice=base_choice,
        agreeing=agreeing,
    )

"""Exact-arithmetic non-inferability witnesses and their verifiers.

A witness is a point set, a base polynomial, and one alternative polynomial
per flippable point.  The alternative agrees with the base at every other
point on every declared query order but disagrees on the flipped point's
label, so no learner restricted to those query orders can ever pin that
label down from the rest.  All univariate witnesses are verified in exact
rational/integer arithmetic; the two-variable construction uses floats with
an explicit inconclusive zone instead (its points are transcendental).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .batch import infer_labels
from .polynomial import Polynomial, from_roots, sign_pattern

DEFAULT_BIT_BUDGET = 2**20


class SizeLimit(ValueError):
    """Intermediate integers exceeded the configured bit budget."""


class EpsilonSearchFailed(RuntimeError):
    """No verifying epsilon found within the halving budget."""


class ToleranceBreach(RuntimeError):
    """A float check landed inside the inconclusive zone around zero."""


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
    """Exact check of every agreement and disagreement claim; raises on failure."""
    for flip_idx, alt in w.alternatives:
        for j, x in enumerate(w.points):
            for order in sorted(w.query_orders):
                if j == flip_idx and order > 0:
                    continue  # only the label claim applies at the flipped point
                sb = w.base.derivative(order).eval_sign(x)
                sa = alt.derivative(order).eval_sign(x)
                if j == flip_idx:
                    if sb == sa:
                        raise WitnessVerificationError(
                            f"alternative {flip_idx} fails to flip its point's label"
                        )
                elif sb != sa:
                    raise WitnessVerificationError(
                        f"alternative {flip_idx} disagrees with base at point {j}, order {order}"
                    )


def count_restricted_inferences(w: Witness) -> int:
    """Withheld points the restricted sandwich rule can label from the rest.

    The rule is only sound when both sandwich endpoints expose the signs of
    every order 0..d-1, so witnesses whose query set lacks one of those
    orders admit no inference at all.  For full-order witnesses each point
    in turn is withheld and ``batch.infer_labels`` is asked about it, with
    the points named by their rank in x order and their patterns taken
    under the base polynomial.
    """
    if not set(range(w.d)) <= set(w.query_orders):
        return 0
    by_x = sorted(w.points)
    patterns = np.array([sign_pattern(w.base, x, w.d)[: w.d] for x in by_x], dtype=np.int8)
    ranks = np.arange(len(by_x))
    count = 0
    for r in ranks:
        queried = np.delete(ranks, r)
        positions, _ = infer_labels(queried, np.delete(patterns, r, axis=0), ranks[r : r + 1])
        count += len(positions)
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


def _missing_derivative_points(d: int, n: int, bit_budget: int) -> list[int]:
    s = [math.factorial(d)]
    for _ in range(n - 1):
        nxt = s[-1] ** 3 - 1
        if nxt.bit_length() > bit_budget:
            raise SizeLimit(f"point exceeds {bit_budget} bits")
        s.append(nxt)
    return s


def missing_derivative_witness(d: int, n: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> Witness:
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
    s = _missing_derivative_points(d, n, bit_budget)
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


def linear_lower_witness(d: int, roots: Sequence, max_halvings: int = 256) -> Witness:
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
    for _ in range(max_halvings):
        w = linear_witness_at(d, roots, eps)
        try:
            verify_witness(w)
            return w
        except WitnessVerificationError:
            eps = eps / 2
    raise EpsilonSearchFailed(f"no verifying epsilon after {max_halvings} halvings")


@dataclass
class MultivariateReport:
    """Float verification of the two-variable quadratic construction."""

    n: int
    c1: float
    c2: float
    epsilon: float
    off_diag_signs: tuple[int, ...]  # per-alternative Hessian off-diagonal sign
    base_choice: str  # "h" (negative off-diagonal) or "h_prime" (positive)
    agreeing: int  # alternatives whose off-diagonal matches the chosen base
    min_margin: float  # smallest |checked quantity| / scale seen

    def verified(self) -> bool:
        return self.agreeing * 2 >= self.n


def _rotated_quadratic(theta: float, c1: float, c2: float) -> np.ndarray:
    """Coefficient matrix [[xx, xy], [xy, yy]] plus constant for
    f(R_theta p) - c2 (|p|^2 - 1) where f(u, v) = u v - c1 v^2."""
    ct, st = math.cos(theta), math.sin(theta)
    # u = x ct - y st, v = x st + y ct
    xx = ct * st - c1 * st * st - c2
    yy = -st * ct - c1 * ct * ct - c2
    xy = (ct * ct - st * st) / 2 - c1 * st * ct  # coefficient of xy is 2*xy
    return np.array([[xx, xy], [xy, yy]])


def _quad_eval(mat: np.ndarray, const: float, x: float, y: float) -> float:
    return mat[0, 0] * x * x + 2 * mat[0, 1] * x * y + mat[1, 1] * y * y + const


def multivariate_witness(n: int, tol: float = 1e-9) -> MultivariateReport:
    """Verify that label, gradient, and Hessian sign queries cannot separate
    the two-variable construction's alternatives from its base.

    Points sit on the first-quadrant unit arc at angles pi*i/(2(n+1)).  Each
    alternative is a rotated copy of u v - c1 v^2 (plus a multiple of
    x^2 + y^2 - 1 that vanishes on the arc) whose thin positive sector
    contains exactly one sample point.  Checks are float comparisons with an
    inconclusive zone of tol around zero; any check landing inside it raises
    ToleranceBreach rather than passing silently.
    """
    if not 2 <= n <= 64:
        raise ValueError("n must be in 2..64")
    angles = [math.pi * i / (2 * (n + 1)) for i in range(1, n + 1)]
    pts = [(math.cos(a), math.sin(a)) for a in angles]
    eps = min(min(abs(x / y), abs(y / x)) for x, y in pts)
    c1 = 1.0 / math.tan(math.pi / (2 * (n + 1)))
    c2 = c1 * c1 + c1 + 1.0

    def checked_sign(value: float, scale: float, what: str) -> int:
        if abs(value) <= tol * scale:
            raise ToleranceBreach(f"{what} = {value} lies within tolerance of 0")
        return -1 if value < 0 else 1

    # base hypotheses h (off-diagonal -eps) and h' (+eps) are all-negative on
    # the sample, with negative partials and Hessian diagonals
    for sgn_eps in (-1.0, 1.0):
        for x, y in pts:
            val = -x * x - y * y + sgn_eps * eps * x * y
            if checked_sign(val, 1.0, "base value") != -1:
                raise WitnessVerificationError("base hypothesis not negative on sample")
            gx = -2 * x + sgn_eps * eps * y
            gy = -2 * y + sgn_eps * eps * x
            if checked_sign(gx, 1.0, "base dx") != -1 or checked_sign(gy, 1.0, "base dy") != -1:
                raise WitnessVerificationError("base gradient not negative on sample")

    off_signs = []
    min_margin = math.inf
    scale = c2  # dominant coefficient magnitude
    for i in range(1, n + 1):
        theta = -math.pi / (4 * (n + 1)) - math.pi * (i - 1) / (2 * (n + 1))
        mat = _rotated_quadratic(theta, c1, c2)
        for j, (x, y) in enumerate(pts, start=1):
            val = _quad_eval(mat, c2, x, y)
            min_margin = min(min_margin, abs(val) / scale)
            want = 1 if j == i else -1
            if checked_sign(val, scale, f"h_{i}({j})") != want:
                raise WitnessVerificationError(f"alternative {i} has wrong sign at point {j}")
            if j != i:
                gx = 2 * (mat[0, 0] * x + mat[0, 1] * y)
                gy = 2 * (mat[0, 1] * x + mat[1, 1] * y)
                for g, name in ((gx, "dx"), (gy, "dy")):
                    min_margin = min(min_margin, abs(g) / scale)
                    if checked_sign(g, scale, f"{name} of h_{i} at {j}") != -1:
                        raise WitnessVerificationError(
                            f"alternative {i} gradient not negative at point {j}"
                        )
        for diag in (mat[0, 0], mat[1, 1]):
            min_margin = min(min_margin, abs(diag) / scale)
            if checked_sign(diag, scale, f"Hessian diagonal of h_{i}") != -1:
                raise WitnessVerificationError(f"alternative {i} Hessian diagonal not negative")
        off_signs.append(checked_sign(mat[0, 1], scale, f"Hessian off-diagonal of h_{i}"))

    negatives = sum(1 for s in off_signs if s == -1)
    base_choice = "h" if 2 * negatives >= n else "h_prime"
    agreeing = negatives if base_choice == "h" else n - negatives
    return MultivariateReport(
        n=n,
        c1=c1,
        c2=c2,
        epsilon=eps,
        off_diag_signs=tuple(off_signs),
        base_choice=base_choice,
        agreeing=agreeing,
        min_margin=min_margin,
    )

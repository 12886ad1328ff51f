"""Tests of the benchmark's own checks: python3 -m pytest -q sweepbench"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.util import dkw_radius, ks_statistic_discrete, z_law_cdf_grid  # noqa: E402


def brute_sign(coeffs, x) -> int:
    """Sign of sum(c_i x^i) in Fractions, term by term; sign(0) = +1."""
    value = sum(Fraction(c) * Fraction(x) ** i for i, c in enumerate(coeffs))
    return -1 if value < 0 else 1


def expand(roots, leading=1):
    """Coefficients, lowest order first, of leading * prod(x - r)."""
    coeffs = [leading]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [s - r * c for s, c in zip(shifted, coeffs + [0])]
    return coeffs


def test_label_check_flags_one_flipped_label():
    coeffs = expand([Fraction(1, 3), Fraction(2, 3)])
    points = tuple(Fraction(k, 16) for k in range(16))
    reference = checks.exact_labels(coeffs, points)
    labels = reference.copy()
    assert checks.label_mismatches(labels, reference) == 0
    labels[7] = -labels[7]
    assert checks.label_mismatches(labels, reference) == 1
    assert checks.label_mismatches(labels[:-1], reference) == len(reference)


@pytest.mark.parametrize("seed", range(20))
def test_exact_reference_matches_brute_force_on_fraction_polynomials(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    roots = [Fraction(int(v), 2**20) for v in rng.integers(1, 2**20, size=d)]
    coeffs = expand(roots, leading=int(rng.choice([-1, 1])))
    points = [Fraction(int(v), 2**20) for v in rng.integers(0, 2**20, size=40)]
    points += roots  # sample points on roots, where p = 0 and the label is +1
    reference = checks.exact_labels(coeffs, tuple(points))
    assert list(reference) == [brute_sign(coeffs, x) for x in points]
    assert all(reference[-d:] == 1)


@pytest.mark.parametrize("seed", range(20))
def test_exact_reference_matches_brute_force_on_float_polynomials(seed):
    rng = np.random.default_rng(100 + seed)
    d = int(rng.integers(1, 7))
    coeffs = [float(c) for c in rng.standard_normal(d + 1)]
    points = rng.random(200)
    reference = checks.exact_labels(coeffs, points)
    assert list(reference) == [brute_sign(coeffs, x) for x in points]


def test_float_filter_defers_where_float_horner_is_wrong():
    coeffs = [float(c) for c in np.polynomial.polynomial.polyfromroots([0.3, 0.6, 0.7])]
    points = np.unique([r + k * 2.0**-53 for r in (0.3, 0.6, 0.7) for k in range(-300, 301)])
    brute = np.array([brute_sign(coeffs, x) for x in points])
    naive = np.where(np.polynomial.polynomial.polyval(points, coeffs) < 0, -1, 1)
    assert np.count_nonzero(naive != brute) > 0  # plain float signs are wrong here
    assert np.array_equal(checks.exact_labels(coeffs, points), brute)


def test_float_point_on_a_root_gets_plus_one():
    coeffs = [-0.5, 1.0]  # x - 0.5, exact in binary
    assert list(checks.exact_labels(coeffs, np.array([0.25, 0.5, 0.75]))) == [-1, 1, 1]


def z_draws(n, d, m, rng):
    """m draws of Z from its exact law, by inverse CDF."""
    return np.searchsorted(z_law_cdf_grid(n, d), rng.random(m), side="left")


def test_ks_check_accepts_the_law_and_rejects_a_shift_by_one():
    n, m, cells = 4096, 7000, 2
    radius = dkw_radius(m, cells, 1e-3)
    rng = np.random.default_rng(5)
    for d in (2, 6):
        z = z_draws(n, d, m, rng)
        assert ks_statistic_discrete(z, z_law_cdf_grid(n, d)) <= radius
    # At d = 2, P(Z <= 3) = 1/10 and a shifted Z is never 3; at d = 6 no
    # single step of the law is larger than the radius, so a one-probe shift
    # shows on the d = 2 cell.
    z = z_draws(n, 2, m, rng)
    assert ks_statistic_discrete(z + 1, z_law_cdf_grid(n, 2)) > radius


def test_query_bounds():
    assert [checks.ceil_log2(n) for n in (1, 2, 3, 4, 5, 256, 257)] == [0, 1, 2, 2, 3, 8, 9]
    assert checks.iterative_query_bound(1, 256) == 10
    assert checks.iterative_query_bound(3, 256) == 10 + 2 * 10 + 4 * 10
    assert checks.search_query_bound(6, 4096) == 6 * 14

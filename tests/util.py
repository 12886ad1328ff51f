"""Shared helpers for the test suite."""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction

import numpy as np

from ptf_lab.adversarial import Witness
from ptf_lab.distributions import RootModel, Seed, random_instance
from ptf_lab.instances import Instance
from ptf_lab.oracle import Oracle, QuerySet
from ptf_lab.polynomial import Polynomial


def trial_rng(master: int, stream: int = 0) -> np.random.Generator:
    return Seed(master, stream).rng()


def make_instance(n, d, seed, backend="float", model="uniform", alpha=None):
    rng = trial_rng(seed)
    return random_instance(n, RootModel(model, d, alpha), rng, backend=backend)


def full_oracle(instance: Instance) -> Oracle:
    return Oracle(instance.hidden, QuerySet.full(instance.d))


def label_oracle(instance: Instance) -> Oracle:
    return Oracle(instance.hidden, QuerySet.label_only(instance.d))


def frac(num, den=1) -> Fraction:
    return Fraction(num, den)


def ks_statistic_uniform(sample: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance against Uniform[0,1]."""
    xs = np.sort(np.asarray(sample))
    n = len(xs)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - xs), np.max(xs - (grid - 1 / n))))


def z_law_cdf(z: int, n: int, d: int) -> Fraction:
    """Exact P(Z <= z) for sample_and_search's probe count Z.

    With d distinct i.i.d. uniform roots and n i.i.d. uniform points, the
    first z probes and the roots are exchangeable, and d flips show exactly
    when every one of the d+1 root gaps holds a probe:
    P(Z <= z) = C(z-1, d) / C(z+d, d) for z < n.  Z = n when the probes
    exhaust the sample (case "a"), so F(n) = 1.
    """
    if z >= n:
        return Fraction(1)
    if z < 1:
        return Fraction(0)
    return Fraction(math.comb(z - 1, d), math.comb(z + d, d))


def z_law_cdf_grid(n: int, d: int) -> np.ndarray:
    """z_law_cdf at every integer z in [0, n], correctly rounded to float64."""
    return np.array([float(z_law_cdf(z, n, d)) for z in range(n + 1)])


def z_law_mean(n: int, d: int) -> float:
    """E[Z] = sum over z in [0, n) of P(Z > z)."""
    return float(np.sum(1.0 - z_law_cdf_grid(n, d)[:n]))


def ks_statistic_discrete(sample, cdf: np.ndarray) -> float:
    """One-sample KS distance between an integer sample and a law on the
    integers whose CDF at 0, 1, ..., len(cdf) - 1 is ``cdf``.

    Both CDFs are step functions that jump only at integers, so the sup is
    taken over every integer of that range, not only the observed values.
    """
    xs = np.sort(np.asarray(sample, dtype=np.int64))
    ecdf = np.searchsorted(xs, np.arange(len(cdf)), side="right") / len(xs)
    return float(np.max(np.abs(ecdf - cdf)))


def dkw_radius(m: int, k: int, delta: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius for k KS checks of m draws each.

    P(sup |F_m - F| > eps) <= 2 exp(-2 m eps^2) holds for every law F
    (Massart's constant), so with a union bound over k checks all of them
    stay within sqrt(ln(2k / delta) / (2m)) with probability >= 1 - delta.
    """
    return math.sqrt(math.log(2 * k / delta) / (2 * m))


def restricted_infer(queried, targets) -> list[tuple[int, int]]:
    """Reference sandwich rule on point values, for checking batch.infer_labels.

    ``queried`` holds (x, pattern) pairs sorted by x; ``targets`` is sorted.
    A target strictly between two adjacent queried points whose patterns are
    identical gets their shared label (pattern entry 0).  Returns
    (target_index, sign) pairs for the inferable targets only.
    """
    if len(queried) < 2:
        return []
    xs = [x for x, _ in queried]
    patterns = [tuple(p) for _, p in queried]
    out = []
    for idx, t in enumerate(targets):
        pos = bisect.bisect_left(xs, t)
        if 0 < pos < len(xs) and xs[pos] != t and patterns[pos - 1] == patterns[pos]:
            out.append((idx, patterns[pos - 1][0]))
    return out


def true_signs(instance: Instance, order: int = 0) -> np.ndarray:
    """Signs of the hidden polynomial's order-th derivative at all points."""
    return instance.hidden.derivative(order).eval_sign_many(instance.points)


def exact_value(coeffs, x, order: int = 0) -> Fraction:
    """The order-th derivative of sum(coeffs[i] x**i) at x, as a ``Fraction``.

    Every coefficient and the point are read as exact ``Fraction``s, the
    derivative is taken by the power rule, and the value by ``Fraction``
    Horner, so it shares no code with the package's float filter or integer
    kernel.
    """
    cs = [Fraction(c) for c in coeffs]
    for _ in range(order):
        cs = [i * cs[i] for i in range(1, len(cs))]
    x = Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)  # no int64 wrap
    value = Fraction(0)
    for c in reversed(cs):
        value = value * x + c
    return value


def reference_sign(coeffs, x, order: int = 0) -> int:
    """Reference for ``Polynomial.eval_sign``: the sign of ``exact_value``, sign(0) = +1."""
    return -1 if exact_value(coeffs, x, order) < 0 else 1


def witness_from_json(text: str) -> Witness:
    """Read a witness fixture: points and coefficients are "a/b" strings."""
    obj = json.loads(text)

    def scalar(s):
        f = Fraction(s)
        return f.numerator if f.denominator == 1 else f

    def poly(p) -> Polynomial:
        return Polynomial([Fraction(c) for c in p["coeffs"]])

    return Witness(
        points=tuple(scalar(s) for s in obj["points"]),
        base=poly(obj["base"]),
        alternatives=tuple((a["flips"], poly(a["poly"])) for a in obj["alternatives"]),
        query_orders=frozenset(obj["query_orders"]),
        d=obj["d"],
        meta=obj.get("meta", {}),
    )

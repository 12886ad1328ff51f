"""Random instance generation and closed-form entropy lower bounds.

Two root models are supported: d i.i.d. uniform roots on [0,1], and roots
whose d+1 inter-root gaps follow a symmetric Dirichlet(alpha) (sampled as
normalized Gamma(alpha, 1) draws).  Points are i.i.d. uniform on [0,1].

The draw mode (``EXACT`` or ``FLOAT``, the harness's ``backend``) picks how
roots and points are drawn; it does not change how signs are evaluated.

- ``FLOAT``: float64 roots and points from ``rng.random`` and the
  normalized gaps, so the hidden polynomial has the float coefficients of a
  float64 expansion.
- ``EXACT``: roots are ``Fraction``s -- uniform roots on the 2^-53 grid,
  Dirichlet roots as prefix sums of the float gaps renormalized to sum to 1
  exactly -- so the hidden polynomial has exact rational coefficients.
  Points are uniform on the 2^-53 grid as well, drawn as integers v and
  stored as the float64 values v / 2^53, which are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .instances import Instance
from .polynomial import from_roots

UNIFORM = "uniform"
DIRICHLET = "dirichlet"

EXACT = "exact"
FLOAT = "float"

_DYADIC = 2**53


class ComputationTooLarge(ValueError):
    """Exact entropy summation would need too many terms."""


@dataclass(frozen=True)
class Seed:
    """Master seed plus a per-trial stream index.

    The pair fully determines a trial's randomness: the generator is
    ``default_rng(SeedSequence(master, spawn_key=(stream,)))``.
    """

    master: int
    stream: int = 0

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.master, spawn_key=(self.stream,)))


@dataclass(frozen=True)
class RootModel:
    kind: str  # "uniform" or "dirichlet"
    d: int
    alpha: Optional[float] = None  # dirichlet only

    def __post_init__(self):
        if self.kind not in (UNIFORM, DIRICHLET):
            raise ValueError(f"unknown root model {self.kind!r}")
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.kind == DIRICHLET:
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("dirichlet model needs alpha > 0")


def _exact_unit_draws(k: int, rng: np.random.Generator, open_interval: bool = False) -> list[int]:
    """k distinct integers v in [0, 2^53), sorted: v / 2^53 is uniform over the grid.

    With open_interval the value 0 is rejected as well (roots must stay
    strictly inside (0, 1)).
    """
    seen: set[int] = set()
    while len(seen) < k:
        for v in rng.integers(0, _DYADIC, size=k - len(seen)):
            if open_interval and v == 0:
                continue
            seen.add(int(v))
    return sorted(seen)


def uniform_points(n: int, rng: np.random.Generator, backend: str = FLOAT) -> np.ndarray:
    """n sorted i.i.d. Uniform[0,1] draws, de-duplicated by resampling."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if backend == EXACT:
        return np.array(_exact_unit_draws(n, rng), dtype=np.float64) / _DYADIC  # exact
    pts = rng.random(n)
    pts = np.unique(pts)  # sorts; exact float collisions are resampled
    while len(pts) < n:
        pts = np.unique(np.concatenate([pts, rng.random(n - len(pts))]))
    return pts


def dirichlet_gaps(d: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """d+1 gaps from the symmetric Dirichlet(alpha), via normalized Gamma draws."""
    while True:
        g = rng.gamma(alpha, 1.0, size=d + 1)
        if np.all(g > 0):  # tiny alpha can underflow a draw to zero
            return g / g.sum()


def sample_roots(model: RootModel, rng: np.random.Generator, backend: str = FLOAT) -> list:
    """Sample d sorted, distinct roots with the model's distribution.

    Uniform: d i.i.d. U[0,1] roots.  Dirichlet: roots are prefix sums of the
    d+1 sampled gaps; in the float draw mode, gaps whose prefix sums repeat
    a root or round one to 0 or 1 are drawn again.  All roots land strictly
    inside (0,1); they are Fractions in the exact draw mode and floats in
    the float draw mode.
    """
    d = model.d
    if model.kind == UNIFORM:
        if backend == EXACT:
            roots = [Fraction(v, _DYADIC) for v in _exact_unit_draws(d, rng, open_interval=True)]
        else:
            roots = np.sort(rng.random(d))
            while len(np.unique(roots)) < d or roots[0] == 0.0:
                roots = np.sort(rng.random(d))
            roots = roots.tolist()
    else:
        gaps = dirichlet_gaps(d, model.alpha, rng)
        if backend == EXACT:
            exact_gaps = [Fraction(float(g)) for g in gaps]
            total = sum(exact_gaps)
            exact_gaps = [g / total for g in exact_gaps]  # sums to 1 exactly
            roots = list(itertools.accumulate(exact_gaps))[:d]
        else:
            roots = np.cumsum(gaps)[:d]
            while not np.all(np.diff(roots, prepend=0.0, append=1.0) > 0):
                roots = np.cumsum(dirichlet_gaps(d, model.alpha, rng))[:d]
            roots = roots.tolist()
    assert all(0 < r < 1 for r in roots), "roots must lie strictly inside (0,1)"
    return roots


def random_instance(
    n: int,
    model: RootModel,
    rng: np.random.Generator,
    backend: str = FLOAT,
    random_leading: bool = False,
) -> Instance:
    """Draw the leading sign, then the roots, then the points, in that order."""
    leading = int(rng.choice([-1, 1])) if random_leading else 1
    roots = sample_roots(model, rng, backend=backend)
    hidden = from_roots(roots, leading=leading)
    points = uniform_points(n, rng, backend=backend)
    return Instance(points=points, hidden=hidden, d=model.d, roots=roots)


def entropy_lower_bound_uniform(n: int, d: int) -> float:
    """log2 C(n+d, d): bits needed to pin down which of the equally likely
    labelings occurred when points and roots are exchangeable uniforms."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    lg = math.lgamma
    return (lg(n + d + 1) - lg(d + 1) - lg(n + 1)) / math.log(2)


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative ints summing to `total`."""
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cuts:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def dirichlet_multinomial_entropy(n: int, d: int, alpha: float, max_terms: int = 10**7) -> float:
    """Exact entropy (bits) of the interval-count distribution when gaps are
    Dirichlet(alpha): category counts of n draws into d+1 Dirichlet cells.

    Sums the probability mass function over all C(n+d, d) count vectors, so
    it is only feasible for small (n, d).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k = d + 1
    terms = math.comb(n + d, d)
    if terms > max_terms:
        raise ComputationTooLarge(f"{terms} compositions exceed the budget {max_terms}")
    lg = math.lgamma
    base = lg(n + 1) + lg(k * alpha) - lg(n + k * alpha) - k * lg(alpha)
    entropy_nats = 0.0
    total_p = 0.0
    for counts in _compositions(n, k):
        logp = base + sum(lg(c + alpha) - lg(c + 1) for c in counts)
        p = math.exp(logp)
        total_p += p
        if p > 0:
            entropy_nats -= p * logp
    assert abs(total_p - 1.0) < 1e-9, "pmf must sum to 1"
    return entropy_nats / math.log(2)


def dirichlet_entropy_surrogate(n: int, d: int) -> float:
    """Asymptotic stand-in (d-1) * log2 n for sweeps where the exact
    summation is infeasible.  Callers must flag results as surrogate."""
    return (d - 1) * math.log2(n)

"""Random instance generation and closed-form entropy lower bounds.

Two root models are supported: d i.i.d. uniform roots on [0,1], and roots
whose d+1 inter-root gaps follow a symmetric Dirichlet(alpha) (sampled as
normalized Gamma(alpha, 1) draws).  Points are i.i.d. uniform on [0,1].

Both draw modes (``EXACT`` or ``FLOAT``, the harness's ``backend``) read
one stream alike and draw the same values: points and uniform roots from
``rng.random``, which lie on the 2^-53 grid, and Dirichlet roots as the exact
prefix sums of the gaps, renormalized to sum to 1, as ``Fraction``s.  The
mode decides one thing only: whether uniform roots are kept as floats, so
the hidden polynomial has the float coefficients of a float64 expansion
(``FLOAT``), or become the same values as ``Fraction``s, so it has exact
rational coefficients (``EXACT``).  Signs are evaluated exactly either way.
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

MAX_ENTROPY_TERMS = 10**7


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


def uniform_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """n sorted i.i.d. Uniform[0,1] draws, de-duplicated by resampling.

    A plain sort is what ``np.unique`` returns when no two draws collide;
    only a collision takes the ``np.unique`` resampling loop, so the stream
    and the points are the same either way.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    pts = np.sort(rng.random(n))
    if np.all(pts[1:] != pts[:-1]):
        return pts
    pts = np.unique(pts)  # exact float collisions are resampled
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

    Uniform: d i.i.d. U[0,1] roots, drawn again while two repeat or one is
    0; they are floats in the float draw mode and the same values as
    ``Fraction``s in the exact draw mode.  Dirichlet: the d+1 sampled gaps,
    read as ``Fraction``s, are renormalized to sum to 1 exactly, and the
    roots are their exact prefix sums, ``Fraction``s in both draw modes;
    positive gaps never make two roots collide, so nothing is drawn again.
    All roots land strictly inside (0,1).
    """
    d = model.d
    if model.kind == UNIFORM:
        roots = np.sort(rng.random(d))
        while len(np.unique(roots)) < d or roots[0] == 0.0:
            roots = np.sort(rng.random(d))
        roots = roots.tolist()
        if backend == EXACT:
            roots = [Fraction(r) for r in roots]
    else:
        # each float gap is an integer over a power of 2, so over the largest
        # of those powers every gap, and every prefix sum, is an integer
        ratios = [g.as_integer_ratio() for g in dirichlet_gaps(d, model.alpha, rng).tolist()]
        den = max(b for _, b in ratios)
        gaps = [a * (den // b) for a, b in ratios]
        total = sum(gaps)
        roots = [Fraction(s, total) for s in itertools.accumulate(gaps[:d])]
    assert roots[0] > 0 and roots[-1] < 1, "roots must lie strictly inside (0,1)"
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
    points = uniform_points(n, rng)
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


def dirichlet_multinomial_entropy(n: int, d: int, alpha: float) -> float:
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
    if terms > MAX_ENTROPY_TERMS:
        raise ComputationTooLarge(f"{terms} compositions exceed the budget {MAX_ENTROPY_TERMS}")
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

"""Random instance generation and the entropy floors of the gap counts.

``RootModel(d, alpha)`` is the root law: with alpha None, d i.i.d. uniform
roots on [0,1]; with alpha > 0 (and at least a floor near 0.04), roots whose
d+1 gaps follow a symmetric Dirichlet(alpha), as normalized Gamma(alpha, 1)s.
Points are i.i.d. uniform on [0,1].  ``trial_rng(master, stream)`` is the
generator of one trial, so a (master, stream) pair fixes every draw.

Both draw modes (``EXACT``, the default, or ``FLOAT``, the harness's
``backend``) read one stream alike and draw the same values: points and
uniform roots from ``rng.random``, which lie on the 2^-53 grid, and Dirichlet
roots as the exact prefix sums of the gaps, renormalized to sum to 1, as
``Fraction``s.  The mode decides one thing only: whether uniform roots become
the same values as ``Fraction``s, so the hidden polynomial is the exact
product of its listed roots (``EXACT``), or stay floats, so it has the
rounded coefficients of a float64 expansion (``FLOAT``), which need not
change sign at those roots.  The float expansion serves only callers that
name ``FLOAT``.  Signs are evaluated exactly either way.

The entropy floor is one function, ``dirichlet_multinomial_entropy``: the
entropy of the count vector, how many points fall in each of the d+1 gaps, as
an O(n) sum.  i.i.d. uniform roots have Dirichlet(1) gaps, so they are its
alpha = 1, where every count vector is equally likely and it equals
log2 C(n+d, d).  A learner must pay the floor only where its labels determine
the counts, i.e. where no interior gap is empty.
"""

from __future__ import annotations

import itertools
import math
import operator
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


def trial_rng(master: int, stream: int = 0) -> np.random.Generator:
    """The generator of stream ``stream`` of master seed ``master``."""
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=(stream,)))


@dataclass(frozen=True)
class RootModel:
    """A Dirichlet alpha is at least (41 + log2(d+1)) / 1075 (0.05 serves d <= 6,000).

    A Gamma(alpha, 1) draw below 2^-1075 rounds to 0; P(Gamma(alpha, 1) < x) <=
    x^alpha / Gamma(alpha + 1) and Gamma(alpha + 1) > 1/2, so at the floor some
    of the d+1 gaps is 0 with chance below 2^-40 (at d = 8, alpha = 1e-4: 1 - 5e-11)."""

    d: int
    alpha: Optional[float] = None  # None: uniform roots; else Dirichlet(alpha) gaps

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        floor = (41 + math.log2(self.d + 1)) / 1075
        if self.alpha is not None and not floor <= self.alpha < math.inf:
            bound = f"finite and > 0, and at least {floor:.4f} at d = {self.d}"
            raise ValueError(f"dirichlet alpha must be {bound}, not {self.alpha!r}")

    @property
    def kind(self) -> str:
        return UNIFORM if self.alpha is None else DIRICHLET


def uniform_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """n sorted i.i.d. Uniform[0,1] draws, de-duplicated by resampling.

    The draws are sorted in place, which allocates no second n-length array.
    A plain sort is what ``np.unique`` returns when no two draws collide;
    only a collision takes the ``np.unique`` resampling loop, so the stream
    and the points are the same either way.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    pts = rng.random(n)
    pts.sort()
    if np.all(pts[1:] != pts[:-1]):
        return pts
    pts = np.unique(pts)  # exact float collisions are resampled
    while len(pts) < n:
        pts = np.unique(np.concatenate([pts, rng.random(n - len(pts))]))
    return pts


def dirichlet_gaps(d: int, alpha: float, rng: np.random.Generator) -> np.ndarray:
    """d+1 gaps from the symmetric Dirichlet(alpha), via normalized Gamma draws, never redrawn."""
    g = rng.gamma(alpha, 1.0, size=d + 1)
    return g / g.sum()


def sample_roots(model: RootModel, rng: np.random.Generator, backend: str = EXACT) -> list:
    """Sample d sorted, distinct roots with the model's distribution.

    Uniform: d i.i.d. U[0,1] roots, drawn again while the sorted draw, as a
    Python list, is not strictly increasing (two repeat) or starts at 0;
    they are ``Fraction``s in the exact draw mode (the default) and the
    same values as floats in the float draw mode.  Dirichlet: the d+1
    sampled gaps, read as ``Fraction``s, are renormalized to sum to 1
    exactly, and the roots are their exact prefix sums, in both draw modes;
    positive gaps never make two roots collide, so nothing is drawn again.
    All roots land strictly inside (0,1).
    """
    d = model.d
    if model.alpha is None:
        roots = np.sort(rng.random(d)).tolist()
        while roots[0] == 0.0 or not all(map(operator.lt, roots, roots[1:])):
            roots = np.sort(rng.random(d)).tolist()
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
    backend: str = EXACT,
    random_leading: bool = False,
) -> Instance:
    """Draw the leading sign, then the roots, then the points, in that order."""
    leading = int(rng.choice([-1, 1])) if random_leading else 1
    roots = sample_roots(model, rng, backend=backend)
    hidden = from_roots(roots, leading=leading)
    points = uniform_points(n, rng)
    return Instance(points=points, hidden=hidden, d=model.d, roots=roots)


def dirichlet_multinomial_entropy(n: int, d: int, alpha: float) -> float:
    """Entropy (bits) of the counts (C_0, ..., C_d) of n uniform points in the
    d+1 gaps when the gaps are Dirichlet(alpha).

    With k = d+1 and rising factorials (x)_m, -log p(C) = log((k alpha)_n / n!)
    - sum_i log((alpha)_{C_i} / C_i!), and the C_i are exchangeable with C_0 ~
    Beta-binomial(n, alpha, d alpha).  So the entropy is an O(n) sum over j < n of
    log((k alpha + j) / (j + 1)) - k P(C_0 > j) log((alpha + j) / (j + 1)).  Logs
    of ratios do not cancel at large alpha as lgamma differences do, and at
    alpha = 1 the second term is 0, leaving log2 C(n+d, d).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    k = d + 1
    j = np.arange(n, dtype=float)
    # P(C_0 = j+1) / P(C_0 = j), so log_pmf is the log pmf up to a constant;
    # the integer n - j - 1 goes in whole, as (d alpha + n) - n loses d alpha's bits
    ratio = (n - j) * (alpha + j) / ((j + 1) * (d * alpha + (n - j - 1)))
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log(ratio))))
    pmf = np.exp(log_pmf - log_pmf.max())
    tail = np.cumsum(pmf[::-1])[::-1][1:] / pmf.sum()  # P(C_0 > j), summed from the right
    nats = np.sum(np.log((k * alpha + j) / (j + 1)) - k * tail * np.log((alpha + j) / (j + 1)))
    return float(nats) / math.log(2)

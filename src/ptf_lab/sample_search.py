"""Label-only average-case learner: random probing, then per-gap binary search.

Phase 1 queries uniformly random not-yet-queried points until either every
point has been queried (case "a") or the queried points, read in sorted
order, show d sign flips, d the instance's degree bound (case "b").  With a
hidden polynomial of exactly d real roots, d flips pin one root per flip
gap, so each gap's boundary is found by binary search (``iterative.find_flip``,
the same search the iterative learner runs on a segment) and every other
point inherits the sign of its bracketing queried neighbours.

Phase 1 keeps only the runs of equal sign that the probes show in x order:
at most d + 1 of them while no more than d flips are seen, stored as a flat
list of each run's first and last probe index beside a list of run signs.
With pos a probe's ``bisect_left`` in those ends and j = pos >> 1, one rule
places it: inside run j, it continues the run if it has the run's sign and
splits it otherwise (2 flips; only a split looks up the probe's nearest
probes, in the probe order's prefix); else it joins run j if that has its
sign, else run j - 1 if that does, else opens a run at j (1 flip).  Between
two runs, of opposite signs, exactly one join applies.  Phase 2, one pass
for both cases, brackets each flip by the last probe of one run and the
first probe of the next; in case "a" every point is a probe, so each
bracket is two adjacent probes and its search asks nothing.  Probes are read
one Python scalar at a time (``.item``), so no numpy scalar is made per
probe.  Phase 2's query count is the oracle's, taken before and after.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .instances import Instance
from .iterative import find_flip
from .oracle import Oracle


class DegreeViolation(RuntimeError):
    """More sign flips observed than the promised number of real roots."""


@dataclass
class AvgCaseResult:
    """Outcome of one sample_and_search run.

    ``z`` is the probe count Z of phase 1.  For d distinct i.i.d. uniform
    roots and n i.i.d. uniform points, the first z probes and the roots are
    exchangeable, and d flips show exactly when each of the d+1 root gaps
    holds a probe, so P(Z <= z) = C(z-1, d) / C(z+d, d) for z < n.  Z = n in
    case "a".  For d = 1 this gives E[Z] = 2 H_n - 1 (H_n the n-th harmonic
    number) and Var Z ~ 4n: Z is heavy-tailed, so sample means of Z are
    poor estimators of E[Z].

    ``search_queries`` counts the searches between each run's last probe and
    the next run's first: 0 in case "a", where those probes are adjacent.
    """

    labels: np.ndarray
    z: int  # queries spent in the probing phase
    search_queries: int
    case: str  # "a" (exhausted) or "b" (d flips seen)


def sample_and_search(
    instance: Instance, oracle: Oracle, rng: np.random.Generator
) -> AvgCaseResult:
    """Perfectly label the sample using label queries only.

    n and d come from the instance: d is the promised number of sign changes,
    and phase 1 stops once that many flips are visible.  Raises
    DegreeViolation if more flips than promised ever show up.
    """
    d, n = instance.d, instance.n
    perm = rng.permutation(n)  # uniform probing without replacement
    at = perm.item
    point = instance.points.item  # Python scalars: no numpy scalar per probe
    query = oracle.query

    # run j holds the probes ends[2j] .. ends[2j+1] (point indices) and has
    # sign run_signs[j]; neighbouring runs differ, so flips = runs - 1
    ends: list[int] = []
    run_signs: list[int] = []
    flips = 0
    z, case = n, "a"
    for k in range(n):  # k points probed so far
        idx = at(k)
        s = query(point(idx), 0)
        pos = bisect_left(ends, idx)
        j = pos >> 1
        if pos & 1:  # strictly inside run j
            if run_signs[j] == s:
                continue
            # split run j around idx at its nearest probes on either side
            seen = np.sort(perm[:k])
            at_idx = seen.searchsorted(idx)
            ends[pos:pos] = (seen.item(at_idx - 1), idx, idx, seen.item(at_idx))
            run_signs[j + 1 : j + 1] = (s, run_signs[j])
        elif j < len(run_signs) and run_signs[j] == s:  # join run j at its first probe
            ends[pos] = idx
            continue
        elif j and run_signs[j - 1] == s:  # join run j - 1 at its last probe
            ends[pos - 1] = idx
            continue
        else:  # open a run at position j
            ends[pos:pos] = (idx, idx)
            run_signs.insert(j, s)
        flips = len(run_signs) - 1
        if flips > d:
            raise DegreeViolation(f"{flips} flips seen but only {d} roots promised")
        if flips == d > 0:
            z, case = k + 1, "b"
            break

    def ask(i: int) -> int:
        return query(point(i), 0)

    # locate each flip boundary among the points strictly between the last
    # probe of run j and the first probe of run j+1; in case "a" every point
    # is a probe, so those two are adjacent and find_flip asks nothing
    before = oracle.queries
    boundaries = [
        find_flip(ask, ends[2 * j + 1], ends[2 * j + 2], run_signs[j]) for j in range(flips)
    ]
    search_queries = oracle.queries - before

    # run j labels the points after boundary j - 1 up to boundary j
    cuts = [0, *(b + 1 for b in boundaries), n]
    labels = np.repeat(np.array(run_signs, dtype=np.int8), np.diff(cuts))
    return AvgCaseResult(labels=labels, z=z, search_queries=search_queries, case=case)

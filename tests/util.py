"""Shared helpers for the test suite."""

from __future__ import annotations

import bisect
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from ptf_lab.adversarial import Witness
from ptf_lab.batch import infer_labels
from ptf_lab.distributions import EXACT, RootModel, random_instance, trial_rng
from ptf_lab.instances import Instance, true_labels
from ptf_lab.oracle import Oracle
from ptf_lab.iterative import find_flip
from ptf_lab.polynomial import Polynomial, eval_sign_block
from ptf_lab.sample_search import AvgCaseResult, DegreeViolation


def pattern_block(p: Polynomial, xs, d: int) -> np.ndarray:
    """The sign patterns of orders 0..d-1 of p at xs, as a (d, points) block."""
    return eval_sign_block([p.derivative(o) for o in range(d)], xs)


def make_instance(n, d, seed, backend=EXACT):
    return random_instance(n, RootModel(d), trial_rng(seed), backend=backend)


def full_oracle(instance: Instance) -> Oracle:
    return Oracle(instance.hidden, instance.d)


def label_oracle(instance: Instance) -> Oracle:
    return Oracle(instance.hidden, instance.d, label_only=True)


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


def dirichlet_multinomial_entropy_by_enumeration(n: int, d: int, alpha: float) -> float:
    """Reference for ``distributions.dirichlet_multinomial_entropy``: the entropy
    (bits) summed over all C(n+d, d) count vectors of the Dirichlet-multinomial pmf.

    With k = d+1 and rising factorials (x)_c, log p(C) = log n! - log (k alpha)_n
    + sum_i (log (alpha)_{C_i} - log C_i!).  Each term comes from a per-count
    table, log (alpha)_c = sum over j < c of log(alpha + j), and log c!, and
    each log-probability is one ``math.fsum``: lgamma differences would
    cancel at large alpha.
    """
    k = d + 1
    rising = [math.fsum(math.log(alpha + j) for j in range(c)) for c in range(n + 1)]
    log_fact = [math.fsum(math.log(j) for j in range(1, c + 1)) for c in range(n + 1)]
    base = [log_fact[n], -math.fsum(math.log(k * alpha + j) for j in range(n))]
    terms, total = [], []
    # the k-1 bars of each stars-and-bars string of n stars cut out one count vector
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        edges = (-1, *bars, n + k - 1)
        counts = [b - a - 1 for a, b in zip(edges, edges[1:])]
        logp = math.fsum(base + [rising[c] for c in counts] + [-log_fact[c] for c in counts])
        p = math.exp(logp)
        total.append(p)
        terms.append(-p * logp)
    assert abs(math.fsum(total) - 1.0) < 1e-12, "pmf must sum to 1"
    return math.fsum(terms) / math.log(2)


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


def infer_at(queried_idx, patterns, target_idx) -> tuple[np.ndarray, np.ndarray]:
    """``batch.infer_labels`` asked about named points.

    Points are named by their index in x order; ``queried_idx`` is sorted,
    ``patterns`` holds its points' patterns as a (d, len(queried_idx))
    block, and ``target_idx`` is disjoint from it.  Returns (positions into
    target_idx, inferred signs) for the inferable targets only.
    """
    queried_idx = np.asarray(queried_idx, dtype=np.int64)
    target_idx = np.asarray(target_idx, dtype=np.int64)
    size = max(queried_idx.max(initial=-1), target_idx.max(initial=-1)) + 1
    inferred = infer_labels(queried_idx, size, patterns)[target_idx]
    positions = np.flatnonzero(inferred)
    return positions, inferred[positions]


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


def reference_sample_and_search(instance, oracle, rng) -> AvgCaseResult:
    """Reference for ``sample_search.sample_and_search``: the flip count of
    phase 1 kept by a ``flip_delta`` rule over a dict of signs, recomputing
    each new probe's change from its neighbours as three separate terms.
    The promised root count is the instance's degree bound d."""
    d_roots = instance.d
    n = instance.n
    points = instance.points
    order_of_query = rng.permutation(n)

    queried: list[int] = []  # sorted point indices
    signs: dict[int, int] = {}
    flips = 0
    z = 0
    case = "a"

    def flip_delta(pos: int, idx: int, s: int) -> int:
        delta = 0
        left = queried[pos - 1] if pos > 0 else None
        right = queried[pos] if pos < len(queried) else None
        if left is not None and signs[left] != s:
            delta += 1
        if right is not None and signs[right] != s:
            delta += 1
        if left is not None and right is not None and signs[left] != signs[right]:
            delta -= 1
        return delta

    for idx in order_of_query:
        idx = int(idx)
        s = oracle.query(points[idx], 0)
        z += 1
        pos = bisect.bisect_left(queried, idx)
        flips += flip_delta(pos, idx, s)
        queried.insert(pos, idx)
        signs[idx] = s
        if flips > d_roots:
            raise DegreeViolation(f"{flips} flips seen but only {d_roots} roots promised")
        if flips == d_roots and d_roots > 0:
            case = "b"
            break

    labels = np.zeros(n, dtype=np.int8)
    search_queries = 0

    if case == "a":
        for idx, s in signs.items():
            labels[idx] = s
        return AvgCaseResult(labels=labels, z=z, search_queries=search_queries, case="a")

    def ask(idx: int) -> int:
        nonlocal search_queries
        search_queries += 1
        return oracle.query(points[idx], 0)

    boundaries = []
    for lo, hi in zip(queried, queried[1:]):
        if signs[lo] != signs[hi]:
            boundaries.append(find_flip(ask, lo, hi, signs[lo]))

    sign = signs[queried[0]]
    prev = 0
    for b in boundaries:
        labels[prev : b + 1] = sign
        sign = -sign
        prev = b + 1
    labels[prev:] = sign
    return AvgCaseResult(labels=labels, z=z, search_queries=search_queries, case="b")


def query_sandwich(level_signs: dict, n: int) -> tuple[int, int]:
    """Least and most queries the iterative learner spends, given its level signs.

    A level's segments are the maximal runs on which every higher level's
    sign is constant.  A segment lo..hi costs 1 query if lo = hi, and 2 if
    its endpoint signs agree; otherwise 2 plus a binary search over hi - lo,
    which takes between floor(log2(hi - lo)) and ceil(log2(hi - lo)) probes.
    """
    least = most = 0
    changes = np.zeros(max(n - 1, 0), dtype=bool)
    for order in sorted(level_signs, reverse=True):
        signs = level_signs[order]
        lo = 0
        for hi in np.flatnonzero(changes).tolist() + [n - 1]:
            if lo == hi:
                least, most = least + 1, most + 1
            elif signs[lo] == signs[hi]:
                least, most = least + 2, most + 2
            else:
                span = hi - lo
                least += 2 + span.bit_length() - 1  # floor(log2 span)
                most += 2 + (span - 1).bit_length()  # ceil(log2 span)
            lo = hi + 1
        changes |= signs[1:] != signs[:-1]
    return least, most


def check_sample_search_accounting(config, trial) -> None:
    """Assert that a sample_search trial's counts are what its own stream implies.

    The trial's stream is replayed: ``random_instance``, then
    ``rng.permutation(n)``, the probe order, then the hidden polynomial's
    signs at every point.  A probe never removes a flip among the probes read
    in x order, so the flip count grows with the number of probes k, and
    ``z`` must be the first k that shows d flips (case "b"), or n if even all
    n points show fewer (case "a").  Phase 2 searches each flip bracket, the
    points strictly between two neighbouring probes of opposite sign, L apart
    in index: its queries lie between the sums of floor(log2 L) and of
    ceil(log2 L).  The labels must be the hidden polynomial's signs.
    """
    row, result = trial.row, trial.result
    d, n = row["d"], row["n"]
    rng = trial_rng(config.master_seed, row["seed_stream"])
    inst = random_instance(
        n, config.root_model(d), rng, backend=config.backend, random_leading=config.random_leading
    )
    assert np.array_equal(inst.points, trial.instance.points), "replay draws other points"
    assert inst.roots == trial.instance.roots, "replay draws other roots"
    order = rng.permutation(n)
    signs = eval_sign_block((inst.hidden,), inst.points)[0]

    def flips(k: int) -> int:  # sign changes among the first k probes, in x order
        return int(np.count_nonzero(np.diff(signs[np.sort(order[:k])])))

    assert np.array_equal(result.labels, signs), "labels are not the hidden signs"
    assert row["correct"] == bool(np.array_equal(signs, true_labels(inst)))
    search = row["queries_total"] - row["z"]
    assert search == result.search_queries, (row, result.search_queries)
    if flips(n) < d:
        assert (row["case"], row["z"], search) == ("a", n, 0), row
        return
    z = bisect.bisect_left(range(n + 1), d, key=flips)  # the first k with d flips
    assert (row["case"], row["z"]) == ("b", z), (row, z)
    probes = np.sort(order[:z])
    widths = np.diff(probes)[np.diff(signs[probes]) != 0].tolist()
    assert len(widths) == d
    least = sum(w.bit_length() - 1 for w in widths)  # floor(log2 L)
    most = sum((w - 1).bit_length() for w in widths)  # ceil(log2 L)
    assert least <= search <= most, (row, widths)


def fraction_from_roots(roots, leading: int = 1) -> Polynomial:
    """Reference for exact ``from_roots``: leading * prod(x - r_i) expanded
    term by term in ``Fraction``/int arithmetic, then handed to ``Polynomial``."""
    coeffs = [1]
    for r in sorted(roots):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += -r * c
            nxt[i + 1] += c
        coeffs = nxt
    return Polynomial([leading * c for c in coeffs])


def _times(cs: list, factor: list) -> list:
    """The product of two polynomials given by ascending coefficient lists."""
    out = [0] * (len(cs) + len(factor) - 1)
    for i, c in enumerate(cs):
        for j, f in enumerate(factor):
            out[i + j] += c * f
    return out


def full_class_instances(max_d: int = 5, max_n: int = 400):
    """A hypothesis strategy for exact instances of any PTF of degree at most d.

    The hidden polynomial is lead * prod(x - r) * prod((x - a)^2 + b^2): a
    leading coefficient of either sign and any positive rational size, distinct
    real roots r anywhere (some on sample points, some outside the points'
    range), and quadratic factors with b > 0, which are positive everywhere.
    Its degree runs from 0 to d.  The points are n >= 3 distinct multiples of
    1/256 in [-8, 8), so both the float filter (|x| <= 1) and integer Horner
    answer queries.  ``Instance.roots`` lists the real roots only, so
    ``true_labels`` reads the labels off them and the leading sign.

    hypothesis is imported here, not with this module: ``sweepbench/run.py``
    imports this module, and hypothesis would add about 16 MB to its memory.
    """
    from hypothesis import strategies as st

    @st.composite
    def instances(draw) -> Instance:
        d = draw(st.integers(1, max_d))
        n = draw(st.integers(3, max_n))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        points = np.sort(rng.choice(2**12, size=n, replace=False)) / 256 - 8
        rational = st.fractions(-12, 12, max_denominator=64)
        positive = st.fractions(Fraction(1, 64), 4, max_denominator=64)
        on_point = st.integers(0, n - 1).map(lambda i: Fraction(points[i]))
        degree = draw(st.integers(0, d))
        pairs = draw(st.integers(0, degree // 2))
        size = degree - 2 * pairs
        real = draw(
            st.lists(st.one_of(rational, on_point), min_size=size, max_size=size, unique=True)
        )
        lead = draw(st.sampled_from([-1, 1])) * draw(positive)
        coeffs = list(fraction_from_roots(real, leading=lead).coeffs)
        for _ in range(pairs):
            a, b = draw(rational), draw(positive)
            coeffs = _times(coeffs, [a * a + b * b, -2 * a, 1])
        return Instance(points=points, hidden=Polynomial(coeffs), d=d, roots=tuple(sorted(real)))

    return instances()


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
    if isinstance(x, np.integer):
        x = Fraction(int(x))  # no int64 wrap
    else:  # a numpy float (float32 too) widens to float64 exactly
        x = Fraction(float(x) if isinstance(x, np.floating) else x)
    value = Fraction(0)
    for c in reversed(cs):
        value = value * x + c
    return value


def reference_sign(coeffs, x, order: int = 0) -> int:
    """Reference for ``Polynomial.eval_sign``: the sign of ``exact_value``, sign(0) = +1."""
    return -1 if exact_value(coeffs, x, order) < 0 else 1


def reference_signs(coeffs, xs, order: int = 0) -> list[int]:
    """``reference_sign`` at every point of xs, for long point lists.

    The derivative is taken by the power rule on ``Fraction``s once; its
    coefficients are then scaled to integers C_i by their common
    denominator, and at x = a / b (b > 0) the sign is that of the integer
    sum(C_i a**i b**(deg - i)), which has the sign of the value.
    """
    cs = [Fraction(c) for c in coeffs]
    for _ in range(order):
        cs = [i * cs[i] for i in range(1, len(cs))]
    den = math.lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    out = []
    for x in xs:
        x = Fraction(int(x)) if isinstance(x, np.integer) else Fraction(x)
        a, b = x.numerator, x.denominator
        total, apow, bpow = 0, 1, b ** (len(ints) - 1) if ints else 1
        for c in ints:
            total += c * apow * bpow
            apow *= a
            bpow //= b
        out.append(-1 if total < 0 else 1)
    return out


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

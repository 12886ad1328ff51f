"""Per-layer timing of ptf_lab, taken from outside the package.

``Tracer.installed()`` swaps each public function through which the harness
enters a layer for a wrapper that times every call, and puts the originals
back on exit.  A layer's self time is its calls' duration minus the time of
the traced calls made inside them; work counts are read from the calls'
arguments and results.  Only aggregates are kept, so tracing holds no
per-call memory.
"""

from __future__ import annotations

import functools
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

from ptf_lab import batch, harness, iterative, sample_search
from ptf_lab.oracle import Oracle
from ptf_lab.polynomial import Polynomial


@contextmanager
def patched(replacements):
    """Set each (owner, name, value) attribute for the duration of the block."""
    with ExitStack() as stack:
        for owner, name, value in replacements:
            original = getattr(owner, name)
            stack.callback(setattr, owner, name, original)
            setattr(owner, name, value)
        yield


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, count: int) -> None:
        self.work[name] = self.work.get(name, 0) + count


def _requests(stats, args, result):
    stats.add("requests", len(args[1]))


def _segments(stats, args, result):
    stats.add("segments", sum(result.segment_counts.values()))


def _loop_rounds(stats, args, result):
    stats.add("loop_rounds", result.loop_rounds)


def _probes(stats, args, result):
    stats.add("z", result.z)
    stats.add("search_queries", result.search_queries)


# (layer, owner, attribute, work counter).  The harness binds random_instance,
# true_labels and write_outputs into its own namespace, so they are swapped there.
TARGETS = [
    ("polynomial.eval_sign", Polynomial, "eval_sign", None),
    ("polynomial.eval_sign_many", Polynomial, "eval_sign_many", None),
    ("oracle.init", Oracle, "__init__", None),
    ("oracle.query", Oracle, "query", None),
    ("oracle.query_batch", Oracle, "query_batch", _requests),
    ("iterative.learn_all", iterative, "learn_all", _segments),
    ("batch.learn_all", batch, "learn_all", _loop_rounds),
    ("sample_search.sample_and_search", sample_search, "sample_and_search", _probes),
    ("distributions.random_instance", harness, "random_instance", None),
    ("instances.true_labels", harness, "true_labels", None),
    ("harness.write_outputs", harness, "write_outputs", None),
]
ROOT = "harness.run"


class Tracer:
    def __init__(self):
        self.layers = {layer: LayerStats() for layer, *_ in TARGETS}
        self.layers[ROOT] = LayerStats()
        self._stack: list[float] = []  # child time of each open call

    def _wrap(self, layer, fn, work):
        stats = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
            if work is not None:
                work(stats, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        with patched(
            (owner, name, self._wrap(layer, getattr(owner, name), work))
            for layer, owner, name, work in TARGETS
        ):
            yield

    def run(self, config):
        """harness.run(config) as the root layer; call inside installed()."""
        return self._wrap(ROOT, harness.run, None)(config)

    def metrics(self, trials: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), of everything traced over `trials` trials."""
        s = self.layers

        def per_call(layer, attr, scale):
            st = s[layer]
            return getattr(st, attr) / st.calls * scale if st.calls else 0.0

        def per_trial(layer, attr, scale=1.0):
            return getattr(s[layer], attr) * scale / trials

        def work(layer, name):
            return s[layer].work.get(name, 0) / trials

        batches = s["oracle.query_batch"]
        search = "sample_search.sample_and_search"
        return {
            "polynomial.eval_sign_us": (per_call("polynomial.eval_sign", "self_s", 1e6), "us/call"),
            "polynomial.eval_sign_calls": (per_trial("polynomial.eval_sign", "calls"), "count"),
            "polynomial.eval_sign_many_us": (
                per_call("polynomial.eval_sign_many", "self_s", 1e6),
                "us/call",
            ),
            "oracle.query_self_us": (per_call("oracle.query", "self_s", 1e6), "us/call"),
            "oracle.query_batch_self_ms": (per_trial("oracle.query_batch", "self_s", 1e3), "ms"),
            "oracle.requests_per_batch": (
                batches.work.get("requests", 0) / batches.calls if batches.calls else 0.0,
                "count",
            ),
            "oracle.init_us": (per_call("oracle.init", "total_s", 1e6), "us"),
            "iterative.self_ms": (per_trial("iterative.learn_all", "self_s", 1e3), "ms"),
            "iterative.segments_per_trial": (work("iterative.learn_all", "segments"), "count"),
            "batch.self_ms": (per_trial("batch.learn_all", "self_s", 1e3), "ms"),
            "batch.loop_rounds_per_trial": (work("batch.learn_all", "loop_rounds"), "count"),
            "sample_search.self_ms": (per_trial(search, "self_s", 1e3), "ms"),
            "sample_search.z_per_trial": (work(search, "z"), "count"),
            "sample_search.search_queries_per_trial": (work(search, "search_queries"), "count"),
            "distributions.random_instance_ms": (
                per_trial("distributions.random_instance", "total_s", 1e3),
                "ms",
            ),
            "instances.true_labels_ms": (per_trial("instances.true_labels", "total_s", 1e3), "ms"),
            "harness.overhead_ms": (per_trial(ROOT, "self_s", 1e3), "ms"),
            "harness.write_outputs_ms": (
                per_call("harness.write_outputs", "total_s", 1e3),
                "ms/run",
            ),
        }

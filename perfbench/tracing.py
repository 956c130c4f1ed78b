"""Spans recorded from the benchmark's side by wrapping module attributes.

Only per-edge or coarser calls are wrapped; the matcher's per-advance
methods and the sampled partition's per-color lookups are not, because
wrapping them costs more than the work they do.  ``PhaseReducer.feed``
derives the bank's advance and win counts from its arguments and result.
"""

from __future__ import annotations

import time

from onlinecolor import colorer, harness, oracle, stream


def _feed_count(args, out):
    return (len(args[3]), out is not None)  # (self, u, v, sublist) -> (advances, won)


def _run_fast_count(args, out):
    return len(args[0])  # (us, vs, n, delta, q, rng)


def _stream_m(args, out):
    return args[0].m


# (owner, attribute, span name, count function)
WRAPPED = (
    (stream, "parse_stream", "stream.parse_stream", None),
    (colorer, "degree_schedule", "colorer.degree_schedule", None),
    (colorer, "run_generic", "colorer.run_generic", None),
    (colorer.PhaseReducer, "feed", "colorer.PhaseReducer.feed", _feed_count),
    (colorer, "greedy_color", "colorer.greedy_color", _stream_m),
    (harness, "validate_coloring", "harness.validate_coloring", None),
    (harness, "run_fast", "matcher.run_fast", _run_fast_count),
    (harness, "run", "matcher.run", _stream_m),
    (harness, "check_run_invariants", "matcher.check_run_invariants", None),
    (harness, "exact_marginals", "oracle.exact_marginals", None),
    (oracle, "exact_colored_marginals", "oracle.exact_colored_marginals", None),
)


class Tracer:
    """Spans as [name, start, end, parent index, job id, count], kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, out)
            return out

        return traced

    def call(self, name: str, fn):
        return self.wrap(name, fn)()

    def patches(self) -> list:
        return [(owner, attr, self.wrap(name, getattr(owner, attr), count))
                for owner, attr, name, count in WRAPPED]

    def by_job(self) -> dict:
        """job id -> {span name: [total s, self s, calls, counts]}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for k, (name, t0, t1, _, job, count) in enumerate(self.spans):
            agg = out.setdefault(job, {}).setdefault(name, [0.0, 0.0, 0, []])
            agg[0] += t1 - t0
            agg[1] += t1 - t0 - child[k]
            agg[2] += 1
            if count is not None:
                agg[3].append(count)
        return out


class Patched:
    """Installs (owner, attribute, replacement) triples; restores on exit."""

    def __init__(self, patches: list):
        self.patches = patches
        self.saved: list = []

    def __enter__(self):
        for owner, attr, new in self.patches:
            self.saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()

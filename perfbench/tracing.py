"""In-memory span tracing around vanetsim's public call boundaries.

The tracer wraps module attributes that vanetsim looks up at call time
(for example ``vanetsim.encounters.simulate_trip``, which
``monte_carlo_throughput`` resolves on every trial), so no program file
changes. Each wrapper records a span (layer, start, end, parent) and adds
the layer's counts, which it reads from the call's arguments and result.
A layer's self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "bench"


def _sample_counts(args, result, parent):
    n = int(args[1])
    if parent == "encounters.trip":
        return {"velocities": n, "trip_arrivals": n}
    return {"velocities": n}


def _trip_counts(args, result, parent):
    return {"encounters": result.n_encounters}


def _download_counts(args, result, parent):
    _, packets, segments = result
    return {"packets": packets, "segments": segments}


def _encode_counts(args, result, parent):
    blocks, vector = args
    # computed from the vector's popcount, not measured
    return {"bytes_xored": vector.bits.bit_count() * len(blocks[0])}


def _receive_counts(args, result, parent):
    return {"innovative": int(result)}


def _solve_counts(args, result, parent):
    return {"shrink_steps": len(args[0]) - result.active_set_size}


def boundaries(vs):
    """(owner, attribute, layer, counter) for every traced call boundary.

    ``vs`` is the imported ``vanetsim`` package. An attribute is listed in
    every module that calls it, because each module holds its own binding.
    """
    enc, fnt, cli = vs.encounters, vs.fountain, vs.cli
    return [
        (enc, "sample_velocities", "traffic.sample", _sample_counts),
        (enc, "simulate_trip", "encounters.trip", _trip_counts),
        (enc, "monte_carlo_throughput", "encounters.mc", None),
        (cli, "monte_carlo_throughput", "encounters.mc", None),
        (enc, "simulate_download_time", "encounters.download", _download_counts),
        (cli, "simulate_download_time", "encounters.download", _download_counts),
        (enc, "encode", "fountain.encode", _encode_counts),
        (fnt.DecoderState, "receive", "fountain.receive", _receive_counts),
        (fnt.DecoderState, "try_decode", "fountain.decode", None),
        (fnt, "sample_uniform_vector", "fountain.vector", None),
        (cli, "scenario_from_dict", "traffic.schema", None),
        (cli, "analytic_report", "analysis", None),
        (cli, "expected_throughput_class", "analysis", None),
        (cli, "expected_throughput_continuous", "analysis", None),
        (cli, "expected_download_time", "analysis", None),
        (cli, "optimize_pmf", "pmf_opt.solve", _solve_counts),
        (cli, "main", "cli", None),
    ]


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str):
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, layer: str, counter):
        """``fn`` recording a ``layer`` span and its counts on every call."""
        spans, stack, counts = self.spans, self._stack, self.counts[layer]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append([layer, clock(), 0.0, parent])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            counts["calls"] += 1
            if counter is not None:
                parent_layer = spans[parent][0] if parent >= 0 else None
                for key, value in counter(args, result, parent_layer).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, vs):
        """Wrap every boundary of the ``vanetsim`` package ``vs``; undo on exit."""
        saved = []
        try:
            for owner, name, layer, counter in boundaries(vs):
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self.wrap(original, layer, counter))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per layer, and the wall time of the root spans.

        Raises ``ValueError`` if a span is still open, or a child span is
        not inside its parent or overlaps a sibling: either would make the
        self times double count.
        """
        if self._stack:
            raise ValueError("spans still open")
        child_time = [0.0] * len(self.spans)
        last_end: dict[int, float] = {}
        wall = 0.0
        for idx, (layer, start, end, parent) in enumerate(self.spans):
            if end < start:
                raise ValueError(f"span {idx} ({layer}) ends before it starts")
            if parent < 0:
                wall += end - start
                continue
            _, p_start, p_end, _ = self.spans[parent]
            if start < p_start or end > p_end:
                raise ValueError(f"span {idx} ({layer}) leaves its parent")
            if start < last_end.get(parent, p_start):
                raise ValueError(f"span {idx} ({layer}) overlaps a sibling")
            last_end[parent] = end
            child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for idx, (layer, start, end, _) in enumerate(self.spans):
            totals[layer] += (end - start) - child_time[idx]
        return dict(totals), wall

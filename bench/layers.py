"""Span tracing of the program's layers, installed from outside the program.

``Tracer`` replaces public entry points of ``heavyagg`` (and
``scipy.integrate.quad``) with wrappers that record one span per call:
``(name, start, end, parent, n)``, where ``parent`` indexes the enclosing span
(-1 at top level) and ``n`` is the number of draws the call asked for (or
None).  Spans stay in memory.  Leaving the ``with`` block puts every original
object back; ``patched_targets`` lets the runner prove that.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np
import scipy.integrate

from heavyagg import aggregation, heavy_tail, limit_fields, regenerative, shot_noise


def _law_and_size(args, kwargs):
    """(law, draw count) of ``sample(self, rng, size)`` and ``sample_length_biased_pair(dist, rng, size)``."""
    size = args[2] if len(args) > 2 else kwargs.get("size")
    if size is None:
        return args[0], 1
    return args[0], int(np.prod(size)) if isinstance(size, tuple) else int(size)


# (owner, attribute, span name, info function).  Callers reach each of these
# through the owner's attribute at call time, which is what makes patching work.
TARGETS = (
    (aggregation, "aggregate", "aggregation.aggregate", None),
    (aggregation, "integrated_path_batch", "shot_noise.path", None),
    (aggregation, "integrated_path", "regenerative.path", None),
    (heavy_tail.RegVaryingDist, "sample", "heavy_tail.sample", _law_and_size),
    (heavy_tail.ExponentialDist, "sample", "heavy_tail.sample", _law_and_size),
    (shot_noise, "sample_length_biased_pair", "heavy_tail.aged_pair", _law_and_size),
    (regenerative, "sample_length_biased_pair", "heavy_tail.aged_pair", _law_and_size),
    (limit_fields, "sample_telecom", "limit_fields.telecom", None),
    (limit_fields, "intermediate_kappa_field_chf", "oracle.kappa", None),
    (limit_fields, "telecom_logchf", "oracle.chf", None),
    (shot_noise, "intermediate_logchf", "oracle.chf", None),
    (scipy.integrate, "quad", "oracle.quad", None),
)

ORIGINALS = tuple(vars(owner)[attr] for owner, attr, _, _ in TARGETS)


def patched_targets() -> list[str]:
    """Targets that do not hold their original object (empty when untraced)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr, _, _), original in zip(TARGETS, ORIGINALS)
        if vars(owner)[attr] is not original
    ]


class Tracer:
    """Context manager that wraps every target while it is active."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def __enter__(self):
        try:
            for (owner, attr, name, info), original in zip(TARGETS, ORIGINALS):
                setattr(owner, attr, self._wrap(original, name, info))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self) -> None:
        for (owner, attr, _, _), original in zip(TARGETS, ORIGINALS):
            setattr(owner, attr, original)

    def reset(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, original, name, info):
        tracer, stack, clock = self, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, info(args, kwargs) if info else None)

        return wrapper


def span_table(spans) -> dict:
    """Per span name: calls, draws, inclusive seconds (outermost spans only) and self seconds."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    table = defaultdict(lambda: {"calls": 0, "draws": 0, "total_s": 0.0, "self_s": 0.0})
    for s, d, c in zip(spans, dur, child):
        row = table[s[0]]
        row["calls"] += 1
        if s[4] is not None:
            row["draws"] += s[4][1]
        if s[3] < 0 or spans[s[3]][0] != s[0]:
            row["total_s"] += d
        row["self_s"] += d - c
    return dict(table)


def layer_counts(spans, wave_law) -> dict:
    """Exact work counts of one traced job (they repeat for a fixed seed)."""
    pulses = waves = cycles = 0
    for name, _, _, parent, info in spans:
        if info is None or parent < 0:
            continue
        under = spans[parent][0]
        if under == "shot_noise.path":
            # every duration draw and every aged pair is one pulse (the
            # amplitude law is a point mass, which the tracer leaves alone)
            pulses += info[1]
        elif under == "regenerative.path" and name == "heavy_tail.sample" and info[0] == wave_law:
            waves += 1
            cycles += info[1]
    table = span_table(spans)
    calls = lambda name: table.get(name, {}).get("calls", 0)  # noqa: E731
    return {
        "shot_noise.pulses": pulses,
        "regenerative.waves": waves,
        "regenerative.cycles": cycles,
        "heavy_tail.sample_calls": calls("heavy_tail.sample"),
        "heavy_tail.draws": table.get("heavy_tail.sample", {}).get("draws", 0),
        "aggregation.path_calls": calls("shot_noise.path") + calls("regenerative.path"),
        "oracle.quad_calls": calls("oracle.quad"),
    }


def layer_shares(spans, job_s: float) -> dict:
    """Each layer's time as a percentage of the traced job's wall time."""
    table = span_table(spans)

    def pct(name, key="total_s"):
        return 100.0 * table.get(name, {}).get(key, 0.0) / job_s

    return {
        "shot_noise.path_pct": pct("shot_noise.path"),
        "regenerative.path_pct": pct("regenerative.path"),
        "heavy_tail.sample_pct": pct("heavy_tail.sample", "self_s") + pct("heavy_tail.aged_pair", "self_s"),
        "aggregation.self_pct": pct("aggregation.aggregate", "self_s"),
        "limit_fields.telecom_pct": pct("limit_fields.telecom"),
        "oracle.kappa_pct": pct("oracle.kappa"),
        "oracle.chf_pct": pct("oracle.chf"),
    }

"""The aggregate random field: centered, normalized traffic over scaled windows.

A source model (Poisson shot noise or a regenerative cycle process) is summed
over ``floor(y * lambda**gamma)`` independent copies, each integrated over the
time window ``(0, lambda * x]``.  The field value is

    V(x, y) = lambda**(-H) * (A(x, y) - E A(x, y)),

with the mean subtracted analytically so that centering error never leaks into
the tails.  Replicates share one set of simulated sources across the whole
(x, y) grid: the joint law over the grid is the object of interest, so grid
points must be read off common paths rather than re-simulated.

Each replicate's sources are drawn as lanes of one path call per chunk of
replicates, every y block at once; prefix sums over x and over the lanes
then give A at every cut, so values at a smaller y reuse the draws of the
larger verbatim.  Regenerative sources take one lane per source and A at
y_j is the sum of the first ``count_j`` lanes.  Shot-noise sources take one
lane per y block: by Poisson superposition the block's ``m`` unit-rate copies
are one source of ``m``-fold rate, so the cost grows with the pulse count,
not the source count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .regenerative import RegenModel, integrated_path
from .shot_noise import ShotNoiseSource, integrated_path_batch

__all__ = ["AggregateSample", "aggregate", "rect_increment"]

# per-call budget in array cells, lanes times windows for both input classes
# (a call's lanes are its replicates times the lanes per replicate); the
# chunk size derives from the grid and the source counts only, never from
# drawn values, so a given argument tuple always consumes the generator
# identically.  The regenerative walk's memory grows with its lanes; the
# shot-noise kernel walks its pulses in fixed blocks (shot_noise.PULSE_BLOCK),
# so there the budget bounds the call's output and per-cell counts
CHUNK_CELL_BUDGET = 4_000_000
# refuse calls whose output matrix alone would dwarf desk-scale memory
MAX_OUTPUT_CELLS = 1 << 26
# refuse calls where even a single replicate's expected working set is huge
MAX_SINGLE_REP_CELLS = 1 << 28


@dataclass(frozen=True)
class AggregateSample:
    """Replicate ensemble of the centered, normalized aggregate field.

    ``values[r, i, j]`` is the field at ``(x_grid[i], y_grid[j])`` for
    replicate ``r``.  ``source_counts[j]`` is the source count at the j-th y
    cut; consecutive differences are the per-block source counts.  ``meta``
    records how the integrated paths were evaluated (family, mean level, the
    path-call lanes per replicate ``lanes_per_rep``, the replicates per call
    ``reps_per_call`` and, per call, the wall seconds spent in the path
    sampler in ``path_s``) and lists in ``zero_source_y`` the y cuts that hold
    no source, enough to audit a run without rerunning it.
    """

    lam: float
    gamma: float
    H: float
    x_grid: np.ndarray
    y_grid: np.ndarray
    values: np.ndarray
    source_counts: np.ndarray
    meta: dict


def _mean_level_of(src) -> float:
    if isinstance(src, ShotNoiseSource):
        return float(src.mean_level())
    return float(src.mean_rate)


def aggregate(src, lam: float, gamma: float, H: float, x_grid, y_grid, n_rep: int, rng) -> AggregateSample:
    """Simulate the centered aggregate field on a rectangular grid.

    ``src`` is a ShotNoiseSource or a RegenModel.  Each replicate simulates
    ``floor(y_max * lam**gamma)`` sources once, reads their integrated paths at
    every ``lam * x`` cut, prefix-sums over the lanes that carry them, subtracts
    the exact mean ``lam * x * count * EX``, and divides by ``lam**H``.
    """
    if not isinstance(src, (ShotNoiseSource, RegenModel)):
        raise TypeError("src must be a ShotNoiseSource or a RegenModel")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    if gamma < 0 or not math.isfinite(gamma):
        raise ValueError("gamma must be nonnegative")
    if not math.isfinite(H):
        raise ValueError("H must be finite")
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    xg = nm.strict_grid("x_grid", x_grid)
    yg = nm.strict_grid("y_grid", y_grid)

    with np.errstate(over="ignore"):
        counts = np.floor(yg * np.float64(lam) ** gamma)
    # the int64 cast wraps silently; NaN fails this comparison too
    if not np.all(counts < 2.0**63):
        raise ValueError("source counts y_grid * lam**gamma overflow 64-bit integers")
    counts = counts.astype(np.int64)
    blocks = np.diff(counts, prepend=0)
    cuts = lam * xg
    nx, ny = xg.size, yg.size
    if n_rep * nx * ny > MAX_OUTPUT_CELLS:
        raise ValueError("memory guard: replicate matrix n_rep * nx * ny is too large")

    mean_level = _mean_level_of(src)
    shot = isinstance(src, ShotNoiseSource)
    # expected working cells for one replicate of one source copy
    per_copy_cells = max(src.rate * (cuts[-1] + src.mean_duration) if shot else 1.0, 1.0) * nx
    if counts[-1] * per_copy_cells > MAX_SINGLE_REP_CELLS:
        raise ValueError("memory guard: sources times grid size exceeds the single-replicate cap")

    # A at y_j is the prefix sum of a replicate's lanes up to lane ends[j]
    lanes, ends = (ny, np.arange(1, ny + 1)) if shot else (int(counts[-1]), counts)
    chunk = max(1, min(n_rep, CHUNK_CELL_BUDGET // max(lanes * nx, 1)))
    read = ends > 0
    A = np.zeros((n_rep, nx, ny))
    path_s: list[float] = []
    # a grid without sources makes no path call
    for lo in range(0, n_rep if counts[-1] else 0, chunk):
        n = min(chunk, n_rep - lo)
        t0 = time.perf_counter()
        if shot:
            inc = integrated_path_batch(src, cuts, rng, n * ny, np.tile(blocks, n))
        else:
            inc = integrated_path(src, cuts, rng, n * lanes)
        path_s.append(time.perf_counter() - t0)
        inc = inc.reshape(n, lanes, nx)
        np.cumsum(inc, axis=2, out=inc)
        np.cumsum(inc, axis=1, out=inc)
        A[lo:lo + n][:, :, read] = inc[:, ends[read] - 1, :].transpose(0, 2, 1)

    mean = cuts[:, None] * counts[None, :] * mean_level
    values = (A - mean[None, :, :]) / float(lam) ** H
    meta = {
        "kind": "shot-noise" if shot else "regenerative",
        "mean_level": mean_level,
        "window_cuts": cuts.tolist(),
        "lanes_per_rep": lanes,
        "reps_per_call": chunk,
        "path_s": path_s,
        "zero_source_y": yg[counts == 0].tolist(),
    }
    return AggregateSample(
        lam=float(lam),
        gamma=float(gamma),
        H=float(H),
        x_grid=xg,
        y_grid=yg,
        values=values,
        source_counts=counts,
        meta=meta,
    )


def _corner_index(grid: np.ndarray, value: float, name: str) -> int | None:
    """Grid index of a corner coordinate; None encodes the zero boundary."""
    if value == 0.0:
        return None
    hits = np.flatnonzero(grid == value)
    if hits.size != 1:
        raise ValueError(f"{name}={value} is not a grid point")
    return int(hits[0])


def rect_increment(sample: AggregateSample, x0: float, x1: float, y0: float, y1: float) -> np.ndarray:
    """Per-replicate rectangular increment of the field over (x0,x1] x (y0,y1].

    Corners must sit on the sample's grids; 0 is always a valid coordinate
    because the centered field vanishes on the axes.  A degenerate rectangle
    (x0 == x1 or y0 == y1) returns exact zeros; reversed corners raise.
    """
    if x0 > x1 or y0 > y1:
        raise ValueError(f"need x0 <= x1 and y0 <= y1, got ({x0}, {x1}] x ({y0}, {y1}]")
    ix0 = _corner_index(sample.x_grid, x0, "x0")
    ix1 = _corner_index(sample.x_grid, x1, "x1")
    iy0 = _corner_index(sample.y_grid, y0, "y0")
    iy1 = _corner_index(sample.y_grid, y1, "y1")

    def value(ix, iy):
        if ix is None or iy is None:
            return np.zeros(sample.values.shape[0])
        return sample.values[:, ix, iy]

    # differencing in y first, then in x, cancels exactly when either side is empty
    return (value(ix1, iy1) - value(ix1, iy0)) - (value(ix0, iy1) - value(ix0, iy0))

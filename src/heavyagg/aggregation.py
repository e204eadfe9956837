"""The aggregate random field: centered, normalized traffic over scaled windows.

A source model (Poisson shot noise or a regenerative cycle process) is summed
over ``floor(y * lambda**gamma)`` independent copies, each integrated over the
time window ``(0, lambda * x]``.  The field value is

    V(x, y) = lambda**(-H) * (A(x, y) - E A(x, y)),

with the mean subtracted analytically so that centering error never leaks into
the tails.  Replicates share one set of simulated sources across the whole
(x, y) grid: the joint law over the grid is the object of interest, so grid
points must be read off common paths rather than re-simulated.

Evaluation walks the y-grid in blocks of new sources (the count difference
between consecutive cut points) and accumulates prefix sums, so values at a
smaller y reuse the block draws verbatim.  Shot-noise blocks exploit Poisson
superposition: ``m`` unit-rate copies equal one source of ``m``-fold rate,
which keeps the pulse count, not the source count, as the cost driver.
Regenerative blocks simulate ``m`` lanes per replicate and sum them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .regenerative import RegenModel, integrated_path
from .shot_noise import ShotNoiseSource, integrated_path_batch

__all__ = ["AggregateSample", "aggregate", "rect_increment"]

# per-chunk working-set budget in array cells (pulses or lanes times windows);
# chunk sizes derive from expected workloads only, never from drawn values,
# so a given argument tuple always consumes the generator identically.  For
# regenerative sources it bounds the lanes (replicates times block sources)
# that one call walks at once.  The shot-noise kernel walks its pulses in
# fixed blocks (shot_noise.PULSE_BLOCK), so there a chunk only sets how many
# replicates share one call: the call's memory is bounded by the block, not
# by this budget
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
    cut; consecutive differences are the per-block lane counts.  ``meta``
    records how the integrated paths were evaluated (family, mean level, the
    chunk plan ``block_chunks`` and, per entry of it, the wall seconds spent in
    the path sampler in ``block_path_s``) and lists in ``zero_source_y`` the y
    cuts that hold no source, enough to audit a run without rerunning it.
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
    every ``lam * x`` cut, prefix-sums over the y blocks, subtracts the exact
    mean ``lam * x * count * EX``, and divides by ``lam**H``.
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
    if shot:
        per_rep_load = src.rate * (cuts[-1] + src.mean_duration)
    else:
        per_rep_load = max(cuts[-1] / src.mu, 1.0)
    # expected working cells for one replicate of one source copy
    per_copy_cells = max(per_rep_load if shot else 1.0, 1.0) * nx
    if counts[-1] * per_copy_cells > MAX_SINGLE_REP_CELLS:
        raise ValueError("memory guard: sources times grid size exceeds the single-replicate cap")

    raw = np.zeros((n_rep, nx, ny))
    chunk_plan: list[tuple[int, int]] = []
    path_s: list[float] = []
    for j, m in enumerate(blocks):
        if m == 0:
            continue
        block_cells = m * per_copy_cells
        chunk = max(1, min(n_rep, int(CHUNK_CELL_BUDGET // max(block_cells, 1.0))))
        chunk_plan.append((int(m), chunk))
        if shot:
            block_src = replace(src, rate=src.rate * float(m))

            def draw(n):
                return integrated_path_batch(block_src, cuts, rng, n)
        else:

            def draw(n):
                return integrated_path(src, cuts, rng, n * int(m)).reshape(n, int(m), nx).sum(axis=1)

        spent = 0.0
        for lo in range(0, n_rep, chunk):
            hi = min(lo + chunk, n_rep)
            t0 = time.perf_counter()
            inc = draw(hi - lo)
            spent += time.perf_counter() - t0
            raw[lo:hi, :, j] = np.cumsum(inc, axis=1)
        path_s.append(spent)

    A = np.cumsum(raw, axis=2)
    mean = cuts[:, None] * counts[None, :] * mean_level
    values = (A - mean[None, :, :]) / float(lam) ** H
    meta = {
        "kind": "shot-noise" if shot else "regenerative",
        "mean_level": mean_level,
        "window_cuts": cuts.tolist(),
        "block_chunks": chunk_plan,
        "block_path_s": path_s,
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
    returns exact zeros.
    """
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

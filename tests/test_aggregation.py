"""The aggregate field: shapes, source counts, bounds, centering and guards.

An on-off regenerative source and a unit-rectangle shot-noise source are
aggregated on small grids.  The on-off traffic rate lies in [0, 1], so every
window increment of the uncentered sum is bounded by the source count times
the window length; the analytic centering makes V mean zero at every grid
point, checked within 5 standard errors.
"""

import math

import numpy as np
import pytest

from heavyagg import aggregation as ag
from heavyagg import heavy_tail as ht
from heavyagg import pulses
from heavyagg import regenerative as rg
from heavyagg import shot_noise as sn
from heavyagg import streams


def rng_for(tag, index=0):
    return streams.stream(23, tag, index)


def onoff_model():
    return rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(1.5, 1.0), ht.ExponentialDist(1.0)))


def rect_source():
    return sn.ShotNoiseSource(pulses.RectIndep(ht.DegenerateDist(1.0), ht.RegVaryingDist(1.5, 1.0)))


X_GRID = (0.25, 0.5, 1.0)
Y_GRID = (0.5, 1.0)


def onoff_sample(n_rep=300):
    model = onoff_model()
    lam, gamma = 200.0, 0.5
    H = rg.regime_of(model, gamma).H
    return model, ag.aggregate(model, lam, gamma, H, X_GRID, Y_GRID, n_rep, rng_for("agg/on-off"))


def shot_sample(n_rep=300):
    src = rect_source()
    lam, gamma = 100.0, 0.5
    H = sn.regime_of(src, gamma).H
    return src, ag.aggregate(src, lam, gamma, H, X_GRID, Y_GRID, n_rep, rng_for("agg/shot"))


def uncentered(sample, mean_level):
    cuts = sample.lam * sample.x_grid
    mean = cuts[:, None] * sample.source_counts[None, :] * mean_level
    return sample.values * sample.lam**sample.H + mean[None, :, :]


@pytest.mark.parametrize("make", [onoff_sample, shot_sample])
def test_shape_and_source_counts(make):
    _, s = make(n_rep=40)
    assert s.values.shape == (40, len(X_GRID), len(Y_GRID))
    want = np.floor(np.asarray(Y_GRID) * s.lam**s.gamma).astype(np.int64)
    assert np.array_equal(s.source_counts, want)
    assert s.meta["zero_source_y"] == []
    assert s.meta["window_cuts"] == pytest.approx([s.lam * x for x in X_GRID])
    assert len(s.meta["block_path_s"]) == len(s.meta["block_chunks"])
    assert all(t >= 0.0 for t in s.meta["block_path_s"])


def test_onoff_window_increments_within_rate_bounds():
    model, s = onoff_sample()
    a = uncentered(s, model.mean_rate)
    d_a = np.diff(a, axis=1, prepend=0.0)
    cap = s.source_counts[None, None, :] * s.lam * np.diff(s.x_grid, prepend=0.0)[None, :, None]
    tol = 1e-9 * float(np.max(np.abs(a)))
    assert d_a.min() >= -tol
    assert np.all(d_a <= cap + tol)


@pytest.mark.parametrize("make", [onoff_sample, shot_sample])
def test_field_is_centered(make):
    _, s = make()
    n = s.values.shape[0]
    z = s.values.mean(axis=0) / (s.values.std(axis=0, ddof=1) / math.sqrt(n))
    assert np.max(np.abs(z)) <= 5.0


def test_rect_increment_degenerate_and_full_rectangles():
    _, s = shot_sample(n_rep=40)
    zeros = np.zeros(40)
    assert np.array_equal(ag.rect_increment(s, 0.5, 0.5, 0.0, 1.0), zeros)
    assert np.array_equal(ag.rect_increment(s, 0.25, 1.0, 0.5, 0.5), zeros)
    # the centered field vanishes on the axes, so the rectangle from the origin is V itself
    assert np.array_equal(ag.rect_increment(s, 0.0, 1.0, 0.0, 0.5), s.values[:, 2, 0])
    with pytest.raises(ValueError, match="grid point"):
        ag.rect_increment(s, 0.3, 1.0, 0.0, 1.0)


def test_zero_source_cuts_are_reported():
    # 1000**0.1 = 1.995..., so y = 0.5 holds floor(0.998) = 0 sources
    model = onoff_model()
    s = ag.aggregate(model, 1e3, 0.1, 1.0, (0.5, 1.0), (0.5, 1.0), 20, rng_for("agg/zero"))
    assert s.source_counts.tolist() == [0, 1]
    assert s.meta["zero_source_y"] == [0.5]
    assert np.array_equal(s.values[:, :, 0], np.zeros((20, 2)))


def test_memory_guards():
    with pytest.raises(ValueError, match="memory guard"):
        ag.aggregate(onoff_model(), 10.0, 0.5, 1.0, (1.0,), (0.5, 1.0), ag.MAX_OUTPUT_CELLS, rng_for("agg/guard"))
    with pytest.raises(ValueError, match="memory guard"):
        ag.aggregate(rect_source(), 1e6, 1.0, 1.0, (1.0,), (1.0,), 1, rng_for("agg/guard"))


@pytest.mark.parametrize(
    "grid", [[], [[1.0]], [0.0, 1.0], [-1.0], [1.0, 0.5], [1.0, 1.0], [1.0, math.nan], [math.nan], [1.0, math.inf]]
)
def test_bad_grids_raise(grid):
    rng = rng_for("agg/bad")
    with pytest.raises(ValueError, match="x_grid"):
        ag.aggregate(onoff_model(), 10.0, 0.5, 1.0, grid, (1.0,), 2, rng)
    with pytest.raises(ValueError, match="y_grid"):
        ag.aggregate(onoff_model(), 10.0, 0.5, 1.0, (1.0,), grid, 2, rng)


@pytest.mark.parametrize("make", [onoff_model, rect_source])
def test_source_count_overflow_raises(make):
    # 1e20 sources do not fit int64, and 1e200**2 overflows the float power
    rng = rng_for("agg/overflow")
    for lam, gamma in [(1e20, 1.0), (1e200, 2.0)]:
        with pytest.raises(ValueError, match="y_grid"):
            ag.aggregate(make(), lam, gamma, 1.0, (1.0,), (1.0,), 2, rng)


def test_bad_arguments_raise():
    rng = rng_for("agg/args")
    with pytest.raises(TypeError):
        ag.aggregate(object(), 10.0, 0.5, 1.0, (1.0,), (1.0,), 2, rng)
    for lam, gamma, H, n_rep in [(0.0, 0.5, 1.0, 2), (math.inf, 0.5, 1.0, 2), (10.0, -0.1, 1.0, 2),
                                 (10.0, 0.5, math.nan, 2), (10.0, 0.5, 1.0, 0)]:
        with pytest.raises(ValueError):
            ag.aggregate(onoff_model(), lam, gamma, H, (1.0,), (1.0,), n_rep, rng)

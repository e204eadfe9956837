"""The aggregate field: shapes, source counts, bounds, centering, covariance and guards.

An on-off regenerative source and a unit-rectangle shot-noise source are
aggregated on small grids.  The on-off traffic rate lies in [0, 1], so every
window increment of the uncentered sum is bounded by the source count times
the window length; the analytic centering makes V mean zero at every grid
point, checked within 5 standard errors.  The sources are iid and
stationary, so the covariance of V over the whole grid is exact at every
lam: the shot-noise sample matches it within 5 standard errors, and along a
lam ladder it tends to the covariance of the fractional Brownian sheet.
"""

import itertools
import math

import numpy as np
import pytest

from heavyagg import aggregation as ag
from heavyagg import heavy_tail as ht
from heavyagg import limit_fields as lf
from heavyagg import pulses
from heavyagg import regenerative as rg
from heavyagg import shot_noise as sn
from heavyagg import streams


def rng_for(tag, index=0):
    return streams.stream(23, tag, index)


def onoff_model():
    return rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(1.5, 1.0), ht.ExponentialDist(1.0)))


def rect_source(rate=1.0):
    return sn.ShotNoiseSource(pulses.RectIndep(ht.DegenerateDist(1.0), ht.RegVaryingDist(1.5, 1.0)), rate=rate)


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
    assert s.meta["lanes_per_rep"] == (len(Y_GRID) if s.meta["kind"] == "shot-noise" else s.source_counts[-1])
    assert s.meta["reps_per_call"] == 40
    assert len(s.meta["path_s"]) == 1
    assert all(t >= 0.0 for t in s.meta["path_s"])


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
    # reversed corners bound an empty rectangle, not the negated increment of another
    with pytest.raises(ValueError, match="x0 <= x1"):
        ag.rect_increment(s, 1.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="y0 <= y1"):
        ag.rect_increment(s, 0.5, 1.0, 1.0, 0.5)


def count_path_calls(monkeypatch):
    """Wrap the two path samplers as aggregation calls them; returns the call counter."""
    calls = []
    for name in ("integrated_path_batch", "integrated_path"):
        original = getattr(ag, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(ag, name, counted)
    return calls


@pytest.mark.parametrize("make", [onoff_model, rect_source])
def test_zero_source_cuts_are_reported(monkeypatch, make):
    # 1000**0.1 = 1.995..., so y = 0.5 holds floor(0.998) = 0 sources
    s = ag.aggregate(make(), 1e3, 0.1, 1.0, (0.5, 1.0), (0.5, 1.0), 20, rng_for("agg/zero"))
    assert s.source_counts.tolist() == [0, 1]
    assert s.meta["zero_source_y"] == [0.5]
    assert np.array_equal(s.values[:, :, 0], np.zeros((20, 2)))
    assert np.any(s.values[:, :, 1] != 0.0)
    # a grid without any source is exact zeros and makes no path call
    calls = count_path_calls(monkeypatch)
    s = ag.aggregate(make(), 1e3, 0.1, 1.0, (0.5, 1.0), (0.25, 0.5), 20, rng_for("agg/zero"))
    assert s.source_counts.tolist() == [0, 0]
    assert s.meta["zero_source_y"] == [0.25, 0.5]
    assert np.array_equal(s.values, np.zeros((20, 2, 2)))
    assert calls == [] and s.meta["path_s"] == []


@pytest.mark.parametrize("budget", [None, 2 * 14 * len(X_GRID)], ids=["default-budget", "small-budget"])
@pytest.mark.parametrize("make", [onoff_model, rect_source])
def test_one_path_call_per_replicate_chunk(monkeypatch, make, budget):
    # every y block is drawn in the same call; only the replicates are chunked
    if budget:
        monkeypatch.setattr(ag, "CHUNK_CELL_BUDGET", budget)
    calls = count_path_calls(monkeypatch)
    s = ag.aggregate(make(), 200.0, 0.5, 1.0, X_GRID, Y_GRID, 30, rng_for("agg/calls"))
    assert s.source_counts.tolist() == [7, 14]
    chunk = s.meta["reps_per_call"]
    assert chunk == min(30, ag.CHUNK_CELL_BUDGET // (s.meta["lanes_per_rep"] * len(X_GRID)))
    assert len(calls) == math.ceil(30 / chunk) == len(s.meta["path_s"])
    assert (len(calls) == 1) == (budget is None)


def pre_limit_covariance(src, lam, H, x_grid, counts):
    """The exact covariance of V over the grid points, x-major as ``values[:, ix, iy]`` flattens.

    With v(T) = Var(int_0^T X dt) for one source, Cov(V(x1, y1), V(x2, y2))
    = min(counts) * (v(lam x1) + v(lam x2) - v(lam |x1 - x2|)) / (2 lam**(2H)),
    because the y levels share their first sources and the sources are iid.
    """
    points = list(itertools.product(x_grid, counts))
    spans = {abs(x1 - x2) for x1 in x_grid for x2 in (0.0, *x_grid)}
    v = {t: sn.integral_variance(src, lam * t) for t in spans}
    return np.array([[min(c1, c2) * (v[x1] + v[x2] - v[abs(x1 - x2)]) / (2.0 * lam ** (2.0 * H))
                      for x2, c2 in points] for x1, c1 in points])


def test_shot_noise_variance_is_linear_in_y():
    # the variance is linear in the source count at every cut, and the
    # covariance across x carries the increments of v; all 21 entries of the
    # covariance over the 6 points against the exact matrix
    src = rect_source()
    lam, gamma, x_grid, y_grid, n = 100.0, 0.5, (0.5, 1.0), (0.3, 0.6, 1.0), 4000
    H = sn.regime_of(src, gamma).H
    s = ag.aggregate(src, lam, gamma, H, x_grid, y_grid, n, rng_for("agg/var-y"))
    assert s.source_counts.tolist() == [3, 6, 10]
    dev = (s.values - s.values.mean(axis=0)).reshape(n, -1)
    want = pre_limit_covariance(src, lam, H, x_grid, s.source_counts)
    for a, b in zip(*np.triu_indices(dev.shape[1])):
        prod = dev[:, a] * dev[:, b]
        got = prod.sum() / (n - 1)
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(got - want[a, b]) <= 5.0 * se, (a, b, got, want[a, b], se)


def test_shot_noise_covariance_tends_to_the_fbs_sheet():
    # above gamma0 = 0.5 the limit is the fractional Brownian sheet, which its
    # covariance fixes: the exact matrix of V over the grid approaches the
    # sheet's along a lam ladder.  The driving measure scales with the rate,
    # so at rate 4 every distance is 4 times as large
    points = list(itertools.product(X_GRID, Y_GRID))
    distances = {}
    for rate in (1.0, 4.0):
        src = rect_source(rate)
        spec = sn.regime_of(src, 1.0)
        assert spec.limit_kind == "FBS"
        fbs = lf.FbsSpec(spec.constants["H1"], spec.constants["C_W"])
        limit = np.array([[lf.fbs_covariance(fbs, p, q) for q in points] for p in points])
        d = []
        for lam in (1e2, 1e3, 1e4, 1e5):
            pre = pre_limit_covariance(src, lam, spec.H, X_GRID, np.floor(np.asarray(Y_GRID) * lam))
            d.append(float(np.max(np.abs(pre - limit))))
        assert all(b < a for a, b in zip(d, d[1:])), (rate, d)
        assert d[-1] < 1e-3 * np.max(np.abs(limit)), (rate, d)
        distances[rate] = d
    np.testing.assert_allclose(distances[4.0], 4.0 * np.asarray(distances[1.0]), rtol=1e-6)


@pytest.mark.parametrize("make", [onoff_sample, shot_sample])
def test_disjoint_y_bands_are_independent(make):
    # the bands (0, 0.5] and (0.5, 1] in y hold disjoint sources
    _, s = make(n_rep=3000)
    n = s.values.shape[0]
    for x in X_GRID:
        low = ag.rect_increment(s, 0.0, x, 0.0, 0.5)
        high = ag.rect_increment(s, 0.0, x, 0.5, 1.0)
        r = np.corrcoef(low, high)[0, 1]
        assert abs(r) <= 5.0 / math.sqrt(n), (x, r)


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

"""Shot-noise sampler, covariance oracle, and regime table."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special, stats

from heavyagg import heavy_tail as ht
from heavyagg import limit_fields as lf
from heavyagg import numerics as nm
from heavyagg import pulses as pl
from heavyagg import shot_noise as sn
from heavyagg import streams

SEED = 55


def rng_for(tag, index=0):
    return streams.stream(SEED, tag, index)


def rect_unit_source(alpha=1.5):
    return sn.ShotNoiseSource(
        pl.RectIndep(A=ht.DegenerateDist(1.0), R=ht.RegVaryingDist(alpha, 1.0))
    )


def exp_damped_source(rho=1.2, kappa=0.5):
    return sn.ShotNoiseSource(
        pl.ExpDamped(A=ht.LowTailPowerDist(kappa), R=ht.RegVaryingDist(rho, 1.0))
    )


# -- construction ------------------------------------------------------------------


def test_cycle_pulse_rejected():
    cyc = pl.OnOff(Zon=ht.RegVaryingDist(1.5, 1.0), Zoff=ht.ExponentialDist(1.0))
    with pytest.raises(ValueError, match="cycle"):
        sn.ShotNoiseSource(cyc)


def test_infinite_mean_duration_rejected():
    with pytest.raises(ValueError, match="infinite"):
        sn.ShotNoiseSource(pl.RectIndep(A=ht.DegenerateDist(1.0), R=ht.RegVaryingDist(0.9, 1.0)))


def test_square_integrability_windows_enforced():
    with pytest.raises(ValueError, match="2 - p"):
        sn.ShotNoiseSource(pl.RectCoupled(R=ht.RegVaryingDist(1.1, 1.0), p=0.5))
    with pytest.raises(ValueError, match="> 2"):
        sn.ShotNoiseSource(pl.BrownianPulse(R=ht.RegVaryingDist(1.8, 1.0)))
    with pytest.raises(ValueError, match="rate"):
        sn.ShotNoiseSource(rect_unit_source().pulse, rate=0.0)


NON_FINITE_PARAMETERS = {
    # NaN fails every comparison, so a check written as "reject if bad" lets
    # it through; a mixture with a NaN weight would sample only the others
    "mixture-nan-weight": lambda: pl.MixturePulse((rect_unit_source().pulse,) * 2, (0.5, math.nan)),
    "mixture-nan-only": lambda: pl.MixturePulse((rect_unit_source().pulse,), (math.nan,)),
    "mixture-inf-weights": lambda: pl.MixturePulse((rect_unit_source().pulse,) * 2, (math.inf, -math.inf)),
    "source-rate": lambda: sn.ShotNoiseSource(rect_unit_source().pulse, rate=math.inf),
    "telecom-c": lambda: lf.TelecomSpec(1.5, c=math.inf),
    "telecom-eps": lambda: lf.TelecomSpec(1.5, eps=math.inf),
    "fbs-c_w": lambda: lf.FbsSpec(0.75, math.inf),
    "pareto-x_min": lambda: ht.RegVaryingDist(1.5, math.inf),
    "pareto-alpha": lambda: ht.RegVaryingDist(math.inf, 1.0),
    "pareto-nan": lambda: ht.RegVaryingDist(math.nan, 1.0),
    "exponential": lambda: ht.ExponentialDist(math.inf),
    "degenerate": lambda: ht.DegenerateDist(math.inf),
    "degenerate-nan": lambda: ht.DegenerateDist(math.nan),
    "uniform-hi": lambda: ht.UniformDist(0.0, math.inf),
    "uniform-lo": lambda: ht.UniformDist(-math.inf, 0.0),
    "low-tail-kappa": lambda: ht.LowTailPowerDist(math.inf),
    "low-tail-c": lambda: ht.LowTailPowerDist(0.5, math.inf),
    "stable-sigma": lambda: ht.StableParams(1.5, math.inf, 0.0),
}


@pytest.mark.parametrize("build", list(NON_FINITE_PARAMETERS.values()), ids=list(NON_FINITE_PARAMETERS))
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_null_pulse_integrates_to_zero():
    src = sn.ShotNoiseSource(pl.RectIndep(A=ht.DegenerateDist(0.0), R=ht.RegVaryingDist(1.5, 1.0)))
    rng = rng_for("null")
    assert np.all(sn.integrated_path_batch(src, [5.0], rng, 1) == 0.0)
    assert np.all(sn.integrated_path_batch(src, [1.0, 5.0], rng, 50) == 0.0)


# -- mean and variance against closed forms ----------------------------------------


def test_mean_matches_t_times_level():
    # E R = 3 for a unit-scale tail-1.5 duration, so the T=10 window integrates to 30.
    src = rect_unit_source()
    assert src.mean_level() == pytest.approx(3.0)
    vals = sn.integrated_path_batch(src, [10.0], rng_for("mean"), 100_000)[:, 0]
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 30.0) <= 3.0 * se


def test_exp_damped_mean_level():
    src = exp_damped_source()
    vals = sn.integrated_path_batch(src, [20.0], rng_for("mean-exp"), 30_000)[:, 0]
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 20.0 * src.mean_level()) <= 3.5 * se


def _variance_check(src, T, n, tag):
    vals = sn.integrated_path_batch(src, [T], rng_for(tag), n)[:, 0]
    s2 = vals.var(ddof=1)
    centered = vals - vals.mean()
    se_var = math.sqrt((np.mean(centered**4) - s2**2) / n)
    oracle = sn.integral_variance(src, T)
    assert abs(s2 - oracle) <= 3.5 * se_var


def test_variance_identity_rect():
    _variance_check(rect_unit_source(), 64.0, 20_000, "var-rect")


def test_variance_identity_exp_damped():
    _variance_check(exp_damped_source(), 16.0, 20_000, "var-exp")


def test_variance_identity_mixture():
    mix = pl.MixturePulse(
        components=(rect_unit_source().pulse, exp_damped_source().pulse), weights=(0.5, 0.5)
    )
    _variance_check(sn.ShotNoiseSource(mix), 8.0, 20_000, "var-mix")


def test_integral_variance_raises_when_quadrature_does_not_converge(monkeypatch):
    # a covariance oscillating far faster than quad's subdivision limit resolves
    monkeypatch.setattr(sn, "covariance_oracle", lambda src, t: math.sin(1e5 * t))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        with pytest.raises(RuntimeError, match="integral variance quadrature did not converge"):
            sn.integral_variance(rect_unit_source(), 10.0)


# -- covariance oracle ---------------------------------------------------------------


def test_covariance_rect_closed_form():
    src = rect_unit_source()
    assert sn.covariance_oracle(src, 4.0) == pytest.approx(1.0, rel=1e-12)
    assert sn.covariance_oracle(src, 0.5) == pytest.approx(2.5, rel=1e-12)
    assert sn.covariance_oracle(src, 0.0) == pytest.approx(3.0, rel=1e-12)


def test_covariance_exp_damped_limit_constant():
    rho, kappa = 1.2, 0.5
    src = exp_damped_source(rho, kappa)
    c_x = special.gamma(kappa + 1) * special.hyp2f1(kappa, 1.0, kappa + rho, -1.0) / (kappa + rho - 1)
    for t in (4_000.0, 8_000.0):
        assert t ** (rho + kappa - 1) * sn.covariance_oracle(src, t) == pytest.approx(c_x, rel=1e-4)


def test_covariance_brownian_closed_form():
    rho = 2.5
    src = sn.ShotNoiseSource(pl.BrownianPulse(R=ht.RegVaryingDist(rho, 1.0)))
    c_x = 1.0 / ((rho - 1.0) * (rho - 2.0))
    for t in (2.0, 10.0):
        assert sn.covariance_oracle(src, t) == pytest.approx(c_x * t ** (2 - rho), rel=1e-8)


def test_covariance_rect_coupled_closed_form():
    rho, p = 1.7, 0.8
    src = sn.ShotNoiseSource(pl.RectCoupled(R=ht.RegVaryingDist(rho, 1.0), p=p))
    t = 2.0

    # independent route: Cov(t) = E[ R^{2-2p} (R^p - t)_+ ]
    brute, _ = integrate.quad(
        lambda r: r ** (2 - 2 * p) * (r**p - t) * rho * r ** (-1 - rho),
        t ** (1.0 / p),
        np.inf,
        limit=400,
    )
    got = sn.covariance_oracle(src, t)
    assert got == pytest.approx(brute, rel=1e-7)

    c_x = rho * p / ((rho + 2 * p - 2) * (rho + p - 2))
    assert got == pytest.approx(c_x * t ** (-(rho + p - 2) / p), rel=1e-7)


# -- regime table ---------------------------------------------------------------------


def test_regime_examples():
    spec = sn.regime_of(rect_unit_source(), gamma=1.0)
    assert spec.gamma0 == pytest.approx(0.5)
    assert spec.limit_kind == "FBS"
    assert spec.H == pytest.approx(1.25)

    coupled = sn.ShotNoiseSource(pl.RectCoupled(R=ht.RegVaryingDist(1.5, 1.0), p=0.75))
    spec = sn.regime_of(coupled, gamma=0.5)
    assert spec.gamma0 == pytest.approx(1.0)
    assert spec.limit_kind == "StableSheet"
    assert spec.H == pytest.approx(1.0)
    assert spec.alpha == pytest.approx(1.5)

    spec = sn.regime_of(exp_damped_source(1.2, 0.5), gamma=0.7)
    assert spec.limit_kind == "Intermediate"
    assert spec.H == pytest.approx(1.0)
    assert spec.alpha == pytest.approx(1.7)


def test_regime_constants_frozen():
    # fast branch: C_W^2 = c_X / ((2 H1 - 1) H1) with c_X = 2, H1 = 0.75
    fast = sn.regime_of(rect_unit_source(), gamma=1.0)
    assert fast.constants["c_X"] == pytest.approx(2.0)
    assert fast.constants["C_W"] == pytest.approx(math.sqrt(16.0 / 3.0), rel=1e-12)

    # slow branch: totally skewed 1.5-stable with sigma^1.5 = sqrt(2 pi)
    slow = sn.regime_of(rect_unit_source(), gamma=0.25)
    params = slow.constants["stable"]
    assert params.beta == pytest.approx(1.0)
    assert params.sigma**1.5 == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)
    assert slow.H == pytest.approx(1.25 / 1.5)


def test_regime_brownian_symmetric_tails():
    rho = 2.5
    src = sn.ShotNoiseSource(pl.BrownianPulse(R=ht.RegVaryingDist(rho, 1.0)))
    spec = sn.regime_of(src, gamma=1.0)
    assert spec.limit_kind == "StableSheet"
    assert spec.alpha == pytest.approx(5.0 / 3.0)
    assert spec.constants["c_plus"] == spec.constants["c_minus"]
    assert spec.constants["stable"].beta == 0.0

    # absolute Gaussian moment behind c_+: quadrature vs the closed form used inside
    q = spec.alpha
    brute, _ = integrate.quad(lambda z: 2 * z**q * math.exp(-z * z / 2) / math.sqrt(2 * math.pi), 0, np.inf)
    closed = 2.0 ** (q / 2) * special.gamma((q + 1) / 2) / math.sqrt(math.pi)
    assert closed == pytest.approx(brute, rel=1e-10)
    assert spec.constants["c_plus"] == pytest.approx(0.5 * brute * 3.0 ** (-rho / 3.0), rel=1e-9)


def test_exp_damped_tail_constant_matches_exact_tail():
    # P((1 - e^{-AR})/A > x) has the exact value c_+ x^{-(rho+kappa)} once x >= 1,
    # computable directly by integrating the duration tail over the damping law.
    # tanh-sinh quadrature resolves the log-scale boundary layer at a*x -> 1.
    import mpmath as mp

    rho, kappa = 1.2, 0.5
    spec = sn.regime_of(exp_damped_source(rho, kappa), gamma=0.3)
    x = mp.mpf(1000)

    def integrand(a):
        if a * x >= 1:
            return mp.mpf(0)
        thresh = -mp.log1p(-a * x) / a
        return thresh ** (-rho) * kappa * a ** (kappa - 1)

    tail = mp.quad(integrand, [0, 1 / x])
    assert float(x ** (rho + kappa) * tail) == pytest.approx(spec.constants["c_plus"], rel=1e-9)


def test_critical_exponent_survives_float_rounding():
    # gamma0 = 1.4 - 1.0 == 0.3999999999999999, yet gamma = 0.4 is critical
    src = rect_unit_source(alpha=1.4)
    assert sn.regime_of(src, 0.4).limit_kind == "Intermediate"
    assert sn.regime_of(src, 0.4 + 1e-9).limit_kind == "FBS"
    assert sn.regime_of(src, 0.4 - 1e-9).limit_kind == "StableSheet"


def test_regime_h_continuous_at_gamma0():
    sources = [
        rect_unit_source(),
        sn.ShotNoiseSource(pl.RectCoupled(R=ht.RegVaryingDist(1.7, 1.0), p=0.8)),
        exp_damped_source(),
        sn.ShotNoiseSource(pl.BrownianPulse(R=ht.RegVaryingDist(2.5, 1.0))),
    ]
    for src in sources:
        low = sn.regime_of(src, 0.1)
        g0 = low.gamma0
        above = sn.regime_of(src, g0 + 1e-10)
        below = sn.regime_of(src, g0 - 1e-10)
        at = sn.regime_of(src, g0)
        assert above.limit_kind == "FBS" and below.limit_kind == "StableSheet"
        assert at.limit_kind == "Intermediate"
        assert abs(above.H - below.H) <= 1e-9
        assert abs(at.H - above.H) <= 1e-9
        for e in (low, below, at, above, sn.regime_of(src, 2.0 * g0)):
            # the exponents every aggregation limit admits
            assert 0.0 <= e.H <= 1.0 + e.gamma and 0.0 <= e.H - e.gamma / 2.0 <= 1.0


@pytest.mark.parametrize("gamma, kind", [(1.0, "FBS"), (0.5, "Intermediate"), (0.2, "StableSheet")])
def test_regime_scales_with_rate(gamma, kind):
    # the driving Levy measure of a rate-4 source is 4 times the unit-rate
    # one, so every entry's log chf and tail constants are 4 times as large
    one = sn.regime_of(rect_unit_source(), gamma)
    four = sn.regime_of(replace(rect_unit_source(), rate=4.0), gamma)
    assert one.limit_kind == four.limit_kind == kind
    assert (four.H, four.gamma0, four.alpha) == (one.H, one.gamma0, one.alpha)
    for name in ("c_X", "c_plus", "c_minus"):
        assert four.constants[name] == pytest.approx(4.0 * one.constants[name], rel=1e-15)
    for theta, x, y in ((0.7, 1.0, 1.0), (-1.3, 2.0, 0.5)):
        assert four.logchf(theta, x, y) == pytest.approx(4.0 * one.logchf(theta, x, y), rel=1e-12)


def test_regime_fbs_variance_matches_prelimit_at_rate_4():
    # Var V(1, 1) = floor(lam**gamma) * Var(int_0^lam X) / lam**(2H) at
    # lam = 1e4 against the FBS entry's -2 Re logchf(1); the pre-limit value
    # sits 0.6 % below the limit at either rate
    src = replace(rect_unit_source(), rate=4.0)
    spec = sn.regime_of(src, gamma=1.0)
    lam = 1e4
    prelimit = math.floor(lam**spec.gamma) * sn.integral_variance(src, lam) / lam ** (2.0 * spec.H)
    limit = -2.0 * spec.logchf(1.0, 1.0, 1.0).real
    assert prelimit == pytest.approx(limit, rel=0.01)


def test_regime_window_rejections():
    with pytest.raises(ValueError, match="duration tail"):
        sn.regime_of(rect_unit_source(alpha=2.5), gamma=1.0)
    with pytest.raises(ValueError, match="alpha \\+ kappa"):
        sn.regime_of(exp_damped_source(1.8, 0.5), gamma=1.0)
    with pytest.raises(ValueError, match="\\(2,3\\)"):
        sn.regime_of(sn.ShotNoiseSource(pl.BrownianPulse(R=ht.RegVaryingDist(3.5, 1.0))), gamma=1.0)
    # a NaN compares false both ways, so it must not fall through to the critical entry
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            sn.regime_of(rect_unit_source(), gamma=gamma)


# -- stationarity and superposition ---------------------------------------------------


def test_retiming_leaves_law_unchanged():
    src = rect_unit_source()
    a = sn.integrated_path_batch(src, [4.0], rng_for("shift-a"), 10_000)[:, 0]
    b = sn.integrated_path_batch(src, [3.0, 7.0], rng_for("shift-b"), 10_000)[:, 1]
    assert stats.ks_2samp(a, b).pvalue > 0.01
    se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(a.size)
    assert abs(a.mean() - b.mean()) <= 3.5 * se


def test_retiming_brownian_pulse():
    src = sn.ShotNoiseSource(pl.BrownianPulse(R=ht.RegVaryingDist(2.5, 1.0)))
    a = sn.integrated_path_batch(src, [4.0], rng_for("shift-bm-a"), 8_000)[:, 0]
    b = sn.integrated_path_batch(src, [2.5, 6.5], rng_for("shift-bm-b"), 8_000)[:, 1]
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_superposition_of_two_half_rate_sources():
    p1 = rect_unit_source().pulse
    p2 = pl.ExpDamped(A=ht.LowTailPowerDist(0.6), R=ht.RegVaryingDist(1.3, 1.0))
    mix = sn.ShotNoiseSource(pl.MixturePulse(components=(p1, p2), weights=(0.5, 0.5)))
    half1 = sn.ShotNoiseSource(p1, rate=0.5)
    half2 = sn.ShotNoiseSource(p2, rate=0.5)

    n, T = 1_000_000, 2.0
    a = sn.integrated_path_batch(mix, [T], rng_for("super-mix"), n)[:, 0]
    b = (sn.integrated_path_batch(half1, [T], rng_for("super-1"), n)[:, 0]
         + sn.integrated_path_batch(half2, [T], rng_for("super-2"), n)[:, 0])
    for theta in (0.25, 0.5, 1.0, 2.0, 4.0):
        ea, eb = np.exp(1j * theta * a), np.exp(1j * theta * b)
        diff = ea.mean() - eb.mean()
        se_re = math.hypot(ea.real.std(ddof=1), eb.real.std(ddof=1)) / math.sqrt(n)
        se_im = math.hypot(ea.imag.std(ddof=1), eb.imag.std(ddof=1)) / math.sqrt(n)
        assert abs(diff.real) <= 3.0 * se_re
        assert abs(diff.imag) <= 3.0 * se_im


def test_mixture_skips_components_of_zero_weight():
    # a zero-weight component has no source of its own (rate 0 is refused),
    # so the mixture draws exactly what its one live component draws
    a = rect_unit_source().pulse
    b = pl.BrownianPulse(R=ht.RegVaryingDist(2.5, 1.0))
    mix = sn.ShotNoiseSource(pl.MixturePulse((a, b), (1.0, 0.0)), rate=1.3)
    plain = sn.ShotNoiseSource(a, rate=1.3)
    cuts, copies = [0.5, 2.0, 3.0], np.array([1.0, 0.0, 2.5, 4.0])
    got = sn.integrated_path_batch(mix, cuts, rng_for("mix-zero-weight"), 4, copies)
    want = sn.integrated_path_batch(plain, cuts, rng_for("mix-zero-weight"), 4, copies)
    assert np.array_equal(got, want)
    assert np.all(got[1] == 0.0) and np.any(got != 0.0)


# -- intermediate-limit characteristic function ---------------------------------------


def test_gauss_legendre_nodes_are_cached_read_only():
    t, w = nm._legendre(48)
    assert nm._legendre(48)[0] is t
    assert w.sum() == pytest.approx(2.0, rel=1e-14)
    for arr in (t, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    nodes, weights = nm.gauss_legendre_panels((0.0, 1.0, 3.0), 48)
    assert nodes.shape == weights.shape == (2, 48)
    assert np.sum(weights * nodes**2) == pytest.approx(9.0, rel=1e-14)


def cos_minus_one(z: float) -> float:
    """cos(z) - 1 without cancellation, via -2 sin^2(z/2)."""
    s = math.sin(0.5 * z)
    return -2.0 * s * s


def sin_minus_z(z: float) -> float:
    """sin(z) - z, series below 1e-3 (next omitted term is ~z^9/362880)."""
    if abs(z) < 1e-3:
        z2 = z * z
        return -z * z2 / 6.0 * (1.0 - z2 / 20.0 * (1.0 - z2 / 42.0))
    return math.sin(z) - z


def one_minus_cos_minus_half_sq(z: float) -> float:
    """(1 - cos z) - z^2/2, series below 1e-3."""
    if abs(z) < 1e-3:
        z2 = z * z
        return -z2 * z2 / 24.0 * (1.0 - z2 / 30.0 * (1.0 - z2 / 56.0))
    return -cos_minus_one(z) - 0.5 * z * z


def psi(z: float) -> complex:
    """The compensated oscillator e^{iz} - 1 - iz for real z."""
    return complex(cos_minus_one(z), sin_minus_z(z))


def test_compensated_trig_helpers():
    import mpmath as mp

    mp.mp.dps = 60  # the z=1e-12 references cancel down to 1e-50
    zs = (1e-12, 1e-8, 1e-4, 9.9e-4, 1.1e-3, 0.5, 3.0, -2.2, -1e-5)
    for z, vec, ramp in zip(zs, nm.psi_array(np.array(zs)), nm.psi_ramp_array(np.array(zs))):
        zz = mp.mpf(z)
        assert vec == pytest.approx(psi(z), rel=1e-12, abs=1e-300)
        assert cos_minus_one(z) == pytest.approx(float(mp.cos(zz) - 1), rel=1e-8, abs=1e-300)
        assert sin_minus_z(z) == pytest.approx(float(mp.sin(zz) - zz), rel=1e-8, abs=1e-300)
        assert one_minus_cos_minus_half_sq(z) == pytest.approx(
            float(1 - mp.cos(zz) - zz * zz / 2), rel=1e-8, abs=1e-300
        )
        # the ramp average int_0^1 Psi(z s) ds
        assert ramp.real == pytest.approx(float((mp.sin(zz) - zz) / zz), rel=1e-8, abs=1e-300)
        assert ramp.imag == pytest.approx(float((1 - mp.cos(zz) - zz * zz / 2) / zz), rel=1e-8, abs=1e-300)


def split_levy_quad(f, rho, c_rho, break_r):
    """Integrate a complex f against rho c r^{-1-rho} dr, split at the kink.

    Head segment runs in the q = sqrt(r) variable so the adaptive rule is not
    starved by the r^{1-rho}-type endpoint singularity.
    """

    def w(r):
        return f(r) * rho * c_rho * r ** (-1 - rho)

    sq = math.sqrt(break_r)
    re1, _ = integrate.quad(lambda q: w(q * q).real * 2 * q, 0.0, sq, limit=300)
    im1, _ = integrate.quad(lambda q: w(q * q).imag * 2 * q, 0.0, sq, limit=300)
    re2, _ = integrate.quad(lambda r: w(r).real, break_r, np.inf, limit=300)
    im2, _ = integrate.quad(lambda r: w(r).imag, break_r, np.inf, limit=300)
    return complex(re1 + re2, im1 + im2)


def brute_rect_logchf(theta, x, y, rho, c_rho):
    """Independent route: numeric inner integral over arrival positions."""

    def overlap(u, r):
        return max(0.0, min(u + r, x) - max(u, 0.0))

    def inner(r):
        kinks = sorted({p for p in (0.0, x - r) if -r < p < x})
        re, _ = integrate.quad(
            lambda u: cos_minus_one(theta * overlap(u, r)), -r, x, points=kinks, limit=200
        )
        im, _ = integrate.quad(
            lambda u: sin_minus_z(theta * overlap(u, r)), -r, x, points=kinks, limit=200
        )
        return complex(re, im)

    return y * split_levy_quad(inner, rho, c_rho, x)


def test_intermediate_logchf_rect_dual_route():
    model = rect_unit_source().pulse
    x, y = 1.5, 2.0
    for theta in (0.5, -1.0, 2.0):
        got = sn.intermediate_logchf(model, theta, x, y)
        want = brute_rect_logchf(theta, x, y, 1.5, 1.0)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_intermediate_logchf_rect_variance_anchor():
    # small-theta curvature recovers Var = 2 c x^{3-a} / ((a-1)(2-a)(3-a)) = 16/3
    model = rect_unit_source().pulse
    theta = 0.01
    val = sn.intermediate_logchf(model, theta, 1.0, 1.0)
    assert -2.0 * val.real / theta**2 == pytest.approx(16.0 / 3.0, rel=5e-4)


def test_intermediate_logchf_coupled_matches_brute():
    rho, p = 1.7, 0.8
    model = pl.RectCoupled(R=ht.RegVaryingDist(rho, 1.0), p=p)
    theta, x = 1.0, 1.0

    def inner(r):
        d, h = r**p, r ** (1 - p)

        def mass(u):
            return h * max(0.0, min(u + d, x) - max(u, 0.0))

        kinks = sorted({q for q in (0.0, x - d) if -d < q < x})
        re, _ = integrate.quad(lambda u: cos_minus_one(theta * mass(u)), -d, x, points=kinks, limit=200)
        im, _ = integrate.quad(
            lambda u: sin_minus_z(theta * mass(u)), -d, x, points=kinks, limit=200
        )
        return complex(re, im)

    want = split_levy_quad(inner, rho, 1.0, x ** (1.0 / p))
    assert sn.intermediate_logchf(model, theta, x, 1.0) == pytest.approx(want, rel=1e-6)


def test_intermediate_logchf_coupled_fast_oscillating_tail_frozen():
    # at p = 0.6 the height r**0.4 makes Psi oscillate ever faster in the
    # duration tail, which stalls a rule on the real axis and adaptive quad
    # alike.  Expected value computed offline by adaptive quad of the
    # closed-form arrival integral over 4,000 log-spaced duration panels up
    # to r = 1e45 (tolerance 1e-12 each).
    model = pl.RectCoupled(R=ht.RegVaryingDist(1.5, 1.0), p=0.6)
    want = -2.6166174603514 - 1.5739323304239j
    assert sn.intermediate_logchf(model, 1.0, 1.0, 1.0) == pytest.approx(want, rel=1e-7)
    assert sn.intermediate_logchf(model, -1.0, 1.0, 1.0) == pytest.approx(want.conjugate(), rel=1e-7)


def test_intermediate_logchf_coupled_small_theta_tail():
    # at p = 0.6 and theta = 0.01 the arrival integral grows like r**1.4 up
    # to r = theta**(-1/(1-p)) = 1e5 before the ray damps it; one tanh-sinh
    # tail from r = 1 missed the growth by 1e-4 relative
    model = pl.RectCoupled(R=ht.RegVaryingDist(1.5, 1.0), p=0.6)
    value, err = sn._intermediate_logchf(model, 0.01, 1.0)
    finer, _ = sn._intermediate_logchf(model, 0.01, 1.0, tuple(2 * n for n in sn.CHF_NODES))
    assert err <= sn.CHF_RTOL * abs(value)
    assert abs(finer - value) < err
    assert sn.intermediate_logchf(model, 0.01, 1.0) == value


def test_intermediate_logchf_brownian_real_and_frozen():
    # Expected value computed offline at 22-digit precision with tanh-sinh
    # quadrature in two independent integration orders (durations outer with a
    # 1/r tail substitution, and arrivals outer); the orders agree to 3e-8.
    rho = 2.5
    model = pl.BrownianPulse(R=ht.RegVaryingDist(rho, 1.0))
    got = sn.intermediate_logchf(model, 1.2, 1.0, 1.0)
    assert got.imag == 0.0
    assert got.real == pytest.approx(-1.70699501211, rel=2e-5)


def test_intermediate_logchf_zero_and_conjugate_symmetry():
    model = exp_damped_source().pulse
    assert sn.intermediate_logchf(model, 0.0, 1.0, 1.0) == 0.0
    plus = sn.intermediate_logchf(model, 0.8, 1.0, 1.0)
    minus = sn.intermediate_logchf(model, -0.8, 1.0, 1.0)
    assert minus == pytest.approx(plus.conjugate(), rel=1e-6, abs=1e-8)


def _sq_expm1_integral(a, length):
    """int_0^length (expm1(a v) / a)**2 dv, by its power series near a * length = 0."""
    z = a * length
    if abs(z) < 0.1:
        g = sum((2.0 ** (n - 1) - 2.0) / math.factorial(n) * z ** (n - 3) for n in range(3, 20))
    else:
        g = (0.5 * math.expm1(2.0 * z) - 2.0 * math.expm1(z) + z) / z**3
    return length**3 * g


def test_intermediate_logchf_exp_damped_variance_anchor():
    # independent curvature check: Var J(x,1) = int du int P_A(da) int mass^2 nu(dr)
    rho, kappa = 1.2, 0.5
    model = exp_damped_source(rho, kappa).pulse
    x = 1.0

    def arrival_integral(a, r):
        # int over arrivals u in (-r, x) of mass(a, u, r)^2, piece by piece
        # between the kinks 0 and x - r: a pulse covering the window's start
        # and its own end, one covering the window's start only, one inside
        # it, and one running past x
        span = min(r, x)
        val = math.exp(-2.0 * a * r) * _sq_expm1_integral(a, span) + _sq_expm1_integral(-a, span)
        if r < x:
            return val + (x - r) * (math.expm1(-a * r) / a) ** 2
        return val - (math.expm1(-a * x) / a) ** 2 * math.expm1(-2.0 * a * (r - x)) / (2.0 * a)

    def inner(r):
        def a_integrand(t):
            a = t * t  # flattens the a^{kappa-1} singularity for kappa = 1/2
            return arrival_integral(a, r) * 2.0 * kappa * t ** (2.0 * kappa - 1.0)

        val, _ = integrate.quad(a_integrand, 0.0, 1.0, limit=60)
        return val

    var = split_levy_quad(lambda r: complex(inner(r), 0.0), rho, 1.0, x).real
    theta = 0.05
    val = sn.intermediate_logchf(model, theta, x, 1.0)
    assert -2.0 * val.real / theta**2 == pytest.approx(var, rel=5e-3)


def test_intermediate_logchf_exp_damped_error_estimate_covers_refinement():
    # err compares the rule with the one of half every order; doubling every
    # order once more must move the value by less than that
    model = exp_damped_source().pulse
    value, err = sn._intermediate_logchf(model, 0.8, 1.0)
    finer, _ = sn._intermediate_logchf(model, 0.8, 1.0, tuple(2 * n for n in sn.CHF_NODES))
    assert 0.0 < abs(finer - value) < err <= sn.CHF_RTOL * abs(value)
    assert sn.intermediate_logchf(model, 0.8, 1.0, 1.0) == value


CHF_FAMILIES = {
    "rect-uniform": pl.RectIndep(A=ht.UniformDist(0.5, 2.0), R=ht.RegVaryingDist(1.5, 1.0)),
    "rect-coupled": pl.RectCoupled(R=ht.RegVaryingDist(1.7, 1.0), p=0.8),
    "brownian": pl.BrownianPulse(R=ht.RegVaryingDist(2.5, 1.0)),
}


@pytest.mark.parametrize("family", sorted(CHF_FAMILIES))
@pytest.mark.parametrize("theta, x", [(1.0, 1.0), (-2.0, 1.5)])
def test_intermediate_logchf_error_estimate_covers_refinement(family, theta, x):
    model = CHF_FAMILIES[family]
    value, err = sn._intermediate_logchf(model, theta, x)
    finer, _ = sn._intermediate_logchf(model, theta, x, tuple(2 * n for n in sn.CHF_NODES))
    assert abs(finer - value) < max(err, 1e-14 * abs(value))
    assert err <= sn.CHF_RTOL * abs(value)
    assert sn.intermediate_logchf(model, theta, x, 2.0) == 2.0 * value


def test_intermediate_logchf_raises_when_the_orders_disagree(monkeypatch):
    # at two nodes per axis the rule and its refinement differ far beyond
    # CHF_RTOL, for every family
    coarse = sn._intermediate_logchf
    monkeypatch.setattr(sn, "_intermediate_logchf", lambda m, th, x: coarse(m, th, x, (2, 2, 2, 2)))
    for model in (*CHF_FAMILIES.values(), rect_unit_source().pulse, exp_damped_source().pulse):
        with pytest.raises(RuntimeError, match="did not converge"):
            sn.intermediate_logchf(model, 1.0, 1.0)


def test_intermediate_logchf_rejects_models_without_a_limit():
    mix = pl.MixturePulse((rect_unit_source().pulse, exp_damped_source().pulse), (0.5, 0.5))
    with pytest.raises(ValueError, match="no intermediate-limit oracle"):
        sn.intermediate_logchf(mix, 1.0, 1.0)
    # the Levy integral of the r**2 arrival integral diverges at r = 0 for rho >= 2
    with pytest.raises(ValueError, match="duration tail index"):
        sn.intermediate_logchf(rect_unit_source(2.2).pulse, 1.0, 1.0)


def test_intermediate_logchf_uniform_amplitude_mixes_degenerate_ones():
    # the log chf is linear in the amplitude law: a uniform amplitude on
    # (lo, hi) averages the degenerate-amplitude oracle over a
    lo, hi, theta, x = 0.5, 2.0, 1.3, 1.2
    duration = ht.RegVaryingDist(1.5, 1.0)
    got = sn.intermediate_logchf(pl.RectIndep(A=ht.UniformDist(lo, hi), R=duration), theta, x)

    def at(a, part):
        return getattr(sn.intermediate_logchf(pl.RectIndep(A=ht.DegenerateDist(a), R=duration), theta, x), part)

    want = complex(*(integrate.quad(at, lo, hi, args=(part,))[0] / (hi - lo) for part in ("real", "imag")))
    assert got == pytest.approx(want, rel=1e-8)
    with pytest.raises(ValueError, match="amplitude"):
        sn.intermediate_logchf(pl.RectIndep(A=ht.ExponentialDist(1.0), R=duration), theta, x)


def test_intermediate_logchf_rejects_windows_that_are_not_positive():
    src = rect_unit_source()
    critical = sn.regime_of(src, 0.5)
    assert critical.limit_kind == "Intermediate"
    for x in (0.0, -1.0):
        with pytest.raises(ValueError, match="x must be positive"):
            sn.intermediate_logchf(src.pulse, 1.0, x)
        with pytest.raises(ValueError, match="x must be positive"):
            critical.logchf(1.0, x)


def test_intermediate_logchf_scales_linearly_in_y():
    model = rect_unit_source().pulse
    one = sn.intermediate_logchf(model, 0.7, 1.3, 1.0)
    three = sn.intermediate_logchf(model, 0.7, 1.3, 3.0)
    assert three == pytest.approx(3.0 * one, rel=1e-12)


# -- multi-window path sampler ---------------------------------------------------------


def path_test_sources():
    return [
        rect_unit_source(),
        sn.ShotNoiseSource(pl.RectCoupled(R=ht.RegVaryingDist(2.6, 1.0), p=0.5), rate=1.5),
        exp_damped_source(),
        sn.ShotNoiseSource(pl.BrownianPulse(R=ht.RegVaryingDist(2.5, 1.0))),
        sn.ShotNoiseSource(
            pl.MixturePulse(
                components=(
                    pl.RectIndep(A=ht.DegenerateDist(1.0), R=ht.RegVaryingDist(1.5, 1.0)),
                    pl.BrownianPulse(R=ht.RegVaryingDist(2.5, 1.0)),
                ),
                weights=(0.6, 0.4),
            ),
            rate=1.3,
        ),
    ]


PATH_SOURCE_IDS = ["rect-indep", "rect-coupled", "exp-damped", "brownian", "mixture"]
# one window; uneven cuts; and windows far narrower than the unit minimum
# duration, so most pulses spill over into continuation cells
PATH_GRIDS = {
    "one": np.array([3.0]),
    "four": np.array([0.7, 1.9, 2.5, 4.0]),
    "narrow": 0.1 * np.arange(1, 41),
}


def _window_mass(leaf, d, m, a, b):
    """Dense reference: the kernel mass over pulse-local (a, b] clipped to the support."""
    return pl.KERNELS[leaf.kind].mass(m, np.clip(a, 0.0, d), np.clip(b, 0.0, d))


def _dense_brownian_windows(r, u, cuts, rng):
    """Window increments (k, n_windows) of Brownian pulses of durations r anchored at times u.

    Window j ends at global time cuts[j].  The path value at each window
    boundary is drawn jointly with the window integral, on every window of
    every pulse, so one pulse's columns come from one consistent Brownian
    path (anchoring at u < 0 reproduces the stationary age law).
    """
    k = u.size
    vals = np.zeros((k, cuts.size))
    lo = np.clip(-u, 0.0, r)
    beta = np.sqrt(lo) * rng.standard_normal(k)
    for j in range(cuts.size):
        hi = np.clip(cuts[j] - u, 0.0, r)
        h = np.maximum(hi - lo, 0.0)
        z1 = rng.standard_normal(k)
        z2 = rng.standard_normal(k)
        vals[:, j] = beta * h + h**1.5 * (0.5 * z1 + z2 / math.sqrt(12.0))
        beta = beta + np.sqrt(h) * z1
        lo = hi
    return vals


def _loop_path(src, cuts, rng, n_rep):
    """Reference sampler: the dense per-window loop kernel.

    Arrivals are uniform on (0, c_n], every pulse is evaluated on every window
    (Brownian pulses draw their path on every window too) and each window is
    summed by its own bincount.
    """
    cuts = np.asarray(cuts, dtype=float)
    lows = np.concatenate(([0.0], cuts[:-1]))
    model = src.pulse
    leaves = list(model.components) if model.kind == "mixture" else [model]
    weights = np.array(model.weights if model.kind == "mixture" else [1.0])
    aged = weights * [pl.duration_mean(c) for c in leaves]
    out = np.zeros((n_rep, cuts.size))

    def add(leaf, rep, u, d, m):
        if leaf.kind == "brownian":
            vals = _dense_brownian_windows(d, u, cuts, rng)
        else:
            vals = np.column_stack([_window_mass(leaf, d, m, lo - u, hi - u) for lo, hi in zip(lows, cuts)])
        for j in range(cuts.size):
            out[:, j] += np.bincount(rep, weights=vals[:, j], minlength=n_rep)

    rep = np.repeat(np.arange(n_rep), rng.poisson(src.rate * cuts[-1], n_rep))
    u = rng.uniform(0.0, cuts[-1], rep.size)
    comp = rng.choice(len(leaves), size=rep.size, p=weights)
    for ci, leaf in enumerate(leaves):
        pick = comp == ci
        add(leaf, rep[pick], u[pick], *pl.KERNELS[leaf.kind].fresh(leaf, rng, int(pick.sum())))
    rep = np.repeat(np.arange(n_rep), rng.poisson(src.rate * src.mean_duration, n_rep))
    comp = rng.choice(len(leaves), size=rep.size, p=aged / aged.sum())
    for ci, leaf in enumerate(leaves):
        pick = comp == ci
        age, d, m = pl.KERNELS[leaf.kind].aged(leaf, rng, int(pick.sum()))
        add(leaf, rep[pick], -age, d, m)
    return out


# (pulse block, copies per row): the kernel's own pulse block; an odd block
# of 257 pulses that splits the pulses of (replicate, window) cells between
# blocks; and rows of 2.5 copies of the source interleaved with rows of none
PATH_CASES = {"": (None, 1.0), "block257": (257, 1.0), "copies": (None, 2.5)}


@pytest.mark.parametrize(
    "grid, case",
    [(g, c) for c in PATH_CASES for g in sorted(PATH_GRIDS)],
    ids=[f"{g}-{c}" if c else g for c in PATH_CASES for g in sorted(PATH_GRIDS)],
)
@pytest.mark.parametrize("which", range(len(PATH_SOURCE_IDS)), ids=PATH_SOURCE_IDS)
def test_path_kernel_matches_loop_kernel_in_law(monkeypatch, which, grid, case):
    block, copies = PATH_CASES[case]
    if block:
        monkeypatch.setattr(sn, "PULSE_BLOCK", block)
    src = path_test_sources()[which]
    cuts = PATH_GRIDS[grid]
    n = 20_000
    tag = f"path-kernel/{PATH_SOURCE_IDS[which]}/{grid}{case}"
    if copies == 1.0:
        new = sn.integrated_path_batch(src, cuts, rng_for(tag), n)
    else:
        rows = sn.integrated_path_batch(src, cuts, rng_for(tag), 2 * n, np.tile([copies, 0.0], n))
        assert np.all(rows[1::2] == 0.0)
        new = rows[::2]
    # the sum of `copies` sources is one source at `copies` times the rate
    ref = _loop_path(replace(src, rate=src.rate * copies), cuts, rng_for(tag + "/loop"), n)
    assert new.shape == ref.shape == (n, cuts.size)
    # the narrow grid is checked at its ends, its middle and in total
    cols = range(cuts.size) if cuts.size <= 4 else (0, cuts.size // 2, cuts.size - 1)
    pairs = [(new[:, j], ref[:, j]) for j in cols]
    if cuts.size > 4:
        pairs.append((new.sum(axis=1), ref.sum(axis=1)))
    for a, b in pairs:
        # rectangles leave atoms at 0 and at window widths that rounding smears
        res = stats.ks_2samp(np.round(a, 9), np.round(b, 9))
        assert res.pvalue > 1e-3, (PATH_SOURCE_IDS[which], grid, res)


@pytest.mark.parametrize("grid", ["one", "four", "narrow"])
def test_path_cells_match_dense_window_matrix(grid):
    # the run adder against every pulse on every window, on the same realized
    # pulses of each deterministic family, fed as the path kernel feeds them:
    # fresh pulses start inside their first window (which opens at pulse-local
    # 0), aged ones are alive at time zero, and each kind comes in its own
    # call.  First with one pulse per replicate, then with pulses sharing
    # replicates, so that runs hold several pulses and entries of zero share
    # lie between them
    cuts = PATH_GRIDS[grid]
    nx = cuts.size
    lows = np.concatenate(([0.0], cuts[:-1]))
    widths = cuts - lows
    rng = rng_for(f"path-cells/{grid}")
    leaves = [s.pulse for s in path_test_sources()[:3]]
    for leaf in leaves:
        k = 3_000
        d, m = pl.KERNELS[leaf.kind].fresh(leaf, rng, k)
        age, d_aged, m_aged = pl.KERNELS[leaf.kind].aged(leaf, rng, k)
        first = rng.integers(0, nx, k)
        s = widths[first] * rng.random(k)
        u = lows[first] + s
        dense = {kind: np.column_stack([_window_mass(leaf, dk, mk, lo - uk, hi - uk) for lo, hi in zip(lows, cuts)])
                 for kind, dk, mk, uk in (("fresh", d, m, u), ("aged", d_aged, m_aged, -age))}
        runs = []
        for rep in (np.arange(k), rng.integers(0, k // 5, k)):
            n_rep = int(rep.max()) + 1
            out = np.zeros(n_rep * nx)
            # fresh: one entry per (rep, window) cell, in cell order
            cell = rep * nx + first
            order = np.argsort(cell, kind="stable")
            share = np.bincount(cell, minlength=n_rep * nx)
            sn._add_cells(out, leaf, d[order], m[order], 0.0, (widths[first] - s)[order], s[order],
                          np.arange(n_rep * nx), share, lows, cuts, rng)
            runs.append(share)
            # aged: one entry per replicate, first touching its window 0
            order = np.argsort(rep, kind="stable")
            a = age[order]
            share = np.bincount(rep, minlength=n_rep)
            sn._add_cells(out, leaf, d_aged[order], m_aged[order], a, a + cuts[0], -a,
                          np.arange(0, n_rep * nx, nx), share, lows, cuts, rng)
            runs.append(share)
            got = out.reshape(n_rep, nx)
            want = np.zeros_like(got)
            np.add.at(want, rep, dense["fresh"])
            np.add.at(want, rep, dense["aged"])
            scale = max(np.abs(dense["fresh"]).max(), np.abs(dense["aged"]).max())
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
        # runs of one pulse, long runs too, and zero-share entries between runs
        gaps = [np.any((r[1:-1] == 0) & (r[:-2] > 0) & (r[2:] > 0)) for r in runs]
        assert min(r[r > 0].min() for r in runs) == 1 and max(r.max() for r in runs) >= 8, grid
        assert gaps[2] and gaps[3], (grid, gaps)


def test_pulse_blocks_split_counts_exactly(monkeypatch):
    # zero entries inside and at the ends, an entry of 16 pulses that spans
    # three blocks of 7, and totals that fill their last block exactly
    monkeypatch.setattr(sn, "PULSE_BLOCK", 7)
    for counts in ([0, 3, 0, 0, 16, 2, 0, 0], [7, 0, 7, 0], [0, 0, 1], [20, 1, 0], [0, 0]):
        counts = np.array(counts)
        total = int(counts.sum())
        back = np.zeros_like(counts)
        sizes = []
        for entries, share in sn._pulse_blocks(counts):
            assert share.size == entries.stop - entries.start and np.all(share >= 0), (counts, share)
            sizes.append(int(share.sum()))
            back[entries] += share
        assert sizes == [7] * (total // 7) + [total % 7] * (total % 7 > 0), counts
        assert np.array_equal(back, counts)


def test_path_window_means_and_light_tail_variance():
    src = sn.ShotNoiseSource(
        pl.RectIndep(A=ht.DegenerateDist(1.0), R=ht.RegVaryingDist(3.5, 1.0)), rate=1.5
    )
    cuts = np.array([0.7, 1.9, 2.5, 4.0])
    n = 150_000
    vals = sn.integrated_path_batch(src, cuts, rng_for("path-law"), n)
    widths = np.diff(np.concatenate(([0.0], cuts)))
    level = src.mean_level()
    for j, w in enumerate(widths):
        se = vals[:, j].std() / math.sqrt(n)
        assert vals[:, j].mean() == pytest.approx(level * w, abs=4 * se)
    tot = vals.sum(axis=1)
    assert tot.var() == pytest.approx(sn.integral_variance(src, 4.0), rel=0.03)


def test_path_cross_window_covariance_matches_variance_identity():
    # Cov of two windows follows from the single-window variance at the four gaps
    src = sn.ShotNoiseSource(
        pl.RectIndep(A=ht.DegenerateDist(1.0), R=ht.RegVaryingDist(3.5, 1.0)), rate=1.5
    )
    cuts = np.array([0.7, 1.9, 2.5, 4.0])
    pre = np.concatenate(([0.0], cuts))
    n = 150_000
    vals = sn.integrated_path_batch(src, cuts, rng_for("path-cov"), n)
    V = lambda t: sn.integral_variance(src, t)
    for i, j in [(0, 1), (1, 2), (0, 3)]:
        a, b, c, d = pre[i], pre[i + 1], pre[j], pre[j + 1]
        want = 0.5 * (V(d - a) - V(c - a) - V(d - b) + V(c - b))
        got = np.cov(vals[:, i], vals[:, j])[0, 1]
        prod = (vals[:, i] - vals[:, i].mean()) * (vals[:, j] - vals[:, j].mean())
        se = prod.std() / math.sqrt(n)
        assert got == pytest.approx(want, abs=4 * se)


def test_path_brownian_total_matches_single_window_in_law():
    src = sn.ShotNoiseSource(pl.BrownianPulse(R=ht.RegVaryingDist(2.5, 1.0)))
    n = 120_000
    tot = sn.integrated_path_batch(src, [0.7, 1.9, 2.5, 4.0], rng_for("path-bm"), n).sum(axis=1)
    one = sn.integrated_path_batch(src, [4.0], rng_for("path-bm-one"), n)[:, 0]
    assert stats.ks_2samp(tot, one).pvalue > 0.01


def test_path_kernel_memory_is_bounded_by_the_block():
    # the eps = 1e-3 Telecom source: ~1.6M pulses over 50 replicates, whose
    # full-length per-pulse arrays would each take ~12.6 MB
    eps = 1e-3
    src = sn.ShotNoiseSource(pl.RectIndep(ht.DegenerateDist(1.0), ht.RegVaryingDist(1.5, eps)), rate=eps**-1.5)
    tracemalloc.start()
    try:
        sn.integrated_path_batch(src, [1.0], rng_for("path-memory"), 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_path_validation():
    src = rect_unit_source()
    rng = rng_for("path-bad")
    for cuts in ([], [0.0, 1.0], [2.0, 1.0], [-1.0], [1.0, 1.0], [1.0, np.nan], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="cuts"):
            sn.integrated_path_batch(src, cuts, rng, 4)
    with pytest.raises(ValueError, match="n_rep"):
        sn.integrated_path_batch(src, [1.0], rng, 0)
    for copies in (np.nan, np.inf, -1.0, np.ones(3), [1.0, np.nan, 1.0, 1.0]):
        with pytest.raises(ValueError, match="copies"):
            sn.integrated_path_batch(src, [1.0], rng, 4, copies)

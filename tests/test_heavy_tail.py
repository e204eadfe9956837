"""Tests for the heavy-tailed building blocks.

Closed-form values are checked against independent quadrature oracles where
one exists (tail-integral route to the stable parameters, integrated survival,
Laplace transform of the low-tail power law); Monte Carlo checks use three
standard errors, five for the summed and split exponential draws.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from heavyagg import heavy_tail as ht
from heavyagg import streams

from tail_stats import hill_estimate


def residual_survival(dist, t):
    """Survival function of the stationary excess (residual life) law of ``dist``."""
    return dist.integrated_survival(t) / dist.mean()


def rng_for(tag, index=0):
    return streams.stream(20260816, tag, index)


# -- regularly varying laws: closed forms -------------------------------------------


def test_pareto_exact_survival_and_moments():
    d = ht.RegVaryingDist(1.5, 1.0)
    assert d.survival(0.5) == 1.0
    assert d.survival(4.0) == pytest.approx(0.125)
    assert d.mean() == pytest.approx(3.0)
    assert d.tail_constant() == pytest.approx(1.0)
    d3 = ht.RegVaryingDist(3.0, 2.0)
    q = 1.7
    oracle, _ = integrate.quad(lambda x: x**q * 3.0 * 2.0**3 * x**-4.0, 2.0, np.inf)
    assert d3.moment(q) == pytest.approx(oracle, rel=1e-9)


def test_integrated_survival_matches_quadrature():
    cases = [
        ht.RegVaryingDist(1.5, 1.0),
        ht.ExponentialDist(1.7),
    ]
    for d in cases:
        for t in (0.0, 0.3, 1.0, 2.4, 7.0):
            oracle, _ = integrate.quad(lambda s: float(d.survival(s)), t, np.inf, limit=200)
            assert float(d.integrated_survival(t)) == pytest.approx(oracle, rel=1e-7), (d, t)


# -- regularly varying laws: sampling ------------------------------------------------


def test_pareto_sampling_empirical_survival():
    d = ht.RegVaryingDist(1.5, 1.0)
    x = d.sample(rng_for("ht/pareto-sample"), 1_000_000)
    for level in (2.0, 4.0, 8.0):
        p = float(d.survival(level))
        se = math.sqrt(p * (1 - p) / x.size)
        assert abs(np.mean(x > level) - p) < 3 * se


def test_length_biased_sampling_all_kinds():
    n = 200_000
    for d, tag in (
        (ht.RegVaryingDist(4.0, 1.0), "ht/lb-RegVaryingDist-pareto-exact"),
        (ht.ExponentialDist(0.8), "ht/lb-ExponentialDist-"),
    ):
        x = np.asarray(d.sample_length_biased(rng_for(tag), n))
        target = d.moment(2.0) / d.mean()
        # crude variance bound from the 4th/2nd moments of the base law
        var = d.moment(3.0) / d.mean() - target**2
        se = math.sqrt(var / n)
        assert abs(np.mean(x) - target) < 3.5 * se, type(d).__name__


def test_length_biased_pair_stationary_excess_law():
    d = ht.RegVaryingDist(1.5, 1.0)
    age, total = ht.sample_length_biased_pair(d, rng_for("ht/lb-pair"), 50_000)
    res = total - age
    # age and residual are exchangeable
    p = stats.ks_2samp(age, res).pvalue
    assert p > 0.01
    # both follow the stationary excess law
    cdf = lambda t: 1.0 - residual_survival(d, t)
    assert stats.kstest(res, cdf).pvalue > 0.01
    assert stats.kstest(age, cdf).pvalue > 0.01


def test_exponential_length_biased_is_gamma2():
    d = ht.ExponentialDist(1.3)
    x = d.sample_length_biased(rng_for("ht/lb-exp"), 50_000)
    assert stats.kstest(x, lambda t: stats.gamma.cdf(t, a=2.0, scale=1.3)).pvalue > 0.01


# 109 legs is the block length of the regen-slow benchmark's first pass
@pytest.mark.parametrize("k", [2, 109])
def test_exponential_sum_has_gamma_moments(k):
    d = ht.ExponentialDist(1.7)
    n = 200_000
    g = d.sum_sample(rng_for(f"ht/exp-sum/{k}"), k, n)
    m = d.mean()
    assert abs(g.mean() - k * m) <= 5 * g.std() / math.sqrt(n)
    dev = g - g.mean()
    var = float(np.mean(dev**2))
    se_var = math.sqrt((np.mean(dev**4) - var**2) / n)
    assert abs(var - k * m * m) <= 5 * se_var


@pytest.mark.parametrize("k", [2, 109])
def test_exponential_split_is_flat_dirichlet_given_the_sum(k):
    d = ht.ExponentialDist(1.7)
    rng = rng_for(f"ht/exp-split/{k}")
    totals = d.sum_sample(rng, k, 50_000)
    legs = d.split_sum(rng, totals, k)
    assert legs.shape == (k, totals.size) and np.all(legs > 0)
    np.testing.assert_allclose(legs.sum(axis=0), totals, rtol=1e-12)
    # one coordinate of a flat Dirichlet vector in k parts is Beta(1, k - 1)
    assert stats.kstest(legs[0] / totals, stats.beta(1.0, k - 1.0).cdf).pvalue > 1e-3


def test_exponential_split_of_one_leg_draws_nothing():
    d = ht.ExponentialDist(1.7)
    rng = rng_for("ht/exp-split-one")
    totals = d.sum_sample(rng, 1, 10)
    state = rng.bit_generator.state
    legs = d.split_sum(rng, totals, 1)
    assert rng.bit_generator.state == state
    assert np.array_equal(legs, totals[None, :])


def test_degenerate_sum_and_split_are_exact():
    d = ht.DegenerateDist(0.75)
    rng = rng_for("ht/degenerate-sum")
    state = rng.bit_generator.state
    g = d.sum_sample(rng, 4, 3)
    legs = d.split_sum(rng, g, 4)
    assert rng.bit_generator.state == state
    assert np.array_equal(g, [3.0, 3.0, 3.0])
    assert np.array_equal(legs, np.full((4, 3), 0.75))


def test_every_law_draws_float64():
    # an integer point mass included: draws are floats whatever the parameters
    laws = (
        ht.RegVaryingDist(1.5, 1.0),
        ht.ExponentialDist(2.0),
        ht.DegenerateDist(1),
        ht.UniformDist(0, 1),
        ht.LowTailPowerDist(0.5),
    )
    rng = rng_for("ht/float64")
    for law in laws:
        draws = [law.sample(rng, 5)]
        if hasattr(law, "sample_length_biased"):
            draws.append(law.sample_length_biased(rng, 5))
        if hasattr(law, "sum_sample"):
            draws.append(law.sum_sample(rng, 3, 5))
        for x in draws:
            assert x.dtype == np.float64 and x.shape == (5,), law


def test_exponential_moments_diverge_at_order_minus_one():
    d = ht.ExponentialDist(1.7)
    for q in (-0.5, 0.5, 2.0, 3.3):
        assert d.moment(q) == pytest.approx(1.7**q * special.gamma(q + 1.0), rel=1e-13)
    assert d.moment(200.0) == math.inf
    # Gamma(201) overflows, but 0.01**200 brings the product back into range
    assert ht.ExponentialDist(0.01).moment(200.0) == pytest.approx(
        math.exp(200.0 * math.log(0.01) + math.lgamma(201.0)), rel=1e-12)
    for q in (-1.0, -1.5, -2.0, math.nan):
        with pytest.raises(ValueError, match=f"order {q}"):
            d.moment(q)


def test_uniform_negative_moments():
    # E X**q for q <= -1 diverges when the support holds 0
    for law, q in ((ht.UniformDist(0.0, 1.0), -1.5), (ht.UniformDist(0.0, 2.0), -1.0),
                   (ht.UniformDist(-1.0, 1.0), -2.0), (ht.UniformDist(-1.0, 0.0), -1.0)):
        with pytest.raises(ValueError, match=f"order {q}"):
            law.moment(q)
    assert ht.UniformDist(0.0, 1.0).moment(-0.5) == pytest.approx(2.0, rel=1e-15)
    for lo, hi, orders in ((0.5, 2.0, (-0.5, -1.0, -2.0, 2.5)), (-3.0, -1.0, (-1.0, -2.0, 3.0))):
        for q in orders:
            oracle, _ = integrate.quad(lambda x: x**q, lo, hi)
            assert ht.UniformDist(lo, hi).moment(q) == pytest.approx(oracle / (hi - lo), rel=1e-12), (lo, q)


def test_low_tail_power_law():
    d = ht.LowTailPowerDist(0.3)
    assert d.upper == pytest.approx(1.0)
    assert d.moment(1.0) == pytest.approx(0.3 / 1.3)
    x = d.sample(rng_for("ht/lowtail"), 200_000)
    assert np.all((0 < x) & (x <= 1.0))
    assert stats.kstest(x, lambda t: np.clip(t, 0, 1) ** 0.3).pvalue > 0.01
    # Laplace transform against quadrature
    for s in (0.1, 1.0, 10.0, 250.0):
        oracle, _ = integrate.quad(lambda a: math.exp(-s * a) * 0.3 * a ** (0.3 - 1.0), 0, 1.0)
        assert float(d.laplace(s)) == pytest.approx(oracle, rel=1e-8)


# -- stable laws ---------------------------------------------------------------------


def test_stable_logchf_basics():
    p = ht.StableParams(1.5, 1.2, 0.4)
    assert p.logchf(0.0) == 0.0
    sym = ht.StableParams(1.5, 1.0, 0.0)
    th = np.array([-2.0, -0.5, 0.5, 2.0])
    assert np.allclose(sym.logchf(th).imag, 0.0)
    # conjugate symmetry
    assert np.allclose(p.logchf(-th), np.conj(p.logchf(th)))


def test_stable_params_from_tails_frozen_values():
    p = ht.stable_params_from_tails(1.5, 1.0, 0.0)
    assert p.beta == pytest.approx(1.0)
    # sigma^1.5 = Gamma(0.5)/(-0.5) * cos(3pi/4) = sqrt(2*pi)
    assert p.sigma**1.5 == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)
    sym = ht.stable_params_from_tails(1.5, 1.0, 1.0)
    assert sym.beta == 0.0
    assert sym.sigma**1.5 == pytest.approx(2.0 * math.sqrt(2.0 * math.pi), rel=1e-12)


def tail_integral_logchf(theta, alpha, c_plus, c_minus):
    """Independent route: log-chf assembled from the two tail integrals.

    D+ = integral of (e^{iw} - 1 - iw) against the measure with density
    alpha * c_plus * w^{-alpha-1} on w > 0 plus the mirrored negative part;
    closed form alpha * I(alpha) with I evaluated below, and
    log chf = theta_+^alpha D+ + theta_-^alpha D-.
    """
    base = special.gamma(2.0 - alpha) / (alpha - 1.0)
    d_plus = base * (c_plus * np.exp(-1j * math.pi * alpha / 2) + c_minus * np.exp(1j * math.pi * alpha / 2))
    d_minus = np.conj(d_plus)
    th = np.asarray(theta, dtype=float)
    return np.maximum(th, 0.0) ** alpha * d_plus + np.maximum(-th, 0.0) ** alpha * d_minus


def test_tail_map_matches_tail_integral_route():
    thetas = np.concatenate([np.linspace(-4, -0.1, 10), np.linspace(0.1, 4, 10)])
    for alpha, cp, cm in [(1.5, 1.0, 0.0), (1.5, 1.0, 1.0), (1.2, 0.3, 0.8), (1.8, 2.0, 0.5)]:
        p = ht.stable_params_from_tails(alpha, cp, cm)
        got = p.logchf(thetas)
        want = tail_integral_logchf(thetas, alpha, cp, cm)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)


def test_compensated_tail_integral_quadrature_oracle():
    """I(alpha) = int_0^inf (e^{ia}-1-ia) a^{-1-alpha} da against its closed form."""
    for alpha in (1.2, 1.5, 1.8):
        re_near, _ = integrate.quad(lambda a: (math.cos(a) - 1.0) * a ** (-1 - alpha), 0, 1)
        im_near, _ = integrate.quad(lambda a: (math.sin(a) - a) * a ** (-1 - alpha), 0, 1)
        re_osc, _ = integrate.quad(lambda a: a ** (-1 - alpha), 1, np.inf, weight="cos", wvar=1.0)
        im_osc, _ = integrate.quad(lambda a: a ** (-1 - alpha), 1, np.inf, weight="sin", wvar=1.0)
        got = complex(re_near + re_osc - 1.0 / alpha, im_near + im_osc - 1.0 / (alpha - 1.0))
        want = special.gamma(2.0 - alpha) / ((alpha - 1.0) * alpha) * np.exp(-1j * math.pi * alpha / 2)
        assert abs(got - want) / abs(want) < 1e-6


# -- Hill estimator ------------------------------------------------------------------


def test_hill_small_example_frozen():
    assert hill_estimate([1.0, 2.0, 4.0, 8.0], k=3) == pytest.approx(1.0 / (2.0 * math.log(2.0)), rel=1e-12)


def test_hill_invariances():
    x = ht.RegVaryingDist(1.7, 1.0).sample(rng_for("ht/hill-inv"), 5000)
    base = hill_estimate(x, k=200)
    assert hill_estimate(3.5 * x, k=200) == pytest.approx(base, rel=1e-12)
    assert hill_estimate(x**2.0, k=200) == pytest.approx(base / 2.0, rel=1e-12)


def test_hill_consistency_pareto():
    x = ht.RegVaryingDist(1.7, 1.0).sample(rng_for("ht/hill-consist"), 100_000)
    est = hill_estimate(x)  # default k = ceil(n^0.6)
    assert abs(est - 1.7) < 0.15


def test_hill_validation():
    with pytest.raises(ValueError):
        hill_estimate([1.0, 2.0], k=5)
    with pytest.raises(ValueError):
        hill_estimate([-1.0, 2.0, 3.0], k=1)


# -- property tests -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1.05, 1.95),
    cp=st.floats(0.0, 5.0),
    cm=st.floats(0.0, 5.0),
)
def test_tail_map_valid_range_property(alpha, cp, cm):
    p = ht.stable_params_from_tails(alpha, cp, cm)
    assert p.sigma >= 0
    assert -1.0 <= p.beta <= 1.0
    if cp + cm > 0:
        assert p.sigma > 0
        assert p.beta == pytest.approx((cp - cm) / (cp + cm))


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(1.05, 3.0),
    scale=st.floats(0.2, 5.0),
    x=st.floats(0.01, 50.0),
)
def test_survival_scale_equivariance_property(alpha, scale, x):
    d1 = ht.RegVaryingDist(alpha, 1.0)
    d2 = ht.RegVaryingDist(alpha, scale)
    assert float(d2.survival(scale * x)) == pytest.approx(float(d1.survival(x)), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.0, 20.0))
def test_residual_survival_monotone_property(t):
    d = ht.RegVaryingDist(1.5, 1.0)
    a = float(residual_survival(d, t))
    b = float(residual_survival(d, t + 0.5))
    assert 0.0 <= b <= a <= 1.0

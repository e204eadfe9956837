"""Tests for pulse families: the shared kernel table, mean masses, moment kernels.

The kernel table is checked against window closed forms, additivity, total
masses and the quadrature of a test-local table of point values w(s); its
samplers against the aged-pulse and length-biased laws; Brownian pulses
through the shot-noise touched-cell sampler, for exact-law marginals; and
the moments (mean mass, mean pulse, correlation kernel, covariance integral)
against closed forms, brute-force quadrature and Monte Carlo over kernel
draws.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from heavyagg import heavy_tail as ht
from heavyagg import pulses
from heavyagg import shot_noise
from heavyagg import streams

K = pulses.KERNELS


def rng_for(tag, index=0):
    return streams.stream(77, tag, index)


def pareto(alpha=1.5, x_min=1.0):
    return ht.RegVaryingDist(alpha, x_min)


def window(kind, d, m, a, b):
    """Mass over pulse-local (a, b], clipped to the support as the path samplers do."""
    d = np.asarray(d, dtype=float)
    return K[kind].mass(m, np.clip(a, 0.0, d), np.clip(b, 0.0, d))


# the reference pulse shape w(s) of each deterministic family, at
# pulse-local times 0 <= s < d: the kernels integrate it but never read it
POINT_VALUE = {
    "rect-indep": lambda m, s: m * np.ones_like(s, dtype=float),
    "rect-coupled": lambda m, s: m * np.ones_like(s, dtype=float),
    "exp-damped": lambda m, s: np.exp(-m * s),
    "on-off": lambda m, s: np.less(s, m).astype(float),
    "workload": lambda m, s: np.clip(m - s, 0.0, None),
    "renewal-reward": lambda m, s: m * np.ones_like(s, dtype=float),
}


def state(kind, d, m, s):
    """W(s): the reference point value inside the support and zero after it."""
    inside = s < d
    return np.where(inside, POINT_VALUE[kind](m, np.where(inside, s, 0.0)), 0.0)


# one model per deterministic family
DETERMINISTIC = {
    "rect-indep": pulses.RectIndep(ht.UniformDist(0.5, 2.0), pareto()),
    "rect-coupled": pulses.RectCoupled(pareto(), 0.6),
    "exp-damped": pulses.ExpDamped(ht.LowTailPowerDist(0.4), pareto()),
    "on-off": pulses.OnOff(pareto(), ht.ExponentialDist(1.0)),
    "workload": pulses.Workload(pareto(2.5), ht.ExponentialDist(1.0)),
    "renewal-reward": pulses.RenewalReward(
        pareto(), pulses.RewardLaw("independent", dist=ht.UniformDist(0.0, 1.0))
    ),
}


# one model per family for the moment integrals, the mixture included; the
# workload covariance integral needs a busy-leg tail index above 3
MOMENT_MODELS = {
    **DETERMINISTIC,
    "workload": pulses.Workload(pareto(5.0), ht.ExponentialDist(1.0)),
    "brownian": pulses.BrownianPulse(pareto(2.6)),
    "coupled-reward": pulses.RenewalReward(
        pareto(), pulses.RewardLaw("coupled", g=lambda z, u: (2.0 * u - 1.0) ** 2 / (1.0 + z))
    ),
    "coupled-reward-exp": pulses.RenewalReward(
        ht.ExponentialDist(1.0), pulses.RewardLaw("coupled", g=lambda z, u: (2.0 * u - 1.0) ** 2 / (1.0 + z))
    ),
    "mixture": pulses.MixturePulse((pulses.RectIndep(ht.DegenerateDist(1.0), pareto()),
                                    pulses.ExpDamped(ht.LowTailPowerDist(0.4), pareto())), (0.3, 0.7)),
}


# -- window closed forms ------------------------------------------------------------


def test_rect_window_overlap():
    got = window("rect-indep", 3.0, 2.0, np.array([1.0, 0.0, 3.0]), np.array([5.0, 1.0, 9.0]))
    np.testing.assert_allclose(got, [4.0, 2.0, 0.0], rtol=1e-12)
    assert got[2] == 0.0


def test_zero_duration_pulse():
    assert window("rect-indep", 0.0, 5.0, 0.0, 10.0) == 0.0


def test_exp_damped_window():
    assert window("exp-damped", 2.0, 1.0, 0.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)
    # window past the support adds nothing
    assert window("exp-damped", 2.0, 1.0, 0.0, 50.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)


def test_exp_damped_tiny_rate_limit():
    assert window("exp-damped", 4.0, 1e-13, 0.0, 4.0) == pytest.approx(4.0, rel=1e-9)


def test_window_additivity_closed_forms():
    rng = rng_for("pl/additivity")
    for kind, model in DETERMINISTIC.items():
        d, m = K[kind].fresh(model, rng, 200)
        for a, b, c in [(0.0, 0.7, 1.9), (0.2, 1.0, 3.0)]:
            whole = window(kind, d, m, a, c)
            split = window(kind, d, m, a, b) + window(kind, d, m, b, c)
            np.testing.assert_allclose(whole, split, rtol=0, atol=1e-12, err_msg=kind)


# closed-form total mass int_0^d w of each deterministic family
TOTAL_MASS = {
    "rect-indep": lambda d, m: m * d,
    "rect-coupled": lambda d, m: m * d,
    "exp-damped": lambda d, m: -np.expm1(-m * d) / m,
    "on-off": lambda d, m: m,
    "workload": lambda d, m: 0.5 * m**2,
    "renewal-reward": lambda d, m: m * d,
}


def test_total_mass_equals_full_window():
    rng = rng_for("pl/mass")
    for kind, model in DETERMINISTIC.items():
        d, m = K[kind].fresh(model, rng, 200)
        want = TOTAL_MASS[kind](d, m)
        np.testing.assert_allclose(window(kind, d, m, 0.0, d), want, rtol=1e-12, err_msg=kind)
        np.testing.assert_allclose(window(kind, d, m, 0.0, 10.0 * d), want, rtol=1e-12, err_msg=kind)


@pytest.mark.parametrize("kind", sorted(DETERMINISTIC))
def test_window_mass_is_quadrature_of_point_value(kind):
    rng = rng_for(f"pl/quad/{kind}")
    d, m = K[kind].fresh(DETERMINISTIC[kind], rng, 6)
    for di, mi in zip(d, m):
        # on-off and workload pulses kink (or jump) at the busy-leg end m
        for lo, hi in [(0.0, di), (0.3 * di, 0.8 * di), (0.1 * di, 0.1 * di)]:
            kinks = [mi] if kind in ("on-off", "workload") and lo < mi < hi else None
            want, _ = integrate.quad(lambda s: float(POINT_VALUE[kind](mi, s)), lo, hi, points=kinks, limit=200)
            assert float(K[kind].mass(mi, lo, hi)) == pytest.approx(want, rel=1e-9, abs=1e-12), kind


def test_rect_coupled_mass_is_r():
    model = pulses.RectCoupled(pareto(), 0.5)
    r = model.R.sample(rng_for("pl/coupled-r"), 1000)
    d, m = K["rect-coupled"].fresh(model, rng_for("pl/coupled-r"), 1000)
    np.testing.assert_allclose(window("rect-coupled", d, m, 0.0, d), r, rtol=1e-12)


def test_exp_damped_mass_long_duration_limit():
    assert window("exp-damped", 1e9, 1.0, 0.0, 1e9) == pytest.approx(1.0, rel=1e-9)


def test_rect_coupled_p1_collapses_to_indicator():
    model = pulses.RectCoupled(pareto(), 1.0)
    rng = rng_for("pl/p1")
    d, m = K["rect-coupled"].fresh(model, rng, 1000)
    age, d_aged, m_aged = K["rect-coupled"].aged(model, rng, 1000)
    np.testing.assert_allclose(np.concatenate((m, m_aged)), 1.0, rtol=1e-12)
    assert np.all(np.concatenate((d, d_aged)) >= 1.0)


def test_mean_mass_matches_sampled_masses():
    # light duration tails, so the sample mean of the masses has a variance
    rng = rng_for("pl/mean-mass")
    models = {
        "rect-indep": pulses.RectIndep(ht.UniformDist(0.5, 2.0), pareto(3.5)),
        "rect-coupled": pulses.RectCoupled(pareto(3.5), 0.6),
        "exp-damped": pulses.ExpDamped(ht.LowTailPowerDist(0.4), pareto(3.5)),
        "on-off": pulses.OnOff(pareto(3.5), ht.ExponentialDist(1.0)),
        "workload": pulses.Workload(pareto(5.0), ht.ExponentialDist(1.0)),
        "renewal-reward": pulses.RenewalReward(pareto(3.5), pulses.vanishing_reward(0.5)),
    }
    n = 100_000
    for kind, model in models.items():
        d, m = K[kind].fresh(model, rng, n)
        mass = window(kind, d, m, 0.0, d)
        se = mass.std(ddof=1) / math.sqrt(n)
        assert abs(mass.mean() - pulses.mean_mass(model)) <= 4.0 * se, kind


def test_mean_mass_quadratures_raise_on_a_large_error_bound(monkeypatch):
    # exp-damped and coupled-reward mean masses keep quad's error bound
    monkeypatch.setattr(integrate, "quad", lambda f, lo, hi, **kw: (1.0, 0.5))
    for model in (pulses.ExpDamped(ht.LowTailPowerDist(0.4), pareto(1.5)),
                  pulses.RenewalReward(pareto(1.5), pulses.vanishing_reward(0.5))):
        with pytest.raises(RuntimeError, match="mean mass quadrature did not converge"):
            pulses.mean_mass(model)


def test_kernel_and_moment_quadratures_raise_when_they_do_not_converge(monkeypatch):
    # the workload and coupled-reward correlation kernels, the coupled-reward
    # mean pulse, the quadrature covariance integrals, partial moments of
    # non-Pareto laws and uniform expectations keep quad's error bound: an
    # integrand oscillating far faster than quad's subdivision limit resolves
    # makes each of them raise
    def wild(self, x):
        return np.exp(-x) * (1.0 + np.sin(1e5 * x))

    monkeypatch.setattr(ht.RegVaryingDist, "survival", wild)
    monkeypatch.setattr(ht.RegVaryingDist, "pdf", wild)
    monkeypatch.setattr(pulses.RewardLaw, "cond_mean", lambda self, z: np.ones_like(z))
    monkeypatch.setattr(pulses.RewardLaw, "cond_moment2", lambda self, z: np.ones_like(z))
    cases = [
        ("workload correlation kernel",
         lambda: pulses.corr_kernel(pulses.Workload(pareto(2.5), ht.ExponentialDist(1.0)), 0.5, 0.3)),
        ("coupled-reward correlation kernel",
         lambda: pulses.corr_kernel(pulses.RenewalReward(pareto(3.5), pulses.vanishing_reward(0.5)), 0.5, 0.3)),
        ("coupled-reward mean pulse", lambda: pulses.mean_pulse(MOMENT_MODELS["coupled-reward"], 0.5)),
        ("coupled-reward covariance", lambda: pulses.cov_integral(MOMENT_MODELS["coupled-reward"], 0.5)),
        ("covariance", lambda: pulses.cov_integral(DETERMINISTIC["exp-damped"], 0.5)),
        ("uniform expectation", lambda: ht.UniformDist(0.0, 1.0).expect(lambda w: math.sin(1e5 * w))),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for what, call in cases:
            with pytest.raises(RuntimeError, match=f"{what} quadrature did not converge"):
                call()


# -- Brownian pulses ------------------------------------------------------------------


def brownian_windows(d, cuts, rng):
    """Window integrals (n, n_windows) of Brownian pulses of durations d started at 0.

    One pulse per row, through the touched-cell sampler of the shot-noise path.
    """
    n, nx = d.size, cuts.size
    out = np.zeros(n * nx)
    lows = np.concatenate(([0.0], cuts[:-1]))
    shot_noise._add_cells(out, pulses.BrownianPulse(pareto(3.5)), d, None, 0.0, np.full(n, cuts[0]), np.zeros(n),
                          np.arange(n) * nx, np.ones(n, dtype=np.intp), lows, cuts, rng)
    return out.reshape(n, nx)


def test_brownian_integral_marginal_law():
    # integral of B over [0, t] is N(0, t^3/3); the windows share one path
    n = 40_000
    rng = rng_for("pl/bm-marginal")
    vals = brownian_windows(np.full(n, np.inf), np.array([0.5, 1.2, 2.0]), rng)
    assert stats.kstest(vals[:, 0] / math.sqrt(0.5**3 / 3.0), "norm").pvalue > 0.01
    assert stats.kstest(vals.sum(axis=1) / math.sqrt(8.0 / 3.0), "norm").pvalue > 0.01


def test_brownian_mass_in_law():
    """Total mass of a Brownian pulse is Z * sqrt(R^3/3) in law."""
    n = 30_000
    rng = rng_for("pl/bm-mass")
    model = pulses.BrownianPulse(pareto(3.5))
    d, m = K["brownian"].fresh(model, rng, n)
    assert m is None
    cuts = np.array([1.0, 2.0, 4.0, 2.0 * d.max()])
    total = brownian_windows(d, cuts, rng).sum(axis=1)
    assert stats.kstest(total / np.sqrt(d**3 / 3.0), "norm").pvalue > 0.01


# -- moment kernels -------------------------------------------------------------------


def test_mean_w_rect_indep():
    # E W(t) = E A * P(R > t): 1 * 0.125 at t = 4 and 1 at t = 0.5 (R >= 1)
    model = pulses.RectIndep(ht.UniformDist(0.0, 2.0), pareto())
    d, m = K["rect-indep"].fresh(model, rng_for("pl/mean-w"), 200_000)
    for t, want in [(4.0, 0.125), (0.5, 1.0)]:
        w = state("rect-indep", d, m, t)
        assert abs(w.mean() - want) <= 4.0 * w.std(ddof=1) / math.sqrt(w.size), t


def test_corr_kernel_against_monte_carlo():
    rng = rng_for("pl/kernel-mc")
    n = 60_000
    cases = [
        (pulses.RectIndep(ht.UniformDist(0.0, 2.0), pareto()), 0.8, 1.1),
        (pulses.RectCoupled(pareto(1.7), 0.7), 0.8, 1.1),
        (pulses.ExpDamped(ht.LowTailPowerDist(0.4), pareto()), 0.5, 0.9),
        (pulses.BrownianPulse(pareto(2.6)), 0.8, 1.1),
        (pulses.OnOff(pareto(), ht.ExponentialDist(1.0)), 0.8, 1.1),
        (pulses.Workload(pareto(5.0), ht.ExponentialDist(1.0)), 0.6, 0.8),
        (MOMENT_MODELS["coupled-reward"], 0.3, 0.9),
    ]
    for model, u, t in cases:
        kind = model.kind
        d, m = K[kind].fresh(model, rng, 40_000 if kind == "brownian" else n)
        if kind == "brownian":
            # B(u) and B(u + t) of a path independent of the duration
            b_u = math.sqrt(u) * rng.standard_normal(d.size)
            b_ut = b_u + math.sqrt(t) * rng.standard_normal(d.size)
            vals = np.where(u + t <= d, b_u * b_ut, 0.0)
        else:
            vals = state(kind, d, m, u) * state(kind, d, m, u + t)
        want = pulses.corr_kernel(model, u, t)
        se = np.std(vals) / math.sqrt(vals.size)
        assert abs(np.mean(vals) - want) < 4 * se + 1e-4, model.kind


def test_corr_kernel_integrates_to_known_covariance():
    """For the unit-amplitude rectangular family the u-integral has a closed form."""
    model = pulses.RectIndep(ht.DegenerateDist(1.0), pareto(1.5, 1.0))
    for t in (1.0, 2.0, 4.0):
        val, _ = integrate.quad(lambda u: pulses.corr_kernel(model, u, t), 0, np.inf, limit=200)
        assert val == pytest.approx(2.0 * t**-0.5, rel=1e-8)


def test_exp_damped_kernel_closed_form():
    model = pulses.ExpDamped(ht.LowTailPowerDist(0.4), pareto())
    u, t = 0.7, 1.3
    brute, _ = integrate.quad(
        lambda a: math.exp(-a * (2 * u + t)) * 0.4 * a ** (0.4 - 1.0), 0, 1.0
    )
    want = brute * float(pareto().survival(u + t))
    assert pulses.corr_kernel(model, u, t) == pytest.approx(want, rel=1e-8)


def test_workload_kernel_requires_finite_second_moment():
    model = pulses.Workload(pareto(1.5), ht.ExponentialDist(1.0))
    with pytest.raises(ValueError):
        pulses.corr_kernel(model, 1.0, 1.0)


# -- aged pulses ---------------------------------------------------------------------


def test_aged_pulse_age_law():
    model = pulses.RectIndep(ht.DegenerateDist(1.0), pareto())
    ages = K["rect-indep"].aged(model, rng_for("pl/age"), 50_000)[0]
    cdf = lambda t: 1.0 - pareto().integrated_survival(t) / pareto().mean()
    assert stats.kstest(ages, cdf).pvalue > 0.01


def test_aged_pulse_duration_exceeds_age():
    models = [
        pulses.RectIndep(ht.DegenerateDist(1.0), pareto()),
        pulses.RectCoupled(pareto(), 0.5),
        pulses.ExpDamped(ht.LowTailPowerDist(0.4), pareto()),
        pulses.BrownianPulse(pareto(2.5)),
        pulses.OnOff(pareto(), ht.ExponentialDist(1.0)),
        pulses.Workload(pareto(2.5), ht.ExponentialDist(1.0)),
        pulses.RenewalReward(pareto(), pulses.vanishing_reward(0.5)),
    ]
    rng = rng_for("pl/age-dur")
    for model in models:
        age, d, _ = K[model.kind].aged(model, rng, 2_000)
        assert np.all((0.0 <= age) & (age <= d)), model.kind


def test_on_off_cycle_mixture_marginals():
    """Length-biased sum cycle: E[Z] under the biased law is E[Z^2]/E[Z]."""
    model = pulses.OnOff(pareto(4.0, 1.0), ht.ExponentialDist(0.5))
    n = 120_000
    _, zs, _ = K["on-off"].aged(model, rng_for("pl/cycle-lb"), n)
    z_on, z_off = pareto(4.0, 1.0), ht.ExponentialDist(0.5)
    ez = z_on.mean() + z_off.mean()
    ez2 = z_on.moment(2.0) + 2 * z_on.mean() * z_off.mean() + z_off.moment(2.0)
    target = ez2 / ez
    # variance of the biased draw via third moments
    ez3 = (
        z_on.moment(3.0)
        + 3 * z_on.moment(2.0) * z_off.mean()
        + 3 * z_on.mean() * z_off.moment(2.0)
        + z_off.moment(3.0)
    )
    se = math.sqrt(max(ez3 / ez - target**2, 0.0) / n)
    assert abs(np.mean(zs) - target) < 3.5 * se


# -- reward laws ---------------------------------------------------------------------


def test_reward_law_independent():
    law = pulses.RewardLaw("independent", dist=ht.UniformDist(0.0, 2.0))
    z = np.array([1.0, 5.0, 10.0])
    assert np.allclose(law.cond_mean(z), 1.0)
    assert np.allclose(law.cond_moment2(z), 4.0 / 3.0)
    assert law.limit_expect(lambda w: w**2) == pytest.approx(4.0 / 3.0)


def test_vanishing_reward_default():
    law = pulses.vanishing_reward(0.5)
    z = np.array([0.0, 3.0, 80.0])
    assert np.allclose(law.cond_mean(z), 0.0, atol=1e-12)
    want = (1.0 + z) ** -1.0 / 3.0  # E(2U-1)^2 = 1/3
    assert np.allclose(law.cond_moment2(z), want, rtol=1e-9)
    assert law.limit_expect(lambda w: (w - 0.25) ** 2) == pytest.approx(0.0625)
    rng = rng_for("pl/reward")
    w = law.sample_given_z(np.full(200_000, 2.0), rng)
    assert np.all(np.abs(w) <= 3.0**-0.5 + 1e-12)
    assert abs(np.mean(w)) < 3 * np.std(w) / math.sqrt(w.size)


def brute_quad(f, lo):
    """int_lo^inf f by plain quad, split at 1 (every duration law here starts there)."""
    edges = [lo, max(lo, 1.0), np.inf]
    return sum(integrate.quad(f, a, b, limit=400)[0] for a, b in zip(edges, edges[1:]) if b > a)


def cov_brute(model, t):
    """int_0^inf E[W(u) W(u+t)] du by plain quad.

    Where the correlation kernel is itself a quadrature (workload pulses,
    coupled rewards), the integral runs over the cycle length z instead,
    against the within-cycle product integrated in closed form.
    """
    if model.kind == "workload":
        zon = model.Zon
        return brute_quad(lambda z: ((z - t) ** 3 / 3.0 + t * (z - t) ** 2 / 2.0) * float(zon.pdf(z)), t)
    if model.kind == "renewal-reward" and model.reward.kind == "coupled":
        # E[g(z, U)**2] = E(2U - 1)**4 / (1 + z)**2 = 1 / (5 (1 + z)**2)
        return brute_quad(lambda z: (z - t) / (5.0 * (1.0 + z) ** 2) * float(model.Z.pdf(z)), t)
    return brute_quad(lambda u: pulses.corr_kernel(model, u, t), 0.0)


@pytest.mark.parametrize("kind", sorted(set(MOMENT_MODELS) - {"coupled-reward", "coupled-reward-exp"}))
def test_mean_pulse_integrates_to_mean_mass(kind):
    model = MOMENT_MODELS[kind]
    total = brute_quad(lambda t: float(pulses.mean_pulse(model, t)), 0.0)
    assert total == pytest.approx(pulses.mean_mass(model), rel=1e-7, abs=1e-12)


@pytest.mark.parametrize("kind", ["coupled-reward", "coupled-reward-exp"])
def test_coupled_reward_mean_pulse_matches_plain_quadrature(kind):
    # G1(t) = E[E[W | Z]; Z > t] with E[W | Z = z] = 1 / (3 (1 + z)); each
    # value is a quadrature itself, so it is checked pointwise
    model = MOMENT_MODELS[kind]
    t = np.array([0.0, 0.4, 1.0, 2.5])
    brute = [brute_quad(lambda z: float(model.Z.pdf(z)) / (3.0 * (1.0 + z)), s) for s in t]
    assert np.allclose(pulses.mean_pulse(model, t), brute, rtol=1e-8, atol=0.0)
    mass = brute_quad(lambda z: z * float(model.Z.pdf(z)) / (3.0 * (1.0 + z)), 0.0)
    assert pulses.mean_mass(model) == pytest.approx(mass, rel=1e-8)


@pytest.mark.parametrize("kind", sorted(MOMENT_MODELS))
def test_cov_integral_matches_brute_quadrature(kind):
    model = MOMENT_MODELS[kind]
    lags = np.array([[0.0, 0.4], [1.0, 2.5]])
    got = pulses.cov_integral(model, lags)
    assert got.shape == lags.shape
    for t, value in zip(lags.ravel(), got.ravel()):
        assert value == pytest.approx(cov_brute(model, t), rel=1e-7), t


def test_mean_pulse_closed_forms():
    t = np.array([0.5, 2.0])
    # rect-indep: E[A] P(R > t); on-off: P(Z_on > t); workload: int_t^inf P(Z_on > s) ds
    assert np.allclose(pulses.mean_pulse(DETERMINISTIC["rect-indep"], t), 1.25 * np.array([1.0, 2.0**-1.5]))
    assert np.allclose(pulses.mean_pulse(DETERMINISTIC["on-off"], t), [1.0, 2.0**-1.5])
    assert np.allclose(pulses.mean_pulse(DETERMINISTIC["workload"], t), [0.5 + 1.0 / 1.5, 2.0**-1.5 / 1.5])
    # rect-coupled: E[R^(1-p); R^p > t] = alpha t**((1-p-alpha)/p) / (alpha - 1 + p) past x_min
    want = 1.5 * 2.0 ** ((1.0 - 0.6 - 1.5) / 0.6) / (1.5 - 1.0 + 0.6)
    assert float(pulses.mean_pulse(DETERMINISTIC["rect-coupled"], 2.0)) == pytest.approx(want, rel=1e-12)
    assert np.all(pulses.mean_pulse(MOMENT_MODELS["brownian"], t) == 0.0)


def test_mixture_pulse_moments():
    m1 = pulses.RectIndep(ht.DegenerateDist(1.0), pareto())
    m2 = pulses.ExpDamped(ht.LowTailPowerDist(0.4), pareto())
    mix = pulses.MixturePulse((m1, m2), (0.3, 0.7))
    t, u = 1.5, 0.8
    assert pulses.mean_mass(mix) == pytest.approx(0.3 * pulses.mean_mass(m1) + 0.7 * pulses.mean_mass(m2))
    assert pulses.corr_kernel(mix, u, t) == pytest.approx(
        0.3 * pulses.corr_kernel(m1, u, t) + 0.7 * pulses.corr_kernel(m2, u, t)
    )

"""Tests for regenerative sources.

Covers the stationary cycle samplers (window integrals of the path and
fresh cycles with their centered masses), the covariance decomposition
Cov = R + h with its renewal-function solver, and the scaling table.  Grid
numerics are checked against closed forms (exponential and uniform cycle
laws, the on-off and renewal-reward worked examples) and, for a coupled
reward, whose moments are quadratures, against a brute-force double
integral; the per-family moments themselves are tested in test_pulses.  The
path sampler is checked against the grids by Monte Carlo with 4-sigma bands
(window means and covariances; thin windows read the lagged state
covariance of on-off, exp-damped, workload and coupled-reward sources), and
its block cycle walk against a reference wave loop by two-sample KS tests on
wide and on thin windows, against itself under refined cut grids, and
against the busy fraction of the M/G/1/0 queue.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sp_stats

from heavyagg import heavy_tail as ht
from heavyagg import pulses
from heavyagg import regenerative as rg
from heavyagg import streams
from heavyagg.limit_fields import telecom_logchf

from tail_stats import hill_estimate


def rng_for(tag, index=0):
    return streams.stream(91, tag, index)


def onoff_model(alpha=1.5):
    return rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(alpha, 1.0), ht.ExponentialDist(1.0)))


def uniform_reward():
    return pulses.RewardLaw("independent", dist=ht.UniformDist(0.0, 1.0))


def exp_damped_model():
    return rg.RegenModel(pulses.ExpDamped(ht.LowTailPowerDist(0.5, 1.0), ht.RegVaryingDist(1.5, 1.0)))


def workload_model():
    return rg.RegenModel(pulses.Workload(ht.RegVaryingDist(6.0, 1.0), ht.ExponentialDist(1.0)))


def coupled_reward_model():
    reward = pulses.RewardLaw("coupled", g=lambda z, u: (2.0 * u - 1.0) ** 2 / (1.0 + z))
    return rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(1.5, 1.0), reward))


def centered_masses(model, rng, size):
    """Cycle mass minus mean rate times cycle length, over fresh cycles."""
    z, mass = rg.cycle_sample(model, rng, size)
    return mass - model.mean_rate * z


# -- model wrapper --------------------------------------------------------------------


def test_model_rejects_unknown_family():
    shot = pulses.RectIndep(ht.DegenerateDist(1.0), ht.RegVaryingDist(1.5, 1.0))
    with pytest.raises(ValueError):
        rg.RegenModel(shot)


def test_model_requires_finite_cycle_mean():
    with pytest.raises(ValueError):
        rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(0.9, 1.0), ht.ExponentialDist(1.0)))


def test_workload_needs_square_integrable_busy_leg():
    with pytest.raises(ValueError):
        rg.RegenModel(pulses.Workload(ht.RegVaryingDist(1.5, 1.0), ht.ExponentialDist(1.0)))


def test_mean_rate_closed_forms():
    assert onoff_model().mean_rate == pytest.approx(0.75)
    wl = workload_model()
    assert wl.mu == pytest.approx(2.2)
    assert wl.mean_rate == pytest.approx(0.75 / 2.2)
    rr = rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(2.5, 1.0), uniform_reward()))
    assert rr.mean_rate == pytest.approx(0.5)


def test_exp_damped_mass_mean_matches_double_integral():
    # independent quadrature of E[(1 - exp(-A R)) / A] over both densities
    assert pulses.mean_mass(exp_damped_model().pulse) == pytest.approx(1.6974256954995037, rel=1e-10)


# -- cycle-level samplers -------------------------------------------------------------


def test_cycle_sample_shapes():
    model = onoff_model()
    zv, mv = rg.cycle_sample(model, rng_for("rg/shapes", 1), size=50)
    assert zv.shape == mv.shape == (50,)
    assert np.all(mv <= zv) and np.all(mv >= 0.0)


def test_coupled_reward_mass_mean_matches_mc():
    model = coupled_reward_model()
    _, mass = rg.cycle_sample(model, rng_for("rg/mass-coupled"), size=120000)
    sem = mass.std(ddof=1) / math.sqrt(mass.size)
    assert mass.mean() == pytest.approx(pulses.mean_mass(model.pulse), abs=4 * sem)


def test_tilde_mass_is_centered():
    model = onoff_model(alpha=2.5)  # finite variance, so the plain mean converges
    td = centered_masses(model, rng_for("rg/tilde-centered"), 150000)
    sem = td.std(ddof=1) / math.sqrt(td.size)
    assert td.mean() == pytest.approx(0.0, abs=4 * sem)


def test_tilde_mass_tail_routes_on_off():
    # busy leg heavy: the positive side carries the cycle tail index, the
    # negative side is capped by the exponential idle leg
    td = centered_masses(onoff_model(), rng_for("rg/tilde-mg1"), 250000)
    assert hill_estimate(td[td > 0]) == pytest.approx(1.5, abs=0.25)
    assert td.max() > 100.0
    assert -td.min() < 30.0


def test_tilde_mass_tail_routes_exp_damped():
    # long cycles carry tiny mass, so the heavy side is the *negative* one;
    # the positive tail needs a long cycle and a slow damping rate at once,
    # which raises its index to duration + damping.  At 2M draws and k = 2000
    # the Hill estimates over keyed streams spread ~0.03 (negative side) and
    # ~0.045 (positive side), 4.5+ spreads inside the +-0.25 bounds; 200k
    # draws and k = 200 missed them on a few keys in 60
    td = centered_masses(exp_damped_model(), rng_for("rg/tilde-ed"), 2_000_000)
    assert hill_estimate(-td[td < 0], 2000) == pytest.approx(1.5, abs=0.25)
    assert hill_estimate(td[td > 0], 2000) == pytest.approx(2.0, abs=0.25)


def test_integrated_sample_mean_and_variance():
    model = onoff_model()
    draws = rg.integrated_path(model, [5.0], rng_for("rg/integrated"), 60000)[:, 0]
    assert np.all((draws >= 0.0) & (draws <= 5.0 + 1e-9))
    sem = draws.std(ddof=1) / math.sqrt(draws.size)
    assert draws.mean() == pytest.approx(3.75, abs=4 * sem)
    # window variance against the covariance grid: Var = 2 int (T-s) Cov(s) ds
    dec = rg.cov_decomposition(model, 5.0, 0.01)
    var_th = 2.0 * np.trapezoid((5.0 - dec.t) * dec.cov, dec.t)
    sv = draws.var(ddof=1)
    m4 = np.mean((draws - draws.mean()) ** 4)
    se_var = math.sqrt((m4 - sv**2) / draws.size)
    assert sv == pytest.approx(var_th, abs=4 * se_var)


def test_integrated_sample_validation_and_flags():
    model = onoff_model()
    with pytest.raises(ValueError):
        rg.integrated_path(model, [0.0], rng_for("rg/int-bad"), 1)
    one = rg.integrated_path(model, [2.0], rng_for("rg/int-scalar"), 1)
    assert one.shape == (1, 1) and 0.0 <= one[0, 0] <= 2.0


THIN = 1e-3


def thin_windows(times):
    """Cuts that open a window of width THIN at each time, and those windows' columns.

    Times increase at least THIN apart; a time of 0 opens the first window.
    A thin window divided by its width reads the state near its time.
    """
    cuts, cols = [], []
    for t in times:
        if t > 0.0:
            cuts.append(t)
        cuts.append(t + THIN)
        cols.append(len(cuts) - 1)
    return cuts, cols


def _assert_windows_follow_the_grid(model, cuts, pairs, dec, tag, n=120_000):
    """Window means, and the covariance of each window pair, against the grid.

    The covariance of two windows is the double integral of the covariance
    grid over them; the bands are 4 standard errors.
    """
    vals = rg.integrated_path(model, cuts, rng_for(tag), n)
    assert cuts[-1] <= dec.t[-1]
    edges = np.concatenate(([0.0], cuts))

    def window_cov(i, j):
        ss = np.linspace(edges[i], edges[i + 1], 201)
        ts = np.linspace(edges[j], edges[j + 1], 201)
        rows = [np.trapezoid(np.interp(np.abs(t - ss), dec.t, dec.cov), ss) for t in ts]
        return float(np.trapezoid(rows, ts))

    for i, j in pairs:
        want = window_cov(i, j)
        got = np.cov(vals[:, i], vals[:, j])[0, 1]
        prod = (vals[:, i] - vals[:, i].mean()) * (vals[:, j] - vals[:, j].mean())
        se = prod.std() / math.sqrt(n)
        assert got == pytest.approx(want, abs=4 * se), (i, j)
    for j, w in enumerate(np.diff(edges)):
        se = vals[:, j].std() / math.sqrt(n)
        assert vals[:, j].mean() == pytest.approx(model.mean_rate * w, abs=4 * se), j


def _state_cov_check(model, lags, dec, tag):
    # the thin window at 0 against itself and against the one at each lag
    cuts, cols = thin_windows([0.0] + lags)
    _assert_windows_follow_the_grid(model, cuts, [(cols[0], c) for c in cols], dec, tag)


def test_state_sample_stationary_mean_flat():
    # thin windows read the on-off state, busy with probability 3/4 at every time
    model = onoff_model()
    cuts, cols = thin_windows([0.0, 1.0, 3.0, 7.0])
    vals = rg.integrated_path(model, cuts, rng_for("rg/state-flat"), 120000)[:, cols] / THIN
    assert vals.shape == (120000, 4)
    # states lie in [0, 1], up to the rounding of a thin window read at a
    # large age inside a long length-biased cycle
    assert np.all(np.abs(vals - np.clip(vals, 0.0, 1.0)) < 1e-2)
    band = 4 * math.sqrt(0.1875 / 120000)
    for col in range(4):
        assert vals[:, col].mean() == pytest.approx(0.75, abs=band)


def test_state_cov_matches_grid_on_off():
    model = onoff_model()
    dec = rg.cov_decomposition(model, 4.0, 0.02)
    _state_cov_check(model, [0.5, 2.0], dec, "rg/state-onoff")


def test_state_cov_matches_grid_exp_damped():
    model = exp_damped_model()
    dec = rg.cov_decomposition(model, 2.0, 0.02)
    _state_cov_check(model, [1.0], dec, "rg/state-expdamp")


def test_state_cov_matches_grid_workload():
    model = workload_model()
    dec = rg.cov_decomposition(model, 2.0, 0.02)
    _state_cov_check(model, [0.7], dec, "rg/state-workload")


# -- renewal function -----------------------------------------------------------------


def renewal_function(cycle_cdf, t_max, dt):
    """(t, U) on the grid of step dt: the solver behind cov_decomposition, fed cdf increments."""
    t = np.arange(int(round(t_max / dt)) + 1) * dt
    return t, rg._solve_renewal(np.clip(np.diff(np.clip(cycle_cdf(t), 0.0, 1.0)), 0.0, None))


def test_renewal_function_exponential_closed_form():
    t, U = renewal_function(lambda s: 1.0 - np.exp(-np.asarray(s)), 20.0, 0.01)
    assert U[0] == 1.0
    assert np.max(np.abs(U - (1.0 + t))) < 5e-4


def test_renewal_function_uniform_closed_form():
    # uniform(0,1) cycles: U(t) = exp(t) on [0, 1]
    t, U = renewal_function(lambda s: np.clip(np.asarray(s, dtype=float), 0.0, 1.0), 1.0, 0.005)
    assert np.max(np.abs(U - np.exp(t))) < 5e-5


def test_renewal_function_validation_and_monotonicity():
    dist = ht.RegVaryingDist(1.5, 1.0)
    _, U = renewal_function(dist.cdf, 30.0, 0.05)
    assert U[0] == 1.0
    assert np.all(np.diff(U) >= -1e-12)


# -- covariance decomposition ---------------------------------------------------------


def test_cov_decomposition_validation():
    model = onoff_model()
    with pytest.raises(ValueError):
        rg.cov_decomposition(model, 1.0, 0.5)  # grid too coarse for the span
    with pytest.raises(ValueError):
        # point-mass idle leg has no density to convolve
        rg.cov_decomposition(
            rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(1.5, 1.0), ht.DegenerateDist(1.0))),
            5.0, 0.05,
        )
    with pytest.raises(ValueError):
        # cubic partial moments of the busy leg need a tail index above 3
        rg.cov_decomposition(
            rg.RegenModel(pulses.Workload(ht.RegVaryingDist(2.5, 1.0), ht.ExponentialDist(1.0))),
            5.0, 0.05,
        )


def test_on_off_decomposition_worked_example():
    # busy Pareto(3/2, 1), idle exp(1): mu = 4, E X = 3/4
    dec = rg.cov_decomposition(onoff_model(), 200.0, 0.04)
    assert dec.mu == pytest.approx(4.0)
    assert dec.mean_rate == pytest.approx(0.75)
    assert dec.R[0] == pytest.approx(0.75)
    assert dec.cov[0] == pytest.approx(0.1875, abs=1e-12)
    assert dec.richardson_err < 2e-3
    # the far grid has reached the power regime on both pieces
    assert dec.h[-1] * math.sqrt(200.0) == pytest.approx(-0.46875, rel=0.02)
    assert dec.R[-1] * math.sqrt(200.0) == pytest.approx(0.5, rel=1e-6)
    mask = dec.t >= 10.0
    slope, intercept = np.polyfit(np.log(dec.t[mask]), np.log(dec.cov[mask]), 1)
    assert slope == pytest.approx(-0.5, abs=0.02)
    # the tail constant is the c_X that the FBS limit of this source uses
    c_x = rg.regime_of(onoff_model(), 1.0).constants["c_X"]
    assert c_x == pytest.approx(0.03125, rel=1e-12)
    assert math.exp(intercept) == pytest.approx(c_x, rel=0.02)


def test_renewal_reward_decomposition_worked_example():
    # cycle Pareto(5/2, 1), reward U(0,1): R(0) = E W^2 = 1/3, Cov(0) = 1/12,
    # and the far grid has h ~ -t**-1.5 / 10 and Cov ~ t**-1.5 / 30
    model = rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(2.5, 1.0), uniform_reward()))
    dec = rg.cov_decomposition(model, 50.0, 0.05)
    assert dec.R[0] == pytest.approx(1.0 / 3.0)
    assert dec.cov[0] == pytest.approx(1.0 / 12.0)
    assert dec.h[-1] * 50.0**1.5 == pytest.approx(-0.1, rel=0.01)
    assert dec.cov[-1] * 50.0**1.5 == pytest.approx(1.0 / 30.0, rel=0.01)


def test_coupled_reward_decomposition():
    # reward (2u - 1)**2 / (1 + z) on Pareto(3/2, 1) cycles has a nonzero
    # mean: R(0) mu = E[W**2 Z], the recurrence part starts at -(E X)**2, and
    # the lagged state covariance follows the grid
    model = coupled_reward_model()
    reward = model.pulse.reward
    dec = rg.cov_decomposition(model, 1.0, 0.05)
    brute, err = integrate.dblquad(lambda u, z: reward.g(z, u) ** 2 * z * 1.5 * z**-2.5, 1.0, np.inf, 0.0, 1.0)
    assert dec.R[0] * dec.mu == pytest.approx(brute, abs=err)
    assert dec.mean_rate > 0.05
    assert dec.cov[0] == dec.R[0] - dec.mean_rate**2
    _state_cov_check(model, [0.5], dec, "rg/state-coupled")


def test_decomposition_grid_bookkeeping():
    model = onoff_model(alpha=2.5)
    dec = rg.cov_decomposition(model, 40.0, 0.02)
    assert dec.U[0] == 1.0
    assert np.all(np.diff(dec.U) >= -1e-12)
    assert abs(dec.z[0]) < 1e-12
    # both boundary kernels integrate to the mean cycle mass (here E Z_on)
    mass = pulses.mean_mass(model.pulse)
    assert np.trapezoid(dec.G0, dec.t) == pytest.approx(mass, rel=0.01)
    assert np.trapezoid(dec.G1, dec.t) == pytest.approx(mass, rel=0.01)
    assert dec.cov.shape == dec.t.shape


def test_light_cycle_has_no_power_asymptote():
    model = rg.RegenModel(pulses.OnOff(ht.ExponentialDist(2.0), ht.ExponentialDist(1.0)))
    dec = rg.cov_decomposition(model, 5.0, 0.05)
    p = 2.0 / 3.0
    assert dec.cov[0] == pytest.approx(p - p * p, abs=1e-9)


def test_workload_decomposition_caveat():
    model = workload_model()
    dec = rg.cov_decomposition(model, 5.0, 0.02)
    # Cov(0) = E X^2 - (E X)^2 with E X^2 = E Z_on^3 / (3 mu)
    var = 2.0 / 6.6 - (0.75 / 2.2) ** 2
    assert dec.cov[0] == pytest.approx(var, abs=1e-9)
    # the draining state anticorrelates at lags near the cycle length ...
    assert dec.cov.min() < -0.01
    assert 0.5 < dec.t[dec.cov.argmin()] < 2.0
    # ... and the dependence dies out well before t_max
    assert np.max(np.abs(dec.cov[dec.t >= 4.0])) < 0.01 * dec.cov[0]


# -- scaling table --------------------------------------------------------------------


def test_on_off_fast_regime():
    spec = rg.regime_of(onoff_model(), 1.2)
    assert spec.limit_kind == "FBS"
    assert spec.gamma0 == pytest.approx(0.5)
    assert spec.H == pytest.approx(0.75 + 0.6)
    assert spec.alpha == 1.5
    assert spec.constants["H1"] == pytest.approx(0.75)
    assert spec.constants["c_X"] == pytest.approx(0.03125)
    assert spec.constants["C_W"] == pytest.approx(0.2886751345948129)
    # log chf of the Gaussian limit: -theta^2 C_W^2 x^(2 H1) y / 2
    val = spec.logchf(2.0, 1.5, 2.0)
    assert val == pytest.approx(-2.0 * 0.03125 / 0.375 * 1.5**1.5 * 2.0)


def test_on_off_slow_regime():
    spec = rg.regime_of(onoff_model(), 0.2)
    assert spec.limit_kind == "StableSheet"
    assert spec.H == pytest.approx(1.2 / 1.5)
    params = spec.constants["stable"]
    assert params.alpha == 1.5
    assert params.beta == 1.0  # only the busy leg is heavy, so only a right tail
    assert params.sigma == pytest.approx(0.1830739859451904)
    assert spec.constants["c_plus"] == pytest.approx(0.125)
    assert spec.constants["c_minus"] == 0.0
    assert spec.logchf(1.0, 2.0, 3.0) == pytest.approx(6.0 * params.logchf(1.0))


def test_on_off_critical_regime_matches_direct_route():
    spec = rg.regime_of(onoff_model(), 0.5)
    assert spec.limit_kind == "Intermediate"
    assert spec.H == 1.0
    assert spec.constants["prefactor"] == pytest.approx(0.25)
    for x, y in [(1.0, 1.0), (2.0, 3.0)]:
        for theta in (-4.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0, 4.0):
            direct = y * telecom_logchf(-theta, x, 1.5, 1.0, 4.0)
            assert spec.logchf(theta, x, y) == pytest.approx(direct, abs=1e-12)
    # conjugate symmetry of the limit law
    a = spec.logchf(2.0, 1.0, 1.0)
    b = spec.logchf(-2.0, 1.0, 1.0)
    assert a == pytest.approx(np.conj(b))


def test_on_off_critical_route_mirror():
    heavy_on = rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(1.5, 1.0), ht.RegVaryingDist(1.8, 1.0)))
    spec = rg.regime_of(heavy_on, 0.5)
    assert spec.alpha == 1.5
    assert spec.constants["prefactor"] == pytest.approx(3.0 / 7.0)
    heavy_off = rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(1.8, 1.0), ht.RegVaryingDist(1.5, 1.0)))
    mirror = rg.regime_of(heavy_off, 0.5)
    assert mirror.alpha == 1.5
    assert mirror.constants["prefactor"] == pytest.approx(-3.0 / 7.0)
    equal = rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(1.5, 1.0), ht.RegVaryingDist(1.5, 2.0)))
    assert rg.regime_of(equal, 1.0).limit_kind == "FBS"
    with pytest.raises(ValueError, match="share the tail index"):
        rg.regime_of(equal, 0.5)


def test_renewal_reward_regimes():
    coupled = rg.RegenModel(
        pulses.RenewalReward(ht.RegVaryingDist(1.5, 1.0), pulses.vanishing_reward(1.0))
    )
    spec = rg.regime_of(coupled, 0.5)
    assert spec.limit_kind == "Intermediate"
    # the default coupled reward is centered, so the limit degenerates to zero
    assert spec.constants["prefactor"] == pytest.approx(0.0, abs=1e-12)
    assert spec.logchf(3.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    model = coupled_reward_model()  # uncentered
    spec2 = rg.regime_of(model, 0.5)
    assert spec2.constants["prefactor"] == pytest.approx(-pulses.mean_mass(model.pulse) / model.mu)

    indep = rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(1.5, 1.0), uniform_reward()))
    with pytest.raises(ValueError, match="vanish"):
        rg.regime_of(indep, 0.5)
    assert rg.regime_of(indep, 1.0).limit_kind == "FBS"
    assert rg.regime_of(indep, 0.25).limit_kind == "StableSheet"


def test_constant_reward_has_flat_covariance_scale():
    # a degenerate reward makes the state constant, so every regime constant
    # built on fluctuations must vanish
    model = rg.RegenModel(
        pulses.RenewalReward(
            ht.RegVaryingDist(1.5, 1.0),
            pulses.RewardLaw("independent", dist=ht.DegenerateDist(0.7)),
        )
    )
    spec = rg.regime_of(model, 1.0)
    assert spec.constants["c_X"] == pytest.approx(0.0, abs=1e-15)
    assert spec.constants["c_plus"] == pytest.approx(0.0, abs=1e-15)
    assert spec.constants["c_minus"] == pytest.approx(0.0, abs=1e-15)


def test_exp_damped_regimes():
    model = exp_damped_model()
    # the scaling exponent follows the cycle tail alone, not the combined
    # mass tail (duration + damping), so gamma0 = 1/2 here
    spec = rg.regime_of(model, 0.5)
    assert spec.gamma0 == pytest.approx(0.5)
    assert spec.limit_kind == "Intermediate"
    mass = pulses.mean_mass(model.pulse)
    assert spec.constants["prefactor"] == pytest.approx(-mass / 3.0)
    for theta in (0.5, 2.0):
        direct = 2.0 * telecom_logchf(theta * mass, 1.5, 1.5, 1.0, 3.0)
        assert spec.logchf(theta, 1.5, 2.0) == pytest.approx(direct, abs=1e-12)

    slow = rg.regime_of(model, 0.3)
    assert slow.limit_kind == "StableSheet"
    assert slow.alpha == 1.5
    assert slow.constants["c_plus"] == 0.0
    assert slow.constants["stable"].beta == -1.0  # long cycles drag the mass *below* its mean


def test_critical_exponent_survives_float_rounding():
    # gamma0 = 1.4 - 1.0 == 0.3999999999999999, yet gamma = 0.4 is critical
    model = onoff_model(alpha=1.4)
    entries = [rg.regime_of(model, g) for g in (0.4, 0.4 + 1e-9, 0.4 - 1e-9)]
    assert [e.limit_kind for e in entries] == ["Intermediate", "FBS", "StableSheet"]
    for e in entries:
        # the exponents every aggregation limit admits
        assert 0.0 <= e.H <= 1.0 + e.gamma and 0.0 <= e.H - e.gamma / 2.0 <= 1.0


def test_regime_validation():
    model = onoff_model()
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            rg.regime_of(model, gamma)
    with pytest.raises(ValueError, match="workload|bound"):
        rg.regime_of(
            workload_model(),
            1.0,
        )
    with pytest.raises(ValueError, match="regularly varying"):
        rg.regime_of(
            rg.RegenModel(pulses.OnOff(ht.ExponentialDist(2.0), ht.ExponentialDist(1.0))), 1.0
        )
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        rg.regime_of(onoff_model(alpha=2.5), 1.0)
    with pytest.raises(ValueError, match="regularly varying"):
        rg.regime_of(
            rg.RegenModel(pulses.RenewalReward(ht.ExponentialDist(1.0), uniform_reward())), 1.0
        )
    with pytest.raises(ValueError):
        rg.regime_of(
            rg.RegenModel(
                pulses.ExpDamped(ht.LowTailPowerDist(0.5, 1.0), ht.RegVaryingDist(2.5, 1.0))
            ),
            1.0,
        )


# -- multi-window path sampler ----------------------------------------------------------


def _wave_path(model, cuts, rng, n_lanes):
    """Reference sampler: the per-cycle wave loop that the block sampler replaced.

    Lanes start from the family's ``aged`` kernel.  Window by window, every
    lane still short of the window's end draws its next cycle per pass.
    """
    kern = pulses.KERNELS[model.kind]
    out = np.zeros((n_lanes, len(cuts)))
    loc, z, aux = kern.aged(model.pulse, rng, n_lanes)
    for j, w in enumerate(np.diff(cuts, prepend=0.0)):
        rem = np.full(n_lanes, w)
        hi = np.minimum(loc + rem, z)
        out[:, j] += kern.mass(aux, loc, hi)
        rem -= z - loc
        loc = hi
        active = np.flatnonzero(rem > 0.0)
        while active.size:
            z_new, aux_new = kern.fresh(model.pulse, rng, active.size)
            hi = np.minimum(rem[active], z_new)
            out[active, j] += kern.mass(aux_new, 0.0, hi)
            z[active], aux[active], loc[active] = z_new, aux_new, hi
            rem[active] -= z_new
            active = active[rem[active] > 0.0]
    return out


PATH_MODELS = {
    "on-off": onoff_model,
    "workload": workload_model,
    "renewal-reward": lambda: rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(2.5, 1.0), uniform_reward())),
    "exp-damped": exp_damped_model,
}
# the last cut spans several mean cycles, so blocks hold many cycles, some
# lanes overrun their block and long cycles straddle more than one cut
PATH_CUTS = [0.5, 4.0, 20.0]


def _renewal_start(kind, monkeypatch):
    """Start every lane of family ``kind`` at a renewal epoch, not stationary.

    The family's ``aged`` kernel then draws a fresh cycle at age 0.  The
    block walk and the wave loop both start from that kernel, and each is
    exact in law from any start independent of the cycles after it.
    """
    kern = pulses.KERNELS[kind]

    def renewal(pulse, rng, n):
        z, aux = kern.fresh(pulse, rng, n)
        return np.zeros(n), z, aux

    monkeypatch.setitem(pulses.KERNELS, kind, kern._replace(aged=renewal))


def _assert_block_matches_waves(family, stationary, tag, calls, lanes, monkeypatch):
    model = PATH_MODELS[family]()
    if not stationary:
        _renewal_start(family, monkeypatch)
    block = np.concatenate([
        rg.integrated_path(model, PATH_CUTS, rng_for(tag, c), lanes) for c in range(calls)
    ])
    wave = _wave_path(model, PATH_CUTS, rng_for(tag + "/wave"), calls * lanes)
    assert block.shape == wave.shape
    for j in range(len(PATH_CUTS)):
        # on-off and workload windows have atoms at 0 and at the window width;
        # differences of cumulative masses smear them by rounding
        res = sp_stats.ks_2samp(np.round(block[:, j], 9), np.round(wave[:, j], 9))
        assert res.pvalue > 1e-3, (family, stationary, j, res)


@pytest.mark.parametrize("stationary", [True, False])
@pytest.mark.parametrize("family", sorted(PATH_MODELS))
def test_path_block_sampler_matches_wave_sampler_in_law(family, stationary, monkeypatch):
    # 1000 lanes per call keep the default cell budget from capping blocks at one cycle
    _assert_block_matches_waves(family, stationary, f"path-law/{family}/{stationary}", 12, 1000, monkeypatch)


@pytest.mark.parametrize("stationary", [True, False])
@pytest.mark.parametrize("family", sorted(PATH_MODELS))
def test_path_forced_multi_pass_matches_wave_sampler_in_law(family, stationary, monkeypatch):
    # a budget of a few cells leaves one or two cycles per lane and pass, so
    # nearly every lane overruns its block and carries its state forward
    monkeypatch.setattr(rg, "BLOCK_CELL_BUDGET", 3)
    _assert_block_matches_waves(family, stationary, f"path-passes/{family}/{stationary}", 1, 6000, monkeypatch)


# thin windows at 0, inside the first cycles and after several mean cycles
STATE_TIMES = [0.0, 0.3, 2.5, 6.0, 15.0]


@pytest.mark.parametrize("budget", [None, 3], ids=["default-budget", "budget-3"])
@pytest.mark.parametrize("family", sorted(PATH_MODELS))
def test_state_block_walk_matches_wave_loop_in_law(family, budget, monkeypatch):
    # the states near each time, read off thin windows whose cuts lie THIN
    # apart; the default budget with 1000 lanes per call gives blocks of many
    # cycles, a budget of 3 cells one cycle per lane and pass
    calls, lanes = (12, 1000) if budget is None else (1, 6000)
    if budget is not None:
        monkeypatch.setattr(rg, "BLOCK_CELL_BUDGET", budget)
    model = PATH_MODELS[family]()
    cuts, cols = thin_windows(STATE_TIMES)
    tag = f"state-law/{family}/{budget}"
    walk = np.concatenate([rg.integrated_path(model, cuts, rng_for(tag, c), lanes)[:, cols] for c in range(calls)])
    wave = _wave_path(model, cuts, rng_for(tag + "/wave"), calls * lanes)[:, cols]
    assert walk.shape == wave.shape
    pairs = [(walk[:, j], wave[:, j]) for j in range(len(cols))]
    # the row sum tests the joint law of one lane's states
    pairs.append((walk.sum(axis=1), wave.sum(axis=1)))
    for a, b in pairs:
        res = sp_stats.ks_2samp(np.round(a, 9), np.round(b, 9))
        assert res.pvalue > 1e-3, (family, budget, res)


@pytest.mark.parametrize("shape", [(108, 3), (2, 5000), (1, 7), (5, 0), (108, 1), (108, 2), (2, 2)], ids=lambda s: "%dx%d" % s)
def test_running_sum_and_row_total_add_in_row_order(shape):
    # both branches of the running sum, and the row total on one column and
    # on many, against a plain row loop; heavy-tailed steps make the order of
    # the additions show in the bits
    rng = rng_for(f"running-sum/{shape}")
    start = rng.pareto(0.7, shape[1])
    steps = rng.pareto(0.7, shape)
    want = np.empty(shape)
    acc = start.copy()
    for row in range(shape[0]):
        acc = acc + steps[row]
        want[row] = acc
    assert np.array_equal(rg._running_sum(start, steps), want)
    assert np.array_equal(rg._row_total(start, steps), want[-1])


REFINE_COARSE = np.array([3.0, 20.0, 60.0])
REFINE_FINE = np.union1d(REFINE_COARSE, np.linspace(0.5, 59.5, 119))


def _refined_paths(model, stationary, budget, tags, calls, monkeypatch):
    """The path at the coarse cuts over ``calls`` calls of 400 lanes each.

    Returns the readings under the coarse grid, drawn from the streams of
    ``tags[0]``, and under the fine grid, drawn from those of ``tags[1]``.
    A budget of 2000 cells gives 5 cycles per lane in the first pass, one of
    3 cells a single cycle per lane and pass.
    """
    if budget is not None:
        monkeypatch.setattr(rg, "BLOCK_CELL_BUDGET", budget)
    if not stationary:
        _renewal_start(model.kind, monkeypatch)

    def path(cuts, tag):
        return np.concatenate([
            np.cumsum(rg.integrated_path(model, cuts, rng_for(tag, c), 400), axis=1)
            for c in range(calls)
        ])

    fine = path(REFINE_FINE, tags[1])[:, np.searchsorted(REFINE_FINE, REFINE_COARSE)]
    return path(REFINE_COARSE, tags[0]), fine


@pytest.mark.parametrize("budget", [None, 2000, 3], ids=["default-budget", "budget-2000", "budget-3"])
@pytest.mark.parametrize("stationary", [True, False])
def test_path_refined_cuts_keep_the_coarse_readings(stationary, budget, monkeypatch):
    # blocks are sized from the last cut alone, and an idle leg without a
    # summed draw takes the same draws whichever lanes are read, so interior
    # cuts change no draw and the path at the coarse cuts is the same under
    # a finer grid.  With three coarse cuts most lanes pass a block without
    # reading any, so this guards the hit-local read indexing
    model = rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(1.5, 1.0), ht.RegVaryingDist(3.0, 1.0)))
    tag = f"path-refine/{stationary}/{budget}"
    coarse, fine = _refined_paths(model, stationary, budget, (tag, tag), 1, monkeypatch)
    np.testing.assert_allclose(coarse, fine, rtol=1e-12)


@pytest.mark.parametrize("budget", [None, 2000, 3], ids=["default-budget", "budget-2000", "budget-3"])
@pytest.mark.parametrize("stationary", [True, False])
def test_path_refined_cuts_keep_the_coarse_law_with_summed_idle_legs(stationary, budget, monkeypatch):
    # exponential idle legs are split only for the lanes a block reads, so
    # interior cuts change later draws; the coarse readings keep their law
    tag = f"path-refine-law/{stationary}/{budget}"
    calls = 40
    coarse, fine = _refined_paths(onoff_model(), stationary, budget, (tag, tag + "/fine"), calls, monkeypatch)
    n = 400 * calls
    for a, b in zip(coarse.T, fine.T):
        assert abs(a.mean() - b.mean()) <= 5 * math.sqrt((a.var() + b.var()) / n)
        dev_a, dev_b = a - a.mean(), b - b.mean()
        se2 = sum((np.mean(d**4) - np.mean(d**2) ** 2) / n for d in (dev_a, dev_b))
        assert abs(a.var() - b.var()) <= 5 * math.sqrt(se2)


def test_path_windows_tile_the_covariance():
    # each window's variance, and the covariance of a separated and of an
    # adjacent pair of windows
    model = onoff_model()
    dec = rg.cov_decomposition(model, 20.0, 0.02)
    pairs = [(0, 0), (1, 1), (2, 2), (0, 2), (1, 2)]
    _assert_windows_follow_the_grid(model, [1.0, 3.0, 4.0], pairs, dec, "path-cov")


def test_path_row_sums_match_integrated_law():
    # atomless masses, so the two-sample comparison applies directly
    model = rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(2.5, 1.0), uniform_reward()))
    n = 80_000
    tot = rg.integrated_path(model, [1.0, 3.0], rng_for("path-ks"), n).sum(axis=1)
    one = rg.integrated_path(model, [3.0], rng_for("path-ks-one"), n)[:, 0]
    assert sp_stats.ks_2samp(tot, one).pvalue > 0.01


def test_path_cut_at_a_cycle_end(monkeypatch):
    # unit on and off legs, and a start at age 0 of the first cycle: cycles
    # end at exactly 2, 4 and 6, so every cut but 1.5 sits on a cycle end,
    # where the ending and the starting cycle give the same path; with no
    # block margin the first block ends exactly at the last cut, which is
    # then read in a second pass
    monkeypatch.setattr(rg, "BLOCK_MARGIN", 1.0)
    monkeypatch.setitem(pulses.KERNELS, "on-off", pulses.KERNELS["on-off"]._replace(
        aged=lambda pulse, rng, n: (np.zeros(n), np.full(n, 2.0), np.ones(n))))
    model = rg.RegenModel(pulses.OnOff(ht.DegenerateDist(1.0), ht.DegenerateDist(1.0)))
    got = rg.integrated_path(model, [1.5, 2.0, 4.0, 6.0], rng_for("path-tie"), 3)
    np.testing.assert_array_equal(got, [[1.0, 0.0, 1.0, 1.0]] * 3)


def test_walk_draws_busy_legs_per_active_lane_and_sums_idle_legs(monkeypatch):
    # the regen-slow source at a small lam: every pass draws the busy legs
    # of all active lanes in one call (the benchmark tracer counts passes by
    # these calls) and one idle-leg sum per lane; single exponential legs are
    # drawn only for the stationary start
    model = rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(1.4, 1.0), ht.ExponentialDist(1.0)))
    calls = []
    for cls, name in ((ht.RegVaryingDist, "sample"), (ht.ExponentialDist, "sample"),
                      (ht.ExponentialDist, "sum_sample")):
        def spy(self, rng, *args, _name=name, _original=getattr(cls, name)):
            calls.append((_name, self, args))
            return _original(self, rng, *args)

        monkeypatch.setattr(cls, name, spy)
    n = 300
    rg.integrated_path(model, 200.0 * np.array([0.25, 0.5, 0.75, 1.0]), rng_for("draw-contract"), n)
    first = [c[0] for c in calls].index("sum_sample") - 1
    start, passes = calls[:first], calls[first:]
    assert [c[2] for c in start if c[1] is model.pulse.Zoff] == [(n,)]
    assert len(passes) % 2 == 0 and len(passes) > 2
    active = []
    for (busy, leg, (size,)), (summed, idle, (k, lanes)) in zip(passes[::2], passes[1::2]):
        assert (busy, leg, summed, idle) == ("sample", model.pulse.Zon, "sum_sample", model.pulse.Zoff)
        assert size == k * lanes
        active.append(lanes)
    assert active[0] <= n and active == sorted(active, reverse=True)


def test_mg10_busy_fraction_is_erlang_loss():
    # M/G/1/0 at unit arrival rate: Pareto(1.5) service, arrivals during
    # service are lost, Exp(1) waits for the next one; the long-run busy
    # fraction is E S / (1 + E S) = 3 / 4.  The busy time A(200) over one cut
    # with 4000 lanes reads multi-row blocks with summed idle legs
    model = rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(1.5, 1.0), ht.ExponentialDist(1.0)))
    n = 4000
    busy = rg.integrated_path(model, [200.0], rng_for("mg10"), n)[:, 0] / 200.0
    assert abs(busy.mean() - 0.75) <= 5 * busy.std() / math.sqrt(n)


def test_path_validation():
    model = onoff_model()
    rng = rng_for("path-bad")
    for cuts in ([], [0.0, 1.0], [2.0, 1.0], [-1.0], [1.0, 1.0], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="cuts"):
            rg.integrated_path(model, cuts, rng, 4)
    with pytest.raises(ValueError, match="n_lanes"):
        rg.integrated_path(model, [1.0], rng, 0)

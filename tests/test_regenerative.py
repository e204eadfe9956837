"""Tests for regenerative sources.

Covers the busy-period sampler, the stationary cycle samplers (window
integrals, state paths, centered cycle masses), the covariance decomposition
Cov = R + h with its renewal-function solver, and the scaling table.  Grid
numerics are checked against closed forms (exponential and uniform cycle
laws, the on-off and renewal-reward worked examples); the samplers are
checked against the grids by Monte Carlo with 4-sigma bands, and the block
path sampler against a reference wave sampler by two-sample KS tests.
"""

import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from heavyagg import heavy_tail as ht
from heavyagg import pulses
from heavyagg import regenerative as rg
from heavyagg import streams
from heavyagg.limit_fields import DEFAULT_THETA_GRID, telecom_logchf


def rng_for(tag, index=0):
    return streams.stream(91, tag, index)


def onoff_model(alpha=1.5):
    return rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(alpha, 1.0), ht.ExponentialDist(1.0)))


def uniform_reward():
    return pulses.RewardLaw("independent", dist=ht.UniformDist(0.0, 1.0))


def exp_damped_model():
    return rg.RegenModel(pulses.ExpDamped(ht.LowTailPowerDist(0.5, 1.0), ht.RegVaryingDist(1.5, 1.0)))


# -- busy periods ---------------------------------------------------------------------


def test_busy_period_requires_subcritical_service():
    with pytest.raises(ValueError):
        rg.sample_busy_period(ht.ExponentialDist(1.0), rng_for("rg/busy-bad"))
    with pytest.raises(ValueError):
        rg.BusyPeriodLaw(ht.RegVaryingDist(1.5, 0.5))


def test_busy_period_deterministic_service_mean():
    # service 1/2 at unit arrival rate: mean period 0.5 / (1 - 0.5) = 1
    b = rg.sample_busy_period(ht.DegenerateDist(0.5), rng_for("rg/busy-det"), size=20000)
    sem = b.std(ddof=1) / math.sqrt(b.size)
    assert b.mean() == pytest.approx(1.0, abs=4 * sem)
    assert b.min() >= 0.5


def test_busy_period_law_descriptors():
    law = rg.BusyPeriodLaw(ht.RegVaryingDist(1.5, 1.0 / 6.0))
    assert law.alpha == 1.5
    assert law.mean() == pytest.approx(1.0)
    assert law.tail_constant() == pytest.approx(0.3849001794597505)


def test_busy_period_tail_index():
    law = rg.BusyPeriodLaw(ht.RegVaryingDist(1.5, 1.0 / 6.0))
    s = law.sample(rng_for("rg/busy-hill", 1), size=400000)
    assert ht.hill_estimate(s, 600) == pytest.approx(1.5, abs=0.15)


def test_busy_period_cap_guard():
    service = ht.RegVaryingDist(1.5, 1.0 / 6.0)
    with pytest.raises(RuntimeError):
        rg.sample_busy_period(service, rng_for("rg/busy-cap"), size=1000, cap=10)


def test_busy_period_scalar_draw():
    b = rg.sample_busy_period(ht.DegenerateDist(0.5), rng_for("rg/busy-scalar"))
    assert isinstance(b, float) and b >= 0.5


# -- model wrapper --------------------------------------------------------------------


def test_model_rejects_unknown_family():
    shot = pulses.RectIndep(ht.DegenerateDist(1.0), ht.RegVaryingDist(1.5, 1.0))
    with pytest.raises(ValueError):
        rg.RegenModel(shot)


def test_model_requires_finite_cycle_mean():
    with pytest.raises(ValueError):
        rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(0.9, 1.0), ht.ExponentialDist(1.0)))


def test_model_refuses_busy_period_legs():
    law = rg.BusyPeriodLaw(ht.RegVaryingDist(1.5, 1.0 / 6.0))
    with pytest.raises(ValueError, match="busy-period"):
        rg.RegenModel(pulses.OnOff(ht.RegVaryingDist(1.5, 1.0), law))
    with pytest.raises(ValueError, match="busy-period"):
        rg.RegenModel(pulses.RenewalReward(law, uniform_reward()))


def test_workload_needs_square_integrable_busy_leg():
    with pytest.raises(ValueError):
        rg.RegenModel(pulses.Workload(ht.RegVaryingDist(1.5, 1.0), ht.ExponentialDist(1.0)))


def test_mean_rate_closed_forms():
    assert onoff_model().mean_rate == pytest.approx(0.75)
    wl = rg.RegenModel(pulses.Workload(ht.RegVaryingDist(6.0, 1.0), ht.ExponentialDist(1.0)))
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
    z, mass = rg.cycle_sample(model, rng_for("rg/shapes"))
    assert isinstance(z, float) and isinstance(mass, float)
    assert 0.0 <= mass <= z
    zv, mv = rg.cycle_sample(model, rng_for("rg/shapes", 1), size=50)
    assert zv.shape == mv.shape == (50,)
    assert np.all(mv <= zv) and np.all(mv >= 0.0)


def test_coupled_reward_mass_mean_matches_mc():
    reward = pulses.RewardLaw(
        "coupled", g=lambda z, u: (2.0 * u - 1.0) ** 2 / (1.0 + z), bound=1.0, limit_dist=None
    )
    model = rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(1.5, 1.0), reward))
    _, mass = rg.cycle_sample(model, rng_for("rg/mass-coupled"), size=120000)
    sem = mass.std(ddof=1) / math.sqrt(mass.size)
    assert mass.mean() == pytest.approx(pulses.mean_mass(model.pulse), abs=4 * sem)


def test_tilde_mass_is_centered():
    model = onoff_model(alpha=2.5)  # finite variance, so the plain mean converges
    td = rg.tilde_mass_sample(model, rng_for("rg/tilde-centered"), size=150000)
    sem = td.std(ddof=1) / math.sqrt(td.size)
    assert td.mean() == pytest.approx(0.0, abs=4 * sem)


def test_tilde_mass_tail_routes_on_off():
    # busy leg heavy: the positive side carries the cycle tail index, the
    # negative side is capped by the exponential idle leg
    td = rg.tilde_mass_sample(onoff_model(), rng_for("rg/tilde-mg1"), size=250000)
    assert ht.hill_estimate(td[td > 0]) == pytest.approx(1.5, abs=0.25)
    assert td.max() > 100.0
    assert -td.min() < 30.0


def test_tilde_mass_tail_routes_exp_damped():
    # long cycles carry tiny mass, so the heavy side is the *negative* one;
    # the positive tail needs a long cycle and a slow damping rate at once,
    # which raises its index to duration + damping
    td = rg.tilde_mass_sample(exp_damped_model(), rng_for("rg/tilde-ed"), size=200000)
    assert ht.hill_estimate(-td[td < 0], 200) == pytest.approx(1.5, abs=0.25)
    assert ht.hill_estimate(td[td > 0], 200) == pytest.approx(2.0, abs=0.25)


def test_integrated_sample_mean_and_variance():
    model = onoff_model()
    draws = rg.integrated_sample(model, 5.0, rng_for("rg/integrated"), n_rep=60000)
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
        rg.integrated_sample(model, 0.0, rng_for("rg/int-bad"))
    one = rg.integrated_sample(model, 2.0, rng_for("rg/int-scalar"))
    assert isinstance(one, float) and 0.0 <= one <= 2.0
    fresh = rg.integrated_sample(model, 2.0, rng_for("rg/int-fresh"), n_rep=200, stationary=False)
    assert fresh.shape == (200,)


def test_state_sample_validation():
    model = onoff_model()
    rng = rng_for("rg/state-bad")
    for times in ([], [[0.0, 1.0]], [-1.0, 0.0], [2.0, 1.0]):
        with pytest.raises(ValueError):
            rg.state_sample(model, times, rng)


def test_state_sample_stationary_mean_flat():
    model = onoff_model()
    vals = rg.state_sample(model, [0.0, 1.0, 3.0, 7.0], rng_for("rg/state-flat"), n_rep=120000)
    assert vals.shape == (120000, 4)
    assert set(np.unique(vals)) <= {0.0, 1.0}
    band = 4 * math.sqrt(0.1875 / 120000)
    for col in range(4):
        assert vals[:, col].mean() == pytest.approx(0.75, abs=band)


def _lagged_cov_check(model, lags, dec, tag, n_rep):
    vals = rg.state_sample(model, [0.0] + lags, rng_for(tag), n_rep=n_rep)
    for j, lag in enumerate(lags, start=1):
        prod = vals[:, 0] * vals[:, j]
        est = prod.mean() - vals[:, 0].mean() * vals[:, j].mean()
        se = prod.std(ddof=1) / math.sqrt(n_rep)
        grid = dec.cov[int(round(lag / dec.dt))]
        assert est == pytest.approx(grid, abs=4 * se), f"lag {lag}"
    v0 = vals[:, 0]
    m4 = np.mean((v0 - v0.mean()) ** 4)
    se0 = math.sqrt(max(m4 - v0.var(ddof=1) ** 2, 0.0) / n_rep)
    assert v0.var(ddof=1) == pytest.approx(dec.cov[0], abs=5 * se0)


def test_state_cov_matches_grid_on_off():
    model = onoff_model()
    dec = rg.cov_decomposition(model, 4.0, 0.02)
    _lagged_cov_check(model, [0.5, 2.0], dec, "rg/state-onoff", 150000)


def test_state_cov_matches_grid_exp_damped():
    model = exp_damped_model()
    dec = rg.cov_decomposition(model, 2.0, 0.02)
    _lagged_cov_check(model, [1.0], dec, "rg/state-expdamp", 120000)


def test_state_cov_matches_grid_workload():
    model = rg.RegenModel(pulses.Workload(ht.RegVaryingDist(6.0, 1.0), ht.ExponentialDist(1.0)))
    dec = rg.cov_decomposition(model, 2.0, 0.02)
    _lagged_cov_check(model, [0.7], dec, "rg/state-workload", 120000)


# -- renewal function -----------------------------------------------------------------


def test_renewal_function_exponential_closed_form():
    t, U = rg.renewal_function(lambda s: 1.0 - np.exp(-np.asarray(s)), 20.0, 0.01)
    assert U[0] == 1.0
    assert np.max(np.abs(U - (1.0 + t))) < 5e-4


def test_renewal_function_uniform_closed_form():
    # uniform(0,1) cycles: U(t) = exp(t) on [0, 1]
    t, U = rg.renewal_function(lambda s: np.clip(np.asarray(s, dtype=float), 0.0, 1.0), 1.0, 0.005)
    assert np.max(np.abs(U - np.exp(t))) < 5e-5


def test_renewal_function_validation_and_monotonicity():
    with pytest.raises(ValueError):
        rg.renewal_function(lambda s: np.asarray(s), 1.0, 0.0)
    with pytest.raises(ValueError):
        rg.renewal_function(lambda s: np.asarray(s), 0.05, 0.1)
    dist = ht.RegVaryingDist(1.5, 1.0)
    _, U = rg.renewal_function(dist.cdf, 30.0, 0.05)
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
    assert dec.c_star == pytest.approx(6.0)
    assert dec.m == pytest.approx(9.0)
    assert dec.h_asymptote == pytest.approx(-0.46875)
    assert dec.richardson_err < 2e-3
    # the far grid has reached the power regime on both pieces
    assert dec.h[-1] * math.sqrt(200.0) == pytest.approx(-0.46875, rel=0.02)
    assert dec.R[-1] * math.sqrt(200.0) == pytest.approx(0.5, rel=1e-6)
    mask = dec.t >= 10.0
    slope, intercept = np.polyfit(np.log(dec.t[mask]), np.log(dec.cov[mask]), 1)
    assert slope == pytest.approx(-0.5, abs=0.02)
    assert math.exp(intercept) == pytest.approx(0.03125, rel=0.02)


def test_renewal_reward_decomposition_worked_example():
    # cycle Pareto(5/2, 1), reward U(0,1): R(0) = E W^2 = 1/3, Cov(0) = 1/12,
    # z-tail constant 2 c_Z E W E[W Z] = 5/6, and the h coefficient lands on
    # (c_Z m / mu - c_star) / ((alpha - 1) mu^2) = -1/10
    model = rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(2.5, 1.0), uniform_reward()))
    dec = rg.cov_decomposition(model, 50.0, 0.05)
    assert dec.R[0] == pytest.approx(1.0 / 3.0)
    assert dec.cov[0] == pytest.approx(1.0 / 12.0)
    assert dec.c_star == pytest.approx(5.0 / 6.0)
    assert dec.m == pytest.approx(25.0 / 36.0)
    assert dec.h_asymptote == pytest.approx(-0.1)
    assert dec.h[-1] * 50.0**1.5 == pytest.approx(-0.1, rel=0.01)
    assert dec.cov[-1] * 50.0**1.5 == pytest.approx(1.0 / 30.0, rel=0.01)


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
    assert dec.h_asymptote is None
    assert any("regularly varying" in c for c in dec.caveats)
    p = 2.0 / 3.0
    assert dec.cov[0] == pytest.approx(p - p * p, abs=1e-9)


def test_workload_decomposition_caveat():
    model = rg.RegenModel(pulses.Workload(ht.RegVaryingDist(6.0, 1.0), ht.ExponentialDist(1.0)))
    dec = rg.cov_decomposition(model, 5.0, 0.02)
    assert dec.h_asymptote is None
    assert math.isnan(dec.c_star)
    assert len(dec.caveats) == 1
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
        for theta in DEFAULT_THETA_GRID:
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

    uncentered = pulses.RewardLaw(
        "coupled", g=lambda z, u: (2.0 * u - 1.0) ** 2 / (1.0 + z), bound=1.0, limit_dist=None
    )
    model = rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(1.5, 1.0), uncentered))
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
    assert rg.regime_of(model, 0.4).limit_kind == "Intermediate"
    assert rg.regime_of(model, 0.4 + 1e-9).limit_kind == "FBS"
    assert rg.regime_of(model, 0.4 - 1e-9).limit_kind == "StableSheet"


def test_regime_validation():
    model = onoff_model()
    with pytest.raises(ValueError):
        rg.regime_of(model, 0.0)
    with pytest.raises(ValueError, match="workload|bound"):
        rg.regime_of(
            rg.RegenModel(pulses.Workload(ht.RegVaryingDist(6.0, 1.0), ht.ExponentialDist(1.0))),
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


def _wave_path(model, cuts, rng, n_lanes, stationary):
    """Reference sampler: the per-cycle wave loop that the block sampler replaced.

    Window by window, every lane still short of the window's end draws its
    next cycle per pass.
    """
    kern = pulses.KERNELS[model.kind]
    out = np.zeros((n_lanes, len(cuts)))
    if stationary:
        loc, z, aux = kern.aged(model.pulse, rng, n_lanes)
    else:
        z, aux = kern.fresh(model.pulse, rng, n_lanes)
        loc = np.zeros(n_lanes)
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
    "workload": lambda: rg.RegenModel(pulses.Workload(ht.RegVaryingDist(6.0, 1.0), ht.ExponentialDist(1.0))),
    "renewal-reward": lambda: rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(2.5, 1.0), uniform_reward())),
    "exp-damped": exp_damped_model,
}
# the last cut spans several mean cycles, so blocks hold many cycles, some
# lanes overrun their block and long cycles straddle more than one cut
PATH_CUTS = [0.5, 4.0, 20.0]


def _assert_block_matches_waves(family, stationary, tag, calls, lanes):
    model = PATH_MODELS[family]()
    block = np.concatenate([
        rg.integrated_path(model, PATH_CUTS, rng_for(tag, c), lanes, stationary) for c in range(calls)
    ])
    wave = _wave_path(model, PATH_CUTS, rng_for(tag + "/wave"), calls * lanes, stationary)
    assert block.shape == wave.shape
    for j in range(len(PATH_CUTS)):
        # on-off and workload windows have atoms at 0 and at the window width;
        # differences of cumulative masses smear them by rounding
        res = sp_stats.ks_2samp(np.round(block[:, j], 9), np.round(wave[:, j], 9))
        assert res.pvalue > 1e-3, (family, stationary, j, res)


@pytest.mark.parametrize("stationary", [True, False])
@pytest.mark.parametrize("family", sorted(PATH_MODELS))
def test_path_block_sampler_matches_wave_sampler_in_law(family, stationary):
    # 1000 lanes per call keep the default cell budget from capping blocks at one cycle
    _assert_block_matches_waves(family, stationary, f"path-law/{family}/{stationary}", 12, 1000)


@pytest.mark.parametrize("stationary", [True, False])
@pytest.mark.parametrize("family", sorted(PATH_MODELS))
def test_path_forced_multi_pass_matches_wave_sampler_in_law(family, stationary, monkeypatch):
    # a budget of a few cells leaves one or two cycles per lane and pass, so
    # nearly every lane overruns its block and carries its state forward
    monkeypatch.setattr(rg, "BLOCK_CELL_BUDGET", 3)
    _assert_block_matches_waves(family, stationary, f"path-passes/{family}/{stationary}", 1, 6000)


def test_path_windows_tile_the_covariance():
    # empirical covariance of two separated windows against the quadrature grid
    model = onoff_model()
    n = 120_000
    vals = rg.integrated_path(model, [1.0, 3.0, 4.0], rng_for("path-cov"), n)
    dec = rg.cov_decomposition(model, 20.0, 0.02)

    def window_cov(lo1, hi1, lo2, hi2):
        ss = np.linspace(lo1, hi1, 201)
        ts = np.linspace(lo2, hi2, 201)
        rows = [np.trapezoid(np.interp(np.abs(t - ss), dec.t, dec.cov), ss) for t in ts]
        return float(np.trapezoid(rows, ts))

    for (i, lo1, hi1), (j, lo2, hi2) in [
        ((0, 0.0, 1.0), (2, 3.0, 4.0)),
        ((1, 1.0, 3.0), (2, 3.0, 4.0)),
    ]:
        want = window_cov(lo1, hi1, lo2, hi2)
        got = np.cov(vals[:, i], vals[:, j])[0, 1]
        prod = (vals[:, i] - vals[:, i].mean()) * (vals[:, j] - vals[:, j].mean())
        se = prod.std() / math.sqrt(n)
        assert got == pytest.approx(want, abs=4 * se)
    for j, w in enumerate((1.0, 2.0, 1.0)):
        se = vals[:, j].std() / math.sqrt(n)
        assert vals[:, j].mean() == pytest.approx(model.mean_rate * w, abs=4 * se)


def test_path_row_sums_match_integrated_law():
    # atomless masses, so the two-sample comparison applies directly
    model = rg.RegenModel(pulses.RenewalReward(ht.RegVaryingDist(2.5, 1.0), uniform_reward()))
    n = 80_000
    tot = rg.integrated_path(model, [1.0, 3.0], rng_for("path-ks"), n).sum(axis=1)
    one = rg.integrated_sample(model, 3.0, rng_for("path-ks-one"), n_rep=n)
    assert sp_stats.ks_2samp(tot, one).pvalue > 0.01


def test_path_validation():
    model = onoff_model()
    rng = rng_for("path-bad")
    for cuts in ([], [0.0, 1.0], [2.0, 1.0], [-1.0], [1.0, 1.0], [np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError, match="cuts"):
            rg.integrated_path(model, cuts, rng, 4)
    with pytest.raises(ValueError, match="n_lanes"):
        rg.integrated_path(model, [1.0], rng, 0)

"""The benchmark's three workloads: inputs, the timed job and its correctness checks.

Each workload drives the public API of ``heavyagg`` from outside.  ``setup``
builds the source models and asks ``regime_of`` for the expected limit (this
is what ``setup_s`` times); ``job`` is the timed unit of work, drawn from one
random stream; ``check`` tests the outputs of the first ``check_jobs`` jobs,
so the verdict for a seed never depends on how many jobs the machine fitted
into the run.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

from heavyagg import aggregation, heavy_tail, limit_fields, pulses, regenerative, shot_noise

THETAS = (0.25, 0.5, 0.75, 1.0)
# "within a few standard errors": the checks use 5 SE, so a correct program
# fails one of them on fewer than about 1 in 10^4 seeds
N_SE = 5.0


class Checks:
    """Named pass/fail results; ``failed`` is the run's ``checks_failed``."""

    def __init__(self):
        self.results: list[tuple[str, bool, object]] = []

    def add(self, name: str, ok, detail=None) -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def _rect_pareto_source() -> shot_noise.ShotNoiseSource:
    """Unit rectangles with Pareto(1.5) durations: tail constant 1, gamma0 = 0.5."""
    return shot_noise.ShotNoiseSource(
        pulses.RectIndep(heavy_tail.DegenerateDist(1.0), heavy_tail.RegVaryingDist(1.5, 1.0))
    )


def _aggregate(src, lam, regime, x_grid, y_grid, n_rep, rng):
    """One timed ``aggregate`` call: (sample, wall seconds)."""
    t0 = time.perf_counter()
    sample = aggregation.aggregate(src, lam, regime.gamma, regime.H, x_grid, y_grid, n_rep, rng)
    return sample, time.perf_counter() - t0


def _uncentred(sample, mean_level) -> np.ndarray:
    """A = V * lam**H + E A, shape (n_rep, nx, ny)."""
    cuts = sample.lam * sample.x_grid
    mean = cuts[:, None] * sample.source_counts[None, :] * mean_level
    return sample.values * sample.lam**sample.H + mean[None, :, :]


def _increments(a: np.ndarray, axis: int) -> np.ndarray:
    return np.diff(a, axis=axis, prepend=0.0)


def _chf_distance(values: np.ndarray, theta: float, exact: complex) -> tuple[float, float]:
    """|empirical chf - exact| and the standard error of the empirical chf."""
    z = np.exp(1j * theta * values)
    se = math.sqrt((np.var(z.real) + np.var(z.imag)) / values.size)
    return abs(complex(np.mean(z)) - exact), se


class ShotGrid:
    """Shot noise on a 16 x 2 grid: the O(pulses x nx) path kernel does the work."""

    name = "shot-grid"
    expected_limit = "FBS"
    lam, gamma, n_rep = 300.0, 1.0, 48
    x_grid = np.arange(1, 17) / 16.0
    y_grid = (0.5, 1.0)
    check_jobs = 4
    event = "pulse"

    def setup(self):
        self.src = _rect_pareto_source()
        self.regime = shot_noise.regime_of(self.src, self.gamma)
        return self.regime

    def events_per_job(self) -> float:
        count = math.floor(self.y_grid[-1] * self.lam**self.gamma)
        per_rep = count * self.src.rate * (self.lam * self.x_grid[-1] + self.src.mean_duration)
        return per_rep * self.n_rep

    def job(self, rng):
        sample, agg_s = _aggregate(self.src, self.lam, self.regime, self.x_grid, self.y_grid, self.n_rep, rng)
        return {"sample": sample}, agg_s

    def check(self, outputs, checks: Checks) -> dict:
        a = np.concatenate([_uncentred(o["sample"], self.src.mean_level()) for o in outputs])
        tol = 1e-9 * float(np.max(np.abs(a)))
        low = min(float(_increments(a, 1).min()), float(_increments(a, 2).min()))
        checks.add("A nondecreasing in x and y", low >= -tol, low)

        v = np.concatenate([o["sample"].values for o in outputs])
        n = v.shape[0]
        z = np.mean(v, axis=0) / (np.std(v, axis=0, ddof=1) / math.sqrt(n))
        worst_z = float(np.max(np.abs(z)))
        checks.add(f"mean of V within {N_SE:g} SE of 0 at every grid point", worst_z <= N_SE, worst_z)

        count = int(outputs[0]["sample"].source_counts[-1])
        want = count * shot_noise.integral_variance(self.src, self.lam) / self.lam ** (2.0 * self.regime.H)
        v11 = v[:, -1, -1]
        dev2 = (v11 - v11.mean()) ** 2
        got = float(np.sum(dev2) / (n - 1))
        se = float(np.std(dev2, ddof=1) / math.sqrt(n))
        checks.add(f"Var V(1,1) within {N_SE:g} SE of the finite-lam value", abs(got - want) <= N_SE * se,
                   {"got": got, "want": want, "se": se})
        return {"replicates_checked": n, "var_V11": got, "var_V11_exact": want}


class RegenSlow:
    """On-off traffic in the slow (stable) regime: the regenerative wave loop does the work."""

    name = "regen-slow"
    expected_limit = "StableSheet"
    lam, gamma, n_rep = 2e5, 0.1, 100
    x_grid = (0.25, 0.5, 0.75, 1.0)
    y_grid = (0.5, 1.0)
    check_jobs = 2
    event = "cycle"

    def setup(self):
        self.model = regenerative.RegenModel(
            pulses.OnOff(heavy_tail.RegVaryingDist(1.4, 1.0), heavy_tail.ExponentialDist(1.0))
        )
        self.regime = regenerative.regime_of(self.model, self.gamma)
        return self.regime

    @property
    def wave_law(self):
        """The busy-leg law: one ``sample`` call on it is one pass of the wave loop."""
        return self.model.pulse.Zon

    def events_per_job(self) -> float:
        # a stationary renewal process has exactly T / mu renewals in (0, T]
        # on average, and each lane also draws its covering cycle at time 0
        lanes = math.floor(self.y_grid[-1] * self.lam**self.gamma) * self.n_rep
        return lanes * (self.lam * self.x_grid[-1] / self.model.mu + 1.0)

    def job(self, rng):
        sample, agg_s = _aggregate(self.model, self.lam, self.regime, self.x_grid, self.y_grid, self.n_rep, rng)
        return {"sample": sample}, agg_s

    def check(self, outputs, checks: Checks) -> dict:
        # an on-off source sits in [0, 1], so over a window of length lam * dx
        # the count sources add between 0 and count * lam * dx
        s0 = outputs[0]["sample"]
        a = np.concatenate([_uncentred(o["sample"], self.model.mean_rate) for o in outputs])
        d_a = _increments(a, 1)
        cap = s0.source_counts[None, None, :] * self.lam * np.diff(s0.x_grid, prepend=0.0)[None, :, None]
        tol = 1e-9 * float(np.max(np.abs(a)))
        ok = bool(np.all(d_a >= -tol) and np.all(d_a <= cap + tol))
        checks.add("0 <= window increment <= count * lam * dx", ok,
                   {"min": float(d_a.min()), "max_share_of_cap": float(np.max(d_a / cap))})
        return {"replicates_checked": a.shape[0], "source_counts": s0.source_counts.tolist()}


class TelecomCheck:
    """Compare V with its critical-regime limit: limit sampler and nested-quad oracles."""

    name = "telecom-check"
    expected_limit = "Intermediate"
    lam, gamma, n_rep = 2000.0, 0.5, 200
    telecom_reps = 1000
    kappa, rho, c_nu = 1.6, 1.3, 1.0
    # the kappa oracle's outer quad reaches its subdivision limit at these
    # parameters and lands 5e-6 (relative) from the closed form
    kappa_rtol = 1e-5
    check_jobs = 2
    event = "pulse"

    def setup(self):
        self.src = _rect_pareto_source()
        self.regime = shot_noise.regime_of(self.src, self.gamma)
        self.spec = limit_fields.TelecomSpec(1.5, c=1.0, eps=1e-3)
        return self.regime

    def events_per_job(self) -> float:
        count = math.floor(self.lam**self.gamma)
        return count * self.src.rate * (self.lam + self.src.mean_duration) * self.n_rep

    def telecom_points_per_job(self) -> float:
        """Expected Poisson points ``sample_telecom`` draws (its own closed form)."""
        a, c, eps, pad = self.spec.alpha, self.spec.c, self.spec.eps, self.spec.u_pad
        per_rep = c * eps**-a + c * a / (a - 1.0) * (eps ** (1.0 - a) - pad ** (1.0 - a)) + c * pad ** (1.0 - a)
        return per_rep * self.telecom_reps

    def job(self, rng):
        sample, agg_s = _aggregate(self.src, self.lam, self.regime, (1.0,), (1.0,), self.n_rep, rng)
        tele = limit_fields.sample_telecom(self.spec, [1.0], 1.0, rng, n_rep=self.telecom_reps)
        by_regime = [self.regime.logchf(th, 1.0, 1.0) for th in THETAS]
        by_telecom = [limit_fields.telecom_field_logchf(self.spec, th, 1.0, 1.0) for th in THETAS]
        kappa = limit_fields.intermediate_kappa_field_chf([1.0], [(1.0, 1.0)], self.kappa, self.rho, self.c_nu)
        out = {"V": sample.values[:, 0, 0], "telecom": tele[:, 0], "by_regime": by_regime,
               "by_telecom": by_telecom, "kappa": kappa}
        return out, agg_s

    def kappa_closed_form(self) -> complex:
        """The single-point kappa field at theta = 1, (x, y) = (1, 1), in closed form."""
        k, r = self.kappa, self.rho
        d_plus = self.c_nu * math.gamma(2.0 - k) / ((k - 1.0) * k) * cmath.exp(-1j * math.pi * k / 2.0)
        shape = (2.0 / ((k + 1.0) * (k + 1.0 - r)) + 1.0 / (k - r) - 1.0 / (k + 1.0 - r)
                 + 2.0 / ((k + 1.0) * r) + 1.0 / (r - 1.0) - 1.0 / r)
        return shape * d_plus

    def check(self, outputs, checks: Checks) -> dict:
        first = outputs[0]
        for th, a, b in zip(THETAS, first["by_regime"], first["by_telecom"]):
            rel = abs(a - b) / abs(b)
            checks.add(f"RegimeSpec.logchf == telecom_field_logchf at theta={th}", rel <= 1e-8, rel)

        want = self.kappa_closed_form()
        kappa_rel = abs(first["kappa"] - want) / abs(want)
        checks.add("kappa field at (1, 1) matches its closed form", kappa_rel <= self.kappa_rtol, kappa_rel)

        v = np.concatenate([o["V"] for o in outputs])
        tele = np.concatenate([o["telecom"] for o in outputs])
        # the Telecom sampler drops durations below eps and arrivals left of
        # its padding; each omitted part moves the chf by at most theta^2 / 2
        # times its variance
        cut_var = limit_fields.small_jump_variance(self.spec, 1.0) + limit_fields.left_pad_variance(self.spec, 1.0)
        distances = {}
        for th, logchf in zip(THETAS, first["by_regime"]):
            exact = cmath.exp(logchf)
            d_v, se_v = _chf_distance(v, th, exact)
            d_t, se_t = _chf_distance(tele, th, exact)
            slack = 0.5 * th * th * cut_var
            checks.add(f"chf of V within {N_SE:g} SE of the limit at theta={th}", d_v <= N_SE * se_v, d_v / se_v)
            checks.add(f"chf of sample_telecom within {N_SE:g} SE + truncation of the limit at theta={th}",
                       d_t <= N_SE * se_t + slack, d_t / se_t)
            distances[str(th)] = {"V": d_v, "V_se": se_v, "telecom": d_t, "telecom_se": se_t}
        return {"replicates_checked": {"V": v.size, "telecom": tele.size}, "kappa_rel_err": kappa_rel,
                "chf_distance": distances}


WORKLOADS = {w.name: w for w in (ShotGrid, RegenSlow, TelecomCheck)}

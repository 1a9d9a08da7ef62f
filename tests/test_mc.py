import math
import tracemalloc

import numpy as np
import pytest

import idcalc as ic
from idcalc.errors import TooFewSamples
from idcalc.kernels import exp_kernel, indicator_kernel, sinc_kernel
from idcalc.measures import INF
from idcalc.mc import (
    TILE_BYTES,
    SimConfig,
    default_cutoff,
    ecf_check,
    sample_increment,
    sample_increments,
    sample_integral,
    window_exponent,
)
from idcalc.mc import _stream


Z_GRID = np.linspace(0.2, 2.0, 10)[:, None]


def cp_unit(gamma=0.5, mass=1.0):
    return ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [mass]), [gamma])


class TestIncrements:
    def test_point_mass_is_deterministic(self):
        t = ic.dirac([1.5])
        inc = sample_increment(t, 0.25, _stream(0, 1))
        np.testing.assert_allclose(inc, [0.375])

    def test_gaussian_covariance(self):
        t = ic.Triplet(np.array([[2.0]]), None, [0.0])
        draws = sample_increments(t, 0.5, 100_000, _stream(1, 2))
        # dt * A = 1.0; three-sigma band for the sample variance
        assert abs(draws.var() - 1.0) < 3.0 * math.sqrt(2.0 / 100_000)

    def test_compound_poisson_mean(self):
        # drift 0.4 plus rate-3 unit jumps
        t = ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [3.0]), [1.5 + 0.4])
        draws = sample_increments(t, 0.5, 100_000, _stream(2, 3))
        want = 0.5 * (0.4 + 3.0)
        sd = math.sqrt(0.5 * 3.0 / 100_000)  # Poisson variance dominates
        assert abs(draws.mean() - want) < 4 * sd

    def test_infinite_activity_needs_cutoff_machinery(self):
        nu = _radial([[1.0]], [1.0])
        t = ic.Triplet(0.0, nu, [0.0])
        # a radial part is cut below eps; the default cutoff rule kicks in
        # automatically
        inc = sample_increment(t, 0.1, _stream(3, 4))
        assert np.isfinite(inc).all()
        eps = default_cutoff(nu)
        assert 0.0 < eps < 1.0

    def test_independent_scattering(self):
        # increments over disjoint windows from one stream are uncorrelated
        t = cp_unit()
        rng = _stream(5, 6)
        a = sample_increments(t, 0.5, 50_000, rng)
        b = sample_increments(t, 0.5, 50_000, rng)
        rho = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(rho) < 3.0 / math.sqrt(50_000)

    def test_reproducible_streams(self):
        t = cp_unit()
        a = sample_increments(t, 0.5, 1000, _stream(7, 8))
        b = sample_increments(t, 0.5, 1000, _stream(7, 8))
        np.testing.assert_array_equal(a, b)


class TestSampleIntegral:
    def test_point_mass_integral_exact(self):
        k = exp_kernel()
        cfg = SimConfig(mesh_points=64, n_paths=1000, seed=0)
        samples = sample_integral(k, ic.dirac([2.0]), 0.0, 6.0, cfg)
        # midpoint-frozen integral of the kernel times gamma
        spread = samples.max() - samples.min()
        assert spread == 0.0
        want = 2.0 * (1.0 - math.exp(-6.0))
        assert samples[0, 0] == pytest.approx(want, abs=1e-3)

    def test_constant_kernel_matches_window_law(self):
        k = indicator_kernel(1.0, 0.0, 4.0)
        t = cp_unit()
        cfg = SimConfig(mesh_points=8, n_paths=20_000, seed=42)
        samples = sample_integral(k, t, 0.0, 4.0, cfg)
        rep = ecf_check(samples, window_exponent(k, t, 0.0, 4.0), Z_GRID)
        assert rep.max_sigma_deviation < 4.0

    def test_exp_kernel_matches_window_law(self):
        k = exp_kernel()
        t = cp_unit()
        cfg = SimConfig(mesh_points=256, n_paths=20_000, seed=7)
        samples = sample_integral(k, t, 0.0, 8.0, cfg)
        rep = ecf_check(samples, window_exponent(k, t, 0.0, 8.0), Z_GRID)
        assert rep.max_sigma_deviation < 4.0

    def test_additivity_in_law(self):
        # sum over adjacent windows has the law of the full window
        k = exp_kernel()
        t = cp_unit()
        cfg1 = SimConfig(mesh_points=64, n_paths=20_000, seed=11)
        cfg2 = SimConfig(mesh_points=64, n_paths=20_000, seed=12)
        s = sample_integral(k, t, 0.0, 2.0, cfg1) + \
            sample_integral(k, t, 2.0, 6.0, cfg2)
        rep = ecf_check(s, window_exponent(k, t, 0.0, 6.0), Z_GRID)
        assert rep.max_sigma_deviation < 4.0

    def test_gaussian_window_law(self):
        k = exp_kernel()
        t = ic.Triplet(1.0, None, [0.2])
        cfg = SimConfig(mesh_points=64, n_paths=20_000, seed=13)
        samples = sample_integral(k, t, 0.0, 6.0, cfg)
        rep = ecf_check(samples, window_exponent(k, t, 0.0, 6.0), Z_GRID)
        assert rep.max_sigma_deviation < 4.0

    def test_truncated_stable_matches_window_law(self):
        k = exp_kernel()
        t = ic.Triplet(0.0, ic.StableMeasure(0.8, [[1.0]], [1.0]), [0.0])
        cfg = SimConfig(mesh_points=64, n_paths=20_000, seed=9,
                        gaussian_compensation=True)
        samples = sample_integral(k, t, 0.0, 6.0, cfg)
        rep = ecf_check(samples, window_exponent(k, t, 0.0, 6.0), Z_GRID)
        assert rep.max_sigma_deviation < 4.0


class TestEcfCheck:
    def test_point_mass_deviation_zero(self):
        samples = np.full((2000, 1), 1.7)
        rep = ecf_check(samples, lambda z: 1j * 1.7 * z[0], Z_GRID)
        # machine-precision agreement: zero up to the floored stderr ratio
        assert rep.max_sigma_deviation < 0.1
        assert np.max(np.abs(rep.empirical - rep.analytic)) < 1e-12

    def test_needs_samples(self):
        with pytest.raises(TooFewSamples):
            ecf_check(np.zeros((10, 1)), lambda z: 0j, Z_GRID)

    def test_modulus_bound(self):
        rng = _stream(0, 99)
        samples = rng.standard_normal((5000, 1))
        rep = ecf_check(samples, lambda z: -0.5 * float(z @ z), Z_GRID)
        assert np.all(np.abs(rep.empirical) <= 1.0 + 3.0 * rep.stderr)

    def test_negative_control_detected(self):
        k = exp_kernel()
        t = cp_unit()
        cfg = SimConfig(mesh_points=128, n_paths=20_000, seed=21)
        samples = sample_integral(k, t, 0.0, 8.0, cfg)
        shifted = ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]),
                             [t.gamma[0] + 1.0])
        rep = ecf_check(samples, window_exponent(k, shifted, 0.0, 8.0), Z_GRID)
        assert rep.max_sigma_deviation > 10.0

    def test_rows_shape(self):
        samples = np.full((2000, 1), 0.3)
        rep = ecf_check(samples, lambda z: 1j * 0.3 * z[0], Z_GRID)
        rows = rep.rows()
        assert len(rows) == len(Z_GRID)
        assert set(rows[0]) == {"z", "re_empirical", "im_empirical",
                                "re_analytic", "im_analytic", "stderr"}


class TestSymmetrizedSimulation:
    def test_difference_of_copies_matches_symmetrized_triplet(self):
        k = indicator_kernel(1.0, 0.0, 4.0)
        t = cp_unit(gamma=0.8)
        target = ic.symmetrize_triplet(t)
        s1 = sample_integral(k, t, 0.0, 4.0,
                             SimConfig(mesh_points=8, n_paths=20_000, seed=31))
        s2 = sample_integral(k, t, 0.0, 4.0,
                             SimConfig(mesh_points=8, n_paths=20_000, seed=32))
        rep = ecf_check(s1 - s2, window_exponent(k, target, 0.0, 4.0), Z_GRID)
        assert rep.max_sigma_deviation < 4.0


class TestImproperConvergenceWitness:
    def test_window_laws_approach_the_transform(self):
        from idcalc.transform import phi
        k = exp_kernel()
        t = cp_unit()
        res = phi(k, t)
        analytic = lambda z: ic.cumulant(res.triplet, z)
        devs = []
        for q, seed in ((4.0, 41), (16.0, 43)):
            cfg = SimConfig(mesh_points=int(32 * q), n_paths=20_000, seed=seed)
            samples = sample_integral(k, t, 0.0, q, cfg)
            rep = ecf_check(samples, analytic, Z_GRID)
            devs.append(rep.max_sigma_deviation)
        # the near-limit window is indistinguishable from the transform law
        assert devs[-1] < 4.0
        # the short window is visibly different
        assert devs[0] > devs[-1]


def test_mesh_choice_computes_exact_exponents_once(monkeypatch):
    import dataclasses
    import idcalc.mc as mc
    calls = []
    original = mc.direct_exponent

    def counted(*args):
        calls.append(1)
        return original(*args)
    monkeypatch.setattr(mc, "direct_exponent", counted)
    k, t = exp_kernel(), cp_unit()
    cfg = SimConfig(mesh_points=8, n_paths=20_000, seed=3)
    samples = sample_integral(k, t, 0.0, 8.0, cfg)
    probe = mc._probe_grid(1)
    assert len(calls) == len(probe)
    # the chosen mesh is the first doubling whose gap meets the target
    exact = [original(k, t, z, 0.0, 8.0) for z in probe]
    target = 0.5 / math.sqrt(cfg.n_paths)
    meshes = [8 * 2 ** i for i in range(12)]
    gaps = [mc._mesh_bias(k, t, 0.0, 8.0, m, probe, exact) for m in meshes]
    chosen = meshes[next(i for i, g in enumerate(gaps) if g <= target)]
    assert chosen > 8
    # a mesh that cannot double is never checked: no quadrature, and the
    # same samples as the checked run
    calls.clear()
    fixed = sample_integral(k, t, 0.0, 8.0, dataclasses.replace(
        cfg, mesh_points=chosen, max_mesh_points=chosen))
    assert calls == []
    np.testing.assert_array_equal(samples, fixed)


def _sample_total_add_at(sampler, rng, counts, f):
    """The weighted tile scatter of ``_JumpSampler.sample_total`` written
    with ``np.add.at``: the reference for the per-coordinate ``bincount``."""
    n = counts.shape[0]
    out = np.zeros((n, sampler.dim))
    total = int(counts.sum())
    if total == 0:
        return out
    jumps = sampler.draw_jumps(rng, total)
    weights = f[rng.integers(len(f), size=total)] if len(f) > 1 else f[0]
    owners = np.repeat(np.arange(n), counts)
    np.add.at(out, owners, jumps * np.reshape(weights, (-1, 1)))
    return out


def _radial(directions, weights):
    """A radial measure with the gamma-like density exp(-r) / r: rate
    about w E1(eps) above a cutoff eps, 6.33 w at 1e-3."""
    dens = ic.RadialDensity(lambda r: np.exp(-r) / r, order_zero=-1.0,
                            order_inf=-INF)
    return ic.RadialMeasure(directions, weights, dens)


class TestRadialIntegrals:
    """The sampler's radial integrals of the exp(-r) / r law against an
    independent scipy quadrature."""

    EPS = 0.05
    NU = _radial([[1.0, 0.0], [0.6, -0.8]], [1.0, 0.5])

    @staticmethod
    def _quad(fn, lo, hi):
        from scipy.integrate import quad
        return quad(fn, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    def test_jump_rate(self):
        from idcalc.mc import _JumpSampler, _radial_cap
        # the first cap in x4 steps from 1 whose tail mass E1(cap) is below 1e-14
        assert _radial_cap(self.NU, self.EPS) == 64.0
        want = 1.5 * self._quad(lambda r: np.exp(-r) / r, self.EPS, np.inf)
        got = _JumpSampler([self.NU], self.EPS, 2).total_rate
        assert abs(got - want) <= 1e-9 * want

    def test_small_jump_covariance(self):
        # the origin end is improper: the driver certifies to
        # 1e-9 * max(1, |value|), an absolute bound for this value of 1.2e-3
        from idcalc.mc import _small_jump_covariance
        xi = self.NU.directions
        want = self._quad(lambda r: r * np.exp(-r), 0.0, self.EPS) \
            * (np.outer(xi[0], xi[0]) + 0.5 * np.outer(xi[1], xi[1]))
        np.testing.assert_allclose(_small_jump_covariance(self.NU, self.EPS), want,
                                   rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("nu", [
    _radial([[1.0]], [1.0]),
    ic.AtomicMeasure([[0.7]], [2.0]),
    ic.SumMeasure([_radial([[1.0, 0.0], [0.6, -0.8]], [1.0, 0.5]),
                   ic.AtomicMeasure([[0.5, 2.0], [-1.0, 0.0]], [3.0, 1.0])]),
])
def test_jump_scatter_matches_add_at(nu):
    from idcalc.mc import _JumpSampler, _base_parts
    sampler = _JumpSampler(_base_parts(nu), 1e-2, nu.dim)
    counts = _stream(9, 1).poisson(3.0, size=500)
    counts[::50] = 0          # paths with no jumps
    f = np.sin(np.arange(1.0, 8.0))
    for c in (counts, np.zeros(5, dtype=np.int64)):
        for w in (f, f[:1]):
            got = sampler.sample_total(_stream(9, 2), c, w)
            want = _sample_total_add_at(sampler, _stream(9, 2), c, w)
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# exact stable and gamma parts, against the exact window law
# ---------------------------------------------------------------------------

def _stable(alpha, symmetric, gamma=0.0):
    dirs, weights = ([[1.0], [-1.0]], [0.5, 0.5]) if symmetric else ([[1.0]], [1.0])
    return ic.Triplet(0.0, ic.StableMeasure(alpha, dirs, weights), [gamma])


def _window_ecf(k, t, p, q, seed, z_grid=Z_GRID):
    cfg = SimConfig(mesh_points=64, n_paths=20_000, seed=seed)
    samples = sample_integral(k, t, p, q, cfg)
    return ecf_check(samples, window_exponent(k, t, p, q), z_grid)


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
@pytest.mark.parametrize("symmetric", [False, True])
def test_exact_stable_matches_window_law(alpha, symmetric):
    t = _stable(alpha, symmetric, gamma=0.3)
    seed = 60 + int(10 * alpha) + symmetric
    rep = _window_ecf(exp_kernel(), t, 0.0, 6.0, seed)
    assert rep.max_sigma_deviation < 4.0


def test_exact_stable_2d_sign_changing_kernel():
    # sinc changes sign on the window, so every direction mixes skewness
    nu = ic.StableMeasure(1.2, [[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]],
                          [0.5, 0.5, 0.4])
    t = ic.Triplet(0.0, nu, [0.0, 0.0])
    dirs = _stream(3, 3).standard_normal((10, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rep = _window_ecf(sinc_kernel(), t, 0.0, 8.0, 71,
                      np.linspace(0.25, 2.5, 10)[:, None] * dirs)
    assert rep.max_sigma_deviation < 4.0


def test_exact_stable_plus_atoms_matches_window_law():
    nu = ic.SumMeasure([ic.StableMeasure(1.3, [[1.0]], [1.0]),
                        ic.AtomicMeasure([[1.0], [-0.5]], [1.0, 2.0])])
    t = ic.Triplet(0.0, nu, [0.4])
    rep = _window_ecf(exp_kernel(), t, 0.0, 6.0, 72)
    assert rep.max_sigma_deviation < 4.0


def test_exact_gamma_matches_window_law():
    # gamma(1, 1) with no cutoff set: the law that failed at about 50 sigma
    # while gamma parts were cut at the default cutoff
    t = ic.Triplet(0.0, ic.gamma_measure(1.0, 1.0, [1.0]), [0.0])
    rep = _window_ecf(exp_kernel(), t, 0.0, 4.0, 73)
    assert rep.max_sigma_deviation < 4.0


# ---------------------------------------------------------------------------
# radial parts: the cutoff, the default cutoff and the Gaussian compensation
# ---------------------------------------------------------------------------

def _radial_ecf(t, seed, **cfg):
    k = exp_kernel()
    samples = sample_integral(k, t, 0.0, 4.0, SimConfig(
        mesh_points=64, n_paths=20_000, seed=seed, **cfg))
    return ecf_check(samples, window_exponent(k, t, 0.0, 4.0), Z_GRID)


def test_radial_at_default_cutoff_matches_window_law(monkeypatch):
    import idcalc.mc as mc
    # the Levy measure of gamma(1, 1), as a radial law that is drawn above
    # a cutoff
    t = ic.Triplet(0.0, _radial([[1.0]], [1.0]), [0.2])
    cutoffs = []

    def spy(nu):
        cutoffs.append(default_cutoff(nu))
        return cutoffs[-1]
    monkeypatch.setattr(mc, "default_cutoff", spy)
    rep = _radial_ecf(t, 74)
    assert len(cutoffs) == 1 and 0.0 < cutoffs[0] < 0.05
    assert rep.max_sigma_deviation < 4.0


def test_radial_gaussian_compensation_matches_window_law():
    # at cutoff 0.5 the jumps below it carry variance 0.09 per unit time:
    # the normal term that replaces them closes a gap that is visible
    # without it
    t = ic.Triplet(0.0, _radial([[1.0], [-1.0]], [0.5, 0.5]), [0.2])
    rep = _radial_ecf(t, 74, small_jump_cutoff=0.5, gaussian_compensation=True)
    assert rep.max_sigma_deviation < 4.0
    rep = _radial_ecf(t, 74, small_jump_cutoff=0.5)
    assert rep.max_sigma_deviation > 6.0


# ---------------------------------------------------------------------------
# memory of the tile draws
# ---------------------------------------------------------------------------

def _traced_peak(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_stable_without_cutoff_draws_in_bounded_memory():
    from idcalc.mc import IncrementSampler
    t = _stable(1.5, symmetric=True)
    cfg = SimConfig(mesh_points=64, n_paths=20_000, seed=5)
    # no compound-Poisson rate, so no draw can size an array by the jump
    # count of a cutoff (w eps^-alpha / alpha at the default cutoff)
    sampler = IncrementSampler(t, cfg)
    assert sampler.jumps.total_rate == 0.0 and not sampler.jumps.parts
    samples, peak = _traced_peak(
        lambda: sample_integral(exp_kernel(), t, 0.0, 6.0, cfg))
    assert samples.shape == (20_000, 1)
    assert peak < samples.nbytes + 2 * TILE_BYTES


def test_high_rate_radial_tiles_stay_in_budget(monkeypatch):
    from idcalc.mc import IncrementSampler
    t = ic.Triplet(0.0, _radial([[1.0], [-1.0]], [80.0, 80.0]), [0.0])
    cfg = SimConfig(mesh_points=4, max_mesh_points=4, n_paths=1000, seed=6,
                    small_jump_cutoff=1e-3)
    # about 250 jumps per path and cell: 250,000 jumps for one full cell
    assert IncrementSampler(t, cfg).jumps.total_rate > 1000.0
    draw = IncrementSampler.draw
    peaks = []

    def traced(self, dt, n, rng, **kw):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = draw(self, dt, n, rng, **kw)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out
    monkeypatch.setattr(IncrementSampler, "draw", traced)
    samples, _ = _traced_peak(
        lambda: sample_integral(indicator_kernel(1.0, 0.0, 1.0), t, 0.0, 1.0, cfg))
    assert len(peaks) > 4          # more than one tile per cell
    assert max(peaks) < TILE_BYTES
    rep = ecf_check(samples, window_exponent(indicator_kernel(1.0, 0.0, 1.0),
                                             t, 0.0, 1.0), Z_GRID)
    assert rep.max_sigma_deviation < 4.0

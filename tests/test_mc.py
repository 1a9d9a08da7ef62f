import math

import numpy as np
import pytest

import idcalc as ic
from idcalc.errors import InfiniteActivityWithoutCutoff, TooFewSamples
from idcalc.kernels import exp_kernel, indicator_kernel
from idcalc.mc import (
    EcfReport,
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
        s = ic.StableMeasure(0.8, [[1.0]], [1.0])
        t = ic.Triplet(0.0, s, [0.0])
        # the default cutoff rule kicks in automatically
        inc = sample_increment(t, 0.1, _stream(3, 4))
        assert np.isfinite(inc).all()
        eps = default_cutoff(s)
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


def _sample_total_add_at(sampler, rng, counts):
    """The scatter of ``_JumpSampler.sample_total`` written with
    ``np.add.at``: the reference for the per-coordinate ``bincount``."""
    from idcalc.mc import _stream_choice
    n = counts.shape[0]
    out = np.zeros((n, sampler.dim))
    total = int(counts.sum())
    if total == 0 or not sampler.parts:
        return out
    rates = np.array([r for r, _ in sampler.parts])
    comp = _stream_choice(rng, rates / rates.sum(), total)
    owners = np.repeat(np.arange(n), counts)
    jumps = np.empty((total, sampler.dim))
    for ci, (_, draw) in enumerate(sampler.parts):
        mask = comp == ci
        if mask.any():
            jumps[mask] = draw(rng, int(mask.sum()))
    np.add.at(out, owners, jumps)
    return out


@pytest.mark.parametrize("nu", [
    ic.StableMeasure(0.8, [[1.0]], [1.0]),
    ic.SumMeasure([ic.StableMeasure(1.3, [[1.0, 0.0], [0.6, -0.8]], [1.0, 0.5]),
                   ic.AtomicMeasure([[0.5, 2.0]], [3.0])]),
])
def test_jump_scatter_matches_add_at(nu):
    from idcalc.mc import _JumpSampler
    sampler = _JumpSampler(nu, 1e-2)
    counts = _stream(9, 1).poisson(3.0, size=500)
    counts[::50] = 0          # cells with no jumps
    for c in (counts, np.zeros(5, dtype=np.int64)):
        got = sampler.sample_total(_stream(9, 2), c)
        want = _sample_total_add_at(sampler, _stream(9, 2), c)
        np.testing.assert_array_equal(got, want)

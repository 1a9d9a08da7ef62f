import math
import warnings

import numpy as np
import pytest

import idcalc as ic
from idcalc.kernels import TauMeasure
from idcalc.measures import INF, _stable_exponent
from idcalc.transform import TauMixtureMeasure

from conftest import radial_h


def gamma_density():
    return ic.RadialDensity(lambda r: np.exp(-r) / r, order_zero=-1.0,
                            order_inf=-INF)


class TestAtomic:
    def test_validation(self):
        with pytest.raises(ValueError):
            ic.AtomicMeasure([[0.0]], [1.0])
        with pytest.raises(ValueError):
            ic.AtomicMeasure([[1.0]], [-1.0])

    def test_levy_integral_clipped(self):
        nu = ic.AtomicMeasure([[2.0]], [3.0])
        v = ic.levy_integral(nu, radial_h(lambda r: np.minimum(r * r, 1.0)))
        assert v == 3.0

    def test_region_half_open_partition(self):
        # an atom exactly on the split radius belongs to the upper region
        nu = ic.AtomicMeasure([[1.0], [0.5]], [2.0, 1.0])
        ones = lambda x: np.ones(x.shape[0])
        body = ic.levy_integral(nu, ones, (0.0, 1.0))
        tail = ic.levy_integral(nu, ones, (1.0, INF))
        assert body == 1.0 and tail == 2.0
        assert body + tail == ic.levy_integral(nu, ones)

    def test_symmetrize_merges_reflections(self):
        nu = ic.AtomicMeasure([[1.0], [-1.0]], [2.0, 3.0])
        sym = ic.symmetrize_measure(nu)
        atoms = sorted(zip(sym.points.ravel(), sym.masses))
        assert atoms == [(-1.0, 5.0), (1.0, 5.0)]

    def test_symmetrize_doubles_total_mass(self):
        nu = ic.AtomicMeasure([[1.0], [-1.0]], [2.0, 2.0])
        assert ic.symmetrize_measure(nu).total_mass() == 2 * nu.total_mass()

    def test_dirac_reflection(self):
        nu = ic.AtomicMeasure([[1.0]], [1.0])
        sym = ic.symmetrize_measure(nu)
        pts = sorted(sym.points.ravel())
        assert pts == [-1.0, 1.0]


class TestStable:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ic.StableMeasure(2.0, [[1.0]], [1.0])
        with pytest.raises(ValueError):
            ic.StableMeasure(0.5, [[2.0]], [1.0])

    def test_tail_moment_dichotomy(self):
        # int_{|x|>1} |x|^a against a stable law of index a' is finite
        # exactly when a < a'
        for a, ap in [(0.3, 0.5), (0.5, 0.5), (0.8, 0.5), (1.2, 1.5)]:
            nu = ic.StableMeasure(ap, [[1.0]], [1.0])
            v = ic.levy_integral(nu, radial_h(lambda r: r ** a), (1.0, INF))
            if a < ap:
                assert math.isfinite(v)
                assert abs(v - 1.0 / (ap - a)) < 1e-7
            else:
                assert v == INF

    def test_clipped_second_moment_closed_form(self):
        nu = ic.StableMeasure(0.8, [[1.0]], [2.0])
        want = 2.0 * (1.0 / 1.2 + 1.0 / 0.8)
        assert abs(nu.clipped_second_moment() - want) < 1e-12

    def test_exponent_closed_form_against_oracle(self, stable_exponent_oracle):
        for alpha in (0.3, 0.7, 1.0, 1.4, 1.9):
            for theta in (0.7, -1.3, 2.1):
                got = _stable_exponent(alpha, np.array([theta]))[0]
                want = stable_exponent_oracle(alpha, theta)
                assert abs(got - want) < 2e-7, (alpha, theta)

    def test_cumulant_scaled_scaling_identity(self):
        nu = ic.StableMeasure(1.3, [[1.0]], [1.0])
        z = np.array([0.9])
        base = nu.cumulant_scaled(z, np.array([1.0]))[0]
        scaled = nu.cumulant_scaled(z * 2.0, np.array([0.5]))[0]
        # same theta = u <z, xi> but different u: |u|^alpha prefactor differs
        assert abs(scaled - 0.5 ** 1.3 * nu.cumulant_scaled(
            np.array([1.8]), np.array([1.0]))[0]) < 1e-12
        assert abs(base - _stable_exponent(1.3, np.array([0.9]))[0]) < 1e-12


class TestRadial:
    def test_dual_preserves_clipped_mass(self):
        rm = ic.RadialMeasure([[1.0]], [1.0], gamma_density())
        rd = ic.dual_measure(rm)
        c1 = rm.clipped_second_moment()
        c2 = rd.clipped_second_moment()
        from scipy.special import exp1
        want = (1 - 2 / math.e) + float(exp1(1.0))
        assert abs(c1 - want) < 1e-9
        assert abs(c1 - c2) < 1e-9

    def test_dual_involution_unwraps(self):
        rm = ic.RadialMeasure([[1.0]], [1.0], gamma_density())
        assert ic.dual_measure(ic.dual_measure(rm)).density is rm.density

    def test_gamma_family_cumulant_against_quadrature(self):
        gm = ic.gamma_measure(1.0, 1.0, [1.0])
        z = np.array([0.8])
        got = complex(gm.cumulant_scaled(z, np.array([1.0]))[0])
        from scipy.integrate import quad
        re, _ = quad(lambda r: (np.cos(0.8 * r) - 1) * np.exp(-r) / r, 0, np.inf,
                     limit=400)
        im, _ = quad(lambda r: (np.sin(0.8 * r) - 0.8 * r / (1 + r * r))
                     * np.exp(-r) / r, 0, np.inf, limit=400)
        assert abs(got - complex(re, im)) < 1e-8

    def test_unit_direction_required(self):
        with pytest.raises(ValueError):
            ic.RadialMeasure([[2.0]], [1.0], gamma_density())


class TestRadialIntegralRoutes:
    """Integrals of a polar density that run through ``radial_integral``."""

    @pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.9])
    def test_stable_tail_first_vector_closed_form(self, alpha):
        # V(s) / s, V(s) = int_{|x| >= s} x nu(dx) = sum_k w_k xi_k s^(1-alpha) / (alpha-1),
        # is the first-moment vector of the jumps of x / s beyond 1
        nu = ic.StableMeasure(alpha, [[1.0], [-1.0]], [0.7, 0.2])
        s = np.array([1.0, 3.0, 40.0, 1e4])
        want = np.outer(s ** -alpha / (alpha - 1.0), nu.direction_sum())
        _assert_rel(nu.vector_weighted_scaled(np.ones_like, 1.0 / s, 1.0, INF), want, 1e-10)

    def test_gamma_tail_first_vector_closed_form(self):
        # V(s) / s = direction int_s^inf 0.8 e^(-1.5 r) dr / s; the one-scale
        # driver on [30, inf), one panel on e^(-1.5 r), lands 1.65e-7 off
        nu = ic.gamma_measure(0.8, 1.5, [0.6, -0.8])
        s = np.array([1.0, 2.5, 7.0, 30.0])
        want = np.outer(0.8 * np.exp(-1.5 * s) / (1.5 * s), nu.direction)
        _assert_rel(nu.vector_weighted_scaled(np.ones_like, 1.0 / s, 1.0, INF), want, 1e-10)

    def test_compact_power_law_cumulant_matches_mpmath(self):
        # density r^-2 on (0, 1): the integrand is O(r^2) at small r, so
        # the cumulant is finite although the density blows up there
        import mpmath
        from idcalc.kernels import indicator_kernel
        from idcalc.mc import window_exponent
        z = 0.7
        with mpmath.workdps(30):
            want = complex(mpmath.quad(
                lambda r: (mpmath.expj(z * r) - 1 - 1j * z * r / (1 + r * r)) / r ** 2,
                [0, 1]))
        dens = ic.RadialDensity(lambda r: r ** -2.0, support=(0.0, 1.0),
                                order_zero=-2.0, order_inf=-INF)
        k = indicator_kernel(1.0, 0.0, 1.0)
        for dirs, want_law in (([[1.0]], want), ([[1.0], [-1.0]], 2.0 * want.real)):
            t = ic.Triplet(0.0, ic.RadialMeasure(dirs, [1.0] * len(dirs), dens), [0.0])
            got = window_exponent(k, t, 0.0, 1.0)(np.array([z]))
            assert abs(got - want_law) <= 1e-10 * abs(want_law)


class TestSumAndWrappers:
    def test_sum_adds_functionals(self):
        a = ic.AtomicMeasure([[1.0]], [1.0])
        s = ic.StableMeasure(0.5, [[1.0]], [1.0])
        tot = ic.SumMeasure([a, s])
        ones = lambda x: np.ones(x.shape[0])
        assert tot.integral(ones, 1.0, INF) == \
            a.integral(ones, 1.0, INF) + s.integral(ones, 1.0, INF)
        assert tot.total_mass() == INF

    def test_scaled_measure_pushforward(self):
        # a one-atom occupation mixture: mass 0.5 at scale 3
        a = ic.AtomicMeasure([[1.0]], [2.0])
        sc = TauMixtureMeasure(TauMeasure(atoms=[(3.0, 0.5)]), a)
        ones = lambda x: np.ones(x.shape[0])
        assert sc.integral(ones, 2.9, 3.1) == 1.0

    def test_symmetrized_wrapper_centering_vanishes(self):
        s = ic.StableMeasure(0.8, [[1.0]], [1.0])
        sym = ic.symmetrize_measure(s)
        np.testing.assert_allclose(sym.centering_scaled(np.array([0.5])), 0.0)
        assert sym.is_symmetric()


def test_compound_poisson_empirical():
    nu = ic.compound_poisson_empirical([[1.0], [2.0], [1.0]], rate=3.0)
    assert nu.total_mass() == pytest.approx(3.0)
    # mean jump matches the empirical mean times the rate
    mean_vec = nu.vector_weighted(lambda r: np.ones_like(r))
    np.testing.assert_allclose(mean_vec, [3.0 * (1.0 + 2.0 + 1.0) / 3.0])


def test_gamma_measure_tail_mass_closed_form():
    from scipy.special import exp1
    gm = ic.gamma_measure(1.5, 2.0, [1.0])
    np.testing.assert_allclose(gm.tail_mass(np.array([0.5, 1.0])),
                               1.5 * exp1(np.array([1.0, 2.0])), rtol=1e-12)


def test_materialize_radial_approximates_lazy_pushforward():
    from idcalc.kernels import exp_kernel
    from idcalc.transform import phi_es
    nu = ic.AtomicMeasure([[1.0], [-0.5]], [1.0, 2.0])
    lazy = phi_es(exp_kernel(), ic.Triplet(0.0, nu, [0.0])).triplet.nu
    grid = np.geomspace(1e-4, 1.0, 150)
    mat = ic.materialize_radial(lazy, grid)
    for r in (0.01, 0.1, 0.4):
        inside = float(lazy.tail_mass(np.array([r]))[0]) - \
            float(lazy.tail_mass(np.array([1.0]))[0])
        got = float(mat.tail_mass(np.array([r]))[0])
        assert got == pytest.approx(inside, rel=2e-3)
    # mass lands on both sides for a signed base measure
    assert isinstance(mat, ic.SumMeasure)


def test_levy_integral_region_validation():
    nu = ic.AtomicMeasure([[1.0]], [1.0])
    with pytest.raises(ValueError):
        ic.levy_integral(nu, lambda x: np.ones(x.shape[0]), (2.0, 1.0))


# scales e^0 .. e^-12 of both signs, and u = 0: one Gauss-Kronrod panel's worth
SCALES = np.concatenate([np.exp(-np.arange(0.0, 13.0, 2.0)),
                         -np.exp(-np.arange(0.0, 13.0, 2.0)), [0.0]])
SHELL = (0.5, 2.0)


def _clip(x):
    return np.minimum((x * x).sum(axis=1), 1.0)


def _weight(r):
    return 1.0 / (1.0 + r * r)


def loop_integral(nu, h, us, lo=0.0, hi=INF):
    """The per-scale loop: one one-scale integral per u."""
    return np.array([0.0 if u == 0.0 else
                     nu.integral(lambda x, u=u: h(u * x), lo / abs(u), hi / abs(u))
                     for u in us])


def loop_vector(nu, w, us, lo=0.0, hi=INF):
    return np.array([np.zeros(nu.dim) if u == 0.0 else
                     u * nu.vector_weighted(lambda r, a=abs(u): w(a * r),
                                            lo / abs(u), hi / abs(u))
                     for u in us])


def _assert_rel(got, want, tol):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol * np.abs(want)), \
        np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))


def _measures():
    atoms = ic.AtomicMeasure([[1.0], [-0.5], [3.0]], [1.0, 2.0, 0.4])
    gamma = ic.gamma_measure(1.0, 1.0, [1.0])
    radial = ic.RadialMeasure([[1.0], [-1.0]], [0.7, 0.3], gamma_density())
    return {
        "atomic": (atoms, 1e-12),
        "gamma": (gamma, 1e-9),
        "radial": (radial, 1e-9),
        "sum": (ic.SumMeasure([gamma, atoms]), 1e-9),
        "symmetrized": (TauMixtureMeasure(TauMeasure(atoms=[(1.0, 1.0)]),
                                          radial).symmetrized(), 1e-9),
        "stable": (ic.StableMeasure(1.5, [[1.0], [-1.0]], [0.2, 0.8]), 1e-9),
        "stable-sum": (ic.SumMeasure([ic.StableMeasure(0.6, [[1.0]], [1.0]), atoms]),
                       1e-9),
    }


def _count_radial_drivers(monkeypatch):
    """The list that records each nonnegative improper radial driver run."""
    import idcalc.measures as measures
    calls = []
    original = measures.improper_nonneg

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(measures, "improper_nonneg", counted)
    return calls


class TestScaledFunctionals:
    """The vectorized functionals answer for all scales in one call, and
    agree with the per-scale loop (or a closed form where that loop is not
    sound)."""

    @pytest.mark.parametrize("name", ["atomic", "gamma", "radial", "sum",
                                      "symmetrized", "stable-sum"])
    def test_shell_integral_matches_loop(self, name):
        nu, tol = _measures()[name]
        _assert_rel(nu.scaled_integral(_clip, SCALES, *SHELL),
                    loop_integral(nu, _clip, SCALES, *SHELL), tol)

    def test_stable_shell_integral_closed_form(self):
        # |u|^alpha times the exact power integrals of the clip over the shell;
        # the per-scale loop, a proper quadrature with an absolute tolerance
        # of 1e-13, lands 1.5e-6 off at u = e^-12, where the value is 1.5e-8
        nu, tol = _measures()["stable"]
        lo, hi = SHELL
        a = nu.alpha
        # int_lo^1 r^2 r^(-a-1) dr + int_1^hi r^(-a-1) dr
        base = nu.weight_sum() * ((1.0 - lo ** (2.0 - a)) / (2.0 - a) + (1.0 - hi ** -a) / a)
        _assert_rel(nu.scaled_integral(_clip, SCALES, lo, hi),
                    np.abs(SCALES) ** nu.alpha * base, tol)

    @pytest.mark.parametrize("name", ["atomic", "gamma", "radial", "sum", "symmetrized"])
    def test_full_integral_matches_loop(self, name):
        nu, tol = _measures()[name]
        _assert_rel(nu.scaled_integral(_clip, SCALES), loop_integral(nu, _clip, SCALES),
                    tol)

    @pytest.mark.parametrize("name", ["atomic", "gamma", "sum", "stable", "stable-sum"])
    def test_full_integral_matches_closed_form(self, name):
        # over the full range the stable scaling identity is exact, while a
        # per-scale driver on r^(-alpha-1) misreads small scales (inf at
        # e^-6).  The improper drivers certify to rtol * max(1, |value|), so
        # the gamma components below 1 are held to that absolute bound
        nu, tol = _measures()[name]
        want = nu.clip2_scaled(SCALES)
        got = nu.scaled_integral(_clip, SCALES)
        assert np.all(np.abs(got - want) <= tol * np.maximum(np.abs(want), 1.0))
        if name.startswith("stable"):
            _assert_rel(got, want, tol)

    @pytest.mark.parametrize("name", ["atomic", "gamma", "radial", "sum", "symmetrized",
                                      "stable", "stable-sum"])
    def test_shell_vector_matches_loop(self, name):
        nu, tol = _measures()[name]
        got = nu.vector_weighted_scaled(_weight, SCALES, *SHELL)
        assert got.shape == (SCALES.size, 1)
        _assert_rel(got, loop_vector(nu, _weight, SCALES, *SHELL), tol)

    @pytest.mark.parametrize("name", ["atomic", "gamma", "radial", "sum", "symmetrized"])
    def test_full_vector_matches_loop(self, name):
        nu, tol = _measures()[name]
        _assert_rel(nu.vector_weighted_scaled(_weight, SCALES),
                    loop_vector(nu, _weight, SCALES), tol)

    def test_stable_full_vector_closed_form(self):
        # int (u x) w(|u x|) r^(-1.6) dr = sign(u) |u|^0.6 pi / (2 sin(0.2 pi))
        nu = ic.StableMeasure(0.6, [[1.0]], [1.0])
        want = np.sign(SCALES) * np.abs(SCALES) ** 0.6 * math.pi / (2 * math.sin(0.2 * math.pi))
        _assert_rel(nu.vector_weighted_scaled(_weight, SCALES)[:, 0], want, 1e-9)

    def test_one_scale_case(self):
        for name, (nu, _) in _measures().items():
            one = np.array([1.0])
            assert nu.integral(_clip, *SHELL) == nu.scaled_integral(_clip, one, *SHELL)[0]
            np.testing.assert_array_equal(nu.vector_weighted(_weight, *SHELL),
                                          nu.vector_weighted_scaled(_weight, one, *SHELL)[0])

    def test_full_range_runs_one_driver(self, monkeypatch):
        # one radial driver for all scales of a gamma base
        calls = _count_radial_drivers(monkeypatch)
        ic.gamma_measure(1.0, 1.0, [1.0]).scaled_integral(_clip, SCALES)
        assert len(calls) == 1

    def test_polar_form_built_once(self):
        for nu in (ic.StableMeasure(0.7, [[1.0]], [1.0]), ic.gamma_measure(1.0, 1.0, [1.0])):
            assert isinstance(nu, ic.RadialMeasure)


class TestYShells:
    """Shells lo <= |u x| < hi in y = |u| r: one driver for the scales
    |u| <= 1 of a density supported on (0, inf), against exact references."""

    def test_gamma_clip_shell_closed_form(self):
        # int min(a^2 r^2, 1) e^-r / r over [lo/a, hi/a), a = |u|:
        # a^2 [Gamma(2, lo/a) - Gamma(2, 1/a)] + E1(1/a) - E1(hi/a),
        # Gamma(2, x) = (1 + x) e^-x; 0 in doubles below e^-6
        from scipy.special import exp1
        nu = ic.gamma_measure(1.0, 1.0, [1.0])
        lo, hi = SHELL
        a = np.abs(SCALES[SCALES != 0.0])
        upper = lambda x: (1.0 + x) * np.exp(-x)
        want = np.zeros(SCALES.shape)
        want[SCALES != 0.0] = a * a * (upper(lo / a) - upper(1.0 / a)) \
            + exp1(1.0 / a) - exp1(hi / a)
        _assert_rel(nu.scaled_integral(_clip, SCALES, lo, hi), want, 1e-9)

    def test_gamma_vector_shell_matches_mpmath(self):
        # u int e^-r / (1 + a^2 r^2) dr over [lo/a, hi/a), split at unit
        # steps past lo/a, where e^-r has fallen by e^-40 at the last one
        import mpmath
        nu = ic.gamma_measure(1.0, 1.0, [1.0])
        lo, hi = SHELL
        want = np.zeros((SCALES.size, 1))
        with mpmath.workdps(20):
            for i, u in enumerate(SCALES):
                if u == 0.0:
                    continue
                a = mpmath.mpf(abs(u))
                cuts = [lo / a + k for k in range(41) if lo / a + k < hi / a] + [hi / a]
                want[i] = float(u * mpmath.quad(
                    lambda r: mpmath.exp(-r) / (1 + (a * r) ** 2), cuts))
        _assert_rel(nu.vector_weighted_scaled(_weight, SCALES, lo, hi), want, 1e-9)

    def test_large_scales_keep_r_space_drivers(self):
        # int_{|u x| >= 1} e^-r / r dr = E1(1/u); y-windows at u > 1 fall
        # behind the r-space ones and certified +inf from u = 1e5 on
        from scipy.special import exp1
        us = 10.0 ** np.arange(13)
        got = ic.gamma_measure(1.0, 1.0, [1.0]).scaled_integral(
            lambda x: np.ones(x.shape[0]), us, 1.0, INF)
        _assert_rel(got, exp1(1.0 / us), 1e-12)

    @pytest.mark.parametrize("shell", [(0.5, 2.0), (1.0, INF), (0.0, 1.0)])
    @pytest.mark.parametrize("name", ["gamma", "radial"])
    def test_tiny_scales_raise_no_warning(self, name, shell):
        # at u = 1e-300, r = y / |u| overflows; the r-space windows on
        # [1e300, inf) overflowed too
        nu, _ = _measures()[name]
        us = np.array([1.0, 1e-10, 1e-100, 1e-300, -1e-300, -1e-100, -1e-10, -1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = nu.scaled_integral(_clip, us, *shell)
            vecs = nu.vector_weighted_scaled(_weight, us, *shell)
        assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
        assert np.all(np.isfinite(vecs))

    def test_finite_support_keeps_per_scale_drivers(self):
        # a support end would be a step at a different y in each column, so
        # r^-2 on (0.01, 1) keeps one r-space driver per scale, bit for bit
        dens = ic.RadialDensity(lambda r: r ** -2.0, support=(0.01, 1.0),
                                order_zero=-2.0, order_inf=-INF)
        nu = ic.RadialMeasure([[1.0], [-1.0]], [0.7, 0.3], dens)
        lo, hi = SHELL
        want, want_vec = np.zeros(SCALES.shape), np.zeros((SCALES.size, 1))
        for i, u in enumerate(SCALES):
            if u == 0.0:
                continue
            a = abs(u)
            want[i] = sum(w * nu.radial_integral(
                lambda r, xi=xi: _clip(np.outer(u * r, xi)), lo / a, hi / a)
                for xi, w in zip(nu.directions, nu.weights))
            want_vec[i] = u * nu.radial_integral(lambda r: r * _weight(a * r),
                                                 lo / a, hi / a, signed=True) \
                * nu.direction_sum()
        np.testing.assert_array_equal(nu.scaled_integral(_clip, SCALES, lo, hi), want)
        np.testing.assert_array_equal(nu.vector_weighted_scaled(_weight, SCALES, lo, hi),
                                      want_vec)

    def test_transformed_mean_runs_few_drivers(self, monkeypatch):
        # the mean check of phi_c(power 1.5, gamma law) takes the first
        # moment of every scale f(s) of the pushforward over |x| >= 1: one
        # driver per scale made 1,065 runs
        from corpus import corpus_triplets
        from idcalc.idlaw import mean
        from idcalc.kernels import power_tail_kernel
        from idcalc.transform import phi_c
        t = phi_c(power_tail_kernel(1.5), corpus_triplets()[8]).triplet
        calls = _count_radial_drivers(monkeypatch)
        mean(t)
        assert len(calls) <= 10


@pytest.mark.parametrize("shape,rate", [(1.0, 1.0), (0.7, 2.5)])
def test_gamma_clip_moments_match_mpmath(shape, rate):
    # the clipped moments at scale u, with x = rate/|u|:
    #   clip2 = shape (u^2 (1 - (1 + x) e^-x) / rate^2 + E1(x))
    #         = shape (P(2, x) / x^2 + E1(x))
    #   clip1 = shape (|u| (1 - e^-x) / rate + E1(x))
    # evaluated in 60-digit arithmetic through P(2, x) and expm1, since
    # 1 - (1 + x) e^-x cancels even at 60 digits for |u| up to the largest
    # double
    import mpmath
    us = np.array([s * 10.0 ** k for k in range(-3, 309) for s in (1.0, -1.0)]
                  + [1.7e308, -1.7e308])
    gm = ic.gamma_measure(shape, rate, [1.0])
    got2, got1 = gm.clip2_scaled(us), gm.clip1_scaled(us)
    with mpmath.workdps(60):
        for u, c2, c1 in zip(us, got2, got1):
            x = rate / abs(mpmath.mpf(u))
            e1 = mpmath.e1(x)
            want2 = shape * (mpmath.gammainc(2, 0, x, regularized=True) / x ** 2 + e1)
            want1 = shape * (-mpmath.expm1(-x) / x + e1)
            assert abs(c2 - want2) <= 1e-13 * want2, u
            assert abs(c1 - want1) <= 1e-13 * want1, u
        # the closed forms themselves, against quadrature of the defining
        # integrals of min(|u r|^p, 1) shape e^(-rate r) / r, split at 1/|u|
        for u in (0.5, -3.0, 1e4):
            a = 1 / abs(mpmath.mpf(u))
            tail = mpmath.quad(lambda r: mpmath.exp(-rate * r) / r, [a, 1, mpmath.inf])
            want2 = shape * (mpmath.quad(lambda r: u * u * r * mpmath.exp(-rate * r),
                                         [0, a]) + tail)
            want1 = shape * (mpmath.quad(lambda r: abs(u) * mpmath.exp(-rate * r),
                                         [0, a]) + tail)
            assert abs(gm.clip2_scaled([u])[0] - want2) <= 1e-13 * want2, u
            assert abs(gm.clip1_scaled([u])[0] - want1) <= 1e-13 * want1, u


def _surface_measures():
    """One measure of every representation, by name."""
    from idcalc.transform import PushforwardMeasure
    atoms = ic.AtomicMeasure([[1.5], [-0.5]], [2.0, 1.0])
    stable = ic.StableMeasure(0.7, [[1.0], [-1.0]], [0.6, 0.4])
    gamma = ic.gamma_measure(1.0, 2.0, [1.0])
    # compact, as the radial cumulant of r^-2.5 on (0, inf) is not
    # certified: its R-doubling loop needs R ~ 2e6, past the signed driver
    r25 = ic.RadialDensity(lambda r: r ** -2.5, support=(0.0, 4.0), order_zero=-2.5,
                           order_inf=-INF)
    return {
        "zero": ic.ZeroMeasure(1),
        "atomic": atoms,
        "radial": ic.RadialMeasure([[1.0], [-1.0]], [0.7, 0.3], r25),
        "stable": stable,
        "gamma": gamma,
        "sum": ic.SumMeasure([atoms, gamma, stable]),
        "pushforward": PushforwardMeasure(ic.exp_kernel(), atoms),
        "tau-mixture": TauMixtureMeasure(ic.tau_exponential(), atoms),
    }


# the six functionals: name, call, value shape of one scale, dtype
_SURFACE = [
    ("scaled_integral", lambda nu, us: nu.scaled_integral(_clip, us), False, float),
    ("clip2_scaled", lambda nu, us: nu.clip2_scaled(us), False, float),
    ("clip1_scaled", lambda nu, us: nu.clip1_scaled(us), False, float),
    ("centering_scaled", lambda nu, us: nu.centering_scaled(us), True, float),
    ("cumulant_scaled", lambda nu, us: nu.cumulant_scaled(np.array([0.7]), us), False,
     complex),
    ("vector_weighted_scaled",
     lambda nu, us: nu.vector_weighted_scaled(_weight, us, 1.0, INF), True, float),
]


class TestFunctionalSurface:
    """Every representation answers the six functionals with one shape
    contract: (m,), or (m, dim) for the centering and vector functionals,
    a scalar scale counting as m = 1."""

    @pytest.mark.parametrize("kind", list(_surface_measures()))
    def test_shape_and_dtype(self, kind):
        nu = _surface_measures()[kind]
        for name, call, vector, dtype in _SURFACE:
            for us, m in ((0.5, 1), (np.array([0.0, 0.5, -2.0]), 3)):
                got = call(nu, us)
                want = (m, nu.dim) if vector else (m,)
                assert isinstance(got, np.ndarray), (name, us)
                assert got.shape == want, (name, us, got.shape)
                assert got.dtype == np.dtype(dtype), (name, us, got.dtype)

    def test_zero_base_mixtures_make_no_driver_call(self, monkeypatch):
        import idcalc.measures as measures
        import idcalc.quadrature as quadrature
        import idcalc.transform as transform
        from idcalc.transform import PushforwardMeasure
        calls = []
        for module in (quadrature, measures, transform):
            for name in ("improper_nonneg", "improper_limit", "adaptive_quad"):
                if hasattr(module, name):
                    def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)
                    monkeypatch.setattr(module, name, counted)
        us = np.array([0.0, 0.5, -2.0])
        for nu in (PushforwardMeasure(ic.exp_kernel(), ic.ZeroMeasure(1)),
                   TauMixtureMeasure(ic.tau_exponential(), ic.ZeroMeasure(1))):
            for name, call, vector, dtype in _SURFACE:
                got = call(nu, us)
                np.testing.assert_array_equal(
                    got, np.zeros((3, 1) if vector else (3,), dtype), err_msg=name)
        assert calls == []

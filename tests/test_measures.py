import math

import numpy as np
import pytest

import idcalc as ic
from idcalc.errors import InconclusiveError
from idcalc.kernels import TauMeasure
from idcalc.measures import INF, SymmetrizedMeasure, _stable_exponent
from idcalc.transform import TauMixtureMeasure

from conftest import radial_h


def gamma_density():
    return ic.RadialDensity(lambda r: np.exp(-r) / r, order_zero=-1.0,
                            order_inf=-INF, decreasing_tail=True)


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
        "symmetrized": (SymmetrizedMeasure(radial), 1e-9),
        "stable": (ic.StableMeasure(1.5, [[1.0], [-1.0]], [0.2, 0.8]), 1e-9),
        "stable-sum": (ic.SumMeasure([ic.StableMeasure(0.6, [[1.0]], [1.0]), atoms]),
                       1e-9),
    }


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
        base = nu.weight_sum() * (nu.power_radial(2.0, lo, 1.0) + nu.power_radial(0.0, 1.0, hi))
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
        import idcalc.measures as measures
        calls = []
        original = measures.improper_nonneg

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(measures, "improper_nonneg", counted)
        ic.gamma_measure(1.0, 1.0, [1.0]).scaled_integral(_clip, SCALES)
        assert len(calls) == 1

    def test_polar_form_built_once(self):
        for nu in (ic.StableMeasure(0.7, [[1.0]], [1.0]), ic.gamma_measure(1.0, 1.0, [1.0])):
            assert isinstance(nu.as_radial(), ic.RadialMeasure)
            assert nu.as_radial() is nu.as_radial()

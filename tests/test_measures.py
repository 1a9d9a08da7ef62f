import math

import numpy as np
import pytest

import idcalc as ic
from idcalc.errors import InconclusiveError
from idcalc.kernels import TauMeasure
from idcalc.measures import INF, _stable_exponent
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

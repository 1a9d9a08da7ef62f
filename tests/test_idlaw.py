import cmath

import numpy as np
import pytest

import idcalc as ic
from idcalc.errors import HasGaussianPart, NoDrift, NoMean
from idcalc.measures import INF

from conftest import radial_h


def one_atom(x, m=1.0, gamma=0.0, A=0.0):
    return ic.Triplet(A, ic.AtomicMeasure([[x]], [m]), [gamma])


class TestCumulant:
    def test_pure_gaussian(self):
        t = ic.Triplet(1.0, None, [0.0])
        assert ic.cumulant(t, 1.0) == pytest.approx(-0.5)

    def test_point_mass(self):
        t = ic.dirac([3.0])
        assert ic.cumulant(t, 2.0) == pytest.approx(6j)

    def test_single_atom_exact(self):
        # atom at 1 with unit mass, location 1/2: the centering term
        # -i z x/(1+|x|^2) = -i/2 cancels the location term at z = 1
        t = one_atom(1.0, 1.0, gamma=0.5)
        want = cmath.exp(1j) - 1.0
        assert ic.cumulant(t, 1.0) == pytest.approx(want, abs=1e-14)

    def test_zero_argument(self):
        t = ic.Triplet(0.5, ic.StableMeasure(1.2, [[1.0]], [1.0]), [0.7])
        assert ic.cumulant(t, 0.0) == 0.0

    def test_additivity_under_convolution(self):
        t1 = ic.Triplet(0.4, ic.AtomicMeasure([[1.0], [-2.0]], [1.0, 0.5]), [0.3])
        t2 = ic.Triplet(0.1, ic.StableMeasure(0.7, [[1.0]], [1.0]), [-0.2])
        ts = ic.triplet_add(t1, t2)
        for z in (0.3, 1.0, -1.7):
            lhs = ic.cumulant(ts, z)
            rhs = ic.cumulant(t1, z) + ic.cumulant(t2, z)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestClassify:
    def test_finite_activity(self):
        assert ic.classify_type(one_atom(1.0)) is ic.TypeClass.A

    def test_gaussian_part_dominates(self):
        t = ic.Triplet(np.eye(2), None, [0.0, 0.0])
        assert ic.classify_type(t) is ic.TypeClass.C

    def test_radial_infinite_activity_finite_variation(self):
        dens = ic.RadialDensity(lambda r: r ** -1.5, support=(0.0, 1.0),
                                order_zero=-1.5, order_inf=-INF)
        nu = ic.RadialMeasure([[1.0]], [1.0], dens)
        t = ic.Triplet(0.0, nu, [0.0])
        assert ic.classify_type(t) is ic.TypeClass.B

    def test_stable_types(self):
        b = ic.Triplet(0.0, ic.StableMeasure(0.5, [[1.0]], [1.0]), [0.0])
        c = ic.Triplet(0.0, ic.StableMeasure(1.5, [[1.0]], [1.0]), [0.0])
        assert ic.classify_type(b) is ic.TypeClass.B
        assert ic.classify_type(c) is ic.TypeClass.C


class TestDriftMean:
    def test_drift_no_jumps(self):
        t = ic.dirac([2.5])
        np.testing.assert_allclose(ic.drift(t), [2.5])

    def test_drift_cancels_centering(self):
        np.testing.assert_allclose(ic.drift(one_atom(1.0, 1.0, gamma=0.5)),
                                   [0.0], atol=1e-15)

    def test_no_drift_for_heavy_small_jumps(self):
        dens = ic.RadialDensity(lambda r: r ** -3.0, support=(0.0, 1.0),
                                order_zero=-3.0, order_inf=-INF)
        # r^-3 near zero integrates r^2 but not r
        nu = ic.RadialMeasure([[1.0]], [1.0], dens, validate=False)
        with pytest.raises(NoDrift):
            ic.drift(ic.Triplet(0.0, nu, [0.0], validate=False))

    def test_mean_atom(self):
        t = one_atom(2.0, 1.0, gamma=0.0)
        np.testing.assert_allclose(ic.mean(t), [2.0 * 4.0 / 5.0])

    def test_no_mean_for_heavy_tail(self):
        t = ic.Triplet(0.0, ic.StableMeasure(0.5, [[1.0]], [1.0]), [0.0])
        with pytest.raises(NoMean):
            ic.mean(t)


class TestDual:
    def test_requires_purely_non_gaussian(self):
        with pytest.raises(HasGaussianPart):
            ic.dual(ic.Triplet(1.0, None, [0.0]))

    def test_atom_transport(self):
        d = ic.dual(one_atom(2.0, 1.0, gamma=5.0))
        np.testing.assert_allclose(d.nu.points, [[0.5]])
        np.testing.assert_allclose(d.nu.masses, [4.0])
        np.testing.assert_allclose(d.gamma, [-5.0])

    def test_involution_exact_on_atoms(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.integers(1, 6)
            pts = rng.standard_normal((n, 2)) * 3
            pts[np.abs(pts).sum(axis=1) == 0] += 1.0
            ms = rng.random(n) + 0.1
            nu = ic.AtomicMeasure(pts, ms)
            t = ic.Triplet(np.zeros((2, 2)), nu, rng.standard_normal(2))
            tt = ic.dual(ic.dual(t))
            np.testing.assert_array_equal(tt.nu.points, nu.points)
            np.testing.assert_array_equal(tt.nu.masses, nu.masses)
            np.testing.assert_array_equal(tt.gamma, t.gamma)

    def test_stable_index_map(self):
        s = ic.StableMeasure(0.5, [[1.0]], [1.0])
        assert ic.dual_measure(s).alpha == 1.5
        assert ic.dual_measure(ic.dual_measure(s)).alpha == 0.5

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_moment_duality(self, a):
        nu = ic.AtomicMeasure([[0.5], [2.0], [3.0]], [1.0, 2.0, 0.5])
        nud = ic.dual_measure(nu)
        lhs = ic.levy_integral(nud, radial_h(lambda r: r ** (2 - a)), (0.0, 1.0))
        rhs = ic.levy_integral(nu, radial_h(lambda r: r ** a), (1.0, INF))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        s = ic.StableMeasure(1.2, [[1.0]], [1.0])
        sd = ic.dual_measure(s)
        lhs = ic.levy_integral(sd, radial_h(lambda r: r ** (2 - a)), (0.0, 1.0))
        rhs = ic.levy_integral(s, radial_h(lambda r: r ** a), (1.0, INF))
        if a < 1.2:
            assert lhs == pytest.approx(rhs, rel=1e-8)
        else:
            assert lhs == INF and rhs == INF

    def test_drift_mean_duality(self):
        t = one_atom(2.0, 1.0, gamma=0.3)
        np.testing.assert_allclose(ic.drift(ic.dual(t)), -ic.mean(t), atol=1e-12)

    def test_dual_type_characterization(self):
        # dual of finite-second-moment law has finite activity
        t = one_atom(2.0)
        assert ic.classify_type(ic.dual(t)) is ic.TypeClass.A
        # stable 1.5 has finite mean iff alpha > 1: dual is type A or B
        s = ic.Triplet(0.0, ic.StableMeasure(1.5, [[1.0]], [1.0]), [0.0])
        assert ic.classify_type(ic.dual(s)) in (ic.TypeClass.A, ic.TypeClass.B)
        # stable 0.5 has no mean: dual must be type C
        s = ic.Triplet(0.0, ic.StableMeasure(0.5, [[1.0]], [1.0]), [0.0])
        assert ic.classify_type(ic.dual(s)) is ic.TypeClass.C

    def test_clipped_mass_invariance(self):
        clip = radial_h(lambda r: np.minimum(r * r, 1.0))
        nu = ic.AtomicMeasure([[0.4], [3.0]], [1.0, 2.0])
        assert ic.levy_integral(ic.dual_measure(nu), clip) == pytest.approx(
            ic.levy_integral(nu, clip), rel=1e-12)

    def test_radial_dual_cumulant_involution(self):
        dens = ic.RadialDensity(lambda r: np.exp(-r) / r, order_zero=-1.0,
                                order_inf=-INF)
        nu = ic.RadialMeasure([[1.0]], [1.0], dens)
        t = ic.Triplet(0.0, nu, [0.4])
        tt = ic.dual(ic.dual(t))
        for z in (0.5, 1.5):
            assert ic.cumulant(tt, z) == pytest.approx(ic.cumulant(t, z),
                                                       rel=1e-8)


def test_symmetrize_triplet():
    t = ic.Triplet(0.5, ic.AtomicMeasure([[1.0]], [2.0]), [0.7])
    s = ic.symmetrize_triplet(t)
    np.testing.assert_allclose(s.A, [[1.0]])
    np.testing.assert_allclose(s.gamma, [0.0])
    assert s.nu.is_symmetric()
    assert s.is_symmetric()


def test_triplet_validation():
    with pytest.raises(ValueError):
        ic.Triplet(np.array([[1.0, 0.5], [0.0, 1.0]]), None, [0.0, 0.0])
    with pytest.raises(ValueError):
        ic.Triplet(np.array([[-1.0]]), None, [0.0])
    # tiny negative eigenvalues are clamped
    t = ic.Triplet(np.array([[-1e-13]]), None, [0.0])
    assert t.A[0, 0] == 0.0

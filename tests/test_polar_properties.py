"""Properties of the polar measure family, drawn with hypothesis.

Radial, stable, gamma, atomic and sum measures are built from random
directions, weights and indices, and checked for the dual involution, the
symmetric collapse and the support predicates; one-atom scale mixtures of
them for the symmetrization of a mixture.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import idcalc as ic
from idcalc.kernels import TauMeasure
from idcalc.measures import INF
from idcalc.transform import TauMixtureMeasure

# a fixed draw sequence keeps the suite reproducible
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

weights_st = st.floats(0.1, 5.0)
alphas = st.floats(0.05, 1.95)


@st.composite
def unit_vectors(draw, dim):
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    n = float(np.linalg.norm(v))
    assume(n > 0.1)
    return v / n


@st.composite
def polar_parts(draw, dim):
    n = draw(st.integers(1, 3))
    dirs = np.array([draw(unit_vectors(dim)) for _ in range(n)])
    return dirs, np.array(draw(st.lists(weights_st, min_size=n, max_size=n)))


def _gamma_like_density():
    return ic.RadialDensity(lambda r: np.exp(-r) / r, order_zero=-1.0, order_inf=-INF)


@st.composite
def primitives(draw, dim, kinds=("radial", "stable", "gamma", "atomic")):
    kind = draw(st.sampled_from(kinds))
    if kind == "radial":
        return ic.RadialMeasure(*draw(polar_parts(dim)), _gamma_like_density(),
                                validate=False)
    if kind == "stable":
        return ic.StableMeasure(draw(alphas), *draw(polar_parts(dim)))
    if kind == "gamma":
        return ic.gamma_measure(draw(weights_st), draw(weights_st), draw(unit_vectors(dim)))
    dirs, masses = draw(polar_parts(dim))
    radii = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=len(masses),
                                   max_size=len(masses))))
    return ic.AtomicMeasure(dirs * radii[:, None], masses)


@st.composite
def measures(draw, kinds=("radial", "stable", "gamma", "atomic", "sum")):
    dim = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(kinds))
    if kind == "sum":
        return ic.SumMeasure([draw(primitives(dim)) for _ in range(2)])
    return draw(primitives(dim, (kind,)))


def _points(nu):
    """Support directions (or atoms) and their weights (or masses)."""
    if isinstance(nu, ic.AtomicMeasure):
        return nu.points, nu.masses
    return nu.directions, nu.weights


def _reflection_invariant(points, masses):
    """Every distinct point carries the total mass of its reflection."""
    pts, inverse = np.unique(np.round(points, 12), axis=0, return_inverse=True)
    total = np.bincount(inverse.ravel(), weights=masses)
    for p, m in zip(pts, total):
        twin = np.flatnonzero(np.all(pts == -p, axis=1))
        if twin.size != 1 or not math.isclose(m, total[twin[0]], rel_tol=1e-12):
            return False
    return True


@SETTINGS
@given(measures())
def test_dual_involution(nu):
    assert nu.dual().dual() is nu


@SETTINGS
@given(alphas, st.integers(1, 2).flatmap(polar_parts))
def test_stable_dual_index_and_closed_forms(alpha, parts):
    nu = ic.StableMeasure(alpha, *parts)
    d = nu.dual()
    assert isinstance(d, ic.StableMeasure) and d.alpha == 2.0 - alpha
    us = np.array([0.3, -2.0])
    a = d.alpha
    np.testing.assert_allclose(d.clip2_scaled(us),
                               nu.weight_sum() * (1 / (2 - a) + 1 / a) * np.abs(us) ** a,
                               rtol=1e-13)
    # the inversion preserves the clipped second moment
    assert math.isclose(d.clipped_second_moment(), nu.clipped_second_moment(),
                        rel_tol=1e-13)


@SETTINGS
@given(measures(), st.data())
def test_symmetric_collapse(nu, data):
    sym = nu.symmetrized()
    if isinstance(nu, ic.StableMeasure):
        assert isinstance(sym, ic.StableMeasure) and sym.alpha == nu.alpha
    # a symmetrized gamma is a sum of two reflected gammas, which a sum
    # recognizes by pooling the directions of its parts
    assert sym.is_symmetric()
    us = np.array([1.0, -0.5])
    np.testing.assert_allclose(sym.centering_scaled(us), 0.0, atol=1e-12)
    z = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=nu.dim,
                                    max_size=nu.dim)))
    c = sym.cumulant_scaled(z, us)
    assert np.all(np.abs(c.imag) <= 1e-9 * (1.0 + np.abs(c.real)))


@SETTINGS
@given(measures(kinds=("radial", "stable", "gamma", "atomic")), st.data())
def test_support_predicates_match_points(nu, data):
    points, masses = _points(nu)
    signs = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=nu.dim,
                                        max_size=nu.dim)))
    assert nu.supported_in_orthant(signs) == bool(np.all(points * signs >= 0))
    assert nu.is_symmetric() == _reflection_invariant(points, masses)
    sym = nu.symmetrized()
    if isinstance(nu, ic.GammaMeasure):
        assert isinstance(sym, ic.SumMeasure) and sym.is_symmetric()
    else:
        assert _reflection_invariant(*_points(sym))


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda dim: st.tuples(
    unit_vectors(dim), weights_st, weights_st)))
def test_sum_of_reflected_gammas_is_symmetric(params):
    xi, shape, rate = params
    nu = ic.gamma_measure(shape, rate, xi)
    assert ic.SumMeasure([nu, ic.gamma_measure(shape, rate, -xi)]).is_symmetric()
    # a mirror image with another radial law does not pair up
    assert not ic.SumMeasure([nu, ic.gamma_measure(shape, 2.0 * rate, -xi)]).is_symmetric()
    t = ic.symmetrize_triplet(ic.Triplet(np.zeros((nu.dim, nu.dim)), nu, np.zeros(nu.dim)))
    assert t.is_symmetric()


@SETTINGS
@given(st.integers(1, 2).flatmap(primitives),
       st.floats(0.2, 3.0), st.sampled_from([1.0, -1.0]), weights_st)
def test_symmetrized_mixture(nu, v, sign, m):
    # nu(B/v) + nu(-B/v) = nu_sym(B/v): the mixture over the symmetrized
    # base is the reflection-sum of the mixture
    mix = TauMixtureMeasure(TauMeasure(atoms=[(sign * v, m)]), nu)
    sym = mix.symmetrized()
    assert sym.is_symmetric()
    us = np.array([1.0, -0.5])
    np.testing.assert_allclose(sym.clip2_scaled(us), 2.0 * mix.clip2_scaled(us),
                               rtol=1e-9)
    rs = np.array([0.5, 2.0])
    np.testing.assert_allclose(sym.tail_mass(rs), 2.0 * mix.tail_mass(rs), rtol=1e-9)
    np.testing.assert_allclose(sym.centering_scaled(us), 0.0, atol=1e-12)

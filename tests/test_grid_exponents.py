"""The cumulant functional and the exact window exponents over a grid of
arguments: one call on an (m_z, d) grid agrees with m_z one-argument calls,
and the one-argument path keeps its values to the last bit."""

import warnings

import numpy as np
import pytest

import idcalc as ic
from idcalc.kernels import exp_kernel, sinc_kernel, tau_exponential
from idcalc.transform import (
    PushforwardMeasure,
    TauMixtureMeasure,
    base_exponent_scaled,
    direct_exponent,
)

RTOL, ATOL = 1e-9, 1e-12
US = np.array([0.0, 0.3, -1.7, 2.5])
# one row of zeros, and rows of both signs
Z1 = np.array([[0.25], [-0.8], [0.0], [2.0]])
Z2 = np.array([[0.4, -1.1], [0.0, 0.0], [-1.5, 0.3], [0.9, 0.9]])

_SYM = ([[1.0], [-1.0]], [0.5, 0.5])
# the 2-d stable 1.2 law of the simulate benchmark
_STABLE2D = ([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]], [0.5, 0.5, 0.4])


def _measures():
    atomic = ic.AtomicMeasure([[1.0], [-0.5]], [1.0, 2.0])
    gamma = ic.gamma_measure(1.0, 1.0, [1.0])
    return {
        "atomic": atomic,
        "stable1.5": ic.StableMeasure(1.5, *_SYM),
        "stable2d": ic.StableMeasure(1.2, *_STABLE2D),
        "gamma": gamma,
        "radial": ic.RadialMeasure([[1.0], [-1.0]], [0.7, 0.3],
                                   ic.RadialDensity(lambda r: r ** -2.0, (0.0, 1.0))),
        "sum": ic.SumMeasure([atomic, gamma]),
        "zero": ic.ZeroMeasure(1),
        "pushforward": PushforwardMeasure(exp_kernel(), atomic),
        "pushforward-window": PushforwardMeasure(exp_kernel(), gamma, 0.5, 3.0),
        "tau": TauMixtureMeasure(tau_exponential(), atomic),
    }


@pytest.mark.parametrize("kind", list(_measures()))
def test_cumulant_grid_matches_per_argument_calls(kind):
    nu = _measures()[kind]
    zs = Z2 if nu.dim == 2 else Z1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = nu.cumulant_scaled(zs, US)
        one = np.stack([nu.cumulant_scaled(z, US) for z in zs], axis=1)
    assert grid.shape == (len(US), len(zs)) and grid.dtype == complex
    np.testing.assert_allclose(grid, one, rtol=RTOL, atol=ATOL)
    # one argument still gives one value per scale
    assert nu.cumulant_scaled(zs[0], US).shape == (len(US),)


def _laws():
    atom = ic.AtomicMeasure([[1.0]], [1.0])
    return {
        "atomic": (ic.Triplet(0.0, atom, [0.5]), Z1),
        "stable1.5": (ic.Triplet(0.5, ic.StableMeasure(1.5, *_SYM), [0.1]), Z1),
        "stable2d": (ic.Triplet(0.0, ic.StableMeasure(1.2, *_STABLE2D), [0.2, -0.1]), Z2),
        "gamma": (ic.Triplet(0.0, ic.gamma_measure(1.0, 1.0, [1.0]), [-0.1]), Z1),
        "gauss": (ic.Triplet(1.0, None, [0.3]), Z1),
    }


@pytest.mark.parametrize("kind", list(_laws()))
def test_base_exponent_grid_matches_per_argument_calls(kind):
    t, zs = _laws()[kind]
    grid = base_exponent_scaled(t, zs, US)
    one = np.stack([base_exponent_scaled(t, z, US) for z in zs], axis=1)
    assert grid.shape == (len(US), len(zs))
    np.testing.assert_allclose(grid, one, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("window", [(0.0, 8.0), None], ids=["window", "improper"])
@pytest.mark.parametrize("kind", list(_laws()))
def test_direct_exponent_grid_matches_per_argument_calls(kind, window):
    t, zs = _laws()[kind]
    # simulate's 2-d law runs under sinc; its improper limit is not certified
    k = sinc_kernel() if t.dim == 2 and window else exp_kernel()
    w = () if window is None else window
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = direct_exponent(k, t, zs, *w)
        one = np.array([direct_exponent(k, t, z, *w) for z in zs])
    assert grid.shape == (len(zs),) and grid.dtype == complex
    np.testing.assert_allclose(grid, one, rtol=RTOL, atol=ATOL)


def test_direct_exponent_grid_is_one_quadrature(monkeypatch):
    import idcalc.transform as tr
    calls = []
    original = tr.slab_quad

    def counted(fn, **kw):
        slab = original(fn, **kw)

        def run(*window):
            calls.append(window)
            return slab(*window)
        return run
    monkeypatch.setattr(tr, "slab_quad", counted)
    t, zs = _laws()["atomic"]
    direct_exponent(exp_kernel(), t, zs, 0.0, 8.0)
    assert calls == [(0.0, 8.0)]


# single-argument values as computed before the grid path existed, to the
# last bit
_PINNED = {
    "cumulant-atomic": (
        lambda: _measures()["atomic"].cumulant_scaled(np.array([0.7]), US),
        [0j, (-0.03298395977885693 + 0.011563984834753488j),
         (-0.9720431300602869 - 0.19229517534847285j),
         (-1.8962523393228419 - 0.10955353867465212j)]),
    "cumulant-stable2d": (
        lambda: _measures()["stable2d"].cumulant_scaled(np.array([0.4, -1.1]), US),
        [0j, (-0.33977006518278074 + 0.061317481689445945j),
         (-2.7238194297169573 - 0.4915611029982255j),
         (-4.326807942455731 + 0.7808485619313006j)]),
    "cumulant-gamma": (
        lambda: _measures()["gamma"].cumulant_scaled(np.array([1.3]), US),
        [0j, (-0.07079318203093542 + 0.023887904516313174j),
         (-0.8861268989180531 - 0.09903652426648213j),
         (-1.2238835514192719 + 0.05794304934157801j)]),
    "cumulant-radial": (
        lambda: _measures()["radial"].cumulant_scaled(np.array([0.9]), US),
        [0j, (-0.036376296261140466 + 0.003998689956672361j),
         (-1.0978004655030271 - 0.3030206794215724j),
         (-2.2091050717264284 + 0.556152196959081j)]),
    "base-stable2d": (
        lambda: base_exponent_scaled(ic.Triplet(0.0, _measures()["stable2d"], [0.1, -0.2]),
                                     np.array([0.4, -1.1]), US),
        [0j, (-0.33977006518278074 + 0.10864180635605716j),
         (-2.7238194297169573 - 1.0245070458152903j),
         (-4.326807942455731 + 1.6711023313071691j)]),
    "direct-window-atomic": (
        lambda: direct_exponent(exp_kernel(), ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]),
                                                         [0.5]), np.array([0.7]), 0.0, 8.0),
        (-0.12002600016834344 + 0.6809874152777968j)),
    "direct-window-stable2d": (
        lambda: direct_exponent(sinc_kernel(), ic.Triplet(0.0, _measures()["stable2d"],
                                                          [0.0, 0.0]),
                                np.array([0.4, -1.1]), 0.0, 4.0),
        (-2.590027642199097 + 0.39424522907843124j)),
    "direct-improper-gamma": (
        lambda: direct_exponent(exp_kernel(), _laws()["gamma"][0], np.array([1.3])),
        (-0.31524879646504095 + 0.20125264803107862j)),
    "direct-improper-gauss": (
        lambda: direct_exponent(exp_kernel(), _laws()["gauss"][0], np.array([1.3])),
        (-0.42249999995081455 + 0.38999999997729906j)),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_single_argument_values_are_pinned(name):
    call, want = _PINNED[name]
    got = call()
    if isinstance(want, complex):
        assert type(got) is complex
    assert np.asarray(got).tolist() == want

import math

import numpy as np
import pytest

from idcalc.errors import QuadratureFailure
from idcalc.quadrature import (
    adaptive_quad,
    bisect_monotone,
    improper_limit,
    improper_nonneg,
    slab_quad,
    window_schedule,
)

INF = math.inf


def test_adaptive_quad_matches_known_integrals():
    v, err = adaptive_quad(lambda x: np.sin(x), 0.0, np.pi)
    assert abs(v - 2.0) < 1e-10
    v, _ = adaptive_quad(lambda x: np.exp(-x * x), -6.0, 6.0)
    assert abs(v - math.sqrt(math.pi)) < 1e-10


def test_adaptive_quad_vector_valued():
    fn = lambda x: np.stack([x, x * x], axis=1)
    v, _ = adaptive_quad(fn, 0.0, 1.0)
    np.testing.assert_allclose(v, [0.5, 1.0 / 3.0], rtol=1e-11)


def test_adaptive_quad_complex():
    v, _ = adaptive_quad(lambda x: np.exp(1j * x), 0.0, math.pi)
    assert abs(v - (math.sin(math.pi) + 1j * (1 - math.cos(math.pi)))) < 1e-10


def test_window_schedule_nests():
    sched = window_schedule(0.0, INF, 10)
    ps = [p for p, _ in sched]
    qs = [q for _, q in sched]
    assert all(p2 < p1 for p1, p2 in zip(ps, ps[1:]))
    assert all(q2 > q1 for q1, q2 in zip(qs, qs[1:]))


@pytest.mark.parametrize("expo, expect_status, expect_value", [
    (-1.5, "converged", 2.0),
    (-1.0, "diverged", None),
    (-0.8, "diverged", None),
])
def test_improper_nonneg_tail_powers(expo, expect_status, expect_value):
    res = improper_nonneg(slab_quad(lambda r: r ** expo), 1.0, INF)
    assert res.status == expect_status
    if expect_value is not None:
        assert abs(float(np.max(res.value)) - expect_value) < 1e-7


def test_improper_nonneg_origin_power():
    res = improper_nonneg(slab_quad(lambda r: r ** -0.5), 0.0, 1.0)
    assert res.converged
    assert abs(float(np.max(res.value)) - 2.0) < 1e-8
    res = improper_nonneg(slab_quad(lambda r: r ** -1.5), 0.0, 1.0)
    assert res.diverged


def test_improper_nonneg_slow_decay_is_not_divergence():
    # window ratio ~ 2^-0.1: certified finite via the geometric tail
    res = improper_nonneg(slab_quad(lambda r: r ** -1.1), 1.0, INF)
    assert res.converged
    assert abs(float(np.max(res.value)) - 10.0) < 0.05


def test_improper_limit_converges_exponential():
    res = improper_limit(slab_quad(lambda s: np.exp(-s)), 0.0, INF)
    assert res.converged
    assert abs(float(res.value) - 1.0) < 1e-7


def test_improper_limit_oscillation_is_inconclusive():
    res = improper_limit(lambda p, q: math.cos(p) - math.cos(q), 0.0, INF)
    assert res.status == "inconclusive"


def test_improper_limit_magnitude_divergence():
    res = improper_limit(lambda p, q: q - p, 0.0, INF, diverge=1e6)
    assert res.diverged


def test_slab_failure_is_inconclusive():
    def bad_slab(p, q):
        raise QuadratureFailure("boom")
    res = improper_nonneg(bad_slab, 0.0, INF)
    assert res.status == "inconclusive"
    assert res.evidence["rule"] == "slab-quadrature-failure"
    res = improper_limit(bad_slab, 0.0, INF)
    assert res.status == "inconclusive"


def test_bisect_monotone_decreasing():
    s = bisect_monotone(lambda x: math.exp(-x), 0.3, 0.0, 10.0, increasing=False)
    assert abs(s - math.log(1 / 0.3)) < 1e-10


class TestComponentwiseCertification:
    """Each component of a vector value is certified as if it ran alone."""

    PEAK = staticmethod(lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2))
    PEAK_MASS = (math.atan(70.0) + math.atan(30.0)) / 1e-2

    @pytest.mark.parametrize("first", ["peak", "one"])
    def test_small_component_meets_its_own_tolerance(self, first):
        # [f, 1e-8 f], and [1, 1e-8 f] whose small component alone has the
        # peak: under one shared max-norm tolerance it came out 1.5e-2 off
        f = self.PEAK
        big = f if first == "peak" else np.ones_like
        want = np.array([self.PEAK_MASS if first == "peak" else 1.0,
                         1e-8 * self.PEAK_MASS])
        v, _ = adaptive_quad(lambda x: np.stack([big(x), 1e-8 * f(x)], axis=1),
                             0.0, 1.0, rtol=1e-6, atol=0.0)
        assert np.all(np.abs(v - want) <= 1e-6 * want)

    def test_one_component_vector_runs_as_scalar(self):
        f = self.PEAK
        v, err = adaptive_quad(f, 0.0, 1.0, rtol=1e-9)
        vv, errv = adaptive_quad(lambda x: f(x)[:, None], 0.0, 1.0, rtol=1e-9)
        assert vv.shape == (1,) and vv[0] == v and errv == err

    @staticmethod
    def _power_slab(e):
        # exact integral of r^e over [p, q]
        return lambda p, q: (q ** (e + 1.0) - p ** (e + 1.0)) / (e + 1.0)

    def test_nonneg_batch_equals_scalar_runs(self):
        expos = [-1.5, -3.0, -0.8, -1.1, -2.2]   # -0.8 diverges
        slabs = [self._power_slab(e) for e in expos]
        solo = [improper_nonneg(s, 1.0, INF) for s in slabs]
        both = improper_nonneg(lambda p, q: np.array([s(p, q) for s in slabs]),
                               1.0, INF)
        assert both.converged
        assert [r.status for r in solo] == \
            ["converged", "converged", "diverged", "converged", "converged"]
        for c, r in enumerate(solo):
            assert both.evidence["components"][c] == r.evidence
            assert both.value[c] == (INF if r.diverged else r.value)
        assert both.evidence["rule"] == max(
            solo, key=lambda r: len(r.trace)).evidence["rule"]

    def test_limit_batch_equals_scalar_runs(self):
        slabs = [self._power_slab(-1.5), lambda p, q: math.exp(-p) - math.exp(-q),
                 self._power_slab(-2.5)]
        solo = [improper_limit(s, 1.0, INF) for s in slabs]
        both = improper_limit(lambda p, q: np.array([s(p, q) for s in slabs]), 1.0, INF)
        assert both.converged and all(r.converged for r in solo)
        for c, r in enumerate(solo):
            assert both.evidence["components"][c] == r.evidence
            assert both.value[c] == r.value

    def test_limit_with_divergent_component_diverges(self):
        # a signed vector with a divergent component has no limit
        slabs = [self._power_slab(-1.5), lambda p, q: q - p]
        solo = improper_limit(slabs[1], 1.0, INF, diverge=1e6)
        both = improper_limit(lambda p, q: np.array([s(p, q) for s in slabs]),
                              1.0, INF, diverge=1e6)
        assert solo.diverged and both.diverged and both.value is None
        assert both.evidence["rule"] == "magnitude"
        assert both.evidence["components"][1] == solo.evidence
        assert len(both.trace) == len(solo.trace)

    def test_all_diverged_is_diverged(self):
        res = improper_nonneg(lambda p, q: np.array([q - p, 2.0 * (q - p)]), 1.0, INF)
        assert res.diverged and res.value is None

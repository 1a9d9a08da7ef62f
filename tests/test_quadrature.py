import math
import warnings

import numpy as np
import pytest

import reference_drivers
from idcalc.errors import InconclusiveError, QuadratureFailure
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


@pytest.mark.parametrize("a, b, p0, q0", [
    (0.0, 1.0, None, None), (0.0, 1.0, 0.25, None), (0.0, 1.0, None, 0.75),
    (-2.0, 5.0, 0.25, 0.75), (1.0, INF, None, None), (1.0, INF, 1.5, 4.0),
    (-INF, 0.5, None, None), (-INF, 0.5, -3.0, 0.25), (-INF, INF, None, None),
    (-INF, INF, -3.0, 0.5)])
def test_window_schedule_is_a_cached_tuple_of_the_reference_windows(a, b, p0, q0):
    sched = window_schedule(a, b, 48, p0=p0, q0=q0)
    assert isinstance(sched, tuple) and all(isinstance(w, tuple) for w in sched)
    assert sched == tuple(reference_drivers.window_schedule(a, b, 48, p0=p0, q0=q0))
    assert window_schedule(a, b, 48, p0=p0, q0=q0) is sched


@pytest.mark.parametrize("driver", [improper_nonneg, improper_limit])
@pytest.mark.parametrize("at", [0, 2])
def test_nan_window_ends_the_run(driver, at):
    # one NaN window, then tiny masses: as max(1.0, nan) is 1.0, the NaN would
    # pass the stabilization rule as a certified nan
    nan_q = window_schedule(1.0, INF, 48)[at][1]
    res = driver(lambda p, q: math.nan if q == nan_q else 1e-20, 1.0, INF)
    assert res.status == "inconclusive"
    assert res.evidence == {"rule": "slab-quadrature-failure",
                            "detail": f"NaN slab value at level {at}"}
    assert len(res.trace) == at


@pytest.mark.parametrize("driver", [improper_nonneg, improper_limit])
def test_inf_then_minus_inf_window_ends_the_run(driver):
    # the total inf + -inf is NaN, and max(1.0, nan) is 1.0: the
    # stabilization rule would certify it, and no signed rule reads it
    q0, q1 = (window_schedule(1.0, INF, 48)[n][1] for n in (0, 1))
    res = driver(lambda p, q: {q0: INF, q1: -INF}.get(q, 1e-20), 1.0, INF)
    assert res.status == "inconclusive"
    assert res.evidence == {"rule": "slab-quadrature-failure",
                            "detail": "NaN total at level 1"}
    assert len(res.trace) == 1 and res.value == INF


def test_nan_in_a_decided_component_is_ignored():
    # the first component stabilizes by level 5; a NaN it gets later adds
    # nothing, since a decided component keeps its value
    late_q = window_schedule(1.0, INF, 48)[6][1]

    def slab(p, q):
        return np.array([math.nan if q == late_q else 1e-20, q - p])

    for driver, kw, status in ((improper_nonneg, {}, "converged"),
                               (improper_limit, {"diverge": 1e6}, "diverged")):
        res = driver(slab, 1.0, INF, **kw)
        assert res.status == status and len(res.trace) > 7
        assert res.evidence["rule"] in ("nondecreasing-windows", "magnitude")


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



class TestReaders:
    """Every caller reads a driver result through ``certified`` (a value) or
    ``verdict`` (three-valued), so each outcome must read one way."""

    def test_converged(self):
        res = improper_nonneg(slab_quad(lambda r: r ** -1.5), 1.0, INF)
        assert res.certified("tail") is res.value
        assert abs(float(res.certified("tail")) - 2.0) < 1e-7
        v = res.verdict("tail")
        assert v.is_yes and v.reason == "tail-finite"
        assert v.witness == {"value": float(np.max(res.value))}
        res = improper_limit(slab_quad(lambda s: np.exp(-s)), 0.0, INF)
        assert abs(float(res.certified("mass")) - 1.0) < 1e-7
        v = res.verdict("mass")
        assert v.is_yes and v.reason == "mass-convergent" and v.witness == {}

    def test_nonnegative_divergence_is_infinite(self):
        res = improper_nonneg(slab_quad(lambda r: r ** -1.0), 1.0, INF)
        assert res.diverged and res.nonneg
        assert float(res.certified("tail")) == INF
        v = res.verdict("tail")
        assert v.is_no and v.reason == "tail-divergent" and v.witness == res.evidence

    def test_signed_divergence_raises(self):
        res = improper_limit(lambda p, q: q - p, 0.0, INF, diverge=1e6)
        assert res.diverged and not res.nonneg
        with pytest.raises(InconclusiveError, match="^trace not certified$") as e:
            res.certified("trace")
        assert e.value.evidence == res.evidence and res.evidence["rule"] == "magnitude"
        v = res.verdict("trace")
        assert v.is_no and v.reason == "trace-divergent" and v.witness == res.evidence

    @pytest.mark.parametrize("driver", [improper_nonneg, improper_limit])
    def test_inconclusive_raises_with_evidence(self, driver):
        def bad_slab(p, q):
            raise QuadratureFailure("boom")
        res = driver(bad_slab, 0.0, INF)
        with pytest.raises(InconclusiveError, match="^slab not certified$") as e:
            res.certified("slab")
        assert e.value.evidence == {"rule": "slab-quadrature-failure", "detail": "boom"}
        v = res.verdict("slab")
        assert v.is_unknown and v.reason == "slab-uncertified"
        assert v.witness == e.value.evidence


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
        # a diverged nonnegative integral carries +inf in every component
        res = improper_nonneg(lambda p, q: np.array([q - p, 2.0 * (q - p)]), 1.0, INF)
        assert res.diverged and np.array_equal(res.value, [INF, INF])


class TestBlockEvaluation:
    """The drivers hand a batched slab the windows of several levels in one
    call; every window must come out as it would alone, and every result as
    the level-by-level drivers give it."""

    @staticmethod
    def level_by_level(slab):
        # a plain callable: the drivers evaluate it one window at a time
        return lambda p, q: slab(p, q)

    @staticmethod
    def assert_same(got, want):
        assert got.status == want.status
        assert got.evidence == want.evidence
        if want.value is None:
            assert got.value is None
        else:
            assert np.array_equal(got.value, want.value)
        assert len(got.trace) == len(want.trace)
        for (p1, q1, v1), (p2, q2, v2) in zip(got.trace, want.trace):
            assert (p1, q1) == (p2, q2) and np.array_equal(v1, v2)

    @pytest.mark.parametrize("name, fn, rtol, max_panels", [
        ("smooth", lambda x: np.exp(-x * x), 1e-10, 16384),
        ("peak", lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 1e-11, 16384),
        ("complex", lambda x: np.exp(7j * x) / (1.0 + x * x), 1e-11, 16384),
        ("vector", lambda x: np.stack([np.sin(x), 1e-8 / (1e-3 + (x - 0.7) ** 2),
                                       np.abs(x - 0.2)], axis=1), 1e-9, 16384),
        ("budget", lambda x: np.abs(x - 0.3) ** -0.9, 1e-12, 41),
    ])
    def test_windows_equal_lone_runs(self, name, fn, rtol, max_panels):
        rng = np.random.default_rng(7)
        a = rng.uniform(-2.0, 2.0, 12)
        b = a + rng.exponential(2.0, 12) * rng.choice([1e-3, 1.0, 30.0], 12)
        b[3] = a[3]   # a degenerate window
        solo = []
        for lo, hi in zip(a, b):
            try:
                solo.append(adaptive_quad(fn, lo, hi, rtol=rtol, max_panels=max_panels))
            except QuadratureFailure as e:
                solo.append(str(e))
        failures = [s for s in solo if isinstance(s, str)]
        if failures:
            with pytest.raises(QuadratureFailure) as exc:
                adaptive_quad(fn, a, b, rtol=rtol, max_panels=max_panels)
            assert str(exc.value) == failures[0]
            return
        vals, errs = adaptive_quad(fn, a, b, rtol=rtol, max_panels=max_panels)
        assert vals.shape[0] == errs.shape[0] == len(a)
        for i, (v, e) in enumerate(solo):
            assert np.array_equal(vals[i], v) and errs[i] == e

    # case: (driver, integrand, a, b, options, exit rule); the rule of a
    # vector case is None: its components are decided at different levels
    # or by different rules
    DRIVES = {
        "stabilized": (improper_nonneg, lambda r: np.exp(-r * r), -INF, INF, {},
                       "stabilized"),
        "geometric-tail": (improper_nonneg, lambda r: r ** -1.5, 1.0, INF, {},
                           "geometric-tail"),
        "nonneg-tight": (improper_nonneg, lambda r: r ** -1.0365, 1.0, INF, {},
                         "tight-geometric-extrapolation"),
        "nondecreasing": (improper_nonneg, lambda r: r ** -0.8, 1.0, INF, {},
                          "nondecreasing-windows"),
        "non-vanishing": (improper_nonneg, lambda r: 1.0 / r, 1.0, INF, {},
                          "non-vanishing-windows"),
        "threshold": (improper_nonneg, lambda r: np.exp(r), 0.0, INF, {"blowup": 1e6},
                      "threshold"),
        "nonneg-budget": (improper_nonneg,
                          lambda r: (1.0 + 0.3 * np.sin(2.0 * np.log(r))) * r ** -1.03,
                          1.0, INF, {"levels": 20}, "budget"),
        "nonneg-components": (improper_nonneg, lambda r: np.stack(
            [r ** -1.5, r ** -0.8, np.exp(-r), r ** -1.02], axis=1), 1.0, INF, {}, None),
        "cauchy": (improper_limit, lambda s: np.sin(s) / (1.0 + s * s), -INF, INF, {},
                   "cauchy"),
        "limit-tight": (improper_limit, lambda s: s ** -1.5, 1.0, INF, {},
                        "tight-geometric-extrapolation"),
        "magnitude": (improper_limit, lambda s: np.stack([s ** -1.5, s ** 0.5], axis=1),
                      1.0, INF, {"diverge": 1e6}, "magnitude"),
        "limit-budget": (improper_limit, lambda s: s ** -1.001, 1.0, INF, {"levels": 32},
                         "budget"),
        "limit-components": (improper_limit, lambda s: np.stack(
            [np.exp(-s), s ** -2.5, np.exp(-0.01 * s) + 0j], axis=1), 0.5, INF, {}, None),
        "limit-anchored": (improper_limit, lambda s: 1.0 / (1.0 + s * s), -INF, INF,
                           {"p0": -3.0, "q0": 0.5}, "cauchy"),
    }

    @pytest.mark.parametrize("case", sorted(DRIVES))
    def test_drivers_equal_level_by_level(self, case):
        driver, fn, a, b, kw, rule = self.DRIVES[case]
        slab = slab_quad(fn, rtol=1e-10)
        want = driver(self.level_by_level(slab), a, b, **kw)
        self.assert_same(driver(slab, a, b, **kw), want)
        if rule is None:
            comps = want.evidence["components"]
            assert len({str(c) for c in comps}) == len(comps)
        else:
            # a convergence without a rule label is the Cauchy test's
            assert want.evidence.get("rule", "cauchy") == rule

    # drivers that stop in the middle of their second block of levels:
    # 1/r at level 10, r^0.5 past 1e6 at level 13
    STOPPING = [(improper_nonneg, lambda r: 1.0 / r, {}, 10),
                (improper_limit, lambda r: r ** 0.5, {"diverge": 1e6}, 13)]

    @pytest.mark.parametrize("error", [QuadratureFailure, InconclusiveError])
    @pytest.mark.parametrize("driver, f, kw, stop", STOPPING)
    def test_failures_beyond_the_stopping_level(self, error, driver, f, kw, stop):
        last = window_schedule(1.0, INF, stop)[-1][1]

        def fn(r):
            if np.any(r > last):
                raise error("beyond the stopping level")
            return f(r)

        want = driver(self.level_by_level(slab_quad(f)), 1.0, INF, **kw)
        assert len(want.trace) == stop + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_same(driver(slab_quad(fn), 1.0, INF, **kw), want)

    @pytest.mark.parametrize("reached", [False, True])
    @pytest.mark.parametrize("driver, f, kw, stop", STOPPING)
    def test_warnings_only_from_reached_levels(self, driver, f, kw, stop, reached):
        # the integrand overflows past the last window the driver reaches,
        # or past the one two levels before it
        edge = window_schedule(1.0, INF, stop)[-3 if reached else -1][1]

        def fn(r):
            with np.errstate(over="warn"):
                big = np.exp(r - edge + 700.0)
            return f(r) + 0.0 * np.minimum(big, 1.0)

        runs = []
        for slab in (self.level_by_level(slab_quad(fn)), slab_quad(fn)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runs.append((driver(slab, 1.0, INF, **kw), len(caught)))
        (want, warned), (got, got_warned) = runs
        self.assert_same(got, want)
        assert (got_warned > 0) == (warned > 0) == reached

    def test_fn_calls_per_driver(self):
        # windows on both ends of (0, inf), each slab exact on its first panel
        # band: both tails decay geometrically, so the run takes all 32 levels
        calls = []

        def fn(r):
            calls.append(len(r))
            return 1.0 / (r ** 0.9 + r ** 1.1)

        res = improper_nonneg(slab_quad(fn), 0.0, INF, levels=32)
        assert len(res.trace) == 33 and res.evidence["rule"] == "geometric-tail"
        assert len(calls) <= math.ceil(32 / 8) + 2
        block = len(calls)
        calls.clear()
        improper_nonneg(self.level_by_level(slab_quad(fn)), 0.0, INF, levels=32)
        assert len(calls) >= 64 > block

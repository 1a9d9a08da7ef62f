import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from idcalc.errors import (
    ConditionBViolated,
    ConstantFunctionError,
    InconclusiveError,
    OutOfInterval,
    UnsupportedKernel,
)
from idcalc.kernels import (
    Kernel,
    TauMeasure,
    check_condition_A,
    check_condition_B,
    double_exp_kernel,
    eval_kernel,
    exp_kernel,
    generalized_inverse,
    indicator_kernel,
    kernel_from_tau,
    log_inverse_kernel,
    log_power_kernel,
    power_at_zero_kernel,
    power_tail_kernel,
    sinc_kernel,
    tau_exponential,
    tau_from_atoms,
    tau_gaussian,
    tau_measure,
    tau_of_interval,
)
from idcalc.quadrature import adaptive_quad

INF = math.inf


def _level(f_bot, f_top, inside, below):
    """Leb{f > u} of a decreasing kernel with range (f_bot, f_top), written
    from the kernel's formula: ``below`` under the range, 0 above it."""
    return lambda u: below if u <= f_bot else (0.0 if u >= f_top else inside(u))


def _bisected_level(fn, a, b, f_bot, f_top):
    # Leb{f > u} by root finding on the kernel itself, for kernels whose
    # level sets have no closed form
    def inside(u):
        hi = b if math.isfinite(b) else a + 1.0
        while math.isinf(b) and fn(hi) > u:
            hi = a + 2.0 * (hi - a)
        lo = math.nextafter(a, b) if a else 1e-300   # fn is singular at 0
        return brentq(lambda s: fn(s) - u, lo, hi, xtol=1e-15, rtol=1e-15) - a
    return _level(f_bot, f_top, inside, b - a)


# built-in decreasing kernels with independent level functions Leb{f > u}
BUILTIN_DECREASING = [
    (exp_kernel, _level(0.0, 1.0, lambda u: math.log(1 / u), INF)),
    (lambda: exp_kernel(2.5), _level(0.0, 1.0, lambda u: math.log(1 / u) / 2.5, INF)),
    (log_inverse_kernel, _level(0.0, INF, lambda u: math.exp(-u), 1.0)),
    (lambda: power_tail_kernel(0.5), _level(0.0, 1.0, lambda u: u ** -0.5 - 1, INF)),
    (lambda: power_tail_kernel(1.5), _level(0.0, 1.0, lambda u: u ** -1.5 - 1, INF)),
    (lambda: power_at_zero_kernel(0.8), _level(1.0, INF, lambda u: u ** -1.25, 1.0)),
    (lambda: power_at_zero_kernel(0.3, 3.0),
     _level(3.0 ** -0.3, INF, lambda u: u ** (-1 / 0.3), 3.0)),
    (double_exp_kernel,
     _level(0.0, 1 / math.e, lambda u: math.log(math.log(1 / u)), INF)),
    (lambda: log_power_kernel(1.5),
     _bisected_level(lambda s: 1 / (s * math.log(s) ** 1.5), math.e, INF, 0.0, 1 / math.e)),
    (lambda: log_power_kernel(2.0, at_zero=True),
     _bisected_level(lambda s: 1 / (s * math.log(1 / s) ** 2), 0.0, math.exp(-2.0),
                     math.exp(2.0) / 4.0, INF)),
    (lambda: indicator_kernel(2.0, 0.0, 3.0), lambda u: 3.0 if u < 2.0 else 0.0),
    (lambda: indicator_kernel(-1.5, 1.0, 2.0), lambda u: 1.0 if u < -1.5 else 0.0),
]


BUILTIN_IDS = ["exp", "exp-2.5", "log_inv", "power-0.5", "power-1.5", "power_at_zero-0.8",
               "power_at_zero-0.3-b3", "double_exp", "log_power-1.5", "log_power_zero-2",
               "indicator-2", "indicator-neg"]

# levels below and above every range, and out to infinite ends
EDGES = [-INF, -1.0, 0.0, 0.05, 0.2, 1 / math.e, 0.5, 0.9, 1.0, 2.0, 3.0, INF]


def _assert_masses_match(k, level, edges):
    # tau((u1, u2]) = Leb{f > u1} - Leb{f > u2} (0 when both are infinite),
    # through both the measure and tau_of_interval
    tau = tau_measure(k)
    for i, u1 in enumerate(edges):
        for u2 in edges[i + 1:]:
            l1, l2 = level(u1), level(u2)
            want = pytest.approx(0.0 if l1 == l2 else l1 - l2, rel=1e-10, abs=1e-12)
            assert tau.mass(u1, u2) == want, (u1, u2)
            assert tau_of_interval(k, u1, u2) == want, (u1, u2)


class TestEval:
    def test_values(self):
        assert eval_kernel(exp_kernel(), 0.5) == pytest.approx(math.exp(-0.5))
        assert eval_kernel(log_inverse_kernel(), 1 / math.e) == pytest.approx(1.0)
        assert eval_kernel(sinc_kernel(), math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_out_of_interval(self):
        with pytest.raises(OutOfInterval):
            eval_kernel(log_inverse_kernel(), 1.5)
        with pytest.raises(OutOfInterval):
            eval_kernel(exp_kernel(), 0.0)


class TestTauOfInterval:
    def test_log_inverse_upper_sets(self):
        k = log_inverse_kernel()
        for u in (0.2, 1.0, 2.5):
            assert tau_of_interval(k, u, INF) == pytest.approx(math.exp(-u))

    def test_constant_kernel_atom(self):
        k = indicator_kernel(1.0, 0.0, 2.5)
        assert tau_of_interval(k, 0.5, 1.5) == pytest.approx(2.5)
        assert tau_of_interval(k, 1.5, 2.5) == 0.0

    def test_exp_kernel_windows(self):
        k = exp_kernel()
        for u in (0.1, 0.5, 0.9):
            assert tau_of_interval(k, u, 1.0) == pytest.approx(math.log(1 / u))

    def test_numeric_bracketing_matches_closed_form(self):
        # strip the closed-form hook and force the monotone numeric path
        k = exp_kernel()
        bare = Kernel("exp-bare", k.a, k.b, k.fn, monotone_decreasing=True,
                      nonnegative=True)
        for (u1, u2) in [(0.1, 0.4), (0.2, 0.9)]:
            want = math.log(u2 / u1)
            assert tau_of_interval(bare, u1, u2) == pytest.approx(want, abs=1e-11)

    def test_non_monotone_is_inconclusive(self):
        bare_sinc = Kernel("sinc-bare", 0.0, INF,
                           lambda s: np.sin(s) / s)
        with pytest.raises(InconclusiveError):
            tau_of_interval(bare_sinc, 0.1, 0.2)

    @pytest.mark.parametrize("kfn, level", BUILTIN_DECREASING, ids=BUILTIN_IDS)
    def test_masses_match_independent_levels(self, kfn, level):
        _assert_masses_match(kfn(), level, EDGES)

    @pytest.mark.parametrize("kfn, level", BUILTIN_DECREASING, ids=BUILTIN_IDS)
    def test_bare_masses_match_independent_levels(self, kfn, level):
        # the same kernels from their values alone: the range comes from the
        # sampled endpoint limits and the levels from the crossing search,
        # also at levels near an infimum of 0
        k = kfn()
        bare = Kernel(f"{k.name}-bare", k.a, k.b, k.fn, monotone_decreasing=True,
                      nonnegative=k.nonnegative)
        _assert_masses_match(bare, level, sorted(EDGES + [1e-12, 1e-6]))

    def test_power_approach_to_zero_reaches_its_infimum(self):
        # 1/(1+s) tends to 0 like a power: the sampled infimum must be 0,
        # not the last of finitely many samples, so far-out levels keep their
        # mass Leb{f > u} = 1/u - 1
        k = Kernel("inv", 0.0, INF, lambda s: 1.0 / (1.0 + s),
                   monotone_decreasing=True, nonnegative=True)
        assert tau_of_interval(k, 1e-20, 1e-15) == pytest.approx(1e20 - 1e15, rel=1e-9)

    def test_slow_divergence_is_an_infinite_end(self):
        # -ndtri(s) runs off like sqrt(2 log(1/s)) at 0 and 1: its steps
        # shrink, but not at a steady ratio, so the range is the whole line
        probit = Kernel("probit", 0.0, 1.0, lambda s: -ndtri(s), monotone_decreasing=True)
        tau = tau_measure(probit)
        assert (tau.a_prime, tau.b_prime) == (-INF, INF)
        assert tau_of_interval(probit, -1.0, 1.0) == pytest.approx(ndtr(1.0) - ndtr(-1.0),
                                                                   rel=1e-12)

    def test_crossing_at_zero_ends_next_to_zero(self):
        # f = -s on (-1, 1) crosses the level 0 at s = 0: the crossing search
        # stops at the float next to 0 instead of halving toward it
        calls = []
        k = Kernel("line", -1.0, 1.0, lambda s: calls.append(s) or -np.asarray(s),
                   monotone_decreasing=True)
        tau = tau_measure(k)
        calls.clear()
        assert tau.mass(-0.5, 0.0) == 0.5
        assert len(calls) < 60

    def test_flat_stretch_at_the_infimum(self):
        # f = max(1 - s, 0) is 0 on [1, 2): an atom of mass 1 at inf f = 0
        ramp = Kernel("ramp", 0.0, 2.0, lambda s: np.maximum(1.0 - s, 0.0),
                      monotone_decreasing=True, nonnegative=True)
        tau = tau_measure(ramp)
        for (u1, u2, want) in [(-1.0, 0.0, 1.0), (0.0, 0.5, 0.5), (-INF, -1.0, 0.0),
                               (-1.0, 0.5, 1.5), (-INF, INF, 2.0), (0.5, 3.0, 0.5)]:
            assert tau_of_interval(ramp, u1, u2) == pytest.approx(want, abs=1e-12)
            assert tau.mass(u1, u2) == pytest.approx(want, abs=1e-12)
        with pytest.raises(InconclusiveError):
            tau.total_nonzero()
        # on (0, inf) the flat stretch is unbounded
        long_ramp = Kernel("ramp", 0.0, INF, lambda s: np.maximum(1.0 - s, 0.0),
                           monotone_decreasing=True, nonnegative=True)
        assert tau_of_interval(long_ramp, -1.0, 0.0) == INF
        assert tau_of_interval(long_ramp, 0.0, 0.5) == pytest.approx(0.5, abs=1e-12)


class TestTauMeasure:
    def test_exp_kernel_density(self):
        tau = tau_measure(exp_kernel())
        assert tau.mass(0.2, 0.5) == pytest.approx(math.log(0.5 / 0.2))
        assert tau.total_nonzero() == INF

    def test_log_inverse_is_exponential(self):
        tau = tau_measure(log_inverse_kernel())
        for (u1, u2) in [(0.0, 1.0), (0.5, 2.0)]:
            want = math.exp(-u1) - math.exp(-u2)
            assert tau.mass(u1, u2) == pytest.approx(want)

    def test_transfer_identity(self):
        # int h d(tau) equals int h(f(s)) ds for several test functions
        cases = [exp_kernel(), log_inverse_kernel(), power_tail_kernel(1.5),
                 double_exp_kernel()]
        hs = [lambda u: np.minimum(u * u, 1.0), lambda u: u * u,
              lambda u: np.abs(u)]
        for k in cases:
            tau = tau_measure(k)
            for h in hs:
                lhs = tau.moment(h)
                if not math.isfinite(lhs):
                    continue
                from idcalc.quadrature import improper_nonneg, slab_quad
                res = improper_nonneg(
                    slab_quad(lambda s: h(k(s)), rtol=1e-11), k.a, k.b)
                assert res.converged
                assert lhs == pytest.approx(float(np.max(res.value)), rel=1e-8)

    def test_indicator_atom(self):
        tau = tau_measure(indicator_kernel(0.0 + 2.0, 0.0, 3.0))
        assert tau.atoms == [(2.0, 3.0)]

    def test_constant_zero_kernel_atom_at_zero(self):
        tau = TauMeasure(atoms=[(0.0, 1.0)])
        assert tau.total_nonzero() == 0.0
        assert tau.atom_mass_at(0.0) == 1.0

    def test_black_box_unsupported(self):
        with pytest.raises(UnsupportedKernel):
            tau_measure(sinc_kernel())

    @pytest.mark.parametrize("level_upper", [None, lambda u: INF if u < 1.0 else 0.0],
                             ids=["numeric", "level_upper"])
    def test_bare_kernel_on_the_whole_line(self, level_upper):
        # f(s) = Phi(-s) on (-inf, inf): Leb{f > u} is infinite for every u
        # in the range, yet every interval mass ndtri(u2) - ndtri(u1) is
        # finite, with or without a closed-form level function
        k = Kernel("gauss-tail", -INF, INF, lambda s: ndtr(-s),
                   monotone_decreasing=True, nonnegative=True,
                   level_upper=level_upper)
        tau = tau_measure(k)
        for (u1, u2) in [(0.1, 0.4), (0.2, 0.9), (0.5, 0.6)]:
            want = pytest.approx(float(ndtri(u2) - ndtri(u1)), abs=1e-10)
            assert tau.mass(u1, u2) == want
            assert tau_of_interval(k, u1, u2) == want
        assert tau.mass(-1.0, 0.0) == 0.0 and tau.mass(1.0, 2.0) == 0.0
        assert tau.mass(0.3, INF) == INF and tau.mass(-INF, 0.3) == INF

    def test_bare_exp_kernel_reaches_its_infimum(self):
        # the sampled infimum of exp(-s) must be 0 (an underflow), not the
        # first tiny sample: levels far below 1 are inside the range
        k = Kernel("bare-exp", 0.0, INF, lambda s: np.exp(-s),
                   monotone_decreasing=True, nonnegative=True)
        tau = tau_measure(k)
        assert tau.a_prime == 0.0
        for (u1, u2) in [(1e-30, 1e-20), (1e-300, 1e-3), (0.2, 0.7)]:
            want = pytest.approx(math.log(u2 / u1), rel=1e-10)
            assert tau.mass(u1, u2) == want
            assert tau_of_interval(k, u1, u2) == want
        # f never reaches 0, though it underflows to it: no atom there, nor
        # at 3 for 3 + exp(-s), whose tail rounds to 3
        assert tau.mass(-1.0, 0.0) == 0.0 and tau.mass(-1.0, 1e-20) == INF
        shifted = Kernel("shifted-exp", 0.0, INF, lambda s: 3.0 + np.exp(-s),
                         monotone_decreasing=True, nonnegative=True)
        assert tau_of_interval(shifted, 2.0, 3.0) == 0.0
        assert tau_of_interval(shifted, 3.5, 3.9) == pytest.approx(math.log(9.0 / 5.0))

    def test_built_once_per_kernel(self):
        k = kernel_from_tau(tau_exponential())
        assert tau_measure(k) is tau_measure(k)
        assert tau_measure(exp_kernel()) is not tau_measure(exp_kernel())


class TestGeneralizedInverse:
    def test_identity(self):
        F = generalized_inverse(lambda u: u, 0.0, 1.0)
        for s in (0.1, 0.4, 0.9):
            assert F(s) == pytest.approx(s, abs=1e-11)

    def test_step_function(self):
        G = lambda u: 0.0 if u < 0.5 else 1.0
        F = generalized_inverse(G, 0.0, 1.0)
        for s in (0.05, 0.5, 0.95):
            assert F(s) == pytest.approx(0.5, abs=1e-11)

    def test_constant_rejected(self):
        with pytest.raises(ConstantFunctionError):
            generalized_inverse(lambda u: 1.0, 0.0, 1.0)

    def test_reinversion_identity(self):
        # G(u) = inf{s : F(s) > u} at sampled points
        G = lambda u: u ** 3
        F = generalized_inverse(G, 0.0, 1.0)
        for u in np.linspace(0.05, 0.95, 100):
            s_star = u ** 3
            # smallest s with F(s) > u
            eps = 1e-9
            assert F(min(s_star + eps, 0.999999)) > u - 1e-8
            if s_star - eps > 0:
                assert F(s_star - eps) <= u + 1e-8

    def test_monotone_right_continuous_output(self):
        G = lambda u: math.floor(3 * u) / 3.0 + u / 10.0
        F = generalized_inverse(G, 0.0, 1.0)
        ss = np.linspace(F.A + 1e-6, F.B - 1e-6, 100)
        vals = [F(s) for s in ss]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_transfer_identity_indicators(self):
        # int 1_(A', v] dG = G(v) - A = Leb{s : F(s) <= v}
        G = lambda u: u * u
        F = generalized_inverse(G, 0.0, 1.0)
        for v in (0.2, 0.5, 0.8):
            lhs = G(v) - F.A
            # measure of {s in (A, B): F(s) <= v} by fine sampling bisection
            from idcalc.quadrature import bisect_monotone
            s_v = bisect_monotone(lambda s: F(s), v, F.A + 1e-15, F.B - 1e-15,
                                  increasing=True, tol=1e-13)
            assert lhs == pytest.approx(s_v - F.A, abs=1e-10)


class TestConditionA:
    @pytest.mark.parametrize("kfn", [exp_kernel, log_inverse_kernel,
                                     double_exp_kernel,
                                     lambda: power_tail_kernel(1.0),
                                     lambda: power_at_zero_kernel(0.8),
                                     lambda: log_power_kernel(1.5)])
    def test_builtin_decreasing_kernels_pass(self, kfn):
        ok, witness = check_condition_A(kfn())
        assert ok, witness

    def test_constant_fails(self):
        k = Kernel("const", 0.0, 1.0, lambda s: np.ones_like(s),
                   monotone_decreasing=True)
        ok, witness = check_condition_A(k)
        assert not ok and witness["clause"] == "constant"

    def test_increasing_fails(self):
        k = Kernel("inc", 0.0, 1.0, lambda s: s)
        ok, witness = check_condition_A(k)
        assert not ok and witness["clause"] == "not-decreasing"

    def test_supremum_attained_fails(self):
        k = Kernel("flat-top", 0.0, 2.0, lambda s: np.minimum(1.0, 2.0 - s),
                   monotone_decreasing=True)
        ok, witness = check_condition_A(k)
        assert not ok and witness["clause"] == "attains-supremum"

    def test_sinc_fails(self):
        ok, witness = check_condition_A(sinc_kernel())
        assert not ok and witness["clause"] == "not-decreasing"


class TestConditionB:
    def test_exponential_passes(self):
        ok, _ = check_condition_B(tau_exponential())
        assert ok

    def test_gaussian_passes(self):
        ok, _ = check_condition_B(tau_gaussian())
        assert ok

    def test_single_atom_degenerate(self):
        ok, witness = check_condition_B(tau_from_atoms([(1.0, 2.0)]))
        assert not ok and witness["clause"] == "support-degenerate"

    def test_atom_at_finite_upper_end(self):
        tau = TauMeasure(atoms=[(2.0, 1.0)],
                         density=lambda u: np.ones_like(u),
                         density_support=(0.0, 2.0), support=(0.0, 2.0))
        ok, witness = check_condition_B(tau)
        assert not ok and witness["clause"] == "atom-at-upper-end"

    def test_atom_at_finite_lower_end(self):
        tau = TauMeasure(atoms=[(0.0, 1.0)],
                         density=lambda u: np.ones_like(u),
                         density_support=(0.0, 2.0), support=(0.0, 2.0))
        ok, witness = check_condition_B(tau)
        assert not ok and witness["clause"] == "atom-at-lower-end"


class TestKernelFromTau:
    def test_exponential_roundtrip(self):
        tau = tau_exponential()
        k = kernel_from_tau(tau)
        rng = np.random.default_rng(0)
        for _ in range(100):
            u1, u2 = np.sort(rng.uniform(0.01, 4.0, size=2))
            if u2 - u1 < 1e-3:
                u2 = u1 + 1e-3
            assert tau_of_interval(k, u1, u2) == pytest.approx(
                tau.mass(u1, u2), abs=1e-10)

    def test_gaussian_roundtrip(self):
        tau = tau_gaussian()
        k = kernel_from_tau(tau)
        rng = np.random.default_rng(1)
        for _ in range(100):
            u1, u2 = np.sort(rng.uniform(-2.5, 2.5, size=2))
            if u2 - u1 < 1e-3:
                u2 = u1 + 1e-3
            assert tau_of_interval(k, u1, u2) == pytest.approx(
                tau.mass(u1, u2), abs=1e-10)

    def test_reconstruction_satisfies_condition_A(self):
        for tau in (tau_exponential(), tau_gaussian()):
            ok, witness = check_condition_A(kernel_from_tau(tau))
            assert ok, witness

    def test_interval_is_minus_the_range_of_the_centered_mass(self):
        # (a, b) = (-sup G, -inf G) for the mass G centered at c: c = 1/2 for
        # the exponential measure, c = 0 for the Gaussian
        e = math.exp(-0.5)
        a, b = kernel_from_tau(tau_exponential()).interval()
        assert a == pytest.approx(-e, abs=1e-15) and b == pytest.approx(1.0 - e, abs=1e-15)
        a, b = kernel_from_tau(tau_gaussian()).interval()
        assert a == pytest.approx(-0.5, abs=1e-15) and b == pytest.approx(0.5, abs=1e-15)

    def test_reconstruction_range_is_the_support(self):
        # the range of f = F(-s) is the support of tau, not a sampled guess
        for tau, support in ((tau_exponential(), (0.0, INF)),
                             (tau_gaussian(), (-INF, INF))):
            tm = tau_measure(kernel_from_tau(tau))
            assert (tm.a_prime, tm.b_prime) == support

    def test_exponential_kernel_is_log_reciprocal_shifted(self):
        # the decreasing rearrangement of the exponential occupation measure
        # is log(1/s) up to an interval shift
        k = kernel_from_tau(tau_exponential())
        span = k.b - k.a
        assert span == pytest.approx(1.0)  # total occupation mass
        mid = k.a + 0.25 * span
        val = eval_kernel(k, mid)
        assert val == pytest.approx(math.log(1.0 / 0.25), abs=1e-9)

    def test_tau_measure_of_reconstruction_matches_source(self):
        for tau, pts in ((tau_exponential(), [(0.1, 0.7), (0.5, 2.0)]),
                         (tau_gaussian(), [(-1.0, 0.3), (0.2, 1.8)])):
            k = kernel_from_tau(tau)
            tm = tau_measure(k)
            for (u1, u2) in pts:
                assert tm.mass(u1, u2) == pytest.approx(tau.mass(u1, u2),
                                                        abs=1e-9)

    def test_power_tail_tau_roundtrip(self):
        tau = tau_measure(power_tail_kernel(1.5))
        k = kernel_from_tau(tau)
        for (u1, u2) in [(0.05, 0.3), (0.2, 0.8), (0.5, 0.95)]:
            assert tau_of_interval(k, u1, u2) == pytest.approx(
                tau.mass(u1, u2), rel=1e-9)

    def test_double_exp_tau_roundtrip_keeps_the_infinite_end(self):
        # the centered mass of tau(double_exp) falls like -log(log(1/u)) at 0:
        # its steps shrink ever more slowly, a divergence, not a last sample
        tau = tau_measure(double_exp_kernel())
        k = kernel_from_tau(tau)
        assert k.interval()[1] == INF
        for (u1, u2) in [(1e-12, 1e-6), (0.05, 0.3)]:
            assert tau_of_interval(k, u1, u2) == pytest.approx(tau.mass(u1, u2), rel=1e-9)

    def test_condition_b_violation_raises(self):
        tau = TauMeasure(atoms=[(2.0, 1.0)],
                         density=lambda u: np.ones_like(u),
                         density_support=(0.0, 2.0), support=(0.0, 2.0))
        with pytest.raises(ConditionBViolated):
            kernel_from_tau(tau)

    def test_condition_A_implies_condition_B(self):
        # every built-in satisfying the decreasing-kernel clauses has an
        # occupation measure satisfying the realizability clauses
        for kfn in (exp_kernel, log_inverse_kernel, double_exp_kernel,
                    lambda: power_tail_kernel(1.2),
                    lambda: power_at_zero_kernel(0.7)):
            k = kfn()
            ok_a, _ = check_condition_A(k)
            assert ok_a
            ok_b, witness = check_condition_B(tau_measure(k))
            assert ok_b, witness


class TestWindowHooks:
    @pytest.mark.parametrize("kfn,p,q", [
        (exp_kernel, 0.1, 3.0),
        (log_inverse_kernel, 0.05, 0.9),
        (lambda: power_tail_kernel(1.5), 1.2, 9.0),
        (lambda: power_at_zero_kernel(0.8), 0.01, 0.9),
        (sinc_kernel, 0.5, 20.0),
        (lambda: log_power_kernel(1.5), 3.0, 50.0),
    ])
    def test_closed_window_integrals_match_quadrature(self, kfn, p, q):
        k = kfn()
        if k.window_integral is not None:
            got = k.window_integral(p, q)
            want, _ = adaptive_quad(lambda s: k(s), p, q, rtol=1e-12)
            assert got == pytest.approx(float(want), rel=1e-9)
        if k.window_square is not None:
            got = k.window_square(p, q)
            want, _ = adaptive_quad(lambda s: k(s) ** 2, p, q, rtol=1e-12)
            assert got == pytest.approx(float(want), rel=1e-9)

    def test_level_upper_matches_bracketing(self):
        for kfn in (exp_kernel, log_inverse_kernel,
                    lambda: power_tail_kernel(1.5),
                    lambda: power_at_zero_kernel(0.8)):
            k = kfn()
            bare = Kernel("bare", k.a, k.b, k.fn, monotone_decreasing=True,
                          nonnegative=True)
            for u in (0.15, 0.45, 0.85):
                closed = k.level_upper(u)
                numeric = tau_of_interval(bare, u, INF)
                if math.isinf(closed):
                    assert math.isinf(numeric)
                else:
                    assert closed == pytest.approx(numeric, abs=1e-9)


@pytest.mark.parametrize("make_tau, lo, hi", [
    (tau_exponential, 0.01, 4.0),
    (tau_gaussian, -3.0, 3.0),
    (lambda: tau_measure(power_tail_kernel(1.5)), 0.01, 0.99),
    (lambda: tau_measure(double_exp_kernel()), 1e-6, 0.36),
])
def test_kernel_from_tau_reads_its_levels_off_the_centered_mass(make_tau, lo, hi):
    # Leb{f > u} = B - G(u) exactly, so the rebuilt occupation measure is tau
    # up to the rounding of the subtractions
    tau = make_tau()
    tm = tau_measure(kernel_from_tau(tau))
    rng = np.random.default_rng(7)
    for u1, u2 in np.sort(rng.uniform(lo, hi, (40, 2)), axis=1):
        want = tau.mass(float(u1), float(u2))
        assert abs(tm.mass(float(u1), float(u2)) - want) <= 1e-15 * max(1.0, want)


@pytest.mark.parametrize("ratio, want", [(0.5, 1.0 - 0.5 ** 4), (0.98, INF)])
def test_end_limit_reads_the_steps_of_few_samples(ratio, want):
    # an end past 2^1019 leaves four samples, too few steps for a tight
    # tail: the 0.97 rule keeps the last sample, or the limit runs off.  The
    # steps are the samples' differences (each sample less itself once gave
    # zero steps and a ZeroDivisionError)
    from idcalc.kernels import _end_limit

    def g(s):
        return 1.0 - ratio ** (math.log2(s) - 1019.0)
    assert _end_limit(g, 2.0 ** 1019, INF, "upper") == (want, False)

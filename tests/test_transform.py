import math

import numpy as np
import pytest

import idcalc as ic
from idcalc.errors import (
    ConsistencyAlarm,
    InconclusiveError,
    NotABLaw,
    NotDefinable,
    NotInDomain,
)
from idcalc.kernels import (
    Kernel,
    exp_kernel,
    indicator_kernel,
    kernel_from_tau,
    power_at_zero_kernel,
    power_tail_kernel,
    sinc_kernel,
    tau_from_atoms,
    tau_measure,
)
from idcalc.transform import (
    LocationMode,
    absolutely_definable,
    base_exponent_scaled,
    compensated_verdict,
    definable_verdict,
    direct_exponent,
    essential_conditions,
    locally_integrable,
    phi,
    phi_ab,
    phi_c,
    phi_es,
    phi_sym,
    psi,
    window_triplet,
)
from idcalc.verdicts import Truth

from corpus import corpus_pairs, corpus_triplets

INF = math.inf


def sym_atoms(r=1.0, m=0.7):
    return ic.AtomicMeasure([[r], [-r]], [m, m])


class TestLocallyIntegrable:
    def test_bounded_kernel_compact_window(self):
        v = locally_integrable(exp_kernel(), ic.Triplet(1.0, None, [0.0]),
                               0.5, 2.0)
        assert v.is_yes

    def test_blowup_inside_interval_is_fine_on_compacts(self):
        k = Kernel("inv-sin", 0.0, math.pi, lambda s: 1.0 / np.sin(s))
        v = locally_integrable(k, ic.Triplet(1.0, None, [0.0]), 0.1, 3.0)
        assert v.is_yes

    def test_blowup_kernel_gaussian_finite_window(self):
        # compact windows away from the blow-up stay integrable even though
        # the improper transform fails on the square mass
        k = power_at_zero_kernel(1.0)
        t = ic.Triplet(1.0, None, [0.0])
        assert locally_integrable(k, t, 0.01, 0.9).is_yes
        with pytest.raises(NotDefinable):
            phi_es(k, t)

    def test_jump_clause(self):
        k = power_at_zero_kernel(1.0)
        t = ic.Triplet(0.0, sym_atoms(), [0.0])
        v = locally_integrable(k, t, 0.01, 0.9)
        assert v.is_yes


class TestWindowTriplet:
    def test_constant_kernel(self):
        k = indicator_kernel(2.0, 0.0, 3.0)
        nu = ic.AtomicMeasure([[1.0]], [1.0])
        t = ic.Triplet(0.5, nu, [0.3])
        w = window_triplet(k, t, 0.5, 2.0)
        np.testing.assert_allclose(w.A, 4.0 * 1.5 * 0.5)
        # atom pushforward: mass 1.5 at x = 2
        got = w.nu.integral(lambda x: np.ones(x.shape[0]), 1.9, 2.1)
        assert got == pytest.approx(1.5, rel=1e-12)

    def test_exp_gaussian_variance(self):
        k = exp_kernel()
        t = ic.Triplet(1.0, None, [0.0])
        w = window_triplet(k, t, 0.0001, 5.0)
        want = (math.exp(-0.0002) - math.exp(-10.0)) / 2.0
        assert w.A[0, 0] == pytest.approx(want, rel=1e-12)

    def test_cumulant_consistency(self):
        # triplet of the window integral reproduces the window exponent
        k = exp_kernel()
        nu = ic.AtomicMeasure([[1.0], [-0.5]], [1.0, 2.0])
        t = ic.Triplet(0.3, nu, [0.2])
        w = window_triplet(k, t, 0.2, 2.5)
        for z in (0.4, 1.3):
            lhs = ic.cumulant(w, np.array([z]))
            rhs = direct_exponent(k, t, np.array([z]), p=0.2, q=2.5)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_window_additivity(self):
        rng = np.random.default_rng(3)
        kernels = [exp_kernel(), power_tail_kernel(1.5), sinc_kernel()]
        triplets = [ic.Triplet(0.7, None, [0.4]),
                    ic.Triplet(0.2, sym_atoms(0.8, 1.1), [-0.3]),
                    ic.Triplet(0.0, ic.StableMeasure(1.2, [[1.0]], [1.0]), [0.1])]
        clip = lambda x: np.minimum((x * x).sum(axis=1), 1.0)
        for _ in range(10):
            k = kernels[rng.integers(len(kernels))]
            t = triplets[rng.integers(len(triplets))]
            base = 1.0 if not math.isfinite(k.b) else (k.a + k.b) / 4
            p = base + rng.uniform(0.05, 0.5)
            q = p + rng.uniform(0.2, 1.5)
            r = q + rng.uniform(0.2, 1.5)
            w1 = window_triplet(k, t, p, q)
            w2 = window_triplet(k, t, q, r)
            w3 = window_triplet(k, t, p, r)
            np.testing.assert_allclose(w1.A + w2.A, w3.A, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(w1.gamma + w2.gamma, w3.gamma,
                                       rtol=1e-8, atol=1e-9)
            if not t.nu.is_zero():
                lhs = w1.nu.integral(clip) + w2.nu.integral(clip)
                rhs = w3.nu.integral(clip)
                assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


class TestPhi:
    def test_exp_gaussian_halves_variance(self):
        res = phi(exp_kernel(), ic.Triplet(1.0, None, [0.0]))
        assert res.triplet.A[0, 0] == pytest.approx(0.5, abs=1e-10)
        np.testing.assert_allclose(res.triplet.gamma, [0.0], atol=1e-10)
        assert res.location_mode is LocationMode.FIXED

    def test_sinc_point_mass_location(self):
        g = 0.7
        res = phi(sinc_kernel(), ic.dirac([g]))
        assert res.triplet.gamma[0] == pytest.approx(math.pi / 2 * g, abs=1e-6)

    def test_sinc_symmetric_jumps_nonzero_location(self):
        t = ic.Triplet(0.0, sym_atoms(), [0.5])
        res = phi(sinc_kernel(), t)
        assert res.triplet.gamma[0] == pytest.approx(math.pi / 4, abs=1e-6)

    def test_power_tail_needs_tail_moment(self):
        k = power_tail_kernel(1.5)
        t = ic.Triplet(0.0, ic.StableMeasure(0.5, [[1.0], [-1.0]], [0.5, 0.5]),
                       [0.0])
        with pytest.raises(NotDefinable):
            phi(k, t)

    def test_heavier_index_passes(self):
        k = power_tail_kernel(0.5)
        t = ic.Triplet(0.0, ic.StableMeasure(1.5, [[1.0], [-1.0]], [0.5, 0.5]),
                       [0.0])
        res = phi(k, t)
        np.testing.assert_allclose(res.triplet.gamma, [0.0], atol=1e-8)

    def test_nonzero_mean_blocks_plain_transform(self):
        k = power_tail_kernel(1.5)
        t = ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]), [0.0])
        with pytest.raises(NotDefinable) as ei:
            phi(k, t)
        assert "mean" in str(ei.value)

    def test_trace_recorded(self):
        res = phi(exp_kernel(), ic.dirac([1.0]))
        trace = res.diagnostics["trace"]
        assert len(trace) > 3
        ps = [p for p, _, _ in trace]
        assert all(p2 <= p1 for p1, p2 in zip(ps, ps[1:]))


class TestPhiVariants:
    def test_phi_es_free_location(self):
        res = phi_es(exp_kernel(), ic.Triplet(1.0, None, [5.0]))
        assert res.location_mode is LocationMode.FREE
        np.testing.assert_allclose(res.triplet.gamma, [0.0])

    def test_phi_es_trivial_domain(self):
        k = power_tail_kernel(3.0)
        with pytest.raises(NotDefinable):
            phi_es(k, ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]), [0.0]))
        res = phi_es(k, ic.dirac([2.0]))
        assert res.location_mode is LocationMode.FREE

    def test_phi_sym_triplet(self):
        res = phi_sym(exp_kernel(), ic.Triplet(1.0, None, [5.0]))
        np.testing.assert_allclose(res.triplet.A, [[1.0]])
        np.testing.assert_allclose(res.triplet.gamma, [0.0])

    def test_phi_sym_measure_symmetric(self):
        nu = ic.AtomicMeasure([[1.0]], [2.0])
        res = phi_sym(exp_kernel(), ic.Triplet(0.0, nu, [0.7]))
        out = res.triplet.nu
        h_pos = lambda x: ((x[:, 0] > 0) & (np.abs(x[:, 0]) > 0.5)).astype(float)
        h_neg = lambda x: ((x[:, 0] < 0) & (np.abs(x[:, 0]) > 0.5)).astype(float)
        assert out.integral(h_pos) == pytest.approx(out.integral(h_neg), rel=1e-9)

    def test_phi_c_family_when_kernel_mass_nonzero(self):
        res = phi_c(exp_kernel(), ic.Triplet(1.0, None, [2.0]))
        assert res.location_mode is LocationMode.COMPENSATED_FAMILY

    def test_phi_c_unique_when_kernel_mass_diverges(self):
        k = power_tail_kernel(1.5)
        t = ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]), [0.0])
        res = phi_c(k, t)
        assert res.location_mode is LocationMode.COMPENSATED_UNIQUE
        # a unique compensated law with finite first moment is centered
        assert abs(res.diagnostics["mean"][0]) < 1e-6

    def test_phi_c_strictly_larger_than_phi(self):
        k = power_tail_kernel(1.5)
        t = ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]), [0.0])
        with pytest.raises(NotDefinable):
            phi(k, t)
        assert compensated_verdict(k, t).is_yes

    def test_phi_c_unique_when_kernel_mass_vanishes(self):
        # odd step kernel: int f = 0 over symmetric windows
        k = Kernel("odd-step", -1.0, 1.0,
                   lambda s: np.where(s < 0, 1.0, -1.0))
        t = ic.Triplet(0.0, sym_atoms(), [0.9])
        res = phi_c(k, t)
        assert res.location_mode is LocationMode.COMPENSATED_UNIQUE
        np.testing.assert_allclose(res.triplet.gamma, [0.0], atol=1e-7)


class TestAbsolutelyDefinable:
    def test_point_mass_with_integrable_kernel(self):
        assert absolutely_definable(exp_kernel(), ic.dirac([1.0])).is_yes

    def test_point_mass_with_conditionally_integrable_kernel(self):
        v = absolutely_definable(sinc_kernel(), ic.dirac([1.0]))
        assert v.is_no

    def test_symmetric_collapse(self):
        k = power_tail_kernel(0.5)
        t = ic.Triplet(0.0, ic.StableMeasure(1.5, [[1.0], [-1.0]], [0.5, 0.5]),
                       [0.0])
        v = absolutely_definable(k, t)
        assert v.is_yes


class TestPhiAB:
    def test_exp_kernel_preserves_drift(self):
        nu = ic.AtomicMeasure([[1.0]], [1.0])
        t = ic.Triplet(0.0, nu, [0.5 + 0.3])  # drift 0.3
        res = phi_ab(exp_kernel(), t)
        np.testing.assert_allclose(res.diagnostics["drift"], [0.3], atol=1e-8)
        # consistency with the plain transform
        res2 = phi(exp_kernel(), t)
        np.testing.assert_allclose(res.triplet.gamma, res2.triplet.gamma,
                                   atol=1e-7)

    def test_zero_drift_definable_despite_oscillation(self):
        k = Kernel("sin", 0.0, INF, lambda s: np.sin(s),
                   window_integral=lambda p, q: math.cos(p) - math.cos(q))
        res = phi_ab(k, ic.dirac([0.0]))
        np.testing.assert_allclose(res.diagnostics["drift"], [0.0])

    def test_divergent_kernel_mass_with_drift_fails(self):
        k = power_at_zero_kernel(1.0)
        nu = ic.AtomicMeasure([[1.0]], [1.0])
        t = ic.Triplet(0.0, nu, [0.5 + 0.2])
        with pytest.raises(NotDefinable):
            phi_ab(k, t)

    def test_type_c_rejected(self):
        with pytest.raises(NotABLaw):
            phi_ab(exp_kernel(), ic.Triplet(1.0, None, [0.0]))

    @staticmethod
    def _identity_defect(k, t, zs=(-2.0, 0.5, 1.3, 2.4)):
        res = phi_ab(k, t)
        return max(abs(ic.cumulant(res.triplet, np.array([z]))
                       - direct_exponent(k, t, np.array([z]))) for z in zs)

    def test_blowup_kernel_one_sided_stable(self):
        # the location correction mixes the stable moment vector over scales
        # up to f = s^-0.8 -> inf; per-scale radial drivers left it 1.5e-3 off
        t = ic.Triplet(0.0, ic.StableMeasure(0.6, [[1.0]], [1.0]), [0.2])
        assert self._identity_defect(power_at_zero_kernel(0.8), t) < 1e-5

    def test_exp_kernel_one_sided_stable(self):
        # was an InconclusiveError: the signed radial driver of the smallest
        # scales did not stabilize
        t = ic.Triplet(0.0, ic.StableMeasure(0.6, [[1.0]], [1.0]), [0.1])
        assert self._identity_defect(exp_kernel(), t) < 1e-8


class TestPsi:
    def test_atom_times_atom(self):
        tau = tau_from_atoms([(2.0, 1.5)])
        nu = ic.AtomicMeasure([[3.0]], [1.0])
        out = psi(tau, nu)
        got = out.integral(lambda x: np.ones(x.shape[0]), 5.9, 6.1)
        assert got == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_stable_shrinks_by_index(self, alpha):
        s = ic.StableMeasure(alpha, [[1.0]], [1.0])
        out = psi(exp_kernel(), s)
        ones = lambda x: np.ones(x.shape[0])
        got = out.integral(ones, 1.0, INF)
        want = s.integral(ones, 1.0, INF) / alpha
        assert got == pytest.approx(want, rel=1e-8)

    def test_unit_index_out_of_domain(self):
        with pytest.raises(NotInDomain):
            psi(power_tail_kernel(1.0), ic.StableMeasure(1.0, [[1.0]], [1.0]))

    def test_matches_essential_transform_measure(self):
        k = exp_kernel()
        nu = ic.AtomicMeasure([[1.0], [-0.5]], [1.0, 2.0])
        out = psi(k, nu)
        res = phi_es(k, ic.Triplet(0.0, nu, [0.0]))
        clip = lambda x: np.minimum((x * x).sum(axis=1), 1.0)
        assert out.integral(clip) == pytest.approx(
            res.triplet.nu.integral(clip), rel=1e-6)
        tail = lambda x: np.ones(x.shape[0])
        assert out.integral(tail, 0.5, INF) == pytest.approx(
            res.triplet.nu.integral(tail, 0.5, INF), rel=1e-6)

    def test_tau_route_matches_kernel_route(self):
        k = exp_kernel()
        tau = tau_measure(k)
        nu = ic.AtomicMeasure([[1.0], [2.0]], [1.0, 0.5])
        via_kernel = psi(k, nu)
        via_tau = psi(tau, nu)
        clip = lambda x: np.minimum((x * x).sum(axis=1), 1.0)
        assert via_kernel.integral(clip) == pytest.approx(
            via_tau.integral(clip), rel=1e-7)


class TestCumulantIdentity:
    CASES = [
        (exp_kernel(), ic.Triplet(1.0, None, [0.3])),
        (exp_kernel(), ic.Triplet(0.0, ic.AtomicMeasure(
            [[1.0], [-0.5]], [1.0, 2.0]), [0.2])),
        (exp_kernel(), ic.Triplet(0.5, ic.StableMeasure(
            1.5, [[1.0], [-1.0]], [0.5, 0.5]), [0.0])),
        (indicator_kernel(2.0, 0.0, 1.0), ic.Triplet(
            0.0, ic.gamma_measure(1.0, 2.0, [1.0]), [0.1])),
        (sinc_kernel(), ic.dirac([0.9])),
        (power_tail_kernel(0.5), ic.Triplet(0.0, ic.StableMeasure(
            1.5, [[1.0], [-1.0]], [1.0, 1.0]), [0.0])),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_transform_exponent_matches_direct_route(self, case):
        k, t = self.CASES[case]
        res = phi(k, t)
        for z in (0.3, 1.0, 2.2):
            lhs = ic.cumulant(res.triplet, np.array([z]))
            rhs = direct_exponent(k, t, np.array([z]))
            assert lhs == pytest.approx(rhs, abs=1e-5)


class TestDomainChain:
    def _verdicts(self, k, t):
        return {
            "absolute": absolutely_definable(k, t),
            "plain": definable_verdict(k, t),
            "compensated": compensated_verdict(k, t),
            "essential": essential_conditions(k, t),
        }

    def test_chain_monotone_on_corpus(self):
        order = ["absolute", "plain", "compensated", "essential"]
        for k, t in corpus_pairs():
            vs = self._verdicts(k, t)
            seq = [vs[name].truth for name in order]
            for i in range(len(seq)):
                for j in range(i + 1, len(seq)):
                    if seq[i] is Truth.YES and seq[j] is Truth.NO:
                        pytest.fail(f"chain violated for {k.name}: "
                                    f"{[s.value for s in seq]}")

    def test_symmetric_collapse_on_corpus(self):
        for k, t in corpus_pairs():
            if not t.is_symmetric():
                continue
            vs = self._verdicts(k, t)
            determined = {name: v.truth for name, v in vs.items()
                          if not v.is_unknown}
            assert len(set(determined.values())) <= 1, (
                k.name, {n: v.value for n, v in determined.items()})


class TestOccupationDeterminacy:
    """Two kernels with the same occupation measure share the absolute and
    essential domains and the transform values on absolute-domain members
    (while the plain domain may differ; the oscillatory kernel fixtures in
    TestPhi show that side)."""

    def test_rearranged_kernel_matches(self):
        k1 = exp_kernel()
        k2 = kernel_from_tau(tau_measure(k1), name="exp-rearranged")
        laws = [ic.dirac([0.7]),
                ic.Triplet(0.0, sym_atoms(0.8, 1.0), [0.0]),
                ic.Triplet(0.0, ic.StableMeasure(1.2, [[1.0], [-1.0]],
                                                 [0.5, 0.5]), [0.0]),
                ic.Triplet(0.0, ic.StableMeasure(0.6, [[1.0], [-1.0]],
                                                 [0.5, 0.5]), [0.2])]
        for t in laws:
            a1 = absolutely_definable(k1, t, use_rules=False)
            a2 = absolutely_definable(k2, t, use_rules=False)
            e1 = essential_conditions(k1, t, use_rules=False)
            e2 = essential_conditions(k2, t, use_rules=False)
            assert a1.truth is a2.truth, (a1.reason, a2.reason)
            assert e1.truth is e2.truth, (e1.reason, e2.reason)

    def test_transform_values_agree_on_absolute_member(self):
        k1 = exp_kernel()
        k2 = kernel_from_tau(tau_measure(k1), name="exp-rearranged")
        t = ic.Triplet(0.0, sym_atoms(0.8, 1.0), [0.4])
        r1, r2 = phi(k1, t), phi(k2, t)
        for z in (0.5, 1.5):
            c1 = ic.cumulant(r1.triplet, np.array([z]))
            c2 = ic.cumulant(r2.triplet, np.array([z]))
            assert c1 == pytest.approx(c2, abs=1e-6)


def test_exponent_scaling_consistency(stable_exponent_oracle):
    # the scaled base exponent equals the exponent at a scaled argument
    s = ic.StableMeasure(0.8, [[1.0]], [1.0])
    t = ic.Triplet(0.0, s, [0.3])
    for u in (1.0, 0.5, -0.7):
        got = complex(base_exponent_scaled(t, np.array([1.3]), np.array([u]))[0])
        want = stable_exponent_oracle(0.8, u * 1.3) + 1j * 0.3 * u * 1.3
        assert got == pytest.approx(want, abs=1e-8)


class TestRuleLookup:
    @staticmethod
    def _count_rules(monkeypatch):
        import idcalc.domains as domains
        original = domains.domain_rule_verdicts
        calls = []

        def counted(k, t):
            calls.append(1)
            return original(k, t)
        monkeypatch.setattr(domains, "domain_rule_verdicts", counted)
        return calls

    @pytest.mark.parametrize("op", [phi, phi_c, phi_es, phi_sym,
                                    definable_verdict, compensated_verdict,
                                    essential_conditions, absolutely_definable])
    def test_rules_evaluated_at_most_once_per_call(self, monkeypatch, op):
        calls = self._count_rules(monkeypatch)
        op(exp_kernel(), ic.Triplet(1.0, None, [0.3]))
        assert len(calls) == 1

    def test_numeric_route_skips_rules(self, monkeypatch):
        calls = self._count_rules(monkeypatch)
        t = ic.Triplet(1.0, None, [0.3])
        compensated_verdict(exp_kernel(), t, use_rules=False)
        definable_verdict(exp_kernel(), t, use_rules=False)
        assert calls == []

    def test_rule_bug_propagates(self, monkeypatch):
        import idcalc.domains as domains

        def broken(k, t):
            raise TypeError("bug in a domain rule")
        monkeypatch.setattr(domains, "domain_rule_verdicts", broken)
        with pytest.raises(TypeError):
            phi(exp_kernel(), ic.Triplet(1.0, None, [0.3]))


def test_compensated_verdict_runs_essential_numerics_once(monkeypatch):
    import idcalc.transform as transform
    calls = []
    original = transform._jump_condition

    def counted(k, t):
        calls.append(1)
        return original(k, t)
    monkeypatch.setattr(transform, "_jump_condition", counted)
    t = ic.Triplet(0.0, ic.AtomicMeasure([[1.0], [-0.5]], [2.0, 1.0]), [0.2])
    assert compensated_verdict(exp_kernel(), t, use_rules=False).is_yes
    assert len(calls) == 1


class TestCompensatedPowerTail:
    """phi_c under power_tail(1.5), whose kernel mass diverges, on the laws
    whose location trace is too short for the affine fit."""

    @pytest.mark.parametrize("i,theta", [(0, [0.0]), (1, [0.7]), (2, [0.3])])
    def test_jumpless_law_splits_exactly(self, i, theta):
        res = phi_c(power_tail_kernel(1.5), corpus_triplets()[i])
        assert res.location_mode is LocationMode.COMPENSATED_UNIQUE
        np.testing.assert_array_equal(res.triplet.gamma, [0.0])
        assert res.diagnostics["theta"] == theta

    @pytest.mark.parametrize("i", [4, 7])
    def test_short_trace_is_inconclusive(self, i):
        with pytest.raises(InconclusiveError, match="too short"):
            phi_c(power_tail_kernel(1.5), corpus_triplets()[i])

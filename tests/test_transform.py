import json
import math

import numpy as np
import pytest

import idcalc as ic
from idcalc.cli import _verdict_json, run
from idcalc.domains import domain_rule_verdicts
from idcalc.errors import (
    NotABLaw,
    NotDefinable,
    NotInDomain,
)
from idcalc.kernels import (
    Kernel,
    exp_kernel,
    indicator_kernel,
    kernel_from_tau,
    log_inverse_kernel,
    power_at_zero_kernel,
    power_tail_kernel,
    sinc_kernel,
    tau_from_atoms,
    tau_measure,
)
from idcalc.quadrature import improper_nonneg
from idcalc.transform import (
    LocationMode,
    PushforwardMeasure,
    absolutely_definable,
    base_exponent_scaled,
    compensated_verdict,
    definable_verdict,
    direct_exponent,
    domain_verdicts,
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



def _via(route, kernel):
    """What psi takes on each route: the kernel, or its occupation measure."""
    return kernel if route == "kernel" else tau_measure(kernel)


class TestOneMixingDriver:
    """A mixture functional makes one mixing driver call for all its scales
    or radii, which is what makes iterated transforms affordable."""

    STABLE = ic.StableMeasure(1.5, [[1.0]], [1.0])

    @pytest.mark.parametrize("route", ["kernel", "tau"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_one_driver_call(self, monkeypatch, route, n):
        import idcalc.transform as transform
        out = psi(_via(route, exp_kernel()), self.STABLE)
        calls = []

        def counting(*a, **kw):
            calls.append(1)
            return improper_nonneg(*a, **kw)
        monkeypatch.setattr(transform, "improper_nonneg", counting)
        xs = np.linspace(0.5, 4.0, n)
        for fn in (out.tail_mass, out.clip2_scaled):
            calls.clear()
            vals = fn(xs)
            assert len(calls) == 1 and vals.shape == (n,)
            # each component is the functional at that scale or radius alone
            np.testing.assert_allclose(vals, [fn([x])[0] for x in xs], rtol=1e-8)

    @pytest.mark.parametrize("route", ["kernel", "tau"])
    def test_stable_shrinks_twice(self, route):
        # psi(exp) divides a stable measure by its index, so twice by alpha^2
        s, a2 = self.STABLE, self.STABLE.alpha ** 2
        out = psi(_via(route, exp_kernel()),
                  psi(_via(route, exp_kernel()), s))
        us, rs = np.array([1.0, 0.3]), np.array([1.0, 2.0])
        np.testing.assert_allclose(out.clip2_scaled(us), s.clip2_scaled(us) / a2,
                                   rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(out.tail_mass(rs), s.tail_mass(rs) / a2,
                                   rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("nu", [STABLE, ic.gamma_measure(1.0, 1.0, [1.0])],
                             ids=["stable1.5", "gamma"])
    def test_transforms_commute(self, nu):
        e, li = tau_measure(exp_kernel()), tau_measure(log_inverse_kernel())
        ab, ba = psi(e, psi(li, nu)), psi(li, psi(e, nu))
        us, rs = np.array([1.0, 0.5]), np.array([1.0, 2.0])
        np.testing.assert_allclose(ab.clip2_scaled(us), ba.clip2_scaled(us), rtol=1e-9)
        np.testing.assert_allclose(ab.tail_mass(rs), ba.tail_mass(rs), rtol=1e-9)

    @pytest.mark.parametrize("route", ["kernel", "tau"])
    def test_infinite_clipped_first_moment(self, route):
        # stable 1.5 has no clipped first moment at any nonzero scale; the
        # exact rule answers without mixing inf - inf
        out = psi(_via(route, exp_kernel()), self.STABLE)
        assert out.clip1_scaled([1.0, 0.0, 2.0]).tolist() == [INF, 0.0, INF]


class TestMixtureCentering:
    """The centering of a scale mixture, checked by the identity
    C(u z) = C_u(z) + i u <c(u), z> between its own functionals."""

    ATOMS = ic.AtomicMeasure([[1.0], [-0.4]], [1.0, 0.5])

    @staticmethod
    def defect(nu, u=2.0, z=np.array([0.7])):
        lhs = nu.cumulant_scaled(u * z, [1.0])[0]
        rhs = nu.cumulant_scaled(z, [u])[0] + 1j * u * (nu.centering_scaled([u])[0] @ z)
        return abs(lhs - rhs)

    def test_window_pushforward(self):
        out = PushforwardMeasure(exp_kernel(), ic.AtomicMeasure([[1.0]], [1.0]), 0.1, 2.0)
        # c(2) = int x (1/(1+4|x|^2) - 1/(1+|x|^2)) over the pushed atom
        want = (out.vector_weighted(lambda r: 1.0 / (1.0 + 4.0 * r * r))
                - out.vector_weighted(lambda r: 1.0 / (1.0 + r * r)))
        np.testing.assert_allclose(out.centering_scaled([2.0])[0], want, rtol=1e-10)
        assert self.defect(PushforwardMeasure(exp_kernel(), self.ATOMS, 0.1, 2.0)) < 1e-12

    @pytest.mark.parametrize("route", ["kernel", "tau"])
    @pytest.mark.parametrize("nu", [ATOMS, ic.gamma_measure(1.0, 1.0, [1.0])],
                             ids=["atoms", "gamma"])
    def test_psi_routes(self, route, nu):
        assert self.defect(psi(_via(route, exp_kernel()), nu)) < 1e-9


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
        return domain_verdicts(k, t)

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


class TestDomainPass:
    WRAPPERS = {"absolute": absolutely_definable, "plain": definable_verdict,
                "compensated": compensated_verdict, "essential": essential_conditions}
    ATOMS = ic.Triplet(0.0, ic.AtomicMeasure([[1.0], [-0.5]], [2.0, 1.0]), [0.2])

    @pytest.mark.parametrize("use_rules", [True, False])
    def test_pass_equals_wrappers_on_corpus(self, use_rules):
        for k, t in corpus_pairs():
            vs = domain_verdicts(k, t, use_rules=use_rules)
            assert list(vs) == list(self.WRAPPERS)
            for name, fn in self.WRAPPERS.items():
                v = fn(k, t, use_rules=use_rules)
                assert (vs[name].truth, vs[name].reason) == (v.truth, v.reason), (
                    k.name, name, use_rules)

    @staticmethod
    def _count(monkeypatch):
        import idcalc.domains as domains
        import idcalc.transform as transform
        calls = {"rules": 0, "jump": 0}

        def counting(key, fn):
            def counted(k, t):
                calls[key] += 1
                return fn(k, t)
            return counted
        monkeypatch.setattr(domains, "domain_rule_verdicts",
                            counting("rules", domains.domain_rule_verdicts))
        monkeypatch.setattr(transform, "_jump_condition",
                            counting("jump", transform._jump_condition))
        return calls

    @pytest.mark.parametrize("use_rules,lookups", [(True, 1), (False, 0)])
    def test_one_lookup_and_one_run_of_the_numerics(self, monkeypatch, use_rules,
                                                    lookups):
        calls = self._count(monkeypatch)
        vs = domain_verdicts(exp_kernel(), self.ATOMS, use_rules=use_rules)
        assert all(v.is_yes for v in vs.values())
        assert calls == {"rules": lookups, "jump": 1}

    def test_determined_rules_skip_the_numerics(self, monkeypatch):
        k, t = exp_kernel(), self.ATOMS
        rules = domain_rule_verdicts(k, t)
        calls = self._count(monkeypatch)
        vs = domain_verdicts(k, t, ("plain", "compensated"))
        assert vs == {name: rules[name] for name in ("plain", "compensated")}
        assert calls == {"rules": 1, "jump": 0}

    def test_cli_domain_reports_the_pass_rule_table(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"type": "power", "alpha": 1.5}))
        want = {key: _verdict_json(v) for key, v in
                domain_rule_verdicts(power_tail_kernel(1.5), self.ATOMS).items()}
        calls = self._count(monkeypatch)
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps({"dim": 1, "A": 0.0, "gamma": [0.2], "nu": {
            "type": "atomic", "atoms": [{"x": [1.0], "mass": 2.0},
                                        {"x": [-0.5], "mass": 1.0}]}}))
        assert run(["--out", str(tmp_path), "domain", "--kernel", str(path),
                    "--dist", str(dist)]) == 0
        results = json.loads((tmp_path / "report.json").read_text())["results"]
        assert results["closed_form_rules"] == want
        assert calls["rules"] == 1 and calls["jump"] <= 1

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            domain_verdicts(exp_kernel(), ic.dirac([0.3]), ("plain", "bounded"))


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
    def test_symmetric_law_splits_exactly(self, i):
        # symmetric jumps add nothing to the window locations gamma F_pq
        res = phi_c(power_tail_kernel(1.5), corpus_triplets()[i])
        assert res.location_mode is LocationMode.COMPENSATED_UNIQUE
        np.testing.assert_array_equal(res.triplet.gamma, [0.0])
        assert res.diagnostics["theta"] == [0.0]
        assert res.diagnostics["mean"] == [0.0]

import math

import numpy as np
import pytest

import idcalc as ic
from idcalc.domains import (
    LargenessClass,
    classify_largeness,
    cone_largeness,
    cone_support,
    domain_rule_verdicts,
    kernel_profile,
    largeness_conditions,
    psi_largeness,
    radial_moment,
    tail_power_moment_verdict,
)
from idcalc.errors import InconclusiveError, NonnegativeRequired, UnsupportedTag
from idcalc.kernels import (
    double_exp_kernel,
    exp_kernel,
    indicator_kernel,
    log_inverse_kernel,
    log_power_kernel,
    power_at_zero_kernel,
    power_tail_kernel,
    sinc_kernel,
)
from idcalc.transform import absolutely_definable, essential_conditions
from idcalc.verdicts import Truth

INF = math.inf


def sym_stable(alpha, w=0.5):
    return ic.StableMeasure(alpha, [[1.0], [-1.0]], [w, w])


class TestDomainRules:
    def test_untagged_kernel_unsupported(self):
        with pytest.raises(UnsupportedTag):
            domain_rule_verdicts(sinc_kernel(), ic.dirac([0.0]))

    @pytest.mark.parametrize("a", [0.3, 0.7, 1.1, 1.5, 1.9])
    @pytest.mark.parametrize("ap", [0.3, 0.7, 1.1, 1.5, 1.9])
    def test_power_tail_vs_stable(self, a, ap):
        k = power_tail_kernel(a)
        t = ic.Triplet(0.0, sym_stable(ap), [0.0])
        v = domain_rule_verdicts(k, t)["essential"]
        assert v.truth is (Truth.YES if a < ap else Truth.NO)

    def test_exp_tail_needs_log_moment(self):
        k = exp_kernel()
        # compactly supported jumps always qualify
        t = ic.Triplet(0.0, ic.AtomicMeasure([[2.0], [-1.0]], [1.0, 1.0]), [0.0])
        vs = domain_rule_verdicts(k, t)
        assert all(v.is_yes for v in vs.values())
        # atoms at exp(exp(n)) with summable masses break the log moment
        pts = [[math.exp(math.exp(n))] for n in range(1, 5)]
        ms = [1.0 / n ** 2 for n in range(1, 5)]
        heavy = ic.Triplet(0.0, ic.AtomicMeasure(pts, ms), [0.0])
        # finite atom count keeps every moment finite; the rule must still
        # say yes (the genuine counterexamples need infinitely many atoms)
        assert domain_rule_verdicts(k, heavy)["essential"].is_yes

    def test_double_exp_rule(self):
        k = double_exp_kernel()
        t = ic.Triplet(0.0, sym_stable(1.0), [0.0])
        # any stable tail has finite loglog moment
        assert domain_rule_verdicts(k, t)["essential"].is_yes

    def test_log_power_tail_rule(self):
        k = log_power_kernel(1.5)
        # stable(1.0): int_{|x|>2} |x| (log|x|)^-1.5 nu = int r^-1 (log r)^-1.5: finite
        t = ic.Triplet(0.0, sym_stable(1.0), [0.0])
        vs = domain_rule_verdicts(k, t)
        assert vs["essential"].is_yes
        assert vs["plain"].is_unknown  # only strictness is known here
        # stable(0.9): int r^0.1 (log r)^-1.5 / r: diverges
        t2 = ic.Triplet(0.0, sym_stable(0.9), [0.0])
        assert domain_rule_verdicts(k, t2)["essential"].is_no

    def test_power_at_zero_small_exponent_is_universal(self):
        k = power_at_zero_kernel(0.4)
        t = ic.Triplet(1.0, sym_stable(1.9), [3.0])
        vs = domain_rule_verdicts(k, t)
        assert all(v.is_yes for v in vs.values())

    def test_power_at_zero_excludes_gaussian(self):
        k = power_at_zero_kernel(0.8)
        t = ic.Triplet(1.0, None, [0.0])
        assert domain_rule_verdicts(k, t)["essential"].is_no

    def test_power_at_zero_half_needs_log_moment(self):
        k = power_at_zero_kernel(0.5)
        t = ic.Triplet(0.0, sym_stable(1.5), [0.0])
        # int_{|x|<1} |x|^2 log(1/|x|) r^-2.5: converges
        assert domain_rule_verdicts(k, t)["essential"].is_yes

    def test_power_at_zero_strict_gap(self):
        # exponent above one: drift must vanish for the plain transform
        k = power_at_zero_kernel(1.25)   # alpha = 1.2
        nu = ic.AtomicMeasure([[0.5]], [1.0])
        drifty = ic.Triplet(0.0, nu, [0.9])
        vs = domain_rule_verdicts(k, drifty)
        assert vs["essential"].is_yes
        assert vs["compensated"].is_yes
        assert vs["plain"].is_no
        # drift-free version passes everywhere
        import idcalc.idlaw as idl
        g = idl.drift(ic.Triplet(0.0, nu, [0.0]))
        centered = ic.Triplet(0.0, nu, -g + np.array([0.0]))
        assert domain_rule_verdicts(k, centered)["plain"].is_yes

    def test_borderline_index_uses_compensation_conditions(self):
        k = power_tail_kernel(1.0)
        # symmetric jumps: the tail first-moment vector vanishes
        t = ic.Triplet(0.0, ic.AtomicMeasure([[2.0], [-2.0]], [1.0, 1.0]), [0.0])
        vs = domain_rule_verdicts(k, t)
        assert vs["compensated"].is_yes and vs["plain"].is_yes \
            and vs["absolute"].is_yes
        # nonzero mean blocks the plain and absolute domains
        t2 = ic.Triplet(0.0, ic.AtomicMeasure([[2.0], [-2.0]], [1.0, 1.0]), [0.4])
        vs2 = domain_rule_verdicts(k, t2)
        assert vs2["compensated"].is_yes and vs2["plain"].is_no

    def test_rule_agrees_with_numeric_on_corpus(self):
        from corpus import corpus_pairs
        names = ["absolute", "essential"]
        checked = 0
        for k, t in corpus_pairs():
            if k.tag is None:
                continue
            rules = domain_rule_verdicts(k, t)
            numeric = {
                "absolute": absolutely_definable(k, t, use_rules=False),
                "essential": essential_conditions(k, t, use_rules=False),
            }
            for n in names:
                r, m = rules[n], numeric[n]
                if r.is_unknown or m.is_unknown:
                    continue
                assert r.truth is m.truth, (k.name, type(t.nu).__name__, n,
                                            r.reason, m.reason)
                checked += 1
        assert checked >= 50

    def test_dual_rule_symmetry(self):
        # verdicts of the blow-up-at-zero rule on a law match the tail rule
        # on its dual, for purely non-Gaussian laws
        alphas = [0.6, 1.4]
        nus = [ic.AtomicMeasure([[0.5], [2.0]], [1.0, 0.7]),
               sym_stable(1.2)]
        for al in alphas:
            k_zero = power_at_zero_kernel(1.0 / (2.0 - al))
            k_tail = power_tail_kernel(al)
            for nu in nus:
                for gamma in (0.0, 0.4):
                    t = ic.Triplet(0.0, nu, [gamma])
                    td = ic.dual(t)
                    vs1 = domain_rule_verdicts(k_zero, t)
                    vs2 = domain_rule_verdicts(k_tail, td)
                    for name in ("absolute", "plain", "compensated",
                                 "essential"):
                        a, b = vs1[name], vs2[name]
                        if a.is_unknown or b.is_unknown:
                            continue
                        assert a.truth is b.truth, (al, name, gamma,
                                                    a.reason, b.reason)


class TestStableRadialMoment:
    @staticmethod
    def _unconverged_driver(monkeypatch):
        import idcalc.domains as domains
        from idcalc.quadrature import ImproperResult
        monkeypatch.setattr(domains, "improper_nonneg",
                            lambda *a, **kw: ImproperResult("inconclusive", None))

    def test_unconverged_value_raises(self, monkeypatch):
        self._unconverged_driver(monkeypatch)
        with pytest.raises(InconclusiveError):
            radial_moment(sym_stable(1.5), lambda r: r, 1.0, INF, stable_power=1.0)

    def test_unconverged_value_is_unknown_verdict(self, monkeypatch):
        self._unconverged_driver(monkeypatch)
        assert tail_power_moment_verdict(sym_stable(1.5), 1.0).is_unknown

    def test_converged_value(self):
        # int_1^inf r r^(-2.5) dr = 2, per unit weight
        v = radial_moment(sym_stable(1.5), lambda r: r, 1.0, INF, stable_power=1.0)
        assert v == pytest.approx(2.0, rel=1e-9)


class TestKernelProfile:
    def test_indicator_profile(self):
        prof = kernel_profile(indicator_kernel(1.0, 0.0, 1.0))
        assert prof.indicator_mass == 1.0
        assert prof.square_mass == 1.0
        assert all(v == 0.0 for v in prof.h_of_r.values())

    def test_power_at_zero_unit_exponent_profile(self):
        prof = kernel_profile(power_at_zero_kernel(1.0))
        r = 0.01
        assert prof.k_of_r[min(prof.k_of_r, key=lambda x: abs(x - r))] \
            == pytest.approx(1.0 / r - 1.0, rel=1e-6)
        assert prof.abs_mass == INF
        assert prof.square_mass == INF

    def test_power_tail_clipped_square_divergence(self):
        prof = kernel_profile(power_tail_kernel(2.0))
        assert prof.clipped_square == INF
        prof = kernel_profile(power_tail_kernel(3.0))
        assert prof.clipped_square == INF

    def test_numeric_profile_matches_hooks(self):
        k = exp_kernel()
        from idcalc.kernels import Kernel
        bare = Kernel("exp-bare", k.a, k.b, k.fn, monotone_decreasing=True,
                      nonnegative=True)
        p1 = kernel_profile(k)
        p2 = kernel_profile(bare)
        assert p2.abs_mass == pytest.approx(p1.abs_mass, rel=1e-7)
        assert p2.square_mass == pytest.approx(p1.square_mass, rel=1e-7)
        assert not p2.certified


class TestLargeness:
    @pytest.mark.parametrize("kfn,want", [
        (lambda: indicator_kernel(1.0, 0.0, 1.0), LargenessClass.ALL_ID),
        (lambda: power_at_zero_kernel(0.75), LargenessClass.AB_PRESERVING),
        (lambda: power_at_zero_kernel(1.0), LargenessClass.AB_INTO_ESSENTIAL),
        (lambda: power_tail_kernel(2.0), LargenessClass.TRIVIAL_ESSENTIAL),
        (lambda: power_tail_kernel(3.0), LargenessClass.TRIVIAL_ESSENTIAL),
        (log_inverse_kernel, LargenessClass.ALL_ID),
        (exp_kernel, LargenessClass.NONE),
        (sinc_kernel, LargenessClass.NONE),
    ])
    def test_classifier_fixtures(self, kfn, want):
        cls, info = classify_largeness(kfn())
        assert cls is want, info["evidence"]

    def test_evidence_holds_no_alias_keys(self):
        # every evidence key is a condition some class or label reads
        ev, _ = largeness_conditions(power_at_zero_kernel(0.75))
        assert "ab-into-absolute" not in ev
        assert {c.value for c in LargenessClass} - {"none"} <= set(ev)
        assert ev["ab-preserving"].is_yes

    def test_implication_chain_never_violated(self):
        # the implied weaker classes of the chosen class must not test false
        imples = {
            LargenessClass.ALL_ID: ["ab-preserving", "ab-into-essential"],
            LargenessClass.AB_PRESERVING: ["ab-into-essential"],
        }
        for kfn in (lambda: indicator_kernel(1.0, 0.0, 1.0),
                    log_inverse_kernel,
                    lambda: power_at_zero_kernel(0.75)):
            k = kfn()
            cls, info = classify_largeness(k)
            ev = info["evidence"]
            for weaker in imples.get(cls, []):
                assert not ev[weaker].is_no, (cls, weaker, ev[weaker])

    def test_universal_certificate(self):
        # the small-exponent blow-up kernel accepts every corpus law,
        # including Gaussian and heavy-tailed stable ones
        from idcalc.transform import phi
        k = power_at_zero_kernel(0.4)
        cls, _ = classify_largeness(k)
        assert cls is LargenessClass.ALL_ID
        for t in (ic.Triplet(1.0, None, [0.5]),
                  ic.Triplet(0.0, sym_stable(0.4), [0.0]),
                  ic.Triplet(0.5, sym_stable(1.9), [0.0])):
            assert absolutely_definable(k, t).is_yes
            phi(k, t)  # must not raise

    def test_trivial_essential_certificate(self):
        from idcalc.errors import NotDefinable
        from idcalc.transform import phi_es
        k = power_tail_kernel(2.5)
        cls, _ = classify_largeness(k)
        assert cls is LargenessClass.TRIVIAL_ESSENTIAL
        for t in (ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]), [0.0]),
                  ic.Triplet(1.0, None, [0.0]),
                  ic.Triplet(0.0, sym_stable(1.5), [0.0])):
            with pytest.raises(NotDefinable):
                phi_es(k, t)
        res = phi_es(k, ic.dirac([3.0]))
        assert res.triplet.nu.is_zero()


class TestCones:
    def test_gaussian_part_excluded(self):
        ok, witness = cone_support(ic.Triplet(1.0, None, [1.0]), [1.0])
        assert not ok and witness["clause"] == "needs-finite-variation"

    def test_positive_atoms_and_drift(self):
        nu = ic.AtomicMeasure([[1.0], [2.0]], [1.0, 1.0])
        corr = float(nu.vector_weighted(lambda r: 1.0 / (1.0 + r * r))[0])
        t = ic.Triplet(0.0, nu, [corr + 0.5])  # drift 0.5
        ok, witness = cone_support(t, [1.0])
        assert ok
        t2 = ic.Triplet(0.0, nu, [corr - 0.1])  # drift -0.1
        ok2, witness2 = cone_support(t2, [1.0])
        assert not ok2 and witness2["clause"] == "drift-outside"

    def test_two_dimensional_orthant(self):
        nu = ic.AtomicMeasure([[1.0, 2.0], [0.5, 0.0]], [1.0, 1.0])
        corr = nu.vector_weighted(lambda r: 1.0 / (1.0 + r * r))
        t = ic.Triplet(np.zeros((2, 2)), nu, np.asarray(corr) + [0.1, 0.2])
        ok, _ = cone_support(t, [1.0, 1.0])
        assert ok
        ok2, w2 = cone_support(t, [1.0, -1.0])
        assert not ok2 and w2["clause"] == "jump-support-outside"

    def test_cone_largeness_requires_nonnegative(self):
        with pytest.raises(NonnegativeRequired):
            cone_largeness(sinc_kernel())

    def test_cone_largeness_labels(self):
        # integrable with finite support mass: preserving
        label, _ = cone_largeness(log_inverse_kernel())
        assert label == "preserving"
        # exponential kernel: infinite support mass disqualifies even the
        # essential cover despite its profile bounds
        label, ev = cone_largeness(exp_kernel())
        assert label == "none"
        assert ev["essential-cover"].is_no
        # blow-up at zero of unit order: only the essential cover
        label, _ = cone_largeness(power_at_zero_kernel(1.0))
        assert label == "essential-cover"


class TestPsiLargeness:
    def test_labels(self):
        label, _ = psi_largeness(indicator_kernel(1.0, 0.0, 1.0))
        assert label == "all-levy-measures"
        label, _ = psi_largeness(power_at_zero_kernel(1.0))
        assert label == "finite-variation-covered"
        label, _ = psi_largeness(power_tail_kernel(2.0))
        assert label == "trivial-zero"
        label, _ = psi_largeness(log_inverse_kernel())
        assert label == "all-levy-measures"

    def test_trivial_zero_consistent_with_membership(self):
        from idcalc.errors import NotInDomain
        from idcalc.transform import psi
        k = power_tail_kernel(2.0)
        with pytest.raises(NotInDomain):
            psi(k, ic.AtomicMeasure([[1.0]], [1.0]))

"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line; run with
``pytest -s tests/test_acceptance.py`` to see the lines as they complete.
All tolerances are pinned here.
"""

import math
import sys
import time

import numpy as np
import pytest

import idcalc as ic
from idcalc.domains import (
    LargenessClass,
    classify_largeness,
    domain_rule_verdicts,
)
from idcalc.kernels import (
    exp_kernel,
    generalized_inverse,
    indicator_kernel,
    kernel_from_tau,
    log_inverse_kernel,
    power_at_zero_kernel,
    power_tail_kernel,
    sinc_kernel,
    tau_exponential,
    tau_gaussian,
    tau_measure,
    tau_of_interval,
)
from idcalc.measures import INF
from idcalc.mc import SimConfig, ecf_check, sample_integral, window_exponent
from idcalc.quadrature import bisect_monotone
from idcalc.transform import (
    direct_exponent,
    domain_verdicts,
    essential_conditions,
    phi,
    phi_es,
    psi,
    window_triplet,
)
from idcalc.verdicts import Truth

from corpus import corpus_pairs


def _report(n, ok, detail):
    line = f"[ACCEPTANCE] criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_dual_calculus():
    t0 = time.monotonic()
    rng = np.random.default_rng(17)
    # involution exact on 20 atomic measures
    for _ in range(20):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        pts = rng.standard_normal((n, d)) * np.exp(rng.uniform(-2, 2))
        pts[np.abs(pts).sum(axis=1) == 0] += 0.5
        nu = ic.AtomicMeasure(pts, rng.random(n) + 0.05)
        t = ic.Triplet(np.zeros((d, d)), nu, rng.standard_normal(d))
        tt = ic.dual(ic.dual(t))
        assert np.array_equal(tt.nu.points, nu.points)
        assert np.array_equal(tt.nu.masses, nu.masses)
        assert np.array_equal(tt.gamma, t.gamma)
    # moment identity at five exponents, 1e-8 relative
    meas = [ic.AtomicMeasure([[0.5], [2.0], [3.0]], [1.0, 2.0, 0.5]),
            ic.StableMeasure(1.2, [[1.0]], [1.0]),
            ic.StableMeasure(0.7, [[1.0], [-1.0]], [0.4, 0.6])]
    h = lambda p: (lambda x: np.sqrt((x * x).sum(axis=1)) ** p)
    for nu in meas:
        nud = ic.dual_measure(nu)
        for a in (0.0, 0.5, 1.0, 1.5, 2.0):
            lhs = ic.levy_integral(nud, h(2 - a), (0.0, 1.0))
            rhs = ic.levy_integral(nu, h(a), (1.0, INF))
            if math.isinf(rhs):
                assert math.isinf(lhs)
            else:
                assert lhs == pytest.approx(rhs, rel=1e-8)
    # stable index map exact
    for a in (0.3, 0.5, 1.0, 1.7):
        assert ic.dual_measure(ic.StableMeasure(a, [[1.0]], [1.0])).alpha == 2.0 - a
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 1.0,
            f"dual involution/moment identity/index map ({elapsed:.2f}s < 1s)")


def test_criterion_2_triplet_transport():
    res = phi(exp_kernel(), ic.Triplet(1.0, None, [0.0]))
    ok_fix = abs(res.triplet.A[0, 0] - 0.5) < 1e-10 and \
        abs(res.triplet.gamma[0]) < 1e-10 and res.triplet.nu.is_zero()

    rng = np.random.default_rng(23)
    kernels = [exp_kernel(), log_inverse_kernel(), power_tail_kernel(1.5),
               sinc_kernel()]
    triplets = [ic.Triplet(0.7, None, [0.4]),
                ic.Triplet(0.2, ic.AtomicMeasure([[0.8], [-0.8]], [1.1, 1.1]),
                           [-0.3]),
                ic.Triplet(0.0, ic.StableMeasure(1.2, [[1.0]], [1.0]), [0.1])]
    clip = lambda x: np.minimum((x * x).sum(axis=1), 1.0)
    worst = 0.0
    for _ in range(30):
        k = kernels[rng.integers(len(kernels))]
        t = triplets[rng.integers(len(triplets))]
        span = (k.b - k.a) if math.isfinite(k.b - k.a) else 4.0
        p = k.a + span * rng.uniform(0.05, 0.3)
        q = p + span * rng.uniform(0.1, 0.3)
        r = q + span * rng.uniform(0.1, 0.3)
        w1, w2, w3 = (window_triplet(k, t, *w) for w in ((p, q), (q, r), (p, r)))
        worst = max(worst, float(np.max(np.abs(w1.A + w2.A - w3.A))))
        worst = max(worst, float(np.max(np.abs(w1.gamma + w2.gamma - w3.gamma))))
        if not t.nu.is_zero():
            worst = max(worst, abs(w1.nu.integral(clip) + w2.nu.integral(clip)
                                   - w3.nu.integral(clip)))
    _report(2, ok_fix and worst < 1e-8,
            f"exp/Gaussian transport exact, additivity worst={worst:.2e} < 1e-8")


CUMULANT_CASES = [
    (exp_kernel(), ic.dirac([1.3])),
    (exp_kernel(), ic.Triplet(1.0, None, [0.3])),
    (exp_kernel(), ic.Triplet(0.0, ic.AtomicMeasure(
        [[1.0], [-0.5]], [1.0, 2.0]), [0.2])),
    (exp_kernel(), ic.Triplet(0.5, ic.StableMeasure(
        1.5, [[1.0], [-1.0]], [0.5, 0.5]), [0.0])),
    (exp_kernel(), ic.Triplet(0.0, ic.gamma_measure(1.0, 1.0, [1.0]), [-0.1])),
    (log_inverse_kernel(), ic.Triplet(0.0, ic.AtomicMeasure(
        [[0.8], [-0.8]], [1.0, 1.0]), [0.0])),
    (log_inverse_kernel(), ic.Triplet(0.0, ic.StableMeasure(
        0.6, [[1.0], [-1.0]], [0.5, 0.5]), [0.0])),
    (power_tail_kernel(0.7), ic.Triplet(0.0, ic.StableMeasure(
        1.8, [[1.0], [-1.0]], [0.5, 0.5]), [0.0])),
    (power_at_zero_kernel(0.8), ic.Triplet(0.0, ic.StableMeasure(
        0.6, [[1.0], [-1.0]], [0.5, 0.5]), [0.2])),
    (indicator_kernel(2.0, 0.0, 1.0), ic.Triplet(
        0.0, ic.gamma_measure(1.0, 2.0, [1.0]), [0.1])),
]


def test_criterion_3_cumulant_identity():
    t0 = time.monotonic()
    zs = np.linspace(-2.4, 2.4, 21)
    zs = zs[zs != 0][:20]
    worst = 0.0
    for k, t in CUMULANT_CASES:
        res = phi(k, t)
        for z in zs:
            lhs = ic.cumulant(res.triplet, np.array([z]))
            rhs = direct_exponent(k, t, np.array([z]))
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.monotonic() - t0
    _report(3, worst < 1e-5 and elapsed < 30.0,
            f"10 cases x 20 z: worst={worst:.2e} < 1e-5 ({elapsed:.1f}s < 30s)")


def test_criterion_4_oscillatory_location():
    t0 = time.monotonic()
    g = 0.7
    res = phi(sinc_kernel(), ic.dirac([g]))
    err = abs(res.triplet.gamma[0] - math.pi / 2.0 * g)
    elapsed = time.monotonic() - t0
    _report(4, err < 1e-6 and elapsed < 5.0 and res.triplet.nu.is_zero(),
            f"sinc point-mass location err={err:.2e} < 1e-6 ({elapsed:.2f}s < 5s)")


def test_criterion_5_domain_dichotomy_sweep():
    alphas = [round(0.3 + 0.2 * i, 1) for i in range(9)]   # 0.3 .. 1.9
    disagreements = 0
    for a in alphas:
        k = power_tail_kernel(a)
        for ap in alphas:
            t = ic.Triplet(0.0, ic.StableMeasure(ap, [[1.0], [-1.0]],
                                                 [0.5, 0.5]), [0.0])
            want = Truth.YES if a < ap else Truth.NO
            rule = domain_rule_verdicts(k, t)["essential"].truth
            numeric = essential_conditions(k, t, use_rules=False).truth
            if rule is not want or numeric is not want:
                disagreements += 1
    _report(5, disagreements == 0,
            f"{len(alphas) ** 2} pairs, rule vs certified quadrature, "
            f"{disagreements} disagreements")


def test_criterion_6_chain_and_symmetric_collapse():
    order = ["absolute", "plain", "compensated", "essential"]
    chain_viol = 0
    collapse_viol = 0
    for k, t in corpus_pairs():
        vs = domain_verdicts(k, t)
        seq = [vs[n].truth for n in order]
        if any(seq[i] is Truth.YES and seq[j] is Truth.NO
               for i in range(4) for j in range(i + 1, 4)):
            chain_viol += 1
        if t.is_symmetric():
            determined = {v.truth for v in vs.values() if v.truth is not Truth.UNKNOWN}
            if len(determined) > 1:
                collapse_viol += 1
    _report(6, chain_viol == 0 and collapse_viol == 0,
            f"50-case corpus: {chain_viol} chain violations, "
            f"{collapse_viol} symmetric-collapse violations")


def test_criterion_7_largeness_classifier():
    cases = [
        (indicator_kernel(1.0, 0.0, 1.0), LargenessClass.ALL_ID),
        (power_at_zero_kernel(0.75), LargenessClass.AB_PRESERVING),
        (power_at_zero_kernel(1.0), LargenessClass.AB_INTO_ESSENTIAL),
        (power_tail_kernel(2.0), LargenessClass.TRIVIAL_ESSENTIAL),
        (power_tail_kernel(3.0), LargenessClass.TRIVIAL_ESSENTIAL),
    ]
    wrong = []
    for k, want in cases:
        got, info = classify_largeness(k)
        if got is not want:
            wrong.append((k.name, got.value, want.value))
    # the mid-range blow-up kernel must not over-classify
    cls, _ = classify_largeness(power_at_zero_kernel(0.75))
    over = cls is LargenessClass.ALL_ID
    _report(7, not wrong and not over,
            f"four classifier fixtures exact: {wrong or 'ok'}")


def test_criterion_8_occupation_round_trip():
    worst_mass = 0.0
    worst_transfer = 0.0
    for tau, lo, hi in ((tau_exponential(), 0.02, 4.0),
                        (tau_gaussian(), -2.5, 2.5)):
        k = kernel_from_tau(tau)
        rng = np.random.default_rng(5)
        for _ in range(100):
            u1, u2 = np.sort(rng.uniform(lo, hi, size=2))
            if u2 - u1 < 1e-3:
                u2 = u1 + 1e-3
            got = tau_of_interval(k, float(u1), float(u2))
            want = tau.mass(float(u1), float(u2))
            worst_mass = max(worst_mass, abs(got - want))
        # transfer identity of the generalized inverse
        a1, b1 = tau.a_prime, tau.b_prime
        c = 0.5 * (max(a1, -1.0) + min(b1, 1.0))

        def G(u, tau=tau, c=c):
            return tau.mass(c, u) if u >= c else -tau.mass(u, c)

        F = generalized_inverse(G, a1, b1)
        for v in np.linspace(lo + 0.1, hi - 0.1, 20):
            lhs = G(float(v)) - F.A
            s_v = bisect_monotone(lambda s: F(s), float(v),
                                  F.A + 1e-14, F.B - 1e-14,
                                  increasing=True, tol=1e-13)
            worst_transfer = max(worst_transfer, abs(lhs - (s_v - F.A)))
    _report(8, worst_mass < 1e-10 and worst_transfer < 1e-10,
            f"round-trip worst={worst_mass:.2e}, transfer worst="
            f"{worst_transfer:.2e}, both < 1e-10")


def test_criterion_9_measure_transform_consistency():
    # the occupation-measure route and the window route agree
    cases = [
        (exp_kernel(), ic.AtomicMeasure([[1.0]], [1.0])),
        (exp_kernel(), ic.AtomicMeasure([[2.0], [-0.5]], [0.7, 1.3])),
        (exp_kernel(), ic.StableMeasure(0.5, [[1.0]], [1.0])),
        (exp_kernel(), ic.StableMeasure(1.5, [[1.0], [-1.0]], [0.5, 0.5])),
        (exp_kernel(), ic.gamma_measure(1.0, 1.0, [1.0])),
        (log_inverse_kernel(), ic.AtomicMeasure([[1.5]], [2.0])),
        (log_inverse_kernel(), ic.StableMeasure(1.2, [[1.0]], [1.0])),
        (power_tail_kernel(0.7), ic.StableMeasure(1.4, [[1.0]], [1.0])),
        (power_at_zero_kernel(0.8), ic.AtomicMeasure([[1.0], [3.0]], [1.0, 0.2])),
        (power_at_zero_kernel(0.8), ic.StableMeasure(1.2, [[1.0]], [1.0])),
    ]
    worst = 0.0
    for k, nu in cases:
        via_tau = psi(tau_measure(k), nu)
        via_phi = phi_es(k, ic.Triplet(0.0, nu, np.zeros(nu.dim))).triplet.nu
        c1 = float(via_tau.clip2_scaled(np.array([1.0]))[0])
        c2 = float(via_phi.clip2_scaled(np.array([1.0]))[0])
        worst = max(worst, abs(c1 - c2) / max(1.0, abs(c2)))
        for r in (0.5, 2.0):
            t1 = float(via_tau.tail_mass(np.array([r]))[0])
            t2 = float(via_phi.tail_mass(np.array([r]))[0])
            worst = max(worst, abs(t1 - t2) / max(1.0, abs(t2)))
    # alpha-stable shrink fixture: the transported measure is 1/alpha times
    # the original
    worst_shrink = 0.0
    for alpha in (0.5, 1.5):
        s = ic.StableMeasure(alpha, [[1.0]], [1.0])
        out = psi(exp_kernel(), s)
        for r in (0.5, 1.0, 2.0):
            got = float(out.tail_mass(np.array([r]))[0])
            want = float(s.tail_mass(np.array([r]))[0]) / alpha
            worst_shrink = max(worst_shrink, abs(got - want) / want)
    _report(9, worst < 1e-6 and worst_shrink < 1e-8,
            f"10-case functional agreement worst={worst:.2e} < 1e-6, "
            f"shrink worst={worst_shrink:.2e} < 1e-8")


def test_criterion_10_monte_carlo():
    t0 = time.monotonic()
    zs = np.linspace(0.2, 2.0, 10)[:, None]
    n = 100_000
    devs = {}

    cp = ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]), [0.5])

    k1 = indicator_kernel(1.0, 0.0, 4.0)
    s1 = sample_integral(k1, cp, 0.0, 4.0,
                         SimConfig(mesh_points=8, n_paths=n, seed=101))
    devs["constant"] = ecf_check(s1, window_exponent(k1, cp, 0.0, 4.0),
                                 zs).max_sigma_deviation

    k2 = exp_kernel()
    s2 = sample_integral(k2, cp, 0.0, 8.0,
                         SimConfig(mesh_points=256, n_paths=n, seed=102))
    devs["exponential"] = ecf_check(s2, window_exponent(k2, cp, 0.0, 8.0),
                                    zs).max_sigma_deviation

    sym_target = ic.symmetrize_triplet(cp)
    s3a = sample_integral(k1, cp, 0.0, 4.0,
                          SimConfig(mesh_points=8, n_paths=n, seed=103))
    s3b = sample_integral(k1, cp, 0.0, 4.0,
                          SimConfig(mesh_points=8, n_paths=n, seed=104))
    devs["symmetrized"] = ecf_check(
        s3a - s3b, window_exponent(k1, sym_target, 0.0, 4.0),
        zs).max_sigma_deviation

    shifted = ic.Triplet(0.0, ic.AtomicMeasure([[1.0]], [1.0]), [1.5])
    control = ecf_check(s2, window_exponent(k2, shifted, 0.0, 8.0),
                        zs).max_sigma_deviation
    elapsed = time.monotonic() - t0
    ok = all(v < 4.0 for v in devs.values()) and control > 10.0 \
        and elapsed < 120.0
    detail = ", ".join(f"{name}={v:.2f}" for name, v in devs.items())
    _report(10, ok, f"{detail} (all < 4), control={control:.0f} (> 10), "
            f"{elapsed:.0f}s < 120s")

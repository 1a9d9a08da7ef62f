"""Stochastic-integral transformations of infinitely divisible laws.

Given a kernel f on (a, b) and a law with triplet (A, nu, gamma), the
finite-window integral of f against the associated homogeneous independently
scattered random measure is again infinitely divisible, with an explicit
triplet.  The improper transforms arise as window limits:

* ``phi``      -- the plain improper integral (location converges);
* ``phi_es``   -- essential: nonrandom centers may be subtracted, the
                  location is free;
* ``phi_c``    -- compensated: a constant-drift shift of the law may be
                  applied first;
* ``phi_sym``  -- symmetrized: the integral of X - X' for an independent
                  copy X'.

The transformed Levy measure is the scale mixture int nu(B/u) m(du), one
class (:class:`ScaleMixtureMeasure`) with two mixing laws: m is Lebesgue
measure on a window pushed through f (:class:`PushforwardMeasure`), or the
occupation measure tau (:class:`TauMixtureMeasure`, the route of ``psi``).

Membership tests return three-valued verdicts; the transforms either return
a :class:`TransformResult` or raise :class:`NotDefinable` /
:class:`InconclusiveError`.  Closed-form domain rules attached to tagged
kernels override slow window numerics; a disagreement between the two
raises :class:`ConsistencyAlarm` rather than silently preferring either.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyAlarm,
    InconclusiveError,
    NotABLaw,
    NotDefinable,
    NotInDomain,
    NoMean,
    QuadratureFailure,
    UnsupportedTag,
)
from .idlaw import Triplet, TypeClass, classify_type, drift, mean
from .kernels import Kernel, TauMeasure, kernel_window_integral
from .measures import INF, LevyMeasure, symmetrize_measure
from .quadrature import (
    ImproperResult,
    adaptive_quad,
    improper_limit,
    improper_nonneg,
    slab_quad,
    window_schedule,
)
from .verdicts import Truth, Verdict, combine_all


class LocationMode(enum.Enum):
    FIXED = "fixed"                          # location uniquely determined
    FREE = "free"                            # any location admissible
    COMPENSATED_UNIQUE = "compensated-unique"
    COMPENSATED_FAMILY = "compensated-family"  # coincides with the essential class


@dataclass
class TransformResult:
    triplet: Triplet
    location_mode: LocationMode
    diagnostics: dict = field(default_factory=dict)


class ScaleMixtureMeasure(LevyMeasure):
    """The scale mixture nu~(B) = int nu(B/u) m(du) of a base Levy measure.

    Every functional of nu~ is the matching functional of the base measure
    at scale u, mixed over m; the base answers for all the scales of an
    outer quadrature panel in one call.  A subclass supplies m through one
    hook, ``_mix(per_scale, nonneg, label, atol)``: it integrates the
    per-scale values (vectorized over an array of scales) against m,
    returns INF for a certified divergence when ``nonneg``, and may name
    ``label`` in its error and use ``atol`` as its absolute panel tolerance.
    """

    base: LevyMeasure

    def _mix(self, per_scale, nonneg=False, label=None, atol=1e-13):
        raise NotImplementedError

    def _per_u(self, us, value, shape=(), dtype=float):
        """Evaluate ``value(u)`` at each scale of the array ``us``."""
        us = np.atleast_1d(np.asarray(us, dtype=float))
        out = np.empty(us.shape + shape, dtype=dtype)
        for i, u in enumerate(us):
            out[i] = value(u)
        return out

    def scaled_integral(self, h, us, lo=0.0, hi=INF):
        if self.base.is_zero():
            return np.zeros(np.atleast_1d(us).shape)
        return self._per_u(us, lambda u: 0.0 if u == 0.0 else float(np.max(self._mix(
            lambda vs: self.base.scaled_integral(h, u * vs, lo, hi), nonneg=True))))

    def clip2_scaled(self, us):
        return self._per_u(us, lambda u: 0.0 if u == 0.0 else self._mix(
            lambda vs: self.base.clip2_scaled(u * vs), nonneg=True))

    def clip1_scaled(self, us):
        def value(u):
            if u == 0.0:
                return 0.0
            try:
                return self._mix(lambda vs: self.base.clip1_scaled(u * vs),
                                 nonneg=True)
            except QuadratureFailure:
                return INF
        return self._per_u(us, value)

    def centering_scaled(self, us):
        return self._per_u(us, lambda u: self._mix(
            lambda vs: self.base.centering_scaled(u * vs), label="centering"),
            shape=(self.dim,))

    def cumulant_scaled(self, z, us):
        z = np.asarray(z, dtype=float)
        return self._per_u(us, lambda u: self._mix(
            lambda vs: self.base.cumulant_scaled(z, u * vs), label="exponent"),
            dtype=complex)

    def tail_mass(self, rs):
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        out = np.empty(rs.shape)
        for i, r in enumerate(rs):
            def per_scale(vs, r=float(r)):
                vs = np.abs(vs)
                vals = np.zeros(vs.shape)
                nz = vs > 0
                if np.any(nz):
                    with np.errstate(over="ignore"):
                        vals[nz] = self.base.tail_mass(r / vs[nz])
                return vals
            out[i] = float(np.max(self._mix(per_scale, nonneg=True, atol=1e-12)))
        return out

    def vector_weighted_scaled(self, w, us, lo=0.0, hi=INF):
        return self._per_u(us, lambda u: 0.0 if u == 0.0 else self._mix(
            lambda vs: self.base.vector_weighted_scaled(w, u * vs, lo, hi),
            label="moment vector"), shape=(self.dim,))

    def is_symmetric(self):
        return self.base.is_symmetric()


class PushforwardMeasure(ScaleMixtureMeasure):
    """Levy measure of a window (or improper) integral: the scale mixture
    over m = Lebesgue measure on (p, q) pushed through the kernel.

    Kept lazy as (kernel, window, base) so functionals evaluate by iterated
    quadrature without discretization of the measure itself.
    """

    def __init__(self, kernel: Kernel, base: LevyMeasure, p=None, q=None):
        self.kernel = kernel
        self.base = base
        self.p = kernel.a if p is None else float(p)
        self.q = kernel.b if q is None else float(q)
        self.proper = self.p > kernel.a and self.q < kernel.b
        self.dim = base.dim

    def _mix(self, per_scale, nonneg=False, label=None, atol=1e-13):
        def slab(w1, w2):
            fn = lambda s: per_scale(np.atleast_1d(self.kernel(s)))
            return adaptive_quad(fn, w1, w2, rtol=1e-9, atol=atol)[0]

        if self.proper:
            return slab(self.p, self.q)
        if nonneg:
            res = improper_nonneg(slab, self.p, self.q)
            if res.converged:
                return res.value
            if res.diverged:
                return INF
            raise InconclusiveError("pushforward integral not certified",
                                    res.evidence)
        res = improper_limit(slab, self.p, self.q, rtol=1e-9)
        if not res.converged:
            raise InconclusiveError(f"pushforward {label} not certified")
        return res.value


class TauMixtureMeasure(ScaleMixtureMeasure):
    """Levy measure transported by an occupation measure: the scale mixture
    over m = tau (atoms plus a density)."""

    def __init__(self, tau: TauMeasure, base: LevyMeasure):
        if tau.density is None and not tau.atoms:
            raise NotInDomain("occupation measure needs atoms or a density")
        self.tau = tau
        self.base = base
        self.dim = base.dim

    def _mix(self, per_scale, nonneg=False, label=None, atol=1e-13):
        total = None
        for u, m in self.tau.atoms:
            v = m * np.asarray(per_scale(np.array([u]))[0])
            total = v if total is None else total + v
        if self.tau.density is not None:
            lo, hi = self.tau.density_support

            def fn(u):
                vals = np.asarray(per_scale(u))
                dens = np.asarray(self.tau.density(u), dtype=float)
                return vals * (dens if vals.ndim == 1 else dens[:, None])

            slab = slab_quad(fn, rtol=1e-10, atol=1e-13)
            if nonneg:
                res = improper_nonneg(slab, lo, hi, rtol=1e-10)
                if res.diverged:
                    return INF
            else:
                res = improper_limit(slab, lo, hi, rtol=1e-9)
            if not res.converged:
                raise InconclusiveError("occupation mixture not certified",
                                        res.evidence)
            total = res.value if total is None else total + res.value
        return total


# ---------------------------------------------------------------------------
# window-level operations
# ---------------------------------------------------------------------------

def _square_slab(k: Kernel):
    def slab(p, q):
        return kernel_window_integral(k, p, q, "square")
    return slab


def _gamma_slab(k: Kernel, t: Triplet):
    """Slab integral of the window location integrand
    f(s) gamma + int f(s) x (1/(1+|f(s)x|^2) - 1/(1+|x|^2)) nu(dx).

    For a reflection-symmetric jump measure the inner vector vanishes
    identically, so the slab reduces to the kernel's window integral and
    oscillatory kernels stay exact through their closed-form hooks.
    """
    reduces = t.nu.is_zero() or t.nu.is_symmetric()

    def slab(p, q):
        if reduces:
            return t.gamma * kernel_window_integral(k, p, q, "plain")

        def fn(s):
            us = np.atleast_1d(k(s))
            cent = np.asarray(t.nu.centering_scaled(us))
            return np.outer(us, t.gamma) + us[:, None] * cent
        return adaptive_quad(fn, p, q, rtol=1e-10, atol=1e-12)[0]

    return slab


def locally_integrable(k: Kernel, t: Triplet, p: float, q: float) -> Verdict:
    """Integrability of f against the random measure of the law on a
    compact window strictly inside (a, b)."""
    if not (k.a < p < q < k.b):
        raise ValueError("window must lie strictly inside the kernel interval")
    try:
        if t.has_gaussian_part:
            sq = kernel_window_integral(k, p, q, "square")
            if math.isfinite(sq):
                return Verdict.yes("window-square-integrable", value=float(sq))
            return Verdict.no("window-square-divergent")
        # purely non-Gaussian: clipped-quadratic and location clauses
        def fn2(s):
            return t.nu.clip2_scaled(np.atleast_1d(k(s)))
        v2 = adaptive_quad(fn2, p, q, rtol=1e-9)[0]
        if not math.isfinite(float(np.max(v2))):
            return Verdict.no("window-clipped-quadratic-divergent")

        def fn3(s):
            us = np.atleast_1d(k(s))
            cent = np.asarray(t.nu.centering_scaled(us))
            vec = np.outer(us, t.gamma) + us[:, None] * cent
            return np.sqrt((vec * vec).sum(axis=1))
        v3 = adaptive_quad(fn3, p, q, rtol=1e-9)[0]
        if not math.isfinite(float(v3)):
            return Verdict.no("window-location-divergent")
        return Verdict.yes("window-integrable",
                           clipped_quadratic=float(np.max(v2)),
                           location_mass=float(v3))
    except (QuadratureFailure, InconclusiveError) as e:
        return Verdict.unknown("window-quadrature-failed", detail=str(e))


def window_triplet(k: Kernel, t: Triplet, p: float, q: float) -> Triplet:
    """Triplet of the stochastic integral over a compact window."""
    v = locally_integrable(k, t, p, q)
    if not v.is_yes:
        raise NotDefinable(f"not locally integrable on ({p}, {q}): {v.reason}")
    sq = kernel_window_integral(k, p, q, "square")
    A = float(sq) * t.A
    nu = PushforwardMeasure(k, t.nu, p, q)
    gamma = np.asarray(_gamma_slab(k, t)(p, q), dtype=float)
    return Triplet(A, nu if not t.nu.is_zero() else None, gamma, validate=False)


# ---------------------------------------------------------------------------
# definability conditions
# ---------------------------------------------------------------------------

def _gaussian_condition(k: Kernel, t: Triplet) -> Verdict:
    """Total square-integrability of f when a Gaussian part is present."""
    if not t.has_gaussian_part:
        return Verdict.yes("no-gaussian-part")
    sqm = k.profile.get("square_mass")
    if sqm is not None:
        if math.isfinite(sqm):
            return Verdict.yes("square-mass-finite", value=float(sqm))
        return Verdict.no("square-mass-divergent")
    res = improper_nonneg(_square_slab(k), k.a, k.b)
    if res.converged:
        return Verdict.yes("square-mass-finite", value=float(np.max(res.value)))
    if res.diverged:
        return Verdict.no("square-mass-divergent", **res.evidence)
    return Verdict.unknown("square-mass-uncertified", **res.evidence)


def _jump_condition(k: Kernel, t: Triplet) -> Verdict:
    """Finiteness of the clipped-quadratic double integral over (a, b)."""
    if t.nu.is_zero():
        return Verdict.yes("no-jump-part")
    nu = t.nu
    # once the kernel envelope falls below 1/max-radius, the clipping is
    # inactive for a finite-support jump measure and the slab is a plain
    # square integral, exact through the closed-form hook
    from .measures import AtomicMeasure
    atomic_fast = (isinstance(nu, AtomicMeasure) and k.abs_bound is not None
                   and k.window_square is not None)
    if atomic_fast:
        rmax = float(np.max(nu.radii))
        m2 = float((nu.masses * nu.radii ** 2).sum())

    def slab(p, q):
        if atomic_fast and k.abs_bound(p, q) * rmax <= 1.0:
            return m2 * kernel_window_integral(k, p, q, "square")
        fn = lambda s: nu.clip2_scaled(np.atleast_1d(k(s)))
        return adaptive_quad(fn, p, q, rtol=1e-8, atol=1e-11)[0]

    res = improper_nonneg(slab, k.a, k.b)
    if res.converged:
        return Verdict.yes("clipped-quadratic-finite",
                           value=float(np.max(res.value)))
    if res.diverged:
        return Verdict.no("clipped-quadratic-divergent", **res.evidence)
    return Verdict.unknown("clipped-quadratic-uncertified", **res.evidence)


def _rules(k: Kernel, t: Triplet, use_rules=True) -> dict:
    """The closed-form domain verdicts of a tagged kernel, or an empty table
    when rules are off or the kernel carries no supported tag.  Each public
    transform and verdict looks them up at most once."""
    if not use_rules or k.tag is None:
        return {}
    from .domains import domain_rule_verdicts  # late import: no cycle at load
    try:
        return domain_rule_verdicts(k, t)
    except UnsupportedTag:
        return {}


def _determined(rules: dict, which: str):
    rule = rules.get(which)
    return None if rule is None or rule.is_unknown else rule


def _rule_override(rules: dict, which: str, numeric: Verdict) -> Verdict:
    """Consult the closed-form domain rule.

    The rule's answer wins when determined; a determined disagreement with a
    determined numeric verdict raises :class:`ConsistencyAlarm`.
    """
    rule = _determined(rules, which)
    if rule is None:
        return numeric
    if not numeric.is_unknown and rule.truth is not numeric.truth:
        raise ConsistencyAlarm(
            f"closed-form rule ({rule.reason}) contradicts numeric verdict"
            f" ({numeric.reason}) for {which}")
    return rule


def _essential(k: Kernel, t: Triplet, rules: dict) -> Verdict:
    numeric = combine_all(_gaussian_condition(k, t), _jump_condition(k, t))
    return _rule_override(rules, "essential", numeric)


def essential_conditions(k: Kernel, t: Triplet, use_rules=True) -> Verdict:
    """Definability of the essential (and symmetrized) transform.

    With ``use_rules=False`` only the certified window numerics run; this is
    the independent route the closed-form rules are checked against.
    """
    return _essential(k, t, _rules(k, t, use_rules))


def definable_verdict(k: Kernel, t: Triplet, use_rules=True) -> Verdict:
    """Three-valued membership in the plain transform domain."""
    rules = _rules(k, t, use_rules)
    rule = _determined(rules, "plain")
    if rule is not None:
        return rule
    cond = _essential(k, t, rules)
    if not cond.is_yes:
        return cond
    res = _drive_gamma(k, t)
    if res.converged:
        return Verdict.yes("location-trace-convergent")
    if res.diverged:
        return Verdict.no("location-trace-divergent", **res.evidence)
    return Verdict.unknown("location-trace-uncertified", **res.evidence)


def compensated_verdict(k: Kernel, t: Triplet, use_rules=True) -> Verdict:
    """Three-valued membership in the compensated transform domain."""
    rules = _rules(k, t, use_rules)
    rule = _determined(rules, "compensated")
    if rule is not None:
        return rule
    cond = _essential(k, t, rules)
    if not cond.is_yes:
        return cond
    try:
        _phi_c(k, t, rules, cond)
        return Verdict.yes("compensation-found")
    except NotDefinable as e:
        return Verdict.no(e.reason)
    except (InconclusiveError, QuadratureFailure) as e:
        return Verdict.unknown("compensation-uncertified", detail=str(e))


def _result_measure(k: Kernel, t: Triplet):
    return None if t.nu.is_zero() else PushforwardMeasure(k, t.nu)


def _result_gaussian(k: Kernel, t: Triplet):
    if not t.has_gaussian_part:
        return np.zeros_like(t.A)
    sqm = k.profile.get("square_mass")
    if sqm is None:
        res = improper_nonneg(_square_slab(k), k.a, k.b)
        if not res.converged:
            raise InconclusiveError("total square mass not certified")
        sqm = float(np.max(res.value))
    return float(sqm) * t.A


def _drive_gamma(k: Kernel, t: Triplet):
    """Improper window limit of the location integrand."""
    if t.nu.is_zero() or t.nu.is_symmetric():
        # the integrand reduces to gamma * f; a closed-form hook extending
        # to the endpoints settles the limit exactly
        if float(np.max(np.abs(t.gamma))) == 0.0:
            sched = window_schedule(k.a, k.b, 4)
            trace = [(p, q, np.zeros(t.dim)) for (p, q) in sched]
            return ImproperResult("converged", np.zeros(t.dim), trace,
                                  {"rule": "zero-location"})
        v = _hook_endpoint_value(k, "plain")
        if v is not None:
            sched = window_schedule(k.a, k.b, 6)
            trace = [(p, q, t.gamma * float(kernel_window_integral(k, p, q, "plain")))
                     for (p, q) in sched]
            if math.isinf(v):
                return ImproperResult("diverged", None, trace, {"rule": "hook"})
            trace.append((k.a, k.b, t.gamma * v))
            return ImproperResult("converged", t.gamma * v, trace,
                                  {"rule": "hook"})
    return improper_limit(_gamma_slab(k, t), k.a, k.b, rtol=1e-8)


def _gate(k: Kernel, t: Triplet, rules: dict, which=None, cond=None) -> Verdict:
    """The definability gate of the transforms: the essential conditions
    must hold, and the closed-form rule for ``which`` must not exclude the
    law.  Returns the essential verdict; a caller that has computed it
    already hands it in as ``cond``."""
    cond = _essential(k, t, rules) if cond is None else cond
    if cond.is_no:
        raise NotDefinable(cond.reason, cond.witness)
    if cond.is_unknown:
        raise InconclusiveError(f"definability test unresolved: {cond.reason}",
                                cond.witness)
    rule = rules.get(which)
    if rule is not None and rule.is_no:
        raise NotDefinable(rule.reason, rule.witness)
    return cond


def phi(k: Kernel, t: Triplet) -> TransformResult:
    """The improper stochastic-integral transform.

    Requires the Gaussian and jump conditions plus convergence of the
    window locations; returns the limit triplet with a fixed location.
    """
    cond = _gate(k, t, _rules(k, t), "plain")
    res = _drive_gamma(k, t)
    if res.diverged:
        raise NotDefinable("location-trace-divergent", res.evidence)
    if not res.converged:
        raise InconclusiveError("location trace neither stabilized nor diverged",
                                {"trace_tail": [tr[2].tolist() for tr in res.trace[-5:]],
                                 **res.evidence})
    trip = Triplet(_result_gaussian(k, t), _result_measure(k, t),
                   np.asarray(res.value, dtype=float), validate=False)
    return TransformResult(trip, LocationMode.FIXED,
                           {"condition": cond.reason,
                            "trace": [(p, q, v.tolist()) for p, q, v in res.trace]})


def phi_es(k: Kernel, t: Triplet) -> TransformResult:
    """Essential transform: the location is free; the canonical
    representative carries location zero."""
    cond = _gate(k, t, _rules(k, t))
    trip = Triplet(_result_gaussian(k, t), _result_measure(k, t),
                   np.zeros(t.dim), validate=False)
    return TransformResult(trip, LocationMode.FREE, {"condition": cond.reason})


def phi_sym(k: Kernel, t: Triplet) -> TransformResult:
    """Symmetrized transform: doubled Gaussian part, reflection-summed jump
    measure, location pinned at zero."""
    cond = _gate(k, t, _rules(k, t))
    nu = _result_measure(k, t)
    trip = Triplet(2.0 * _result_gaussian(k, t),
                   None if nu is None else symmetrize_measure(nu),
                   np.zeros(t.dim), validate=False)
    return TransformResult(trip, LocationMode.FIXED, {"condition": cond.reason})


def _hook_endpoint_value(k: Kernel, kind="plain"):
    """Evaluate a closed-form window hook at the interval endpoints.

    Returns the exact improper value when the hook extends continuously to
    the endpoints, None when it does not (no hook, oscillation, blow-up
    producing nan/inf arithmetic errors).
    """
    hook = {"plain": k.window_integral, "square": k.window_square,
            "abs": k.window_abs}[kind]
    if hook is None:
        return None
    try:
        with np.errstate(all="ignore"):
            v = float(hook(k.a, k.b))
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    if math.isnan(v):
        return None
    return v


def _kernel_mass_limit(k: Kernel):
    """Improper limit of int f over nested windows, three-valued.

    A closed-form window hook that extends to the endpoints gives the limit
    exactly; otherwise nonnegative kernels go through the monotone driver,
    which certifies the slow divergences a Cauchy test cannot see.
    """
    def slab(p, q):
        return kernel_window_integral(k, p, q, "plain")

    v = _hook_endpoint_value(k, "plain")
    if v is not None:
        sched = window_schedule(k.a, k.b, 6)
        trace = [(p, q, np.atleast_1d(kernel_window_integral(k, p, q, "plain")))
                 for (p, q) in sched]
        if math.isinf(v):
            return ImproperResult("diverged", None, trace, {"rule": "hook"})
        trace.append((k.a, k.b, np.atleast_1d(v)))
        return ImproperResult("converged", v, trace, {"rule": "hook"})
    if k.nonnegative:
        return improper_nonneg(slab, k.a, k.b)
    return improper_limit(slab, k.a, k.b, rtol=1e-9)


def phi_c(k: Kernel, t: Triplet) -> TransformResult:
    """Compensated transform.

    When int f converges to a nonzero number the compensated class equals
    the essential class; otherwise it is a single law whose location is
    recovered from the window trace (directly when int f -> 0, by an affine
    fit of the divergence direction otherwise).
    """
    return _phi_c(k, t, _rules(k, t))


def _phi_c(k: Kernel, t: Triplet, rules: dict, cond=None) -> TransformResult:
    cond = _gate(k, t, rules, "compensated", cond)
    fres = _kernel_mass_limit(k)
    gres = _drive_gamma(k, t)
    diag = {"condition": cond.reason, "kernel_mass": fres.status}

    if fres.converged and abs(float(np.max(np.abs(fres.value)))) > 1e-12:
        # compensation can absorb any shift: the class is the essential one
        if gres.diverged:
            raise NotDefinable("location-trace-divergent", gres.evidence)
        if not gres.converged:
            raise InconclusiveError("location trace unresolved under convergent"
                                    " kernel mass", gres.evidence)
        trip = Triplet(_result_gaussian(k, t), _result_measure(k, t),
                       np.zeros(t.dim), validate=False)
        diag["kernel_mass_value"] = float(fres.value)
        return TransformResult(trip, LocationMode.COMPENSATED_FAMILY, diag)

    if fres.converged:  # int f -> 0: the shift theta drops out of the limit
        if gres.diverged:
            raise NotDefinable("compensation-cannot-converge", gres.evidence)
        if not gres.converged:
            raise InconclusiveError("location trace unresolved", gres.evidence)
        gamma_t = np.asarray(gres.value, dtype=float)
        diag["theta"] = None
    elif t.nu.is_zero():
        # the window locations are exactly gamma F_pq: theta = gamma takes
        # them all and leaves location zero
        gamma_t = np.zeros(t.dim)
        diag["theta"] = np.asarray(t.gamma).tolist()
    else:
        # int f has no limit: solve the affine divergence direction from the
        # trace gamma_pq ~ F_pq theta + gamma_tilde, with the kernel mass
        # evaluated over exactly the windows of the location trace
        gs = np.array([np.asarray(v, dtype=float) for (_, _, v) in gres.trace])
        fs = np.array([float(kernel_window_integral(k, p, q, "plain"))
                       for (p, q, _) in gres.trace])
        m = len(fs)
        tail = max(8, m // 2)
        if m < tail:
            raise InconclusiveError("location trace too short for the affine"
                                    " fit of the divergence direction",
                                    {"trace_length": m})
        X = np.stack([fs[-tail:], np.ones(tail)], axis=1)
        coef, *_ = np.linalg.lstsq(X, gs[-tail:], rcond=None)
        theta, gamma_t = coef[0], coef[1]
        resid = gs[-tail:] - X @ coef
        # accept only if the fitted residuals stabilize
        r1 = float(np.max(np.abs(resid[: tail // 2])))
        r2 = float(np.max(np.abs(resid[tail // 2:])))
        scale = max(1.0, float(np.max(np.abs(gamma_t))))
        if r2 > 1e10:
            raise NotDefinable("compensation-cannot-converge",
                               {"residual": r2})
        if r2 > 1e-6 * scale or r2 > 2.0 * max(r1, 1e-12):
            raise InconclusiveError("affine fit of the divergence direction"
                                    " did not stabilize",
                                    {"residuals": (r1, r2)})
        diag["theta"] = np.asarray(theta).tolist()

    trip = Triplet(_result_gaussian(k, t), _result_measure(k, t),
                   np.asarray(gamma_t, dtype=float), validate=False)
    out = TransformResult(trip, LocationMode.COMPENSATED_UNIQUE, diag)
    _assert_compensated_mean_zero(out)
    return out


def _assert_compensated_mean_zero(result: TransformResult, tol=1e-6):
    """A unique compensated law with a finite first moment is centered."""
    try:
        m = mean(result.triplet)
    except (NoMean, InconclusiveError, QuadratureFailure):
        result.diagnostics["mean"] = None
        return
    result.diagnostics["mean"] = np.asarray(m).tolist()
    if float(np.max(np.abs(m))) > tol:
        raise ConsistencyAlarm(
            f"compensated-unique law should be centered; mean={m}")


def absolutely_definable(k: Kernel, t: Triplet, use_rules=True) -> Verdict:
    """Absolute convergence of the characteristic-exponent integral.

    Strongest of the domains: requires the essential conditions plus the
    absolute location clause.
    """
    rules = _rules(k, t, use_rules)
    override = lambda v: _rule_override(rules, "absolute", v)
    base = combine_all(_gaussian_condition(k, t), _jump_condition(k, t))
    if base.is_no:
        return override(base)
    if t.is_symmetric():
        # the location integrand vanishes identically
        return override(base if base.is_unknown else
                        Verdict.yes("symmetric-collapse"))
    nu_zero = t.nu.is_zero()

    def slab(p, q):
        if nu_zero:
            return kernel_window_integral(k, p, q, "abs") * float(
                np.linalg.norm(t.gamma))

        def fn(s):
            us = np.atleast_1d(k(s))
            cent = np.asarray(t.nu.centering_scaled(us))
            vec = np.outer(us, t.gamma) + us[:, None] * cent
            return np.sqrt((vec * vec).sum(axis=1))
        return adaptive_quad(fn, p, q, rtol=1e-8, atol=1e-11)[0]

    res = improper_nonneg(slab, k.a, k.b)
    if res.diverged:
        numeric = Verdict.no("absolute-location-divergent", **res.evidence)
    elif res.converged:
        numeric = combine_all(base, Verdict.yes("absolute-location-finite",
                                                value=float(np.max(res.value))))
    else:
        numeric = Verdict.unknown("absolute-location-uncertified", **res.evidence)
    return override(numeric)


def phi_ab(k: Kernel, t: Triplet) -> TransformResult:
    """Drift-form transform for finite-activity / finite-variation laws.

    Uses the clipped-linear double integral and the drift trace; the result
    is expressed back in the centered parameterization, with the transformed
    drift recorded in the diagnostics.
    """
    tclass = classify_type(t)
    if tclass is TypeClass.C:
        raise NotABLaw("law must be of finite activity or finite variation")
    gamma0 = drift(t)

    if t.nu.is_zero():
        clip_ok = Verdict.yes("no-jump-part")
    else:
        def slab(p, q):
            fn = lambda s: t.nu.clip1_scaled(np.atleast_1d(k(s)))
            return adaptive_quad(fn, p, q, rtol=1e-8, atol=1e-11)[0]
        res = improper_nonneg(slab, k.a, k.b)
        if res.diverged:
            clip_ok = Verdict.no("clipped-linear-divergent", **res.evidence)
        elif res.converged:
            clip_ok = Verdict.yes("clipped-linear-finite",
                                  value=float(np.max(res.value)))
        else:
            clip_ok = Verdict.unknown("clipped-linear-uncertified", **res.evidence)
    if clip_ok.is_no:
        raise NotDefinable(clip_ok.reason, clip_ok.witness)
    if clip_ok.is_unknown:
        raise InconclusiveError(clip_ok.reason, clip_ok.witness)

    if float(np.max(np.abs(gamma0))) == 0.0:
        f_total = 0.0
        mode_note = "drift-free"
    else:
        fres = _kernel_mass_limit(k)
        if fres.diverged:
            raise NotDefinable("drift-trace-divergent", fres.evidence)
        if not fres.converged:
            raise InconclusiveError("kernel mass trace unresolved", fres.evidence)
        f_total = float(fres.value)
        mode_note = "drift-scaled"
    new_drift = f_total * gamma0

    nu_ab = _result_measure(k, t)
    if nu_ab is None:
        gamma = new_drift
    else:
        corr = nu_ab.vector_weighted(lambda r: 1.0 / (1.0 + r * r))
        gamma = new_drift + np.asarray(corr)
    trip = Triplet(np.zeros_like(t.A), nu_ab, gamma, validate=False)
    return TransformResult(trip, LocationMode.FIXED,
                           {"drift": new_drift.tolist(), "note": mode_note,
                            "clipped_linear": clip_ok.reason})


def psi(tau_or_kernel, nu: LevyMeasure):
    """Transform of a Levy measure by a kernel or its occupation measure.

    Returns the transported measure as a lazy composable representation, or
    raises :class:`NotInDomain` / :class:`InconclusiveError`.
    """
    if isinstance(tau_or_kernel, Kernel):
        k = tau_or_kernel

        def slab(p, q):
            fn = lambda s: nu.clip2_scaled(np.atleast_1d(k(s)))
            return adaptive_quad(fn, p, q, rtol=1e-9)[0]
        res = improper_nonneg(slab, k.a, k.b)
        if res.diverged:
            raise NotInDomain("clipped-quadratic-divergent", res.evidence)
        if not res.converged:
            raise InconclusiveError("membership test not certified", res.evidence)
        return PushforwardMeasure(k, nu)
    tau = tau_or_kernel
    out = TauMixtureMeasure(tau, nu)
    # membership: mixed clipped-quadratic mass must be finite
    val = out.clip2_scaled(np.array([1.0]))[0]
    if not math.isfinite(float(val)):
        raise NotInDomain("clipped-quadratic-divergent")
    return out


def base_exponent_scaled(t: Triplet, z, us):
    """C(u z) for the base law, vectorized over the scale factors u.

    The jump integral with the transported centering needs the correction
    i u <z, int x (1/(1+|ux|^2) - 1/(1+|x|^2)) nu(dx)> to recover the base
    law's own centering.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    us = np.atleast_1d(np.asarray(us, dtype=float))
    quad = -0.5 * float(z @ t.A @ z) * us * us
    out = quad.astype(complex)
    out += 1j * us * float(t.gamma @ z)
    if not t.nu.is_zero():
        out += np.asarray(t.nu.cumulant_scaled(z, us))
        cent = np.asarray(t.nu.centering_scaled(us))
        out += 1j * us * (cent @ z)
    return out


def direct_exponent(k: Kernel, t: Triplet, z, p=None, q=None):
    """int C(f(s) z) ds over a window (the whole interval by default): the
    independent route to the transformed characteristic exponent."""
    z = np.atleast_1d(np.asarray(z, dtype=float))

    if t.nu.is_zero():
        # the exponent is a combination of int f and int f^2; closed-form
        # window hooks keep oscillatory kernels exact over deep windows
        zaz = -0.5 * float(z @ t.A @ z)
        gz = float(t.gamma @ z)

        def slab(w1, w2):
            val = 1j * gz * kernel_window_integral(k, w1, w2, "plain")
            if zaz != 0.0:
                val = val + zaz * kernel_window_integral(k, w1, w2, "square")
            return val
    else:
        def slab(w1, w2):
            fn = lambda s: base_exponent_scaled(t, z, k(s))
            return adaptive_quad(fn, w1, w2, rtol=1e-10)[0]

    if p is not None and q is not None:
        return complex(slab(p, q))
    res = improper_limit(slab, k.a, k.b, rtol=1e-9)
    if not res.converged:
        raise InconclusiveError("direct exponent window limit unresolved",
                                res.evidence)
    return complex(res.value)

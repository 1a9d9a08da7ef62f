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

The independent route to the transformed characteristic exponent,
:func:`direct_exponent`, integrates C(f(s) z) over s.  It takes one
argument z, or an (m_z, d) grid of them: the grid runs as one vector-valued
slab (one ``adaptive_quad`` over a window, one ``improper_limit`` run over
the whole interval), each exponent certified as its own component, with
the z-free centering computed once per integrand call.
"""

from __future__ import annotations

import copy
import enum
import functools
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
from .idlaw import Triplet, TypeClass, classify_type, drift, mean, symmetrize_triplet
from .kernels import Kernel, TauMeasure, hook_limit, kernel_mass, kernel_window_integral
from .measures import _ONE, INF, LevyMeasure
from .quadrature import (
    ImproperResult,
    adaptive_quad,
    improper_limit,
    improper_nonneg,
    slab_quad,
    window_schedule,
)
from .verdicts import Verdict, combine_all


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
    """The scale mixture nu~(B) = int nu(B/v) m(dv) of a base Levy measure.

    Every functional of nu~ at scale u is the same functional of the base
    measure at scale u v, mixed over m, so one ``scaled`` answers them all;
    zero scales, and every scale of a zero base, give 0 without mixing.
    Three functionals differ: over y = v x the centering weight 1/(1+|y|^2)
    sits at scale v, so the mixed per-scale centering is v (c(u v) - c(v));
    a base with an infinite clipped first moment has an infinite one at
    every nonzero scale; and the tail's radii r move to r / |v| with its
    scales, so an atom at r stays counted.  A call hands the mixing every
    scale it asks for as the components of one vector integrand, so it
    makes one mixing driver call however many there are; the base answers
    for all the scales of an outer quadrature panel in one call.

    A subclass supplies m through one hook, ``_mix(fn, f)``: it integrates
    the vectorized ``fn`` against m, for the :class:`Functional` record
    ``f``, and reads the result with :meth:`ImproperResult.certified`, so a
    certified divergence of a nonnegative (``f.nonneg``) mixture is +inf.
    The pushforward names ``f.label`` in its error and uses ``f.atol`` as
    its absolute panel tolerance; the occupation mixture ignores both
    (panel tolerance 1e-13, error label "occupation mixture").
    """

    base: LevyMeasure

    def _mix(self, fn, f):
        raise NotImplementedError

    def scaled(self, f, us):
        shape = f.shape(self.dim)
        out = np.zeros(us.shape + shape, f.dtype)
        nz = us != 0.0
        if self.base.is_zero() or not nz.any():
            return out
        if f.name == "clip1" and math.isinf(self.base.scaled(f, _ONE)[0]):
            # min(|v x|, 1) lies within a factor max(|v|, 1/|v|) of
            # min(|x|, 1): the base moment is infinite at every nonzero
            # scale, and the mixture wherever m has mass off 0
            off_zero = self._mix(lambda vs: (vs != 0.0).astype(float), f)
            return np.where(nz & (off_zero > 0.0), INF, 0.0)
        u = us[nz]

        def per_scale(vs):
            # the base values at the scales w = v u of the abscissae vs, one
            # row per v, flattened; the tail's at the radii r / |v|, inf at v = 0
            if f.name == "tail":
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    rv = np.where(vs[:, None] != 0.0, f.args[0][nz] / np.abs(vs[:, None]), INF)
                    w = 1.0 / rv
                return self.base.scaled(f._replace(args=(rv.ravel(),)), w.ravel())
            w = np.outer(vs, u)
            if f.name != "centering":
                return self.base.scaled(f, w.ravel())
            c = self.base.scaled(f, np.concatenate([w.ravel(), vs]))
            cw = c[:w.size].reshape(vs.size, -1, self.dim)
            return vs[:, None, None] * (cw - c[w.size:][:, None, :])
        out[nz] = self._mix(lambda vs: per_scale(vs).reshape((vs.size, u.size) + shape), f)
        return out

    def is_symmetric(self):
        return self.base.is_symmetric()

    def symmetrized(self):
        # nu(B/v) + nu(-B/v) = nu_sym(B/v): the same mixing over the
        # symmetrized base
        out = copy.copy(self)
        out.base = self.base.symmetrized()
        return out


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

    def _mix(self, fn, f):
        slab = slab_quad(lambda s: fn(np.atleast_1d(self.kernel(s))),
                         rtol=1e-9, atol=f.atol)
        if self.proper:
            return slab(self.p, self.q)
        res = improper_nonneg(slab, self.p, self.q) if f.nonneg else \
            improper_limit(slab, self.p, self.q, rtol=1e-9)
        return res.certified(f"pushforward {f.label}")


class TauMixtureMeasure(ScaleMixtureMeasure):
    """Levy measure transported by an occupation measure: the scale mixture
    over m = tau (atoms plus a density)."""

    def __init__(self, tau: TauMeasure, base: LevyMeasure):
        if tau.density is None and not tau.atoms:
            raise NotInDomain("occupation measure needs atoms or a density")
        self.tau = tau
        self.base = base
        self.dim = base.dim

    def _mix(self, fn, f):
        total = 0.0
        for u, m in self.tau.atoms:
            total = total + m * np.asarray(fn(np.array([u]))[0])
        if self.tau.density is not None:
            lo, hi = self.tau.density_support

            def weighted(u):
                vals = np.asarray(fn(u))
                dens = np.asarray(self.tau.density(u), dtype=float)
                return vals * dens.reshape((-1,) + (1,) * (vals.ndim - 1))

            slab = slab_quad(weighted, rtol=1e-10, atol=1e-13)
            res = improper_nonneg(slab, lo, hi, rtol=1e-10) if f.nonneg else \
                improper_limit(slab, lo, hi, rtol=1e-9)
            total = total + res.certified("occupation mixture")
        return total


# ---------------------------------------------------------------------------
# window-level operations
# ---------------------------------------------------------------------------

def _location(k: Kernel, t: Triplet):
    """The window location integrand
    f(s) gamma + int f(s) x (1/(1+|f(s)x|^2) - 1/(1+|x|^2)) nu(dx),
    vectorized in s with one row per abscissa."""
    def fn(s):
        us = np.atleast_1d(k(s))
        cent = np.asarray(t.nu.centering_scaled(us))
        return np.outer(us, t.gamma) + us[:, None] * cent
    return fn


def _gamma_slab(k: Kernel, t: Triplet):
    """Slab integral of the window location integrand.

    For a reflection-symmetric jump measure the inner vector vanishes
    identically, so the slab reduces to the kernel's window integral and
    oscillatory kernels stay exact through their closed-form hooks.
    """
    if t.nu.is_zero() or t.nu.is_symmetric():
        return lambda p, q: t.gamma * kernel_window_integral(k, p, q, "plain")
    return slab_quad(_location(k, t), rtol=1e-10, atol=1e-12)


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
        v2 = float(PushforwardMeasure(k, t.nu, p, q).clip2_scaled(_ONE)[0])
        if not math.isfinite(v2):
            return Verdict.no("window-clipped-quadratic-divergent")
        loc = _location(k, t)
        v3 = adaptive_quad(lambda s: np.linalg.norm(loc(s), axis=1), p, q, rtol=1e-9)[0]
        if not math.isfinite(float(v3)):
            return Verdict.no("window-location-divergent")
        return Verdict.yes("window-integrable", clipped_quadratic=v2,
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
    return kernel_mass(k, "square").verdict("square-mass")


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
    quad = slab_quad(lambda s: nu.clip2_scaled(np.atleast_1d(k(s))),
                     rtol=1e-8, atol=1e-11)
    if atomic_fast:
        rmax = float(np.max(nu.radii))
        m2 = float((nu.masses * nu.radii ** 2).sum())

        def slab(p, q):
            if k.abs_bound(p, q) * rmax <= 1.0:
                return m2 * kernel_window_integral(k, p, q, "square")
            return quad(p, q)
    else:
        slab = quad

    return improper_nonneg(slab, k.a, k.b).verdict("clipped-quadratic")


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


_DOMAINS = ("absolute", "plain", "compensated", "essential")


def _domain_pass(k: Kernel, t: Triplet, which=_DOMAINS, use_rules=True):
    """The verdicts of the domains in ``which`` and the rule table that
    decided them.  Each domain is the essential conditions plus one clause;
    the essential numerics run at most once, for absolute and essential
    always and for plain and compensated when their rule is undetermined."""
    if not set(which) <= set(_DOMAINS):
        raise ValueError(f"unknown domains {sorted(set(which) - set(_DOMAINS))}")
    rules = _rules(k, t, use_rules)
    base = functools.cache(lambda: combine_all(_gaussian_condition(k, t),
                                               _jump_condition(k, t)))
    cond = functools.cache(lambda: _rule_override(rules, "essential", base()))
    out = {}
    for name in which:
        rule = _determined(rules, name)
        if name == "absolute":
            out[name] = _rule_override(rules, name, _absolute_location(k, t, base()))
        elif name == "essential":
            out[name] = cond()
        elif rule is not None:
            out[name] = rule
        elif not cond().is_yes:
            out[name] = cond()
        elif name == "plain":
            out[name] = _drive_gamma(k, t).verdict("location-trace")
        else:
            try:
                _phi_c(k, t, rules, cond())
                out[name] = Verdict.yes("compensation-found")
            except NotDefinable as e:
                out[name] = Verdict.no(e.reason)
            except (InconclusiveError, QuadratureFailure) as e:
                out[name] = Verdict.unknown("compensation-uncertified", detail=str(e))
    return out, rules


def _absolute_location(k: Kernel, t: Triplet, base: Verdict) -> Verdict:
    """The essential numerics ``base`` plus the absolute location clause."""
    if base.is_no:
        return base
    if t.is_symmetric():
        # the location integrand vanishes identically
        return base if base.is_unknown else Verdict.yes("symmetric-collapse")
    if t.nu.is_zero():
        norm = float(np.linalg.norm(t.gamma))
        slab = lambda p, q: kernel_window_integral(k, p, q, "abs") * norm
    else:
        loc = _location(k, t)
        slab = slab_quad(lambda s: np.linalg.norm(loc(s), axis=1), rtol=1e-8, atol=1e-11)
    numeric = improper_nonneg(slab, k.a, k.b).verdict("absolute-location")
    return combine_all(base, numeric) if numeric.is_yes else numeric


def domain_verdicts(k: Kernel, t: Triplet, which=_DOMAINS, use_rules=True) -> dict:
    """Three-valued membership in each domain of ``which`` (absolute within
    plain within compensated within essential), from one lookup of the
    closed-form rules and at most one run of the essential numerics."""
    return _domain_pass(k, t, which, use_rules)[0]


def absolutely_definable(k: Kernel, t: Triplet, use_rules=True) -> Verdict:
    """Absolute convergence of the characteristic-exponent integral.

    Strongest of the domains: requires the essential conditions plus the
    absolute location clause.
    """
    return domain_verdicts(k, t, ("absolute",), use_rules)["absolute"]


def definable_verdict(k: Kernel, t: Triplet, use_rules=True) -> Verdict:
    """Three-valued membership in the plain transform domain."""
    return domain_verdicts(k, t, ("plain",), use_rules)["plain"]


def compensated_verdict(k: Kernel, t: Triplet, use_rules=True) -> Verdict:
    """Three-valued membership in the compensated transform domain."""
    return domain_verdicts(k, t, ("compensated",), use_rules)["compensated"]


def essential_conditions(k: Kernel, t: Triplet, use_rules=True) -> Verdict:
    """Definability of the essential (and symmetrized) transform.

    With ``use_rules=False`` only the certified window numerics run; this is
    the independent route the closed-form rules are checked against.
    """
    return domain_verdicts(k, t, ("essential",), use_rules)["essential"]


def _result_measure(k: Kernel, t: Triplet):
    return None if t.nu.is_zero() else PushforwardMeasure(k, t.nu)


def _result_gaussian(k: Kernel, t: Triplet):
    if not t.has_gaussian_part:
        return np.zeros_like(t.A)
    return float(np.max(kernel_mass(k, "square").certified("total square mass"))) * t.A


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
        res = hook_limit(k, scale=t.gamma)
        if res is not None:
            return res
    return improper_limit(_gamma_slab(k, t), k.a, k.b, rtol=1e-8)


def _gate(k: Kernel, t: Triplet, rules: dict, which=None, cond=None) -> Verdict:
    """The definability gate of the transforms: the essential conditions
    must hold, and the closed-form rule for ``which`` must not exclude the
    law.  Returns the essential verdict; a caller that has computed it
    already hands it in as ``cond``."""
    if cond is None:
        cond = _rule_override(rules, "essential", combine_all(
            _gaussian_condition(k, t), _jump_condition(k, t)))
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
    """Symmetrized transform: the plain transform of the symmetrized law,
    Phi_f^sym(mu) = Phi_f(mu^sym), whose location is zero."""
    return phi(k, symmetrize_triplet(t))


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
    fres = kernel_mass(k)
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
    elif t.nu.is_zero() or t.nu.is_symmetric():
        # with no or symmetric jumps the window locations are exactly
        # gamma F_pq: theta = gamma takes them all and leaves location zero
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
        slab = slab_quad(lambda s: t.nu.clip1_scaled(np.atleast_1d(k(s))),
                         rtol=1e-8, atol=1e-11)
        clip_ok = improper_nonneg(slab, k.a, k.b).verdict("clipped-linear")
    if clip_ok.is_no:
        raise NotDefinable(clip_ok.reason, clip_ok.witness)
    if clip_ok.is_unknown:
        raise InconclusiveError(clip_ok.reason, clip_ok.witness)

    if float(np.max(np.abs(gamma0))) == 0.0:
        f_total = 0.0
        mode_note = "drift-free"
    else:
        fres = kernel_mass(k)
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
        out = PushforwardMeasure(tau_or_kernel, nu)
    else:
        out = TauMixtureMeasure(tau_or_kernel, nu)
    # membership: the mixed clipped-quadratic mass must be finite
    if not math.isfinite(float(out.clip2_scaled(_ONE)[0])):
        raise NotInDomain("clipped-quadratic-divergent")
    return out


def _gaussian_drift(t: Triplet, z):
    """<z, A z> and <gamma, z>: floats for one argument z, one entry per row
    of an (m_z, d) grid z."""
    if z.ndim == 2:
        return np.einsum("zi,ij,zj->z", z, t.A, z), z @ t.gamma
    return float(z @ t.A @ z), float(t.gamma @ z)


def base_exponent_scaled(t: Triplet, z, us):
    """C(u z) for the base law, vectorized over the scale factors u: shape
    (m,) for one argument z, and (m, m_z) for an (m_z, d) grid of them, whose
    jump part is one cumulant call and whose centering is computed once.

    The jump integral with the transported centering needs the correction
    i u <z, int x (1/(1+|ux|^2) - 1/(1+|x|^2)) nu(dx)> to recover the base
    law's own centering.
    """
    z = np.asarray(z, dtype=float)
    z = z if z.ndim == 2 else np.atleast_1d(z)
    us = np.atleast_1d(np.asarray(us, dtype=float))
    zaz, gz = _gaussian_drift(t, z)
    u = us.reshape(us.shape + (1,) * (z.ndim - 1))   # one column per argument
    quad = -0.5 * zaz * u * u
    out = quad.astype(complex)
    out += 1j * u * gz
    if not t.nu.is_zero():
        out += np.asarray(t.nu.cumulant_scaled(z, us))
        cent = np.asarray(t.nu.centering_scaled(us))
        out += 1j * u * (cent @ z.T)
    return out


def direct_exponent(k: Kernel, t: Triplet, z, p=None, q=None):
    """int C(f(s) z) ds over a window (the whole interval by default): the
    independent route to the transformed characteristic exponent.  One
    argument z gives a complex number; an (m_z, d) grid gives the m_z
    exponents from one vector-valued slab, each certified on its own."""
    z = np.asarray(z, dtype=float)
    grid = z.ndim == 2
    z = z if grid else np.atleast_1d(z)

    if t.nu.is_zero():
        # the exponent is a combination of int f and int f^2; closed-form
        # window hooks keep oscillatory kernels exact over deep windows
        zaz, gz = _gaussian_drift(t, z)
        zaz = -0.5 * zaz

        def slab(w1, w2):
            val = 1j * gz * kernel_window_integral(k, w1, w2, "plain")
            if np.any(zaz != 0.0):
                val = val + zaz * kernel_window_integral(k, w1, w2, "square")
            return val
    else:
        slab = slab_quad(lambda s: base_exponent_scaled(t, z, k(s)),
                         rtol=1e-10, atol=1e-13)

    if p is not None and q is not None:
        val = slab(p, q)
    else:
        val = improper_limit(slab, k.a, k.b, rtol=1e-9).certified("direct exponent")
    return np.asarray(val, dtype=complex) if grid else complex(val)

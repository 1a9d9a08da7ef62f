"""Closed-form domain rules and kernel largeness classification.

Kernels tagged with an asymptotic class admit closed-form membership rules
for the four transform domains, phrased as tail-moment tests on the Levy
measure (plus a mean side condition).  A kernel that blows up at its left
endpoint is decided on the dual law: the inversion x -> x/|x|^2 sends
|x|^m nu(dx) near 0 to |y|^(2-m) in the tail and the drift to minus the
mean, so its rule is the matching tail rule on ``idlaw.dual(t)``.
Separately, integral profiles of the kernel alone decide how large the
domains are: everything, all finite activity/variation laws, or nothing but
point masses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IdcalcError,
    InconclusiveError,
    NoMean,
    NonnegativeRequired,
    QuadratureFailure,
    UnsupportedTag,
)
from .idlaw import Triplet, TypeClass, classify_type, drift, dual, mean
from .kernels import (
    DoubleExp,
    ExpTail,
    Kernel,
    LogPower,
    PowerAtZero,
    PowerTail,
    default_grid,
    kernel_mass,
    kernel_window_integral,
)
from .measures import INF, StableMeasure, SumMeasure
from .quadrature import improper_limit, improper_nonneg, slab_quad, window_schedule
from .verdicts import Verdict, combine_all

_ZERO_TOL = 1e-12


# ---------------------------------------------------------------------------
# radial moment functionals of a Levy measure
# ---------------------------------------------------------------------------

def radial_moment(nu, g, lo=0.0, hi=INF, stable_power=None, stable_log=0.0):
    """int g(|x|) nu(dx) over the radius region [lo, hi).

    ``stable_power``/``stable_log`` describe g as r^m (log factor)^c so the
    stable family can be decided on a tail region (hi = inf, lo > 0) by the
    exact exponent test instead of window certification.
    """
    if isinstance(nu, SumMeasure):
        parts = [radial_moment(p, g, lo, hi, stable_power, stable_log)
                 for p in nu.parts]
        return INF if any(v == INF for v in parts) else float(sum(parts))
    if isinstance(nu, StableMeasure) and stable_power is not None and hi == INF:
        # int^inf r^m (log r)^c r^(-alpha-1) dr: finite iff m < alpha, or
        # m = alpha and c < -1
        m, al = stable_power, nu.alpha
        if not (m < al if abs(m - al) > 1e-12 else stable_log < -1.0):
            return INF
        v = nu.radial_integral(g, lo)
        if v == INF:
            # finiteness is certain; only the value is unresolved
            raise InconclusiveError("stable radial moment not certified")
        return nu.weight_sum() * float(v)
    return nu.integral(lambda x: g(np.sqrt((x * x).sum(axis=1))), lo, hi)


def _moment_verdict(label, fn):
    try:
        v = fn()
    except InconclusiveError as e:
        return Verdict.unknown(f"{label}-uncertified", detail=str(e))
    if v == INF or not math.isfinite(v):
        return Verdict.no(f"{label}-divergent")
    return Verdict.yes(f"{label}-finite", value=v)


def tail_power_moment_verdict(nu, p):
    """int_{|x| >= 1} |x|^p nu(dx) finite?"""
    return _moment_verdict(
        f"tail-moment[{p:g}]",
        lambda: radial_moment(nu, lambda r: r ** p, 1.0, INF, stable_power=p))


def log_plus_moment_verdict(nu, inv_alpha):
    """int (log+ |x|)^(1/alpha) nu(dx) finite?"""
    return _moment_verdict(
        f"log-moment[{inv_alpha:g}]",
        lambda: radial_moment(nu, lambda r: np.log(r) ** inv_alpha,
                              math.e, INF, stable_power=0.0, stable_log=inv_alpha))


def loglog_moment_verdict(nu):
    """int_{|x| > e^e} log log |x| nu(dx) finite? (tail behavior only)"""
    return _moment_verdict(
        "loglog-moment",
        lambda: radial_moment(nu, lambda r: np.log(np.log(r)),
                              math.exp(1.5), INF, stable_power=0.0))


def tail_log_power_moment_verdict(nu, beta):
    """int_{|x| > 2} |x| (log|x|)^(-beta) nu(dx) finite?"""
    return _moment_verdict(
        f"tail-log-moment[{beta:g}]",
        lambda: radial_moment(nu, lambda r: r * np.log(r) ** (-beta),
                              2.0, INF, stable_power=1.0, stable_log=-beta))


# ---------------------------------------------------------------------------
# side conditions of the tail rules
# ---------------------------------------------------------------------------

def _oscillation_verdicts(t):
    """The two logarithmic-scale conditions of the borderline power rule:
    convergence of int_1^inf s^-1 V(s) ds and finiteness of
    int_1^inf s^-1 |V(s)| ds, where V is the first-moment vector of the
    jumps beyond s."""
    nu = t.nu
    if nu.is_zero() or nu.is_symmetric():
        z = Verdict.yes("first-moment-vector-vanishes")
        return z, z

    def fn_signed(s):
        # V(s) / s at every abscissa in one call: the jumps of x / s beyond 1
        return nu.vector_weighted_scaled(np.ones_like, 1.0 / np.asarray(s), 1.0, INF)

    def fn_abs(s):
        return np.linalg.norm(fn_signed(s), axis=1)

    # an absolutely convergent integral converges, so the signed driver runs
    # only when the absolute one does not certify
    v_abs = improper_nonneg(slab_quad(fn_abs, rtol=1e-9), 1.0, INF).verdict(
        "log-scale-compensation-absolutely")
    if v_abs.is_yes:
        return Verdict.yes("log-scale-compensation-convergent"), v_abs
    lim = improper_limit(slab_quad(fn_signed, rtol=1e-9), 1.0, INF, rtol=1e-8)
    return lim.verdict("log-scale-compensation"), v_abs


def _mean_zero_verdict(t):
    try:
        m = mean(t)
    except NoMean:
        return Verdict.no("mean-does-not-exist")
    except InconclusiveError as e:
        return Verdict.unknown("mean-uncertified", detail=str(e))
    if float(np.max(np.abs(m))) <= _ZERO_TOL:
        return Verdict.yes("mean-zero")
    return Verdict.no("mean-nonzero", mean=np.asarray(m).tolist())


# ---------------------------------------------------------------------------
# rules per asymptotic tag
# ---------------------------------------------------------------------------

_DOMAINS = ("essential", "compensated", "plain", "absolute")


def _same(v):
    """One verdict for all four domains."""
    return dict.fromkeys(_DOMAINS, v)


def _power_tail_rule(tag: PowerTail, t: Triplet):
    al = tag.alpha
    if al >= 2.0:
        # the essential domain collapses to point masses
        dirac = not t.has_gaussian_part and t.nu.is_zero()
        es = Verdict.yes("point-mass") if dirac else \
            Verdict.no("essential-domain-trivial")
        pl = Verdict.yes("point-mass-at-origin") if dirac and not np.any(t.gamma) \
            else Verdict.no("plain-domain-trivial")
        return {"essential": es, "compensated": es, "plain": pl, "absolute": pl}
    es = tail_power_moment_verdict(t.nu, al)
    if abs(al - 1.0) > 1e-12 and al < 1.0:
        return _same(es)
    if al > 1.0:
        if es.is_yes:
            strict = combine_all(es, _mean_zero_verdict(t))
        else:
            strict = es
        return {"essential": es, "compensated": es, "plain": strict,
                "absolute": strict}
    # al == 1: needs the kernel to be integrably close to c/s
    if tag.exact_coefficient is None:
        u = Verdict.unknown("borderline-rule-needs-exact-coefficient")
        return {"essential": es, "compensated": u, "plain": u, "absolute": u}
    if es.is_no:
        return _same(es)
    v_lim, v_abs = _oscillation_verdicts(t)
    comp = combine_all(es, v_lim)
    plain = combine_all(comp, _mean_zero_verdict(t))
    absolute = combine_all(es, v_abs, _mean_zero_verdict(t))
    return {"essential": es, "compensated": comp, "plain": plain,
            "absolute": absolute}


def _exp_tail_rule(tag: ExpTail, t: Triplet):
    return _same(log_plus_moment_verdict(t.nu, 1.0 / tag.alpha))


def _double_exp_rule(tag: DoubleExp, t: Triplet):
    return _same(loglog_moment_verdict(t.nu))


def _log_power_rule(tag: LogPower, t: Triplet):
    u = Verdict.unknown("only-strictness-known-for-this-class")
    return {"essential": tail_log_power_moment_verdict(t.nu, tag.beta),
            "compensated": u, "plain": u, "absolute": u}


_TAIL_RULES = {PowerTail: _power_tail_rule, ExpTail: _exp_tail_rule,
               DoubleExp: _double_exp_rule, LogPower: _log_power_rule}


def _tail_tag_of_dual(tag):
    """The tail tag that decides a blow-up-at-zero tag on the dual law, or
    None for a tail tag.  f ~ s^-q at 0 meets |x|^(1/q) nu(dx) near 0, which
    the inversion sends to |y|^(2 - 1/q) in the tail; at q = 1/2 the
    exponent is 0 with a logarithm, the rule of ExpTail(1)."""
    if isinstance(tag, LogPower) and tag.at_zero:
        return LogPower(tag.beta)
    if not isinstance(tag, PowerAtZero):
        return None
    if abs(tag.exponent - 0.5) <= 1e-12:
        return ExpTail(1.0)
    al = 2.0 - 1.0 / tag.exponent
    return PowerTail(al, 1.0 if abs(al - 1.0) <= 1e-12 else None)


def domain_rule_verdicts(k: Kernel, t: Triplet):
    """Closed-form membership verdicts {absolute, plain, compensated,
    essential} for a tagged kernel; raises :class:`UnsupportedTag` when the
    kernel carries no supported asymptotic tag, or when a blow-up-at-zero
    tag meets a law whose Levy measure has no dual (a lazy scale mixture)."""
    tag = k.tag
    if tag is None:
        raise UnsupportedTag(f"kernel {k.name!r} carries no asymptotic tag")
    if isinstance(tag, PowerAtZero) and tag.exponent < 0.5 - 1e-12:
        return _same(Verdict.yes("square-and-support-finite"))
    dual_tag = _tail_tag_of_dual(tag)
    if dual_tag is not None:
        # f is not square-integrable at 0, so a Gaussian part is excluded
        if t.has_gaussian_part:
            return _same(Verdict.no("gaussian-part-excluded"))
        try:
            tag, t = dual_tag, dual(t)
        except IdcalcError as e:
            raise UnsupportedTag(f"no dual law to decide {k.tag!r} on: {e}") from e
    rule = _TAIL_RULES.get(type(tag))
    if rule is None:
        raise UnsupportedTag(f"unknown tag {tag!r}")
    return rule(tag, t)


# ---------------------------------------------------------------------------
# kernel profiles
# ---------------------------------------------------------------------------

@dataclass
class KernelProfile:
    indicator_mass: float
    abs_mass: float
    square_mass: float
    clipped_square: float
    k_of_r: dict = field(default_factory=dict)   # r -> value (may be None)
    h_of_r: dict = field(default_factory=dict)
    certified: bool = True


# the r grid of the level functions k(r) and h(r)
_R_GRID = np.logspace(-6, 0, 25)


def _profile_mass(k, kind):
    """A whole-interval kernel mass and whether a closed form gave it."""
    res = kernel_mass(k, kind)
    value = float(np.max(res.certified(f"kernel {kind} mass")))
    return value, res.evidence.get("rule") in ("profile", "hook")


# the level functions of the profile at threshold 1/r: the square of f below
# it (k of r) and the indicator of f above it (h of r)
_LEVEL_INTEGRANDS = {
    "k_of_r": lambda v, thr: np.where(np.abs(v) <= thr, v * v, 0.0),
    "h_of_r": lambda v, thr: (np.abs(v) > thr).astype(float),
}


def _level_numeric(k, kind, r):
    """The level function ``kind`` at r by the window driver, None when it
    is not certified."""
    g = _LEVEL_INTEGRANDS[kind]
    thr = 1.0 / r
    res = improper_nonneg(slab_quad(lambda s: g(k(s), thr), rtol=1e-8), k.a, k.b)
    try:
        return float(np.max(res.certified(kind)))
    except InconclusiveError:
        return None


def kernel_profile(k: Kernel) -> KernelProfile:
    """Integral profile of the kernel: support mass, absolute and square
    masses, the clipped square, and the small-level / large-level functions
    on a logarithmic grid in r."""
    masses = [_profile_mass(k, kind) for kind in ("indicator", "abs", "square", "clipped")]
    hooks = {kind: k.profile.get(kind) for kind in _LEVEL_INTEGRANDS}
    if hooks["h_of_r"] is None and k.level_upper is not None and k.nonnegative:
        # h(r) = Leb{f > 1/r} is the level function itself
        hooks["h_of_r"] = lambda x: k.level_upper(1.0 / x)
    certified = all(c for _, c in masses) and None not in hooks.values()

    def on_grid(kind):
        # a hook may return None where it has no closed form
        out = {}
        for r in map(float, _R_GRID):
            v = None if hooks[kind] is None else hooks[kind](r)
            out[r] = _level_numeric(k, kind, r) if v is None else v
        return out
    return KernelProfile(*(v for v, _ in masses), on_grid("k_of_r"),
                         on_grid("h_of_r"), certified)


def _locally_integrable_kernel(k: Kernel):
    """Whether |f| has a finite integral over the windows of levels 0, 3 and
    6 of the drivers' schedule, compacts that reach toward both ends; None
    when a window is not certified."""
    try:
        for p, q in window_schedule(k.a, k.b, 6)[::3]:
            if not math.isfinite(float(kernel_window_integral(k, p, q, "abs"))):
                return False
    except (QuadratureFailure, InconclusiveError):
        return None
    return True


def _bounded_on_grid(values, mode):
    """Trend test for O(1/r) or O(r) conditions on a log grid.

    ``mode='k'`` checks r * k(r) bounded as r -> 0; ``mode='h'`` checks
    h(r) / r bounded.  Returns Verdict.
    """
    rs = np.array(sorted(values.keys()))
    vals = []
    for r in rs:
        v = values[r]
        if v is None:
            return Verdict.unknown(f"{mode}-profile-uncertified")
        if v == INF:
            return Verdict.no(f"{mode}-profile-infinite", r=float(r))
        vals.append(v * r if mode == "k" else (v / r))
    vals = np.array(vals)
    if np.all(vals <= 1e-12):
        return Verdict.yes(f"{mode}-profile-vanishes")
    # compare the small-r half against the large-r half
    half = len(vals) // 2
    low = float(np.max(vals[:half]))
    high = float(np.max(vals[half:]))
    if low <= 4.0 * max(high, 1e-12):
        return Verdict.yes(f"{mode}-profile-bounded", sup=float(np.max(vals)))
    # growing toward r = 0: fit the growth order
    return Verdict.no(f"{mode}-profile-unbounded", low=low, high=high)


class LargenessClass(enum.Enum):
    ALL_ID = "all-id"
    AB_PRESERVING = "ab-preserving"
    AB_INTO_ESSENTIAL = "ab-into-essential"
    TRIVIAL_ESSENTIAL = "trivial-essential"
    TRIVIAL_ABSOLUTE_ZERO = "trivial-absolute-zero"
    NONE = "none"


def largeness_conditions(k: Kernel):
    """The one largeness pass: (evidence, profile), the evidence of every
    largeness condition from one kernel profile and one local-integrability
    check.  Every largeness ladder reads its label off this evidence."""
    prof = kernel_profile(k)
    loc = _locally_integrable_kernel(k)
    ev = {}
    fin = lambda v: v is not None and v != INF and math.isfinite(v)
    ev["support-finite"] = Verdict.yes("support-mass-finite", value=prof.indicator_mass) \
        if fin(prof.indicator_mass) else Verdict.no("support-mass-infinite")
    ev["square-finite"] = Verdict.yes("square-mass-finite", value=prof.square_mass) \
        if fin(prof.square_mass) else Verdict.no("square-mass-infinite")
    ev["abs-finite"] = Verdict.yes("abs-mass-finite", value=prof.abs_mass) \
        if fin(prof.abs_mass) else Verdict.no("abs-mass-infinite")
    if prof.clipped_square is None:
        ev["clipped-square-infinite"] = Verdict.unknown("clipped-square-unavailable")
    else:
        ev["clipped-square-infinite"] = Verdict.yes(
            "clipped-square-infinite") if prof.clipped_square == INF else \
            Verdict.no("clipped-square-finite", value=prof.clipped_square)
    if loc is None:
        ev["locally-integrable"] = Verdict.unknown("local-integrability-unsampled")
    else:
        ev["locally-integrable"] = Verdict.yes("locally-integrable") if loc else \
            Verdict.no("not-locally-integrable")
    ev["small-level-bounded"] = _bounded_on_grid(prof.k_of_r, "k")
    ev["large-level-bounded"] = _bounded_on_grid(prof.h_of_r, "h")
    ev["all-id"] = combine_all(ev["support-finite"], ev["square-finite"])
    ev["ab-preserving"] = combine_all(ev["support-finite"], ev["abs-finite"])
    ev["ab-into-essential"] = combine_all(
        ev["locally-integrable"], ev["support-finite"],
        ev["small-level-bounded"], ev["large-level-bounded"])
    ev["trivial-essential"] = combine_all(
        ev["locally-integrable"], ev["clipped-square-infinite"])
    abs_inf = Verdict.yes("abs-mass-infinite") if ev["abs-finite"].is_no else (
        Verdict.no("abs-mass-finite") if ev["abs-finite"].is_yes else
        Verdict.unknown("abs-mass-uncertified"))
    ev["trivial-absolute-zero"] = combine_all(
        ev["clipped-square-infinite"], abs_inf)
    return ev, prof


# (label, evidence key) ladders, strongest label first; the value of each
# largeness class is its evidence key
_CLASS_LADDER = tuple((cls, cls.value) for cls in LargenessClass
                      if cls is not LargenessClass.NONE)
_PSI_LADDER = (("all-levy-measures", "all-id"),
               ("finite-variation-preserving", "ab-preserving"),
               ("finite-variation-covered", "ab-into-essential"),
               ("trivial-zero", "clipped-square-infinite"))
_CONE_LADDER = (("preserving", "ab-preserving"),
                ("essential-cover", "ab-into-essential"))


def _strongest(ladder, ev, none):
    """The first label of ``ladder`` whose evidence reads yes (``none`` if
    no label does), with the evidence of every label."""
    return (next((label for label, key in ladder if ev[key].is_yes), none),
            {label: ev[key] for label, key in ladder})


def classify_largeness(k: Kernel):
    """Strongest largeness class with its evidence dictionary."""
    ev, prof = largeness_conditions(k)
    cls, _ = _strongest(_CLASS_LADDER, ev, LargenessClass.NONE)
    return cls, {"evidence": ev, "certified": prof.certified}


# ---------------------------------------------------------------------------
# cone statements (coordinate orthants)
# ---------------------------------------------------------------------------

def _orthant_contains(signs, vec, tol=0.0):
    signs = np.asarray(signs, dtype=float)
    return bool(np.all(signs * np.asarray(vec) >= -tol))


def cone_support(t: Triplet, orthant_signs):
    """Support of the law within a signed coordinate orthant.

    Requires finite activity or finite variation, the jump measure and the
    drift both confined to the orthant.
    """
    signs = np.asarray(orthant_signs, dtype=float)
    if signs.shape != (t.dim,) or not np.all(np.abs(signs) == 1.0):
        raise ValueError("orthant must be a vector of +-1 signs")
    tclass = classify_type(t)
    if tclass is TypeClass.C:
        return False, {"clause": "needs-finite-variation", "type": tclass.value}
    sup = t.nu.supported_in_orthant(signs)
    if sup is False:
        return False, {"clause": "jump-support-outside"}
    if sup is None:
        return False, {"clause": "jump-support-unknown"}
    g0 = drift(t)
    if not _orthant_contains(signs, g0):
        return False, {"clause": "drift-outside", "drift": g0.tolist()}
    return True, {"clause": None, "drift": g0.tolist()}


def cone_largeness(k: Kernel, orthant_signs=None):
    """Largeness statements for laws supported on an orthant.

    Returns (label, evidence) where label is the strongest of
    'preserving', 'essential-cover', 'none'.  The labels depend on the
    kernel only: ``orthant_signs`` does not enter.
    """
    samples = np.asarray(k(default_grid(k, 512)), dtype=float)
    if np.any(samples < 0):
        raise NonnegativeRequired("cone statements need a nonnegative kernel")
    return _strongest(_CONE_LADDER, largeness_conditions(k)[0], "none")


def psi_largeness(k: Kernel):
    """Largeness of the measure-transform domain.

    Returns (label, evidence): 'all-levy-measures', 'finite-variation-
    preserving', 'finite-variation-covered', 'trivial-zero' or 'none'.
    """
    return _strongest(_PSI_LADDER, largeness_conditions(k)[0], "none")

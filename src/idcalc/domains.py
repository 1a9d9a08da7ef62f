"""Closed-form domain rules and kernel largeness classification.

Kernels tagged with an asymptotic class admit closed-form membership rules
for the four transform domains, phrased as moment tests on the Levy measure
(plus mean/drift side conditions).  Separately, integral profiles of the
kernel alone decide how large the domains are: everything, all finite
activity/variation laws, or nothing but point masses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InconclusiveError,
    NoDrift,
    NoMean,
    NonnegativeRequired,
    QuadratureFailure,
    UnsupportedTag,
)
from .idlaw import Triplet, TypeClass, classify_type, drift, mean
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
from .quadrature import improper_limit, improper_nonneg, slab_quad
from .verdicts import Verdict, combine_all

_ZERO_TOL = 1e-12


# ---------------------------------------------------------------------------
# radial moment functionals of a Levy measure
# ---------------------------------------------------------------------------

def _stable_power_log_finite(alpha, m, c, end):
    """Exact convergence decision for int r^m (log-ish)^c against the stable
    radial density near one end ('tail' from some positive lo, 'body' to 0)."""
    if end == "tail":
        if m < alpha - 1e-12:
            return True
        if m > alpha + 1e-12:
            return False
        return c < -1.0
    else:
        if m > alpha + 1e-12:
            return True
        if m < alpha - 1e-12:
            return False
        return c < -1.0


def radial_moment(nu, g, lo=0.0, hi=INF, stable_power=None, stable_log=0.0):
    """int g(|x|) nu(dx) over the radius region [lo, hi).

    ``stable_power``/``stable_log`` describe g as r^m (log factor)^c so the
    stable family can be decided by the exact exponent test instead of
    window certification.
    """
    if isinstance(nu, SumMeasure):
        parts = [radial_moment(p, g, lo, hi, stable_power, stable_log)
                 for p in nu.parts]
        return INF if any(v == INF for v in parts) else float(sum(parts))
    if isinstance(nu, StableMeasure) and stable_power is not None:
        end = "tail" if hi == INF else "body"
        ok = _stable_power_log_finite(nu.alpha, stable_power, stable_log, end)
        if not ok:
            return INF
        dens = lambda r: r ** (-nu.alpha - 1.0)
        fn = lambda r: np.asarray(g(r), dtype=float) * dens(r)
        res = improper_nonneg(slab_quad(fn, rtol=1e-10), lo, hi)
        if not res.converged:
            # finiteness is certain; only the value is unresolved
            raise InconclusiveError("stable radial moment not certified",
                                    res.evidence)
        return nu.weight_sum() * float(np.max(res.value))
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


def body_power_moment_verdict(nu, p):
    """int_{|x| < 1} |x|^p nu(dx) finite?"""
    return _moment_verdict(
        f"small-jump-moment[{p:g}]",
        lambda: radial_moment(nu, lambda r: r ** p, 0.0, 1.0, stable_power=p))


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


def body_log_moment_verdict(nu):
    """int_{|x| < 1} |x|^2 log(1/|x|) nu(dx) finite?"""
    return _moment_verdict(
        "small-jump-log-moment",
        lambda: radial_moment(nu, lambda r: r * r * np.log(1.0 / r),
                              0.0, 1.0, stable_power=2.0, stable_log=1.0))


def body_log_power_moment_verdict(nu, beta):
    """int_{|x| < 1/2} |x| (log(1/|x|))^(-beta) nu(dx) finite?"""
    return _moment_verdict(
        f"small-jump-log-moment[{beta:g}]",
        lambda: radial_moment(nu, lambda r: r * np.log(1.0 / r) ** (-beta),
                              0.0, 0.5, stable_power=1.0, stable_log=-beta))


def tail_first_vector(nu, s):
    """int_{|x| >= s} x nu(dx) (requires a finite tail first moment)."""
    if isinstance(nu, StableMeasure):
        if nu.alpha <= 1.0:
            raise InconclusiveError("tail first moment diverges for this index")
        return nu.direction_sum() * s ** (1.0 - nu.alpha) / (nu.alpha - 1.0)
    if isinstance(nu, SumMeasure):
        return sum(tail_first_vector(p, s) for p in nu.parts)
    return nu.vector_weighted(lambda r: np.ones_like(r), s, INF)


def body_first_vector(nu, s):
    """int_{|x| < s} x nu(dx)."""
    if isinstance(nu, StableMeasure):
        if nu.alpha >= 1.0:
            raise InconclusiveError("small-jump first moment diverges")
        return nu.direction_sum() * s ** (1.0 - nu.alpha) / (1.0 - nu.alpha)
    if isinstance(nu, SumMeasure):
        return sum(body_first_vector(p, s) for p in nu.parts)
    return nu.vector_weighted(lambda r: np.ones_like(r), 0.0, s)


# ---------------------------------------------------------------------------
# side conditions shared by the alpha = 1 rules
# ---------------------------------------------------------------------------

def _oscillation_verdicts(t, s0, side):
    """The two logarithmic-scale conditions of the borderline power rules:
    convergence of int s^-1 V(s) ds and finiteness of int s^-1 |V(s)| ds,
    where V is the first-moment vector of the jumps beyond / below s."""
    nu = t.nu
    if nu.is_zero() or nu.is_symmetric():
        z = Verdict.yes("first-moment-vector-vanishes")
        return z, z

    if side == "tail":
        vec = lambda s: tail_first_vector(nu, s)
        a, b = s0, INF
    else:
        vec = lambda s: body_first_vector(nu, s)
        a, b = 0.0, s0

    def fn_signed(s):
        return np.stack([np.asarray(vec(float(x))) / float(x)
                         for x in np.atleast_1d(s)])

    def fn_abs(s):
        return np.array([float(np.linalg.norm(vec(float(x)))) / float(x)
                         for x in np.atleast_1d(s)])

    lim = improper_limit(slab_quad(fn_signed, rtol=1e-9), a, b, rtol=1e-8)
    ab = improper_nonneg(slab_quad(fn_abs, rtol=1e-9), a, b)
    return (lim.verdict("log-scale-compensation"),
            ab.verdict("log-scale-compensation-absolutely"))


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


def _drift_zero_verdict(t):
    try:
        g0 = drift(t)
    except NoDrift:
        return Verdict.no("drift-does-not-exist")
    except InconclusiveError as e:
        return Verdict.unknown("drift-uncertified", detail=str(e))
    if float(np.max(np.abs(g0))) <= _ZERO_TOL:
        return Verdict.yes("drift-zero")
    return Verdict.no("drift-nonzero", drift=np.asarray(g0).tolist())


def _no_gaussian_verdict(t):
    if t.has_gaussian_part:
        return Verdict.no("gaussian-part-excluded")
    return Verdict.yes("purely-non-gaussian")


def _is_dirac(t):
    return (not t.has_gaussian_part) and t.nu.is_zero()


def _dirac_zero(t):
    return _is_dirac(t) and float(np.max(np.abs(t.gamma))) == 0.0


# ---------------------------------------------------------------------------
# rules per asymptotic tag
# ---------------------------------------------------------------------------

def _power_tail_rule(tag: PowerTail, t: Triplet):
    al = tag.alpha
    if al >= 2.0:
        # the essential domain collapses to point masses
        es = Verdict.yes("point-mass") if _is_dirac(t) else \
            Verdict.no("essential-domain-trivial")
        pl = Verdict.yes("point-mass-at-origin") if _dirac_zero(t) else \
            Verdict.no("plain-domain-trivial")
        return {"essential": es, "compensated": es, "plain": pl, "absolute": pl}
    es = tail_power_moment_verdict(t.nu, al)
    if abs(al - 1.0) > 1e-12 and al < 1.0:
        return {"essential": es, "compensated": es, "plain": es, "absolute": es}
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
        return {"essential": es, "compensated": es, "plain": es, "absolute": es}
    v_lim, v_abs = _oscillation_verdicts(t, s0=1.0, side="tail")
    comp = combine_all(es, v_lim)
    plain = combine_all(comp, _mean_zero_verdict(t))
    absolute = combine_all(es, v_abs, _mean_zero_verdict(t))
    return {"essential": es, "compensated": comp, "plain": plain,
            "absolute": absolute}


def _power_at_zero_rule(tag: PowerAtZero, t: Triplet):
    q = tag.exponent
    if q < 0.5 - 1e-12:
        y = Verdict.yes("square-and-support-finite")
        return {"essential": y, "compensated": y, "plain": y, "absolute": y}
    if abs(q - 0.5) <= 1e-12:
        es = combine_all(_no_gaussian_verdict(t), body_log_moment_verdict(t.nu))
        return {"essential": es, "compensated": es, "plain": es, "absolute": es}
    al = 2.0 - 1.0 / q
    es = combine_all(_no_gaussian_verdict(t),
                     body_power_moment_verdict(t.nu, 2.0 - al))
    if al < 1.0 - 1e-12:
        return {"essential": es, "compensated": es, "plain": es, "absolute": es}
    if al > 1.0 + 1e-12:
        strict = combine_all(es, _drift_zero_verdict(t)) if es.is_yes else es
        return {"essential": es, "compensated": es, "plain": strict,
                "absolute": strict}
    if es.is_no:
        return {"essential": es, "compensated": es, "plain": es, "absolute": es}
    b = 1.0  # any interior anchor works; the conditions are local at zero
    v_lim, v_abs = _oscillation_verdicts(t, s0=b, side="body")
    comp = combine_all(es, v_lim)
    plain = combine_all(comp, _drift_zero_verdict(t))
    absolute = combine_all(es, v_abs, _drift_zero_verdict(t))
    return {"essential": es, "compensated": comp, "plain": plain,
            "absolute": absolute}


def _exp_tail_rule(tag: ExpTail, t: Triplet):
    es = log_plus_moment_verdict(t.nu, 1.0 / tag.alpha)
    return {"essential": es, "compensated": es, "plain": es, "absolute": es}


def _double_exp_rule(tag: DoubleExp, t: Triplet):
    es = loglog_moment_verdict(t.nu)
    return {"essential": es, "compensated": es, "plain": es, "absolute": es}


def _log_power_rule(tag: LogPower, t: Triplet):
    if tag.at_zero:
        es = combine_all(_no_gaussian_verdict(t),
                         body_log_power_moment_verdict(t.nu, tag.beta))
    else:
        es = tail_log_power_moment_verdict(t.nu, tag.beta)
    u = Verdict.unknown("only-strictness-known-for-this-class")
    return {"essential": es, "compensated": u, "plain": u,
            "absolute": u}


def domain_rule_verdicts(k: Kernel, t: Triplet):
    """Closed-form membership verdicts {absolute, plain, compensated,
    essential} for a tagged kernel; raises :class:`UnsupportedTag` when the
    kernel carries no supported asymptotic tag."""
    tag = k.tag
    if tag is None:
        raise UnsupportedTag(f"kernel {k.name!r} carries no asymptotic tag")
    if isinstance(tag, PowerTail):
        return _power_tail_rule(tag, t)
    if isinstance(tag, PowerAtZero):
        return _power_at_zero_rule(tag, t)
    if isinstance(tag, ExpTail):
        return _exp_tail_rule(tag, t)
    if isinstance(tag, DoubleExp):
        return _double_exp_rule(tag, t)
    if isinstance(tag, LogPower):
        return _log_power_rule(tag, t)
    raise UnsupportedTag(f"unknown tag {tag!r}")


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
    locally_integrable: bool | None = None


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
    k_hook = k.profile.get("k_of_r")
    h_hook = k.profile.get("h_of_r")
    if h_hook is None and k.level_upper is not None and k.nonnegative:
        # h(r) = Leb{f > 1/r} is the level function itself
        h_hook = lambda x: k.level_upper(1.0 / x)
    certified = all(c for _, c in masses) and k_hook is not None and h_hook is not None

    def on_grid(hook, kind):
        # a hook may return None where it has no closed form
        out = {}
        for r in map(float, _R_GRID):
            v = None if hook is None else hook(r)
            out[r] = _level_numeric(k, kind, r) if v is None else v
        return out
    return KernelProfile(*(v for v, _ in masses), on_grid(k_hook, "k_of_r"),
                         on_grid(h_hook, "h_of_r"), certified,
                         k.profile.get("locally_integrable"))


def _locally_integrable_kernel(k: Kernel):
    flag = k.profile.get("locally_integrable")
    if flag is not None:
        return flag
    # sampled: absolute mass over interior compacts
    from .quadrature import default_anchor
    p0, q0 = default_anchor(k.a, k.b)
    try:
        for lvl in (0, 3, 6):
            p = k.a + (p0 - k.a) * 2.0 ** (-lvl) if math.isfinite(k.a) else -(2.0 ** lvl)
            q = k.b - (k.b - q0) * 2.0 ** (-lvl) if math.isfinite(k.b) else 2.0 ** lvl
            v = kernel_window_integral(k, p, q, "abs")
            if not math.isfinite(float(v)):
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


def largeness_conditions(k: Kernel, profile: KernelProfile | None = None):
    """Evidence dictionary for every largeness condition."""
    prof = kernel_profile(k) if profile is None else profile
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


def classify_largeness(k: Kernel):
    """Strongest largeness class with its evidence dictionary."""
    prof = kernel_profile(k)
    ev, _ = largeness_conditions(k, prof)
    ladder = [
        ("all-id", LargenessClass.ALL_ID),
        ("ab-preserving", LargenessClass.AB_PRESERVING),
        ("ab-into-essential", LargenessClass.AB_INTO_ESSENTIAL),
        ("trivial-essential", LargenessClass.TRIVIAL_ESSENTIAL),
        ("trivial-absolute-zero", LargenessClass.TRIVIAL_ABSOLUTE_ZERO),
    ]
    chosen = LargenessClass.NONE
    for key, cls in ladder:
        if ev[key].is_yes:
            chosen = cls
            break
    return chosen, {"evidence": ev, "certified": prof.certified}


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
    'preserving', 'essential-cover', 'none'.
    """
    samples = np.asarray(k(default_grid(k, 512)), dtype=float)
    if np.any(samples < 0):
        raise NonnegativeRequired("cone statements need a nonnegative kernel")
    ev, prof = largeness_conditions(k)
    out = {
        "preserving": ev["ab-preserving"],
        "essential-cover": ev["ab-into-essential"],
    }
    label = next((name for name, v in out.items() if v.is_yes), "none")
    return label, out


def psi_largeness(k: Kernel):
    """Largeness of the measure-transform domain.

    Returns (label, evidence): 'all-levy-measures', 'finite-variation-
    preserving', 'finite-variation-covered', 'trivial-zero' or 'none'.
    """
    ev, prof = largeness_conditions(k)
    table = [
        ("all-levy-measures", ev["all-id"]),
        ("finite-variation-preserving", ev["ab-preserving"]),
        ("finite-variation-covered", ev["ab-into-essential"]),
        ("trivial-zero", ev["clipped-square-infinite"]),
    ]
    label = "none"
    for name, v in table:
        if v.is_yes:
            label = name
            break
    return label, dict(table)

"""Integrand kernels on an open interval and their occupation measures.

A kernel is a real-valued function f on (a, b) together with analytic
metadata: monotonicity, asymptotic tags that unlock closed-form domain
rules, and optional closed-form hooks (window integrals, the level function,
the occupation density) that the numeric drivers use when present.

The occupation measure ("tau measure") of f is the pushforward of Lebesgue
measure on (a, b) under f; it carries exactly the information the essential
and absolute domains of the induced transforms depend on.  For a decreasing
f it is fixed by the level function u -> Leb{f > u}: ``level_upper`` is the
one source of the occupation measure's interval masses, of
:func:`tau_of_interval` and of the large-level profile h(r) = Leb{f > 1/r}.
Built-in kernels have it in closed form, and a kernel from
:func:`kernel_from_tau` reads it exactly off the centered mass G it
inverts, as B - G(u) with B = sup G, unless B is infinite.  Other kernels
get it from a numeric level boundary.  One sampled endpoint limit, which
extrapolates steady geometric steps, gives the ranges of a bare kernel and
of the mass that :func:`kernel_from_tau` inverts; one crossing search finds
both the level boundaries and the values of the generalized inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, sici

from .errors import (
    ConditionBViolated,
    ConstantFunctionError,
    InconclusiveError,
    OutOfInterval,
    UnsupportedKernel,
)
from .quadrature import (
    ImproperResult,
    adaptive_quad,
    geometric_tail,
    improper_limit,
    improper_nonneg,
    slab_quad,
    window_schedule,
)

INF = math.inf


# ---------------------------------------------------------------------------
# asymptotic tags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerTail:
    """f(s) comparable to s^(-1/alpha) as s -> infinity."""
    alpha: float
    exact_coefficient: float | None = None  # c with |f - c/s| integrable (alpha=1)


@dataclass(frozen=True)
class PowerAtZero:
    """f(s) comparable to s^(-exponent) as s decreases to the left endpoint."""
    exponent: float


@dataclass(frozen=True)
class ExpTail:
    """f(s) squeezed between exp(-c s^alpha) envelopes as s -> infinity."""
    alpha: float


@dataclass(frozen=True)
class DoubleExp:
    """f(s) comparable to exp(-e^s) as s -> infinity."""


@dataclass(frozen=True)
class LogPower:
    """f(s) comparable to s^-1 (log s)^-beta at infinity, or to
    s^-1 (log(1/s))^-beta at zero when ``at_zero`` is set."""
    beta: float
    at_zero: bool = False


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

class Kernel:
    """Real integrand on an open interval (a, b) with analytic metadata."""

    def __init__(self, name, a, b, fn, *, monotone_decreasing=False,
                 nonnegative=None, tag=None,
                 window_integral=None, window_square=None, window_abs=None,
                 level_upper=None, tau_density=None, profile=None,
                 abs_bound=None):
        if not a < b:
            raise ValueError("empty interval")
        self.name = name
        self.a = float(a)
        self.b = float(b)
        self.fn = fn
        self.monotone_decreasing = monotone_decreasing
        self.nonnegative = nonnegative
        self.tag = tag
        self.window_integral = window_integral      # closed form of int_p^q f
        self.window_square = window_square          # closed form of int_p^q f^2
        if window_abs is None and nonnegative:
            window_abs = window_integral
        self.window_abs = window_abs                # closed form of int_p^q |f|
        self.level_upper = level_upper              # Leb{s: f(s) > u}
        # (occupation density or None, (inf f, sup f)); None density with a
        # one-point range marks a constant kernel
        self.tau_density = tau_density
        self.profile = profile or {}
        if abs_bound is None and monotone_decreasing and nonnegative:
            abs_bound = lambda p, q: self.value(p) if p > self.a else INF
        self.abs_bound = abs_bound                  # sup of |f| over [p, q]
        self._tau = None                            # tau_measure(self), once built

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return np.asarray(self.fn(s), dtype=float)

    def value(self, s):
        """f at one point, as a float."""
        return float(self(np.array([s]))[0])

    def __repr__(self):
        return f"Kernel({self.name} on ({self.a:g}, {self.b:g}))"

    def interval(self):
        return (self.a, self.b)


def eval_kernel(k: Kernel, s: float) -> float:
    """Evaluate the kernel at one interior point."""
    if not (k.a < s < k.b):
        raise OutOfInterval(f"{s} outside ({k.a}, {k.b})")
    v = k.value(s)
    if not math.isfinite(v):
        raise OutOfInterval(f"kernel value not finite at {s}")
    return v


# integrands of the window integrals, by kind, as functions of the values of f
_INTEGRANDS = {"plain": lambda v: v, "square": lambda v: v ** 2, "abs": np.abs,
               "clipped": lambda v: np.minimum(v ** 2, 1.0),
               "indicator": lambda v: (np.abs(v) > 0).astype(float)}

# profile constants of the whole-interval masses, by kind
_PROFILE_MASS = {"square": "square_mass", "abs": "abs_mass",
                 "clipped": "clipped_square", "indicator": "indicator_mass"}


def _window_hook(k, kind):
    return {"plain": k.window_integral, "square": k.window_square,
            "abs": k.window_abs}.get(kind)


def _window_slab(k, kind):
    """Slab of f, f^2, |f|, min(f^2, 1) or 1{f != 0}: the closed-form hook
    when the kernel has one, else quadrature."""
    hook = _window_hook(k, kind)
    if hook is not None:
        return hook
    g = _INTEGRANDS[kind]
    return slab_quad(lambda s: g(k(s)), rtol=1e-10, atol=1e-13)


def kernel_window_integral(k, p, q, kind="plain"):
    """int_p^q of f, f^2, |f|, min(f^2, 1) or 1{f != 0} on a finite slab,
    through the closed-form hook when the kernel has one."""
    return _window_slab(k, kind)(p, q)


def hook_limit(k, kind="plain", scale=1.0):
    """Improper window limit of ``scale`` times a window integral, read off
    its closed-form hook at the interval endpoints, with the trace over the
    standard window schedule.

    Returns None when there is no hook or it does not extend continuously to
    the endpoints (oscillation, or a blow-up into nan or an arithmetic error).
    """
    hook = _window_hook(k, kind)
    if hook is None:
        return None
    try:
        with np.errstate(all="ignore"):
            v = float(hook(k.a, k.b))
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    if math.isnan(v):
        return None
    trace = [(p, q, scale * np.atleast_1d(kernel_window_integral(k, p, q, kind)))
             for (p, q) in window_schedule(k.a, k.b, 6)]
    nonneg = kind != "plain"
    if math.isinf(v):
        return ImproperResult("diverged", INF if nonneg else None, trace,
                              {"rule": "hook"}, nonneg)
    trace.append((k.a, k.b, scale * np.atleast_1d(v)))
    return ImproperResult("converged", scale * v, trace, {"rule": "hook"}, nonneg)


def kernel_mass(k, kind="plain"):
    """int_a^b of f, f^2, |f|, min(f^2, 1) or 1{f != 0}, three-valued, as an
    :class:`ImproperResult`.

    The kernel's profile constant decides when it declares one (rule
    ``"profile"``), then the window hook at the endpoints (rule ``"hook"``);
    otherwise the window drivers run over :func:`kernel_window_integral`
    slabs, the monotone one for a nonnegative integrand, which certifies the
    slow divergences a Cauchy test cannot see.
    """
    v = k.profile.get(_PROFILE_MASS.get(kind))
    if v is not None:
        nonneg = kind != "plain"
        if math.isinf(v):
            return ImproperResult("diverged", INF if nonneg else None, [],
                                  {"rule": "profile"}, nonneg)
        return ImproperResult("converged", float(v), [], {"rule": "profile"}, nonneg)
    res = hook_limit(k, kind)
    if res is not None:
        return res

    slab = _window_slab(k, kind)
    if kind != "plain" or k.nonnegative:
        return improper_nonneg(slab, k.a, k.b)
    return improper_limit(slab, k.a, k.b, rtol=1e-9)


# ---------------------------------------------------------------------------
# occupation measure
# ---------------------------------------------------------------------------

class TauMeasure:
    """Pushforward of Lebesgue measure on (a, b) under the kernel.

    The continuous part is carried by one increasing function G on the
    whole line with tau((u1, u2]) = G(u2) - G(u1) (for a decreasing kernel,
    G = -Leb{f > u}, whose jumps are the flat stretches of f), and
    optionally by a density, which moments and occupation mixtures
    integrate and which gives the interval masses by quadrature when there
    is no G.  Explicit atoms record point masses of a measure given by a
    density or by atoms alone.
    """

    def __init__(self, *, atoms=(), density=None, density_support=None,
                 cumulative=None, support=None, name="tau"):
        self.atoms = [(float(u), float(m)) for (u, m) in atoms]
        # NaN fails m > 0; an infinite mass stays legal (constant kernels)
        if not all(math.isfinite(u) and m > 0 for u, m in self.atoms):
            raise ValueError("atoms need finite locations and positive masses")
        self.density = density
        self.density_support = density_support
        self.cumulative = cumulative
        self.name = name
        if support is not None:
            self.a_prime, self.b_prime = float(support[0]), float(support[1])
        else:
            lows, highs = [], []
            if self.atoms:
                lows.append(min(u for u, _ in self.atoms))
                highs.append(max(u for u, _ in self.atoms))
            if density_support is not None:
                lows.append(density_support[0])
                highs.append(density_support[1])
            if not lows:
                raise ValueError("empty measure")
            self.a_prime, self.b_prime = min(lows), max(highs)

    def __repr__(self):
        return (f"TauMeasure({self.name}, support=({self.a_prime:g},"
                f" {self.b_prime:g}), atoms={len(self.atoms)})")

    # mass of the continuous part on (u1, u2]
    def _cont_mass(self, u1, u2):
        if u1 >= u2:
            return 0.0
        if self.cumulative is not None:
            # (u1, u2] misses the closed support
            if u2 < self.a_prime or u1 >= self.b_prime:
                return 0.0
            g1, g2 = self.cumulative(u1), self.cumulative(u2)
            if g1 == g2:
                # infinite levels included: with a finite a, Leb{f > u2} = inf
                # means f never falls to u2
                return 0.0
            return float(g2 - g1)
        if self.density is not None:
            lo, hi = self.density_support
            lo2, hi2 = max(u1, lo), min(u2, hi)
            if lo2 >= hi2:
                return 0.0
            fn = lambda u: np.asarray(self.density(u), dtype=float)
            if math.isfinite(lo2) and math.isfinite(hi2) and lo2 > lo and hi2 < hi:
                return adaptive_quad(fn, lo2, hi2, rtol=1e-11)[0]
            res = improper_nonneg(slab_quad(fn, rtol=1e-11), lo2, hi2)
            return float(np.max(res.certified("interval mass")))
        return 0.0

    def mass(self, u1, u2):
        """Mass of the half-open interval (u1, u2]."""
        if u1 > u2:
            raise ValueError("u1 must not exceed u2")
        total = self._cont_mass(u1, u2)
        for u, m in self.atoms:
            if u1 < u <= u2:
                total += m
        return total

    def atom_mass_at(self, u, tol=1e-12):
        return sum(m for v, m in self.atoms if abs(v - u) <= tol)

    def total_nonzero(self):
        """Total mass off the origin, possibly infinite."""
        total = sum(m for u, m in self.atoms if u != 0.0)
        if self.density is None and self.cumulative is not None:
            # a flat stretch of f at an end of its range is a jump of G that
            # the half-open pieces below would miss
            raise InconclusiveError("total mass unavailable without a density")
        if self.density is not None:
            lo, hi = self.a_prime, self.b_prime
            pieces = []
            if lo < 0.0:
                pieces.append((lo, min(0.0, hi)))
            if hi > 0.0:
                pieces.append((max(lo, 0.0), hi))
            for (p, q) in pieces:
                c = self._cont_mass(p, q)
                if c == INF:
                    return INF
                total += c
        return total

    def moment(self, h):
        """int h(u) tau(du) for nonnegative vectorized h."""
        total = 0.0
        for u, m in self.atoms:
            total += m * float(np.asarray(h(np.array([u])))[0])
        if self.density is not None:
            lo, hi = self.density_support
            fn = lambda u: np.asarray(h(u), dtype=float) * np.asarray(self.density(u), dtype=float)
            res = improper_nonneg(slab_quad(fn, rtol=1e-11), lo, hi)
            total += float(np.max(res.certified("occupation moment")))
        elif self.cumulative is not None:
            raise UnsupportedKernel("moments need a density representation")
        return total


def tau_exponential(rate=1.0):
    """Exponential occupation measure (density rate e^{-rate u} on (0, inf))."""
    if not (0 < rate < INF):
        raise ValueError("rate must be positive and finite")

    return TauMeasure(density=lambda u: rate * np.exp(-rate * u),
                      density_support=(0.0, INF),
                      cumulative=lambda u: -math.exp(-rate * max(u, 0.0)),
                      support=(0.0, INF), name=f"exponential({rate:g})")


def tau_gaussian():
    """Standard Gaussian occupation measure."""
    dens = lambda u: np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return TauMeasure(density=dens, density_support=(-INF, INF),
                      cumulative=lambda u: float(ndtr(u)), support=(-INF, INF),
                      name="gaussian")


def tau_from_atoms(atoms):
    return TauMeasure(atoms=atoms, name="atomic")


# ---------------------------------------------------------------------------
# endpoint limits and level crossings of monotone functions
# ---------------------------------------------------------------------------

_END_SAMPLES = 64    # samples of an endpoint limit
_BISECTIONS = 300    # halvings of a crossing bracket


def _end_limit(g, lo, hi, end):
    """Sampled limit of a monotone scalar function g at one end of (lo, hi):
    (value, flat?), the value +-inf when g runs off.

    The samples double toward the end: s = +-1, +-2, ... on an infinite end,
    min(1, half the span) times 1, 1/2, ... off a finite one.  The tail is
    the window drivers' tail rule, :func:`~idcalc.quadrature.geometric_tail`,
    on the last five steps: steps its ``tight-geometric-extrapolation``
    certifies add their geometric tail.  The samples stop when two agree
    relative to their size, the tail added, or when the tail cancels the
    sample to 1e-12 (limit 0, as for a power-law approach to 0).  Out of
    samples (64, or the end's next float), the tail is still added; without
    one, steps its ``geometric-tail`` rule certifies (ratios below 0.97) keep
    the last sample, and other steps diverge (log(log(1/u)) does).  The
    limit is flat (g sits at it on a stretch before the end) only when the
    samples reach it without creeping to within 1e-12 of it first.
    """
    edge, sign = (lo, -1.0) if end == "lower" else (hi, 1.0)
    step0 = min(1.0, (hi - lo) / 2.0) if math.isfinite(hi - lo) else 1.0
    vals = []
    before = None   # the sample ahead of the last one's run of ties
    d, tail = [], None   # the last five steps and their geometric tail
    for j in range(1024):
        s = edge - sign * step0 * 2.0 ** -j if math.isfinite(edge) else sign * 2.0 ** j
        if s == edge or len(vals) == _END_SAMPLES:
            break
        if not lo < s < hi:
            continue
        v = float(g(s))
        if math.isinf(v):
            return v, False
        last = vals[-5:] + [v]
        d = [y - x for x, y in zip(last, last[1:])]
        found = geometric_tail(d, False) if len(d) == 5 else None
        tail = None if found is None else d[-1] * found[1] / (1.0 - found[1])
        if vals and abs(v - vals[-1]) <= 1e-12 * abs(v):
            lead = before if v == vals[-1] else vals[-1]
            return v + (tail or 0.0), lead is None or abs(lead - v) > 1e-12 * max(1.0, abs(v))
        if tail is not None and abs(v + tail) <= 1e-12 * abs(v):
            return 0.0, False
        if vals and v != vals[-1]:
            before = vals[-1]
        vals.append(v)
    found = geometric_tail(d, True)
    if tail is None and (found is None or found[0] != "geometric-tail"):
        return math.copysign(INF, d[-1]), False
    return vals[-1] + (tail or 0.0), False


def _crossing(right, lo, hi, tol):
    """Where a monotone predicate turns true on (lo, hi): the upper end of a
    bracket with ``right`` false at its lower end and true at its upper end.
    An infinite end is bracketed by doubling from +-1 (or from one past the
    other end); the bracket is then bisected to a width below ``tol``
    relative to its ends, so a crossing near zero keeps its precision.  A
    split at 0 also splits at the floats next to 0, so a crossing at 0 ends
    there instead of halving toward it.
    """
    if math.isinf(hi):
        hi = max(1.0, lo + 1.0)
        while not right(hi):
            hi *= 2.0
            if math.isinf(hi):
                raise OutOfInterval("no crossing toward the upper end")
    if math.isinf(lo):
        lo = min(-1.0, hi - 1.0)
        while right(lo):
            lo *= 2.0
            if math.isinf(lo):
                raise OutOfInterval("no crossing toward the lower end")
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        for m in (mid, -5e-324, 5e-324) if mid == 0.0 else (mid,):
            if lo < m < hi:
                lo, hi = (lo, m) if right(m) else (m, hi)
        if hi - lo < tol * max(abs(lo), abs(hi), 1e-300):
            break
    return hi


# ---------------------------------------------------------------------------
# generalized inverse
# ---------------------------------------------------------------------------

class GeneralizedInverse:
    """Right-continuous generalized inverse of an increasing function.

    For an increasing right-continuous G on (A', B'), F(s) is the smallest u
    with G(u) > s; F is (A', B')-valued, increasing and right-continuous on
    (A, B), the infimum and supremum of G (sampled unless given).
    """

    def __init__(self, G, a_prime, b_prime, A=None, B=None, tol=1e-13):
        self.G = G
        self.a_prime = float(a_prime)
        self.b_prime = float(b_prime)
        self.tol = tol
        probe = self._probe_points()
        vals = [G(u) for u in probe]
        if max(vals) - min(vals) <= 0.0:
            raise ConstantFunctionError("function has no increase on its domain")
        limit = lambda end: _end_limit(G, self.a_prime, self.b_prime, end)[0]
        self.A = float(A) if A is not None else limit("lower")
        self.B = float(B) if B is not None else limit("upper")
        if not self.A < self.B:
            raise ConstantFunctionError("degenerate range")

    def _probe_points(self):
        lo, hi = self.a_prime, self.b_prime
        if math.isinf(lo):
            lo = (hi - 1.0 if math.isfinite(hi) else -1.0)
        if math.isinf(hi):
            hi = lo + 2.0
        span = hi - lo
        return [lo + span * t for t in (0.05, 0.25, 0.5, 0.75, 0.95)]

    def __call__(self, s):
        if not (self.A < s < self.B):
            raise OutOfInterval(f"{s} outside ({self.A}, {self.B})")
        return _crossing(lambda u: self.G(u) > s, self.a_prime, self.b_prime, self.tol)


def generalized_inverse(G, a_prime, b_prime, **kw) -> GeneralizedInverse:
    """Construct the right-continuous generalized inverse of G on (a', b')."""
    return GeneralizedInverse(G, a_prime, b_prime, **kw)


# ---------------------------------------------------------------------------
# conditions and reconstruction
# ---------------------------------------------------------------------------

def check_condition_B(tau: TauMeasure):
    """Clauses a measure must satisfy to be an occupation measure of a
    decreasing kernel: nondegenerate support, locally finite in the
    interior, and no atom at a finite support endpoint.

    Returns (ok, witness) where witness names the first failing clause.
    """
    a1, b1 = tau.a_prime, tau.b_prime
    if not a1 < b1:
        return False, {"clause": "support-degenerate", "a_prime": a1, "b_prime": b1}
    span = min(1.0, (b1 - a1) / 4.0) if math.isfinite(b1 - a1) else 1.0
    for k in range(1, 10):
        p = a1 + span * 2.0 ** (-k) if math.isfinite(a1) else -(2.0 ** k)
        q = b1 - span * 2.0 ** (-k) if math.isfinite(b1) else 2.0 ** k
        if p >= q:
            continue
        try:
            m = tau.mass(p, q)
        except InconclusiveError:
            return False, {"clause": "interior-mass-uncertified", "p": p, "q": q}
        if m == INF:
            return False, {"clause": "interior-mass-infinite", "p": p, "q": q}
    if math.isfinite(a1) and tau.atom_mass_at(a1) > 0:
        return False, {"clause": "atom-at-lower-end", "u": a1}
    if math.isfinite(b1) and tau.atom_mass_at(b1) > 0:
        return False, {"clause": "atom-at-upper-end", "u": b1}
    return True, {"clause": None}


def default_grid(k: Kernel, n=4096):
    """Evaluation grid, geometric near improper or unbounded endpoints."""
    a, b = k.a, k.b
    pieces = []
    if math.isfinite(a) and math.isfinite(b):
        span = b - a
        pieces.append(np.linspace(a, b, n // 2 + 2)[1:-1])
        g = span * np.logspace(-12, -1, n // 4)
        pieces.extend([a + g, b - g])
    else:
        anchor = a if math.isfinite(a) else (b - 1.0 if math.isfinite(b) else 0.0)
        if math.isfinite(a):
            pieces.append(a + np.logspace(-12, 0, n // 4))
        else:
            pieces.append(anchor - np.logspace(0, 6, n // 4))
        if math.isfinite(b):
            pieces.append(b - np.logspace(-12, 0, n // 4))
        else:
            pieces.append(anchor + np.logspace(0, 6, n // 4))
        pieces.append(anchor + np.linspace(0.0, 1.0, n // 2))
    g = np.unique(np.concatenate(pieces))
    return g[(g > a) & (g < b)]


def check_condition_A(k: Kernel):
    """Sampled check that the kernel is decreasing, left-continuous,
    nonconstant and strictly between its endpoint limits.

    The verdict is on :func:`default_grid` and flagged as such in the witness.
    """
    s = default_grid(k)
    v = k(s)
    scale = max(1.0, float(np.max(np.abs(v))))
    witness = {"sampled": True}
    if float(np.max(v) - np.min(v)) <= 1e-14 * scale:
        witness["clause"] = "constant"
        return False, witness
    inc = np.diff(v)
    bad = np.nonzero(inc > 1e-12 * scale)[0]
    if bad.size:
        i = int(bad[0])
        witness.update(clause="not-decreasing", s=float(s[i + 1]),
                       rise=float(inc[i]))
        return False, witness
    # left-continuity at visible jumps
    jumps = np.nonzero(-inc > 1e-6 * scale)[0]
    for i in jumps[:32]:
        s0 = float(s[i + 1])
        gaps = []
        for d in (1e-7, 1e-9, 1e-11):
            step = d * max(1.0, abs(s0))
            if s0 - step <= k.a:
                continue
            gaps.append(abs(k.value(s0 - step) - float(v[i + 1])))
        if gaps and gaps[-1] > 1e-6 * scale and gaps[-1] >= 0.5 * gaps[0]:
            witness.update(clause="not-left-continuous", s=s0, gap=gaps[-1])
            return False, witness
    # strict bounds: no interior point may attain the endpoint limits
    # (exact comparisons: a decreasing kernel violates them only by being
    # flat against an endpoint, which sampling sees as exact ties)
    top = float(v[0])
    bottom = float(v[-1])
    inner = v[1:-1]
    hit_top = np.nonzero(inner >= top)[0]
    if hit_top.size:
        witness.update(clause="attains-supremum", s=float(s[1 + hit_top[0]]))
        return False, witness
    hit_bot = np.nonzero(inner <= bottom)[0]
    if hit_bot.size:
        # a trailing zero run is a floating-point underflow artifact when the
        # last positive sample is already at denormal scale
        i0 = int(hit_bot[0]) + 1
        if bottom == 0.0 and i0 > 0:
            prior = np.abs(v[:i0])
            last_positive = float(prior[prior > 0][-1]) if np.any(prior > 0) else 0.0
            if 0.0 < last_positive < 1e-250:
                witness["note"] = "trailing-underflow-zeros-ignored"
                witness["clause"] = None
                return True, witness
        witness.update(clause="attains-infimum", s=float(s[i0]))
        return False, witness
    witness["clause"] = None
    return True, witness


def kernel_from_tau(tau: TauMeasure, name=None) -> Kernel:
    """Decreasing left-continuous kernel whose occupation measure is tau.

    The construction centers the signed cumulative mass at an interior point
    c, inverts it (F, on its sampled range (A, B)) and reflects: f(s) = F(-s)
    on (-B, -A), with tau's support as its range.  Fails with
    :class:`ConditionBViolated` when tau cannot arise this way.
    """
    ok, witness = check_condition_B(tau)
    if not ok:
        raise ConditionBViolated(witness["clause"])
    a1, b1 = tau.a_prime, tau.b_prime
    lo, hi = max(a1, -1.0), min(b1, 1.0)
    if lo < hi:
        c = 0.5 * (lo + hi)
    elif math.isfinite(a1) and math.isfinite(b1):
        c = 0.5 * (a1 + b1)
    elif math.isfinite(a1):
        c = a1 + 1.0
    else:
        c = b1 - 1.0

    G = lambda u: tau.mass(c, u) if u >= c else -tau.mass(u, c)
    F = GeneralizedInverse(G, a1, b1)

    def fn(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.array([F(-x) for x in s])

    # f(s) = F(-s) > u exactly when -s >= G(u), so Leb{f > u} = B - G(u);
    # with B = inf the kernel starts at a = -inf and every level is infinite
    level = (lambda u: F.B - G(u)) if math.isfinite(F.B) else None
    return Kernel(name or f"from_tau({tau.name})", -F.B, -F.A, fn,
                  monotone_decreasing=True, nonnegative=a1 >= 0.0,
                  level_upper=level, tau_density=(None, (a1, b1)))


# ---------------------------------------------------------------------------
# occupation-measure queries on kernels
# ---------------------------------------------------------------------------

def _level_boundary(k: Kernel, u, f_top, f_bot, flat_bot=True):
    """For decreasing f: boundary point of {s : f(s) > u}; at u = inf f
    it is b unless f is flat at its infimum."""
    if u >= f_top:
        return k.a
    if u < f_bot or (u == f_bot and not flat_bot):
        return k.b
    return _crossing(lambda s: k.value(s) <= u, k.a, k.b, 1e-14)


def tau_of_interval(k: Kernel, u1, u2):
    """Occupation mass of (u1, u2]: Lebesgue measure of {s : f(s) in (u1, u2]},
    read off the occupation measure of a decreasing kernel."""
    if u1 >= u2:
        raise ValueError("u1 must be below u2")
    if not k.monotone_decreasing:
        raise InconclusiveError(
            "level sets of a non-monotone kernel cannot be bracketed")
    return tau_measure(k).mass(u1, u2)


def tau_measure(k: Kernel) -> TauMeasure:
    """Materialize the occupation measure of a decreasing kernel.

    Its continuous part is G = -Leb{f > u}: the closed-form level function
    when the kernel has one, otherwise minus the numeric level boundary
    (which differs from -Leb{f > u} by the constant a).  When a = -inf,
    Leb{f > u} is infinite on the whole range, so the numeric boundary,
    which stays finite, is used even when there is a level function.
    Built-in kernels supply the occupation density and the range
    (inf f, sup f); other kernels get the range from sampled endpoint
    limits.  A constant kernel's measure is one atom.  Black-box
    non-monotone kernels are unsupported (their occupation measure does not
    determine the transform anyway).  The measure depends only on the
    kernel, so it is built once per kernel instance.
    """
    if not k.monotone_decreasing:
        raise UnsupportedKernel(
            f"occupation measure of non-monotone kernel {k.name!r} is not materialized")
    if k._tau is None:
        k._tau = _build_tau(k)
    return k._tau


def _build_tau(k: Kernel) -> TauMeasure:
    if k.tau_density is not None:
        density, (f_bot, f_top) = k.tau_density
        flat_bot = True
    else:
        density = None
        f_top, _ = _end_limit(k.value, k.a, k.b, "lower")
        f_bot, flat_bot = _end_limit(k.value, k.a, k.b, "upper")
    name = f"tau({k.name})"
    if f_bot == f_top:
        return TauMeasure(atoms=[(f_top, k.b - k.a)], name=name)
    if k.level_upper is not None and math.isfinite(k.a):
        G = lambda u: -k.level_upper(u)
    else:
        G = lambda u: -_level_boundary(k, u, f_top, f_bot, flat_bot)
    return TauMeasure(density=density,
                      density_support=None if density is None else (f_bot, f_top),
                      cumulative=G, support=(f_bot, f_top), name=name)


# ---------------------------------------------------------------------------
# built-in kernels
# ---------------------------------------------------------------------------

def _power_window(e):
    """Window integral int_p^q s^(e - 1) ds of a power (log(q/p) at e = 0)."""
    def w(p, q):
        if abs(e) < 1e-14:
            return math.log(q / p)
        return (q ** e - p ** e) / e
    return w


def exp_kernel(rate=1.0):
    """f(s) = exp(-rate s) on (0, inf); the selfdecomposability integrand."""
    if not (0 < rate < INF):
        raise ValueError("rate must be positive and finite")
    r = float(rate)

    def level(u):
        if u <= 0.0:
            return INF
        if u >= 1.0:
            return 0.0
        return math.log(1.0 / u) / r

    def k_of_r(x):
        if x <= 1.0:
            return 1.0 / (2.0 * r)
        return x ** -2 / (2.0 * r)

    return Kernel(
        "exp", 0.0, INF, lambda s: np.exp(-r * s),
        monotone_decreasing=True, nonnegative=True, tag=ExpTail(1.0),
        window_integral=lambda p, q: (math.exp(-r * p) - math.exp(-r * q)) / r,
        window_square=lambda p, q: (math.exp(-2 * r * p) - math.exp(-2 * r * q)) / (2 * r),
        level_upper=level, tau_density=(lambda u: 1.0 / (r * u), (0.0, 1.0)),
        profile={"indicator_mass": INF, "abs_mass": 1.0 / r,
                 "square_mass": 0.5 / r, "clipped_square": 0.5 / r,
                 "k_of_r": k_of_r})


def log_inverse_kernel():
    """f(s) = log(1/s) on (0, 1); the Goldie-Steutel-Bondesson integrand."""

    def wint(p, q):
        F = lambda s: s - s * math.log(s)
        return F(q) - F(p)

    def wsq(p, q):
        F = lambda s: s * (math.log(s) ** 2 - 2 * math.log(s) + 2)
        return F(q) - F(p)

    def level(u):
        if u <= 0.0:
            return 1.0
        return math.exp(-u)

    def k_of_r(x):
        # int log^2(1/s) over {log(1/s) <= 1/x}
        t = 1.0 / x
        return 2.0 - math.exp(-t) * (t * t + 2 * t + 2)

    return Kernel(
        "log_inv", 0.0, 1.0, lambda s: np.log(1.0 / s),
        monotone_decreasing=True, nonnegative=True, tag=None,
        window_integral=wint, window_square=wsq,
        level_upper=level, tau_density=(lambda u: np.exp(-u), (0.0, INF)),
        profile={"indicator_mass": 1.0, "abs_mass": 1.0, "square_mass": 2.0,
                 "clipped_square": 2.0 - 4.0 / math.e,
                 "k_of_r": k_of_r})


def power_tail_kernel(alpha):
    """f(s) = s^(-1/alpha) on (1, inf)."""
    if not (0 < alpha < INF):
        raise ValueError("tail index must be positive and finite")
    al = float(alpha)
    wsq = _power_window(1.0 - 2.0 / al)

    def level(u):
        if u <= 0.0:
            return INF
        if u >= 1.0:
            return 0.0
        return u ** (-al) - 1.0

    square_mass = al / (2.0 - al) if al < 2.0 else INF
    abs_mass = al / (1.0 - al) if al < 1.0 else INF

    def k_of_r(x):
        # int f^2 over {f <= 1/x} = {s >= x^alpha}
        return square_mass if x <= 1.0 else wsq(x ** al, INF)

    return Kernel(
        "power", 1.0, INF, lambda s: s ** (-1.0 / al),
        monotone_decreasing=True, nonnegative=True,
        tag=PowerTail(al, exact_coefficient=1.0 if abs(al - 1.0) < 1e-12 else None),
        window_integral=_power_window(1.0 - 1.0 / al), window_square=wsq,
        level_upper=level,
        tau_density=(lambda u: al * u ** (-al - 1.0), (0.0, 1.0)),
        profile={"indicator_mass": INF, "abs_mass": abs_mass,
                 "square_mass": square_mass, "clipped_square": square_mass,
                 "k_of_r": k_of_r})


def power_at_zero_kernel(exponent, b=1.0):
    """f(s) = s^(-exponent) on (0, b)."""
    if not (0 < exponent < INF):
        raise ValueError("exponent must be positive and finite")
    if not (0 < b < INF):
        raise ValueError("right endpoint must be finite and positive")
    q_ = float(exponent)
    bb = float(b)
    e1 = 1.0 - q_
    e2 = 1.0 - 2.0 * q_
    f_min = bb ** (-q_)
    wsq = _power_window(e2)

    def level(u):
        if u <= f_min:
            return bb
        return u ** (-1.0 / q_)

    abs_mass = bb ** e1 / e1 if q_ < 1.0 else INF
    square_mass = bb ** e2 / e2 if q_ < 0.5 else INF
    # clipped square: f > 1 on s < 1 (for b <= 1 the whole interval)
    s_one = min(bb, 1.0)
    clipped = s_one + (wsq(s_one, bb) if bb > s_one else 0.0)

    def k_of_r(x):
        # int f^2 over {f <= 1/x} = {s >= x^(1/exponent)}
        lo = min(bb, x ** (1.0 / q_))
        return wsq(lo, bb) if lo < bb else 0.0

    return Kernel(
        "power_at_zero", 0.0, bb, lambda s: s ** (-q_),
        monotone_decreasing=True, nonnegative=True, tag=PowerAtZero(q_),
        window_integral=_power_window(e1), window_square=wsq,
        level_upper=level,
        tau_density=(lambda u: (1.0 / q_) * u ** (-1.0 / q_ - 1.0), (f_min, INF)),
        profile={"indicator_mass": bb, "abs_mass": abs_mass,
                 "square_mass": square_mass, "clipped_square": clipped,
                 "k_of_r": k_of_r})


def double_exp_kernel():
    """f(s) = exp(-e^s) on (0, inf)."""
    f_max = math.exp(-1.0)

    def level(u):
        if u <= 0.0:
            return INF
        if u >= f_max:
            return 0.0
        return math.log(math.log(1.0 / u))

    return Kernel(
        "double_exp", 0.0, INF,
        lambda s: np.exp(-np.exp(np.minimum(s, 709.0))),
        monotone_decreasing=True, nonnegative=True, tag=DoubleExp(),
        level_upper=level,
        tau_density=(lambda u: 1.0 / (u * np.log(1.0 / u)), (0.0, f_max)),
        profile={"indicator_mass": INF})


def log_power_kernel(beta, at_zero=False):
    """f comparable to s^-1 with a logarithmic correction of order -beta,
    at infinity (default) or at the left endpoint (``at_zero``)."""
    be = float(beta)
    if not (-1.0 < be < INF):
        raise ValueError("beta must be finite and exceed -1 for a decreasing kernel")
    if not at_zero:
        a, b = math.e, INF

        def fn(s):
            return 1.0 / (s * np.log(s) ** be)

        def wint(p, q):
            if abs(be - 1.0) < 1e-14:
                return math.log(math.log(q) / math.log(p))
            return (math.log(q) ** (1 - be) - math.log(p) ** (1 - be)) / (1 - be)

        abs_mass = 1.0 / (be - 1.0) if be > 1.0 else INF
        return Kernel("log_power", a, b, fn, monotone_decreasing=True,
                      nonnegative=True, tag=LogPower(be, at_zero=False),
                      window_integral=wint,
                      profile={"indicator_mass": INF, "abs_mass": abs_mass})
    bb = math.exp(-max(1.0, be))

    def fn(s):
        return 1.0 / (s * np.log(1.0 / s) ** be)

    def wint(p, q):
        # substitute v = log(1/s)
        vq, vp = math.log(1.0 / q), math.log(1.0 / p)
        if abs(be - 1.0) < 1e-14:
            return math.log(vp / vq)
        return (vp ** (1 - be) - vq ** (1 - be)) / (1 - be)

    # int_0^bb f ds diverges iff beta <= 1
    if be > 1.0:
        vb = math.log(1.0 / bb)
        abs_mass = vb ** (1 - be) / (be - 1.0)
    else:
        abs_mass = INF
    return Kernel("log_power_zero", 0.0, bb, fn, monotone_decreasing=True,
                  nonnegative=True, tag=LogPower(be, at_zero=True),
                  window_integral=wint,
                  profile={"indicator_mass": bb, "abs_mass": abs_mass,
                           "square_mass": INF, "clipped_square": None})


def sinc_kernel():
    """f(s) = sin(s)/s on (0, inf); sign-changing, non-monotone."""

    def fn(s):
        return np.sin(s) / s

    def wint(p, q):
        siq = float(sici(q)[0])
        sip = float(sici(p)[0])
        return siq - sip

    def wsq(p, q):
        W = lambda s: float(sici(2 * s)[0]) - math.sin(s) ** 2 / s
        return W(q) - W(p)

    return Kernel(
        "sinc", 0.0, INF, fn, monotone_decreasing=False, nonnegative=False,
        tag=None, window_integral=wint, window_square=wsq,
        abs_bound=lambda p, q: min(1.0, 1.0 / p) if p > 0 else 1.0,
        profile={"indicator_mass": INF, "abs_mass": INF,
                 "square_mass": math.pi / 2.0, "clipped_square": math.pi / 2.0,
                 "k_of_r": lambda x: math.pi / 2.0 if x <= 1.0 else None,
                 "h_of_r": lambda x: 0.0 if x <= 1.0 else None})


def indicator_kernel(height=1.0, a=0.0, b=1.0):
    """Constant kernel f = height on a finite interval (a, b)."""
    if height == 0.0 or not math.isfinite(height):
        raise ValueError("height must be nonzero and finite")
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("finite nondegenerate interval required")
    h = float(height)
    span = float(b - a)

    def level(u):
        return span if u < h else 0.0

    return Kernel(
        "indicator", a, b, lambda s: np.full_like(np.asarray(s, dtype=float), h),
        monotone_decreasing=True, nonnegative=h > 0, tag=None,
        window_integral=lambda p, q: h * (q - p),
        window_square=lambda p, q: h * h * (q - p),
        window_abs=lambda p, q: abs(h) * (q - p),
        level_upper=level, tau_density=(None, (h, h)),
        profile={"indicator_mass": span, "abs_mass": abs(h) * span,
                 "square_mass": h * h * span,
                 "clipped_square": min(h * h, 1.0) * span,
                 "k_of_r": lambda x: h * h * span if abs(h) <= 1.0 / x else 0.0,
                 "h_of_r": lambda x: span if abs(h) > 1.0 / x else 0.0})


BUILTIN_KERNELS = {
    "exp": exp_kernel,
    "log_inv": log_inverse_kernel,
    "power": power_tail_kernel,
    "power_at_zero": power_at_zero_kernel,
    "double_exp": double_exp_kernel,
    "log_power": log_power_kernel,
    "sinc": sinc_kernel,
    "indicator": indicator_kernel,
}

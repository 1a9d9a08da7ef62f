"""Adaptive quadrature and improper-limit drivers.

Everything here works on vectorized integrands: ``fn`` receives a 1-d array
of abscissae and returns an array whose leading axis matches it.  Values may
be real, complex, or vector-valued (trailing axes), which lets the Levy
machinery integrate characteristic-exponent integrands and location vectors
without per-point Python callbacks.

Every entry of a vector value is a component, and each component is
certified as if it ran alone: ``adaptive_quad`` refines until each
component's error is below ``atol + rtol * |component|``, and the improper
drivers keep the stabilization, geometric-tail and divergence state of each
component apart.  A component stops accumulating at the level where its own
rule decides it.  So a batch of integrands (one per scale, say) shares the
panel evaluations of one call, yet no component rides on the tolerance of a
larger one.  For a scalar or one-component value these are the plain
scalar rules.

Improper integrals over open or unbounded intervals are driven through
nested geometric windows.  The drivers return a three-valued outcome:
converged (with a value), diverged, or inconclusive, following a fixed
certification policy, per component:

* signed integrands: Cauchy stabilization of the partial value below
  ``rtol`` over ``consec`` consecutive levels certifies convergence;
  magnitude beyond ``diverge`` certifies divergence; otherwise the driver
  gives up after ``levels`` doublings.
* nonnegative integrands: additionally, window contributions decreasing at
  a geometric rate certify a finite value (with a tail bound), and window
  contributions bounded away from zero and non-decreasing over several
  consecutive levels certify divergence.

A nonnegative result is converged when every component is certified and
at least one converged, with ``+inf`` in each diverged component; diverged
(value ``None``) when every component diverged; and inconclusive when any
component is neither.  A signed vector with a divergent component has no
limit: that component ends the run as diverged.  The evidence is that of
the component decided last; with several components it also lists each
component's own under ``"components"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureFailure

INF = math.inf

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = np.arange(1, 15, 2)


def _panel(fn, a, b):
    """One Gauss-Kronrod panel; returns (value, per-component error)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _KRONROD_NODES
    y = np.asarray(fn(x))
    if y.shape[0] != 15:
        raise QuadratureFailure("integrand must be vectorized over abscissae")
    shape_tail = y.shape[1:]
    wk = _KRONROD_WEIGHTS.reshape((15,) + (1,) * len(shape_tail))
    wg = _GAUSS_WEIGHTS.reshape((7,) + (1,) * len(shape_tail))
    vk = half * (wk * y).sum(axis=0)
    vg = half * (wg * y[_GAUSS_IDX]).sum(axis=0)
    return vk, np.abs(vk - vg)


def _error_weights(total, rtol, atol):
    """Weights that order panels for refinement: the tightest component
    tolerance over each component's own, so a panel's key is its worst error
    relative to that component's tolerance (the error itself for one
    component)."""
    if np.size(total) == 1:
        return 1.0
    tol = np.maximum(atol + rtol * np.abs(total), 1e-300)
    return tol.min() / tol


def adaptive_quad(fn, a, b, *, rtol=1e-10, atol=1e-13, max_panels=16384):
    """Integrate ``fn`` over the finite interval [a, b].

    Returns ``(value, error_estimate)``, the estimate being the largest
    component error; raises :class:`QuadratureFailure` when the panel budget
    is exhausted before every component meets its tolerance.
    """
    import heapq

    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureFailure("adaptive_quad needs finite endpoints")
    if a == b:
        probe = np.asarray(fn(np.array([a])))
        return np.zeros(probe.shape[1:], dtype=probe.dtype), 0.0
    val, err = _panel(fn, a, b)
    counter = 0  # heap tiebreaker
    heap = [(0.0, counter, a, b, val, err)]
    total = np.array(val, copy=True)
    total_err = np.array(err, copy=True)
    n = 1
    while (total_err > atol + rtol * np.abs(total)).any() and n < max_panels:
        _, _, lo, hi, v0, e0 = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating-point resolution
            total_err = total_err - e0
            continue
        v1, e1 = _panel(fn, lo, mid)
        v2, e2 = _panel(fn, mid, hi)
        total = total - v0 + v1 + v2
        total_err = total_err - e0 + e1 + e2
        weight = _error_weights(total, rtol, atol)
        counter += 1
        heapq.heappush(heap, (-float((e1 * weight).max()), counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-float((e2 * weight).max()), counter, mid, hi, v2, e2))
        n += 2
    if np.any(total_err > 10.0 * (atol + rtol * np.maximum(np.abs(total), 1e-300))):
        raise QuadratureFailure(
            f"panel budget exhausted: err={float(np.max(total_err)):.3g}"
            f" over [{a:g},{b:g}]")
    return total, float(np.max(total_err))


@dataclass
class ImproperResult:
    status: str                      # "converged" | "diverged" | "inconclusive"
    value: object = None             # limit (+inf in diverged components) or None
    trace: list = field(default_factory=list)
    evidence: dict = field(default_factory=dict)

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def diverged(self):
        return self.status == "diverged"


class _Components:
    """Outcome of each component of an improper driver's value."""

    def __init__(self, n):
        self.status = ["open"] * n
        self.evidence = [None] * n
        self.last = None

    def open(self):
        return [c for c, s in enumerate(self.status) if s == "open"]

    def open_mask(self, shape):
        return np.array([s == "open" for s in self.status]).reshape(shape)

    def decide(self, c, status, evidence):
        self.status[c] = status
        self.evidence[c] = evidence
        self.last = evidence

    def with_components(self, evidence):
        if len(self.status) == 1:
            return evidence
        return {**evidence, "components": self.evidence}

    def result(self, value, trace, budget):
        """The driver's result once every component is decided or the
        level budget is spent; ``value`` holds each component's final
        value."""
        if "open" in self.status:
            return ImproperResult("inconclusive", value, trace,
                                  self.with_components(budget))
        if "converged" not in self.status:
            return ImproperResult("diverged", None, trace, self.with_components(self.last))
        if "diverged" in self.status:
            diverged = np.array([s == "diverged" for s in self.status])
            value = np.where(diverged.reshape(np.shape(value)), INF, value)
        return ImproperResult("converged", value, trace, self.with_components(self.last))


def default_anchor(a, b):
    """Initial window (p0, q0) inside (a, b) for the geometric schedule."""
    if math.isfinite(a) and math.isfinite(b):
        span = b - a
        return a + span / 3.0, b - span / 3.0
    if math.isfinite(a):
        return a + 1.0, a + 2.0
    if math.isfinite(b):
        return b - 2.0, b - 1.0
    return -1.0, 1.0


def window_schedule(a, b, levels, p0=None, q0=None):
    """Nested windows (p_n, q_n) with p_n -> a and q_n -> b geometrically."""
    d0p, d0q = default_anchor(a, b)
    p0 = d0p if p0 is None else p0
    q0 = d0q if q0 is None else q0
    out = []
    for n in range(levels + 1):
        if math.isfinite(a):
            p = a + (p0 - a) * 2.0 ** (-n)
        else:
            p = -max(1.0, abs(p0)) * 2.0 ** n
        if math.isfinite(b):
            q = b - (b - q0) * 2.0 ** (-n)
        else:
            q = max(1.0, abs(q0)) * 2.0 ** n
        out.append((p, q))
    return out


def improper_limit(slab, a, b, *, rtol=1e-8, atol=1e-12, diverge=1e10,
                   levels=48, consec=5, p0=None, q0=None):
    """Drive lim over windows of a signed (possibly vector) integral.

    ``slab(lo, hi)`` must return the integral over the finite slab [lo, hi].
    The driver accumulates the integral over nested windows and applies the
    Cauchy / magnitude policy described in the module docstring to each
    component.  A signed vector with a divergent component has no limit, so
    the first component past ``diverge`` ends the run as diverged.
    """
    sched = window_schedule(a, b, levels, p0=p0, q0=q0)
    p_prev, q_prev = sched[0]
    try:
        value = np.array(np.asarray(slab(p_prev, q_prev)), copy=True)
    except QuadratureFailure as e:
        return ImproperResult("inconclusive", None, [],
                              {"rule": "slab-quadrature-failure", "detail": str(e)})
    trace = [(p_prev, q_prev, np.array(value, copy=True))]
    comps = _Components(value.size)
    stable = [0] * value.size
    for (p, q) in sched[1:]:
        inc = 0.0
        try:
            if p < p_prev:
                inc = inc + np.asarray(slab(p, p_prev))
            if q > q_prev:
                inc = inc + np.asarray(slab(q_prev, q))
        except QuadratureFailure as e:
            return ImproperResult("inconclusive", value, trace,
                                  {"rule": "slab-quadrature-failure",
                                   "detail": str(e)})
        # a decided component keeps the value of the level that decided it
        new_value = np.where(comps.open_mask(value.shape), value + inc, value)
        delta = np.abs(new_value - value).reshape(-1)
        value = new_value
        trace.append((p, q, np.array(value, copy=True)))
        p_prev, q_prev = p, q
        mags = np.abs(value).reshape(-1)
        for c in comps.open():
            if mags[c] > diverge:
                # a vector with a divergent component has no limit
                comps.decide(c, "diverged", {"rule": "magnitude",
                                             "magnitude": float(mags[c])})
                return ImproperResult("diverged", None, trace,
                                      comps.with_components(comps.last))
            scale = max(1.0, float(mags[c]))
            if delta[c] < rtol * scale + atol:
                stable[c] += 1
                if stable[c] >= consec:
                    comps.decide(c, "converged", {"levels": len(trace) - 1})
            else:
                stable[c] = 0
        if not comps.open():
            return comps.result(value, trace, None)
    # budget exhausted: extrapolate an exactly geometric increment sequence
    tails = np.zeros_like(value)
    for c in comps.open():
        incs = [np.atleast_1d(trace[i + 1][2].reshape(-1)[c] - trace[i][2].reshape(-1)[c])
                for i in range(len(trace) - 1)][-6:]
        norms = [float(np.linalg.norm(v)) for v in incs]
        if len(norms) >= 5 and min(norms) > 0:
            ratios = [norms[i + 1] / norms[i] for i in range(len(norms) - 1)]
            spread = (max(ratios) - min(ratios)) / max(min(ratios), 1e-300)
            aligned = all(
                float(np.real(np.vdot(incs[i], incs[i + 1]))) >
                0.999 * norms[i] * norms[i + 1]
                for i in range(len(incs) - 1))
            if max(ratios) < 0.998 and spread < 1e-4 and aligned:
                rho = float(np.mean(ratios))
                tails.reshape(-1)[c] = incs[-1][0] * rho / (1.0 - rho)
                comps.decide(c, "converged", {"rule": "tight-geometric-extrapolation",
                                              "ratio": rho})
    if comps.open():
        return comps.result(value, trace, {"rule": "budget", "levels": levels})
    return comps.result(value + tails, trace, None)


def improper_nonneg(slab, a, b, *, rtol=1e-9, atol=1e-13, blowup=1e12,
                    levels=48, consec=4, grow_consec=7, floor=1e-13,
                    p0=None, q0=None):
    """Three-valued improper integral of a nonnegative integrand.

    Returns :class:`ImproperResult`; on ``"converged"`` the value includes a
    geometric extrapolation of the remaining tail when the window ratio is
    certifiably below one, and the evidence records the tail bound.  Each
    component of a vector integrand is certified on its own.
    """
    sched = window_schedule(a, b, levels, p0=p0, q0=q0)
    p_prev, q_prev = sched[0]
    try:
        first = np.asarray(slab(p_prev, q_prev))
    except QuadratureFailure as e:
        return ImproperResult("inconclusive", None, [],
                              {"rule": "slab-quadrature-failure", "detail": str(e)})
    total = np.array(first, dtype=float, copy=True)
    windows = []          # per-level added mass of each component
    trace = [(p_prev, q_prev, float(np.max(total)))]
    comps = _Components(total.size)
    stable = [0] * total.size
    growing = [0] * total.size
    for (p, q) in sched[1:]:
        inc = np.zeros_like(total)
        try:
            if p < p_prev:
                inc = inc + np.asarray(slab(p, p_prev))
            if q > q_prev:
                inc = inc + np.asarray(slab(q_prev, q))
        except QuadratureFailure as e:
            return ImproperResult("inconclusive", total, trace,
                                  {"rule": "slab-quadrature-failure",
                                   "detail": str(e)})
        # a decided component keeps the value of the level that decided it
        inc = np.where(comps.open_mask(total.shape), inc, 0.0)
        if np.any(inc < -1e-12 * np.maximum(1.0, np.abs(total))):
            raise QuadratureFailure("negative window in nonnegative improper integral")
        total = total + inc
        windows.append(inc.reshape(-1).tolist())
        trace.append((p, q, float(np.max(total))))
        p_prev, q_prev = p, q
        tot = total.reshape(-1)
        for c in comps.open():
            w = windows[-1][c]
            if float(tot[c]) > blowup:
                comps.decide(c, "diverged", {"rule": "threshold",
                                             "partial": float(tot[c])})
                continue
            scale = max(1.0, float(tot[c]))
            if w < rtol * scale + atol:
                stable[c] += 1
                if stable[c] >= consec:
                    comps.decide(c, "converged", {"rule": "stabilized", "tail_bound": w})
                    continue
            else:
                stable[c] = 0
            if len(windows) >= 2:
                # only (near-)nondecreasing window masses are divergence
                # evidence; geometric decay however slow is not
                if w >= 0.999 * windows[-2][c] and w > floor * scale:
                    growing[c] += 1
                else:
                    growing[c] = 0
                if growing[c] >= grow_consec:
                    comps.decide(c, "diverged", {"rule": "nondecreasing-windows",
                                                 "window": w, "count": growing[c]})
                    continue
            if len(windows) >= 10:
                # windows settled on a positive level (harmonic-type series):
                # genuine geometric decay loses visibly over five doublings,
                # and a rising transient fails the narrow-band requirement
                lagged = windows[-6][c]
                recent = [v[c] for v in windows[-3:]]
                if lagged > floor * scale and min(recent) > floor * scale \
                        and all(0.90 * lagged <= v <= 1.02 * lagged for v in recent) \
                        and max(recent) <= 1.05 * min(recent):
                    comps.decide(c, "diverged", {"rule": "non-vanishing-windows",
                                                 "window": w, "lagged": lagged})
        if not comps.open():
            return comps.result(total, trace, None)
    # Budget exhausted: attempt geometric tail certification.
    bounds = np.zeros_like(total)
    for c in comps.open():
        tail = [v[c] for v in windows[-6:] if v[c] > 0]
        if len(tail) < 4:
            continue
        ratios = [tail[i + 1] / tail[i] for i in range(len(tail) - 1)]
        rho = max(ratios)
        spread = (max(ratios) - min(ratios)) / max(min(ratios), 1e-300)
        if rho < 0.97:
            bound = tail[-1] * rho / (1.0 - rho)
            bounds.reshape(-1)[c] = bound
            comps.decide(c, "converged", {"rule": "geometric-tail", "tail_bound": bound,
                                          "ratio": rho})
        # exactly geometric decay (pure power integrands): the extrapolated
        # tail is exact up to the quadrature noise in the ratio estimate
        elif rho < 0.998 and spread < 1e-4:
            rho_hat = float(np.mean(ratios))
            bound = tail[-1] * rho_hat / (1.0 - rho_hat)
            bounds.reshape(-1)[c] = bound
            comps.decide(c, "converged", {"rule": "tight-geometric-extrapolation",
                                          "tail_bound": bound, "ratio": rho_hat})
    if comps.open():
        return comps.result(total, trace, {"rule": "budget", "levels": levels})
    return comps.result(total + bounds, trace, None)


def slab_quad(fn, *, rtol=1e-10, atol=1e-14):
    """Make a slab callable for the improper drivers from a vectorized fn."""
    def slab(lo, hi):
        return adaptive_quad(fn, lo, hi, rtol=rtol, atol=atol)[0]
    return slab


def bisect_monotone(fn, target, lo, hi, *, increasing, tol=1e-13, max_iter=200):
    """Locate the level-crossing abscissa of a monotone function.

    Returns s with ``fn(s) ~ target`` maintaining the bracket invariant; the
    returned point is the upper end of the final bracket, so for a decreasing
    ``fn`` it approximates sup{s : fn(s) > target}.
    """
    lo = float(lo)
    hi = float(hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        v = fn(mid)
        above = (v > target)
        if increasing:
            if above:
                hi = mid
            else:
                lo = mid
        else:
            if above:
                lo = mid
            else:
                hi = mid
        if hi - lo < tol * max(1.0, abs(mid)):
            break
    return hi

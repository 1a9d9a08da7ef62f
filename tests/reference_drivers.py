"""Frozen reference of the improper drivers' rules: ``improper_nonneg`` and
``improper_limit`` as they stood at commit 59345b8, copied verbatim with
their helpers, when each driver held its per-component state in numpy
arrays.  They serve as the oracle of ``tests/test_driver_oracle.py``: the
package's drivers must return what these return, byte for byte, on every
window sequence.  Do not edit the copied code; it is the rules' reference,
not a second implementation to maintain.

The file also holds ``kernels._end_limit``, the sampled limit of a monotone
function at one end of an interval, as it stood at commit dec5b36 with its
own copy of the geometric-tail rule; ``tests/test_driver_oracle.py`` checks
the package's ``_end_limit`` against it the same way.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from idcalc.errors import QuadratureFailure
from idcalc.quadrature import ImproperResult

INF = math.inf

# window levels whose slabs the drivers hand a batched slab in one call
_LOOKAHEAD = 8
# improper_nonneg: the run of (near-)nondecreasing window masses that
# certifies divergence, and the share of the total below which a window mass
# is no divergence evidence
_GROW_CONSEC = 7
_FLOOR = 1e-13


class _Components:
    """Outcome of each component of an improper driver's value."""

    def __init__(self, n, nonneg):
        self.status = ["open"] * n
        self.evidence = [None] * n
        self.last = None
        self.nonneg = nonneg

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
                                  self.with_components(budget), self.nonneg)
        if "converged" not in self.status:
            return ImproperResult("diverged",
                                  np.full(np.shape(value), INF) if self.nonneg else None,
                                  trace, self.with_components(self.last), self.nonneg)
        if "diverged" in self.status:
            diverged = np.array([s == "diverged" for s in self.status])
            value = np.where(diverged.reshape(np.shape(value)), INF, value)
        return ImproperResult("converged", value, trace, self.with_components(self.last),
                              self.nonneg)


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


class _LevelSlabs:
    """Slab values of each level of a window schedule, left window first.

    A batched slab (one from :func:`slab_quad`) is called on the windows of
    a block of levels at once; any other slab on one window at a time.  A
    block whose call raises or warns is redone one level at a time, as the
    driver reaches each level, so an exception or a warning comes only from
    a level the driver reaches.
    """

    def __init__(self, slab, sched):
        self.slab = slab
        self.sched = sched
        self.batched = getattr(slab, "batched", False)
        self.ready = {}
        self.solo_until = 0

    def windows(self, n):
        if n == 0:
            return [self.sched[0]]
        (p_prev, q_prev), (p, q) = self.sched[n - 1], self.sched[n]
        return [w for w, new in (((p, p_prev), p < p_prev), ((q_prev, q), q > q_prev))
                if new]

    def values(self, n, span):
        """Slab values of level ``n``.  When a block is due it holds ``span``
        levels from ``n`` on; the anchor window's level 0 rides along with
        the first block."""
        if n in self.ready:
            return self.ready.pop(n)
        if self.batched and n >= self.solo_until:
            block = range(n, min(n + span + (n == 0), len(self.sched)))
            wins = [self.windows(m) for m in block]
            flat = [w for ws in wins for w in ws]
            try:
                with warnings.catch_warnings(record=True) as caught:
                    vals = self.slab(np.array([w[0] for w in flat]),
                                     np.array([w[1] for w in flat]))
                clean = not caught
            except Exception:  # raised again below if a reached level raises it
                clean = False
            if clean:
                i = 0
                for m, ws in zip(block, wins):
                    self.ready[m] = list(vals[i:i + len(ws)])
                    i += len(ws)
                return self.ready.pop(n)
            self.solo_until = block.stop
        return [self.slab(lo, hi) for (lo, hi) in self.windows(n)]


def _lookahead(stable, open_, consec):
    """Levels to evaluate from the current one on: the lookahead, or fewer
    once every open component is in a stable run, since the run may then
    end ``consec`` minus the shortest run's length levels on."""
    runs = [stable[c] for c in open_]
    if runs and min(runs) > 0:
        return min(_LOOKAHEAD, consec - min(runs))
    return _LOOKAHEAD


def geometric_ratio(seq):
    """Mean ratio of consecutive terms that shrink at a ratio below 0.998
    steady to 1e-4 (exactly geometric, as a pure power's windows), else None."""
    r = [y / x for x, y in zip(seq, seq[1:])] if 0.0 not in seq else [0.0]
    lo, hi = min(r), max(r)
    steady = 0.0 < lo <= hi < 0.998 and (hi - lo) / lo < 1e-4
    return float(np.mean(r)) if steady else None


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
    slabs = _LevelSlabs(slab, sched)
    try:
        value = np.array(np.asarray(slabs.values(0, _LOOKAHEAD)[0]), copy=True)
    except QuadratureFailure as e:
        return ImproperResult("inconclusive", None, [],
                              {"rule": "slab-quadrature-failure", "detail": str(e)})
    trace = [(*sched[0], np.array(value, copy=True))]
    comps = _Components(value.size, False)
    stable = [0] * value.size
    for n, (p, q) in enumerate(sched[1:], 1):
        inc = 0.0
        try:
            for v in slabs.values(n, _lookahead(stable, comps.open(), consec)):
                inc = inc + np.asarray(v)
        except QuadratureFailure as e:
            return ImproperResult("inconclusive", value, trace,
                                  {"rule": "slab-quadrature-failure",
                                   "detail": str(e)})
        # a decided component keeps the value of the level that decided it
        new_value = np.where(comps.open_mask(value.shape), value + inc, value)
        delta = np.abs(new_value - value).reshape(-1)
        value = new_value
        trace.append((p, q, np.array(value, copy=True)))
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
            rho = geometric_ratio(norms)
            aligned = all(
                float(np.real(np.vdot(incs[i], incs[i + 1]))) >
                0.999 * norms[i] * norms[i + 1]
                for i in range(len(incs) - 1))
            if rho is not None and aligned:
                tails.reshape(-1)[c] = incs[-1][0] * rho / (1.0 - rho)
                comps.decide(c, "converged", {"rule": "tight-geometric-extrapolation",
                                              "ratio": rho})
    if comps.open():
        return comps.result(value, trace, {"rule": "budget", "levels": levels})
    return comps.result(value + tails, trace, None)


def improper_nonneg(slab, a, b, *, rtol=1e-9, atol=1e-13, blowup=1e12,
                    levels=48, consec=4, p0=None, q0=None):
    """Three-valued improper integral of a nonnegative integrand.

    Returns :class:`ImproperResult`; on ``"converged"`` the value includes a
    geometric extrapolation of the remaining tail when the window ratio is
    certifiably below one, and the evidence records the tail bound.  Each
    component of a vector integrand is certified on its own.
    """
    sched = window_schedule(a, b, levels, p0=p0, q0=q0)
    slabs = _LevelSlabs(slab, sched)
    try:
        first = np.asarray(slabs.values(0, _LOOKAHEAD)[0])
    except QuadratureFailure as e:
        return ImproperResult("inconclusive", None, [],
                              {"rule": "slab-quadrature-failure", "detail": str(e)}, True)
    total = np.array(first, dtype=float, copy=True)
    windows = []          # per-level added mass of each component
    trace = [(*sched[0], float(np.max(total)))]
    comps = _Components(total.size, True)
    stable = [0] * total.size
    growing = [0] * total.size
    for n, (p, q) in enumerate(sched[1:], 1):
        inc = np.zeros_like(total)
        try:
            for v in slabs.values(n, _lookahead(stable, comps.open(), consec)):
                inc = inc + np.asarray(v)
        except QuadratureFailure as e:
            return ImproperResult("inconclusive", total, trace,
                                  {"rule": "slab-quadrature-failure",
                                   "detail": str(e)}, True)
        # a decided component keeps the value of the level that decided it
        inc = np.where(comps.open_mask(total.shape), inc, 0.0)
        if np.any(inc < -1e-12 * np.maximum(1.0, np.abs(total))):
            raise QuadratureFailure("negative window in nonnegative improper integral")
        total = total + inc
        windows.append(inc.reshape(-1).tolist())
        trace.append((p, q, float(np.max(total))))
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
                if w >= 0.999 * windows[-2][c] and w > _FLOOR * scale:
                    growing[c] += 1
                else:
                    growing[c] = 0
                if growing[c] >= _GROW_CONSEC:
                    comps.decide(c, "diverged", {"rule": "nondecreasing-windows",
                                                 "window": w, "count": growing[c]})
                    continue
            if len(windows) >= 10:
                # windows settled on a positive level (harmonic-type series):
                # genuine geometric decay loses visibly over five doublings,
                # and a rising transient fails the narrow-band requirement
                lagged = windows[-6][c]
                recent = [v[c] for v in windows[-3:]]
                if lagged > _FLOOR * scale and min(recent) > _FLOOR * scale \
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
        rho = max(tail[i + 1] / tail[i] for i in range(len(tail) - 1))
        if rho < 0.97:
            bound = tail[-1] * rho / (1.0 - rho)
            bounds.reshape(-1)[c] = bound
            comps.decide(c, "converged", {"rule": "geometric-tail", "tail_bound": bound,
                                          "ratio": rho})
        # exactly geometric decay (pure power integrands): the extrapolated
        # tail is exact up to the quadrature noise in the ratio estimate
        elif (rho_hat := geometric_ratio(tail)) is not None:
            bound = tail[-1] * rho_hat / (1.0 - rho_hat)
            bounds.reshape(-1)[c] = bound
            comps.decide(c, "converged", {"rule": "tight-geometric-extrapolation",
                                          "tail_bound": bound, "ratio": rho_hat})
    if comps.open():
        return comps.result(total, trace, {"rule": "budget", "levels": levels})
    return comps.result(total + bounds, trace, None)


# ---------------------------------------------------------------------------
# kernels._end_limit as it stood at commit dec5b36, copied verbatim with its
# helpers, when it held its own copy of the geometric-tail rule
# ---------------------------------------------------------------------------

_END_SAMPLES = 64    # samples of an endpoint limit


def _geometric_tail(d):
    """Sum of the steps after the steps d by :func:`geometric_ratio`, or None."""
    rho = geometric_ratio(d) if len(d) == 5 else None
    return None if rho is None else d[-1] * rho / (1.0 - rho)


def _end_limit(g, lo, hi, end):
    """Sampled limit of a monotone scalar function g at one end of (lo, hi):
    (value, flat?), the value +-inf when g runs off.

    The samples double toward the end: s = +-1, +-2, ... on an infinite end,
    min(1, half the span) times 1, 1/2, ... off a finite one.  They stop when
    two agree relative to their size, the geometric tail of the last five
    steps added, or when that tail cancels the sample to 1e-12 (limit 0, as
    for a power-law approach to 0).  Out of samples (64, or the end's next
    float), the tail is still added, steps that shrink at ratios below 0.97
    keep the last sample, and other steps diverge (log(log(1/u)) does).  The
    limit is flat (g sits at it on a stretch before the end) only when the
    samples reach it without creeping to within 1e-12 of it first.
    """
    edge, sign = (lo, -1.0) if end == "lower" else (hi, 1.0)
    step0 = min(1.0, (hi - lo) / 2.0) if math.isfinite(hi - lo) else 1.0
    vals = []
    before = None   # the sample ahead of the last one's run of ties
    for j in range(1024):
        s = edge - sign * step0 * 2.0 ** -j if math.isfinite(edge) else sign * 2.0 ** j
        if s == edge or len(vals) == _END_SAMPLES:
            break
        if not lo < s < hi:
            continue
        v = float(g(s))
        if math.isinf(v):
            return v, False
        tail = _geometric_tail([y - x for x, y in zip(vals[-5:], vals[-4:] + [v])])
        if vals and abs(v - vals[-1]) <= 1e-12 * abs(v):
            lead = before if v == vals[-1] else vals[-1]
            return v + (tail or 0.0), lead is None or abs(lead - v) > 1e-12 * max(1.0, abs(v))
        if tail is not None and abs(v + tail) <= 1e-12 * abs(v):
            return 0.0, False
        if vals and v != vals[-1]:
            before = vals[-1]
        vals.append(v)
    d = [y - x for x, y in zip(vals[-6:-1], vals[-5:])]
    tail = _geometric_tail(d)
    if tail is None and not all(0.0 < y / x < 0.97 for x, y in zip(d, d[1:])):
        return math.copysign(INF, d[-1]), False
    return vals[-1] + (tail or 0.0), False

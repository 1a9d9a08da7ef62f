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
nested geometric windows by one level loop, entered as
:func:`improper_nonneg` for a nonnegative integrand and
:func:`improper_limit` for a signed one.  Its outcome is three-valued:
converged (with a value), diverged, or inconclusive.  Each level, every
open component meets one rule table, in this order, each rule written
once; its evidence label is the evidence's ``"rule"``.  A component's size
is its partial value (nonnegative) or that value's magnitude (signed), and
its step the level's window mass (nonnegative) or the magnitude of the
value's move (signed):

* ``threshold`` (nonnegative) / ``magnitude`` (signed): a size past
  ``blowup`` / ``diverge`` certifies divergence; a signed one ends the run;
* ``stabilized`` (nonnegative, the last step as ``tail_bound``) / no label
  (signed, ``{"levels": n}``, Cauchy convergence): steps below
  ``atol + rtol * max(1, size)`` at ``consec`` consecutive levels certify
  convergence;
* ``nondecreasing-windows`` (nonnegative): window masses at least 0.999
  times the one before, and above 1e-13 times the size, at seven
  consecutive levels certify divergence;
* ``non-vanishing-windows`` (nonnegative): the last three window masses
  within 5% of each other and within 0.90-1.02 times the one five levels
  before them certify divergence;
* once ``levels`` are spent, the tail rule :func:`geometric_tail` on the
  last six steps: ``geometric-tail`` (nonnegative: at least four positive
  window masses, every ratio below 0.97), then
  ``tight-geometric-extrapolation`` (both signs: a steady ratio; signed:
  five nonzero increments that also point one way) certify convergence,
  the geometric tail added; any other component leaves the run
  inconclusive, ``budget``.

A slab failure or a NaN ends the run as inconclusive,
``slab-quadrature-failure``.  ``kernels._end_limit`` takes its tail from
the same :func:`geometric_tail`.

A nonnegative result is converged when every component is certified and
at least one converged, with ``+inf`` in each diverged component; diverged
(``+inf`` in every component) when every component diverged; and
inconclusive when any component is neither.  A signed vector with a
divergent component has no limit: that component ends the run as diverged,
with value ``None``.  The evidence is that of the component decided last;
with several components it also lists each component's own under
``"components"``.

Callers read a result through one of its two readers, so the decision is
read the same way everywhere:

* :meth:`ImproperResult.certified` gives the value: the limit when
  converged, ``+inf`` when a nonnegative integral diverged; a signed
  divergence or an inconclusive run raises
  ``InconclusiveError("<what> not certified", evidence)``;
* :meth:`ImproperResult.verdict` gives the three-valued verdict
  ``<stem>-finite`` (nonnegative, with the value as witness) or
  ``<stem>-convergent`` (signed), ``<stem>-divergent`` or
  ``<stem>-uncertified``, the last two with the driver's evidence.

Block evaluation.  The slabs of a driver's levels are independent
integrals, so a slab made by :func:`slab_quad` is handed the windows of a
block of upcoming levels at once, and ``adaptive_quad`` integrates them all
with one integrand call per refinement sweep.  Each window refines as it
would alone, so for an integrand that treats each abscissa on its own every
value is what the level-by-level drivers computed.  The drivers still apply
their rules level by level and stop at the same level; the slabs past it
are wasted work, which the lookahead bounds:

* a block holds ``_LOOKAHEAD`` levels (the first one also the anchor
  window), or ``consec`` minus the shortest stable run once every open
  component is in one, the most levels the run can still take if it
  stabilizes;
* a block whose call raises (a quadrature failure, an inconclusive inner
  limit, a floating-point error) or warns is redone one level at a time,
  as the driver reaches each level, so an exception or a warning comes
  only from a level the driver reaches.

Any other slab (a closed-form window hook, say) is called one window at a
time.

Driver state is Python lists, one float per component: on a level's few
components a numpy call costs more than the rules.  Slab values become
lists once per block, the signed driver keeps one trace array per level,
and complex magnitudes are numpy's (Python's ``abs`` misses some by an
ulp).  A NaN that a level adds to an open component is a slab failure.
"""

from __future__ import annotations

import functools
import heapq
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InconclusiveError, QuadratureFailure
from .verdicts import Verdict

INF = math.inf

# window levels whose slabs the drivers hand a batched slab in one call
_LOOKAHEAD = 8
# improper_nonneg: the run of (near-)nondecreasing window masses that
# certifies divergence, and the share of the total below which a window mass
# is no divergence evidence
_GROW_CONSEC = 7
_FLOOR = 1e-13

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


def _panels(fn, lo, hi):
    """Gauss-Kronrod panels on [lo[i], hi[i]], all in one ``fn`` call;
    returns (values, per-component errors) stacked along the first axis."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = (mid[:, None] + half[:, None] * _KRONROD_NODES).reshape(-1)
    y = np.asarray(fn(x))
    if y.shape[:1] != x.shape:
        raise QuadratureFailure("integrand must be vectorized over abscissae")
    y = y.reshape((len(lo), 15) + y.shape[1:])
    tail = (1,) * (y.ndim - 2)
    half = half.reshape((-1,) + tail)
    vk = half * (_KRONROD_WEIGHTS.reshape((15,) + tail) * y).sum(axis=1)
    # a slice, not an index array, keeps the product in C order, so each
    # panel's Gauss sum adds its terms in the order a lone panel's does
    vg = half * (_GAUSS_WEIGHTS.reshape((7,) + tail) * y[:, 1::2]).sum(axis=1)
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


def _per_window(flags):
    """Whether any component is flagged, per window (leading axis)."""
    return flags.any(axis=tuple(range(1, flags.ndim)))


class _Refining:
    """A window of :func:`adaptive_quad` still refining: its heap of panels,
    worst first, their count, and its value and error."""

    def __init__(self, a, b, value, err):
        self.heap = [(0.0, 0, a, b, value, err)]
        self.panels = 1
        self.value = value
        self.err = err

    def split(self, lo, mid, hi, v0, e0, v1, e1, v2, e2, rtol, atol):
        """Replace the panel [lo, hi] by its halves."""
        self.value = self.value - v0 + v1 + v2
        self.err = self.err - e0 + e1 + e2
        weight = _error_weights(self.value, rtol, atol)
        n = self.panels  # the panel count doubles as the heap tiebreaker
        heapq.heappush(self.heap, (-float((e1 * weight).max()), n, lo, mid, v1, e1))
        heapq.heappush(self.heap, (-float((e2 * weight).max()), n + 1, mid, hi, v2, e2))
        self.panels = n + 2


def adaptive_quad(fn, a, b, *, rtol=1e-10, atol=1e-13, max_panels=16384):
    """Integrate ``fn`` over the finite interval [a, b], or over each window
    [a[i], b[i]] when the endpoints are 1-d arrays.

    Returns ``(value, error_estimate)``, the estimate being the largest
    component error; for arrays of endpoints both are stacked over the
    windows.  Raises :class:`QuadratureFailure` when a window exhausts its
    panel budget before every component meets its tolerance.

    The windows share ``fn`` calls: one on the first panels of them all,
    then one per refinement sweep, in which every unfinished window splits
    its own worst panel.  So each window refines as it would alone, and for
    an integrand that treats each abscissa on its own, its value does not
    depend on the other windows.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                               np.atleast_1d(np.asarray(b, dtype=float)))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise QuadratureFailure("adaptive_quad needs finite endpoints")
    live = np.flatnonzero(a != b)
    if live.size:
        vals, errs = _panels(fn, a[live], b[live])
    else:
        probe = np.asarray(fn(a[:1]))
        vals = np.zeros((0,) + probe.shape[1:], dtype=probe.dtype)
        errs = np.zeros(vals.shape)
    total = np.zeros((len(a),) + vals.shape[1:], dtype=vals.dtype)
    total_err = np.zeros(total.shape)
    total[live] = vals
    total_err[live] = errs
    unmet = _per_window(errs > atol + rtol * np.abs(vals))
    todo = {w: _Refining(a[w], b[w], vals[i], errs[i])
            for i, w in enumerate(live) if unmet[i]}
    while todo:
        # every unfinished window pops its worst panel that can still split
        picks = []
        for w, r in todo.items():
            while (r.err > atol + rtol * np.abs(r.value)).any() and r.panels < max_panels:
                _, _, lo, hi, v0, e0 = heapq.heappop(r.heap)
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:  # interval at floating-point resolution
                    r.err = r.err - e0
                    continue
                picks.append((w, lo, mid, hi, v0, e0))
                break
            else:  # the window is done
                total[w] = r.value
                total_err[w] = r.err
        if not picks:
            break
        ends = np.array([(lo, mid, hi) for (_, lo, mid, hi, _, _) in picks])
        v, e = _panels(fn, ends[:, :2].reshape(-1), ends[:, 1:].reshape(-1))
        # a copy per panel, so that a split panel's memory is freed
        v, e = [x.copy() for x in v], [x.copy() for x in e]
        for i, (w, lo, mid, hi, v0, e0) in enumerate(picks):
            todo[w].split(lo, mid, hi, v0, e0, v[2 * i], e[2 * i],
                          v[2 * i + 1], e[2 * i + 1], rtol, atol)
        todo = {w: todo[w] for (w, *_) in picks}
    failed = np.flatnonzero(_per_window(
        total_err > 10.0 * (atol + rtol * np.maximum(np.abs(total), 1e-300))))
    if failed.size:
        w = failed[0]
        raise QuadratureFailure(
            f"panel budget exhausted: err={float(np.max(total_err[w])):.3g}"
            f" over [{a[w]:g},{b[w]:g}]")
    if scalar:
        return total[0], float(np.max(total_err[0]))
    return total, total_err.max(axis=tuple(range(1, total_err.ndim)), initial=0.0)


@dataclass
class ImproperResult:
    status: str                      # "converged" | "diverged" | "inconclusive"
    value: object = None             # limit (+inf in diverged components) or None
    trace: list = field(default_factory=list)
    evidence: dict = field(default_factory=dict)
    nonneg: bool = False             # the integrand is nonnegative

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def diverged(self):
        return self.status == "diverged"

    def certified(self, what):
        """The limit, +inf for a diverged nonnegative integral; raises
        :class:`InconclusiveError` naming ``what`` otherwise."""
        if self.converged or (self.diverged and self.nonneg):
            return self.value
        raise InconclusiveError(f"{what} not certified", self.evidence)

    def verdict(self, stem):
        """The three-valued verdict ``<stem>-finite`` / ``-convergent``,
        ``<stem>-divergent`` or ``<stem>-uncertified``."""
        if self.converged:
            if self.nonneg:
                return Verdict.yes(f"{stem}-finite", value=float(np.max(self.value)))
            return Verdict.yes(f"{stem}-convergent")
        if self.diverged:
            return Verdict.no(f"{stem}-divergent", **self.evidence)
        return Verdict.unknown(f"{stem}-uncertified", **self.evidence)


class _Components:
    """Outcome, open list and stable runs of an improper driver's components."""

    def __init__(self, n, nonneg):
        self.status = ["open"] * n
        self.evidence = [None] * n
        self.last = None
        self.nonneg = nonneg
        self.open = list(range(n))
        self.stable = [0] * n

    def decide(self, c, status, evidence):
        self.status[c] = status
        self.evidence[c] = evidence
        self.last = evidence
        self.open.remove(c)

    def span(self, consec):
        """Levels to evaluate from the current one on: the lookahead, or fewer
        once every open component is in a stable run, which may then end
        ``consec`` minus the shortest run's length levels on."""
        runs = [self.stable[c] for c in self.open]
        if runs and min(runs) > 0:
            return min(_LOOKAHEAD, consec - min(runs))
        return _LOOKAHEAD

    def with_components(self, evidence):
        if len(self.status) == 1:
            return evidence
        return {**evidence, "components": self.evidence}

    def result(self, value, trace, budget):
        """The driver's result once every component is decided or the
        level budget is spent; ``value`` holds each component's final
        value."""
        if self.open:
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


@functools.lru_cache(maxsize=256, typed=True)
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
    return tuple(out)


class _LevelSlabs:
    """Slab values of each level of a window schedule, left window first,
    each a flat list of components, of a value of shape ``shape``.

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
        self.complex = False

    def windows(self, n):
        if n == 0:
            return [self.sched[0]]
        (p_prev, q_prev), (p, q) = self.sched[n - 1], self.sched[n]
        return [w for w, new in (((p, p_prev), p < p_prev), ((q_prev, q), q > q_prev))
                if new]

    def rows(self, vals, count=None):
        """Values of ``count`` stacked windows, or of one, as flat lists."""
        vals = np.asarray(vals)
        self.shape = vals.shape if count is None else vals.shape[1:]
        self.complex = self.complex or vals.dtype.kind == "c"
        return vals.reshape(1 if count is None else count, math.prod(self.shape)).tolist()

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
                rows = self.rows(vals, len(flat))
                i = 0
                for m, ws in zip(block, wins):
                    self.ready[m] = rows[i:i + len(ws)]
                    i += len(ws)
                return self.ready.pop(n)
            self.solo_until = block.stop
        return [self.rows(self.slab(lo, hi))[0] for (lo, hi) in self.windows(n)]


def _level_sum(level, zero, size):
    """Each component's sum of a level's windows, onto ``zero`` as in numpy."""
    inc = [zero] * size
    for row in level:
        inc = [x + y for x, y in zip(inc, row)]
    return inc


def _no_nan(vals, n, open_=None, what="slab value"):
    """``vals``, unless level ``n`` adds a NaN, which no rule reads, to an
    open component (to any when ``open_`` is None)."""
    if any(v != v for v in (vals if open_ is None else (vals[c] for c in open_))):
        raise QuadratureFailure(f"NaN {what} at level {n}")
    return vals


def _value(vals, shape, reduce):
    """Component values as an array of ``shape``; a 0-d one as a numpy
    scalar when ``reduce``, as the array sums of the level loop gave it."""
    arr = np.array(vals).reshape(shape)
    return arr[()] if reduce and not shape else arr


def geometric_tail(steps, loose):
    """The tail rule on the magnitudes of a sequence's last steps: (rule,
    ratio) of the rule that certifies they go on shrinking geometrically,
    their tail summing to ``last * ratio / (1 - ratio)``, or None.

    When ``loose``, steps that all shrink at ratios in (0, 0.97) certify
    ``geometric-tail`` with the largest ratio (0.0 for fewer than two
    steps).  Otherwise, or then, steps that shrink at ratios below 0.998
    steady to 1e-4 (exactly geometric, as a pure power's windows) certify
    ``tight-geometric-extrapolation`` with the mean ratio.
    """
    r = [y / x for x, y in zip(steps, steps[1:])] if 0.0 not in steps else [0.0]
    if loose and all(0.0 < x < 0.97 for x in r):
        return "geometric-tail", max(r, default=0.0)
    lo, hi = min(r), max(r)
    if 0.0 < lo <= hi < 0.998 and (hi - lo) / lo < 1e-4:
        return "tight-geometric-extrapolation", float(np.mean(r))
    return None


def _certify(slab, a, b, nonneg, rtol, atol, bound, levels, consec, p0, q0):
    """The level loop of both improper drivers: each level's slabs are added
    to every open component, which then meets the rule table of the module
    docstring, its sign's rules in the table's order; once the budget is
    spent, the open components meet the tail rule."""
    sched = window_schedule(a, b, levels, p0=p0, q0=q0)
    slabs = _LevelSlabs(slab, sched)
    try:
        row = slabs.values(0, _LOOKAHEAD)[0]
        value = _no_nan([float(v) for v in row] if nonneg else row, 0)
    except QuadratureFailure as e:
        return ImproperResult("inconclusive", None, [], {"rule": "slab-quadrature-failure",
                                                         "detail": str(e)}, nonneg)
    shape, size = slabs.shape, len(value)
    comps = _Components(size, nonneg)
    trace = [(*sched[0], float(np.max(value)) if nonneg else _value(value, shape, False))]
    # each component's step at each level it was open: the added window
    # mass for a nonnegative integrand, the value's move for a signed one
    steps = [[] for _ in value]
    stable, growing = comps.stable, [0] * size
    for n, (p, q) in enumerate(sched[1:], 1):
        open_ = comps.open[:]
        try:
            level = slabs.values(n, comps.span(consec))
            inc = _no_nan(_level_sum(level, 0j if slabs.complex else 0.0, size), n, open_)
            # an inf total plus a -inf window
            _no_nan([value[c] + inc[c] for c in open_], n, what="total")
        except QuadratureFailure as e:
            return ImproperResult("inconclusive", _value(value, shape, nonneg and n > 1), trace,
                                  {"rule": "slab-quadrature-failure", "detail": str(e)}, nonneg)
        if nonneg and any(inc[c] < -1e-12 * max(1.0, abs(value[c])) for c in open_):
            raise QuadratureFailure("negative window in nonnegative improper integral")
        # a decided component keeps the value of the level that decided it
        for c in open_:
            x = value[c]
            value[c] = x + inc[c]
            steps[c].append(inc[c] if nonneg else value[c] - x)
        trace.append((p, q, max(value) if nonneg else _value(value, shape, False)))
        if nonneg:
            sizes, moves = value, inc
        else:
            # numpy's complex magnitudes: Python's abs misses some by an ulp
            absolute = np.abs if slabs.complex else (lambda vals: [abs(v) for v in vals])
            sizes, moves = absolute(value), absolute([s[-1] for s in steps])
        for c in open_:
            mag, move = sizes[c], moves[c]
            if mag > bound:
                comps.decide(c, "diverged", {"rule": "threshold", "partial": mag} if nonneg
                             else {"rule": "magnitude", "magnitude": float(mag)})
                if nonneg:
                    continue
                # a signed vector with a divergent component has no limit
                return ImproperResult("diverged", None, trace,
                                      comps.with_components(comps.last))
            scale = max(1.0, mag)
            if move < rtol * scale + atol:
                stable[c] += 1
                if stable[c] >= consec:
                    comps.decide(c, "converged", {"rule": "stabilized", "tail_bound": move}
                                 if nonneg else {"levels": n})
                    continue
            else:
                stable[c] = 0
            if not nonneg:
                continue
            seen = steps[c]
            if len(seen) >= 2:
                # only (near-)nondecreasing window masses are divergence
                # evidence; geometric decay however slow is not
                if move >= 0.999 * seen[-2] and move > _FLOOR * scale:
                    growing[c] += 1
                else:
                    growing[c] = 0
                if growing[c] >= _GROW_CONSEC:
                    comps.decide(c, "diverged", {"rule": "nondecreasing-windows",
                                                 "window": move, "count": growing[c]})
                    continue
            if len(seen) >= 10:
                # windows settled on a positive level (harmonic-type series):
                # genuine geometric decay loses visibly over five doublings,
                # and a rising transient fails the narrow-band requirement
                lagged = seen[-6]
                recent = seen[-3:]
                if lagged > _FLOOR * scale and min(recent) > _FLOOR * scale \
                        and all(0.90 * lagged <= v <= 1.02 * lagged for v in recent) \
                        and max(recent) <= 1.05 * min(recent):
                    comps.decide(c, "diverged", {"rule": "non-vanishing-windows",
                                                 "window": move, "lagged": lagged})
        if not comps.open:
            return comps.result(_value(value, shape, nonneg), trace, None)
    # the budget is spent: the tail rule on each open component's last six
    # steps, the positive window masses of a nonnegative integrand or the
    # norms of a signed one's increments, which must also point one way
    tails = {}
    for c in comps.open[:]:
        if nonneg:
            mags = [v for v in steps[c][-6:] if v > 0]
            found = len(mags) >= 4 and geometric_tail(mags, True)
        else:
            incs = [np.atleast_1d(v) for v in steps[c][-6:]]
            mags = [float(np.linalg.norm(v)) for v in incs]
            found = (len(mags) >= 5 and min(mags) > 0
                     and all(float(np.real(np.vdot(x, y))) > 0.999 * nx * ny
                             for x, y, nx, ny in zip(incs, incs[1:], mags, mags[1:]))
                     and geometric_tail(mags, False))
        if found:
            rule, rho = found
            tails[c] = (mags[-1] if nonneg else incs[-1][0]) * rho / (1.0 - rho)
            comps.decide(c, "converged", {"rule": rule, "tail_bound": tails[c], "ratio": rho}
                         if nonneg else {"rule": rule, "ratio": rho})
    if comps.open:
        return comps.result(_value(value, shape, nonneg and len(trace) > 1), trace,
                            {"rule": "budget", "levels": levels})
    for c, tail in tails.items():
        value[c] += tail
    return comps.result(_value(value, shape, True), trace, None)


def improper_limit(slab, a, b, *, rtol=1e-8, atol=1e-12, diverge=1e10,
                   levels=48, consec=5, p0=None, q0=None):
    """Drive lim over windows of a signed (possibly vector) integral, whose
    slab ``slab(lo, hi)`` over a finite window [lo, hi] is given, by the
    signed rules of the module docstring's table."""
    return _certify(slab, a, b, False, rtol, atol, diverge, levels, consec, p0, q0)


def improper_nonneg(slab, a, b, *, rtol=1e-9, atol=1e-13, blowup=1e12,
                    levels=48, consec=4, p0=None, q0=None):
    """Three-valued improper integral of a nonnegative (possibly vector)
    integrand, whose slab over a finite window is given, by the nonnegative
    rules of the module docstring's table."""
    return _certify(slab, a, b, True, rtol, atol, blowup, levels, consec, p0, q0)


def slab_quad(fn, *, rtol=1e-10, atol=1e-14):
    """Make a slab callable for the improper drivers from a vectorized fn.

    The slab takes one window or arrays of windows, so the drivers evaluate
    a block of levels in one :func:`adaptive_quad` call."""
    def slab(lo, hi):
        return adaptive_quad(fn, lo, hi, rtol=rtol, atol=atol)[0]
    slab.batched = True
    return slab


def bisect_monotone(fn, target, lo, hi, *, increasing, tol=1e-13):
    """Locate the level-crossing abscissa of a monotone function.

    Returns s with ``fn(s) ~ target`` maintaining the bracket invariant; the
    returned point is the upper end of the final bracket, so for a decreasing
    ``fn`` it approximates sup{s : fn(s) > target}.
    """
    lo = float(lo)
    hi = float(hi)
    for _ in range(200):
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

"""The improper drivers against their frozen reference.

``reference_drivers`` holds ``improper_nonneg`` and ``improper_limit`` as
they were when their per-component state lived in numpy arrays.  Each
seeded case below builds a synthetic window sequence (a slab that looks up
a value for each window of the schedule), runs it through both versions
and asserts that they agree exactly: the status, the bytes and type of the
value, ``repr`` of the evidence, every trace entry, the warnings, any
exception, and the log of slab calls, so the blocks and the lookahead are
the same too.

The sequences cover real and complex values (complex only for the signed
driver), scalar and vector values, batched and plain slabs, every exit
rule, and slabs that raise or warn at a level, before the stop or past it.
NaN is left out: there the drivers deliberately differ from the reference
(``test_quadrature`` checks that they end the run).

``kernels._end_limit`` is checked against its frozen copy too, on seeded
monotone functions sampled toward a finite or an infinite end: the
``(value, flat)`` pair must have the same bytes.
"""

import math
import struct
import warnings

import numpy as np
import pytest

import reference_drivers as ref
from idcalc import kernels, quadrature
from idcalc.errors import InconclusiveError, QuadratureFailure

INF = math.inf
CASES = 2000

# (a, b, p0, q0)
INTERVALS = [(1.0, INF, None, None), (0.0, INF, None, None), (-INF, INF, None, None),
             (0.0, 1.0, None, None), (-INF, -2.0, None, None), (-INF, INF, -3.0, 0.5),
             (2.0, 5.0, 2.5, 4.0), (0.5, INF, 0.75, None)]
SHAPES = [(), (), (1,), (2,), (3,), (5,), (2, 2)]
NONNEG_PROFILES = ["stable", "decay", "exact", "flat", "grow", "noisy", "zero", "huge",
                   "harmonic"]
SIGNED_PROFILES = ["stable", "decay", "exact", "alternating", "osc", "grow", "zero",
                   "harmonic"]


def _profile(rng, kind, signed):
    """A function of the level giving one window's mass."""
    c = float(10.0 ** rng.uniform(-3.0, 1.0))
    if kind == "stable":
        rho = rng.uniform(0.01, 0.3)
        return lambda m: c * rho ** m
    if kind == "decay":
        rho = rng.uniform(0.3, 0.96)
        return lambda m: c * rho ** m
    if kind == "exact":
        rho = rng.uniform(0.9 if signed else 0.97, 0.997)
        return lambda m: c * rho ** m
    if kind == "flat":
        noise = rng.uniform(0.0, 0.02, 64)
        return lambda m: c * (1.0 + noise[m])
    if kind == "grow":
        g = rng.uniform(1.0, 3.0)
        return lambda m: c * g ** m
    if kind == "noisy":
        rho = rng.uniform(0.9, 1.0)
        noise = rng.uniform(0.0, 1.0, 64)
        return lambda m: c * noise[m] * rho ** m
    if kind == "zero":
        return lambda m: 0.0
    if kind == "huge":
        at = int(rng.integers(1, 20))
        return lambda m: 1e13 if m == at else c * 0.5 ** m
    if kind == "harmonic":
        return lambda m: c / (1.0 + m)
    if kind == "alternating":
        rho = rng.uniform(0.3, 0.95)
        return lambda m: c * (-rho) ** m
    if kind == "osc":
        w = rng.uniform(0.3, 2.0)
        return lambda m: c * math.cos(w * m)
    raise ValueError(kind)


class Case:
    """One synthetic window sequence and the options of its driver run."""

    def __init__(self, seed, signed):
        rng = np.random.default_rng([int(signed), seed])
        self.a, self.b, self.p0, self.q0 = INTERVALS[rng.integers(len(INTERVALS))]
        self.shape = SHAPES[rng.integers(len(SHAPES))]
        self.complex = signed and rng.random() < 0.35
        self.batched = rng.random() < 0.6
        self.pyfloat = not self.shape and rng.random() < 0.3
        levels = int(rng.choice([0, 1, 3, 6, 12, 20, 32, 48, 48]))
        self.kw = {"levels": levels, "consec": int(rng.integers(2, 7)),
                   "rtol": float(rng.choice([1e-6, 1e-8, 1e-9])),
                   "atol": float(rng.choice([0.0, 1e-13, 1e-12]))}
        if self.p0 is not None:
            self.kw["p0"] = self.p0
        if self.q0 is not None:
            self.kw["q0"] = self.q0
        if signed:
            self.kw["diverge"] = float(rng.choice([1e4, 1e10]))
        else:
            self.kw["blowup"] = float(rng.choice([1e6, 1e12]))
        size = math.prod(self.shape)
        kinds = SIGNED_PROFILES if signed else NONNEG_PROFILES
        # each component draws one profile, each side of a level its own mass
        comps = [kinds[rng.integers(len(kinds))] for _ in range(size)]
        sides = {side: [_profile(rng, k, signed) for k in comps]
                 for side in ("anchor", "left", "right")}
        phases = [np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) for _ in range(size)]
        spin = rng.uniform(0.0, 1.0) if rng.random() < 0.5 else 0.0
        sched = ref.window_schedule(self.a, self.b, levels, p0=self.p0, q0=self.q0)
        self.table = {}
        for m in range(len(sched)):
            wins = ref._LevelSlabs(None, sched).windows(m)
            for (lo, hi) in wins:
                side = "anchor" if m == 0 else ("left" if lo < sched[m - 1][0] else "right")
                vals = np.array([f(m) for f in sides[side]])
                if self.complex:
                    vals = vals * np.array(phases) * np.exp(1j * spin * m)
                self.table[(lo, hi)] = (m, vals.reshape(self.shape))
        # a level whose slab raises or warns, perhaps beyond the run's stop
        self.raises = self.warns = self.negative = None
        if rng.random() < 0.2:
            self.raises = (int(rng.integers(0, levels + 1)),
                           QuadratureFailure if rng.random() < 0.6 else InconclusiveError)
        if rng.random() < 0.15:
            self.warns = int(rng.integers(0, levels + 1))
        if not signed and levels and rng.random() < 0.08:
            self.negative = int(rng.integers(1, levels + 1))
        self.log = []

    def _one(self, lo, hi):
        m, vals = self.table[(lo, hi)]
        if self.raises is not None and m == self.raises[0]:
            raise self.raises[1](f"slab failed at level {m}")
        if self.warns == m:
            warnings.warn(f"slab warned at level {m}", UserWarning)
        if self.negative == m:
            vals = vals - 1.0
        if self.pyfloat:
            return complex(vals) if self.complex else float(vals)
        return vals.copy()

    def slab(self):
        """A fresh slab over the table, logging each call."""
        self.log = []
        if not self.batched:
            def plain(lo, hi):
                self.log.append(("one", lo, hi))
                return self._one(lo, hi)
            return plain

        def batched(lo, hi):
            if np.ndim(lo) == 0:
                self.log.append(("one", lo, hi))
                return self._one(lo, hi)
            self.log.append(("block", tuple(lo.tolist()), tuple(hi.tolist())))
            dtype = complex if self.complex else float
            out = np.zeros((len(lo),) + self.shape, dtype=dtype)
            for i, (l, h) in enumerate(zip(lo.tolist(), hi.tolist())):
                out[i] = self._one(l, h)
            return out
        batched.batched = True
        return batched


def _run(driver, case):
    """What one driver run shows: its result or exception, the warnings it
    let through and the slab calls it made."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = driver(case.slab(), case.a, case.b, **case.kw)
        except (QuadratureFailure, InconclusiveError) as e:
            out = e
    return out, [str(w.message) for w in caught], case.log


def _bytes(v):
    if v is None:
        return None
    arr = np.asarray(v)
    return type(v).__name__, arr.dtype.str, arr.shape, arr.tobytes()


def _assert_same(got, want):
    (res, warned, log), (ref_res, ref_warned, ref_log) = got, want
    assert log == ref_log
    assert warned == ref_warned
    assert type(res) is type(ref_res)
    if isinstance(ref_res, Exception):
        assert str(res) == str(ref_res)
        return
    assert (res.status, res.nonneg) == (ref_res.status, ref_res.nonneg)
    assert _bytes(res.value) == _bytes(ref_res.value)
    assert repr(res.evidence) == repr(ref_res.evidence)
    assert len(res.trace) == len(ref_res.trace)
    for (p, q, v), (rp, rq, rv) in zip(res.trace, ref_res.trace):
        assert repr((p, q)) == repr((rp, rq))
        assert _bytes(v) == _bytes(rv)


def _exit(out):
    if isinstance(out, Exception):
        return type(out).__name__
    return out.evidence.get("rule") or ("cauchy" if out.converged else "unlabelled")


EXITS = {
    "nonneg": {"stabilized", "geometric-tail", "tight-geometric-extrapolation",
               "threshold", "nondecreasing-windows", "non-vanishing-windows", "budget",
               "slab-quadrature-failure", "QuadratureFailure", "InconclusiveError"},
    "limit": {"cauchy", "tight-geometric-extrapolation", "magnitude", "budget",
              "slab-quadrature-failure", "InconclusiveError"},
}


@pytest.mark.parametrize("name", ["nonneg", "limit"])
def test_drivers_match_the_reference(name):
    new = getattr(quadrature, f"improper_{name}")
    old = getattr(ref, f"improper_{name}")
    exits = set()
    kinds = set()
    for seed in range(CASES):
        case = Case(seed, name == "limit")
        want = _run(old, case)
        got = _run(new, case)
        try:
            _assert_same(got, want)
        except AssertionError as e:
            raise AssertionError(f"case {seed}: {e}") from None
        exits.add(_exit(want[0]))
        kinds.add((case.batched, case.complex, case.shape == ()))
    # every exit rule, and each kind of sequence, was exercised
    assert exits >= EXITS[name]
    assert len(kinds) == (8 if name == "limit" else 4)


# (lo, hi) of an end limit's interval
END_INTERVALS = [(0.0, INF), (1.0, INF), (-INF, 0.0), (-INF, -2.0), (-INF, INF),
                 (0.0, 1.0), (-1.0, 3.0), (2.0, 2.5), (-3.0, -2.9999)]
# how g approaches its end: power, log, geometric steps, ties of a quantized
# power, a flat stretch, and run-offs to +-inf (a power, a log, a log-log and
# an inf past a point)
END_KINDS = ["power", "log", "steps", "ties", "flat", "runoff", "log-runoff", "loglog",
             "inf"]


def _pow(t, e):
    try:
        return t ** e
    except OverflowError:
        return INF


def _end_case(seed):
    """A function g monotone along the samples toward one end of (lo, hi):
    g = limit + sign * h(t), where t > 0 shrinks toward the end (the distance
    to a finite end, one over |s| toward an infinite one)."""
    rng = np.random.default_rng([2, seed])
    lo, hi = END_INTERVALS[rng.integers(len(END_INTERVALS))]
    end = "lower" if rng.random() < 0.5 else "upper"
    edge = lo if end == "lower" else hi
    kind = END_KINDS[rng.integers(len(END_KINDS))]
    c = float(10.0 ** rng.uniform(-3.0, 2.0))
    alpha = float(rng.uniform(0.05, 3.0))
    rho = float(rng.uniform(0.05, 0.999))
    t0 = float(2.0 ** -rng.uniform(0.0, 40.0))
    quantum = float(2.0 ** -rng.integers(4, 40))
    limit = float(rng.choice([0.0, 0.0, rng.normal(), 1e8 * rng.normal(), 1e-9]))
    sign = 1.0 if rng.random() < 0.5 else -1.0
    h = {"power": lambda t: c * _pow(t, alpha),
         "log": lambda t: c / math.log1p(1.0 / t),
         "steps": lambda t: c * rho ** math.floor(-math.log2(t)),
         "ties": lambda t: c * quantum * round(_pow(t, alpha) / quantum),
         "flat": lambda t: c * _pow(max(t - t0, 0.0), alpha),
         "runoff": lambda t: c * _pow(t, -alpha),
         "log-runoff": lambda t: c * math.log(1.0 / t),
         "loglog": lambda t: c * math.log(math.log(math.e + 1.0 / t)),
         "inf": lambda t: INF if t < t0 else c * _pow(t, -alpha)}[kind]
    dist = (lambda s: abs(s - edge)) if math.isfinite(edge) else (lambda s: 1.0 / abs(s))
    return (lambda s: limit + sign * h(dist(s))), lo, hi, end


def _outcome(value, flat):
    if math.isinf(value):
        return "+inf" if value > 0 else "-inf"
    return "flat" if flat else ("zero" if value == 0.0 else "finite")


def test_end_limit_matches_the_reference():
    outcomes = set()
    for seed in range(CASES):
        g, lo, hi, end = _end_case(seed)
        value, flat = kernels._end_limit(g, lo, hi, end)
        want, want_flat = ref._end_limit(g, lo, hi, end)
        assert (struct.pack("<d", value), flat) == (struct.pack("<d", want), want_flat), \
            f"case {seed}: {(value, flat)} != {(want, want_flat)}"
        outcomes.add(_outcome(want, want_flat))
    # every kind of answer was exercised
    assert outcomes == {"+inf", "-inf", "flat", "zero", "finite"}

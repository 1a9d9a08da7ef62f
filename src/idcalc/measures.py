"""Levy measure representations.

A Levy measure assigns no mass to the origin and integrates |x|^2 ^ 1.  The
calculus below needs several integral functionals of a measure nu, evaluated
either exactly (atoms, stable families) or by certified quadrature (radial
densities).  The transformed measures, window pushforwards and occupation
mixtures, are scale mixtures of these representations and live in
``idcalc.transform`` (``ScaleMixtureMeasure``).

Every representation answers each functional, a :class:`Functional`
record, through one entry ``scaled(f, us)``: f at each of the m scales of
the 1-d array ``us``, shape (m,) + ``f.shape(dim)``: (m,), (m, dim) for a
vector functional, and (m, m_z) for the cumulant over an (m_z, d) grid of
arguments.  The public methods wrap it, a scalar ``us`` counting as m = 1:

* ``scaled_integral(h, us, lo, hi)`` ("shell") -- int h(u x) nu(dx) over
  lo <= |u x| < hi, h >= 0
* ``clip2_scaled(us)`` ("clip2") -- int (|u x|^2 ^ 1) nu(dx)
* ``clip1_scaled(us)`` ("clip1") -- int (|u x| ^ 1) nu(dx), may be +inf
* ``centering_scaled(us)`` ("centering") -- int x (1/(1+|ux|^2) -
  1/(1+|x|^2)) nu(dx)
* ``cumulant_scaled(z, us)`` ("cumulant") -- int (e^{i<z,ux>} - 1 -
  i<z,ux>/(1+|ux|^2)) nu(dx), at one argument z or at each row of a grid
* ``vector_weighted_scaled(w, us, lo, hi)`` ("vector_shell") -- int (u x)
  w(|u x|) nu(dx) over lo <= |u x| < hi
* ``tail_mass(rs)`` ("tail", args the radii) -- nu(|x| >= r), the value
  nu(|u x| >= 1) at u = 1/r, so r = 0 is u = inf and r = inf is u = 0

``integral`` and ``vector_weighted`` are their one-scale case u = 1.  A
primitive representation implements ``_<name>(us, *args)`` per record
name, which the default ``scaled`` reaches by name, so a subclass's closed
form overrides its parent's quadrature by plain inheritance.  A composite
overrides ``scaled`` once, knowing of a functional only its record
(:class:`Functional`).  Per representation:

* atoms: exact sums, one call of ``h`` (or ``w``) on all m x n points,
  and one phase array for the cumulant over every argument;
* the polar family, nu(B) = sum_k w_k int 1_B(r xi_k) rho(r) dr
  (``RadialMeasure``), rho a function on an open support (lo, hi)
  (``RadialDensity``), its dual r^-4 rho(1/r) on (1/hi, 1/lo): every
  radial integral runs through one driver body, in r or in y = |u| r,
  each scale certified as its own component (a divergent one, such as the
  clip1 body of a density r^-2.5 at 0, as +inf).  The
  shells, the tail (the shell of 1 over [1, inf)) and the centering share
  one route split (``_routed``), so a zero scale gives 0 in each: over
  [0, inf) the r-range and window schedule are common to all scales, so
  one r-space call serves them all; a shell [lo, hi) has the y-range
  [lo, hi) at every scale, so one y-space call serves the scales |u| <= 1
  of a density supported on (0, inf), and the rest run one r-space call
  per scale and direction; the cumulant runs one signed driver per
  direction, with a column per scale and argument.
  ``StableMeasure`` (rho = r^(-alpha-1)) and ``GammaMeasure``
  (rho = c e^(-lambda r) / r) are members of the family that override only
  the primitives with closed forms; the stable scaling identity
  nu(B/u) = |u|^alpha nu(sign(u) B) lets one base integral per sign of u
  serve every scale, both tails are closed forms, and each cumulant is one
  closed-form call per direction over every scale and argument;
* the zero measure answers zeros, and a sum the sum over its parts.

Every representation, the scale mixtures of ``idcalc.transform``
included, materializes its own symmetrization nu(B) + nu(-B)
(``symmetrized()``) in the same representation.

Radius regions are half-open [lo, hi) so that body/tail splits partition an
atom sitting exactly on the boundary.

All objects are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import IdcalcError, InconclusiveError
from .quadrature import adaptive_quad, improper_nonneg, improper_limit, slab_quad

INF = math.inf


def _norms(pts):
    return np.sqrt((pts * pts).sum(axis=1))


def _region_mask(r, lo, hi):
    return (r >= lo) & (r < hi)


def _scales(us):
    us = np.asarray(us, dtype=float)
    return us if us.ndim else us.reshape(1)


_ONE = np.array([1.0])


class Functional(NamedTuple):
    """One functional: ``name`` picks the primitive ``_<name>(us, *args)``;
    ``vector`` and ``dtype`` give the shape and type of one scale's value,
    and the cumulant over a grid of m_z arguments has one entry per row;
    ``nonneg`` lets a mixture certify it +inf; ``label`` names it in errors;
    ``atol`` is the absolute panel tolerance of a mixing quadrature."""

    name: str
    args: tuple = ()
    vector: bool = False
    dtype: type = float
    nonneg: bool = False
    label: str = "integral"
    atol: float = 1e-13

    def shape(self, dim):
        if self.name == "cumulant":
            return self.args[0].shape[:-1]
        return (dim,) if self.vector else ()


_CLIP2 = Functional("clip2", nonneg=True)
_CLIP1 = Functional("clip1", nonneg=True)
_CENTERING = Functional("centering", vector=True, label="centering")


def _reflection_symmetric(points, masses):
    """Whether the weighted points are invariant under x -> -x: the masses
    of repeated points (to 12 digits) add up before the comparison."""
    total = {}
    for p, m in zip(map(tuple, np.round(points, 12)), masses):
        total[p] = total.get(p, 0.0) + m
    return all(math.isclose(m, total.get(tuple(-q for q in p), 0.0), rel_tol=1e-12)
               for p, m in total.items())


def _in_orthant(points, signs):
    return bool(np.all(points * np.asarray(signs, dtype=float)[None, :] >= 0))


class LevyMeasure:
    """Abstract base.  A subclass implements ``symmetrized`` and ``scaled``,
    the latter directly (a composite) or through the primitives ``_shell``,
    ``_clip2``, ``_clip1``, ``_centering``, ``_cumulant``, ``_vector_shell``
    and ``_tail`` that the default reaches by name."""

    dim: int

    def scaled(self, f, us):
        """The functional ``f`` at every scale of the 1-d float array
        ``us``, shape (m,) + f.shape(dim)."""
        return getattr(self, "_" + f.name)(us, *f.args)

    # -- the functionals, one wrapper each -----------------------------------
    def integral(self, h, lo=0.0, hi=INF):
        """int h(x) nu(dx) over lo <= |x| < hi: the one-scale case."""
        return float(self.scaled_integral(h, _ONE, lo, hi)[0])

    def scaled_integral(self, h, us, lo=0.0, hi=INF):
        """int h(u x) nu(dx) over lo <= |u x| < hi, one entry per scale."""
        return self.scaled(Functional("shell", (h, lo, hi), nonneg=True), _scales(us))

    def clip2_scaled(self, us):
        return self.scaled(_CLIP2, _scales(us))

    def clip1_scaled(self, us):
        return self.scaled(_CLIP1, _scales(us))

    def centering_scaled(self, us):
        return self.scaled(_CENTERING, _scales(us))

    def cumulant_scaled(self, z, us):
        """The cumulant at one argument z, shape (m,), or at each row of an
        (m_z, d) grid z, shape (m, m_z)."""
        return self.scaled(Functional("cumulant", (np.asarray(z, dtype=float),),
                                      dtype=complex, label="exponent"), _scales(us))

    def vector_weighted(self, w, lo=0.0, hi=INF):
        """int x w(|x|) nu(dx) over lo <= |x| < hi: the one-scale case."""
        return self.vector_weighted_scaled(w, _ONE, lo, hi)[0]

    def vector_weighted_scaled(self, w, us, lo=0.0, hi=INF):
        """int (u x) w(|u x|) nu(dx) over lo <= |u x| < hi, shape (m, dim)."""
        return self.scaled(Functional("vector_shell", (w, lo, hi), vector=True,
                                      label="moment vector"), _scales(us))

    def tail_mass(self, rs):
        """nu(|x| >= r) at every radius r >= 0: the tail at scale 1/r, r = 0
        counting every jump; the record carries r, as r * (1/r) may round below 1."""
        rs = _scales(rs)
        if not np.all(rs >= 0.0):
            raise ValueError("tail radii must be nonnegative numbers")
        with np.errstate(divide="ignore", over="ignore"):
            us = 1.0 / rs
        return self.scaled(Functional("tail", (rs,), nonneg=True, atol=1e-12), us)

    # -- derived conveniences ------------------------------------------------
    def total_mass(self):
        return self.integral(lambda x: np.ones(x.shape[0]))

    def clipped_second_moment(self):
        return float(self.clip2_scaled(_ONE)[0])

    def small_jump_first_moment(self):
        """int_{|x| < 1} |x| nu(dx)."""
        return self.integral(lambda x: _norms(x), 0.0, 1.0)

    def tail_first_moment(self):
        """int_{|x| >= 1} |x| nu(dx)."""
        return self.integral(lambda x: _norms(x), 1.0, INF)

    def is_zero(self):
        return False

    def is_symmetric(self):
        return False

    def supported_in_orthant(self, signs):
        """True / False / None (unknown) for Supp(nu) within the signed orthant."""
        return None

    def dual(self):
        """Inversion-transported measure.  The result remembers its base, so
        applying the inversion twice is bitwise exact."""
        base = getattr(self, "_dual_of", None)
        if base is not None:
            return base
        out = self._dual()
        out._dual_of = self
        return out

    def _dual(self):
        raise IdcalcError("dual is available only for primitive representations")

    def symmetrized(self):
        """nu(B) + nu(-B), in the representation of nu."""
        raise NotImplementedError


class ZeroMeasure(LevyMeasure):
    """The zero measure (no jumps)."""

    def __init__(self, dim=1):
        self.dim = dim

    def scaled(self, f, us):
        return np.zeros(us.shape + f.shape(self.dim), f.dtype)

    def is_zero(self):
        return True

    def is_symmetric(self):
        return True

    def supported_in_orthant(self, signs):
        return True

    def dual(self):
        return self

    def symmetrized(self):
        return self


class AtomicMeasure(LevyMeasure):
    """Finitely many atoms; every functional is an exact sum."""

    def __init__(self, points, masses):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2:
            raise ValueError("points must be a (n, d) array")
        masses = np.asarray(masses, dtype=float)
        if masses.shape != (pts.shape[0],):
            raise ValueError("one mass per atom required")
        if not np.all((masses > 0) & (masses < INF)):
            raise ValueError("atom masses must be positive and finite")
        if not np.all(np.isfinite(pts)):
            raise ValueError("atom points must be finite")
        r = _norms(pts)
        if np.any(r == 0):
            raise ValueError("a Levy measure has no atom at the origin")
        self.points = pts
        self.masses = masses
        self.radii = r
        self.dim = pts.shape[1]

    def _scaled_radii(self, us, lo, hi):
        """|u| r of every (scale, atom) pair, and the mask of the pairs with
        u != 0 inside [lo, hi)."""
        with np.errstate(over="ignore"):
            ur = np.abs(us)[:, None] * self.radii[None, :]
        return ur, _region_mask(ur, lo, hi) & (us != 0.0)[:, None]

    def _shell(self, us, h, lo, hi):
        _, m = self._scaled_radii(us, lo, hi)
        vals = np.zeros(m.shape)
        if m.any():
            with np.errstate(over="ignore"):
                pts = us[:, None, None] * self.points[None, :, :]
            vals[m] = np.asarray(h(pts[m]), dtype=float)
        return (vals * self.masses[None, :]).sum(axis=1)

    def _tail(self, us, rs):
        return (self.radii[None, :] >= rs[:, None]) @ self.masses

    def _clip2(self, us):
        y = np.minimum(np.square(np.outer(us, self.radii)), 1.0)
        return y @ self.masses

    def _clip1(self, us):
        y = np.minimum(np.abs(np.outer(us, self.radii)), 1.0)
        return y @ self.masses

    def _centering(self, us):
        ur = np.outer(us, self.radii)
        w = 1.0 / (1.0 + ur * ur) - 1.0 / (1.0 + self.radii * self.radii)[None, :]
        return (w * self.masses[None, :]) @ self.points

    def _cumulant(self, us, z):
        zx = self.points @ z.T                    # (n,), or (n, m_z) for a grid
        uzx = np.multiply.outer(us, zx)           # (m, n) or (m, n, m_z)
        ur = np.outer(us, self.radii)
        damp = (1.0 + ur * ur).reshape(ur.shape + (1,) * (z.ndim - 1))
        integrand = np.exp(1j * uzx) - 1.0 - 1j * uzx / damp
        return np.moveaxis(integrand, 1, -1) @ self.masses

    def _vector_shell(self, us, w, lo, hi):
        ur, m = self._scaled_radii(us, lo, hi)
        wv = np.zeros(m.shape)
        if m.any():
            wv[m] = np.asarray(w(ur[m]), dtype=float)
        weighted = (wv * self.masses[None, :])[:, :, None]
        return us[:, None] * (self.points[None, :, :] * weighted).sum(axis=1)

    def is_symmetric(self):
        return _reflection_symmetric(self.points, self.masses)

    def supported_in_orthant(self, signs):
        return _in_orthant(self.points, signs)

    def _dual(self):
        r2 = self.radii ** 2
        return AtomicMeasure(self.points / r2[:, None], self.masses * r2)

    def symmetrized(self):
        pts = np.vstack([self.points, -self.points])
        masses = np.concatenate([self.masses, self.masses])
        merged = {}
        for p, m in zip(pts, masses):
            key = tuple(p.tolist())
            merged[key] = merged.get(key, 0.0) + m
        out_pts = np.array(list(merged.keys()))
        out_ms = np.array(list(merged.values()))
        return AtomicMeasure(out_pts, out_ms)


def compound_poisson_empirical(jumps, rate=1.0):
    """Empirical compound-Poisson Levy measure: rate * (empirical law of jumps)."""
    pts = np.atleast_2d(np.asarray(jumps, dtype=float))
    n = pts.shape[0]
    return AtomicMeasure(pts, np.full(n, rate / n))


def _drive(fn, lo, hi, signed, atol):
    """int_lo^hi fn(t) dt, each component certified: the driver body that
    the radial variable r and the shell variable y = |u| r share.  A proper
    range runs ``adaptive_quad`` with absolute floor ``atol``; ends at 0 or
    inf are improper, driven nonnegative (may give +inf) or, with
    ``signed``, signed."""
    if math.isfinite(hi) and hi > 1e6 * max(lo, 1.0):
        # a huge finite bound behaves like infinity: scale-geometric
        # windows find the interior mass, the cap becomes a mask
        inner, cap, hi = fn, hi, INF

        def fn(t):
            m = t < cap
            with np.errstate(over="ignore", invalid="ignore"):
                y = np.asarray(inner(np.where(m, t, 1.0)))
            return np.where(m.reshape((-1,) + (1,) * (y.ndim - 1)), y, 0.0)
    if math.isfinite(lo) and math.isfinite(hi) and lo > 0:
        return adaptive_quad(fn, lo, hi, rtol=1e-11, atol=atol)[0]
    # a positive finite endpoint is proper: anchor the schedule on it so
    # no refinement is spent (or misled) below the transition scale
    p0 = lo if lo > 0 else None
    q0 = hi if math.isfinite(hi) else None
    slab = slab_quad(fn, rtol=1e-11)
    if signed:
        res = improper_limit(slab, lo, hi, rtol=1e-10, p0=p0, q0=q0)
        return res.certified("signed radial integral")
    res = improper_nonneg(slab, lo, hi, p0=p0, q0=q0)
    return res.certified("radial integral")


class RadialDensity:
    """Radial density rho(r): the function ``fn`` on an open interval
    ``support`` = (lo, hi) of (0, inf), 0 <= lo < hi <= inf, and 0 off it."""

    def __init__(self, fn, support=(0.0, INF)):
        lo, hi = float(support[0]), float(support[1])
        if not 0.0 <= lo < hi:
            raise ValueError("radial support must satisfy 0 <= lo < hi <= inf")
        self.fn = fn
        self.support = (lo, hi)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        lo, hi = self.support
        out = np.zeros_like(r)
        m = (r > lo) & (r < hi)
        if m.any():
            out[m] = self.fn(r[m])
        return out


class RadialMeasure(LevyMeasure):
    """Polar representation: directions (unit vectors with weights) times a
    common radial density.

    The base of the polar family.  Subclasses pass their exact density and
    override only the primitives that have closed forms; the generic ones
    run certified radial quadrature of the density.
    """

    def __init__(self, directions, weights, density: RadialDensity, validate=True):
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (dirs.shape[0],):
            raise ValueError("one weight per direction required")
        if not np.all((weights > 0) & (weights < INF)):
            raise ValueError("direction weights must be positive and finite")
        if not np.all(np.abs(_norms(dirs) - 1.0) <= 1e-9):
            raise ValueError("directions must be unit vectors")
        self.directions = dirs
        self.weights = weights
        self.density = density
        self.dim = dirs.shape[1]
        if validate:
            c2 = self.clipped_second_moment()
            if not math.isfinite(c2):
                raise ValueError("radial density does not integrate r^2 ^ 1")

    def weight_sum(self):
        return float(self.weights.sum())

    def _radial_law(self):
        """Key of the radial law; polar measures with equal keys differ only
        in their directions and weights."""
        return self.density

    def direction_sum(self):
        """sum_k w_k xi_k."""
        return np.einsum("k,kd->d", self.weights, self.directions)

    def radial_integral(self, g, lo=0.0, hi=INF, signed=False):
        """int_lo^hi g(r) rho(r) dr, each component of g certified: the one
        radial driver of the polar family."""
        slo = max(lo, self.density.support[0])
        shi = min(hi, self.density.support[1])
        if slo >= shi:
            return 0.0

        def fn(r):
            y = np.asarray(g(r))
            with np.errstate(over="ignore", invalid="ignore"):
                d = np.asarray(self.density(r))   # may overflow at a singular 0
                out = y * d if y.ndim == 1 else \
                    y * d.reshape((-1,) + (1,) * (y.ndim - 1))
            # 0 * inf artifacts outside the density's support are true zeros
            return np.nan_to_num(out, nan=0.0, posinf=INF, neginf=-INF)
        return _drive(fn, slo, shi, signed, atol=1e-13)

    def _routed(self, cols, weights, us, lo, hi, signed=False):
        """sum_k weights_k int col_k rho over the shell lo <= |u| r < hi for
        every scale u of ``us``, and the parameters v it used: u where the
        variable is r, sign(u) where it is y = |u| r.  ``cols(t, v, ks)``
        gives the columns ``ks`` of the integrand at the points t of the
        variable, shape (len(t), len(ks), len(v)).

        The routes of the nonzero scales: over [0, inf), one r-space driver
        for all; over a shell, one y-space driver for the scales |u| <= 1 of
        a density supported on (0, inf), each column certified relatively
        (floor 1e-300), as its value scales with |u|; the rest in r, one
        driver per scale and column, stopping at the first infinite
        column.  For |u| > 1 the y-windows (lo + 2) 2^n / |u| in r fall
        behind the r-space ones (lo / |u| + 2) 2^n, and a support end would
        be a step at a different y per scale."""
        nz = np.flatnonzero(us)
        none = nz[:0]
        if lo == 0.0 and hi == INF:
            full, ys, loop = (nz, none, none) if nz.size > 1 else (none, none, nz)
        elif self.density.support != (0.0, INF):
            full, ys, loop = none, none, nz
        else:
            small = np.abs(us[nz]) <= 1.0
            full, ys, loop = none, nz[small], nz[~small]
        out, v = np.zeros(us.shape), np.zeros(us.shape)
        v[full], v[ys], v[loop] = us[full], np.sign(us[ys]), us[loop]
        if full.size:
            u = us[full]
            parts = np.zeros(len(weights) * u.size) + self.radial_integral(
                lambda r: cols(r, u, slice(None)).reshape(len(r), -1), 0.0, INF, signed)
            out[full] = weights @ parts.reshape(-1, u.size)
        if ys.size:
            au, vy = np.abs(us[ys]), v[ys]

            def fn(y):
                # r = y / a may overflow for tiny a: the density is 0 there
                with np.errstate(over="ignore"):
                    d = self.density(y[:, None] / au[None, :]) / au[None, :]
                return (cols(y, vy, slice(None)) * d[:, None, :]).reshape(len(y), -1)
            parts = _drive(fn, lo, hi, signed, atol=1e-300)
            out[ys] = weights @ parts.reshape(-1, ys.size)
        for i in loop:
            a = abs(us[i])
            with np.errstate(over="ignore"):
                rlo, rhi = lo / a, hi / a
            total = 0.0
            for k, wk in enumerate(weights):
                part = self.radial_integral(
                    lambda r: cols(r, us[i:i + 1], slice(k, k + 1))[:, 0, 0], rlo, rhi,
                    signed)
                if part == INF:
                    total = INF
                    break
                total += wk * part
            out[i] = total
        return out, v

    def _shell(self, us, h, lo, hi):
        def cols(t, v, ks):
            # h(t v_j xi_k), one column per (direction k in ks, scale j)
            dirs = self.directions[ks]
            x = (t[:, None] * v[None, :])[:, None, :, None] * dirs[None, :, None, :]
            return np.asarray(h(x.reshape(-1, self.dim)),
                              dtype=float).reshape(len(t), len(dirs), v.size)
        return self._routed(cols, self.weights, us, lo, hi)[0]

    def _tail(self, us, rs):
        # one routed shell of 1 over |u| r >= 1; the total mass at u = inf
        fin = np.isfinite(us)
        shell = self._shell(np.where(fin, us, 0.0), lambda x: np.ones(x.shape[0]), 1.0, INF)
        return shell if fin.all() else np.where(fin, shell, self.total_mass())

    def _clip_single(self, u, power):
        """int (|u r|^power ^ 1) rho(r) dr, split at the clipping radius so
        the window drivers never face a hidden transition scale."""
        if u == 0.0:
            return 0.0
        rstar = 1.0 / abs(u)
        body = self.radial_integral(lambda r: r ** power, 0.0, rstar)
        if body == INF:
            return INF
        tail = self.radial_integral(np.ones_like, rstar, INF)
        if tail == INF:
            return INF
        return abs(u) ** power * float(body) + float(tail)

    def _clip2(self, us):
        return self.weight_sum() * np.array([self._clip_single(float(u), 2.0) for u in us])

    def _clip1(self, us):
        # the drivers certify a divergent body; it diverges at every u != 0
        vals = np.array([self._clip_single(float(u), 1.0) for u in us])
        if np.any(np.isinf(vals)):
            return np.where(us != 0, INF, 0.0)
        return self.weight_sum() * vals

    def _centering(self, us):
        # routed, so a zero scale (its column diverges at r = 0) gives 0
        def col(r, v, ks):
            ur = np.outer(r, v)
            r2 = (r * r)[:, None]
            return (r[:, None] * (1.0 / (1.0 + ur * ur) - 1.0 / (1.0 + r2)))[:, None, :]

        val = self._routed(col, _ONE, us, 0.0, INF, signed=True)[0]
        return np.einsum("k,kd,m->md", self.weights, self.directions, val)

    def _cumulant(self, us, z):
        # one signed driver per direction, with a column per scale and, for
        # a grid z, per argument
        out = np.zeros(us.shape + z.shape[:-1], dtype=complex)
        for xi, w in zip(self.directions, self.weights):
            theta = xi @ z.T

            def g(r, theta=theta):
                ur = np.outer(r, us)
                phase = np.multiply.outer(ur, theta)
                with np.errstate(divide="ignore", over="ignore"):
                    damp = 1.0 / (1.0 + 1.0 / (ur * ur))   # u^2 r^2 / (1 + u^2 r^2)
                damp = damp.reshape(damp.shape + (1,) * theta.ndim)
                # free of cancellation at small r, where the density may blow up
                return -2.0 * np.sin(0.5 * phase) ** 2 \
                    + 1j * (np.sin(phase) - phase + phase * damp)

            val = self._cumulant_radial(g, np.abs(theta))
            out = out + w * np.asarray(val)
        return out

    def _cumulant_radial(self, g, theta):
        """Radial quadrature of the characteristic-exponent integrand, at
        the phase factors |theta| of the arguments (the columns' last axis).

        The oscillatory factor is resolved on a finite range; beyond it the
        remaining mass of the density bounds the discarded oscillatory tail,
        which is accepted once it falls below tolerance at every argument.
        """
        slo = self.density.support[0]
        if math.isfinite(self.density.support[1]):
            return self.radial_integral(g, signed=True)
        R = max(8.0, slo * 4)
        for _ in range(40):
            total = self.radial_integral(g, 0.0, R, signed=True)
            tail_mass = self.radial_integral(np.ones_like, R, INF)
            if tail_mass == INF:
                raise InconclusiveError("density tail mass diverges")
            bound = (2.0 + 0.5 * theta) * tail_mass
            scale = np.maximum(1e-12, np.abs(np.atleast_1d(total)).max(axis=0))
            if np.all(bound < 1e-9 * scale + 1e-13):
                return total
            R *= 4.0
        raise InconclusiveError("cumulant tail bound did not close")

    def _vector_shell(self, us, w, lo, hi):
        # int (u r xi) w(|u| r) rho(r) dr over the directions: the weighted
        # direction sum times one coefficient per scale, v int t w(|v| t)
        # over the variable t of the scale's route
        def col(t, v, ks):
            x = t[:, None] * np.abs(v)[None, :]
            return (t[:, None] * np.asarray(w(x.ravel()), dtype=float).reshape(x.shape))[
                :, None, :]
        coef, v = self._routed(col, _ONE, us, lo, hi, signed=True)
        return np.outer(v * coef, self.direction_sum())

    def is_symmetric(self):
        return _reflection_symmetric(self.directions, self.weights)

    def supported_in_orthant(self, signs):
        return _in_orthant(self.directions, signs)

    def _dual(self):
        # density r^-4 rho(1/r) on the inverted support; clip2 is invariant
        # under the inversion, so the dual needs no validation
        fn = self.density.fn
        lo, hi = self.density.support
        dens = RadialDensity(lambda r: fn(1.0 / r) / r ** 4,
                             (0.0 if hi == INF else 1.0 / hi, INF if lo == 0.0 else 1.0 / lo))
        return RadialMeasure(self.directions, self.weights, dens, validate=False)

    def _reflected(self):
        """Directions and weights of nu(B) + nu(-B)."""
        return (np.vstack([self.directions, -self.directions]),
                np.concatenate([self.weights, self.weights]))

    def symmetrized(self):
        return RadialMeasure(*self._reflected(), self.density, validate=False)


def _exp_arctan_transform(y):
    """g(y) = int_0^inf e^{-y t} / (1 + t^2) dt for y > 0, vectorized.

    Large arguments switch to the asymptotic expansion to avoid evaluating
    trigonometric functions at huge phases.
    """
    from scipy.special import sici
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = np.empty(y.shape)
    big = y > 1e4
    small = ~big
    if np.any(small):
        ys = y[small]
        si, ci = sici(ys)
        out[small] = ci * np.sin(ys) + np.cos(ys) * (0.5 * math.pi - si)
    if np.any(big):
        yb = np.minimum(y[big], 1e75)
        y2 = yb * yb
        out[big] = (1.0 - 2.0 / y2 + 24.0 / (y2 * y2)) / yb
    return out


class GammaMeasure(RadialMeasure):
    """Levy measure of a gamma subordinator along one direction:
    radial density shape * exp(-rate r) / r.

    The clipped moments, the centering integral and the characteristic
    exponent all reduce to exponential integrals and the sine/cosine
    integrals, so the transform machinery runs in closed form.  With
    x = rate/|u|, the clipped moments use the cancellation-free forms
    1 - (1 + x) e^-x = P(2, x) (the regularized lower incomplete gamma
    function, as Gamma(2) = 1) and 1 - e^-x = -expm1(-x), and the second
    moment takes its body as P(2, x) / x^2 (the series 1/2 - x/3 + x^2/8
    below x = 1e-5), which never squares u; both stay accurate to rounding
    at the large scales |u| (small x) that the improper drivers reach.
    """

    def __init__(self, shape, rate, direction):
        if not (0.0 < shape < INF and 0.0 < rate < INF):
            raise ValueError("shape and rate must be positive and finite")
        direction = np.atleast_1d(np.asarray(direction, dtype=float))
        norm = float(np.linalg.norm(direction))
        if not (0.0 < norm < INF):
            raise ValueError("direction must be a nonzero finite vector")
        c = self.shape = float(shape)
        lam = self.rate = float(rate)
        self.direction = direction / norm
        super().__init__(self.direction[None, :], np.array([1.0]),
                         RadialDensity(lambda r: c * np.exp(-lam * r) / r),
                         validate=False)

    def _radial_law(self):
        return ("gamma", self.shape, self.rate)

    def _clip2(self, us):
        from scipy.special import exp1, gammainc
        au = np.abs(us)
        out = np.zeros(us.shape)
        nz = au > 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            x = self.rate / au[nz]
            # u^2 P(2, x) / rate^2 = P(2, x) / x^2, by its series at small x
            body = np.where(x < 1e-5, 0.5 - x / 3.0 + x * x / 8.0,
                            gammainc(2.0, x) / (x * x))
        out[nz] = self.shape * (body + exp1(x))
        return out

    def _clip1(self, us):
        from scipy.special import exp1
        au = np.abs(us)
        lam = self.rate
        out = np.zeros(us.shape)
        nz = au > 0
        with np.errstate(over="ignore"):
            x = lam / au[nz]
        body = -np.expm1(-x) / lam
        out[nz] = self.shape * (au[nz] * body + exp1(x))
        return out

    def _tail(self, us, rs):
        from scipy.special import exp1
        x = np.maximum(self.rate * rs, 5e-324)   # finite where rate r underflows
        return np.where(rs > 0.0, self.shape * exp1(x), INF)

    def _centering(self, us):
        au = np.abs(us)
        vals = np.zeros(us.shape)
        nz = au > 0
        g1 = _exp_arctan_transform(np.array([self.rate]))[0]
        with np.errstate(over="ignore"):
            y = self.rate / au[nz]
        finite = np.isfinite(y)
        part = np.full(y.shape, 1.0 / self.rate)   # limit of g(y)/|u| as u -> 0
        part[finite] = _exp_arctan_transform(y[finite]) / au[nz][finite]
        vals[nz] = self.shape * (part - g1)
        return np.outer(vals, self.direction)

    def _cumulant(self, us, z):
        # one transform g(rate / |u|) per scale serves every argument
        theta = self.direction @ z.T
        out = np.zeros(us.shape + theta.shape, dtype=complex)
        nz = us != 0
        if np.any(theta != 0.0) and np.any(nz):
            u = us[nz].reshape((-1,) + (1,) * theta.ndim)
            au = np.abs(u)
            with np.errstate(over="ignore"):
                y = np.minimum(self.rate / au, 1e100)
            out[nz] = self.shape * (
                -np.log(1.0 - 1j * theta * u / self.rate)
                - 1j * theta * np.sign(u) * _exp_arctan_transform(y))
        return out

    def symmetrized(self):
        return SumMeasure([self, GammaMeasure(self.shape, self.rate,
                                              -self.direction)])


def gamma_measure(shape, rate, direction):
    """Levy measure of a gamma subordinator pushed along one direction."""
    return GammaMeasure(shape, rate, direction)


_EULER_GAMMA = float(np.euler_gamma)


class StableMeasure(RadialMeasure):
    """Polar stable Levy measure: radial density r^(-alpha-1) exactly.

    Closed forms are used for the clipped moments, the centering integral
    and the characteristic-exponent integral, which makes domain tests and
    cumulants on stable inputs fast and exact (up to special functions).
    """

    def __init__(self, alpha, directions, weights):
        if not (0.0 < alpha < 2.0):
            raise ValueError("stability index must lie in (0, 2)")
        a = self.alpha = float(alpha)
        super().__init__(directions, weights,
                         RadialDensity(lambda r: r ** (-a - 1.0)),
                         validate=False)

    def _radial_law(self):
        return ("stable", self.alpha)

    def _scale_factors(self, us):
        """|u|^alpha, 0 at u = 0."""
        with np.errstate(over="ignore"):
            return np.abs(us) ** self.alpha

    def _shell(self, us, h, lo, hi):
        # the scaling identity nu(B/u) = |u|^alpha nu(sign(u) B): one base
        # integral of h(sign(u) y) over lo <= |y| < hi per sign
        out = np.zeros(us.shape)
        for sign in (1.0, -1.0):
            sel = np.sign(us) == sign
            if sel.any():
                base = super()._shell(np.array([sign]), h, lo, hi)[0]
                out[sel] = self._scale_factors(us[sel]) * base
        return out

    def _tail(self, us, rs):
        with np.errstate(divide="ignore", over="ignore"):
            return self.weight_sum() * (rs ** -self.alpha / self.alpha)

    def _clip2(self, us):
        a = self.alpha
        c = 1.0 / (2.0 - a) + 1.0 / a
        return self.weight_sum() * c * self._scale_factors(us)

    def _clip1(self, us):
        a = self.alpha
        if a >= 1.0:
            return np.where(np.abs(us) > 0, INF, 0.0)
        c = 1.0 / (1.0 - a) + 1.0 / a
        return self.weight_sum() * c * self._scale_factors(us)

    def _centering(self, us):
        # int_0^inf r^(-alpha) (1/(1+u^2 r^2) - 1/(1+r^2)) dr
        #   = (pi / (2 cos(pi alpha / 2))) (|u|^(alpha-1) - 1)   for alpha != 1
        #   = -log|u|                                            for alpha == 1
        # The u = 0 entries are set to 0: callers always multiply by the
        # kernel value, and u * centering(u) -> 0 in the limit.
        a = self.alpha
        au = np.abs(us)
        with np.errstate(divide="ignore", invalid="ignore"):
            if abs(a - 1.0) < 1e-12:
                vals = np.where(au > 0, -np.log(np.where(au > 0, au, 1.0)), 0.0)
            else:
                k = math.pi / (2.0 * math.cos(math.pi * a / 2.0))
                vals = np.where(au > 0, k * (au ** (a - 1.0) - 1.0), 0.0)
        return np.outer(vals, self.direction_sum())

    def _cumulant(self, us, z):
        # transported centering: the exact scaling identity gives
        # |u|^alpha * I(theta sign u) per direction
        a = self.alpha
        scale = (np.abs(us) ** a).reshape(us.shape + (1,) * (z.ndim - 1))
        sg = np.sign(us)
        out = np.zeros(us.shape + z.shape[:-1], dtype=complex)
        for xi, w in zip(self.directions, self.weights):
            out = out + w * scale * _stable_exponent(a, np.multiply.outer(sg, xi @ z.T))
        return out

    def _vector_shell(self, us, w, lo, hi):
        # the same identity: sign(u) |u|^alpha times one base moment vector
        out = np.zeros(us.shape + (self.dim,))
        nz = us != 0.0
        if nz.any():
            base = super()._vector_shell(_ONE, w, lo, hi)[0]
            out[nz] = np.outer(np.sign(us[nz]) * self._scale_factors(us[nz]), base)
        return out

    def _dual(self):
        return StableMeasure(2.0 - self.alpha, self.directions, self.weights)

    def symmetrized(self):
        return StableMeasure(self.alpha, *self._reflected())


def _stable_exponent(alpha, theta):
    """int_0^inf (e^{i t r} - 1 - i t r / (1 + r^2)) r^(-alpha-1) dr, vectorized in t."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape, dtype=complex)
    nz = theta != 0
    if not np.any(nz):
        return out
    t = theta[nz]
    at = np.abs(t)
    sg = np.sign(t)
    if abs(alpha - 1.0) < 1e-12:
        val = -(math.pi / 2.0) * at + 1j * t * (1.0 - _EULER_GAMMA - np.log(at))
    else:
        g = gamma_fn(-alpha)
        k = math.pi / (2.0 * math.cos(math.pi * alpha / 2.0))
        # (-i t)^alpha with the principal branch
        power = at ** alpha * np.exp(-1j * math.pi * alpha / 2.0 * sg)
        val = g * power - 1j * t * k
    out[nz] = val
    return out


class SumMeasure(LevyMeasure):
    """Superposition of finitely many Levy measures on the same space."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("empty sum")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError("summands must share the dimension")
        self.parts = parts
        self.dim = parts[0].dim

    def scaled(self, f, us):
        return sum(p.scaled(f, us) for p in self.parts)

    def is_symmetric(self):
        # parts may be reflections of each other (a symmetrized gamma is a
        # gamma plus its mirror image): the directions of the polar parts of
        # one radial law, and the atoms of the atomic parts, are pooled first
        pools = {}
        for p in self.parts:
            if isinstance(p, RadialMeasure):
                pools.setdefault(p._radial_law(), []).append((p.directions, p.weights))
            elif isinstance(p, AtomicMeasure):
                pools.setdefault(AtomicMeasure, []).append((p.points, p.masses))
            elif not p.is_symmetric():
                return False
        return all(_reflection_symmetric(np.vstack([x for x, _ in pool]),
                                         np.concatenate([w for _, w in pool]))
                   for pool in pools.values())

    def supported_in_orthant(self, signs):
        answers = [p.supported_in_orthant(signs) for p in self.parts]
        if any(a is False for a in answers):
            return False
        if all(a is True for a in answers):
            return True
        return None

    def _dual(self):
        return SumMeasure([p.dual() for p in self.parts])

    def symmetrized(self):
        return SumMeasure([p.symmetrized() for p in self.parts])


def symmetrize_measure(nu):
    """Reflection-sum nu(B) + nu(-B) of a Levy measure, in its own
    representation: reflected atoms, reflected polar directions, the sum of
    the parts' reflection-sums, or the same scale mixture over the
    reflection-sum of its base."""
    return nu.symmetrized()


def levy_integral(nu, h, region=None):
    """int h(x) nu(dx) over the half-open radius region [lo, hi).

    ``h`` must be nonnegative and vectorized over (n, d) point arrays.
    Returns a float, possibly ``math.inf``; raises
    :class:`InconclusiveError` when neither convergence nor divergence is
    certified within budget.
    """
    lo, hi = (0.0, INF) if region is None else region
    if not (0.0 <= lo < hi):
        raise ValueError("region bounds must satisfy 0 <= lo < hi")
    return nu.integral(h, lo, hi)


def dual_measure(nu):
    """Inversion-transported measure: mass |x|^2 at x moves to x/|x|^2."""
    return nu.dual()

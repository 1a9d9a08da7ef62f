"""Levy measure representations.

A Levy measure assigns no mass to the origin and integrates |x|^2 ^ 1.  The
calculus below needs several integral functionals of a measure nu, evaluated
either exactly (atoms, stable families) or by certified quadrature (radial
densities).  The transformed measures, window pushforwards and occupation
mixtures, are scale mixtures of these representations and live in
``idcalc.transform`` (``ScaleMixtureMeasure``):

* ``scaled_integral(h, us, lo, hi)`` -- int h(u x) nu(dx) over
  lo <= |u x| < hi, h >= 0
* ``clip2_scaled(us)``         -- int (|u x|^2 ^ 1) nu(dx)
* ``clip1_scaled(us)``         -- int (|u x| ^ 1) nu(dx), may be +inf
* ``centering_scaled(us)``     -- int x (1/(1+|ux|^2) - 1/(1+|x|^2)) nu(dx)
* ``cumulant_scaled(z, us)``   -- int (e^{i<z,ux>} - 1 - i<z,ux>/(1+|ux|^2)) nu(dx)
* ``vector_weighted_scaled(w, us, lo, hi)`` -- int (u x) w(|u x|) nu(dx) over
  lo <= |u x| < hi, shape (m, dim)

Every ``*_scaled`` functional takes an array ``us`` of m scales and answers
for all of them in one call; ``integral(h, lo, hi)`` and
``vector_weighted(w, lo, hi)`` are their one-scale case u = 1.  Per
representation:

* atoms: exact sums, one call of ``h`` (or ``w``) on all m x n points;
* stable: the exact scaling identity nu(B/u) = |u|^alpha nu(sign(u) B), so
  one base integral per sign of u serves every scale;
* radial and gamma: over the full range [0, inf) the r-range and window
  schedule are common to all scales, so one radial driver integrates an
  (n_r, m) integrand, each scale certified as its own component; a shell
  [lo, hi) has the scale-dependent r-range [lo/|u|, hi/|u|) and runs one
  driver per scale;
* sums, the zero measure and lazy symmetrizations compose the above.

Radius regions are half-open [lo, hi) so that body/tail splits partition an
atom sitting exactly on the boundary.

All objects are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import HasGaussianPart, IdcalcError, InconclusiveError
from .quadrature import adaptive_quad, improper_nonneg, improper_limit, slab_quad

INF = math.inf


def _as_points(x, dim):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[1] != dim:
        raise ValueError(f"points must have dimension {dim}")
    return pts


def _norms(pts):
    return np.sqrt((pts * pts).sum(axis=1))


def _region_mask(r, lo, hi):
    return (r >= lo) & (r < hi)


def _scales(us):
    return np.atleast_1d(np.asarray(us, dtype=float))


_ONE = np.array([1.0])


class LevyMeasure:
    """Abstract base; concrete variants implement the functional surface."""

    dim: int

    # -- generic functionals -------------------------------------------------
    def integral(self, h, lo=0.0, hi=INF):
        """int h(x) nu(dx) over lo <= |x| < hi: the one-scale case."""
        return float(self.scaled_integral(h, _ONE, lo, hi)[0])

    def scaled_integral(self, h, us, lo=0.0, hi=INF):
        """int h(u x) nu(dx) over lo <= |u x| < hi, one entry per scale."""
        raise NotImplementedError

    def clip2_scaled(self, us):
        raise NotImplementedError

    def clip1_scaled(self, us):
        raise NotImplementedError

    def centering_scaled(self, us):
        raise NotImplementedError

    def cumulant_scaled(self, z, us):
        raise NotImplementedError

    def vector_weighted(self, w, lo=0.0, hi=INF):
        """int x w(|x|) nu(dx) over lo <= |x| < hi: the one-scale case."""
        return self.vector_weighted_scaled(w, _ONE, lo, hi)[0]

    def vector_weighted_scaled(self, w, us, lo=0.0, hi=INF):
        """int (u x) w(|u x|) nu(dx) over lo <= |u x| < hi, shape (m, dim)."""
        raise NotImplementedError

    # -- derived conveniences ------------------------------------------------
    def total_mass(self):
        return self.integral(lambda x: np.ones(x.shape[0]))

    def clipped_second_moment(self):
        return float(self.clip2_scaled(np.array([1.0]))[0])

    def tail_mass(self, rs):
        """nu(|x| >= r), vectorized over the radii."""
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        return np.array([self.integral(lambda x: np.ones(x.shape[0]), float(r), INF)
                         for r in rs])

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
        raise IdcalcError("dual is available only for primitive representations")


class ZeroMeasure(LevyMeasure):
    """The zero measure (no jumps)."""

    def __init__(self, dim=1):
        self.dim = dim

    def scaled_integral(self, h, us, lo=0.0, hi=INF):
        return np.zeros(_scales(us).shape)

    def tail_mass(self, rs):
        return np.zeros(np.atleast_1d(np.asarray(rs, dtype=float)).shape)

    def clip2_scaled(self, us):
        return np.zeros(np.asarray(us, dtype=float).shape)

    clip1_scaled = clip2_scaled

    def centering_scaled(self, us):
        us = np.asarray(us, dtype=float)
        return np.zeros(us.shape + (self.dim,))

    def cumulant_scaled(self, z, us):
        return np.zeros(np.asarray(us, dtype=float).shape, dtype=complex)

    def vector_weighted_scaled(self, w, us, lo=0.0, hi=INF):
        return np.zeros(_scales(us).shape + (self.dim,))

    def is_zero(self):
        return True

    def is_symmetric(self):
        return True

    def supported_in_orthant(self, signs):
        return True

    def dual(self):
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
        if np.any(masses <= 0):
            raise ValueError("atom masses must be positive")
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

    def scaled_integral(self, h, us, lo=0.0, hi=INF):
        us = _scales(us)
        _, m = self._scaled_radii(us, lo, hi)
        vals = np.zeros(m.shape)
        if m.any():
            with np.errstate(over="ignore"):
                pts = us[:, None, None] * self.points[None, :, :]
            vals[m] = np.asarray(h(pts[m]), dtype=float)
        return (vals * self.masses[None, :]).sum(axis=1)

    def tail_mass(self, rs):
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        return (self.radii[None, :] >= rs[:, None]) @ self.masses

    def clip2_scaled(self, us):
        us = np.asarray(us, dtype=float)
        y = np.minimum(np.square(np.outer(us, self.radii)), 1.0)
        return y @ self.masses

    def clip1_scaled(self, us):
        us = np.asarray(us, dtype=float)
        y = np.minimum(np.abs(np.outer(us, self.radii)), 1.0)
        return y @ self.masses

    def centering_scaled(self, us):
        us = np.asarray(us, dtype=float)
        ur = np.outer(us, self.radii)
        w = 1.0 / (1.0 + ur * ur) - 1.0 / (1.0 + self.radii * self.radii)[None, :]
        return (w * self.masses[None, :]) @ self.points

    def cumulant_scaled(self, z, us):
        us = np.asarray(us, dtype=float)
        z = np.asarray(z, dtype=float)
        zx = self.points @ z                      # (n,)
        uzx = np.outer(us, zx)                    # (m, n)
        ur = np.outer(us, self.radii)
        integrand = np.exp(1j * uzx) - 1.0 - 1j * uzx / (1.0 + ur * ur)
        return integrand @ self.masses

    def vector_weighted_scaled(self, w, us, lo=0.0, hi=INF):
        us = _scales(us)
        ur, m = self._scaled_radii(us, lo, hi)
        wv = np.zeros(m.shape)
        if m.any():
            wv[m] = np.asarray(w(ur[m]), dtype=float)
        weighted = (wv * self.masses[None, :])[:, :, None]
        return us[:, None] * (self.points[None, :, :] * weighted).sum(axis=1)

    def is_symmetric(self):
        key = {tuple(np.round(p, 12)): m for p, m in zip(self.points, self.masses)}
        for p, m in zip(self.points, self.masses):
            m2 = key.get(tuple(np.round(-p, 12)))
            if m2 is None or not math.isclose(m, m2, rel_tol=1e-12):
                return False
        return True

    def supported_in_orthant(self, signs):
        signs = np.asarray(signs, dtype=float)
        return bool(np.all(self.points * signs[None, :] >= 0))

    def dual(self):
        # remember the base so applying the inversion twice is bitwise exact
        base = getattr(self, "_dual_of", None)
        if base is not None:
            return base
        r2 = self.radii ** 2
        out = AtomicMeasure(self.points / r2[:, None], self.masses * r2)
        out._dual_of = self
        return out

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


class RadialDensity:
    """Radial density rho(r) on a sub-interval of (0, inf).

    ``order_zero`` / ``order_inf`` are conservative power-law envelopes: the
    density is r^(order +- eps) near the corresponding end for every eps > 0
    (log corrections allowed).  ``-inf`` for ``order_inf`` means faster than
    any power (exponential decay or compact support).  ``None`` disables the
    closed-form convergence test and forces window certification.
    """

    def __init__(self, fn, support=(0.0, INF), order_zero=None, order_inf=None,
                 decreasing_tail=False, label="radial"):
        self.fn = fn
        self.support = (float(support[0]), float(support[1]))
        self.order_zero = order_zero
        self.order_inf = order_inf
        self.decreasing_tail = decreasing_tail
        self.label = label

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        lo, hi = self.support
        out = np.zeros_like(r)
        m = (r > lo) & (r < hi)
        if m.any():
            out[m] = self.fn(r[m])
        return out

    def dual(self):
        return _DualRadialDensity(self)

    def moment_order_test(self, m, end):
        """Convergence of int r^m rho(r) dr at the given end ('zero'|'inf').

        Returns True (converges), False (diverges) or None (undecided).
        Strict inequalities only; the borderline exponent is left undecided
        because log corrections may swing it either way.
        """
        lo, hi = self.support
        if end == "zero":
            if lo > 0:
                return True
            if self.order_zero is None:
                return None
            e = m + self.order_zero
            if e > -1.0 + 1e-12:
                return True
            if e < -1.0 - 1e-12:
                return False
            return None
        else:
            if math.isfinite(hi):
                return True
            if self.order_inf is None:
                return None
            if self.order_inf == -INF:
                return True
            e = m + self.order_inf
            if e < -1.0 - 1e-12:
                return True
            if e > -1.0 + 1e-12:
                return False
            return None


class _DualRadialDensity(RadialDensity):
    """Density of the inversion-transported measure: r -> r^-4 rho(1/r)."""

    def __init__(self, base):
        lo, hi = base.support
        new_lo = 0.0 if hi == INF else 1.0 / hi
        new_hi = INF if lo == 0.0 else 1.0 / lo
        o0 = None if base.order_inf is None else (
            INF if base.order_inf == -INF else -4.0 - base.order_inf)
        oi = None if base.order_zero is None else -4.0 - base.order_zero
        if o0 == INF:
            o0 = 6.0  # any large exponent: density vanishes faster than r^6
        super().__init__(lambda r: base.fn(1.0 / r) / r ** 4,
                         support=(new_lo, new_hi), order_zero=o0, order_inf=oi,
                         label=f"dual({base.label})")
        self.base = base

    def dual(self):
        return self.base


class RadialMeasure(LevyMeasure):
    """Polar representation: directions (unit vectors with weights) times a
    common radial density."""

    def __init__(self, directions, weights, density: RadialDensity, validate=True):
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (dirs.shape[0],):
            raise ValueError("one weight per direction required")
        if np.any(weights <= 0):
            raise ValueError("direction weights must be positive")
        norms = _norms(dirs)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("directions must be unit vectors")
        self.directions = dirs
        self.weights = weights
        self.density = density
        self.dim = dirs.shape[1]
        if validate:
            c2 = self.clipped_second_moment()
            if not math.isfinite(c2):
                raise ValueError("radial density does not integrate r^2 ^ 1")

    # radial integral of a vectorized g(r), improper certification at ends
    def _radial(self, g, lo, hi, signed=False):
        slo = max(lo, self.density.support[0])
        shi = min(hi, self.density.support[1])
        if slo >= shi:
            return 0.0
        if math.isfinite(shi) and shi > 1e6 * max(slo, 1.0):
            # a huge finite bound behaves like infinity: scale-geometric
            # windows find the interior mass, the cap becomes a mask
            cap = shi
            g_inner = g

            def g(r, _g=g_inner, _cap=cap):
                m = r < _cap
                with np.errstate(over="ignore", invalid="ignore"):
                    y = np.asarray(_g(np.where(m, r, 1.0)))
                return y * m if y.ndim == 1 else \
                    y * m.reshape((-1,) + (1,) * (y.ndim - 1))

            shi = INF

        def fn(r):
            y = np.asarray(g(r))
            d = np.asarray(self.density(r))
            with np.errstate(over="ignore", invalid="ignore"):
                out = y * d if y.ndim == 1 else \
                    y * d.reshape((-1,) + (1,) * (y.ndim - 1))
            # 0 * inf artifacts outside the density's support are true zeros
            return np.nan_to_num(out, nan=0.0, posinf=INF, neginf=-INF)
        if math.isfinite(slo) and math.isfinite(shi) and slo > 0:
            return adaptive_quad(fn, slo, shi, rtol=1e-11)[0]
        # a positive finite endpoint is proper: anchor the schedule on it so
        # no refinement is spent (or misled) below the transition scale
        p0 = slo if slo > 0 else None
        q0 = shi if math.isfinite(shi) else None
        slab = slab_quad(fn, rtol=1e-11)
        if signed:
            res = improper_limit(slab, slo, shi, rtol=1e-10, p0=p0, q0=q0)
            if res.converged:
                return res.value
            raise InconclusiveError("signed radial integral did not stabilize",
                                    res.evidence)
        res = improper_nonneg(slab, slo, shi, p0=p0, q0=q0)
        if res.converged:
            return res.value
        if res.diverged:
            return INF
        raise InconclusiveError("radial integral not certified", res.evidence)

    def _batched(self, us, lo, hi):
        """The nonzero scales, and whether one radial driver serves them all:
        over [0, inf) the r-range and window schedule do not depend on the
        scale, over a shell [lo/|u|, hi/|u|) they do."""
        nz = np.flatnonzero(us)
        return nz, lo == 0.0 and hi == INF and nz.size > 1

    def scaled_integral(self, h, us, lo=0.0, hi=INF):
        us = _scales(us)
        out = np.zeros(us.shape)
        nz, batched = self._batched(us, lo, hi)
        if batched:
            u = us[nz]
            shape = (len(self.weights), u.size)

            def g(r):
                # one column per (direction, scale) pair
                x = (r[:, None] * u[None, :])[:, None, :, None] \
                    * self.directions[None, :, None, :]
                return np.asarray(h(x.reshape(-1, self.dim)),
                                  dtype=float).reshape(len(r), -1)
            parts = np.zeros(shape[0] * shape[1]) + self._radial(g, 0.0, INF)
            out[nz] = self.weights @ parts.reshape(shape)
            return out
        for i in nz:
            u = us[i]
            a = abs(u)
            with np.errstate(over="ignore"):
                rlo, rhi = lo / a, hi / a
            total = 0.0
            for xi, w in zip(self.directions, self.weights):
                def g(r, xi=xi):
                    return np.asarray(h(np.outer(u * r, xi)), dtype=float)
                part = self._radial(g, rlo, rhi)
                if part == INF:
                    total = INF
                    break
                total += w * part
            out[i] = total
        return out

    def _clip_single(self, u, power):
        """int (|u r|^power ^ 1) rho(r) dr, split at the clipping radius so
        the window drivers never face a hidden transition scale."""
        if u == 0.0:
            return 0.0
        rstar = 1.0 / abs(u)
        body = self._radial(lambda r: r ** power, 0.0, rstar)
        if body == INF:
            return INF
        tail = self._radial(lambda r: np.ones_like(r), rstar, INF)
        if tail == INF:
            return INF
        return abs(u) ** power * float(body) + float(tail)

    def clip2_scaled(self, us):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        wsum = float(self.weights.sum())
        return wsum * np.array([self._clip_single(float(u), 2.0) for u in us])

    def clip1_scaled(self, us):
        us = np.atleast_1d(np.asarray(us, dtype=float))
        wsum = float(self.weights.sum())
        test = self.density.moment_order_test(1.0, "zero")
        if test is False:
            return np.where(us != 0, INF, 0.0)
        vals = np.array([self._clip_single(float(u), 1.0) for u in us])
        if np.any(np.isinf(vals)):
            return np.where(us != 0, INF, 0.0)
        return wsum * vals

    def centering_scaled(self, us):
        us = np.asarray(us, dtype=float)

        def g(r):
            ur = np.outer(r, us)
            r2 = (r * r)[:, None]
            return r[:, None] * (1.0 / (1.0 + ur * ur) - 1.0 / (1.0 + r2))

        val = np.asarray(self._radial(g, 0.0, INF, signed=True))
        out = np.einsum("k,kd,m->md", self.weights, self.directions, val)
        return out

    def cumulant_scaled(self, z, us):
        us = np.asarray(us, dtype=float)
        z = np.asarray(z, dtype=float)
        out = np.zeros(us.shape, dtype=complex)
        for xi, w in zip(self.directions, self.weights):
            theta = float(xi @ z)

            def g(r, theta=theta):
                ur = np.outer(r, us)
                phase = theta * ur
                return np.exp(1j * phase) - 1.0 - 1j * phase / (1.0 + ur * ur)

            val = self._cumulant_radial(g, abs(theta))
            out = out + w * np.asarray(val)
        return out

    def _cumulant_radial(self, g, theta_max):
        """Radial quadrature of the characteristic-exponent integrand.

        The oscillatory factor is resolved on a finite range; beyond it the
        remaining mass of the density bounds the discarded oscillatory tail,
        which is accepted once it falls below tolerance.
        """
        slo, shi = self.density.support
        fn = lambda r: g(r) * self.density(r)[:, None]
        if math.isfinite(shi):
            if slo > 0:
                return adaptive_quad(fn, slo, shi, rtol=1e-10)[0]
            slab = slab_quad(fn, rtol=1e-10)
            res = improper_limit(slab, slo, shi, rtol=1e-10)
            if res.converged:
                return res.value
            raise InconclusiveError("cumulant radial integral did not stabilize")
        # unbounded support: integrate to R, bound the tail
        R = max(8.0, slo * 4 if slo > 0 else 8.0)
        total = None
        for _ in range(40):
            lo_end = slo if slo > 0 else 1e-300
            if slo == 0.0:
                slab = slab_quad(fn, rtol=1e-10)
                res = improper_limit(slab, 0.0, R, q0=min(1.0, R / 2))
                if not res.converged:
                    raise InconclusiveError("cumulant radial integral (origin end)")
                total = res.value
            else:
                total = adaptive_quad(fn, lo_end, R, rtol=1e-10)[0]
            # tail of the -1 - centering part is smooth: extend by windows;
            # oscillatory part bounded by remaining density mass
            tail_mass = self._radial(lambda r: np.ones_like(r), R, INF)
            if tail_mass == INF:
                raise InconclusiveError("density tail mass diverges")
            bound = (2.0 + 0.5 * theta_max) * tail_mass
            scale = max(1e-12, float(np.max(np.abs(total))))
            if bound < 1e-9 * scale + 1e-13:
                return total
            R *= 4.0
        raise InconclusiveError("cumulant tail bound did not close")

    def vector_weighted_scaled(self, w, us, lo=0.0, hi=INF):
        # int (u r xi) w(|u| r) rho(r) dr over the directions: u times the
        # weighted direction sum times one radial integral per scale
        us = _scales(us)
        vals = np.zeros(us.shape)
        nz, batched = self._batched(us, lo, hi)
        if batched:
            au = np.abs(us[nz])

            def g(r):
                x = r[:, None] * au[None, :]
                return r[:, None] * np.asarray(w(x.ravel()), dtype=float).reshape(x.shape)
            vals[nz] = self._radial(g, 0.0, INF, signed=True)
        else:
            for i in nz:
                a = abs(us[i])
                with np.errstate(over="ignore"):
                    rlo, rhi = lo / a, hi / a

                def g(r, a=a):
                    return r * np.asarray(w(a * r), dtype=float)
                vals[i] = self._radial(g, rlo, rhi, signed=True)
        return np.outer(us * vals, np.einsum("k,kd->d", self.weights, self.directions))

    def is_symmetric(self):
        key = {tuple(np.round(d, 12)): w for d, w in zip(self.directions, self.weights)}
        for d, w in zip(self.directions, self.weights):
            w2 = key.get(tuple(np.round(-d, 12)))
            if w2 is None or not math.isclose(w, w2, rel_tol=1e-12):
                return False
        return True

    def supported_in_orthant(self, signs):
        signs = np.asarray(signs, dtype=float)
        return bool(np.all(self.directions * signs[None, :] >= 0))

    def dual(self):
        base = getattr(self, "_dual_of", None)
        if base is not None:
            return base
        out = RadialMeasure(self.directions, self.weights, self.density.dual(),
                            validate=False)
        out._dual_of = self
        return out

    def symmetrized(self):
        dirs = np.vstack([self.directions, -self.directions])
        w = np.concatenate([self.weights, self.weights])
        return RadialMeasure(dirs, w, self.density, validate=False)


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


class GammaMeasure(LevyMeasure):
    """Levy measure of a gamma subordinator along one direction:
    radial density shape * exp(-rate r) / r.

    The clipped moments, the centering integral and the characteristic
    exponent all reduce to exponential integrals and the sine/cosine
    integrals, so the transform machinery runs in closed form.
    """

    def __init__(self, shape, rate, direction):
        if shape <= 0 or rate <= 0:
            raise ValueError("shape and rate must be positive")
        direction = np.atleast_1d(np.asarray(direction, dtype=float))
        self.shape = float(shape)
        self.rate = float(rate)
        self.direction = direction / np.linalg.norm(direction)
        self.dim = self.direction.shape[0]
        self._polar = RadialMeasure(self.direction[None, :], np.array([1.0]),
                                    self._density(), validate=False)

    def _density(self):
        c, lam = self.shape, self.rate
        return RadialDensity(lambda r: c * np.exp(-lam * r) / r,
                             order_zero=-1.0, order_inf=-INF,
                             decreasing_tail=True, label="gamma")

    def as_radial(self):
        return self._polar

    def scaled_integral(self, h, us, lo=0.0, hi=INF):
        return self._polar.scaled_integral(h, us, lo, hi)

    def clip2_scaled(self, us):
        from scipy.special import exp1
        us = np.atleast_1d(np.asarray(us, dtype=float))
        au = np.abs(us)
        lam = self.rate
        out = np.zeros(us.shape)
        nz = au > 0
        with np.errstate(over="ignore"):
            x = np.minimum(lam / au[nz], 700.0)
        body = (1.0 - (1.0 + x) * np.exp(-x)) / (lam * lam)
        out[nz] = self.shape * (au[nz] ** 2 * body + exp1(x))
        return out

    def clip1_scaled(self, us):
        from scipy.special import exp1
        us = np.atleast_1d(np.asarray(us, dtype=float))
        au = np.abs(us)
        lam = self.rate
        out = np.zeros(us.shape)
        nz = au > 0
        with np.errstate(over="ignore"):
            x = np.minimum(lam / au[nz], 700.0)
        body = (1.0 - np.exp(-x)) / lam
        out[nz] = self.shape * (au[nz] * body + exp1(x))
        return out

    def tail_mass(self, rs):
        from scipy.special import exp1
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        return np.where(rs > 0, self.shape * exp1(np.maximum(self.rate * rs, 1e-300)),
                        INF)

    def centering_scaled(self, us):
        us = np.atleast_1d(np.asarray(us, dtype=float))
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

    def cumulant_scaled(self, z, us):
        z = np.asarray(z, dtype=float)
        us = np.atleast_1d(np.asarray(us, dtype=float))
        theta = float(self.direction @ z)
        out = np.zeros(us.shape, dtype=complex)
        nz = us != 0
        if theta != 0.0 and np.any(nz):
            u = us[nz]
            au = np.abs(u)
            with np.errstate(over="ignore"):
                y = np.minimum(self.rate / au, 1e100)
            out[nz] = self.shape * (
                -np.log(1.0 - 1j * theta * u / self.rate)
                - 1j * theta * np.sign(u) * _exp_arctan_transform(y))
        return out

    def vector_weighted_scaled(self, w, us, lo=0.0, hi=INF):
        return self._polar.vector_weighted_scaled(w, us, lo, hi)

    def is_symmetric(self):
        return False

    def supported_in_orthant(self, signs):
        signs = np.asarray(signs, dtype=float)
        return bool(np.all(self.direction * signs >= 0))

    def dual(self):
        base = getattr(self, "_dual_of", None)
        if base is not None:
            return base
        out = RadialMeasure(self.direction[None, :], np.array([1.0]),
                            self._density().dual(), validate=False)
        out._dual_of = self
        return out

    def symmetrized(self):
        return SumMeasure([self, GammaMeasure(self.shape, self.rate,
                                              -self.direction)])


def gamma_measure(shape, rate, direction):
    """Levy measure of a gamma subordinator pushed along one direction."""
    return GammaMeasure(shape, rate, direction)


_EULER_GAMMA = float(np.euler_gamma)


class StableMeasure(LevyMeasure):
    """Polar stable Levy measure: radial density r^(-alpha-1) exactly.

    Closed forms are used for the clipped moments, the centering integral
    and the characteristic-exponent integral, which makes domain tests and
    cumulants on stable inputs fast and exact (up to special functions).
    """

    def __init__(self, alpha, directions, weights):
        if not (0.0 < alpha < 2.0):
            raise ValueError("stability index must lie in (0, 2)")
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (dirs.shape[0],):
            raise ValueError("one weight per direction required")
        if np.any(weights <= 0):
            raise ValueError("direction weights must be positive")
        if np.any(np.abs(_norms(dirs) - 1.0) > 1e-9):
            raise ValueError("directions must be unit vectors")
        self.alpha = float(alpha)
        self.directions = dirs
        self.weights = weights
        self.dim = dirs.shape[1]
        # the exact density as a polar measure, for generic integrands
        a = self.alpha
        dens = RadialDensity(lambda r: r ** (-a - 1.0), order_zero=-a - 1.0,
                             order_inf=-a - 1.0, decreasing_tail=True, label="stable")
        self._polar = RadialMeasure(dirs, weights, dens, validate=False)

    # exact radial power integral: int_lo^hi r^(m - alpha - 1) dr
    def power_radial(self, m, lo=0.0, hi=INF):
        e = m - self.alpha
        if lo == 0.0 and hi == INF:
            return INF
        if lo == 0.0:
            return hi ** e / e if e > 0 else INF
        if hi == INF:
            return lo ** e / (-e) if e < 0 else INF
        if abs(e) < 1e-14:
            return math.log(hi / lo)
        return (hi ** e - lo ** e) / e

    def weight_sum(self):
        return float(self.weights.sum())

    def as_radial(self):
        return self._polar

    def _scale_factors(self, us):
        """|u|^alpha, 0 at u = 0."""
        with np.errstate(over="ignore"):
            return np.abs(us) ** self.alpha

    def scaled_integral(self, h, us, lo=0.0, hi=INF):
        # the scaling identity nu(B/u) = |u|^alpha nu(sign(u) B): one base
        # integral of h(sign(u) y) over lo <= |y| < hi per sign
        us = _scales(us)
        out = np.zeros(us.shape)
        for sign in (1.0, -1.0):
            sel = np.sign(us) == sign
            if sel.any():
                base = self._polar.scaled_integral(h, np.array([sign]), lo, hi)[0]
                out[sel] = self._scale_factors(us[sel]) * base
        return out

    def tail_mass(self, rs):
        rs = np.atleast_1d(np.asarray(rs, dtype=float))
        with np.errstate(divide="ignore"):
            out = np.where(rs > 0, rs ** (-self.alpha) / self.alpha, INF)
        return self.weight_sum() * out

    def clip2_scaled(self, us):
        us = np.abs(np.asarray(us, dtype=float))
        a = self.alpha
        c = 1.0 / (2.0 - a) + 1.0 / a
        return self.weight_sum() * c * us ** a

    def clip1_scaled(self, us):
        us = np.abs(np.asarray(us, dtype=float))
        a = self.alpha
        if a >= 1.0:
            return np.where(us > 0, INF, 0.0)
        c = 1.0 / (1.0 - a) + 1.0 / a
        return self.weight_sum() * c * us ** a

    def _direction_sum(self):
        return np.einsum("k,kd->d", self.weights, self.directions)

    def centering_scaled(self, us):
        # int_0^inf r^(-alpha) (1/(1+u^2 r^2) - 1/(1+r^2)) dr
        #   = (pi / (2 cos(pi alpha / 2))) (|u|^(alpha-1) - 1)   for alpha != 1
        #   = -log|u|                                            for alpha == 1
        # The u = 0 entries are set to 0: callers always multiply by the
        # kernel value, and u * centering(u) -> 0 in the limit.
        us = np.asarray(us, dtype=float)
        a = self.alpha
        au = np.abs(us)
        with np.errstate(divide="ignore", invalid="ignore"):
            if abs(a - 1.0) < 1e-12:
                vals = np.where(au > 0, -np.log(np.where(au > 0, au, 1.0)), 0.0)
            else:
                k = math.pi / (2.0 * math.cos(math.pi * a / 2.0))
                vals = np.where(au > 0, k * (au ** (a - 1.0) - 1.0), 0.0)
        return np.outer(vals, self._direction_sum())

    def cumulant_scaled(self, z, us):
        # transported centering: the exact scaling identity gives
        # |u|^alpha * I(theta sign u) per direction
        us = np.asarray(us, dtype=float)
        z = np.asarray(z, dtype=float)
        a = self.alpha
        scale = np.abs(us) ** a
        sg = np.sign(us)
        out = np.zeros(us.shape, dtype=complex)
        for xi, w in zip(self.directions, self.weights):
            theta = float(xi @ z)
            out = out + w * scale * _stable_exponent(a, sg * theta)
        return out

    def vector_weighted_scaled(self, w, us, lo=0.0, hi=INF):
        # the same identity: sign(u) |u|^alpha times one base moment vector
        us = _scales(us)
        out = np.zeros(us.shape + (self.dim,))
        nz = us != 0.0
        if nz.any():
            base = self._polar.vector_weighted(w, lo, hi)
            out[nz] = np.outer(np.sign(us[nz]) * self._scale_factors(us[nz]), base)
        return out

    def is_symmetric(self):
        key = {tuple(np.round(d, 12)): w for d, w in zip(self.directions, self.weights)}
        for d, w in zip(self.directions, self.weights):
            w2 = key.get(tuple(np.round(-d, 12)))
            if w2 is None or not math.isclose(w, w2, rel_tol=1e-12):
                return False
        return True

    def supported_in_orthant(self, signs):
        signs = np.asarray(signs, dtype=float)
        return bool(np.all(self.directions * signs[None, :] >= 0))

    def dual(self):
        base = getattr(self, "_dual_of", None)
        if base is not None:
            return base
        out = StableMeasure(2.0 - self.alpha, self.directions, self.weights)
        out._dual_of = self
        return out

    def symmetrized(self):
        dirs = np.vstack([self.directions, -self.directions])
        w = np.concatenate([self.weights, self.weights])
        return StableMeasure(self.alpha, dirs, w)


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

    def scaled_integral(self, h, us, lo=0.0, hi=INF):
        return sum(p.scaled_integral(h, us, lo, hi) for p in self.parts)

    def tail_mass(self, rs):
        return sum(p.tail_mass(rs) for p in self.parts)

    def clip2_scaled(self, us):
        return sum(p.clip2_scaled(us) for p in self.parts)

    def clip1_scaled(self, us):
        return sum(p.clip1_scaled(us) for p in self.parts)

    def centering_scaled(self, us):
        return sum(p.centering_scaled(us) for p in self.parts)

    def cumulant_scaled(self, z, us):
        return sum(p.cumulant_scaled(z, us) for p in self.parts)

    def vector_weighted_scaled(self, w, us, lo=0.0, hi=INF):
        return sum(p.vector_weighted_scaled(w, us, lo, hi) for p in self.parts)

    def is_symmetric(self):
        return all(p.is_symmetric() for p in self.parts)

    def supported_in_orthant(self, signs):
        answers = [p.supported_in_orthant(signs) for p in self.parts]
        if any(a is False for a in answers):
            return False
        if all(a is True for a in answers):
            return True
        return None

    def dual(self):
        return SumMeasure([p.dual() for p in self.parts])

    def symmetrized(self):
        return SumMeasure([symmetrize_measure(p) for p in self.parts])


class SymmetrizedMeasure(LevyMeasure):
    """nu_sym(B) = nu(B) + nu(-B), kept lazy for composite bases."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim

    def scaled_integral(self, h, us, lo=0.0, hi=INF):
        def h2(x):
            return np.asarray(h(x)) + np.asarray(h(-x))
        return self.base.scaled_integral(h2, us, lo, hi)

    def tail_mass(self, rs):
        return 2.0 * self.base.tail_mass(rs)

    def clip2_scaled(self, us):
        return 2.0 * self.base.clip2_scaled(us)

    def clip1_scaled(self, us):
        return 2.0 * self.base.clip1_scaled(us)

    def centering_scaled(self, us):
        us = np.asarray(us, dtype=float)
        return np.zeros(us.shape + (self.dim,))

    def cumulant_scaled(self, z, us):
        return 2.0 * np.real(self.base.cumulant_scaled(z, us)).astype(complex)

    def vector_weighted_scaled(self, w, us, lo=0.0, hi=INF):
        return np.zeros(_scales(us).shape + (self.dim,))

    def is_symmetric(self):
        return True

    def supported_in_orthant(self, signs):
        return True if self.base.is_zero() else False


def symmetrize_measure(nu):
    """Reflection-sum of a Levy measure.

    Atomic, radial, stable and gamma representations are materialized
    exactly; anything else is wrapped lazily.
    """
    if isinstance(nu, ZeroMeasure):
        return nu
    if isinstance(nu, (AtomicMeasure, RadialMeasure, StableMeasure,
                       GammaMeasure, SumMeasure)):
        return nu.symmetrized()
    return SymmetrizedMeasure(nu)


def materialize_radial(nu, r_grid):
    """Materialize a one-dimensional measure as a radial-polar measure with
    a piecewise-constant density sampled on the stated radius grid.

    Lazy compositions (window pushforwards, occupation-measure mixtures)
    stay exact by default; this is the explicit discretization step, and the
    grid choice is the caller's statement of the acceptable resolution.
    Mass outside [min(grid), max(grid)) is dropped.
    """
    if nu.dim != 1:
        raise ValueError("radial materialization is implemented for one"
                         " dimension")
    rs = np.unique(np.asarray(r_grid, dtype=float))
    if rs.size < 2 or rs[0] <= 0:
        raise ValueError("grid needs at least two positive radii")
    parts = []
    for sign in (1.0, -1.0):
        def side_tail(r, sign=sign):
            h = lambda x: ((sign * x[:, 0]) > 0).astype(float)
            return nu.integral(h, float(r), INF)

        tails = np.array([side_tail(r) for r in rs])
        cell_mass = tails[:-1] - tails[1:]
        if float(cell_mass.sum()) <= 0:
            continue
        dens_vals = cell_mass / np.diff(rs)
        edges = rs.copy()

        def fn(r, edges=edges, vals=dens_vals):
            idx = np.clip(np.searchsorted(edges, r, side="right") - 1,
                          0, len(vals) - 1)
            out = np.asarray(vals[idx], dtype=float)
            return np.where((r >= edges[0]) & (r < edges[-1]), out, 0.0)

        dens = RadialDensity(fn, support=(float(rs[0]), float(rs[-1])),
                             label="materialized")
        parts.append(RadialMeasure(np.array([[sign]]), np.array([1.0]), dens,
                                   validate=False))
    if not parts:
        return ZeroMeasure(1)
    return parts[0] if len(parts) == 1 else SumMeasure(parts)


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

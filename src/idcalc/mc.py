"""Monte Carlo simulation of the scattered random measure and of window
integrals, validated through the empirical characteristic function.

Increments over disjoint windows are independent with law given by the
triplet scaled by the window length.  Infinite-activity jump parts are
simulated by cutting jumps below a radius eps (compound-Poisson remainder)
with the deterministic part adjusted for the truncated centering; an
optional Gaussian refinement replaces the discarded small jumps by a
matched normal term.

Randomness comes from counter-based Philox streams keyed by (seed, stream
label), so runs are reproducible and independent of scheduling order; all
paths inside one mesh cell are drawn from that cell's stream as a single
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfiniteActivityWithoutCutoff,
    TooFewSamples,
)
from .idlaw import Triplet
from .kernels import Kernel
from .measures import (
    INF,
    AtomicMeasure,
    RadialMeasure,
    StableMeasure,
    SumMeasure,
    ZeroMeasure,
)
from .quadrature import adaptive_quad, bisect_monotone
from .transform import base_exponent_scaled, direct_exponent


@dataclass
class SimConfig:
    mesh_points: int = 256
    n_paths: int = 10_000
    seed: int = 0
    small_jump_cutoff: float | None = None   # eps for infinite-activity laws
    gaussian_compensation: bool = False
    max_mesh_points: int = 1 << 14

    def __post_init__(self):
        if self.mesh_points < 2:
            raise ValueError("mesh needs at least two points")
        if self.small_jump_cutoff is not None and not (0.0 < self.small_jump_cutoff <= 1.0):
            raise ValueError("small-jump cutoff must lie in (0, 1]")


def _stream(seed, label):
    return np.random.Generator(np.random.Philox(key=(int(seed) & (2**64 - 1),
                                                     int(label) & (2**64 - 1))))


# ---------------------------------------------------------------------------
# jump samplers per representation
# ---------------------------------------------------------------------------

class _JumpSampler:
    """Finite-activity jump machinery above a cutoff radius."""

    def __init__(self, nu, eps):
        self.parts = []           # (rate_k, draw(rng, n) -> (n, d))
        self.total_rate = 0.0
        self.dim = nu.dim
        self._build(nu, eps)

    def _add(self, rate, draw):
        if rate > 0:
            self.parts.append((rate, draw))
            self.total_rate += rate

    def _build(self, nu, eps):
        if isinstance(nu, ZeroMeasure):
            return
        if isinstance(nu, SumMeasure):
            for p in nu.parts:
                self._build(p, eps)
            return
        if isinstance(nu, AtomicMeasure):
            pts, ms = nu.points, nu.masses
            rate = float(ms.sum())

            def draw(rng, n, pts=pts, p=ms / ms.sum()):
                idx = rng.choice(len(p), size=n, p=p)
                return pts[idx]
            self._add(rate, draw)
            return
        if eps is None:
            raise InfiniteActivityWithoutCutoff(
                "continuous Levy measure needs a small-jump cutoff")
        if isinstance(nu, StableMeasure):
            al = nu.alpha
            lam_r = eps ** (-al) / al          # radial tail mass above eps
            for xi, w in zip(nu.directions, nu.weights):
                def draw(rng, n, xi=xi, al=al):
                    u = rng.random(n)
                    r = eps * u ** (-1.0 / al)
                    return np.outer(r, xi)
                self._add(w * lam_r, draw)
            return
        if isinstance(nu, RadialMeasure):
            dens = nu.density
            hi = min(dens.support[1], _radial_cap(dens, eps))
            lo = max(eps, dens.support[0])
            if lo >= hi:
                return
            mass, _ = adaptive_quad(lambda r: dens(r), lo, hi, rtol=1e-10)
            mass = float(mass)
            # tabulated inverse of the normalized radial distribution
            grid = np.linspace(lo, hi, 4097)
            pdf = dens(grid)
            cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5
                                                   * np.diff(grid))])
            cdf /= cdf[-1]
            for xi, w in zip(nu.directions, nu.weights):
                def draw(rng, n, xi=xi, grid=grid, cdf=cdf):
                    u = rng.random(n)
                    r = np.interp(u, cdf, grid)
                    return np.outer(r, xi)
                self._add(w * mass, draw)
            return
        raise InfiniteActivityWithoutCutoff(
            f"no jump sampler for {type(nu).__name__}")

    def sample_total(self, rng, counts):
        """Sum of `counts[i]` jumps per row; counts from a Poisson draw."""
        n = counts.shape[0]
        out = np.zeros((n, self.dim))
        total = int(counts.sum())
        if total == 0 or not self.parts:
            return out
        rates = np.array([r for r, _ in self.parts])
        probs = rates / rates.sum()
        # split each jump among the component measures
        comp = _stream_choice(rng, probs, total)
        owners = np.repeat(np.arange(n), counts)
        jumps = np.empty((total, self.dim))
        for ci, (_, draw) in enumerate(self.parts):
            mask = comp == ci
            m = int(mask.sum())
            if m:
                jumps[mask] = draw(rng, m)
        for j in range(self.dim):
            out[:, j] = np.bincount(owners, weights=jumps[:, j], minlength=n)
        return out


def _stream_choice(rng, probs, n):
    return rng.choice(len(probs), size=n, p=probs)


def _radial_cap(dens, eps):
    """Upper radius beyond which the density mass is negligible."""
    hi = max(1.0, eps * 4)
    for _ in range(200):
        tail, _ = adaptive_quad(lambda r: dens(r), hi, hi * 4, rtol=1e-8,
                                atol=1e-16)
        if float(tail) < 1e-14:
            return hi * 4
        hi *= 4
    return hi


def default_cutoff(nu):
    """Cutoff radius with truncated quadratic mass at most 1e-4 of the
    clipped second moment."""
    target = 1e-4 * float(nu.clip2_scaled(np.array([1.0]))[0])

    def small_mass(eps):
        return float(nu.integral(lambda x: (x * x).sum(axis=1), 0.0, eps))

    eps = bisect_monotone(small_mass, target, 1e-12, 1.0, increasing=True,
                          tol=1e-6)
    return min(max(eps, 1e-12), 1.0)


def _needs_cutoff(nu):
    if isinstance(nu, (ZeroMeasure, AtomicMeasure)):
        return False
    if isinstance(nu, SumMeasure):
        return any(_needs_cutoff(p) for p in nu.parts)
    return True


class IncrementSampler:
    """Vectorized sampler for increments of the random measure of a law."""

    def __init__(self, t: Triplet, cfg: SimConfig):
        self.t = t
        self.dim = t.dim
        self.cfg = cfg
        nu = t.nu
        eps = cfg.small_jump_cutoff
        if _needs_cutoff(nu) and eps is None:
            eps = default_cutoff(nu)
        self.eps = eps
        self.jumps = _JumpSampler(nu, eps)
        # deterministic part per unit time: location minus the centering of
        # the simulated (truncated) jumps, plus the small-jump mean left over
        shift = np.array(t.gamma, dtype=float)
        if not nu.is_zero():
            lo = eps if eps is not None and _needs_cutoff(nu) else 0.0
            big = nu.vector_weighted(lambda r: 1.0 / (1.0 + r * r), lo, INF)
            shift = shift - np.asarray(big)
            if lo > 0.0:
                small_mean = nu.vector_weighted(
                    lambda r: (r * r) / (1.0 + r * r), 0.0, lo)
                shift = shift + np.asarray(small_mean)
        self.shift = shift
        cov = np.array(t.A, dtype=float)
        if cfg.gaussian_compensation and self.eps is not None and _needs_cutoff(nu):
            cov = cov + _small_jump_covariance(nu, self.eps)
        self.chol = _safe_cholesky(cov)
        self.has_gauss = self.chol is not None

    def draw(self, dt, n, rng):
        out = np.tile(dt * self.shift, (n, 1))
        if self.has_gauss:
            out += math.sqrt(dt) * rng.standard_normal((n, self.dim)) @ self.chol.T
        if self.jumps.total_rate > 0:
            counts = rng.poisson(dt * self.jumps.total_rate, size=n)
            out += self.jumps.sample_total(rng, counts)
        return out


def _small_jump_covariance(nu, eps):
    if isinstance(nu, SumMeasure):
        return sum(_small_jump_covariance(p, eps) for p in nu.parts)
    if isinstance(nu, (ZeroMeasure, AtomicMeasure)):
        return 0.0
    d = nu.dim
    out = np.zeros((d, d))
    if isinstance(nu, StableMeasure):
        al = nu.alpha
        second = eps ** (2.0 - al) / (2.0 - al)
        for xi, w in zip(nu.directions, nu.weights):
            out += w * second * np.outer(xi, xi)
        return out
    if isinstance(nu, RadialMeasure):
        lo = max(nu.density.support[0], 0.0)
        if lo >= eps:
            return out
        val, _ = adaptive_quad(lambda r: r * r * nu.density(r),
                               max(lo, 1e-300), eps, rtol=1e-9)
        for xi, w in zip(nu.directions, nu.weights):
            out += w * float(val) * np.outer(xi, xi)
        return out
    return out


def _safe_cholesky(cov):
    if float(np.max(np.abs(cov))) == 0.0:
        return None
    w, v = np.linalg.eigh(0.5 * (cov + cov.T))
    w = np.clip(w, 0.0, None)
    return v @ np.diag(np.sqrt(w))


def sample_increment(t: Triplet, dt: float, rng) -> np.ndarray:
    """One increment of the random measure over a window of length dt."""
    if dt <= 0:
        raise ValueError("window length must be positive")
    sampler = IncrementSampler(t, SimConfig(mesh_points=2, n_paths=1))
    return sampler.draw(dt, 1, rng)[0]


def sample_increments(t: Triplet, dt: float, n: int, rng,
                      cfg: SimConfig | None = None) -> np.ndarray:
    """n independent increments over windows of length dt."""
    sampler = IncrementSampler(t, cfg or SimConfig(mesh_points=2, n_paths=n))
    return sampler.draw(dt, n, rng)


def _integral_once(k, sampler, p, q, mesh, n_paths, seed):
    ds = (q - p) / mesh
    mids = p + (np.arange(mesh) + 0.5) * ds
    fvals = np.asarray(k(mids), dtype=float)
    total = np.zeros((n_paths, sampler.dim))
    for i in range(mesh):
        rng = _stream(seed, i + 1)
        total += fvals[i] * sampler.draw(ds, n_paths, rng)
    return total


def sample_integral(k: Kernel, t: Triplet, p: float, q: float,
                    cfg: SimConfig) -> np.ndarray:
    """Samples of the window integral of f against the random measure.

    The integrand is frozen at midpoints of a uniform mesh.  The mesh is
    chosen deterministically: it doubles until the characteristic-function
    gap between the frozen-integrand law and the exact window law falls
    below half the Monte Carlo standard error, within the mesh budget.
    """
    if not (k.a <= p < q <= k.b) or not (math.isfinite(p) and math.isfinite(q)):
        raise ValueError("window must be a finite slab inside the kernel interval")
    mesh = cfg.mesh_points
    probe = _probe_grid(t.dim)
    target = 0.5 / math.sqrt(cfg.n_paths)
    exact = None   # the exact window exponents, computed at the first check
    while mesh * 2 <= cfg.max_mesh_points:
        if exact is None:
            exact = [direct_exponent(k, t, z, p, q) for z in probe]
        if _mesh_bias(k, t, p, q, mesh, probe, exact) <= target:
            break
        mesh *= 2
    sampler = IncrementSampler(t, cfg)
    return _integral_once(k, sampler, p, q, mesh, cfg.n_paths, cfg.seed)


def _probe_grid(dim, m=6):
    base = np.linspace(0.25, 2.0, m)
    if dim == 1:
        return base[:, None]
    rng = _stream(7, 7)
    dirs = rng.standard_normal((m, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return base[:, None] * dirs


def _mesh_bias(k, t, p, q, mesh, zs, exact):
    """Characteristic-function gap of the midpoint-frozen integrand, against
    the exact window exponents ``exact`` at the arguments ``zs``."""
    ds = (q - p) / mesh
    mids = p + (np.arange(mesh) + 0.5) * ds
    fvals = np.asarray(k(mids), dtype=float)
    gap = 0.0
    for z, ex in zip(zs, exact):
        frozen = ds * np.sum(base_exponent_scaled(t, z, fvals))
        gap = max(gap, abs(np.exp(frozen) - np.exp(ex)))
    return gap


# ---------------------------------------------------------------------------
# empirical characteristic function report
# ---------------------------------------------------------------------------

@dataclass
class EcfReport:
    z_grid: np.ndarray
    empirical: np.ndarray
    analytic: np.ndarray
    stderr: np.ndarray
    max_sigma_deviation: float
    n_samples: int = 0
    batches: int = 16

    def rows(self):
        out = []
        for z, e, a, s in zip(self.z_grid, self.empirical, self.analytic,
                              self.stderr):
            out.append({
                "z": np.atleast_1d(z).tolist(),
                "re_empirical": float(e.real), "im_empirical": float(e.imag),
                "re_analytic": float(a.real), "im_analytic": float(a.imag),
                "stderr": float(s),
            })
        return out


def ecf_check(samples, analytic_exponent, z_grid, batches=16) -> EcfReport:
    """Compare the empirical characteristic function of the samples with
    exp of the analytic exponent on a grid of arguments.

    Standard errors come from batch means; the headline figure is the
    largest deviation in standard-error units.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[0]
    if n < 1000:
        raise TooFewSamples(f"need at least 1000 samples, got {n}")
    z_grid = np.atleast_2d(np.asarray(z_grid, dtype=float))
    if z_grid.shape[1] != samples.shape[1]:
        raise ValueError("argument grid dimension mismatch")
    edges = np.linspace(0, n, batches + 1).astype(int)
    emp = np.empty(len(z_grid), dtype=complex)
    ana = np.empty(len(z_grid), dtype=complex)
    err = np.empty(len(z_grid))
    for i, z in enumerate(z_grid):
        phases = np.exp(1j * (samples @ z))
        emp[i] = phases.mean()
        means = np.array([phases[a:b].mean() for a, b in zip(edges, edges[1:])])
        err[i] = math.sqrt((means.real.var(ddof=1) + means.imag.var(ddof=1))
                           / batches)
        ana[i] = np.exp(analytic_exponent(z))
    # floor the standard error at machine scale so degenerate samples with
    # an exact analytic match report zero deviation
    dev = np.abs(emp - ana) / np.maximum(err, 1e-14)
    return EcfReport(z_grid, emp, ana, err, float(dev.max()), n, batches)


def window_exponent(k: Kernel, t: Triplet, p: float, q: float):
    """Analytic exponent of the window integral via the base law's
    characteristic exponent composed with the kernel."""
    return lambda z: direct_exponent(k, t, z, p, q)

"""Monte Carlo simulation of the scattered random measure and of window
integrals, validated through the empirical characteristic function.

Increments over disjoint cells are independent with law given by the
triplet scaled by the cell length, so a window integral with the integrand
frozen on a mesh is the sum of f_i X_i over the cells.  One draw returns
that sum over a tile, a block of paths times a block of consecutive cells:

* the drift ds sum(f) shift, and one normal per path with covariance
  ds sum(f^2) A;
* stable parts exactly: per direction the weighted sum of stable cell
  increments is stable again, with scale^alpha proportional to
  ds sum |f_i|^alpha and skewness sum sign(f_i) |f_i|^alpha / sum |f_i|^alpha,
  one Chambers-Mallows-Stuck draw per path (Weron's form, with its log term
  at alpha = 1);
* gamma parts exactly: a gamma(shape ds, 1/rate) draw per path and cell,
  dotted with f;
* atomic and radial parts as compound Poisson sums: one Poisson count per
  path over the tile, a uniform cell per jump, and each jump weighted by f
  at its cell.  Radial parts are cut below a radius eps, with the
  deterministic part adjusted for the truncated centering; an optional
  Gaussian refinement replaces the discarded small jumps by a matched
  normal term.

The exact window law enters twice, at the mesh probe and at the ECF check,
each through one ``direct_exponent`` call over its whole argument grid.

Tiles are sized from the expected jump count so that the temporaries of a
draw stay within about ``TILE_BYTES``.  Randomness comes from
counter-based Philox streams keyed by (seed, tile), so runs are
reproducible and independent of scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import (
    InfiniteActivityWithoutCutoff,
    TooFewSamples,
)
from .idlaw import Triplet
from .kernels import Kernel
from .measures import (
    INF,
    AtomicMeasure,
    GammaMeasure,
    RadialMeasure,
    StableMeasure,
    SumMeasure,
    ZeroMeasure,
)
from .quadrature import bisect_monotone
from .transform import base_exponent_scaled, direct_exponent

TILE_BYTES = 1 << 20
_MIN_TILE_PATHS = 1024


@dataclass
class SimConfig:
    mesh_points: int = 256
    n_paths: int = 10_000
    seed: int = 0
    small_jump_cutoff: float | None = None   # eps for radial parts
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
# compound-Poisson jumps: atomic parts, and radial parts above a cutoff
# ---------------------------------------------------------------------------

class _JumpSampler:
    """Finite-activity jump machinery for atomic parts, and for radial parts
    above a cutoff radius."""

    def __init__(self, parts, eps, dim):
        self.parts = []           # (rate_k, draw(rng, n) -> (n, d))
        self.total_rate = 0.0
        self.dim = dim
        for nu in parts:
            self._build(nu, eps)

    def _add(self, rate, draw):
        if rate > 0:
            self.parts.append((rate, draw))
            self.total_rate += rate

    def _build(self, nu, eps):
        if isinstance(nu, AtomicMeasure):
            pts, ms = nu.points, nu.masses
            if len(ms) == 1:
                def draw(rng, n, pt=pts[0]):
                    return np.tile(pt, (n, 1))
            else:
                def draw(rng, n, pts=pts, p=ms / ms.sum()):
                    return pts[rng.choice(len(p), size=n, p=p)]
            self._add(float(ms.sum()), draw)
            return
        if isinstance(nu, RadialMeasure):
            dens = nu.density
            hi = min(dens.support[1], _radial_cap(nu, eps))
            lo = max(eps, dens.support[0])
            if lo >= hi:
                return
            mass = float(nu.radial_integral(np.ones_like, lo, hi))
            # tabulated inverse of the normalized radial distribution, on a
            # geometric grid that resolves the steep density near the cutoff
            grid = np.geomspace(lo, hi, 4097)
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

    def draw_jumps(self, rng, n):
        """n jumps from the normalized jump law, shape (n, d)."""
        if len(self.parts) == 1:
            return self.parts[0][1](rng, n)
        rates = np.array([r for r, _ in self.parts])
        # split the jumps among the component measures
        comp = rng.choice(len(rates), size=n, p=rates / rates.sum())
        jumps = np.empty((n, self.dim))
        for ci, (_, draw) in enumerate(self.parts):
            mask = comp == ci
            m = int(mask.sum())
            if m:
                jumps[mask] = draw(rng, m)
        return jumps

    def sample_total(self, rng, counts, f):
        """Per row, the sum of ``counts[i]`` jumps, each weighted by ``f`` at
        a cell of the tile drawn uniformly; counts from a Poisson draw."""
        n = counts.shape[0]
        out = np.zeros((n, self.dim))
        total = int(counts.sum())
        if total == 0:
            return out
        jumps = self.draw_jumps(rng, total)
        if len(f) > 1:
            jumps *= f[rng.integers(len(f), size=total)][:, None]
        else:
            jumps *= f[0]
        owners = np.repeat(np.arange(n), counts)
        for j in range(self.dim):
            out[:, j] = np.bincount(owners, weights=jumps[:, j], minlength=n)
        return out


def _radial_cap(nu, eps):
    """Upper radius beyond which the certified density mass is negligible."""
    hi = max(1.0, eps * 4)
    for _ in range(200):
        if nu.radial_integral(np.ones_like, hi, INF) < 1e-14:
            return hi
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


# ---------------------------------------------------------------------------
# exact stable and gamma parts
# ---------------------------------------------------------------------------

def _base_parts(nu):
    """The summands of nu, with sums flattened and zero measures dropped."""
    if isinstance(nu, SumMeasure):
        return [q for p in nu.parts for q in _base_parts(p)]
    return [] if isinstance(nu, ZeroMeasure) else [nu]


def _cms(alpha, beta, n, rng):
    """n draws of the standard stable law S_alpha(1, beta, 0) by
    Chambers-Mallows-Stuck in Weron's (1996) form."""
    v = math.pi * (rng.random(n) - 0.5)
    w = rng.standard_exponential(n)
    if abs(alpha - 1.0) < 1e-12:
        h = 0.5 * math.pi + beta * v
        return (h * np.tan(v) - beta * np.log(0.5 * math.pi * w * np.cos(v) / h)) \
            * (2.0 / math.pi)
    t = beta * math.tan(0.5 * math.pi * alpha)
    b = math.atan(t) / alpha
    s = (1.0 + t * t) ** (0.5 / alpha)
    av = alpha * (v + b)
    # cos(v - av) >= 0 on (-pi/2, pi/2); rounding can dip below 0 at the ends
    with np.errstate(over="ignore"):
        return s * np.sin(av) / np.cos(v) ** (1.0 / alpha) \
            * (np.maximum(np.cos(v - av), 0.0) / w) ** ((1.0 - alpha) / alpha)


def _stable_tile(nu, dt, f, n, rng):
    """sum_i f_i X_i for the stable measure nu over cells of length dt.

    Per direction xi with weight w the exponent is
    w dt sum_i I(f_i <xi, z>) with I of ``measures._stable_exponent``, which
    is the exponent of S_alpha(sigma, beta, mu) in Samorodnitsky and Taqqu's
    parametrization with
    sigma^alpha = -w dt Gamma(-alpha) cos(pi alpha / 2) sum |f_i|^alpha,
    beta = sum sign(f_i) |f_i|^alpha / sum |f_i|^alpha and the drift
    mu = -w dt k sum f_i, k = pi / (2 cos(pi alpha / 2)); at alpha = 1,
    sigma = w dt (pi / 2) sum |f_i| and
    mu = w dt ((1 - Euler's gamma) sum f_i - sum f_i log |f_i|), and sigma
    times a standard draw needs the shift (2 / pi) beta sigma log(sigma).
    """
    a = nu.alpha
    af = np.abs(f) ** a
    mass = float(af.sum())
    out = np.zeros((n, nu.dim))
    if mass == 0.0:
        return out
    beta = float((np.sign(f) * af).sum()) / mass
    one = abs(a - 1.0) < 1e-12
    if one:
        nz = f[f != 0.0]
        scale = 0.5 * math.pi * mass
        drift = (1.0 - float(np.euler_gamma)) * float(f.sum()) \
            - float((nz * np.log(np.abs(nz))).sum())
    else:
        scale = -gamma_fn(-a) * math.cos(0.5 * math.pi * a) * mass
        drift = -math.pi / (2.0 * math.cos(0.5 * math.pi * a)) * float(f.sum())
    for xi, w in zip(nu.directions, nu.weights):
        y = _cms(a, beta, n, rng)
        if one:
            sigma = w * dt * scale
            y = sigma * y + (2.0 / math.pi) * beta * sigma * math.log(sigma)
        else:
            y = (w * dt * scale) ** (1.0 / a) * y
        out += np.outer(y + w * dt * drift, xi)
    return out


def _gamma_tile(nu, dt, f, n, rng):
    """sum_i f_i G_i along the direction of the gamma measure nu, without
    its centering: the G_i are gamma(shape dt, 1 / rate) cell increments."""
    g = rng.gamma(nu.shape * dt, 1.0 / nu.rate, size=(n, len(f))) @ f
    return np.outer(g, nu.direction)


# ---------------------------------------------------------------------------
# the tile sampler
# ---------------------------------------------------------------------------

class IncrementSampler:
    """Vectorized sampler for increments of the random measure of a law,
    and for f-weighted sums of them over tiles of cells."""

    def __init__(self, t: Triplet, cfg: SimConfig):
        self.dim = t.dim
        parts = _base_parts(t.nu)
        self.stable_parts = [p for p in parts if isinstance(p, StableMeasure)]
        self.gamma_parts = [p for p in parts if isinstance(p, GammaMeasure)]
        atoms = [p for p in parts if isinstance(p, AtomicMeasure)]
        # the rest is drawn above a cutoff (and raises if it is not radial)
        radial = [p for p in parts
                  if not isinstance(p, (StableMeasure, GammaMeasure, AtomicMeasure))]
        eps = None
        if radial:
            eps = cfg.small_jump_cutoff or default_cutoff(SumMeasure(radial))
        self.jumps = _JumpSampler(atoms + radial, eps, self.dim)
        # deterministic part per unit time: location minus the centering of
        # the sampled jumps, plus the small-jump mean left over below eps;
        # the stable draws carry their own centering
        shift = np.array(t.gamma, dtype=float)
        for group, lo in ((self.gamma_parts + atoms, 0.0), (radial, eps)):
            for p in group:
                shift = shift - np.asarray(p.vector_weighted(
                    lambda r: 1.0 / (1.0 + r * r), lo, INF))
                if lo > 0.0:
                    shift = shift + np.asarray(p.vector_weighted(
                        lambda r: (r * r) / (1.0 + r * r), 0.0, lo))
        self.shift = shift
        cov = np.array(t.A, dtype=float)
        if cfg.gaussian_compensation:
            for p in radial:
                cov = cov + _small_jump_covariance(p, eps)
        self.chol = _safe_cholesky(cov)

    def draw(self, dt, n, rng, *, weights=None):
        """sum_i f_i X_i for n paths, the X_i independent increments over
        cells of length dt and f_i = ``weights``; one cell with f = 1 (the
        default) is a plain increment."""
        f = np.ones(1) if weights is None else np.asarray(weights, dtype=float)
        out = np.tile(dt * float(f.sum()) * self.shift, (n, 1))
        if self.chol is not None:
            sd = math.sqrt(dt * float(f @ f))
            out += sd * rng.standard_normal((n, self.dim)) @ self.chol.T
        for nu in self.stable_parts:
            out += _stable_tile(nu, dt, f, n, rng)
        for nu in self.gamma_parts:
            out += _gamma_tile(nu, dt, f, n, rng)
        if self.jumps.total_rate > 0:
            counts = rng.poisson(dt * len(f) * self.jumps.total_rate, size=n)
            out += self.jumps.sample_total(rng, counts, f)
        return out

    def tile_shape(self, dt, n, cells):
        """(paths, cells) per tile for ``n`` paths over ``cells`` cells of
        length dt: as many cells as fit in ``TILE_BYTES`` next to
        ``_MIN_TILE_PATHS`` paths, then as many paths as fit."""
        d = self.dim
        # 8-byte temporaries per path: the output, the normals and the
        # bincounts (d each), the counts and the stable draws (8); per jump:
        # the jumps and one part's draw (d each), and at most four of the
        # uniforms, radii, part labels, cells, weights and owners at once;
        # per path and cell: one gamma tile
        per_path = 8.0 * (5 * d + 8)
        per_cell = 8.0 * len(self.gamma_parts) \
            + 8.0 * (2 * d + 4) * dt * self.jumps.total_rate
        c = cells
        if per_cell > 0.0:
            room = TILE_BYTES / min(n, _MIN_TILE_PATHS) - per_path
            c = int(min(max(room / per_cell, 1.0), cells))
        paths = int(min(max(TILE_BYTES // (per_path + c * per_cell), 1), n))
        return paths, c


def _small_jump_covariance(nu, eps):
    """Covariance per unit time of the jumps of the radial measure nu
    below eps."""
    val = nu.radial_integral(lambda r: r * r, 0.0, eps)
    return float(val) * np.einsum("k,ki,kj->ij", nu.weights, nu.directions, nu.directions)


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


def sample_integral(k: Kernel, t: Triplet, p: float, q: float,
                    cfg: SimConfig) -> np.ndarray:
    """Samples of the window integral of f against the random measure.

    The integrand is frozen at midpoints of a uniform mesh.  The mesh is
    chosen deterministically: it doubles until the characteristic-function
    gap between the frozen-integrand law and the exact window law falls
    below half the Monte Carlo standard error, within the mesh budget.  The
    sum over the cells is drawn tile by tile (``IncrementSampler.tile_shape``),
    tile j from the stream (seed, j + 1), paths in the outer order.
    """
    if not (k.a <= p < q <= k.b) or not (math.isfinite(p) and math.isfinite(q)):
        raise ValueError("window must be a finite slab inside the kernel interval")
    mesh = cfg.mesh_points
    probe = _probe_grid(t.dim)
    target = 0.5 / math.sqrt(cfg.n_paths)
    exact = None   # the exact window exponents, computed at the first check
    while mesh * 2 <= cfg.max_mesh_points:
        if exact is None:
            exact = direct_exponent(k, t, probe, p, q)
        if _mesh_bias(k, t, p, q, mesh, probe, exact) <= target:
            break
        mesh *= 2
    sampler = IncrementSampler(t, cfg)
    ds = (q - p) / mesh
    fvals = np.asarray(k(p + (np.arange(mesh) + 0.5) * ds), dtype=float)
    n = cfg.n_paths
    rows, cols = sampler.tile_shape(ds, n, mesh)
    total = np.zeros((n, t.dim))
    label = 0
    for a in range(0, n, rows):
        b = min(a + rows, n)
        for c in range(0, mesh, cols):
            label += 1
            total[a:b] += sampler.draw(ds, b - a, _stream(cfg.seed, label),
                                       weights=fvals[c:c + cols])
    return total


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
    the exact window exponents ``exact`` at the rows of the grid ``zs``."""
    ds = (q - p) / mesh
    mids = p + (np.arange(mesh) + 0.5) * ds
    fvals = np.asarray(k(mids), dtype=float)
    # a contiguous row per argument sums pairwise, as a lone 1-d sum does
    frozen = ds * np.ascontiguousarray(base_exponent_scaled(t, zs, fvals).T).sum(axis=1)
    return float(np.max(np.abs(np.exp(frozen) - np.exp(exact))))


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

    ``analytic_exponent`` maps the (m, d) grid to its m exponents in one
    call; any other shape raises ``ValueError``.  Standard errors come from
    batch means; the headline figure is the largest deviation in
    standard-error units.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[0]
    if n < 1000:
        raise TooFewSamples(f"need at least 1000 samples, got {n}")
    z_grid = np.atleast_2d(np.asarray(z_grid, dtype=float))
    if z_grid.shape[1] != samples.shape[1]:
        raise ValueError("argument grid dimension mismatch")
    edges = np.linspace(0, n, batches + 1).astype(int)
    ana = np.asarray(analytic_exponent(z_grid))
    if ana.shape != (len(z_grid),):
        raise ValueError(f"analytic exponent must map the {z_grid.shape} grid to"
                         f" {len(z_grid)} values, got shape {ana.shape}")
    ana = np.exp(ana.astype(complex))
    emp = np.empty(len(z_grid), dtype=complex)
    err = np.empty(len(z_grid))
    for i, z in enumerate(z_grid):
        phases = np.exp(1j * (samples @ z))
        emp[i] = phases.mean()
        means = np.array([phases[a:b].mean() for a, b in zip(edges, edges[1:])])
        err[i] = math.sqrt((means.real.var(ddof=1) + means.imag.var(ddof=1))
                           / batches)
    # floor the standard error at machine scale so degenerate samples with
    # an exact analytic match report zero deviation
    dev = np.abs(emp - ana) / np.maximum(err, 1e-14)
    return EcfReport(z_grid, emp, ana, err, float(dev.max()), n, batches)


def window_exponent(k: Kernel, t: Triplet, p: float, q: float):
    """Analytic exponent of the window integral via the base law's
    characteristic exponent composed with the kernel: maps an (m, d) grid of
    arguments to its m exponents with one ``direct_exponent`` call."""
    return lambda z: direct_exponent(k, t, z, p, q)

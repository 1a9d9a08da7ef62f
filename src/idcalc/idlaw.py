"""Infinitely divisible laws as Levy-Khintchine triplets.

A law is held as ``(A, nu, gamma)``: Gaussian covariance matrix, Levy
measure and location vector, with the centering function x/(1+|x|^2) in the
characteristic exponent.  Operations on triplets are pure; instances are
immutable after construction.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import HasGaussianPart, NoDrift, NoMean
from .measures import (
    INF,
    LevyMeasure,
    SumMeasure,
    ZeroMeasure,
    dual_measure,
    levy_integral,
    symmetrize_measure,
)

_SYM_TOL = 1e-12
_EIG_FLOOR = -1e-12


class TypeClass(enum.Enum):
    """Activity/variation taxonomy of an infinitely divisible law."""

    A = "A"   # no Gaussian part, finite jump intensity
    B = "B"   # no Gaussian part, infinite intensity, finite small-jump variation
    C = "C"   # Gaussian part present, or infinite small-jump variation


class Triplet:
    """Levy-Khintchine triplet of an infinitely divisible distribution."""

    def __init__(self, A, nu: LevyMeasure | None, gamma, validate=True):
        gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
        d = gamma.shape[0]
        if nu is None:
            nu = ZeroMeasure(d)
        if np.isscalar(A) or np.asarray(A).ndim == 0:
            A = float(A) * np.eye(d)
        A = np.asarray(A, dtype=float)
        if A.shape != (d, d):
            raise ValueError(f"A must be {d}x{d}")
        if nu.dim != d:
            raise ValueError("Levy measure dimension mismatch")
        if validate:
            if not (np.all(np.isfinite(A)) and np.all(np.isfinite(gamma))):
                raise ValueError("Gaussian matrix and location must be finite")
            if np.max(np.abs(A - A.T)) > _SYM_TOL:
                raise ValueError("Gaussian matrix must be symmetric")
            A = 0.5 * (A + A.T)
            w, v = np.linalg.eigh(A)
            if np.any(w < _EIG_FLOOR):
                raise ValueError("Gaussian matrix must be nonnegative definite")
            w = np.clip(w, 0.0, None)
            A = (v * w) @ v.T
        self.A = A
        self.nu = nu
        self.gamma = gamma
        self.dim = d

    def __repr__(self):
        return (f"Triplet(dim={self.dim}, trA={np.trace(self.A):.6g}, "
                f"nu={type(self.nu).__name__}, gamma={self.gamma})")

    @property
    def has_gaussian_part(self):
        return bool(np.any(self.A != 0.0))

    def is_symmetric(self):
        """Symmetric law: zero location, zero-odd Gaussian part is automatic,
        and a reflection-invariant Levy measure."""
        return bool(np.all(self.gamma == 0.0)) and self.nu.is_symmetric()


def dirac(gamma):
    """Point mass at gamma as a degenerate triplet."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    return Triplet(np.zeros((gamma.size, gamma.size)), ZeroMeasure(gamma.size), gamma)


def triplet_add(t1: Triplet, t2: Triplet) -> Triplet:
    """Triplet of the convolution of two laws."""
    if t1.dim != t2.dim:
        raise ValueError("dimension mismatch")
    parts = []
    for nu in (t1.nu, t2.nu):
        if not nu.is_zero():
            parts.append(nu)
    if not parts:
        nu = ZeroMeasure(t1.dim)
    elif len(parts) == 1:
        nu = parts[0]
    else:
        nu = SumMeasure(parts)
    return Triplet(t1.A + t2.A, nu, t1.gamma + t2.gamma, validate=False)


def cumulant(t: Triplet, z):
    """Characteristic exponent C(z) = log E exp(i<z, X>).

    The jump integral is evaluated per representation: exact for atoms,
    closed form for stable families, adaptive radial quadrature otherwise.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (t.dim,):
        raise ValueError("argument dimension mismatch")
    if not np.all(np.isfinite(z)):
        raise ValueError("argument must be finite")
    quad = -0.5 * float(z @ t.A @ z)
    jump = complex(t.nu.cumulant_scaled(z, np.array([1.0]))[0])
    return quad + jump + 1j * float(t.gamma @ z)


def classify_type(t: Triplet) -> TypeClass:
    """Type A / B / C decision for a triplet."""
    if t.has_gaussian_part:
        return TypeClass.C
    total = t.nu.total_mass()
    if total != INF and math.isfinite(total):
        return TypeClass.A
    small = t.nu.small_jump_first_moment()
    if small != INF and math.isfinite(small):
        return TypeClass.B
    return TypeClass.C


def drift(t: Triplet):
    """Location in the uncentered (drift) representation.

    Exists precisely when the small jumps have finite first moment.
    """
    small = t.nu.small_jump_first_moment()
    if not math.isfinite(small):
        raise NoDrift("small-jump first moment diverges")
    corr = t.nu.vector_weighted(lambda r: 1.0 / (1.0 + r * r))
    return t.gamma - np.asarray(corr)


def mean(t: Triplet):
    """First moment of the law, when the tail first moment is finite."""
    tail = t.nu.tail_first_moment()
    if not math.isfinite(tail):
        raise NoMean("tail first moment diverges")
    corr = t.nu.vector_weighted(lambda r: (r * r) / (1.0 + r * r))
    return t.gamma + np.asarray(corr)


def dual(t: Triplet) -> Triplet:
    """Dual of a purely non-Gaussian law.

    The Levy measure is transported by the inversion x -> x/|x|^2 with
    weight |x|^2 and the location is negated.  Applying the operation twice
    reproduces the original triplet.
    """
    if t.has_gaussian_part:
        raise HasGaussianPart("dual requires a purely non-Gaussian law")
    return Triplet(np.zeros_like(t.A), dual_measure(t.nu), -t.gamma, validate=False)


def symmetrize_triplet(t: Triplet) -> Triplet:
    """Law of X - X' for an independent copy X'."""
    return Triplet(2.0 * t.A, symmetrize_measure(t.nu), np.zeros(t.dim),
                   validate=False)


__all__ = [
    "Triplet", "TypeClass", "dirac", "triplet_add", "cumulant",
    "classify_type", "drift", "mean", "dual", "symmetrize_triplet",
    "levy_integral", "symmetrize_measure",
]

"""Finite weighted measure spaces and the fields that live on them.

A space is a finite set of points carrying strictly positive masses
``mu_i``.  A field is a Bochner field, a vector of a finite-dimensional
l^r fiber at every point; a scalar field is one of fiber dimension 1.
All weighted p-norms are computed from the raw masses, nothing is
normalised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ABS_TOL",
    "WeightedSpace",
    "BanachNormDescriptor",
    "BochnerField",
    "random_field",
    "lp_norm",
    "lp_norms",
    "field_parts",
    "bochner_norm",
    "fiber_norm",
]


# Slack of the plain floating-point checks (mu-symmetry, diffusion signs,
# nonnegativity, domination and subpositivity margins), relative to the
# data's scale where a check has one.
ABS_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class WeightedSpace:
    """Finite measure space: ``n`` points with strictly positive masses."""

    mu: np.ndarray

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError("mu must be a non-empty 1-d array of point masses")
        if not np.all(np.isfinite(mu)) or not np.all(mu > 0):
            raise ValueError("point masses must be finite and strictly positive")
        mu = mu.copy()
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)

    @property
    def n(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class BanachNormDescriptor:
    """Fiber norm descriptor: the space l^r of dimension ``d``.

    ``r`` may be ``math.inf``; the sup fiber norm is accepted here for
    plumbing purposes but the maximal-function experiments reject it.
    """

    d: int
    r: float

    def __post_init__(self) -> None:
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError(f"fiber dimension d must be a positive integer, got {self.d!r}")
        r = float(self.r)
        if not (r > 1.0):
            raise ValueError(f"fiber exponent r must satisfy r > 1 (math.inf allowed), got {r!r}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "r", r)

    @property
    def is_sup(self) -> bool:
        return math.isinf(self.r)


@dataclass(frozen=True)
class BochnerField:
    """Vector field over a weighted space: one l^r fiber vector per point."""

    values: np.ndarray
    norm: BanachNormDescriptor

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 2 or values.shape[0] == 0:
            raise ValueError("Bochner field values must form a non-empty (n, d) array")
        if values.shape[1] != self.norm.d:
            raise ValueError(
                f"fiber dimension mismatch: values have d={values.shape[1]}, descriptor d={self.norm.d}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("Bochner field contains non-finite entries")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def replace_values(self, values) -> "BochnerField":
        """Same descriptor, new per-point vectors."""
        return BochnerField(np.asarray(values, dtype=complex), self.norm)


def _gaussian_batch(rng, count: int, shape: tuple) -> np.ndarray:
    """``count`` seeded complex Gaussian arrays of ``shape``, stacked as (count, *shape).

    Each array's real parts are drawn first, then its imaginary parts, so
    the stack is the same stream as ``count`` draws of one array in turn.
    """
    draws = rng.standard_normal((count, 2) + tuple(shape))
    return draws[:, 0] + 1j * draws[:, 1]


def random_field(rng, n: int, descriptor: BanachNormDescriptor) -> BochnerField:
    """Seeded complex Gaussian Bochner field of n points: real parts drawn first, then imaginary."""
    return BochnerField(_gaussian_batch(rng, 1, (n, descriptor.d))[0], descriptor)


def lp_norm(space: WeightedSpace, f, p: float) -> float:
    """Weighted L^p norm ``(sum_i mu_i |f_i|^p)^(1/p)``; ``p = inf`` is the sup norm."""
    f = np.asarray(f)
    if f.shape != (space.n,):
        raise ValueError(f"field has shape {f.shape}, expected ({space.n},)")
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    a = np.abs(f)
    if math.isinf(p):
        return float(a.max())
    if p == 1.0:
        return float(space.mu @ a)
    return float((space.mu @ a**p) ** (1.0 / p))


def lp_norms(space: WeightedSpace, f, p: float) -> np.ndarray:
    """lp_norm of every row of a stack ``f`` of shape (..., n), with shape ``f.shape[:-1]``.

    Each value is bit for bit lp_norm's, for any memory layout: the weighted
    sums of the C-ordered stack are ``(1, n) @ (n, 1)`` products, the same
    dot lp_norm makes, and the root is taken one entry at a time, because
    numpy's vectorised pow rounds differently from the scalar pow.
    """
    f = np.ascontiguousarray(f)
    if f.ndim == 0 or f.shape[-1] != space.n:
        raise ValueError(f"fields have shape {f.shape}, expected (..., {space.n})")
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    a = np.abs(f)
    if math.isinf(p):
        return a.max(axis=-1)
    sums = (space.mu @ (a if p == 1.0 else a**p)[..., None])[..., 0]
    if p == 1.0:
        return sums
    return np.array([s ** (1.0 / p) for s in sums.ravel()]).reshape(sums.shape)


def fiber_norm(values, r: float) -> np.ndarray:
    """l^r norm over the last axis; ``r = inf`` is the largest modulus."""
    a = np.abs(values)
    if math.isinf(r):
        return a.max(axis=-1)
    if r == 2.0:
        # common case, cheaper and slightly more accurate
        return np.sqrt((a * a).sum(axis=-1))
    return (a**r).sum(axis=-1) ** (1.0 / r)


def field_parts(space: WeightedSpace, f, batch: bool = False) -> tuple[np.ndarray, float]:
    """(values, r) of a Bochner field over ``space``.

    With ``batch``, ``f`` may also be a list of T Bochner fields sharing one
    descriptor, whose values are stacked as (n, T, d); without it a list is
    rejected.  Anything else, a bare array included, raises ValueError.
    """
    if isinstance(f, list):
        if not batch:
            raise ValueError("this function takes one field, not a list of fields")
        if not f:
            raise ValueError("a field batch needs at least one field")
        if not all(isinstance(g, BochnerField) for g in f):
            raise ValueError("a field batch must hold only Bochner fields")
        if any(g.norm != f[0].norm for g in f):
            raise ValueError("the fields of a batch must share one fiber descriptor")
        if any(g.n != space.n for g in f):
            raise ValueError(f"every field of a batch must have the space's {space.n} points")
        return np.stack([g.values for g in f], axis=1), f[0].norm.r
    if not isinstance(f, BochnerField):
        raise ValueError(f"a field is a BochnerField (d = 1 if scalar), got {type(f).__name__}")
    if f.n != space.n:
        raise ValueError(f"field has {f.n} points, space has {space.n}")
    return f.values, f.norm.r


def bochner_norm(space: WeightedSpace, field, p: float) -> float:
    """Weighted L^p norm of the per-point fiber norms of a Bochner field."""
    values, r = field_parts(space, field)
    return lp_norm(space, fiber_norm(values, r), p)

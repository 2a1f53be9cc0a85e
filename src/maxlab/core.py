"""Finite weighted measure spaces and the fields that live on them.

A space is a finite set of points carrying strictly positive masses
``mu_i``.  Scalar fields are 1-d complex arrays indexed by the points;
Bochner fields attach a finite-dimensional l^r fiber to every point.
All weighted p-norms are computed from the raw masses, nothing is
normalised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "WeightedSpace",
    "BanachNormDescriptor",
    "BochnerField",
    "as_scalar_field",
    "lp_norm",
    "field_parts",
    "bochner_norm",
    "fiber_norm",
    "pointwise_banach_norm",
    "pointwise_sup",
    "space_to_json",
    "space_from_json",
    "field_to_json",
    "field_from_json",
    "bochner_field_to_json",
    "bochner_field_from_json",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Shared numeric tolerances.

    abs_tol bounds plain floating-point residuals, quad_tol bounds
    quadrature errors, stab_tol is the stabilisation threshold for
    iterative limits.  All three must be strictly positive.
    """

    abs_tol: float = 1e-10
    quad_tol: float = 1e-6
    stab_tol: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("abs_tol", "quad_tol", "stab_tol"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a strictly positive finite number, got {value!r}")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
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

    @property
    def total_mass(self) -> float:
        return float(self.mu.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedSpace):
            return NotImplemented
        return self.mu.shape == other.mu.shape and bool(np.all(self.mu == other.mu))

    def __hash__(self) -> int:
        return hash(self.mu.tobytes())


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


def as_scalar_field(space: WeightedSpace, values) -> np.ndarray:
    """Validate and coerce ``values`` to a complex scalar field over ``space``."""
    f = np.asarray(values, dtype=complex)
    if f.shape != (space.n,):
        raise ValueError(f"scalar field must have shape ({space.n},), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("scalar field contains non-finite entries")
    return f


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


def fiber_norm(values, r: float) -> np.ndarray:
    """l^r norm over the last axis; ``r = inf`` is the largest modulus."""
    a = np.abs(values)
    if math.isinf(r):
        return a.max(axis=-1)
    if r == 2.0:
        # common case, cheaper and slightly more accurate
        return np.sqrt((a * a).sum(axis=-1))
    return (a**r).sum(axis=-1) ** (1.0 / r)


def pointwise_banach_norm(field: BochnerField) -> np.ndarray:
    """Real scalar field ``x -> |F(x)|_B`` of per-point fiber norms."""
    return fiber_norm(field.values, field.norm.r)


def field_parts(space: WeightedSpace, f) -> tuple[np.ndarray, float | None]:
    """(values, r) of a Bochner field over ``space``; a scalar field gives (values, None)."""
    if isinstance(f, BochnerField):
        if f.n != space.n:
            raise ValueError(f"field has {f.n} points, space has {space.n}")
        return f.values, f.norm.r
    return as_scalar_field(space, f), None


def bochner_norm(space: WeightedSpace, field, p: float) -> float:
    """Weighted L^p norm of the per-point fiber norms of a Bochner or scalar field."""
    values, r = field_parts(space, field)
    return lp_norm(space, values if r is None else fiber_norm(values, r), p)


def pointwise_sup(fields) -> np.ndarray:
    """Pointwise supremum of finitely many real scalar fields."""
    fields = list(fields)
    if not fields:
        raise ValueError("pointwise_sup needs at least one field")
    arrays = []
    for f in fields:
        a = np.asarray(f)
        if np.iscomplexobj(a):
            if np.any(a.imag != 0):
                raise ValueError("pointwise_sup expects real fields")
            a = a.real
        arrays.append(a.astype(float, copy=False))
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("fields must share one shape")
    return np.maximum.reduce(arrays)


# ---------------------------------------------------------------------------
# JSON round-trip.  Python's json module serialises floats via repr, which
# round-trips binary64 exactly; complex entries are stored as [re, im] pairs.

def space_to_json(space: WeightedSpace) -> str:
    return json.dumps({"n": space.n, "mu": space.mu.tolist()})


def space_from_json(doc: str) -> WeightedSpace:
    data = json.loads(doc)
    mu = np.asarray(data["mu"], dtype=float)
    if int(data["n"]) != mu.size:
        raise ValueError("inconsistent document: n does not match len(mu)")
    return WeightedSpace(mu)


def field_to_json(space: WeightedSpace, f) -> str:
    f = as_scalar_field(space, f)
    values = [[float(v.real), float(v.imag)] for v in f]
    return json.dumps({"n": space.n, "mu": space.mu.tolist(), "values": values})


def field_from_json(doc: str) -> tuple[WeightedSpace, np.ndarray]:
    data = json.loads(doc)
    space = WeightedSpace(np.asarray(data["mu"], dtype=float))
    if int(data["n"]) != space.n:
        raise ValueError("inconsistent document: n does not match len(mu)")
    pairs = np.asarray(data["values"], dtype=float)
    if pairs.shape != (space.n, 2):
        raise ValueError("scalar field document must list one [re, im] pair per point")
    return space, pairs[:, 0] + 1j * pairs[:, 1]


def bochner_field_to_json(space: WeightedSpace, field: BochnerField) -> str:
    if field.n != space.n:
        raise ValueError(f"field has {field.n} points, space has {space.n}")
    values = [[[float(v.real), float(v.imag)] for v in row] for row in field.values]
    return json.dumps(
        {
            "n": space.n,
            "mu": space.mu.tolist(),
            "d": field.norm.d,
            "r": "inf" if field.norm.is_sup else field.norm.r,
            "values": values,
        }
    )


def bochner_field_from_json(doc: str) -> tuple[WeightedSpace, BochnerField]:
    data = json.loads(doc)
    space = WeightedSpace(np.asarray(data["mu"], dtype=float))
    r = math.inf if data["r"] == "inf" else float(data["r"])
    descriptor = BanachNormDescriptor(int(data["d"]), r)
    pairs = np.asarray(data["values"], dtype=float)
    if pairs.shape != (space.n, descriptor.d, 2):
        raise ValueError("Bochner field document must list d [re, im] pairs per point")
    return space, BochnerField(pairs[..., 0] + 1j * pairs[..., 1], descriptor)

"""Cone specifications and the membership / dual-cone / slice calculus.

A ConeSpec is an immutable description of a closed convex cone (or, for a few
named gallery objects, a compact convex set). Constructors validate shapes;
numerical work lives in the membership and projection engines.

Vector collections are (m, dim) arrays with vectors as rows. Polyhedral data
follows the same convention: `inequalities` rows a_i describe {x : <a_i, x> >= 0}
and `generators` rows g_j describe cone{g_j}.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg_core import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Tolerance,
    _embed,
    _freeze,
    orthonormalize,
    sym_vec_dim,
    vec_to_sym,
)

__all__ = [
    "ConeSpec",
    "NonnegativeOrthant",
    "Halfspace",
    "LinearSubspace",
    "PolyhedralCone",
    "SecondOrderCone",
    "PsdCone",
    "ProductCone",
    "IntersectionCone",
    "LinearImageCone",
    "SliceSpec",
    "ConicHull",
    "GallerySet",
    "Membership",
    "MembershipResult",
    "membership",
    "dual_cone",
    "rescale_to_slice",
    "sample_points",
    "support_value",
    "DualUnavailableError",
    "NotRescalableError",
    "UnsupportedVariantError",
]


class UnsupportedVariantError(TypeError):
    """An operation was asked of a spec variant it does not support."""


class DualUnavailableError(UnsupportedVariantError):
    """No closed-form dual is available for this variant."""


class NotRescalableError(ValueError):
    """Slice rescaling was asked for a point with nonpositive slice pairing."""


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """Base class for immutable cone descriptions."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(self.dim, int(np.prod(x.shape)))
        return x


@dataclass(frozen=True, eq=False)
class NonnegativeOrthant(ConeSpec):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.n


@dataclass(frozen=True, eq=False)
class Halfspace(ConeSpec):
    """{x : <normal, x> <= offset}; a cone only when offset = 0.

    The normal is normalized to unit length at construction.
    """

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.normal, dtype=float)
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise ValueError("normal must be nonzero")
        object.__setattr__(self, "normal", _freeze(v / nrm))
        object.__setattr__(self, "offset", float(self.offset) / nrm)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    @property
    def is_cone(self) -> bool:
        return self.offset == 0.0


@dataclass(frozen=True, eq=False)
class LinearSubspace(ConeSpec):
    """Linear subspace spanned by the given vectors (orthonormalized rows)."""

    basis: np.ndarray
    ambient: int | None = None

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        amb = self.ambient if self.ambient is not None else (b.shape[1] if b.ndim == 2 else b.shape[0])
        if b.size == 0:
            b = np.zeros((0, amb))
        ob = orthonormalize(b)
        if ob.size == 0:
            ob = np.zeros((0, amb))
        object.__setattr__(self, "basis", _freeze(ob))
        object.__setattr__(self, "ambient", int(amb))
        if self.basis.shape[0] and self.basis.shape[1] != amb:
            raise DimensionMismatchError(amb, self.basis.shape[1], "basis")

    @property
    def dim(self) -> int:
        return int(self.ambient)

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True, eq=False)
class PolyhedralCone(ConeSpec):
    """Polyhedral cone with an inequality and/or generator representation."""

    inequalities: np.ndarray | None = None
    generators: np.ndarray | None = None

    def __post_init__(self):
        if self.inequalities is None and self.generators is None:
            raise ValueError("need inequalities or generators")
        for name in ("inequalities", "generators"):
            a = getattr(self, name)
            if a is not None:
                a = np.atleast_2d(np.asarray(a, dtype=float))
                object.__setattr__(self, name, _freeze(a))
        if (
            self.inequalities is not None
            and self.generators is not None
            and self.inequalities.shape[1] != self.generators.shape[1]
        ):
            raise DimensionMismatchError(
                self.inequalities.shape[1], self.generators.shape[1], "generators"
            )

    @property
    def dim(self) -> int:
        a = self.inequalities if self.inequalities is not None else self.generators
        return a.shape[1]


@dataclass(frozen=True, eq=False)
class SecondOrderCone(ConeSpec):
    """{(y, t) in R^{n-1} x R : ||y|| <= t}; the bound is the last coordinate."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("second-order cone needs dimension >= 2")

    @property
    def dim(self) -> int:
        return self.n


@dataclass(frozen=True, eq=False)
class PsdCone(ConeSpec):
    """PSD cone over symmetric n x n matrices in the sym_to_vec embedding."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix order must be >= 1")

    @property
    def dim(self) -> int:
        return sym_vec_dim(self.n)


@dataclass(frozen=True, eq=False)
class ProductCone(ConeSpec):
    left: ConeSpec
    right: ConeSpec

    @property
    def dim(self) -> int:
        return self.left.dim + self.right.dim

    def split(self, x: np.ndarray):
        return x[: self.left.dim], x[self.left.dim :]

    def factors(self):
        """Flatten nested products into the ordered list of atoms."""
        out = []
        for part in (self.left, self.right):
            if isinstance(part, ProductCone):
                out.extend(part.factors())
            else:
                out.append(part)
        return out


@dataclass(frozen=True, eq=False)
class IntersectionCone(ConeSpec):
    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if len(parts) < 2:
            raise ValueError("intersection needs at least two parts")
        d = parts[0].dim
        for p in parts[1:]:
            if p.dim != d:
                raise DimensionMismatchError(d, p.dim, "intersection part")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim


@dataclass(frozen=True, eq=False)
class LinearImageCone(ConeSpec):
    """{A z : z in inner}; A must have full column rank."""

    matrix: np.ndarray
    inner: ConeSpec

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        if a.ndim != 2:
            raise ValueError("matrix must be 2-d")
        if a.shape[1] != self.inner.dim:
            raise DimensionMismatchError(self.inner.dim, a.shape[1], "matrix columns")
        if np.linalg.matrix_rank(a) < a.shape[1]:
            raise ValueError("matrix must have full column rank")
        object.__setattr__(self, "matrix", _freeze(a))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def orthonormal_columns(self) -> bool:
        a = self.matrix
        return bool(np.allclose(a.T @ a, np.eye(a.shape[1]), atol=1e-12))


@dataclass(frozen=True, eq=False)
class SliceSpec:
    """Compact slice data for a conic hull: the hull of `sampler(density)` inside
    the hyperplane {x : <e, x> = level}."""

    e: np.ndarray
    sampler: Callable[[int], np.ndarray]
    level: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "e", _freeze(self.e))
        if self.level <= 0:
            raise ValueError("slice level must be positive")

    @property
    def dim(self) -> int:
        return self.e.shape[0]


@dataclass(frozen=True, eq=False)
class ConicHull(ConeSpec):
    """Closure of the cone generated by a compact slice, represented by samples.

    All numerical answers are relative to the sampled inner approximation,
    which is reported as non-exact by membership and projection.
    """

    slice_spec: SliceSpec
    density: int = 2048

    @property
    def dim(self) -> int:
        return self.slice_spec.dim


@dataclass(frozen=True, eq=False)
class GallerySet(ConeSpec):
    """Named object from the example gallery.

    Each operation is one of its closures: membership, projection, sampling
    and the dual, with the slice and span dimension read from `extra`. An
    operation whose closure is missing raises UnsupportedVariantError.
    `is_cone` is False for the compact convex sets in the gallery (their
    names are kept for the probes, which work with convex sets directly).
    """

    name: str
    ambient_dim: int
    is_cone: bool = True
    member_fn: Callable | None = None
    project_fn: Callable | None = None
    sample_fn: Callable | None = None
    dual_factory: Callable | None = None
    extra: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.ambient_dim


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


class Membership(str, enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class MembershipResult:
    status: Membership
    exact: bool
    distance: float | None = None

    @property
    def in_set(self) -> bool:
        return self.status != Membership.OUTSIDE


def _classify(residual: float, eps: float) -> Membership:
    """residual < 0 strictly inside, = 0 boundary, > 0 outside, up to eps."""
    if residual > eps:
        return Membership.OUTSIDE
    if residual < -eps:
        return Membership.INSIDE
    return Membership.BOUNDARY


def membership(K: ConeSpec, x, tol: Tolerance = DEFAULT_TOL) -> MembershipResult:
    """Classify x against K as inside / boundary / outside.

    Exact rules are used for orthant, halfspace, subspace, second-order, PSD,
    polyhedral, and products/intersections of these; conic hulls fall back to
    the sampled projection and are flagged non-exact.
    """
    x = K._check_point(x)
    scale = max(1.0, float(np.linalg.norm(x)))
    eps = tol.margin(scale)

    if isinstance(K, GallerySet):
        if K.member_fn is not None:
            return K.member_fn(x, tol)
        raise UnsupportedVariantError(f"gallery object {K.name!r} has no membership rule")

    if isinstance(K, NonnegativeOrthant):
        worst = float(np.min(x))
        if worst < -eps:
            return MembershipResult(Membership.OUTSIDE, True, float(np.linalg.norm(np.minimum(x, 0.0))))
        status = Membership.INSIDE if worst > eps else Membership.BOUNDARY
        return MembershipResult(status, True, 0.0)

    if isinstance(K, Halfspace):
        v = float(K.normal @ x) - K.offset
        status = _classify(v, eps)
        return MembershipResult(status, True, max(v, 0.0))

    if isinstance(K, LinearSubspace):
        if K.subspace_dim == K.dim:
            return MembershipResult(Membership.INSIDE, True, 0.0)
        r = x - (x @ K.basis.T) @ K.basis if K.subspace_dim else x
        d = float(np.linalg.norm(r))
        status = Membership.BOUNDARY if d <= eps else Membership.OUTSIDE
        return MembershipResult(status, True, d if status is Membership.OUTSIDE else 0.0)

    if isinstance(K, SecondOrderCone):
        y, t = x[:-1], x[-1]
        v = float(np.linalg.norm(y)) - float(t)
        if v > eps:
            # distance via the closed-form projection residual
            from .projection_engine import project

            return MembershipResult(Membership.OUTSIDE, True, project(K, x).distance)
        return MembershipResult(_classify(v, eps), True, 0.0)

    if isinstance(K, PsdCone):
        w = np.linalg.eigvalsh(vec_to_sym(x))
        lo = float(w[0])
        if lo < -eps:
            return MembershipResult(Membership.OUTSIDE, True, float(np.linalg.norm(np.minimum(w, 0.0))))
        status = Membership.INSIDE if lo > eps else Membership.BOUNDARY
        return MembershipResult(status, True, 0.0)

    if isinstance(K, PolyhedralCone):
        if K.inequalities is not None:
            vals = K.inequalities @ x
            worst = float(np.min(vals)) if vals.size else 1.0
            row_scale = np.linalg.norm(K.inequalities, axis=1).max(initial=1.0)
            e = tol.margin(scale * row_scale)
            if worst < -e:
                from .projection_engine import project

                return MembershipResult(Membership.OUTSIDE, True, project(K, x).distance)
            status = Membership.INSIDE if worst > e else Membership.BOUNDARY
            return MembershipResult(status, True, 0.0)
        # generator representation: exact distance by nonnegative least squares
        from .projection_engine import project

        d = project(K, x).distance
        if d > eps:
            return MembershipResult(Membership.OUTSIDE, True, d)
        return MembershipResult(_interior_probe(K, x, tol), True, 0.0)

    if isinstance(K, ProductCone):
        xl, xr = K.split(x)
        rl = membership(K.left, xl, tol)
        rr = membership(K.right, xr, tol)
        exact = rl.exact and rr.exact
        if rl.status is Membership.OUTSIDE or rr.status is Membership.OUTSIDE:
            d = None
            if rl.distance is not None and rr.distance is not None:
                d = float(np.hypot(rl.distance, rr.distance))
            return MembershipResult(Membership.OUTSIDE, exact, d)
        if rl.status is Membership.INSIDE and rr.status is Membership.INSIDE:
            return MembershipResult(Membership.INSIDE, exact, 0.0)
        return MembershipResult(Membership.BOUNDARY, exact, 0.0)

    if isinstance(K, IntersectionCone):
        results = [membership(p, x, tol) for p in K.parts]
        exact = all(r.exact for r in results)
        if any(r.status is Membership.OUTSIDE for r in results):
            d = max((r.distance for r in results if r.distance is not None), default=None)
            return MembershipResult(Membership.OUTSIDE, exact, d)
        if all(r.status is Membership.INSIDE for r in results):
            return MembershipResult(Membership.INSIDE, exact, 0.0)
        return MembershipResult(Membership.BOUNDARY, exact, 0.0)

    if isinstance(K, LinearImageCone):
        z = np.linalg.lstsq(K.matrix, x, rcond=None)[0]
        resid = float(np.linalg.norm(K.matrix @ z - x))
        if resid > eps:
            return MembershipResult(Membership.OUTSIDE, True, None)
        inner = membership(K.inner, z, tol)
        if inner.status is Membership.OUTSIDE:
            return MembershipResult(Membership.OUTSIDE, inner.exact, None)
        full_dim = K.matrix.shape[0] == K.matrix.shape[1]
        if inner.status is Membership.INSIDE and full_dim:
            return MembershipResult(Membership.INSIDE, inner.exact, 0.0)
        return MembershipResult(Membership.BOUNDARY, inner.exact, 0.0)

    if isinstance(K, ConicHull):
        from .projection_engine import project

        nx = float(np.linalg.norm(x))
        if nx <= eps:
            return MembershipResult(Membership.BOUNDARY, False, 0.0)
        d = project(K, x).distance
        if d > eps:
            return MembershipResult(Membership.OUTSIDE, False, d)
        return MembershipResult(_interior_probe(K, x, tol), False, 0.0)

    raise UnsupportedVariantError(f"membership not implemented for {type(K).__name__}")


def _interior_probe(K: ConeSpec, x: np.ndarray, tol: Tolerance) -> Membership:
    """Distinguish inside from boundary for projection-backed variants by
    probing a handful of fixed directions. Non-exact by nature."""
    from .projection_engine import project

    scale = max(1.0, float(np.linalg.norm(x)))
    delta = max(1e-6 * scale, 100 * tol.margin(scale))
    rng = np.random.default_rng(7)
    dirs = rng.standard_normal((8, K.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for d in dirs:
        if project(K, x + delta * d).distance > tol.margin(scale) + 1e-12:
            return Membership.BOUNDARY
    return Membership.INSIDE


# ---------------------------------------------------------------------------
# Duals
# ---------------------------------------------------------------------------


def dual_cone(K: ConeSpec) -> ConeSpec:
    """Dual cone {s : <s, x> >= 0 for all x in K} for variants with a closed form.

    Polyhedral duals swap representations (inequality rows become generator
    rows and vice versa); general intersections, conic hulls, and linear
    images raise DualUnavailableError.
    """
    if isinstance(K, (NonnegativeOrthant, SecondOrderCone, PsdCone)):
        return K
    if isinstance(K, Halfspace):
        if not K.is_cone:
            raise DualUnavailableError("halfspace with nonzero offset is not a cone")
        return PolyhedralCone(generators=-K.normal[None, :])
    if isinstance(K, LinearSubspace):
        from .linalg_core import complement_basis

        return LinearSubspace(complement_basis(K.basis, K.dim), ambient=K.dim)
    if isinstance(K, PolyhedralCone):
        ineq = K.generators.copy() if K.generators is not None else None
        gens = K.inequalities.copy() if K.inequalities is not None else None
        return PolyhedralCone(inequalities=ineq, generators=gens)
    if isinstance(K, ProductCone):
        return ProductCone(dual_cone(K.left), dual_cone(K.right))
    if isinstance(K, GallerySet):
        if K.dual_factory is not None:
            return K.dual_factory()
        raise DualUnavailableError(f"gallery object {K.name!r} has no dual rule")
    raise DualUnavailableError(f"no closed-form dual for {type(K).__name__}")


# ---------------------------------------------------------------------------
# Slices and sampling
# ---------------------------------------------------------------------------


def get_slice(K: ConeSpec) -> SliceSpec | None:
    if isinstance(K, ConicHull):
        return K.slice_spec
    if isinstance(K, GallerySet):
        return K.extra.get("slice")
    return None


def rescale_to_slice(K: ConeSpec, x) -> np.ndarray:
    """Map x to the slice hyperplane of a conic hull by positive rescaling."""
    s = get_slice(K)
    if s is None:
        raise UnsupportedVariantError("spec carries no slice data")
    x = np.asarray(x, dtype=float)
    val = float(s.e @ x)
    if val <= DEFAULT_TOL.margin(float(np.linalg.norm(x))):
        raise NotRescalableError(f"slice pairing {val:.3e} is not positive")
    return x * (s.level / val)


def support_value(points: np.ndarray, direction) -> float:
    """Support function of a finite point cloud."""
    return float(np.max(np.asarray(points) @ np.asarray(direction, dtype=float)))


def sample_points(K: ConeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points of K (used by invariant tests and witness scans).

    Conic variants return nonnegative combinations of primitive members;
    the draw is not uniform in any canonical measure, just well spread.
    A PSD(k) row is the Gram matrix a a^T of a k x r Gaussian factor, r
    uniform on 1..k, drawn for all rows at once (ranks, then an (n, k, k)
    Gaussian stack): a seed gives other rows than the old per-row draws.
    """
    if isinstance(K, GallerySet):
        if K.sample_fn is not None:
            return K.sample_fn(n, rng)
        raise UnsupportedVariantError(f"gallery object {K.name!r} has no sampler")
    if isinstance(K, NonnegativeOrthant):
        return rng.gamma(1.0, 1.0, size=(n, K.dim))
    if isinstance(K, Halfspace):
        if not K.is_cone:
            raise UnsupportedVariantError("sampling only for cones")
        g = rng.standard_normal((n, K.dim))
        v = g @ K.normal
        return g - np.outer(np.maximum(v, 0.0), K.normal)
    if isinstance(K, LinearSubspace):
        if K.subspace_dim == 0:
            return np.zeros((n, K.dim))
        return rng.standard_normal((n, K.subspace_dim)) @ K.basis
    if isinstance(K, SecondOrderCone):
        y = rng.standard_normal((n, K.dim - 1))
        y /= np.maximum(np.linalg.norm(y, axis=1, keepdims=True), 1e-300)
        r = rng.random(n)
        t = rng.gamma(2.0, 1.0, size=n)
        return np.column_stack([y * (r * t)[:, None], t])
    if isinstance(K, PsdCone):
        # zeroing a row's factor columns at or past its rank r gives rank r
        ranks = rng.integers(1, K.n + 1, size=n)
        a = rng.standard_normal((n, K.n, K.n))
        a = np.where(np.arange(K.n) < ranks[:, None, None], a, 0.0)
        return _embed(a @ a.transpose(0, 2, 1))
    if isinstance(K, PolyhedralCone) and K.generators is not None:
        w = rng.gamma(1.0, 1.0, size=(n, K.generators.shape[0]))
        return w @ K.generators
    if isinstance(K, (PolyhedralCone, IntersectionCone)):
        from .projection_engine import project

        g = rng.standard_normal((n, K.dim)) * 2.0
        return np.vstack([project(K, gi).point for gi in g])
    if isinstance(K, ProductCone):
        return np.hstack([sample_points(K.left, n, rng), sample_points(K.right, n, rng)])
    if isinstance(K, LinearImageCone):
        return sample_points(K.inner, n, rng) @ K.matrix.T
    if isinstance(K, ConicHull):
        pts = K.slice_spec.sampler(K.density)
        idx = rng.integers(0, pts.shape[0], size=n)
        t = rng.gamma(2.0, 1.0, size=n)
        base = pts[idx] * t[:, None]
        # mix in pairwise combinations for interior coverage
        jdx = rng.integers(0, pts.shape[0], size=n)
        lam = rng.random(n)[:, None]
        return lam * base + (1 - lam) * (pts[jdx] * t[:, None])
    raise UnsupportedVariantError(f"sampling not implemented for {type(K).__name__}")


def cone_span_dim(K: ConeSpec) -> int:
    """Dimension of span(K) for variants where it is known a priori."""
    if isinstance(K, (NonnegativeOrthant, SecondOrderCone, PsdCone, Halfspace)):
        return K.dim
    if isinstance(K, LinearSubspace):
        return K.subspace_dim
    if isinstance(K, ProductCone):
        return cone_span_dim(K.left) + cone_span_dim(K.right)
    if isinstance(K, PolyhedralCone):
        if K.generators is not None:
            return orthonormalize(K.generators).shape[0]
        return K.dim  # inequality representation with nonempty interior assumed
    if isinstance(K, LinearImageCone):
        return cone_span_dim(K.inner)
    if isinstance(K, ConicHull):
        pts = K.slice_spec.sampler(min(K.density, 512))
        return orthonormalize(pts).shape[0]
    if isinstance(K, GallerySet):
        if "span_dim" in K.extra:
            return K.extra["span_dim"]
    raise UnsupportedVariantError(f"span dimension unknown for {type(K).__name__}")

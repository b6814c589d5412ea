"""Cone specifications and the membership / projection / dual / slice calculus.

A ConeSpec is an immutable description of a closed convex cone (or, for a few
named gallery objects, a compact convex set). Constructors validate shapes.
Each variant's class holds all of its rules (see ConeSpec); the public
functions, and projection_engine.project, make one method call. So a new
variant is one subclass. The kernels the rules call live in projection_engine.

Vector collections are (m, dim) arrays with vectors as rows. Polyhedral data
follows the same convention: `inequalities` rows a_i describe {x : <a_i, x> >= 0}
and `generators` rows g_j describe cone{g_j}.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg_core import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Tolerance,
    _embed,
    _freeze,
    complement_basis,
    orthonormalize,
    sym_vec_dim,
    vec_norm,
    vec_to_sym,
)
from .projection_engine import (
    NonConvergenceError,
    ProjectionResult,
    _kkt_certified,
    _project_scaled,
    _result,
    _snap_member,
    dykstra_intersection,
    project,
    project_conic_generators,
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


# ---------------------------------------------------------------------------
# Membership answers
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


def _eps(x: np.ndarray, tol: Tolerance) -> float:
    return tol.margin(max(1.0, float(np.linalg.norm(x))))


def _by_least_entry(w: np.ndarray, eps: float) -> MembershipResult:
    """Exact membership in the orthant of the vector w (a point, or a
    matrix's eigenvalues): its distance is the norm of w's negative part."""
    lo = float(np.min(w))
    if lo < -eps:
        return MembershipResult(Membership.OUTSIDE, True, float(np.linalg.norm(np.minimum(w, 0.0))))
    return MembershipResult(Membership.INSIDE if lo > eps else Membership.BOUNDARY, True, 0.0)


def _all_of(results, distance: float | None) -> MembershipResult:
    """Membership in a set given by its parts' results (a product's factors,
    an intersection's parts): outside at distance if a part is, inside if
    every part is, boundary otherwise; exact if every result is."""
    exact = all(r.exact for r in results)
    if any(r.status is Membership.OUTSIDE for r in results):
        return MembershipResult(Membership.OUTSIDE, exact, distance)
    if all(r.status is Membership.INSIDE for r in results):
        return MembershipResult(Membership.INSIDE, exact, 0.0)
    return MembershipResult(Membership.BOUNDARY, exact, 0.0)


def _by_projection(K: ConeSpec, x: np.ndarray, tol: Tolerance, eps: float,
                   exact: bool) -> MembershipResult:
    """Membership by the projection's distance, outside above eps. A member
    is told inside from boundary by probing a handful of fixed directions,
    which is non-exact by nature."""
    d = project(K, x).distance
    if d > eps:
        return MembershipResult(Membership.OUTSIDE, exact, d)
    scale = max(1.0, float(np.linalg.norm(x)))
    delta = max(1e-6 * scale, 100 * tol.margin(scale))
    rng = np.random.default_rng(7)
    dirs = rng.standard_normal((8, K.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for v in dirs:
        if project(K, x + delta * v).distance > tol.margin(scale) + 1e-12:
            return MembershipResult(Membership.BOUNDARY, exact, 0.0)
    return MembershipResult(Membership.INSIDE, exact, 0.0)


def _projected_gaussians(K: ConeSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points of K: projections of N(0, 4 I) draws."""
    g = rng.standard_normal((n, K.dim)) * 2.0
    return np.vstack([project(K, gi).point for gi in g])


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """Base class for immutable cone descriptions. A variant overrides the
    rules it has: `_project(x, tol)` and `_membership(x, tol)` get a point of
    the right shape (projection_engine.project checks it is finite, too),
    `dual()`, `sample(n, rng)` and `span_dim()`; the ones here raise.
    `slice` is a conic hull's SliceSpec; `scales` says that the projection
    commutes with scaling by a power of two, so project takes a point whose
    x.x overflows at x / 2^e."""

    slice = None
    scales = False

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(self.dim, int(np.prod(x.shape)))
        return x

    def _project(self, x: np.ndarray, tol: Tolerance) -> ProjectionResult:
        raise UnsupportedVariantError(f"projection not implemented for {type(self).__name__}")

    def _membership(self, x: np.ndarray, tol: Tolerance) -> MembershipResult:
        raise UnsupportedVariantError(f"membership not implemented for {type(self).__name__}")

    def dual(self) -> ConeSpec:
        raise DualUnavailableError(f"no closed-form dual for {type(self).__name__}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise UnsupportedVariantError(f"sampling not implemented for {type(self).__name__}")

    def span_dim(self) -> int:
        raise UnsupportedVariantError(f"span dimension unknown for {type(self).__name__}")


class _SymmetricCone(ConeSpec):
    """The orthant, second-order and PSD atoms: self-dual, full-dimensional,
    and their projections scale."""

    scales = True

    def dual(self):
        return self

    def span_dim(self):
        return self.dim


@dataclass(frozen=True, eq=False)
class NonnegativeOrthant(_SymmetricCone):
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.n

    def _project(self, x, tol):
        return _result(x, np.maximum(x, 0.0), "closed_form")

    def _membership(self, x, tol):
        return _by_least_entry(x, _eps(x, tol))

    def sample(self, n, rng):
        return rng.gamma(1.0, 1.0, size=(n, self.dim))


@dataclass(frozen=True, eq=False)
class Halfspace(ConeSpec):
    """{x : <normal, x> <= offset}; a cone only when offset = 0.

    The normal is normalized to unit length at construction, the offset
    divided by the same norm, without overflow or underflow for a finite
    nonzero normal of any size.
    """

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.normal, dtype=float)
        top = float(np.abs(v).max()) if v.size else 0.0
        if not math.isfinite(top):
            raise ValueError("normal must be finite")
        if top == 0.0:
            raise ValueError("normal must be nonzero")
        # v / 2^e has its largest entry in [0.5, 1), so its square sum can
        # neither overflow nor vanish; ||v|| = nrm 2^e
        e = math.frexp(top)[1]
        u = np.ldexp(v, -e)
        nrm = vec_norm(u)
        off = float(self.offset)
        try:
            # the side of the 2^-e scaling on which the quotient cannot overflow
            off = math.ldexp(off, -e) / nrm if e > 0 else math.ldexp(off / nrm, -e)
        except OverflowError:
            raise ValueError("offset / ||normal|| is past the float range") from None
        object.__setattr__(self, "normal", _freeze(u / nrm))
        object.__setattr__(self, "offset", off)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    @property
    def is_cone(self) -> bool:
        return self.offset == 0.0

    @property
    def scales(self) -> bool:
        return self.is_cone

    def _project(self, x, tol):
        if not (self.is_cone or math.isfinite(np.vdot(x, x))):
            # x.x overflows (a cone scales in project): project x / 2^e onto
            # the halfspace with its offset scaled alike, and scale back
            e = math.frexp(float(np.abs(x).max()))[1]
            return _project_scaled(Halfspace(self.normal, math.ldexp(self.offset, -e)), x, e, tol)
        v = float(self.normal @ x) - self.offset
        return _result(x, x - max(v, 0.0) * self.normal, "closed_form")

    def _membership(self, x, tol):
        v = float(self.normal @ x) - self.offset
        return MembershipResult(_classify(v, _eps(x, tol)), True, max(v, 0.0))

    def dual(self):
        if not self.is_cone:
            raise DualUnavailableError("halfspace with nonzero offset is not a cone")
        return PolyhedralCone(generators=-self.normal[None, :])

    def sample(self, n, rng):
        if not self.is_cone:
            raise UnsupportedVariantError("sampling only for cones")
        g = rng.standard_normal((n, self.dim))
        v = g @ self.normal
        return g - np.outer(np.maximum(v, 0.0), self.normal)

    def span_dim(self):
        return self.dim


@dataclass(frozen=True, eq=False)
class LinearSubspace(ConeSpec):
    """Linear subspace spanned by the given vectors (orthonormalized rows)."""

    basis: np.ndarray
    ambient: int | None = None
    scales = True

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

    def _project(self, x, tol):
        p = (x @ self.basis.T) @ self.basis if self.subspace_dim else np.zeros_like(x)
        p, gap = _snap_member(x, p, 0.0, vec_norm(x))
        return _result(x, p, "closed_form", 0, gap)

    def _membership(self, x, tol):
        if self.subspace_dim == self.dim:
            return MembershipResult(Membership.INSIDE, True, 0.0)
        r = x - (x @ self.basis.T) @ self.basis if self.subspace_dim else x
        d = float(np.linalg.norm(r))
        status = Membership.BOUNDARY if d <= _eps(x, tol) else Membership.OUTSIDE
        return MembershipResult(status, True, d if status is Membership.OUTSIDE else 0.0)

    def dual(self):
        return LinearSubspace(complement_basis(self.basis, self.dim), ambient=self.dim)

    def sample(self, n, rng):
        if self.subspace_dim == 0:
            return np.zeros((n, self.dim))
        return rng.standard_normal((n, self.subspace_dim)) @ self.basis

    def span_dim(self):
        return self.subspace_dim


@dataclass(frozen=True, eq=False)
class PolyhedralCone(ConeSpec):
    """Polyhedral cone with an inequality and/or generator representation."""

    inequalities: np.ndarray | None = None
    generators: np.ndarray | None = None
    scales = True

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

    def _project(self, x, tol):
        if self.generators is not None:
            p, lam, gap = project_conic_generators(self.generators, x)
            return _result(x, p, "hull_qp", int(np.count_nonzero(lam)), gap)
        # inequality representation: Moreau with the dual cone's generators,
        # proj_K(x) = x + proj_{K*}(-x) for K = {x : Ax >= 0}, K* = cone{A^T}.
        q, lam, gap = project_conic_generators(self.inequalities, -x)
        return _result(x, x + q, "hull_qp", int(np.count_nonzero(lam)), gap)

    def _membership(self, x, tol):
        scale = max(1.0, float(np.linalg.norm(x)))
        if self.inequalities is not None:
            vals = self.inequalities @ x
            worst = float(np.min(vals)) if vals.size else 1.0
            row_scale = np.linalg.norm(self.inequalities, axis=1).max(initial=1.0)
            e = tol.margin(scale * row_scale)
            if worst < -e:
                return MembershipResult(Membership.OUTSIDE, True, project(self, x).distance)
            status = Membership.INSIDE if worst > e else Membership.BOUNDARY
            return MembershipResult(status, True, 0.0)
        # generator representation: exact distance by nonnegative least squares
        return _by_projection(self, x, tol, tol.margin(scale), True)

    def dual(self):
        """Swap representations: inequality rows become generator rows and
        vice versa."""
        ineq = self.generators.copy() if self.generators is not None else None
        gens = self.inequalities.copy() if self.inequalities is not None else None
        return PolyhedralCone(inequalities=ineq, generators=gens)

    def sample(self, n, rng):
        if self.generators is not None:
            w = rng.gamma(1.0, 1.0, size=(n, self.generators.shape[0]))
            return w @ self.generators
        return _projected_gaussians(self, n, rng)

    def span_dim(self):
        if self.generators is not None:
            return orthonormalize(self.generators).shape[0]
        # span(K) is the complement of the implicit equalities: the rows a_i
        # with -a_i in K* = cone{rows}, which vanish on all of K
        A = self.inequalities
        implicit = [
            a for a in A
            if vec_norm(project_conic_generators(A, -a)[0] + a) <= DEFAULT_TOL.margin(vec_norm(a))
        ]
        return self.dim - orthonormalize(np.reshape(implicit, (-1, self.dim))).shape[0]


@dataclass(frozen=True, eq=False)
class SecondOrderCone(_SymmetricCone):
    """{(y, t) in R^{n-1} x R : ||y|| <= t}; the bound is the last coordinate."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("second-order cone needs dimension >= 2")

    @property
    def dim(self) -> int:
        return self.n

    def _project(self, x, tol):
        y, t = x[:-1], float(x[-1])
        ny = vec_norm(y)  # project scales a point whose x.x overflows first
        if ny <= t:
            return _result(x, x.copy(), "closed_form")
        if ny <= -t:
            return _result(x, np.zeros_like(x), "closed_form")
        c = ny / 2.0 + t / 2.0  # (ny + t) / 2 bitwise, and finite up to the float max
        p = np.empty_like(x)
        p[:-1] = (c / ny) * y
        p[-1] = c
        return _result(x, p, "closed_form")

    def _membership(self, x, tol):
        eps = _eps(x, tol)
        v = float(np.linalg.norm(x[:-1])) - float(x[-1])
        if v > eps:
            # distance via the closed-form projection residual
            return MembershipResult(Membership.OUTSIDE, True, project(self, x).distance)
        return MembershipResult(_classify(v, eps), True, 0.0)

    def sample(self, n, rng):
        y = rng.standard_normal((n, self.dim - 1))
        y /= np.maximum(np.linalg.norm(y, axis=1, keepdims=True), 1e-300)
        r = rng.random(n)
        t = rng.gamma(2.0, 1.0, size=n)
        return np.column_stack([y * (r * t)[:, None], t])


@dataclass(frozen=True, eq=False)
class PsdCone(_SymmetricCone):
    """PSD cone over symmetric n x n matrices in the sym_to_vec embedding."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix order must be >= 1")

    @property
    def dim(self) -> int:
        return sym_vec_dim(self.n)

    def _project(self, x, tol):
        w, U = np.linalg.eigh(vec_to_sym(x))
        # nothing to clip: rebuilding U diag(w) U^T would only add rounding
        p = x.copy() if w[0] >= 0.0 else _embed((U * np.maximum(w, 0.0)) @ U.T)
        return _result(x, p, "eigen_clip")

    def _membership(self, x, tol):
        return _by_least_entry(np.linalg.eigvalsh(vec_to_sym(x)), _eps(x, tol))

    def sample(self, n, rng):
        """Each row is the Gram matrix a a^T of a k x r Gaussian factor, r
        uniform on 1..k, drawn for all rows at once (ranks, then an (n, k, k)
        Gaussian stack): a seed gives other rows than per-row draws would."""
        # zeroing a row's factor columns at or past its rank r gives rank r
        ranks = rng.integers(1, self.n + 1, size=n)
        a = rng.standard_normal((n, self.n, self.n))
        a = np.where(np.arange(self.n) < ranks[:, None, None], a, 0.0)
        return _embed(a @ a.transpose(0, 2, 1))


# The method label of a product's projection is that of its factor ranked last.
_METHOD_RANK = {"closed_form": 0, "eigen_clip": 1, "hull_qp": 2, "dykstra": 3}


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

    def _project(self, x, tol):
        xl, xr = self.split(x)
        rl = project(self.left, xl, tol)
        rr = project(self.right, xr, tol)
        return ProjectionResult(
            np.concatenate([rl.point, rr.point]),
            float(np.hypot(rl.distance, rr.distance)),
            max(rl.method, rr.method, key=_METHOD_RANK.__getitem__),
            rl.iterations + rr.iterations,
            rl.certificate_gap + rr.certificate_gap,
        )

    def _membership(self, x, tol):
        xl, xr = self.split(x)
        rl = membership(self.left, xl, tol)
        rr = membership(self.right, xr, tol)
        if rl.distance is None or rr.distance is None:
            return _all_of((rl, rr), None)
        return _all_of((rl, rr), float(np.hypot(rl.distance, rr.distance)))

    def dual(self):
        return ProductCone(dual_cone(self.left), dual_cone(self.right))

    def sample(self, n, rng):
        return np.hstack([sample_points(self.left, n, rng), sample_points(self.right, n, rng)])

    def span_dim(self):
        return cone_span_dim(self.left) + cone_span_dim(self.right)


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

    @property
    def scales(self) -> bool:
        return all(part.scales for part in self.parts)

    def _project(self, x, tol):
        return dykstra_intersection(self.parts, x, tol=tol)

    def _membership(self, x, tol):
        # the parts' distances only bound the distance to the intersection
        # from below: it is not reported
        return _all_of([membership(p, x, tol) for p in self.parts], None)

    def sample(self, n, rng):
        return _projected_gaussians(self, n, rng)


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

    @property
    def scales(self) -> bool:
        return self.inner.scales

    def _project(self, x, tol):
        A = self.matrix
        if self.orthonormal_columns:
            # image of the inner cone under an isometry: push down, project, push up
            inner = project(self.inner, A.T @ x, tol)
            p, gap = _snap_member(x, A @ inner.point, inner.certificate_gap, vec_norm(x))
            # distance accounts for the component of x off the column span
            return _result(x, p, inner.method, inner.iterations, gap)
        # general full-column-rank map: accelerated projected gradient on
        # min_z ||A z - x||^2 over z in inner, tagged with the QP family label.
        # The answer is certified by the KKT gap of the gradient g = A^T (A z - x):
        # its distance to the inner cone's dual, which is ||P_inner(-g)|| by
        # Moreau, plus |<g, z>|; the first term is compared in image units.
        L = float(np.linalg.norm(A, 2) ** 2)
        z = np.linalg.lstsq(A, x, rcond=None)[0]
        z = project(self.inner, z, tol).point
        zp = z.copy()
        t_acc = 1.0
        gap = float("inf")
        max_iter = 5000
        for it in range(1, max_iter + 1):
            y = z + ((t_acc - 1) / (t_acc + 2)) * (z - zp)
            g = A.T @ (A @ y - x)
            znew = project(self.inner, y - g / L, tol).point
            zp, z = z, znew
            t_acc += 1.0
            if float(np.linalg.norm(z - zp)) <= 1e-12 * max(1.0, float(np.linalg.norm(z))):
                p = A @ z
                g = A.T @ (p - x)
                dual = float(np.linalg.norm(project(self.inner, -g, tol).point))
                comp = abs(float(g @ z))
                gap = dual + comp
                if _kkt_certified(dual / np.sqrt(L), comp, float(np.linalg.norm(x))):
                    break
        else:
            raise NonConvergenceError("linear-image projection KKT gap above tolerance", max_iter, gap)
        p, gap = _snap_member(x, p, gap, vec_norm(x))
        return _result(x, p, "hull_qp", it, gap)

    def _membership(self, x, tol):
        z = np.linalg.lstsq(self.matrix, x, rcond=None)[0]
        resid = float(np.linalg.norm(self.matrix @ z - x))
        if resid > _eps(x, tol):
            return MembershipResult(Membership.OUTSIDE, True, None)
        inner = membership(self.inner, z, tol)
        if inner.status is Membership.OUTSIDE:
            return MembershipResult(Membership.OUTSIDE, inner.exact, None)
        full_dim = self.matrix.shape[0] == self.matrix.shape[1]
        if inner.status is Membership.INSIDE and full_dim:
            return MembershipResult(Membership.INSIDE, inner.exact, 0.0)
        return MembershipResult(Membership.BOUNDARY, inner.exact, 0.0)

    def sample(self, n, rng):
        return sample_points(self.inner, n, rng) @ self.matrix.T

    def span_dim(self):
        return cone_span_dim(self.inner)


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
    scales = True

    @property
    def dim(self) -> int:
        return self.slice_spec.dim

    @property
    def slice(self) -> SliceSpec:
        return self.slice_spec

    @cached_property
    def points(self) -> np.ndarray:
        """The slice samples the projection runs on, drawn once."""
        return np.asarray(self.slice_spec.sampler(self.density), dtype=float)

    def _project(self, x, tol):
        p, lam, gap = project_conic_generators(self.points, x)
        return _result(x, p, "hull_qp", int(np.count_nonzero(lam)), gap)

    def _membership(self, x, tol):
        eps = _eps(x, tol)
        if float(np.linalg.norm(x)) <= eps:
            return MembershipResult(Membership.BOUNDARY, False, 0.0)
        return _by_projection(self, x, tol, eps, False)

    def sample(self, n, rng):
        pts = self.slice_spec.sampler(self.density)
        idx = rng.integers(0, pts.shape[0], size=n)
        t = rng.gamma(2.0, 1.0, size=n)
        base = pts[idx] * t[:, None]
        # mix in pairwise combinations for interior coverage
        jdx = rng.integers(0, pts.shape[0], size=n)
        lam = rng.random(n)[:, None]
        return lam * base + (1 - lam) * (pts[jdx] * t[:, None])

    def span_dim(self):
        return orthonormalize(self.slice_spec.sampler(min(self.density, 512))).shape[0]


@dataclass(frozen=True, eq=False)
class GallerySet(ConeSpec):
    """Named object from the example gallery.

    Each operation is one of its closures: membership, projection, sampling
    and the dual, with the slice and span dimension read from `extra`. An
    operation whose closure is missing raises UnsupportedVariantError
    (DualUnavailableError for the dual).
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

    @property
    def slice(self) -> SliceSpec | None:
        return self.extra.get("slice")

    def _closure(self, fn: Callable | None, rule: str, error=UnsupportedVariantError) -> Callable:
        """fn, or the error saying that this object has no such rule."""
        if fn is None:
            raise error(f"gallery object {self.name!r} has no {rule}")
        return fn

    def _project(self, x, tol):
        return self._closure(self.project_fn, "projector")(x)

    def _membership(self, x, tol):
        return self._closure(self.member_fn, "membership rule")(x, tol)

    def dual(self):
        return self._closure(self.dual_factory, "dual rule", DualUnavailableError)()

    def sample(self, n, rng):
        return self._closure(self.sample_fn, "sampler")(n, rng)

    def span_dim(self):
        if "span_dim" in self.extra:
            return self.extra["span_dim"]
        return super().span_dim()


# ---------------------------------------------------------------------------
# Public calculus: one method call each
# ---------------------------------------------------------------------------


def membership(K: ConeSpec, x, tol: Tolerance = DEFAULT_TOL) -> MembershipResult:
    """Classify x against K as inside / boundary / outside.

    Exact rules are used for orthant, halfspace, subspace, second-order, PSD,
    polyhedral, and products/intersections of these; conic hulls fall back to
    the sampled projection and are flagged non-exact. The distance of an
    outside point is None where the rule cannot give it: intersections and
    linear images.
    """
    return K._membership(K._check_point(x), tol)


def dual_cone(K: ConeSpec) -> ConeSpec:
    """Dual cone {s : <s, x> >= 0 for all x in K} for variants with a closed form.

    Polyhedral duals swap representations (inequality rows become generator
    rows and vice versa); general intersections, conic hulls, and linear
    images raise DualUnavailableError.
    """
    return K.dual()


def get_slice(K: ConeSpec) -> SliceSpec | None:
    return K.slice


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
    """
    return K.sample(n, rng)


def cone_span_dim(K: ConeSpec) -> int:
    """Dimension of span(K) for variants where it is known a priori."""
    return K.span_dim()

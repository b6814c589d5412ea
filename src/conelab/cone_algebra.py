"""Cone specifications and faces, and the membership / projection / dual / slice calculus.

A ConeSpec is an immutable description of a closed convex cone (or, for a few
named gallery objects, a compact convex set). Constructors validate shapes.
Each variant's class holds all of its rules (see ConeSpec), face rules
included; the public functions, projection_engine.project and the calculus of
facial_structure make one method call. So a new variant is one subclass.
FaceHandle and the face builders live here too: each builder attaches the
face's conjugate rule to the handle it returns. The kernels the rules call
live in projection_engine.

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
    AffineSubspace,
    DimensionMismatchError,
    Tolerance,
    _embed,
    _freeze,
    complement_basis,
    norm_scale,
    orthonormalize,
    row_dots,
    row_norms,
    sorted_unique,
    sym_to_vec,
    sym_vec_dim,
    unit_sphere_grid,
    vec_norm,
    vec_to_sym,
)
from .projection_engine import (
    NonConvergenceError,
    ProjectionResult,
    _kkt_certified,
    _norm,
    _project_scaled,
    _result,
    _snap_member,
    dykstra_intersection,
    dykstra_projectors,
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
    return tol.margin(max(1.0, _norm(x)))


def _unsquared(v) -> np.ndarray:
    """v as floats, each finite row with an entry past 2^500 scaled by 2^-e to
    below 1 (a face of a cone holds x iff it holds 2^-e x); v if v.v is finite."""
    v = np.asarray(v, dtype=float)
    if math.isfinite(np.vdot(v, v)):
        return v
    top = np.abs(v).max(axis=-1)
    big = (top >= 2.0**500) & (top < math.inf)
    return np.ldexp(v, -np.where(big, np.frexp(top)[1], 0)[..., None])


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


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of norm above 1e-12, each divided by its norm."""
    rows = np.asarray(rows, dtype=float)
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > 1e-12
    return rows[keep] / norms[keep, None]


# ---------------------------------------------------------------------------
# Specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """Base class for immutable cone descriptions. A variant overrides the
    rules it has: `_project(x, tol)` and `_membership(x, tol)` get a point of
    the right shape (projection_engine.project checks it is finite, too),
    `dual()`, `sample(n, rng)`, `span_dim()`, `_minimal_face(x, eps, tol)`,
    the face of a member x with x in its relative interior at margin eps, and
    `_dual_rays(n, seed)`, unit generators of (sampled) extreme rays of the
    dual; the ones here raise.
    `slice` is a conic hull's SliceSpec; `scales` says that the projection
    and membership commute with scaling by a power of two, so project and
    membership take a point whose x.x overflows at x / 2^e."""

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

    def _minimal_face(self, x: np.ndarray, eps: float, tol: Tolerance) -> FaceHandle:
        raise UnsupportedVariantError(f"minimal_face not implemented for {type(self).__name__}")

    def _dual_rays(self, n: int, seed: int) -> np.ndarray:
        raise UnsupportedVariantError(f"no extreme-ray sampler for cone variant {type(self).__name__}")


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

    def _minimal_face(self, x, eps, tol):
        return _orthant_face(self, tuple(int(i) for i in np.nonzero(x <= eps)[0]))

    def _dual_rays(self, n, seed):
        return np.eye(self.n)


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

    def _minimal_face(self, x, eps, tol):
        if self.inequalities is not None:
            vals = self.inequalities @ x
            row_scale = np.linalg.norm(self.inequalities, axis=1)
            active = np.nonzero(vals <= eps * np.maximum(row_scale, 1.0))[0]
            return _poly_active_face(self, tuple(int(i) for i in active))
        # generator j is active when x stays in K after a step back along it
        scale = max(1.0, _norm(x))
        active = tuple(
            j for j, g in enumerate(self.generators)
            if membership(self, x - (0.05 * scale / max(float(np.linalg.norm(g)), 1e-12)) * g, tol).status
            is not Membership.OUTSIDE
        )
        return _poly_generator_face(self, active, x)

    def _dual_rays(self, n, seed):
        """The unit inequality rows that generate extreme rays of K* =
        cone{rows}: those whose minimal face in K* is a ray."""
        if self.inequalities is None:
            raise UnsupportedVariantError(
                "extreme rays of the dual of a generator-represented "
                "polyhedral cone require facet enumeration, which is not "
                "supported; supply the inequality representation"
            )
        dual = dual_cone(self)
        # each row is a generator of the dual, so it is a member there
        keep = [
            row for row in _unit_rows(self.inequalities)
            if dual._minimal_face(row, _eps(row, DEFAULT_TOL), DEFAULT_TOL).face_dim == 1
        ]
        if not keep:
            raise UnsupportedVariantError("no inequality row generates an extreme ray of the dual")
        return np.vstack(keep)


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

    def _minimal_face(self, x, eps, tol):
        t = float(x[-1])
        if t <= eps:
            return zero_face(self)
        if t - _norm(x[:-1]) > eps:
            return full_face(self)
        return _soc_ray_face(self, x / _norm(x))

    def _dual_rays(self, n, seed):
        U = unit_sphere_grid(self.n - 1, n, seed=seed)
        return np.column_stack([U, np.ones(len(U))]) / np.sqrt(2.0)


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

    def _minimal_face(self, x, eps, tol):
        w, U = np.linalg.eigh(vec_to_sym(x))
        r = int(np.sum(w > tol.margin(max(1.0, float(w[-1])))))
        return _psd_range_face(self, U[:, self.n - r :]) if r else zero_face(self)

    def _dual_rays(self, n, seed):
        V = unit_sphere_grid(self.n, n, seed=seed)
        rows = sym_to_vec(V[:, :, None] * V[:, None, :])
        return _unit_rows(sorted_unique(np.round(rows, 12)))


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

    def _minimal_face(self, x, eps, tol):
        # a member's factors are members, each at its own margin
        xl, xr = self.split(x)
        return _product_face(
            self,
            self.left._minimal_face(xl, _eps(xl, tol), tol),
            self.right._minimal_face(xr, _eps(xr, tol), tol),
        )

    def _dual_rays(self, n, seed):
        left = self.left._dual_rays(n, seed)
        right = self.right._dual_rays(n, seed + 1)
        return np.vstack([
            np.hstack([left, np.zeros((len(left), right.shape[1]))]),
            np.hstack([np.zeros((len(right), left.shape[1])), right]),
        ])


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

    @cached_property
    def orthonormal_columns(self) -> bool:
        """Whether A^T A = I to 1e-12, computed once: the matrix is frozen."""
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

    def _dual_rays(self, n, seed):
        rays = self._closure(self.extra.get("dual_rays"), "extreme rays of its dual")
        return _unit_rows(rays(n))


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FaceHandle:
    """Immutable handle for a face.

    span_basis rows are an orthonormal basis of the face's linear span (for
    cone faces) or of the affine hull's direction space (for gallery set
    faces, which also set affine_basepoint). descriptor holds variant-specific
    data and the face's own rules: "conjugate_factory" builds the conjugate
    face, "sampler" draws points of the face, and "stacks" names the
    closures, "membership" and "exact_projector", that also map a (..., d)
    stack, each row to exactly what it gets alone (verdicts (...,), points
    (..., d)).

    membership and exact_projector take one point; contains returns one bool.
    A point with a non-finite entry is in no face: contains and
    facial_structure.face_contains answer False for it without calling
    membership, so membership only ever sees finite points.
    """

    parent: ConeSpec
    span_basis: np.ndarray
    membership: Callable[[np.ndarray, Tolerance], bool]
    exact_projector: Callable[[np.ndarray], np.ndarray] | None = None
    descriptor: dict = field(default_factory=dict)
    affine_basepoint: np.ndarray | None = None

    @property
    def ambient_dim(self) -> int:
        return self.span_basis.shape[1] if self.span_basis.size else (
            self.affine_basepoint.shape[0] if self.affine_basepoint is not None else self.parent.dim
        )

    @property
    def face_dim(self) -> int:
        return self.span_basis.shape[0]

    def affine(self) -> AffineSubspace:
        base = self.affine_basepoint
        if base is None:
            base = np.zeros(self.parent.dim)
        basis = self.span_basis
        if basis.size == 0:
            basis = np.zeros((0, base.shape[0]))
        return AffineSubspace(base, basis)

    def contains(self, x, tol: Tolerance = DEFAULT_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(np.isfinite(x)) and self.membership(x, tol))


# the closed-form faces' membership and projector both map stacks
_STACKS = ("membership", "exact_projector")


def _conjugate(F: FaceHandle) -> FaceHandle:
    """The conjugate face of F, by the rule its builder attached."""
    factory = F.descriptor.get("conjugate_factory")
    if factory is None:
        raise UnsupportedVariantError(
            f"conjugate_face not implemented for {F.descriptor.get('kind')!r} of {type(F.parent).__name__}"
        )
    return factory()


def full_face(K: ConeSpec) -> FaceHandle:
    """K as a face of itself; the span of a K that is not full-dimensional
    is that of samples of K."""
    d = K.dim
    full_dim = cone_span_dim(K) == d
    span = np.eye(d) if full_dim else orthonormalize(sample_points(K, 4 * d, np.random.default_rng(11)))

    def conjugate():
        dual = dual_cone(K)
        if full_dim:
            return zero_face(dual)
        # the dual meets the span's complement in all of it, a face whose
        # conjugate is the full face of the dual's dual
        perp = complement_basis(span, d)
        return _cone_span_face(
            dual, perp, {"kind": "dual_span_face", "conjugate_factory": lambda: full_face(dual_cone(dual))}
        )

    return FaceHandle(
        parent=K,
        span_basis=span,
        membership=lambda v, tol=DEFAULT_TOL: membership(K, v, tol).status is not Membership.OUTSIDE,
        exact_projector=lambda v: project(K, v).point,
        descriptor={"kind": "full", "conjugate_factory": conjugate},
    )


def zero_face(K: ConeSpec) -> FaceHandle:
    d = K.dim
    return FaceHandle(
        parent=K,
        span_basis=np.zeros((0, d)),
        membership=lambda v, tol=DEFAULT_TOL: row_norms(v) <= tol.margin(1.0),
        exact_projector=lambda v: np.zeros(np.shape(v)),
        descriptor={"kind": "zero", "stacks": _STACKS, "conjugate_factory": lambda: full_face(dual_cone(K))},
    )


def _orthant_face(K: NonnegativeOrthant, zeros: tuple) -> FaceHandle:
    d = K.dim
    support = [i for i in range(d) if i not in set(zeros)]
    span = np.eye(d)[support] if support else np.zeros((0, d))
    zset = np.array(sorted(zeros), dtype=int)

    def member(v, tol=DEFAULT_TOL):
        e = tol.margin(norm_scale(v))[..., None]
        ok = np.all(v >= -e, axis=-1)
        if zset.size:
            ok = ok & np.all(np.abs(v[..., zset]) <= e, axis=-1)
        return ok

    def proj(v):
        p = np.maximum(v, 0.0)
        if zset.size:
            p[..., zset] = 0.0
        return p

    if len(zeros) == 0:
        return full_face(K)
    return FaceHandle(K, span, member, proj, {
        "kind": "orthant", "zeros": tuple(sorted(zeros)), "stacks": _STACKS,
        # the dual orthant's face pinning the support
        "conjugate_factory": lambda: _orthant_face(dual_cone(K), tuple(support)),
    })


def _soc_ray_face(K: SecondOrderCone, g: np.ndarray) -> FaceHandle:
    g = g / np.linalg.norm(g)

    def member(v, tol=DEFAULT_TOL):
        v = _unsquared(v)
        c = row_dots(v, g)
        e = tol.margin(norm_scale(v))
        return (c >= -e) & (row_norms(v - c[..., None] * g) <= e)

    def proj(v):
        # NaN and -0.0 clip to 0.0
        c = row_dots(v, g)
        return np.where(c > 0.0, c, 0.0)[..., None] * g

    def conjugate():
        # the ray through (y, t) has the conjugate ray through (-y, t)
        h = np.concatenate([-g[:-1], [g[-1]]])
        return _soc_ray_face(dual_cone(K), h / np.linalg.norm(h))

    return FaceHandle(K, g[None, :].copy(), member, proj, {
        "kind": "soc_ray", "generator": g.copy(), "stacks": _STACKS, "conjugate_factory": conjugate,
    })


def _psd_range_face(K: PsdCone, U: np.ndarray) -> FaceHandle:
    """Face {X psd : range(X) inside range(U)} for U with orthonormal columns."""
    # the outer products u_i u_j^T, i <= j, in the embedding's triangle order
    i, j = np.triu_indices(U.shape[1])
    M = U.T[i][:, :, None] * U.T[j][:, None, :]
    span = orthonormalize(sym_to_vec(M + np.swapaxes(M, -1, -2)))

    def proj(v):
        # matmul and eigh treat each matrix of a stack as they treat it alone
        X = vec_to_sym(v)
        M = U.T @ X @ U
        w, Q = np.linalg.eigh(M)
        Mp = (Q * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(Q, -1, -2)
        return sym_to_vec(U @ Mp @ U.T)

    def member(v, tol=DEFAULT_TOL):
        return row_norms(v - proj(v)) <= tol.margin(norm_scale(v))

    def conjugate():
        # the face of the matrices whose range is orthogonal to range(U)
        Uperp = complement_basis(U.T, K.n).T
        dual = dual_cone(K)
        return _psd_range_face(dual, Uperp) if Uperp.shape[1] else zero_face(dual)

    return FaceHandle(K, span, member, proj, {
        "kind": "psd_range", "range_basis": U.copy(), "stacks": _STACKS, "conjugate_factory": conjugate,
    })


def _poly_active_face(K: PolyhedralCone, active: tuple) -> FaceHandle:
    if len(active) == 0:
        return full_face(K)
    span = complement_basis(orthonormalize(K.inequalities[list(active)]), K.dim)
    # the conjugate is the cone of the active rows, as a face of K* = cone{rows}
    return _cone_span_face(K, span, {
        "kind": "poly_active", "conjugate_factory": lambda: _poly_generator_face(dual_cone(K), active),
    })


def _cone_span_face(K: ConeSpec, span: np.ndarray, descriptor: dict) -> FaceHandle:
    """The face of K cut out by the span of the rows of span (for a span that
    meets K in a face): membership in both, and Dykstra over the pair as the
    projector."""
    aff = AffineSubspace(np.zeros(K.dim), span)

    def member(v, tol=DEFAULT_TOL):
        v = _unsquared(v)
        e = tol.margin(max(1.0, float(np.linalg.norm(v))))
        inside = membership(K, v, tol).status is not Membership.OUTSIDE
        return bool(inside and aff.distance(v) <= e)

    def proj(v, _projs=(lambda w: project(K, w).point, aff.project)):
        return dykstra_projectors(list(_projs), v, tol_change=1e-12).point

    return FaceHandle(K, span, member, proj, descriptor)


def _poly_generator_face(K: PolyhedralCone, active: tuple, x: np.ndarray | None = None) -> FaceHandle:
    G = K.generators
    GJ = G[list(active)] if active else np.zeros((0, K.dim))
    spanning = GJ if x is None else np.vstack([GJ, x[None, :]]) if GJ.size else np.atleast_2d(x)
    span = orthonormalize(spanning) if spanning.size else np.zeros((0, K.dim))

    def proj(v):
        if GJ.shape[0] == 0:
            return np.zeros(K.dim)
        return project_conic_generators(GJ, v)[0]

    def member(v, tol=DEFAULT_TOL):
        v = _unsquared(v)
        e = tol.margin(max(1.0, float(np.linalg.norm(v))))
        return bool(np.linalg.norm(v - proj(v)) <= e)

    # the conjugate is the face of the dual {s : G s >= 0} pinning the active rows
    return FaceHandle(K, span, member, proj, {
        "kind": "poly_gens", "generators": GJ.copy(),
        "conjugate_factory": lambda: _poly_active_face(dual_cone(K), active),
    })


def _product_face(K: ProductCone, Fl: FaceHandle, Fr: FaceHandle) -> FaceHandle:
    dl, kl = K.left.dim, len(Fl.span_basis)
    span = np.zeros((kl + len(Fr.span_basis), K.dim))
    span[:kl, :dl] = Fl.span_basis
    span[kl:, dl:] = Fr.span_basis

    def member(v, tol=DEFAULT_TOL):
        return bool(Fl.membership(v[:dl], tol) and Fr.membership(v[dl:], tol))

    proj = None
    if Fl.exact_projector is not None and Fr.exact_projector is not None:
        proj = lambda v: np.concatenate([Fl.exact_projector(v[:dl]), Fr.exact_projector(v[dl:])])

    return FaceHandle(K, span, member, proj, {
        "kind": "product", "left": Fl, "right": Fr,
        "conjugate_factory": lambda: _product_face(dual_cone(K), _conjugate(Fl), _conjugate(Fr)),
    })


# ---------------------------------------------------------------------------
# Public calculus: one method call each
# ---------------------------------------------------------------------------


def membership(K: ConeSpec, x, tol: Tolerance = DEFAULT_TOL) -> MembershipResult:
    """Classify x against K as inside / boundary / outside.

    Exact rules are used for orthant, halfspace, subspace, second-order, PSD,
    polyhedral, and products/intersections of these; conic hulls fall back to
    the sampled projection and are flagged non-exact. The distance of an
    outside point is None where the rule cannot give it: intersections and
    linear images. A finite x whose x.x overflows is classified at x / 2^e
    when K.scales holds.
    """
    x = K._check_point(x)
    # as project does, the verdict at x / 2^e, 2^e just above max |x_i|, when x.x
    # overflows (vdot does not warn); a distance past the float range is inf
    if K.scales and not math.isfinite(np.vdot(x, x)) and np.isfinite(x).all():
        e = math.frexp(float(np.abs(x).max()))[1]
        r = K._membership(np.ldexp(x, -e), tol)
        with np.errstate(over="ignore"):
            d = None if r.distance is None else float(np.ldexp(r.distance, e))
        return MembershipResult(r.status, r.exact, d)
    return K._membership(x, tol)


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

"""Face calculus: minimal faces, conjugate faces, exposedness verdicts, and
membership in the sum dual-cone-plus-face-complement.

A face of a closed convex cone equals the cone intersected with the face's
linear span, so a FaceHandle stores an orthonormal span basis together with a
membership rule and, where available, an exact projector. Faces of the compact
gallery sets reuse the same handle with an affine basepoint.

Only the minimisation route of ``dual_sum_membership`` (faces without a
closed-form rule) needs scipy; it imports ``scipy.optimize.minimize`` on first
use, so that the rest of the face calculus does not pay for scipy's import (a
few tenths of a second and about 40 MB per process). Faces of generated
polyhedral cones reach scipy's ``nnls`` through ``projection_engine``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cone_algebra import (
    ConeSpec,
    GallerySet,
    Membership,
    NonnegativeOrthant,
    PolyhedralCone,
    ProductCone,
    PsdCone,
    SecondOrderCone,
    UnsupportedVariantError,
    cone_span_dim,
    dual_cone,
    membership,
    sample_points,
)
from .linalg_core import (
    DEFAULT_TOL,
    AffineSubspace,
    Tolerance,
    complement_basis,
    norm_scale,
    orthonormalize,
    row_dots,
    row_norms,
    sym_to_vec,
    vec_to_sym,
)
from .projection_engine import dykstra_projectors, project, project_conic_generators

__all__ = [
    "FaceHandle",
    "minimal_face",
    "full_face",
    "zero_face",
    "conjugate_face",
    "is_exposed",
    "ExposednessResult",
    "dual_sum_membership",
    "DualSumResult",
    "face_projection",
    "face_contains",
    "face_samples",
    "NotInConeError",
]


class NotInConeError(ValueError):
    """The point handed to minimal_face lies outside the cone."""


@dataclass(frozen=True, eq=False)
class FaceHandle:
    """Immutable handle for a face.

    span_basis rows are an orthonormal basis of the face's linear span (for
    cone faces) or of the affine hull's direction space (for gallery set
    faces, which also set affine_basepoint). descriptor holds variant-specific
    data and optional closures used by the probes.

    membership and exact_projector take one point. For the closed-form kinds
    ("zero", "orthant", "soc_ray", "psd_range", and the "diagonal" face of
    the projections_dim4 check) the exact projector also maps a (..., d)
    stack to (..., d), each row to exactly the bits it gets alone. For those
    five kinds and the gallery's "seam_ray" and "seam_edge" the
    membership also maps a (..., d) stack to (...,) verdicts, each row to the
    verdict it gets alone; face_contains uses it. contains returns one bool.
    A point with a non-finite entry is in no face: contains and face_contains
    answer False for it without calling membership, so membership only ever
    sees finite points.
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


# Face kinds whose exact projector is closed-form and maps stacks to stacks;
# "diagonal" is the diagonal PSD(2) face of the projections_dim4 check and
# "seam_ray" the gallery's seam-ray faces.
_STACKED_KINDS = frozenset({"zero", "orthant", "soc_ray", "psd_range", "diagonal", "seam_ray"})
# Face kinds whose membership maps a stack to one verdict per row.
_STACKED_MEMBERSHIP = _STACKED_KINDS | {"seam_edge"}


def face_contains(F: FaceHandle, X, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Membership verdicts for an (n, d) stack of points, one bool per row.

    The stacked kinds of FaceHandle ("zero", "orthant", "soc_ray",
    "psd_range", "diagonal", "seam_ray", "seam_edge") decide the whole stack
    in one membership call on its finite rows; every other kind goes row by
    row through F.contains. Either way each verdict equals F.contains of that
    row alone, and a row with a non-finite entry is False.
    """
    X = np.asarray(X, dtype=float)
    if F.descriptor.get("kind") in _STACKED_MEMBERSHIP:
        finite = np.all(np.isfinite(X), axis=-1)
        out = np.zeros(finite.shape, dtype=bool)
        out[finite] = F.membership(X[finite], tol)
        return out
    return np.array([F.contains(x, tol) for x in X], dtype=bool)


def face_projection(F: FaceHandle, x) -> np.ndarray:
    """Project a point, or an (n, d) stack of points row by row, onto the face.

    The exact projector is preferred; without one, Dykstra runs over the
    parent cone and the face's span (they intersect in F). A stack goes to
    the projector in one call for the closed-form kinds of FaceHandle and one
    row at a time otherwise; either way each row of the result is bitwise the
    projection of that row alone.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return _project_point(F, x)
    if F.exact_projector is not None and F.descriptor.get("kind") in _STACKED_KINDS:
        return F.exact_projector(x)
    out = np.empty(x.shape)
    for i, row in enumerate(x):
        out[i] = _project_point(F, row)
    return out


def _project_point(F: FaceHandle, x: np.ndarray) -> np.ndarray:
    if F.exact_projector is not None:
        return F.exact_projector(x)
    aff = F.affine()
    projs = [lambda v: project(F.parent, v).point, aff.project]
    return dykstra_projectors(projs, x, tol_change=1e-12).point


def face_samples(F: FaceHandle, n: int, rng: np.random.Generator) -> np.ndarray:
    """Point cloud on the face, via a descriptor sampler when provided and by
    projecting ambient draws otherwise."""
    sampler = F.descriptor.get("sampler")
    if sampler is not None:
        return sampler(n, rng)
    d = F.ambient_dim
    raw = rng.standard_normal((n, d)) * 2.0
    if F.affine_basepoint is not None:
        raw = raw + F.affine_basepoint
    return face_projection(F, raw)


# ---------------------------------------------------------------------------
# Minimal faces
# ---------------------------------------------------------------------------


def minimal_face(K: ConeSpec, x, tol: Tolerance = DEFAULT_TOL) -> FaceHandle:
    """The unique face of K containing x in its relative interior.

    Supported for orthant, second-order, PSD, polyhedral, and products of
    these. Raises NotInConeError when x falls outside K at the tolerance.
    """
    x = K._check_point(x)
    res = membership(K, x, tol)
    if res.status is Membership.OUTSIDE:
        raise NotInConeError(f"point at distance {res.distance} from the cone")
    scale = max(1.0, float(np.linalg.norm(x)))
    eps = tol.margin(scale)

    if isinstance(K, NonnegativeOrthant):
        zeros = tuple(int(i) for i in np.nonzero(x <= eps)[0])
        return _orthant_face(K, zeros)

    if isinstance(K, SecondOrderCone):
        y, t = x[:-1], float(x[-1])
        ny = float(np.linalg.norm(y))
        if t <= eps:
            return zero_face(K)
        if t - ny > eps:
            return full_face(K)
        return _soc_ray_face(K, x / np.linalg.norm(x))

    if isinstance(K, PsdCone):
        X = vec_to_sym(x)
        w, U = np.linalg.eigh(X)
        cutoff = tol.margin(max(1.0, float(w[-1])))
        r = int(np.sum(w > cutoff))
        if r == 0:
            return zero_face(K)
        return _psd_range_face(K, U[:, K.n - r :])

    if isinstance(K, PolyhedralCone):
        if K.inequalities is not None:
            vals = K.inequalities @ x
            row_scale = np.linalg.norm(K.inequalities, axis=1)
            active = tuple(int(i) for i in np.nonzero(vals <= eps * np.maximum(row_scale, 1.0))[0])
            return _poly_active_face(K, active)
        G = K.generators
        active = []
        for j in range(G.shape[0]):
            gj = G[j]
            mu = 0.05 * max(scale, 1.0) / max(float(np.linalg.norm(gj)), 1e-12)
            if membership(K, x - mu * gj, tol).status is not Membership.OUTSIDE:
                active.append(j)
        return _poly_generator_face(K, tuple(active), x)

    if isinstance(K, ProductCone):
        Fl = minimal_face(K.left, x[: K.left.dim], tol)
        Fr = minimal_face(K.right, x[K.left.dim :], tol)
        return _product_face(K, Fl, Fr)

    raise UnsupportedVariantError(f"minimal_face not implemented for {type(K).__name__}")


def full_face(K: ConeSpec) -> FaceHandle:
    """K as a face of itself."""
    d = K.dim
    span = np.eye(d)
    if cone_span_dim(K) < d:
        from .cone_algebra import LinearSubspace

        if isinstance(K, LinearSubspace):
            span = K.basis
        else:
            rng = np.random.default_rng(11)
            span = orthonormalize(sample_points(K, 4 * d, rng))
    return FaceHandle(
        parent=K,
        span_basis=span,
        membership=lambda v, tol=DEFAULT_TOL: membership(K, v, tol).status is not Membership.OUTSIDE,
        exact_projector=lambda v: project(K, v).point,
        descriptor={"kind": "full"},
    )


def zero_face(K: ConeSpec) -> FaceHandle:
    d = K.dim
    return FaceHandle(
        parent=K,
        span_basis=np.zeros((0, d)),
        membership=lambda v, tol=DEFAULT_TOL: row_norms(v) <= tol.margin(1.0),
        exact_projector=lambda v: np.zeros(np.shape(v)),
        descriptor={"kind": "zero"},
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
    return FaceHandle(K, span, member, proj, {"kind": "orthant", "zeros": tuple(sorted(zeros))})


def _soc_ray_face(K: SecondOrderCone, g: np.ndarray) -> FaceHandle:
    g = g / np.linalg.norm(g)

    def member(v, tol=DEFAULT_TOL):
        c = row_dots(v, g)
        e = tol.margin(norm_scale(v))
        return (c >= -e) & (row_norms(v - c[..., None] * g) <= e)

    def proj(v):
        # NaN and -0.0 clip to 0.0
        c = row_dots(v, g)
        return np.where(c > 0.0, c, 0.0)[..., None] * g

    return FaceHandle(K, g[None, :].copy(), member, proj, {"kind": "soc_ray", "generator": g.copy()})


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

    return FaceHandle(K, span, member, proj, {"kind": "psd_range", "range_basis": U.copy()})


def _poly_active_face(K: PolyhedralCone, active: tuple) -> FaceHandle:
    A = K.inequalities
    if len(active) == 0:
        return full_face(K)
    AJ = A[list(active)]
    span = complement_basis(orthonormalize(AJ), K.dim)
    aff = AffineSubspace(np.zeros(K.dim), span)

    def member(v, tol=DEFAULT_TOL):
        e = tol.margin(max(1.0, float(np.linalg.norm(v))))
        inside = membership(K, v, tol).status is not Membership.OUTSIDE
        return bool(inside and aff.distance(v) <= e)

    def proj(v, _projs=(lambda w: project(K, w).point, aff.project)):
        return dykstra_projectors(list(_projs), v, tol_change=1e-12).point

    return FaceHandle(K, span, member, proj, {"kind": "poly_active", "active": tuple(active)})


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
        e = tol.margin(max(1.0, float(np.linalg.norm(v))))
        return bool(np.linalg.norm(v - proj(v)) <= e)

    return FaceHandle(
        K, span, member, proj, {"kind": "poly_gens", "active": tuple(active), "generators": GJ.copy()}
    )


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

    return FaceHandle(K, span, member, proj, {"kind": "product", "left": Fl, "right": Fr})


# ---------------------------------------------------------------------------
# Conjugate faces
# ---------------------------------------------------------------------------


def conjugate_face(K: ConeSpec, F: FaceHandle, tol: Tolerance = DEFAULT_TOL) -> FaceHandle:
    """The conjugate face: the dual cone intersected with the face's
    orthogonal complement. Exact for the supported variants; gallery faces
    supply their own factory."""
    factory = F.descriptor.get("conjugate_factory")
    if factory is not None:
        return factory()

    kind = F.descriptor.get("kind")
    dual = dual_cone(K)

    if kind == "full":
        return zero_face(dual) if cone_span_dim(K) == K.dim else _dual_of_span_face(K, F, dual)
    if kind == "zero":
        return full_face(dual)

    if isinstance(K, NonnegativeOrthant) and kind == "orthant":
        zeros = set(F.descriptor["zeros"])
        support = tuple(i for i in range(K.dim) if i not in zeros)
        return _orthant_face(dual, support)

    if isinstance(K, SecondOrderCone) and kind == "soc_ray":
        g = F.descriptor["generator"]
        h = np.concatenate([-g[:-1], [g[-1]]])
        return _soc_ray_face(dual, h / np.linalg.norm(h))

    if isinstance(K, PsdCone) and kind == "psd_range":
        U = F.descriptor["range_basis"]
        # orthonormal complement of the range
        Uperp = complement_basis(U.T, K.n).T
        if Uperp.shape[1] == 0:
            return zero_face(dual)
        return _psd_range_face(dual, Uperp)

    if isinstance(K, PolyhedralCone) and kind == "poly_active":
        A = K.inequalities
        active = F.descriptor["active"]
        # conjugate of the minimal face with active set J is the cone of the
        # active inequality rows, as a face of the dual cone(A rows)
        rows = A[list(active)] if active else np.zeros((0, K.dim))
        return _poly_gen_face_of(dual, rows)

    if isinstance(K, PolyhedralCone) and kind == "poly_gens":
        G = K.generators
        active = F.descriptor["active"]
        # dual cone is {s : G s >= 0}; the conjugate face pins the active rows
        return _poly_active_face(dual, tuple(active))

    if isinstance(K, ProductCone) and kind == "product":
        Fl = conjugate_face(K.left, F.descriptor["left"], tol)
        Fr = conjugate_face(K.right, F.descriptor["right"], tol)
        return _product_face(dual, Fl, Fr)

    raise UnsupportedVariantError(f"conjugate_face not implemented for {kind!r} of {type(K).__name__}")


def _poly_gen_face_of(dual: PolyhedralCone, rows: np.ndarray) -> FaceHandle:
    """Face cone{rows} of a generator-represented dual cone."""
    span = orthonormalize(rows) if rows.size else np.zeros((0, dual.dim))

    def proj(v):
        if rows.shape[0] == 0:
            return np.zeros(dual.dim)
        return project_conic_generators(rows, v)[0]

    def member(v, tol=DEFAULT_TOL):
        e = tol.margin(max(1.0, float(np.linalg.norm(v))))
        return bool(np.linalg.norm(v - proj(v)) <= e)

    return FaceHandle(dual, span, member, proj, {"kind": "poly_gens", "active": None, "generators": rows.copy()})


def _dual_of_span_face(K: ConeSpec, F: FaceHandle, dual: ConeSpec) -> FaceHandle:
    """Conjugate of the improper face for cones that do not span the space."""
    perp = complement_basis(F.span_basis, F.ambient_dim)
    aff = AffineSubspace(np.zeros(F.ambient_dim), perp)

    def member(v, tol=DEFAULT_TOL):
        e = tol.margin(max(1.0, float(np.linalg.norm(v))))
        ok = membership(dual, v, tol).status is not Membership.OUTSIDE
        return bool(ok and aff.distance(v) <= e)

    def proj(v):
        projs = [lambda w: project(dual, w).point, aff.project]
        return dykstra_projectors(projs, v, tol_change=1e-12).point

    return FaceHandle(dual, perp, member, proj, {"kind": "dual_span_face"})


# ---------------------------------------------------------------------------
# Exposedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExposednessResult:
    status: str  # exposed | not_exposed | undecided
    witness: np.ndarray | None = None
    support_value: float = 0.0
    margin: float = 0.0
    certificate: FaceHandle | None = None


def _far_filter(samples: np.ndarray, F: FaceHandle, rel: float = 0.05) -> np.ndarray:
    """Unit-normalize samples and keep those at distance >= rel from the face."""
    ns = row_norms(samples)
    keep = ns >= 1e-12
    U = samples[keep] / ns[keep, None]
    return U[row_norms(U - face_projection(F, U)) >= rel]


def separation_margin_probe(samples: np.ndarray, v: np.ndarray, exclude_radius: float = 1e-6,
                            iters: int = 400):
    """Maximize  <p, v> - max_y <p, y>  over the unit ball of p by projected
    supergradient ascent; y runs over the sample cloud minus a small ball at v.
    A positive optimum certifies that v is an exposed point of the hull; a
    numerically zero optimum reports the tie set of the best p found."""
    keep = np.linalg.norm(samples - v, axis=1) > exclude_radius
    Y = samples[keep]
    p = v - Y.mean(axis=0)
    nrm = np.linalg.norm(p)
    p = p / nrm if nrm > 1e-12 else np.ones(v.shape[0]) / np.sqrt(v.shape[0])
    best_m, best_p = -np.inf, p.copy()
    for k in range(1, iters + 1):
        scores = Y @ p
        j = int(np.argmax(scores))
        m = float(p @ v - scores[j])
        if m > best_m:
            best_m, best_p = m, p.copy()
        g = v - Y[j]
        p = p + (0.5 / np.sqrt(k)) * g
        nrm = float(np.linalg.norm(p))
        if nrm > 1.0:
            p /= nrm
    scores = Y @ best_p
    c = float(max(scores.max(), best_p @ v))
    ties = np.nonzero(scores >= c - 1e-7 * max(1.0, abs(c)))[0]
    return best_m, best_p, Y[ties]


def is_exposed(
    K: ConeSpec,
    F: FaceHandle,
    tol: Tolerance = DEFAULT_TOL,
    n_samples: int = 2048,
    seed: int = 0,
) -> ExposednessResult:
    """Decide whether F is an exposed face of K.

    Exposedness is certified by a supporting functional vanishing on F and
    strictly positive on the sampled remainder of K; non-exposedness by a
    strictly larger double-conjugate face (cones) or a vanishing best
    separation margin (gallery sets). Anything else is reported undecided.
    """
    rng = np.random.default_rng(seed)

    if isinstance(K, GallerySet) and not K.is_cone:
        return _is_exposed_set(K, F, tol, n_samples, rng)

    # improper face: exposed by the zero functional
    if F.descriptor.get("kind") == "full" or F.face_dim == cone_span_dim(K):
        return ExposednessResult("exposed", np.zeros(K.dim), 0.0, 0.0, None)

    try:
        conj = conjugate_face(K, F, tol)
    except UnsupportedVariantError:
        conj = None

    witness = F.descriptor.get("witness")
    if witness is None and conj is not None:
        cloud = face_samples(conj, 64, rng)
        w = cloud.sum(axis=0)
        if np.linalg.norm(w) > 1e-9:
            witness = w / np.linalg.norm(w)
    if witness is not None:
        witness = np.asarray(witness, dtype=float)
        cone_cloud = sample_points(K, n_samples, rng)
        far = _far_filter(cone_cloud, F)
        fsamp = face_samples(F, 64, rng)
        on_face = float(np.max(np.abs(fsamp @ witness))) if fsamp.size else 0.0
        if far.size and on_face <= 1e-7 * max(1.0, float(np.abs(fsamp).max(initial=1.0))):
            margin = float(np.min(far @ witness))
            if margin > 1e-7:
                return ExposednessResult("exposed", witness, 0.0, margin, None)

    if conj is not None:
        try:
            double = conjugate_face(dual_cone(K), conj, tol)
        except UnsupportedVariantError:
            double = None
        if double is not None:
            if double.face_dim > F.face_dim:
                return ExposednessResult("not_exposed", None, 0.0, 0.0, double)
            if double.face_dim == F.face_dim:
                # spans must agree for F to equal its double conjugate
                gap = float(
                    np.linalg.norm(
                        F.span_basis - (F.span_basis @ double.span_basis.T) @ double.span_basis
                    )
                ) if F.face_dim else 0.0
                if gap <= 1e-8:
                    return ExposednessResult("exposed", witness, 0.0, 0.0, double)
                return ExposednessResult("not_exposed", None, 0.0, 0.0, double)

    return ExposednessResult("undecided", witness, 0.0, 0.0, None)


def _is_exposed_set(K: GallerySet, F: FaceHandle, tol: Tolerance, n_samples: int, rng) -> ExposednessResult:
    cloud_fn = K.extra.get("dense_samples")
    samples = cloud_fn() if cloud_fn is not None else sample_points(K, n_samples, rng)

    witness = F.descriptor.get("witness")
    if witness is not None:
        w = np.asarray(witness, dtype=float)
        # exact support values beat the sampled cloud maximum, which can
        # undershoot between grid points
        sv = F.descriptor.get("support_value")
        c = float(sv) if sv is not None else float(np.max(samples @ w))
        fsamp = face_samples(F, 64, rng)
        on_face = float(np.max(np.abs(fsamp @ w - c)))
        if on_face <= 1e-7 * max(1.0, abs(c)):
            # margin over samples away from the face
            dists = row_norms(samples - face_projection(F, samples))
            far = samples[dists >= 0.05]
            if far.size:
                margin = float(np.min(c - far @ w))
                if margin > 1e-7:
                    return ExposednessResult("exposed", w, c, margin, None)
        return ExposednessResult("undecided", w, c, 0.0, None)

    if F.face_dim == 0 and F.affine_basepoint is not None:
        v = F.affine_basepoint
        m, p, ties = separation_margin_probe(samples, v, exclude_radius=1e-4)
        if m > 1e-7:
            c = float(max(samples @ p))
            return ExposednessResult("exposed", p, c, m, None)
        # the optimal supporting functional ties with far samples: the point
        # sits inside a larger exposed face spanned by the tie set
        far_ties = ties[np.linalg.norm(ties - v, axis=1) > 0.05] if ties.size else ties
        if far_ties.size:
            cert = _hull_face_handle(K, v, np.vstack([far_ties, v]))
            return ExposednessResult("not_exposed", p, 0.0, m, cert)
        return ExposednessResult("undecided", p, 0.0, m, None)

    return ExposednessResult("undecided", None, 0.0, 0.0, None)


def _hull_face_handle(K: GallerySet, basepoint: np.ndarray, pts: np.ndarray) -> FaceHandle:
    from .projection_engine import project_hull

    dirs = orthonormalize(pts - basepoint)

    def member(v, tol=DEFAULT_TOL):
        e = tol.margin(max(1.0, float(np.linalg.norm(v))))
        return bool(project_hull(pts, v).distance <= max(e, 1e-7))

    def proj(v):
        return project_hull(pts, v).point

    return FaceHandle(K, dirs, member, proj, {"kind": "hull_face"}, affine_basepoint=basepoint.copy())


# ---------------------------------------------------------------------------
# Dual sum membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualSumResult:
    in_sum: bool
    dual_part: np.ndarray | None
    perp_part: np.ndarray | None
    residual: float
    route: str  # closed_form | minimization | support_gap


def dual_sum_membership(K: ConeSpec, F: FaceHandle, s, tol: Tolerance = DEFAULT_TOL) -> DualSumResult:
    """Decide s in dual(K) + orthogonal_complement(span F) and return a
    decomposition when one exists.

    Gallery faces with a closed-form rule use it directly. Otherwise a quick
    necessary check against dual(F) runs first (the sum is always contained in
    it), then the distance from s to the sum is minimized over the complement
    coordinates; success below 1e-9 yields the decomposition.
    """
    s = np.asarray(s, dtype=float)
    closed = F.descriptor.get("dual_sum")
    if closed is not None:
        return closed(s)

    scale = max(1.0, float(np.linalg.norm(s)))

    # necessary condition: the sum is contained in dual(F), and the distance
    # from s to dual(F) is ||P_F(-s)|| by the polar decomposition
    d_fdual = float(np.linalg.norm(face_projection(F, -s)))
    if d_fdual > 1e-7 * scale:
        return DualSumResult(False, None, None, d_fdual, "support_gap")

    dual = dual_cone(K)
    perp = complement_basis(F.span_basis, s.shape[0])
    if perp.shape[0] == 0:
        r = project(dual, s)
        ok = r.distance <= 1e-9 * scale
        return DualSumResult(ok, r.point if ok else None, np.zeros_like(s) if ok else None, r.distance, "minimization")

    def phi_and_grad(c):
        w = s - c @ perp
        pw = project(dual, w).point
        r = w - pw
        return float(r @ r), -2.0 * (perp @ r)

    from scipy.optimize import minimize

    c0 = perp @ s
    out = minimize(phi_and_grad, c0, jac=True, method="L-BFGS-B",
                   options={"maxiter": 500, "ftol": 1e-18, "gtol": 1e-12})
    w = s - out.x @ perp
    u = project(dual, w).point
    v = s - u
    # how far v is from the complement measures the defect of the split
    span_leak = float(np.linalg.norm(F.span_basis @ v)) if F.face_dim else 0.0
    residual = max(float(np.linalg.norm(w - u)), span_leak)
    ok = residual <= 1e-9 * scale
    return DualSumResult(ok, u if ok else None, v if ok else None, residual, "minimization")

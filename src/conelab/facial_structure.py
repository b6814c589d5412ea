"""Face calculus: minimal faces, conjugate faces, exposedness verdicts, and
membership in the sum dual-cone-plus-face-complement.

A face of a closed convex cone equals the cone intersected with the face's
linear span, so a FaceHandle stores an orthonormal span basis together with a
membership rule and, where available, an exact projector. Faces of the compact
gallery sets reuse the same handle with an affine basepoint.

A variant's face rules live with it in cone_algebra: its _minimal_face, and
the conjugate rule each face builder there attaches to its handle (FaceHandle
and the builders are re-exported here). This module holds the calculus that
works on any handle.

Only the minimisation route of ``dual_sum_membership`` (faces without a
closed-form rule) needs scipy; it imports ``scipy.optimize.minimize`` on first
use, so that the rest of the face calculus, the faces of generated polyhedral
cones among it, does not pay for scipy's import (a few tenths of a second and
about 45 MB per process).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone_algebra import (
    ConeSpec,
    FaceHandle,
    Membership,
    UnsupportedVariantError,
    _conjugate,
    _eps,
    cone_span_dim,
    dual_cone,
    full_face,
    membership,
    sample_points,
    zero_face,
)
from .linalg_core import (
    DEFAULT_TOL,
    Tolerance,
    complement_basis,
    orthonormalize,
    row_norms,
)
from .projection_engine import dykstra_projectors, project

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


def face_contains(F: FaceHandle, X) -> np.ndarray:
    """Membership verdicts for an (n, d) stack of points, one bool per row.

    A face whose descriptor lists "membership" under "stacks" decides the
    whole stack in one membership call on its finite rows; every other face
    goes row by row through F.contains. Either way each verdict equals
    F.contains of that row alone, and a row with a non-finite entry is False.
    """
    X = np.asarray(X, dtype=float)
    if "membership" in F.descriptor.get("stacks", ()):
        finite = np.all(np.isfinite(X), axis=-1)
        out = np.zeros(finite.shape, dtype=bool)
        out[finite] = F.membership(X[finite], DEFAULT_TOL)
        return out
    return np.array([F.contains(x) for x in X], dtype=bool)


def face_projection(F: FaceHandle, x) -> np.ndarray:
    """Project a point, or an (n, d) stack of points row by row, onto the face.

    The exact projector is preferred; without one, Dykstra runs over the
    parent cone and the face's span (they intersect in F). A stack goes to
    the projector in one call when the descriptor lists "exact_projector"
    under "stacks", and one row at a time otherwise; either way each row of
    the result is bitwise the projection of that row alone.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return _project_point(F, x)
    if "exact_projector" in F.descriptor.get("stacks", ()):
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


def minimal_face(K: ConeSpec, x, tol: Tolerance = DEFAULT_TOL) -> FaceHandle:
    """The unique face of K containing x in its relative interior, by K's
    rule K._minimal_face.

    Supported for orthant, second-order, PSD, polyhedral, and products of
    these. Raises NotInConeError when x falls outside K at the tolerance.
    """
    x = K._check_point(x)
    res = membership(K, x, tol)
    if res.status is Membership.OUTSIDE:
        raise NotInConeError(f"point at distance {res.distance} from the cone")
    return K._minimal_face(x, _eps(x, tol), tol)


def conjugate_face(K: ConeSpec, F: FaceHandle, tol: Tolerance = DEFAULT_TOL) -> FaceHandle:
    """The conjugate face, the dual cone meeting the face's orthogonal
    complement, by the rule F's builder attached (descriptor["conjugate_factory"]).
    Raises UnsupportedVariantError for a face without one."""
    return _conjugate(F)


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


def _far_filter(samples: np.ndarray, F: FaceHandle) -> np.ndarray:
    """Unit-normalize samples and keep those at distance >= 0.05 from the face."""
    ns = row_norms(samples)
    keep = ns >= 1e-12
    U = samples[keep] / ns[keep, None]
    return U[row_norms(U - face_projection(F, U)) >= 0.05]


def separation_margin_probe(samples: np.ndarray, v: np.ndarray, exclude_radius: float = 1e-6):
    """Maximize  <p, v> - max_y <p, y>  over the unit ball of p by 400 steps of
    projected supergradient ascent; y runs over the sample cloud minus a small ball at v.
    A positive optimum certifies that v is an exposed point of the hull; a
    numerically zero optimum reports the tie set of the best p found."""
    keep = np.linalg.norm(samples - v, axis=1) > exclude_radius
    Y = samples[keep]
    p = v - Y.mean(axis=0)
    nrm = np.linalg.norm(p)
    p = p / nrm if nrm > 1e-12 else np.ones(v.shape[0]) / np.sqrt(v.shape[0])
    best_m, best_p = -np.inf, p.copy()
    for k in range(1, 401):
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

    # a face with an affine basepoint is a face of a compact gallery set
    if F.affine_basepoint is not None:
        return _is_exposed_set(K, F, n_samples, rng)

    # improper face: exposed by the zero functional
    if F.face_dim == cone_span_dim(K):
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


def _is_exposed_set(K: ConeSpec, F: FaceHandle, n_samples: int, rng) -> ExposednessResult:
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


def _hull_face_handle(K: ConeSpec, basepoint: np.ndarray, pts: np.ndarray) -> FaceHandle:
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


def dual_sum_membership(K: ConeSpec, F: FaceHandle, s) -> DualSumResult:
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

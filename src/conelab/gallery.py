"""Closed-form example sets with unusual facial behavior.

Three families live here, each exercising a different corner of the face
calculus:

* A compact body in R^3: the convex hull of two horizontal unit circles (at
  heights +1 and -1) and a connecting arc whose horizontal shadow is a circle
  of radius two. Every face of the body is exposed and the dual sums attached
  to its conic hull are closed, yet the error bound ``dist(x, F) <= kappa *
  dist(x, C)`` for the top disk face admits no finite constant on bounded
  regions touching the seam where the arc meets the top circle. The witness
  curve along which the bound degenerates, the family of exposing normals,
  and a determinant identity ruling out unexpected two-dimensional faces are
  all provided with machine-checkable margins.

* The cylinder hull: the conic hull of the two circles alone. Its dual-sum
  set has a one-line description, an exact projector, and an explicit
  decomposition for every member, which makes it the reference object for
  the dual-sum checks and the rank-two projection construction.

* A matrix slice: 2x2 positive semidefinite matrices with lower-right entry
  at least one, flattened to length-3 coordinate vectors. Its boundary face
  {x22 = 1} has an exact projector obtained from a cubic equation, and a
  one-parameter family of boundary points drives the face error-bound ratio
  to infinity while every bounded region still gets a finite constant.

The registry ``GALLERY`` names the sets that the command line addresses,
each with its named faces: ``nice_not_amenable_C`` (``disk_top``,
``disk_bottom``), ``nice_not_amenable_K`` (``lifted_disk``),
``cylinder_K_tilde`` (``lifted_disk``, ``seam``, ``seam_ray_top``,
``seam_ray_bottom``) and ``sturm_slice`` (``sturm``).

Only the exposing normals need scipy: ``exposing_normal_u`` (and what calls
it, such as ``exposing_normal`` and the circles' singleton faces) imports
``scipy.optimize.minimize_scalar`` on first use, so that the probes, the closed
forms and the projections onto the conic hulls, which run on numpy alone, do
not pay for scipy's import (a few tenths of a second and about 45 MB).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .cone_algebra import (
    ConicHull,
    GallerySet,
    Membership,
    MembershipResult,
    SliceSpec,
    _classify,
    _unsquared,
    membership,
)
from .facial_structure import DualSumResult, FaceHandle
from .linalg_core import (
    DEFAULT_TOL,
    Tolerance,
    norm_scale,
    orthonormalize,
    row_dots,
    row_norms,
    sorted_unique,
)
from .projection_engine import (
    ProjectionResult,
    _norm,
    dykstra_projectors,
    project_conic_generators,
    project_hull,
    project_scaled_soc,
)

__all__ = [
    "DeterminantIdentity",
    "SturmFamilyPoint",
    "VerificationGridError",
    "curve_alpha",
    "curve_beta",
    "curve_gamma",
    "gamma_height",
    "gamma_velocity",
    "curve_cloud",
    "exposing_normal_u",
    "exposing_normal",
    "det_M",
    "witness_w",
    "witness_face_distance_sq",
    "body",
    "conic_hull_of_body",
    "cylinder_hull_objects",
    "CylinderObjects",
    "face_disk_top",
    "face_disk_bottom",
    "face_point_top_circle",
    "face_point_bottom_circle",
    "face_point_arc",
    "lifted_disk_face",
    "seam_face",
    "seam_ray_faces",
    "sturm_slice",
    "sturm_face",
    "sturm_family",
    "dual_ray_samples",
    "dual_tips",
    "GALLERY",
    "GALLERY_NAMES",
    "GalleryEntry",
]


class VerificationGridError(RuntimeError):
    """A separating normal failed its dense verification even after one
    refinement of the maximization grid."""


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def curve_alpha(t):
    """Top circle (cos t, sin t, 1), t in [0, 2*pi]."""
    t = np.asarray(t, dtype=float)
    return np.stack([np.cos(t), np.sin(t), np.ones_like(t)], axis=-1)


def curve_beta(t):
    """Bottom circle (cos t, sin t, -1), t in [0, 2*pi]."""
    t = np.asarray(t, dtype=float)
    return np.stack([np.cos(t), np.sin(t), -np.ones_like(t)], axis=-1)


def gamma_height(t):
    """Height profile (9/8) cos t - (1/8) cos 3t of the connecting arc."""
    t = np.asarray(t, dtype=float)
    return 9.0 / 8.0 * np.cos(t) - 1.0 / 8.0 * np.cos(3.0 * t)


def curve_gamma(t):
    """Connecting arc (2 cos 2t - 1, 2 sin 2t, height(t)), t in [0, pi].

    Its horizontal shadow is the circle of radius 2 centered at (-1, 0); the
    height interpolates from +1 at t = 0 (meeting the top circle at (1,0,1))
    to -1 at t = pi (meeting the bottom circle at (1,0,-1)).
    """
    t = np.asarray(t, dtype=float)
    return np.stack(
        [2.0 * np.cos(2.0 * t) - 1.0, 2.0 * np.sin(2.0 * t), gamma_height(t)], axis=-1
    )


def gamma_velocity(t):
    """Derivative of the connecting arc."""
    t = np.asarray(t, dtype=float)
    dz = -9.0 / 8.0 * np.sin(t) + 3.0 / 8.0 * np.sin(3.0 * t)
    return np.stack([-4.0 * np.sin(2.0 * t), 4.0 * np.cos(2.0 * t), dz], axis=-1)


@lru_cache(maxsize=8)
def _fixed_rows(density: int):
    """The rows of curve_cloud(density) that do not depend on its refinements:
    the two circles' points and tags, and the base arc grid; read-only."""
    sa = np.linspace(0.0, 2.0 * np.pi, density, endpoint=False)
    circles = np.vstack([curve_alpha(sa), curve_beta(sa)])
    tags = np.concatenate([np.full(density, -1.0), np.full(density, -2.0)])
    grid = np.linspace(0.0, np.pi, density)
    for a in (circles, tags, grid):
        a.flags.writeable = False
    return circles, tags, grid


def curve_cloud(density: int, gamma_extra=(), windows=()):
    """Extreme-point sample of the body: both circles plus the arc.

    gamma_extra inserts exact arc parameters; windows is an iterable of
    (center, halfwidth, count) triples adding local arc refinements. Returns
    (points, tags) where tag -1 marks the top circle, -2 the bottom circle,
    and nonnegative tags store the arc parameter. The first 2 * density rows
    are the circles and the arc rows follow in increasing parameter order.

    The circles and the base arc grid are built once per density and cached
    read-only; every call returns fresh arrays, so writing into one changes
    no later call. The arc parameters are merged by linalg_core.sorted_unique,
    not np.unique, whose first call imports numpy.ma into the process.
    """
    circles, circle_tags, grid = _fixed_rows(density)
    parts = [grid]
    if len(gamma_extra):
        parts.append(np.asarray(gamma_extra, dtype=float))
    for center, halfwidth, count in windows:
        lo = max(0.0, center - halfwidth)
        hi = min(np.pi, center + halfwidth)
        parts.append(np.linspace(lo, hi, count))
    sg = sorted_unique(np.concatenate(parts))
    return np.vstack([circles, curve_gamma(sg)]), np.concatenate([circle_tags, sg])


# ---------------------------------------------------------------------------
# Exposing normals for points of the top circle
# ---------------------------------------------------------------------------
#
# The plane through alpha(t) with normal p(t) = (cos t, sin t, u(t)) keeps the
# whole body strictly on one side as soon as
#
#     u(t) > (2 cos(t - 2s) - cos t - 1) / (1 - height(s))   for s in (0, pi),
#
# which comes from pairing p(t) with an arc point gamma(s) (the circles only
# require cos(t - s) < 1 and u > 0). The ratio tends to -infinity as s -> 0+,
# so its supremum is attained in the interior and u(t) is finite for every
# t in (0, 2*pi); it grows like const / t^2 toward the seam.


def _height_gap(s):
    """1 - height(s), as the identity 2 sin^4(s/2) (2 + cos s): the plain
    difference loses its digits as s -> 0 and is 0.0 below s of about 1e-4,
    while near the seam the ratio peaks at s of about 0.19 t."""
    return 2.0 * np.sin(0.5 * s) ** 4 * (2.0 + np.cos(s))


def _normal_ratio(s, t):
    return (2.0 * np.cos(t - 2.0 * s) - np.cos(t) - 1.0) / _height_gap(s)


def _ratio_grid_max(t: float, n_grid: int):
    """Maximum of the arc ratio: grid scan plus local polish around the top
    few maxima (the peak sharpens near the seam, so one cell is not enough)."""
    from scipy.optimize import minimize_scalar

    s = np.linspace(0.0, np.pi, n_grid + 2)[1:-1]
    r = _normal_ratio(s, t)
    order = np.argsort(r)[::-1][:5]
    best_v, best_s = -np.inf, float(s[int(order[0])])
    for j in order:
        # from the first two grid points the polish reaches down to s = 0:
        # near the seam the peak can lie below the first grid point
        lo = s[int(j) - 2] if j >= 2 else 0.0
        hi = s[min(len(s) - 1, int(j) + 2)]
        res = minimize_scalar(
            lambda q: -_normal_ratio(q, t),
            bounds=(float(lo), float(hi)),
            method="bounded",
            options={"xatol": 1e-15},
        )
        if -res.fun > best_v:
            best_v, best_s = float(-res.fun), float(res.x)
    return best_v, best_s


def _min_separation_slack(t: float, u: float, n: int):
    """Minimum over the arc of u * (1 - height(s)) - (2 cos(t - 2s) - cos t - 1).

    The factored form avoids the cancellation that plagues the plain ratio
    comparison when u is large. Positive everywhere means p(t) strictly
    separates alpha(t) from the whole arc.
    """
    from scipy.optimize import minimize_scalar

    s = np.linspace(0.0, np.pi, n + 2)[1:-1]
    slack = u * _height_gap(s) - (2.0 * np.cos(t - 2.0 * s) - np.cos(t) - 1.0)
    j = int(np.argmin(slack))
    res = minimize_scalar(
        lambda q: u * _height_gap(q) - (2.0 * np.cos(t - 2.0 * q) - np.cos(t) - 1.0),
        bounds=(float(s[max(0, j - 2)]), float(s[min(len(s) - 1, j + 2)])),
        method="bounded",
        options={"xatol": 1e-15},
    )
    return min(float(slack[j]), float(res.fun)), float(res.x)


# Arc grid of the ratio maximization, relative-plus-absolute margin on u(t),
# and the denser arc grid that verifies the separation.
_NORMAL_GRID = 4096
_NORMAL_MARGIN = 1e-3
_NORMAL_VERIFY_N = 16384


def exposing_normal_u(t: float) -> float:
    """Third coordinate u(t) of the normal exposing the top-circle point at
    parameter t: the positive part of the arc-ratio supremum, inflated by a
    relative-plus-absolute margin and verified against a denser grid.

    The margin is relative as well as absolute because the supremum grows
    like 1 / t^2 toward the seam while its evaluation there carries roundoff
    proportional to its size; a flat additive pad would drown in that noise.

    Raises VerificationGridError if the separation fails even after one
    refinement of the maximization grid, and for t so close to the seam that
    the verifying grid cannot see the ratio's peak.
    """
    from scipy.optimize import minimize_scalar

    t = float(t)
    if not 0.0 < t < 2.0 * np.pi:
        raise ValueError("parameter must lie strictly between 0 and 2*pi")
    # Near the seam the ratio is positive only for s/t in ((2 - sqrt 2)/4,
    # (2 + sqrt 2)/4), to leading order, and its numerator peaks at s = t/2.
    # A verifying grid whose first point lies past t/2 may see no positive
    # ratio at all and pass the bare margin as u.
    if t <= 2.0 * np.pi / (_NORMAL_VERIFY_N + 1):
        raise VerificationGridError(
            f"t={t} is too close to the seam for the {_NORMAL_VERIFY_N}-point verifying grid"
        )
    margin = _NORMAL_MARGIN
    v, _ = _ratio_grid_max(t, _NORMAL_GRID)
    u = (1.0 + margin) * max(0.0, v) + margin
    slack, s_bad = _min_separation_slack(t, u, _NORMAL_VERIFY_N)
    if slack <= 0.0:
        # refine once: denser global grid plus a window at the violation
        v2, _ = _ratio_grid_max(t, 8 * _NORMAL_GRID)
        res = minimize_scalar(
            lambda q: -_normal_ratio(q, t),
            bounds=(max(1e-12, s_bad - 1e-3), min(np.pi - 1e-12, s_bad + 1e-3)),
            method="bounded",
            options={"xatol": 1e-15},
        )
        u = (1.0 + margin) * max(0.0, v2, float(-res.fun)) + margin
        slack, _ = _min_separation_slack(t, u, _NORMAL_VERIFY_N)
        if slack <= 0.0:
            raise VerificationGridError(
                f"normal at t={t} fails separation by {slack:.3e} after refinement"
            )
    return u


def exposing_normal(t: float) -> np.ndarray:
    """The normal (cos t, sin t, u(t)) exposing the top-circle point at t."""
    u = exposing_normal_u(t)
    return np.array([np.cos(t), np.sin(t), u])


# ---------------------------------------------------------------------------
# Determinant identity for arc triples
# ---------------------------------------------------------------------------
#
# If the body had a two-dimensional face meeting the arc at two parameters
# t < s, the matrix with columns gamma(t) - gamma(s), gamma'(t), gamma'(s)
# would be singular. Its determinant factors in the half-sum/half-difference
# variables with a bracket bounded below by 2, so no such face exists.


@dataclass(frozen=True)
class DeterminantIdentity:
    """Numeric determinant, its closed form, and the bracket factor."""

    numeric: float
    closed_form: float
    bracket: float

    @property
    def agreement(self) -> float:
        return abs(self.numeric - self.closed_form)


def det_M(t: float, s: float) -> DeterminantIdentity:
    """Determinant of [gamma(t) - gamma(s), gamma'(t), gamma'(s)] (columns)
    for 0 < t < s < pi, with its closed form

        -32 cos(y) sin(x) sin(y)^4 * bracket,   x = (s+t)/2,  y = (s-t)/2,
        bracket = 6 + 3 cos 2x + cos 2(x-y) + cos 2y + cos 2(x+y) >= 2.
    """
    if not 0.0 < t < s < np.pi:
        raise ValueError("need 0 < t < s < pi")
    M = np.column_stack([curve_gamma(t) - curve_gamma(s), gamma_velocity(t), gamma_velocity(s)])
    numeric = float(np.linalg.det(M))
    x = (s + t) / 2.0
    y = (s - t) / 2.0
    bracket = (
        6.0
        + 3.0 * np.cos(2.0 * x)
        + np.cos(2.0 * (x - y))
        + np.cos(2.0 * y)
        + np.cos(2.0 * (x + y))
    )
    closed = -32.0 * np.cos(y) * np.sin(x) * np.sin(y) ** 4 * bracket
    return DeterminantIdentity(numeric, float(closed), float(bracket))


# ---------------------------------------------------------------------------
# Witness curve for the error-bound failure
# ---------------------------------------------------------------------------


def witness_w(t: float) -> np.ndarray:
    """Point (2 cos 2t - 1, 2 sin 2t, 1) in the plane of the top disk,
    directly above the arc point at parameter t. For t in (0, pi/2] it stays
    inside the ball of radius 1 around (1, 0, 1) intersected with the plane.
    """
    if not 0.0 < t <= np.pi / 2.0:
        raise ValueError("parameter must lie in (0, pi/2]")
    return np.array([2.0 * np.cos(2.0 * t) - 1.0, 2.0 * np.sin(2.0 * t), 1.0])


def witness_face_distance_sq(t: float) -> float:
    """Squared distance from witness_w(t) to the top disk:
    (sqrt(5 - 4 cos 2t) - 1)^2, which is 16 t^4 + O(t^6) for small t."""
    return float((np.sqrt(5.0 - 4.0 * np.cos(2.0 * t)) - 1.0) ** 2)


# ---------------------------------------------------------------------------
# The body and its conic hull
# ---------------------------------------------------------------------------


def _hint_from_xy(x: np.ndarray) -> float:
    """Arc parameter whose shadow angle points toward (x, y) from the shadow
    circle's center (-1, 0)."""
    ang = float(np.arctan2(x[1], x[0] + 1.0))
    if ang < 0.0:
        ang += 2.0 * np.pi
    return 0.5 * ang


def _carry_weights(rows: np.ndarray, weights: np.ndarray, row_tags: np.ndarray,
                   tags: np.ndarray, density: int) -> np.ndarray:
    """The weights on rows (with tags row_tags) of one refinement round's
    cloud, as a weight vector over the rows of the next round's cloud (with
    tags tags). Circle rows keep their index; an arc row goes to the row with
    its exact tag in the new arc grid, which holds it because the refinement
    adds the round's arc support to its exact parameters. Raises RuntimeError
    if one is missing."""
    n_circ = 2 * density
    arc = rows >= n_circ
    grid = tags[n_circ:]
    pos = np.minimum(np.searchsorted(grid, row_tags[arc]), grid.shape[0] - 1)
    if not np.array_equal(grid[pos], row_tags[arc]):
        raise RuntimeError("an arc row of the previous round is missing from the refined cloud")
    new_rows = rows.copy()
    new_rows[arc] = n_circ + pos
    out = np.zeros(tags.shape[0])
    out[new_rows] = weights
    return out


def _project_body(x: np.ndarray, density: int, rounds: int = 3) -> ProjectionResult:
    """Nearest point of the body: hull projection with the arc parameter
    hinted from the shadow angle, then support-window refinement.

    Each round after the first is warm-started from the previous round's
    support, its rows of weight above 1e-12 carried onto the refined cloud.
    Wolfe's iterates never move away from x, so each round's distance is at
    most the previous round's, up to the rounding of a re-solved support;
    the nearest round's answer is returned, the latest one on ties. When a
    round returns x itself (distance 0.0) the refinement stops, since every
    later cloud holds that round's support and no round can do better."""
    x = np.asarray(x, dtype=float)
    extra = [_hint_from_xy(x)]
    windows = []
    best = None
    for r in range(rounds + 1):
        pts, tags = curve_cloud(density, gamma_extra=extra, windows=windows)
        start = None if r == 0 else _carry_weights(*carried, tags, density)
        res, wts = project_hull(pts, x, return_weights=True, start=start)
        if best is None or res.distance <= best.distance:
            best = res
        if r == rounds or res.distance == 0.0:
            break
        sup = np.nonzero(wts > 1e-12)[0]
        carried = (sup, wts[sup], tags[sup])
        arc_support = tags[sup][tags[sup] >= 0.0]
        halfwidth = (np.pi / density) / (4.0**r)
        windows = [(float(c), 2.0 * halfwidth, 33) for c in arc_support]
        extra = sorted_unique(np.concatenate([extra, arc_support]))
    return best


@lru_cache(maxsize=8)
def body(density: int = 2048) -> GallerySet:
    """The compact body conv(top circle + bottom circle + arc) in R^3.

    Membership and projection run on the sampled hull with arc refinement;
    distances are one-sided upper bounds (the sampled hull is inside the
    true body).
    """
    pts, _ = curve_cloud(density)

    def member_fn(x, tol: Tolerance = DEFAULT_TOL) -> MembershipResult:
        d = _project_body(x, density, rounds=1).distance
        eps = max(tol.margin(max(1.0, float(np.linalg.norm(x)))), 1e-7)
        if d > eps:
            return MembershipResult(Membership.OUTSIDE, False, d)
        status = Membership.BOUNDARY if d > 1e-12 else Membership.INSIDE
        return MembershipResult(status, False, 0.0)

    def project_fn(x) -> ProjectionResult:
        return _project_body(x, density)

    def sample_fn(n, rng):
        idx = rng.integers(0, pts.shape[0], size=(n, 4))
        wts = rng.dirichlet(np.ones(4), size=n)
        return np.einsum("nk,nkd->nd", wts, pts[idx])

    return GallerySet(
        name="nice_not_amenable_C",
        ambient_dim=3,
        is_cone=False,
        member_fn=member_fn,
        project_fn=project_fn,
        sample_fn=sample_fn,
        extra={"dense_samples": lambda: pts},
    )


@lru_cache(maxsize=8)
def _lifted_cloud(density: int):
    """curve_cloud(density) with a 1 appended to each row, and its tags; read-only."""
    pts, tags = curve_cloud(density)
    lifted = np.column_stack([pts, np.ones(pts.shape[0])])
    lifted.flags.writeable = tags.flags.writeable = False
    return lifted, tags


@lru_cache(maxsize=8)
def conic_hull_of_body(density: int = 2048) -> GallerySet:
    """The conic hull of the body, lifted to R^4 by appending a 1.

    Membership is that of the ConicHull of the lifted cloud; projection
    solves over the cloud refined near the query's shadow angle."""
    lifted, _ = _lifted_cloud(density)
    slice_spec = SliceSpec(
        e=np.array([0.0, 0.0, 0.0, 1.0]),
        sampler=lambda n: _lifted_cloud(max(int(n), 8))[0],
    )
    hull = ConicHull(slice_spec, density=density)

    def member_fn(x, tol: Tolerance = DEFAULT_TOL) -> MembershipResult:
        return membership(hull, x, tol)

    def sample_fn(n, rng):
        idx = rng.integers(0, lifted.shape[0], size=(n, 4))
        wts = rng.dirichlet(np.ones(4), size=n) * rng.gamma(2.0, 1.0, size=(n, 1))
        return np.einsum("nk,nkd->nd", wts, lifted[idx])

    def project_fn(x) -> ProjectionResult:
        x = np.asarray(x, dtype=float)
        # refine the arc sampling near the shadow angle of the query before
        # solving the conic program on the generators
        hint = _hint_from_xy(x[:3])
        halfwidth = np.pi / density
        pts, _ = curve_cloud(
            density, gamma_extra=(hint,), windows=[(hint, 8.0 * halfwidth, 65)]
        )
        gens = np.column_stack([pts, np.ones(pts.shape[0])])
        p, lam, gap = project_conic_generators(gens, x)
        return ProjectionResult(p, _norm(x - p), "hull_qp", int(np.count_nonzero(lam)), gap)

    return GallerySet(
        name="nice_not_amenable_K",
        ambient_dim=4,
        is_cone=True,
        member_fn=member_fn,
        project_fn=project_fn,
        sample_fn=sample_fn,
        extra={
            "slice": slice_spec,
            "span_dim": 4,
            "dual_rays": lambda n: dual_ray_samples(n),
        },
    )


# ---------------------------------------------------------------------------
# Faces of the body
# ---------------------------------------------------------------------------


def _disk_face(C: GallerySet, height: float, kind: str) -> FaceHandle:
    """The unit disk {(x, y, height) : x^2 + y^2 <= 1}, exposed by
    (0, 0, height) at support value 1, for height +1 or -1."""

    def proj(x):
        x = np.asarray(x, dtype=float)
        v = x[:2].copy()
        nv = float(np.linalg.norm(v))
        if nv > 1.0:
            v /= nv
        return np.array([v[0], v[1], height])

    def member(x, tol=DEFAULT_TOL):
        x = np.asarray(x, dtype=float)
        return bool(abs(x[2] - height) <= 1e-9 and np.linalg.norm(x[:2]) <= 1.0 + 1e-9)

    def sampler(n, rng):
        r = np.sqrt(rng.uniform(0.0, 1.0, size=n))
        th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return np.column_stack([r * np.cos(th), r * np.sin(th), np.full(n, height)])

    return FaceHandle(
        parent=C,
        span_basis=np.eye(3)[:2],
        membership=member,
        exact_projector=proj,
        descriptor={
            "kind": kind,
            "witness": np.array([0.0, 0.0, height]),
            "support_value": 1.0,
            "sampler": sampler,
        },
        affine_basepoint=np.array([0.0, 0.0, height]),
    )


def face_disk_top(C: GallerySet) -> FaceHandle:
    """The top unit disk {(x, y, 1) : x^2 + y^2 <= 1}, exposed by (0, 0, 1)."""
    return _disk_face(C, 1.0, "disk_top")


def face_disk_bottom(C: GallerySet) -> FaceHandle:
    """The bottom unit disk, exposed by (0, 0, -1)."""
    return _disk_face(C, -1.0, "disk_bottom")


def _singleton_face(C: GallerySet, point: np.ndarray, witness: np.ndarray,
                    support_value: float, kind: str) -> FaceHandle:
    point = np.asarray(point, dtype=float)

    def member(x, tol=DEFAULT_TOL):
        return bool(np.linalg.norm(np.asarray(x, dtype=float) - point) <= 1e-8)

    return FaceHandle(
        parent=C,
        span_basis=np.zeros((0, point.shape[0])),
        membership=member,
        exact_projector=lambda x: point.copy(),
        descriptor={
            "kind": kind,
            "witness": witness,
            "support_value": support_value,
            "sampler": lambda n, rng: np.tile(point, (n, 1)),
        },
        affine_basepoint=point.copy(),
    )


def face_point_top_circle(C: GallerySet, t: float) -> FaceHandle:
    """Singleton face {alpha(t)} of the body.

    For t in (0, 2*pi) the witness is the exposing normal (cos t, sin t,
    u(t)); at the seam t = 0 a plane supporting the circumscribed cylinder
    over the shadow circle does the job.
    """
    t = float(t) % (2.0 * np.pi)
    pt = curve_alpha(t)
    if t == 0.0:
        w = np.array([2.0, 0.0, 1.0]) / 3.0
        return _singleton_face(C, pt, w, 1.0, "vertex_top")
    u = exposing_normal_u(t)
    w = np.array([np.cos(t), np.sin(t), u])
    return _singleton_face(C, pt, w, 1.0 + u, "vertex_top")


def face_point_bottom_circle(C: GallerySet, s: float) -> FaceHandle:
    """Singleton face {beta(s)}: the reflection (x, y, z) -> (x, -y, -z)
    carries it to a top-circle point, and the witness follows along."""
    s = float(s) % (2.0 * np.pi)
    pt = curve_beta(s)
    if s == 0.0:
        w = np.array([2.0, 0.0, -1.0]) / 3.0
        return _singleton_face(C, pt, w, 1.0, "vertex_bottom")
    u = exposing_normal_u(2.0 * np.pi - s)
    w = np.array([np.cos(s), np.sin(s), -u])
    return _singleton_face(C, pt, w, 1.0 + u, "vertex_bottom")


def face_point_arc(C: GallerySet, t0: float) -> FaceHandle:
    """Singleton face {gamma(t0)} for t0 in (0, pi).

    Any line exposing the shadow point on the radius-2 circle lifts to a
    vertical plane exposing the arc point: witness (cos 2t0, sin 2t0, 0)
    with support value 2 - cos 2t0.
    """
    t0 = float(t0)
    if not 0.0 < t0 < np.pi:
        raise ValueError("arc parameter must lie strictly inside (0, pi)")
    pt = curve_gamma(t0)
    w = np.array([np.cos(2.0 * t0), np.sin(2.0 * t0), 0.0])
    return _singleton_face(C, pt, w, 2.0 - np.cos(2.0 * t0), "vertex_arc")


# ---------------------------------------------------------------------------
# Cylinder hull, its dual, and the dual-sum set
# ---------------------------------------------------------------------------


def _gauge_membership(x: np.ndarray, worst: float, tol: Tolerance) -> MembershipResult:
    """Exact verdict from the residual worst of a closed-form description,
    <= 0 exactly on the set: OUTSIDE at distance worst above the tolerance at
    scale max(1, ||x||), INSIDE below minus it, and BOUNDARY at 0.0 between."""
    status = _classify(worst, tol.margin(max(1.0, float(np.linalg.norm(x)))))
    return MembershipResult(status, True, worst if status is Membership.OUTSIDE else 0.0)


def _project_bicone_dual(s: np.ndarray) -> np.ndarray:
    """Exact projection onto {(p, q, r, w) : ||(p, q)|| + |r| <= w}.

    The constraint is the epigraph of the norm N(p, q, r) = ||(p, q)|| + |r|,
    whose dual norm is max(||(p, q)||, |r|). Inside the epigraph: identity.
    Inside the polar: zero. Otherwise the projection is (prox of lam * N,
    w + lam) where lam solves N(prox) = w + lam. The prox shrinks ||(p, q)||
    and |r| by lam each, down to zero, so the defect N(prox) - (w + lam) is
    piecewise linear and decreasing in lam with one kink, at the smaller of
    the two; the root is lam = (||(p, q)|| + |r| - w) / 3 up to the kink and
    (max(||(p, q)||, |r|) - w) / 2 past it.
    """
    s = np.asarray(s, dtype=float)
    v, w = s[:3], float(s[3])
    nv2 = float(np.linalg.norm(v[:2]))
    nr = abs(float(v[2]))
    if nv2 + nr <= w:
        return s.copy()
    if max(nv2, nr) <= -w:
        return np.zeros_like(s)
    lam = (nv2 + nr - w) / 3.0
    if lam > min(nv2, nr):
        lam = (max(nv2, nr) - w) / 2.0
    a = max(nv2 - lam, 0.0)
    b = max(nr - lam, 0.0)
    out = np.zeros(4)
    if nv2 > 0.0:
        out[:2] = (a / nv2) * v[:2]
    out[2] = np.sign(v[2]) * b
    out[3] = w + lam
    return out


def _project_dual_sum_set(s: np.ndarray) -> np.ndarray:
    """Exact projection onto {(x, y, z, w) : sqrt(x^2 + y^2) <= z + w}.

    In the rotated coordinate zeta = (z + w)/sqrt(2) the set is the cone
    ||(x, y)|| <= sqrt(2) * zeta crossed with a free line, so a scaled
    second-order projection finishes the job.
    """
    s = np.asarray(s, dtype=float)
    zeta = (s[2] + s[3]) / np.sqrt(2.0)
    eta = (s[2] - s[3]) / np.sqrt(2.0)
    q = project_scaled_soc(np.array([s[0], s[1], zeta]), np.sqrt(2.0))
    z = (q[2] * np.sqrt(2.0) + eta * np.sqrt(2.0)) / 2.0
    w = (q[2] * np.sqrt(2.0) - eta * np.sqrt(2.0)) / 2.0
    return np.array([q[0], q[1], z, w])


@dataclass(frozen=True)
class CylinderObjects:
    """Cylinder hull bundle: the hull, its dual, the lifted disk face, and
    the dual-sum set with its membership formula."""

    hull: GallerySet
    dual: GallerySet
    face: FaceHandle
    dual_sum_set: GallerySet


@lru_cache(maxsize=1)
def _cylinder_hull() -> GallerySet:
    # The dual is the epigraph of the norm ||(x, y)|| + |z|, projected in
    # closed form by _project_bicone_dual. Moreau's decomposition
    # x = P_K(x) - P_K*(-x) gives the hull's projection P_K(x) = x + P_K*(-x).
    def member_fn(x, tol: Tolerance = DEFAULT_TOL) -> MembershipResult:
        x = np.asarray(x, dtype=float)
        worst = max(float(np.linalg.norm(x[:2])) - x[3], abs(x[2]) - x[3])
        return _gauge_membership(x, worst, tol)

    def project_fn(x) -> ProjectionResult:
        x = np.asarray(x, dtype=float)
        p = x + _project_bicone_dual(-x)
        return ProjectionResult(p, float(np.linalg.norm(x - p)), "closed_form")

    def sample_fn(n, rng):
        th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        rad = np.sqrt(rng.uniform(0.0, 1.0, size=n))
        c = rng.uniform(-1.0, 1.0, size=n)
        t = rng.gamma(2.0, 1.0, size=n)
        return np.column_stack([t * rad * np.cos(th), t * rad * np.sin(th), t * c, t])

    slice_spec = SliceSpec(
        e=np.array([0.0, 0.0, 0.0, 1.0]),
        sampler=lambda n: _cylinder_slice_sample(max(int(n), 8)),
    )

    return GallerySet(
        name="cylinder_K_tilde",
        ambient_dim=4,
        is_cone=True,
        member_fn=member_fn,
        project_fn=project_fn,
        sample_fn=sample_fn,
        dual_factory=_cylinder_dual,
        extra={
            "slice": slice_spec,
            "span_dim": 4,
            "dual_rays": lambda n: _cylinder_dual_rays(n),
        },
    )


def _cylinder_slice_sample(n: int) -> np.ndarray:
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    top = np.column_stack([np.cos(th), np.sin(th), np.ones(n), np.ones(n)])
    bot = np.column_stack([np.cos(th), np.sin(th), -np.ones(n), np.ones(n)])
    return np.vstack([top, bot])


def _cylinder_dual_rays(n: int) -> np.ndarray:
    th = np.linspace(0.0, 2.0 * np.pi, max(n - 2, 4), endpoint=False)
    circle = np.column_stack(
        [np.cos(th), np.sin(th), np.zeros_like(th), np.ones_like(th)]
    ) / np.sqrt(2.0)
    tips = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, -1.0, 1.0]]) / np.sqrt(2.0)
    return np.vstack([circle, tips])


@lru_cache(maxsize=1)
def _cylinder_dual() -> GallerySet:
    def member_fn(x, tol: Tolerance = DEFAULT_TOL) -> MembershipResult:
        x = np.asarray(x, dtype=float)
        return _gauge_membership(x, float(np.linalg.norm(x[:2])) + abs(x[2]) - x[3], tol)

    def project_fn(x) -> ProjectionResult:
        p = _project_bicone_dual(x)
        return ProjectionResult(p, float(np.linalg.norm(np.asarray(x) - p)), "closed_form")

    def sample_fn(n, rng):
        raw = rng.standard_normal((n, 4)) * 2.0
        return np.vstack([_project_bicone_dual(r) for r in raw])

    return GallerySet(
        name="cylinder_K_tilde_dual",
        ambient_dim=4,
        is_cone=True,
        member_fn=member_fn,
        project_fn=project_fn,
        sample_fn=sample_fn,
        dual_factory=_cylinder_hull,
        extra={"span_dim": 4, "dual_rays": lambda n: _cylinder_dual_rays(n)},
    )


@lru_cache(maxsize=1)
def _dual_sum_set() -> GallerySet:
    def member_fn(x, tol: Tolerance = DEFAULT_TOL) -> MembershipResult:
        x = np.asarray(x, dtype=float)
        return _gauge_membership(x, float(np.linalg.norm(x[:2])) - (x[2] + x[3]), tol)

    def project_fn(x) -> ProjectionResult:
        p = _project_dual_sum_set(x)
        return ProjectionResult(p, float(np.linalg.norm(np.asarray(x) - p)), "closed_form")

    def sample_fn(n, rng):
        raw = rng.standard_normal((n, 4)) * 2.0
        return np.vstack([_project_dual_sum_set(r) for r in raw])

    return GallerySet(
        name="cylinder_dual_sum",
        ambient_dim=4,
        is_cone=True,
        member_fn=member_fn,
        project_fn=project_fn,
        sample_fn=sample_fn,
        extra={"span_dim": 4},
    )


_PERP_DIR = np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2.0)


def _lifted_disk_projector(x: np.ndarray) -> np.ndarray:
    """Exact projection onto {(a, b, c, c) : sqrt(a^2 + b^2) <= c}: the
    equal-last-two-coordinates constraint folds into a weighted second-order
    projection."""
    x = np.asarray(x, dtype=float)
    m = (x[2] + x[3]) / 2.0
    q = project_scaled_soc(np.array([x[0], x[1], np.sqrt(2.0) * m]), 1.0 / np.sqrt(2.0))
    c = q[2] / np.sqrt(2.0)
    return np.array([q[0], q[1], c, c])


def _dual_sum_closure_cylinder():
    """Dual-sum rule for the lifted disk face of the cylinder hull: member
    iff sqrt(x^2 + y^2) <= z + w, and the shift mu = (z - w + rho)/2 lands
    the dual part exactly on the dual cone's boundary."""

    def closure(s: np.ndarray) -> DualSumResult:
        s = np.asarray(s, dtype=float)
        x, y, z, w = s
        rho = float(np.hypot(x, y))
        scale = max(1.0, float(np.linalg.norm(s)))
        defect = rho - (z + w)
        if defect > 1e-9 * scale:
            return DualSumResult(False, None, None, defect, "closed_form")
        mu = (z - w + rho) / 2.0
        u = np.array([x, y, z - mu, w + mu])
        v = np.array([0.0, 0.0, mu, -mu])
        residual = max(
            float(np.linalg.norm(s - u - v)),
            max(0.0, float(np.linalg.norm(u[:2])) + abs(u[2]) - u[3]),
        )
        return DualSumResult(True, u, v, residual, "closed_form")

    return closure


_SEAM_GUARD = 0.02  # atom parameters closer to the seam lose float accuracy


def _dual_sum_closure_body_hull():
    """Dual-sum rule for the lifted disk face of the body's conic hull.

    Membership agrees with the cylinder formula. The decomposition splits
    off c * (0, 0, 1, 1) (a dual vector vanishing on the bottom disk) to
    reach the boundary rho = z + w, then writes the boundary part as
    alpha * (-cos t, -sin t, -u(t), 1 + u(t)) + beta * (0, 0, 1, -1) with
    the exposing-normal coefficient u(t). Near the seam (t within 0.02 of 0
    or 2*pi) u(t) is so large that the float decomposition loses the 1e-9
    residual even though it is exact in real arithmetic; those points fall
    back to the cylinder-hull shift, whose dual part is certified against
    the larger cylinder dual only.
    """

    def closure(s: np.ndarray) -> DualSumResult:
        s = np.asarray(s, dtype=float)
        x, y, z, w = s
        rho = float(np.hypot(x, y))
        scale = max(1.0, float(np.linalg.norm(s)))
        defect = rho - (z + w)
        if defect > 1e-9 * scale:
            return DualSumResult(False, None, None, defect, "closed_form")
        c = max(0.0, (z + w - rho) / 2.0)
        if rho <= 1e-12:
            u = c * np.array([0.0, 0.0, 1.0, 1.0])
            v = s - u
            return DualSumResult(True, u, v, 0.0, "closed_form")
        t = float(np.arctan2(-y, -x))
        if t < 0.0:
            t += 2.0 * np.pi
        if min(t, 2.0 * np.pi - t) < _SEAM_GUARD:
            return _dual_sum_closure_cylinder()(s)
        ut = exposing_normal_u(t)
        alpha = rho
        beta = (z - c) + alpha * ut
        atom = np.array([-np.cos(t), -np.sin(t), -ut, 1.0 + ut])
        u = alpha * atom + c * np.array([0.0, 0.0, 1.0, 1.0])
        v = beta * np.array([0.0, 0.0, 1.0, -1.0])
        residual = float(np.linalg.norm(s - u - v))
        return DualSumResult(True, u, v, residual, "closed_form")

    return closure


def lifted_disk_face(K: GallerySet) -> FaceHandle:
    """The lifted top-disk face {(a, b, c, c) : sqrt(a^2 + b^2) <= c} of
    either four-dimensional hull, exposed by (0, 0, -1, 1)/sqrt(2)."""
    span = orthonormalize(
        np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    )

    def member(x, tol=DEFAULT_TOL):
        x = _unsquared(x)
        return bool(
            abs(x[2] - x[3]) <= 1e-9 * max(1.0, np.linalg.norm(x))
            and np.linalg.norm(x[:2]) <= x[3] + 1e-9
        )

    def sampler(n, rng):
        th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        rad = np.sqrt(rng.uniform(0.0, 1.0, size=n))
        h = rng.gamma(2.0, 1.0, size=n)
        return np.column_stack([h * rad * np.cos(th), h * rad * np.sin(th), h, h])

    if K.name == "cylinder_K_tilde":
        dual_sum = _dual_sum_closure_cylinder()
    else:
        dual_sum = _dual_sum_closure_body_hull()

    return FaceHandle(
        parent=K,
        span_basis=span,
        membership=member,
        exact_projector=_lifted_disk_projector,
        descriptor={
            "kind": "lifted_disk",
            "witness": np.array([0.0, 0.0, -1.0, 1.0]) / np.sqrt(2.0),
            "sampler": sampler,
            "dual_sum": dual_sum,
            "conjugate_ray": np.array([0.0, 0.0, -1.0, 1.0]) / np.sqrt(2.0),
        },
    )


def seam_face(K_tilde: GallerySet) -> FaceHandle:
    """Two-dimensional face of the cylinder hull spanned by the lifts of the
    seam points (1, 0, 1) and (1, 0, -1); the vertical edge of the cylinder
    at shadow angle zero, made conic."""
    gen_top = np.array([1.0, 0.0, 1.0, 1.0])
    gen_bottom = np.array([1.0, 0.0, -1.0, 1.0])
    span = orthonormalize(np.vstack([gen_top, gen_bottom]))

    def member(x, tol=DEFAULT_TOL):
        # one point or a (..., 4) stack; coordinates in the generator pair
        x = _unsquared(x)
        a = (x[..., 3] + x[..., 2]) / 2.0
        b = (x[..., 3] - x[..., 2]) / 2.0
        rebuilt = a[..., None] * gen_top + b[..., None] * gen_bottom
        eps = 1e-9 * norm_scale(x)
        return (a >= -eps) & (b >= -eps) & (row_norms(rebuilt - x) <= eps)

    def projector(x):
        x = np.asarray(x, dtype=float)
        G = np.vstack([gen_top, gen_bottom])
        p, _, _ = project_conic_generators(G, x)
        return p

    def sampler(n, rng):
        coef = rng.gamma(2.0, 1.0, size=(n, 2))
        return coef @ np.vstack([gen_top, gen_bottom])

    return FaceHandle(
        parent=K_tilde,
        span_basis=span,
        membership=member,
        exact_projector=projector,
        descriptor={
            "kind": "seam",
            "stacks": ("membership",),
            "generators": np.vstack([gen_top, gen_bottom]),
            "witness": np.array([-1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
            "sampler": sampler,
            "ray_faces": lambda: seam_ray_faces(K_tilde),
        },
    )


def _seam_conjugate_face(parent_dual: GallerySet, generators: np.ndarray) -> FaceHandle:
    generators = np.asarray(generators, dtype=float)

    def member(x, tol=DEFAULT_TOL):
        x = _unsquared(x)
        return bool(np.linalg.norm(x - projector(x)) <= 1e-9 * max(1.0, float(np.linalg.norm(x))))

    def projector(x):
        p, _, _ = project_conic_generators(generators, np.asarray(x, dtype=float))
        return p

    def sampler(n, rng):
        coef = rng.gamma(2.0, 1.0, size=(n, generators.shape[0]))
        return coef @ generators

    return FaceHandle(
        parent=parent_dual,
        span_basis=orthonormalize(generators),
        membership=member,
        exact_projector=projector,
        descriptor={
            "kind": "seam_ray_conjugate",
            "generators": generators,
            "sampler": sampler,
        },
    )


def seam_ray_faces(K_tilde: GallerySet) -> tuple:
    """Extreme-ray faces of the cylinder hull generated by the two seam
    lifts (1, 0, 1, 1) and (1, 0, -1, 1), in that order: the kinds
    "seam_ray_top" and "seam_ray_bottom".

    Each handle carries an exposing functional (zero exactly on its ray,
    strictly positive elsewhere on the hull) and a factory for the
    conjugate face inside the dual set, so exposedness certification and
    dual-pairing constructions work without generic search.
    """
    specs = (
        (
            "seam_ray_top",
            np.array([1.0, 0.0, 1.0, 1.0]),
            np.array([-1.0, 0.0, -1.0, 2.0]) / np.sqrt(6.0),
            np.array([[-1.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 1.0]]),
        ),
        (
            "seam_ray_bottom",
            np.array([1.0, 0.0, -1.0, 1.0]),
            np.array([-1.0, 0.0, 1.0, 2.0]) / np.sqrt(6.0),
            np.array([[-1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]),
        ),
    )
    handles = []
    for kind, gen, witness, conj_gens in specs:
        unit = gen / np.linalg.norm(gen)

        def member(x, tol=DEFAULT_TOL, unit=unit):
            # one point or a (..., 4) stack
            x = _unsquared(x)
            coef = row_dots(x, unit)
            eps = 1e-9 * norm_scale(x)
            return (coef >= -eps) & (row_norms(coef[..., None] * unit - x) <= eps)

        def projector(x, unit=unit):
            # one point or a (..., 4) stack; each row is max(float(unit @ x),
            # 0.0) * unit bitwise, so a -0.0 or NaN coefficient passes through
            coef = row_dots(np.asarray(x, dtype=float), unit)
            return np.where(coef < 0.0, 0.0, coef)[..., None] * unit

        def sampler(n, rng, unit=unit):
            return rng.gamma(2.0, 1.0, size=(n, 1)) * unit

        def conjugate(conj_gens=conj_gens):
            return _seam_conjugate_face(_cylinder_dual(), conj_gens)

        handles.append(
            FaceHandle(
                parent=K_tilde,
                span_basis=unit[None, :],
                membership=member,
                exact_projector=projector,
                descriptor={
                    "kind": kind,
                    "stacks": ("membership", "exact_projector"),
                    "generators": gen[None, :],
                    "witness": witness,
                    "sampler": sampler,
                    "conjugate_factory": conjugate,
                },
            )
        )
    return tuple(handles)


def cylinder_hull_objects() -> CylinderObjects:
    """The cylinder hull {(a, b, c, t) : -t <= c <= t, sqrt(a^2+b^2) <= t},
    its dual {sqrt(x^2+y^2) + |z| <= w}, the lifted disk face, and the
    dual-sum set {sqrt(x^2+y^2) <= z + w}, all with exact membership.

    Cross-identity: a point lies in (dual + face-perp) iff it satisfies the
    sum formula, and every member decomposes explicitly; see the face
    descriptor's dual-sum rule.
    """
    hull = _cylinder_hull()
    return CylinderObjects(
        hull=hull,
        dual=_cylinder_dual(),
        face=lifted_disk_face(hull),
        dual_sum_set=_dual_sum_set(),
    )


# ---------------------------------------------------------------------------
# Dual rays of the body's conic hull
# ---------------------------------------------------------------------------


def dual_tips() -> np.ndarray:
    """Unit generators of the dual rays exposing the two lifted disk faces:
    (0, 0, -1, 1)/sqrt(2) for the top disk and (0, 0, 1, 1)/sqrt(2) for the
    bottom."""
    return np.array([[0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 1.0, 1.0]]) / np.sqrt(2.0)


def dual_ray_samples(n: int) -> np.ndarray:
    """Unit samples of extreme rays of the body hull's dual cone.

    Three families cover them: lifted normals of top-circle points
    (-cos t, -sin t, -u(t), 1 + u(t)); their reflections for the bottom
    circle; and the vertical planes (-cos 2t, -sin 2t, 0, 2 - cos 2t)
    exposing arc points. The first two families converge to the disk tips as
    the parameter approaches the seam, which is exactly the behavior the
    shrinking-neighborhood probes look for. A geometric parameter spacing
    near the seam makes that convergence visible at every scale down to
    t = 0.01.
    """
    per = max(n // 3, 4)
    half = per // 2
    ts_uniform = np.linspace(0.3, 2.0 * np.pi - 0.3, per - half)
    ts_geom = np.concatenate(
        [np.geomspace(1e-2, 0.3, half // 2), 2.0 * np.pi - np.geomspace(1e-2, 0.3, half - half // 2)]
    )
    ts = np.concatenate([ts_uniform, ts_geom])
    rows = []
    for t in ts:
        u = exposing_normal_u(float(t))
        rows.append([-np.cos(t), -np.sin(t), -u, 1.0 + u])
    top = np.asarray(rows)
    # reflection (x, y, z) -> (x, -y, -z) maps top-circle normals to
    # bottom-circle normals
    bottom = top.copy()
    bottom[:, 1] *= -1.0
    bottom[:, 2] *= -1.0
    t0 = np.linspace(0.05, np.pi - 0.05, per)
    arc = np.column_stack(
        [-np.cos(2.0 * t0), -np.sin(2.0 * t0), np.zeros_like(t0), 2.0 - np.cos(2.0 * t0)]
    )
    rays = np.vstack([top, bottom, arc, dual_tips()])
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Matrix slice example
# ---------------------------------------------------------------------------
#
# Coordinates are (x11, sqrt(2) x12, x22) so that the Euclidean norm matches
# the Frobenius norm of the symmetric matrix.


def _svec2(a: float, b: float, c: float) -> np.ndarray:
    return np.array([a, np.sqrt(2.0) * b, c])


def _psd2_project(v: np.ndarray) -> np.ndarray:
    a, sb, c = v
    b = sb / np.sqrt(2.0)
    M = np.array([[a, b], [b, c]])
    w, U = np.linalg.eigh(M)
    P = (U * np.maximum(w, 0.0)) @ U.T
    return _svec2(P[0, 0], P[0, 1], P[1, 1])


def _sturm_face_project(v: np.ndarray) -> np.ndarray:
    """Exact nearest point of {X psd : x22 = 1} from v = (A, sqrt(2) B, Z).

    With x22 pinned to 1, feasibility is x11 >= x12^2, so the problem is
    min (a - A)^2 + 2 (b - B)^2 over a >= b^2. The unconstrained optimum
    works when A >= B^2; otherwise the optimum sits on a = b^2 where b
    solves the cubic b^3 + b (1 - A) - B = 0.
    """
    A = float(v[0])
    B = float(v[1]) / np.sqrt(2.0)
    candidates = []
    if A >= B * B:
        candidates.append((A, B))
    roots = np.roots([1.0, 0.0, 1.0 - A, -B])
    for r in roots:
        if abs(r.imag) < 1e-10:
            b = float(r.real)
            candidates.append((b * b, b))
    best, best_val = None, np.inf
    for a, b in candidates:
        val = (a - A) ** 2 + 2.0 * (b - B) ** 2
        if val < best_val:
            best, best_val = (a, b), val
    a, b = best
    return _svec2(a, b, 1.0)


@lru_cache(maxsize=1)
def sturm_slice() -> GallerySet:
    """2x2 positive semidefinite matrices with x22 >= 1, in Frobenius-matched
    coordinates (x11, sqrt(2) x12, x22)."""

    def member_fn(x, tol: Tolerance = DEFAULT_TOL) -> MembershipResult:
        x = np.asarray(x, dtype=float)
        a, sb, c = x
        b = sb / np.sqrt(2.0)
        eig_min = float(np.linalg.eigvalsh(np.array([[a, b], [b, c]]))[0])
        return _gauge_membership(x, max(-eig_min, 1.0 - c), tol)

    def project_fn(x) -> ProjectionResult:
        def slab(v):
            out = v.copy()
            out[2] = max(out[2], 1.0)
            return out

        return dykstra_projectors([_psd2_project, slab], np.asarray(x, dtype=float))

    def sample_fn(n, rng):
        out = np.empty((n, 3))
        for i in range(n):
            L = rng.standard_normal((2, 2))
            M = L @ L.T
            M[1, 1] += 1.0
            out[i] = _svec2(M[0, 0], M[0, 1], M[1, 1])
        return out

    return GallerySet(
        name="sturm_slice",
        ambient_dim=3,
        is_cone=False,
        member_fn=member_fn,
        project_fn=project_fn,
        sample_fn=sample_fn,
        extra={"span_dim": 3},
    )


def sturm_face(C: GallerySet | None = None) -> FaceHandle:
    """The face {X psd : x22 = 1} of the matrix slice, with its exact cubic
    projector."""
    if C is None:
        C = sturm_slice()

    def member(x, tol=DEFAULT_TOL):
        x = np.asarray(x, dtype=float)
        a, sb, c = x
        b = sb / np.sqrt(2.0)
        return bool(abs(c - 1.0) <= 1e-9 and a >= b * b - 1e-9)

    def sampler(n, rng):
        b = rng.standard_normal(n)
        a = b * b + rng.gamma(1.5, 1.0, size=n)
        return np.column_stack([a, np.sqrt(2.0) * b, np.ones(n)])

    return FaceHandle(
        parent=C,
        span_basis=np.eye(3)[:2],
        membership=member,
        exact_projector=_sturm_face_project,
        descriptor={"kind": "sturm", "sampler": sampler},
        affine_basepoint=np.array([0.0, 0.0, 1.0]),
    )


@dataclass(frozen=True)
class SturmFamilyPoint:
    """Boundary family member x_eps = [[1/(eps^2 + eps^3), 1/eps], [1/eps,
    1 + eps]] with its distances to the slice and to the face's affine hull."""

    eps: float
    x_eps: np.ndarray
    dist_to_C: float
    dist_to_aff_face: float


def sturm_family(eps: float) -> SturmFamilyPoint:
    """The rank-one boundary point of the matrix slice at parameter eps > 0.

    Its determinant vanishes identically, so it lies in the slice and its
    distance to the slice is zero, while its distance to the affine hull of
    the face {x22 = 1} is exactly eps.
    """
    if eps <= 0.0:
        raise ValueError("parameter must be positive")
    a = 1.0 / (eps * eps + eps**3)
    b = 1.0 / eps
    c = 1.0 + eps
    return SturmFamilyPoint(
        eps=float(eps),
        x_eps=_svec2(a, b, c),
        dist_to_C=0.0,
        dist_to_aff_face=float(eps),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class GalleryEntry(NamedTuple):
    """A registered gallery set: its builder, which takes the curve density
    (ignored by the sets without curves), and its named faces, each a builder
    taking the set. A face's name is its descriptor's "kind"."""

    build: Callable[[int], GallerySet]
    faces: dict


GALLERY = {
    "nice_not_amenable_C": GalleryEntry(
        body, {"disk_top": face_disk_top, "disk_bottom": face_disk_bottom}
    ),
    "nice_not_amenable_K": GalleryEntry(conic_hull_of_body, {"lifted_disk": lifted_disk_face}),
    "cylinder_K_tilde": GalleryEntry(
        lambda density: _cylinder_hull(),
        {
            "lifted_disk": lifted_disk_face,
            "seam": seam_face,
            "seam_ray_top": lambda K: seam_ray_faces(K)[0],
            "seam_ray_bottom": lambda K: seam_ray_faces(K)[1],
        },
    ),
    "sturm_slice": GalleryEntry(lambda density: sturm_slice(), {"sturm": sturm_face}),
}
GALLERY_NAMES = tuple(GALLERY)

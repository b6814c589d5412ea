"""Euclidean projections onto cone specifications and convex hulls.

Closed forms are used wherever they exist (orthant clipping, halfspaces,
subspaces, the second-order cone, PSD eigenvalue clipping). Intersections run
Dykstra's alternating scheme. Finite projections run exact active-set
solves: finitely generated cones go through Lawson-Hanson nonnegative least
squares (scipy's `nnls`, grown from a screened working set of generators when
there are many), and hulls of point clouds through Wolfe's minimum-norm-point
method. Both finite kernels either return an answer whose
optimality certificate is within tolerance or raise NonConvergenceError.

Only the generator kernel, `project_conic_generators` (behind the projections
onto generated PolyhedralCone and ConicHull specs), needs scipy. Its `nnls`
imports `scipy.optimize` on first call, not at module import: that import costs
a few tenths of a second and about 40 MB per process, and the closed forms,
Dykstra and the hull kernel run on numpy alone.

A point that is already in the cone comes back unchanged: the orthant,
halfspace and second-order-cone closed forms and the PSD eigenvalue clip return
the input's values when nothing is clipped, and the subspace, orthonormal
linear-image, generator and hull projections return the input when their
answer reproduces it to rounding level, adding that rounding residual to the
certificate.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .cone_algebra import (
    ConeSpec,
    ConicHull,
    GallerySet,
    Halfspace,
    IntersectionCone,
    LinearImageCone,
    LinearSubspace,
    NonnegativeOrthant,
    PolyhedralCone,
    ProductCone,
    PsdCone,
    SecondOrderCone,
    UnsupportedVariantError,
)
from .linalg_core import DEFAULT_TOL, Tolerance, _embed, vec_norm, vec_to_sym

__all__ = [
    "ProjectionResult",
    "MoreauSplit",
    "project",
    "moreau_decompose",
    "dykstra_intersection",
    "dykstra_projectors",
    "project_hull",
    "project_conic_generators",
    "NonConvergenceError",
]


class NonConvergenceError(RuntimeError):
    """An iterative projection failed to reach its stopping rule."""

    def __init__(self, message: str, iterations: int, residual: float):
        self.message = message
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")


@dataclass(frozen=True)
class ProjectionResult:
    """Projection answer: the nearest point found, its distance from the input,
    which method family produced it, the iteration count, and a nonnegative
    optimality certificate (zero for closed forms).

    The input itself is returned for certified members: the point is then a
    copy of the input and the distance is exactly 0.0. The input is finite."""

    point: np.ndarray
    distance: float
    method: str  # closed_form | eigen_clip | dykstra | hull_qp
    iterations: int = 0
    certificate_gap: float = 0.0


_METHOD_RANK = {"closed_form": 0, "eigen_clip": 1, "hull_qp": 2, "dykstra": 3}


def _norm(v: np.ndarray) -> float:
    """vec_norm(v), bitwise, unless v has finite entries and v.v overflows:
    then the norm of v / 2^e, times 2^e, with 2^e just above max |v_i|. A
    power-of-two scale is exact, so only the overflowing square is avoided;
    a norm past the float range is inf."""
    n = vec_norm(v)
    if n == math.inf and np.isfinite(v).all():
        e = math.frexp(float(np.abs(v).max()))[1]
        with np.errstate(over="ignore"):
            n = float(np.ldexp(vec_norm(np.ldexp(v, -e)), e))
    return n


def _result(x: np.ndarray, p: np.ndarray, method: str, iters: int = 0, gap: float = 0.0,
            huge: bool = False) -> ProjectionResult:
    """The result for the answer p at x. When x.x overflows (huge), x - p may
    overflow to +-inf: the distance is then past the float range, inf, unwarned."""
    if huge:
        with np.errstate(over="ignore"):
            return ProjectionResult(p, _norm(x - p), method, iters, gap)
    return ProjectionResult(p, _norm(x - p), method, iters, gap)


# ---------------------------------------------------------------------------
# Atomic closed forms
# ---------------------------------------------------------------------------


def _project_soc(x: np.ndarray) -> np.ndarray:
    y, t = x[:-1], float(x[-1])
    ny = _norm(y)
    if ny <= t:
        return x.copy()
    if ny <= -t:
        return np.zeros_like(x)
    if ny == math.inf:
        # ||y|| is past the float range though y is finite (project rejects a
        # non-finite point): project x / 2^k, 2^k >= sqrt(len(y)), and scale
        # back; a power-of-two scale is exact
        k = y.size.bit_length()
        return np.ldexp(_project_soc(np.ldexp(x, -k)), k)
    c = ny / 2.0 + t / 2.0  # (ny + t) / 2 bitwise, and finite up to the float max
    out = np.empty_like(x)
    out[:-1] = (c / ny) * y
    out[-1] = c
    return out


def _project_psd(x: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(vec_to_sym(x))
    if w[0] >= 0.0:
        # nothing to clip: rebuilding U diag(w) U^T would only add rounding
        return x.copy()
    return _embed((U * np.maximum(w, 0.0)) @ U.T)


def project_scaled_soc(x: np.ndarray, slope: float) -> np.ndarray:
    """Project onto {(v, h) : ||v|| <= slope * h} in closed form."""
    v, h = x[:-1], float(x[-1])
    nv = _norm(v)
    if nv <= slope * h:
        return x.copy()
    if slope * nv <= -h:
        return np.zeros_like(x)
    hstar = (slope * nv + h) / (slope * slope + 1.0)
    if not math.isfinite(slope * hstar) and np.isfinite(x).all():
        # ||v||, slope ||v|| + h or slope h* is past the float range: project
        # x / 2^k, with 2^k >= slope sqrt(len(v)) and a factor 2 to spare,
        # and scale back; a power-of-two scale is exact
        k = v.size.bit_length() + max(0, math.frexp(slope)[1]) + 1
        return np.ldexp(project_scaled_soc(np.ldexp(x, -k), slope), k)
    out = np.empty_like(x)
    out[:-1] = (slope * hstar / nv) * v
    out[-1] = hstar
    return out


# Rounding level at which a projection is taken to reproduce its input: far
# below the kernels' 1e-10 certificate tolerance and the 1e-12 level at which
# the amenability probes treat a distance as zero.
MEMBER_SNAP = 16.0 * np.finfo(float).eps

# Certificate tolerance of the finite kernels: the hull kernel's Frank-Wolfe
# gap must reach GAP_TOL; each term of a conic KKT gap must reach GAP_TOL
# times its own scale (see _kkt_certified).
GAP_TOL = 1e-10
# Iteration cap of the hull kernel's Wolfe loop.
HULL_MAX_ITER = 20000


def _snap_member(x: np.ndarray, p: np.ndarray, gap: float, x_norm: float):
    """(x.copy(), gap + r) when the answer p reproduces x to rounding level,
    r = ||x - p|| <= MEMBER_SNAP * max(1, x_norm), x_norm = ||x||; (p, gap)
    otherwise. The snap widens the gap by r, never hides it; NaN never snaps."""
    r = vec_norm(x - p)
    if r <= MEMBER_SNAP * max(1.0, x_norm):
        return x.copy(), gap + r
    return p, gap


def _kkt_certified(dual: float, comp: float, scale: float) -> bool:
    """Whether the two terms of a conic KKT gap are within tolerance, each on
    its own scale s = max(1, ||x||): the dual-feasibility term is linear in x
    and must reach GAP_TOL * s, the complementarity term <p, x - p> is
    quadratic in x and must reach GAP_TOL * s^2. False for a NaN term."""
    s = max(1.0, scale)
    return dual <= GAP_TOL * s and comp <= GAP_TOL * s * s


# Working-set size of the screened generator solve: a cone with more
# generators is first solved on the SCREEN_SIZE rows that pair best with x.
SCREEN_SIZE = 64


_scipy_nnls = None


def nnls(A: np.ndarray, b: np.ndarray, maxiter: int | None = None):
    """scipy.optimize.nnls, imported on first call and kept in _scipy_nnls
    (see the module docstring)."""
    global _scipy_nnls
    if _scipy_nnls is None:
        from scipy.optimize import nnls as _scipy_nnls
    return _scipy_nnls(A, b, maxiter=maxiter)


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson-Hanson weights of min ||A lam - b|| over lam >= 0, capped at
    scipy's default of 3 iterations per column."""
    max_iter = 3 * A.shape[1]
    try:
        return nnls(A, b, maxiter=max_iter)[0]
    except RuntimeError:
        raise NonConvergenceError("nnls hit its iteration cap", max_iter, float("nan")) from None


def _screened_nnls(G: np.ndarray, x: np.ndarray, x_norm: float):
    """Column generation over the rows of G: (weights over all rows, p, G (x - p)).

    The first working set is the SCREEN_SIZE rows of largest cosine with x.
    Each round solves NNLS on the working set, prices every row by its
    pairing with x - p, and re-solves with the SCREEN_SIZE most violating
    rows outside the set: those that pair above GAP_TOL * max(1, x_norm =
    ||x||), the dual-feasibility tolerance of the certificate, largest
    pairing first. Each round adds a row or stops, so at worst the last
    round solves over all rows."""
    n = G.shape[0]
    norms = np.sqrt(np.einsum("ij,ij->i", G, G))
    cos = np.divide(G @ x, norms, out=np.full(n, -np.inf), where=norms > 0.0)
    work = np.zeros(n, dtype=bool)
    work[np.argpartition(-cos, SCREEN_SIZE - 1)[:SCREEN_SIZE]] = True
    tol = GAP_TOL * max(1.0, x_norm)
    while True:
        W = np.flatnonzero(work)
        lam_w = _nnls(G[W].T, x)
        p = lam_w @ G[W]
        pair = G @ (x - p)
        violators = np.flatnonzero(~work & (pair > tol))
        if violators.size == 0:
            break
        if violators.size > SCREEN_SIZE:
            violators = violators[np.argpartition(-pair[violators], SCREEN_SIZE - 1)[:SCREEN_SIZE]]
        work[violators] = True
    lam = np.zeros(n)
    lam[W] = lam_w
    return lam, p, pair


def project_conic_generators(generators: np.ndarray, x: np.ndarray):
    """Exact projection onto cone{rows of generators}.

    Lawson-Hanson nonnegative least squares, min ||G^T lam - x|| over
    lam >= 0, certified by the KKT gap max(0, max_i <g_i, x - p>) +
    |<lam, G (x - p)>| with p = G^T lam. Returns (point, weights over all
    rows, kkt_gap). With at most SCREEN_SIZE generators this is one solve
    over all of them. With more it is a screened column-generation solve:
    screen the SCREEN_SIZE generators of largest cosine with x, solve on
    them, price every generator by <g_i, x - p> and re-solve with the
    SCREEN_SIZE most violating generators outside the set (largest pairing
    above the dual-feasibility tolerance) added, until none violates. The
    certificate is then taken over all generators, as for one solve.
    Raises NonConvergenceError when a solve hits its cap of 3 iterations
    per generator in its set or a term of the gap is above tolerance (see
    _kkt_certified), and ValueError for a non-finite x.

    A member comes back unchanged: when p reproduces x to rounding level
    (see _snap_member) a copy of x is returned and ||x - p|| is added to the
    gap."""
    G = np.asarray(generators, dtype=float)
    x = np.asarray(x, dtype=float)
    n = G.shape[0]
    if n == 0:
        return np.zeros_like(x), np.zeros(0), 0.0
    x_norm = vec_norm(x)
    if n <= SCREEN_SIZE:
        lam = _nnls(G.T, x)
        p = G.T @ lam
        pair = G @ (x - p)
    else:
        lam, p, pair = _screened_nnls(G, x, x_norm)
    dual = float(max(0.0, pair.max()))
    comp = abs(float(lam @ pair))
    gap = dual + comp
    if not _kkt_certified(dual, comp, x_norm):
        raise NonConvergenceError("nnls KKT gap above tolerance", 0, gap)
    p, gap = _snap_member(x, p, gap, x_norm)
    return p, lam, gap


# hull-point cache for ConicHull specs (sampling can be expensive)
_HULL_POINTS: "weakref.WeakKeyDictionary[ConicHull, np.ndarray]" = weakref.WeakKeyDictionary()


def hull_points(K: ConicHull) -> np.ndarray:
    pts = _HULL_POINTS.get(K)
    if pts is None:
        pts = np.asarray(K.slice_spec.sampler(K.density), dtype=float)
        _HULL_POINTS[K] = pts
    return pts


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def project(K: ConeSpec, x, tol: Tolerance = DEFAULT_TOL) -> ProjectionResult:
    """Euclidean projection of x onto the spec K. Raises ValueError when an
    entry of x is NaN or infinite, for every spec."""
    x = K._check_point(x)
    # vdot is the ddot of x.dot(x) without its overflow warning for a finite
    # point of norm above about 1.3e154; the entries decide then
    huge = not math.isfinite(np.vdot(x, x))
    if huge and not np.isfinite(x).all():
        raise ValueError("point has a non-finite entry")

    if isinstance(K, GallerySet):
        if K.project_fn is not None:
            return K.project_fn(x)
        if K.inner is not None:
            return project(K.inner, x, tol)
        raise UnsupportedVariantError(f"gallery object {K.name!r} has no projector")

    if isinstance(K, NonnegativeOrthant):
        return _result(x, np.maximum(x, 0.0), "closed_form", huge=huge)

    if isinstance(K, Halfspace):
        v = float(K.normal @ x) - K.offset
        p = x - max(v, 0.0) * K.normal
        return _result(x, p, "closed_form", huge=huge)

    if isinstance(K, LinearSubspace):
        p = (x @ K.basis.T) @ K.basis if K.subspace_dim else np.zeros_like(x)
        p, gap = _snap_member(x, p, 0.0, vec_norm(x))
        return _result(x, p, "closed_form", 0, gap, huge=huge)

    if isinstance(K, SecondOrderCone):
        return _result(x, _project_soc(x), "closed_form", huge=huge)

    if isinstance(K, PsdCone):
        return _result(x, _project_psd(x), "eigen_clip", huge=huge)

    if isinstance(K, PolyhedralCone):
        if K.generators is not None:
            p, lam, gap = project_conic_generators(K.generators, x)
            return _result(x, p, "hull_qp", int(np.count_nonzero(lam)), gap, huge=huge)
        # inequality representation: Moreau with the dual cone's generators,
        # proj_K(x) = x + proj_{K*}(-x) for K = {x : Ax >= 0}, K* = cone{A^T}.
        q, lam, gap = project_conic_generators(K.inequalities, -x)
        return _result(x, x + q, "hull_qp", int(np.count_nonzero(lam)), gap, huge=huge)

    if isinstance(K, ProductCone):
        rl = project(K.left, x[: K.left.dim], tol)
        rr = project(K.right, x[K.left.dim :], tol)
        method = max(rl.method, rr.method, key=_METHOD_RANK.__getitem__)
        return ProjectionResult(
            np.concatenate([rl.point, rr.point]),
            float(np.hypot(rl.distance, rr.distance)),
            method,
            rl.iterations + rr.iterations,
            rl.certificate_gap + rr.certificate_gap,
        )

    if isinstance(K, IntersectionCone):
        return dykstra_intersection(K.parts, x, tol=tol)

    if isinstance(K, LinearImageCone):
        return _project_linear_image(K, x, tol)

    if isinstance(K, ConicHull):
        p, lam, gap = project_conic_generators(hull_points(K), x)
        return _result(x, p, "hull_qp", int(np.count_nonzero(lam)), gap, huge=huge)

    raise UnsupportedVariantError(f"projection not implemented for {type(K).__name__}")


def _project_linear_image(K: LinearImageCone, x: np.ndarray, tol: Tolerance) -> ProjectionResult:
    A = K.matrix
    if K.orthonormal_columns:
        # image of the inner cone under an isometry: push down, project, push up
        u = A.T @ x
        inner = project(K.inner, u, tol)
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
    z = project(K.inner, z, tol).point
    zp = z.copy()
    t_acc = 1.0
    gap = float("inf")
    max_iter = 5000
    for it in range(1, max_iter + 1):
        y = z + ((t_acc - 1) / (t_acc + 2)) * (z - zp)
        g = A.T @ (A @ y - x)
        znew = project(K.inner, y - g / L, tol).point
        zp, z = z, znew
        t_acc += 1.0
        if float(np.linalg.norm(z - zp)) <= 1e-12 * max(1.0, float(np.linalg.norm(z))):
            p = A @ z
            g = A.T @ (p - x)
            dual = float(np.linalg.norm(project(K.inner, -g, tol).point))
            comp = abs(float(g @ z))
            gap = dual + comp
            if _kkt_certified(dual / np.sqrt(L), comp, float(np.linalg.norm(x))):
                break
    else:
        raise NonConvergenceError("linear-image projection KKT gap above tolerance", max_iter, gap)
    p, gap = _snap_member(x, p, gap, vec_norm(x))
    return _result(x, p, "hull_qp", it, gap)


# ---------------------------------------------------------------------------
# Moreau decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MoreauSplit:
    """x = cone_part + polar_part with the parts orthogonal; residual is the
    orthogonality defect |<cone_part, polar_part>|."""

    original: np.ndarray
    cone_part: np.ndarray
    polar_part: np.ndarray
    residual: float


def moreau_decompose(K: ConeSpec, x, tol: Tolerance = DEFAULT_TOL) -> MoreauSplit:
    """Split x into its projection onto K and onto the polar cone -K*."""
    x = np.asarray(x, dtype=float)
    p = project(K, x, tol).point
    q = x - p
    return MoreauSplit(x, p, q, abs(float(p @ q)))


# ---------------------------------------------------------------------------
# Dykstra
# ---------------------------------------------------------------------------


def dykstra_projectors(
    projectors,
    x: np.ndarray,
    max_iter: int = 50000,
    tol_change: float = 1e-10,
    method: str = "dykstra",
) -> ProjectionResult:
    """Dykstra's alternating projection scheme over arbitrary closed convex
    sets given as projector callables. Converges to the intersection's
    projection; the convergence metric is the largest change of any
    correction vector over one full sweep."""
    x = np.asarray(x, dtype=float)
    m = len(projectors)
    if m == 0:
        raise ValueError("need at least one projector")
    y = x.copy()
    corrections = [np.zeros_like(x) for _ in range(m)]
    change = np.inf
    for sweep in range(1, max_iter + 1):
        change = 0.0
        for i, proj in enumerate(projectors):
            prev = corrections[i]
            target = y + prev
            p = proj(target)
            newcorr = target - p
            change = max(change, vec_norm(newcorr - prev))
            corrections[i] = newcorr
            y = p
        if change < tol_change:
            return ProjectionResult(y, vec_norm(x - y), method, sweep, change)
    raise NonConvergenceError("Dykstra did not converge", max_iter, change)


def dykstra_intersection(
    parts,
    x,
    max_iter: int = 50000,
    tol_change: float = 1e-10,
    tol: Tolerance = DEFAULT_TOL,
) -> ProjectionResult:
    """Projection onto the intersection of cone specs via Dykstra."""
    projs = [(lambda v, p=p: project(p, v, tol).point) for p in parts]
    x = np.asarray(x, dtype=float)
    return dykstra_projectors(projs, x, max_iter=max_iter, tol_change=tol_change)


# ---------------------------------------------------------------------------
# Convex-hull projection (Wolfe's minimum-norm-point method)
# ---------------------------------------------------------------------------


def _fw_gap(points: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Frank-Wolfe duality gap of min ||x - conv(points)|| at the feasible y,
    2 max_j <p_j - y, x - y>, plus the most violating vertex index. Only the
    winning score is doubled: a factor of 2 is exact, so this is bitwise the
    doubled scores' maximum."""
    scores = (points - y) @ (x - y)
    j = int(np.argmax(scores))
    return max(0.0, 2.0 * float(scores[j])), j


def _affine_weights(Ps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Weights mu with sum(mu) = 1 of the point of aff(rows of Ps) nearest x.

    The constraint is eliminated, mu = (1 - sum(nu), nu) with nu the least
    squares solution of (Ps[1:] - Ps[0])^T nu = x - Ps[0], so the conditioning
    of the support is not squared as in the bordered normal equations. One
    row is its own affine hull: its weight is exactly 1."""
    if Ps.shape[0] == 1:
        return np.ones(1)
    nu = np.linalg.lstsq((Ps[1:] - Ps[0]).T, x - Ps[0], rcond=None)[0]
    return np.concatenate([[1.0 - nu.sum()], nu])


def project_hull(points, x, return_weights: bool = False, *, start=None):
    """Exact nearest point of conv(rows of points) from x.

    Wolfe's minimum-norm-point method (Wolfe 1976), started at the nearest
    vertex: the major cycle adds the vertex with the largest Frank-Wolfe gap,
    the minor cycle solves the affine least-squares problem on the support and
    steps back to the last feasible point, dropping the vertex whose weight
    reaches zero, whenever a weight of that solution is negative. The answer
    is certified by a Frank-Wolfe gap of at most GAP_TOL; the loop raises
    NonConvergenceError when it stalls (the most violating vertex is already
    in the support) or reaches HULL_MAX_ITER iterations.

    start warm-starts the method: a vector of convex weights over the rows,
    in the format return_weights gives. Wolfe then begins from its nonzero
    rows, with the weights renormalised to sum 1, instead of from the nearest
    vertex. Its iterates never move farther from x than that start point, so
    the answer is no farther than the start (up to rounding), and the weights
    of an answer, given back as start, finish in one iteration. A start of
    the wrong length, with a negative or non-finite entry, or with a zero or
    overflowing sum raises ValueError.

    A member comes back unchanged: when the hull point reproduces x to
    rounding level (see _snap_member) a copy of x is returned and the
    residual is added to the gap. With return_weights the convex weights over
    all rows come back too.
    """
    P = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    m = P.shape[0]
    if m == 0:
        raise ValueError("empty point set")

    if start is None:
        support = [int(np.argmin(np.linalg.norm(P - x, axis=1)))]
        lam_s = np.ones(1)
    else:
        w = np.asarray(start, dtype=float)
        if w.shape != (m,):
            raise ValueError(f"start must hold one weight per row ({m}), got shape {w.shape}")
        with np.errstate(over="ignore"):  # an overflowing sum is rejected below
            total = float(w.sum())
        if not (np.isfinite(w).all() and (w >= 0.0).all() and np.isfinite(total) and total > 0.0):
            raise ValueError("start must be finite, nonnegative weights with a positive sum")
        support = np.flatnonzero(w).tolist()
        lam_s = w[support] / total
    gap = np.inf
    for iters in range(1, HULL_MAX_ITER + 1):
        Ps = P[support]
        mu = _affine_weights(Ps, x)
        if mu.min() < -1e-12:
            # minor cycle: move from lam_s toward mu until a weight hits zero
            d = mu - lam_s
            mask = d < -1e-15
            t_star = float(np.min(-lam_s[mask] / d[mask]))
            lam_s = np.maximum(lam_s + min(1.0, t_star) * d, 0.0)
            keep = lam_s > 1e-14  # weights still sum to 1, so one is kept
            support = [s for s, k_ in zip(support, keep) if k_]
            lam_s = lam_s[keep]
            lam_s /= lam_s.sum()
            continue
        lam_s = np.maximum(mu, 0.0)
        lam_s /= lam_s.sum()
        y = lam_s @ Ps
        gap, j = _fw_gap(P, x, y)
        if gap <= GAP_TOL:
            break
        if j in support:
            raise NonConvergenceError(
                "project_hull stalled: the most violating vertex is already active", iters, gap
            )
        support.append(j)
        lam_s = np.append(lam_s, 0.0)
    else:
        raise NonConvergenceError("project_hull hit its iteration cap", HULL_MAX_ITER, gap)

    y, gap = _snap_member(x, y, gap, vec_norm(x))
    res = _result(x, y, "hull_qp", iters, gap)
    if return_weights:
        full = np.zeros(m)
        full[support] = lam_s
        return res, full
    return res

"""Euclidean projection kernels, and `project`, the entry point that runs a
spec's projection rule.

Each cone variant's projection rule is its `_project` method, in its class in
cone_algebra; `project` checks the point and calls it. This module knows no
spec class. It holds what the rules call: the scaled second-order cone's closed
form, Dykstra's alternating scheme for intersections, and one active-set
kernel for finite projections: Wolfe's minimum-norm-point method for hulls of
point clouds and its conic twin, Lawson-Hanson's nonnegative least squares, for
finitely generated cones. Both either return an answer whose optimality
certificate is within tolerance or raise NonConvergenceError. Everything here
runs on numpy alone.

Both methods add the row that violates optimality most to their support and,
when a weight of the support's least-squares point is negative, step back
toward it and drop the rows whose weights reach zero. That point comes from a
QR factorization of the support (_SupportQR) that each step updates instead of
recomputing: one Gram-Schmidt step with reorthogonalization per added row, a
Givens downdate per dropped one, and a triangular back-substitution.
project_hull's warm start is the loop's own support, rows and weights: building
and scanning a dense vector of weights over every row cost a refinement round
that re-solves on a new cloud of hundreds of rows nearly as much as Wolfe's loop.

A point that is already in the cone comes back unchanged: the orthant,
halfspace and second-order-cone closed forms and the PSD eigenvalue clip return
the input's values when nothing is clipped, and the subspace, linear-image,
generator and hull projections return the input when their answer reproduces
it to rounding level (_snap_member), adding that rounding residual to the
certificate.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg_core import DEFAULT_TOL, Tolerance, vec_norm

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
    optimality certificate (zero for closed forms) in the units of the kernel
    that made it. For a point whose x.x overflows, a spec whose `scales`
    holds, or a halfspace, projects x / 2^e with 2^e just above max |x_i|
    (see _project_scaled), and the certificate is that of x / 2^e, whose
    largest entry is in [0.5, 1).

    The input itself is returned for certified members: the point is then a
    copy of the input and the distance is exactly 0.0. The input is finite."""

    point: np.ndarray
    distance: float
    method: str  # closed_form | eigen_clip | dykstra | hull_qp
    iterations: int = 0
    certificate_gap: float = 0.0


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
# Closed form
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def project(K, x, tol: Tolerance = DEFAULT_TOL) -> ProjectionResult:
    """Euclidean projection of x onto the spec K, by its rule K._project (see
    cone_algebra.ConeSpec). Raises ValueError when an entry of x is NaN or
    infinite, for every spec. A finite x whose x.x overflows is projected at
    x / 2^e when K.scales holds (see _project_scaled); otherwise the rule
    gets it as it is."""
    x = K._check_point(x)
    # vdot is the ddot of x.dot(x) without its overflow warning for a finite
    # point of norm above about 1.3e154; the entries decide then
    huge = not math.isfinite(np.vdot(x, x))
    if huge and not np.isfinite(x).all():
        raise ValueError("point has a non-finite entry")
    if huge and K.scales:
        return _project_scaled(K, x, math.frexp(float(np.abs(x).max()))[1], tol)
    return K._project(x, tol)


def _project_scaled(K, x: np.ndarray, e: int, tol: Tolerance) -> ProjectionResult:
    """2^e times the projection of x / 2^e onto K, for a finite x whose x.x
    overflows and 2^e just above max |x_i|, so that no kernel squares a
    number near the float max. K is a cone that scales, or a halfspace whose
    offset the caller scaled with the point. Its certificate gap is that of
    x / 2^e. Raises ValueError when the projection is past the float range;
    the distance may be, and is then inf."""
    r = project(K, np.ldexp(x, -e), tol)
    with np.errstate(over="ignore"):
        p = np.ldexp(r.point, e)
    if not np.isfinite(p).all():
        raise ValueError("the projection is past the float range")
    return _result(x, p, r.method, r.iterations, r.certificate_gap, huge=True)


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


def moreau_decompose(K, x) -> MoreauSplit:
    """Split x into its projection onto K and onto the polar cone -K*."""
    x = np.asarray(x, dtype=float)
    p = project(K, x).point
    q = x - p
    return MoreauSplit(x, p, q, abs(float(p @ q)))


# ---------------------------------------------------------------------------
# Dykstra
# ---------------------------------------------------------------------------


# Dykstra stops when no correction vector moved more than this over a sweep.
DYKSTRA_TOL = 1e-10


def dykstra_projectors(projectors, x: np.ndarray, max_iter: int = 50000) -> ProjectionResult:
    """Dykstra's alternating projection scheme over closed convex sets given
    as projector callables. Converges to the intersection's projection; the
    convergence metric, reported as certificate_gap, is the largest change of
    any correction vector over one full sweep, which bounds no distance. So
    it runs only where no closed form exists: the intersection cones
    (dykstra_intersection)."""
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
        if change < DYKSTRA_TOL:
            return ProjectionResult(y, vec_norm(x - y), "dykstra", sweep, change)
    raise NonConvergenceError("Dykstra did not converge", max_iter, change)


def dykstra_intersection(parts, x, tol: Tolerance = DEFAULT_TOL) -> ProjectionResult:
    """Projection onto the intersection of cone specs via Dykstra."""
    projs = [(lambda v, p=p: project(p, v, tol).point) for p in parts]
    return dykstra_projectors(projs, np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Finite projections: Wolfe's method for hulls, Lawson-Hanson's for cones
# ---------------------------------------------------------------------------

# A difference vector whose part off the span of the earlier ones is at most
# AFFINE_DEPENDENT times its norm is rounding noise of a dependent vector.
AFFINE_DEPENDENT = 64.0 * np.finfo(float).eps
# Largest entry of x or points from which project_hull scales both by a power
# of two: below it no product of two differences of entries can overflow.
HULL_HUGE = 2.0**500
_TINY = np.finfo(float).tiny


class _SupportQR:
    """An active set, positions 0..k-1 holding rows of C, with a QR
    factorization of the vectors C[support[t]] - base: from the origin for
    Lawson-Hanson, and for Wolfe, who passes no base, from the first support
    row, rebased when it leaves (position 0 then has no column).

    The first r rows of Q, a preallocated d x d buffer, are orthonormal; R is
    r x r upper triangular in Python floats, kept by columns (R[i] holds rows
    0..i of column i), and cols[i] is the position of factor column i. A
    vector is added by classical Gram-Schmidt with one reorthogonalization
    (CGS2); one dependent on the earlier ones to rounding level gets no
    column, and weight 0. Deleting a position is a Givens downdate; while some
    position has no column, it refactors the whole support instead: a vector
    dependent on the deleted one may not be dependent on the rest."""

    __slots__ = ("C", "xc", "support", "Q", "R", "cols", "base", "w", "lead")

    def __init__(self, C: np.ndarray, xc: np.ndarray, support: list, base=None):
        self.C, self.xc, self.support = C, xc, support
        self.lead, self.base, self.w = (1, None, None) if base is None else (0, base, xc)
        self.Q = np.empty((C.shape[1], C.shape[1]))
        self._refactor()

    def _refactor(self):
        if self.lead:
            self.base = self.C[self.support[0]]
            self.w = self.xc - self.base
        self.R, self.cols = [], []
        for pos in range(self.lead, len(self.support)):
            self._append(pos)

    def _append(self, pos: int):
        Q, R = self.Q, self.R
        r = len(R)
        u = self.C[self.support[pos]] - self.base
        h = []
        if r:
            Qr = Q[:r]
            h1 = Qr.dot(u)
            u -= h1.dot(Qr)
            h2 = Qr.dot(u)
            u -= h2.dot(Qr)
            h = (h1 + h2).tolist()
        rho2 = float(u.dot(u))
        # u's squared norm before the projections is sum(h^2) + rho^2
        if r == Q.shape[0] or rho2 <= AFFINE_DEPENDENT**2 * (sum(t * t for t in h) + rho2):
            return
        rho = math.sqrt(rho2)
        np.divide(u, rho, out=Q[r])
        h.append(rho)
        R.append(h)
        self.cols.append(pos)

    def _delete(self, q: int):
        """Drop factor column q; Givens rotations of rows (i, i + 1), i = q,
        q + 1, ..., zero the subdiagonal this leaves in R and turn Q's rows
        alike."""
        R, Q = self.R, self.Q
        del R[q]
        for i in range(q, len(R)):
            col = R[i]
            a, b = col[i], col.pop()
            h = math.hypot(a, b)
            c, s = a / h, b / h
            col[i] = h
            for later in R[i + 1:]:
                ai, bi = later[i], later[i + 1]
                later[i], later[i + 1] = c * ai + s * bi, c * bi - s * ai
            Q[i:i + 2] = np.array(((c, s), (-s, c))).dot(Q[i:i + 2])

    def add(self, j: int):
        self.support.append(j)
        self._append(len(self.support) - 1)

    def drop(self, gone: list):
        """Delete the positions in gone, in increasing order."""
        sup, lead = self.support, self.lead
        if len(self.R) < len(sup) - lead:
            for pos in reversed(gone):
                del sup[pos]
            self._refactor()
            return
        for pos in reversed(gone):
            if pos >= lead:
                self._delete(pos - lead)
            else:
                # the differences from position 1 are those from position 0
                # less column 0, whose only entry is R[0][0]
                r00 = self.R[0][0]
                for col in self.R[1:]:
                    col[0] -= r00
                self._delete(0)
                self.base = self.C[sup[1]]
                self.w = self.xc - self.base
            del sup[pos]
        self.cols = list(range(lead, len(sup)))

    def weights(self) -> list:
        """Weights mu over the support of the point of its span (for Wolfe: its
        affine hull, mu summing to 1) nearest x: nu from R nu = Q (x - base),
        on the factor columns, 0 on dependent positions and, for Wolfe,
        1 - sum(nu) on position 0, which alone weighs exactly 1."""
        R = self.R
        mu = [0.0] * len(self.support)
        if not R:
            if self.lead:
                mu[0] = 1.0
            return mu
        c = self.Q[:len(R)].dot(self.w).tolist()
        for i in range(len(R) - 1, -1, -1):
            col = R[i]
            nu = c[i] = c[i] / col[i]
            for t in range(i):
                c[t] -= col[t] * nu
        for pos, nu in zip(self.cols, c):
            mu[pos] = nu
        if self.lead:
            mu[0] = 1.0 - sum(c)
        return mu


def _fw_gap(C: np.ndarray, xc: np.ndarray, y: np.ndarray):
    """Frank-Wolfe duality gap of min ||xc - conv(rows of C)|| at the feasible
    y, 2 max_j <c_j - y, xc - y>, clipped at 0, plus the most violating row
    index. The row is the largest <c_j, xc - y>; its score is then taken on
    c_j - y, which rounds on the scale of that difference, not of c_j. A NaN
    gap stays NaN."""
    v = xc - y
    j = int(C.dot(v).argmax())
    g = 2.0 * float((C[j] - y).dot(v))
    return (0.0 if g <= 0.0 else g), j


def _wolfe(P: np.ndarray, x: np.ndarray, support, lam):
    """Wolfe's loop on the rows of P from x, started on the positions and
    weights (support, lam), or at the nearest row when support is None.
    Works on P and x less the first support row, so that scores and
    differences are on the scale of the cloud, not of its offset. Returns
    (y, gap, iterations, support, weights)."""
    if support is None:
        D = P - x
        support, lam = [int((D * D).dot(np.ones(P.shape[1])).argmin())], [1.0]
    origin = P[support[0]]
    C, xc = P - origin, x - origin
    f = _SupportQR(C, xc, support)
    gap = math.inf
    for iters in range(1, HULL_MAX_ITER + 1):
        mu = f.weights()
        if min(mu) < -1e-12:
            # minor cycle: move from lam toward mu until a weight hits zero
            t = min(1.0, min(-l / (u - l) for l, u in zip(lam, mu) if u - l < -1e-15))
            lam = [max(l + t * (u - l), 0.0) for l, u in zip(lam, mu)]
            f.drop([i for i, l in enumerate(lam) if not l > 1e-14])
            lam = [l for l in lam if l > 1e-14]  # weights still sum to 1, so one is kept
            total = sum(lam)
            lam = [l / total for l in lam]
            continue
        lam = [max(u, 0.0) for u in mu]
        total = sum(lam)
        lam = [l / total for l in lam]
        y = np.dot(lam, C.take(support, axis=0))
        gap, j = _fw_gap(C, xc, y)
        if gap <= GAP_TOL:
            break
        if j in support:
            raise NonConvergenceError(
                "project_hull stalled: the most violating vertex is already active", iters, gap
            )
        f.add(j)
        lam.append(0.0)
    else:
        raise NonConvergenceError("project_hull hit its iteration cap", HULL_MAX_ITER, gap)
    return y + origin, gap, iters, support, lam


def _start_support(start, m: int):
    """Wolfe's start from start = (rows, weights) over m rows: the rows of
    positive weight in increasing order, with the weights over their sum.
    ValueError unless the rows are distinct integers in [0, m), with one
    finite, nonnegative weight each and a finite positive sum."""
    try:
        rows, weights = start
        rows, weights = list(map(operator.index, rows)), list(map(float, weights))
        total = sum(weights)  # NaN or inf for a NaN or infinite weight
        if not (len(rows) == len(weights) == len(set(rows)) and 0 <= min(rows) and max(rows) < m
                and min(weights) >= 0.0 and math.isfinite(total) and total > 0.0):
            raise ValueError
    except (TypeError, ValueError):  # also not a pair of sequences, or no rows
        raise ValueError(f"start must be a pair (rows, weights): distinct row indices in [0, {m}) "
                         "and one finite, nonnegative weight each, with a positive sum") from None
    kept = sorted(p for p in zip(rows, weights) if p[1] > 0.0)
    return [i for i, _ in kept], [l / total for _, l in kept]


def project_hull(points, x, return_weights: bool = False, *, start=None):
    """Exact nearest point of conv(rows of points) from x.

    Wolfe's minimum-norm-point method (Wolfe 1976), started at the nearest
    vertex, on the updated QR factor of the support's difference vectors
    p_t - p_0 (see _SupportQR). Each iteration finds the point of the
    support's affine hull nearest x. When its weights are nonnegative (major
    cycle) it becomes the iterate and the vertex with the largest Frank-Wolfe
    gap joins the support; when one is negative (minor cycle) the iterate
    steps toward it up to the last feasible point and the vertices whose
    weights reach zero leave. The answer is certified by a Frank-Wolfe gap of
    at most GAP_TOL; the loop raises NonConvergenceError when it stalls (the
    most violating vertex is already in the support) or reaches
    HULL_MAX_ITER iterations.

    start warm-starts the method from a support (rows, weights): distinct
    row indices, in any order, and their convex weights, the form Wolfe's
    loop keeps and return_weights gives (see the module note). Wolfe then
    begins from its rows of positive weight, in increasing order and with
    the weights renormalised to sum 1, instead of from the nearest vertex.
    Its iterates never move farther from x than that start point, so the
    answer is no farther than the start (up to rounding), and the support of
    an answer, given back as start, finishes in one iteration. ValueError
    unless the rows are distinct integers in [0, m) with one finite,
    nonnegative weight each and a finite positive sum.

    points must be an (m, d) array with m, d >= 1 and x a vector of length
    d, all finite; ValueError otherwise. When an entry reaches HULL_HUGE,
    points and x are projected scaled by 2^-e, 2^e just above their largest
    entry, and the answer scaled back; a power-of-two scale is exact, and
    the certificate is that of the scaled problem.

    A member comes back unchanged: when the hull point reproduces x to
    rounding level (see _snap_member) a copy of x is returned and the
    residual is added to the gap. With return_weights the answer's support
    comes back too: (rows, weights) lists, rows increasing, no zero weight.
    """
    P = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    if P.ndim != 2 or P.shape[1] == 0 or x.shape != (P.shape[1],):
        raise ValueError(
            f"points must be an (m, d) array and x a vector of length d >= 1, got shapes "
            f"{P.shape} and {x.shape}"
        )
    m = P.shape[0]
    if m == 0:
        raise ValueError("empty point set")

    support, lam = (None, None) if start is None else _start_support(start, m)
    e = 0
    # the sum of squares is NaN or inf for a non-finite entry and bounds the
    # largest entry; vdot, a BLAS dot, does not warn when it overflows
    if not float(np.vdot(P, P)) + float(np.vdot(x, x)) < HULL_HUGE * HULL_HUGE:
        top_p, top_x = float(np.abs(P).max()), float(np.abs(x).max())
        if not (math.isfinite(top_p) and math.isfinite(top_x)):
            raise ValueError("points and x must be finite")
        if max(top_p, top_x) >= HULL_HUGE:
            e = math.frexp(max(top_p, top_x))[1]
    xs = np.ldexp(x, -e) if e else x
    y, gap, iters, support, lam = _wolfe(np.ldexp(P, -e) if e else P, xs, support, lam)
    y, gap = _snap_member(xs, y, gap, vec_norm(xs))
    res = _result(x, np.ldexp(y, e) if e else y, "hull_qp", iters, gap, huge=bool(e))
    if return_weights:
        kept = sorted((i, l) for i, l in zip(support, lam) if l > 0.0)
        return res, ([i for i, _ in kept], [l for _, l in kept])
    return res


CONE_MAX_ITER = 20000  # iteration cap of the generator kernel's loop


def _lawson_hanson(G: np.ndarray, x: np.ndarray):
    """Lawson-Hanson's loop from the generators pairing positively with x if
    there are at most d generators and their least-squares weights are
    positive (a member of a simplicial cone then takes one factorization),
    else from the empty set. Returns (p, support, weights, G (x - p))."""
    support = [i for i, v in enumerate(G.dot(x).tolist()) if v > 0.0] if len(G) <= len(x) else []
    f = _SupportQR(G, x, support, np.zeros(len(x)))
    mu = f.weights()
    if len(f.R) < len(support) or not all(u > 0.0 for u in mu):
        support, mu = [], []
        f = _SupportQR(G, x, support, f.base)
    inv = None
    for _ in range(CONE_MAX_ITER):
        lam, Qr = mu, f.Q[:len(f.R)]  # p = Q^T Q x is accurate where the weights are not
        p = Qr.dot(x).dot(Qr) if support else f.base
        pair = G.dot(x - p)
        if len(support) == len(G):
            break  # every generator is in the support: its pairings are noise
        if inv is None:  # price per unit length, as the cone ignores lengths
            inv = 1.0 / np.sqrt(np.maximum(np.einsum("ij,ij->i", G, G), _TINY))
        j = int((pair * inv).argmax())
        if not pair[j] > 0.0 or j in support:
            break
        r = len(f.R)
        f.add(j)
        mu = f.weights()
        if len(f.R) == r or not mu[-1] > 0.0:
            support.pop()  # g_j's pairing is rounding noise; f is not used again
            break
        lam.append(0.0)
        while mu and min(mu) <= 0.0:
            # step from lam toward mu until a weight (not g_j's) reaches zero
            t, first = min((l / (l - u), i) for i, (l, u) in enumerate(zip(lam, mu)) if u <= 0.0)
            lam = [l + t * (u - l) for l, u in zip(lam, mu)]
            lam[first] = 0.0
            f.drop([i for i, l in enumerate(lam) if not l > 0.0])
            lam = [l for l in lam if l > 0.0]
            mu = f.weights()
    else:
        raise NonConvergenceError("project_conic_generators hit its iteration cap",
                                  CONE_MAX_ITER, float(pair.max()))
    return p, support, lam, pair


def project_conic_generators(generators: np.ndarray, x: np.ndarray):
    """Exact projection onto cone{rows of generators}: Lawson-Hanson's method
    (Lawson and Hanson 1974) for min ||G^T lam - x|| over lam >= 0 on the
    updated QR factor of its support. Each iteration prices every generator
    by <g_i, x - p> and adds the one that violates most per unit length (so
    rounding on a long generator cannot hide a short violator); a
    nonpositive weight steps back and drops generators, as Wolfe's minor
    cycle does. p is Q^T Q x for the support's Q. The loop stops when no
    generator pairs positively with x - p, or when the most violating one is
    in the support or its span or its weight rounds to 0. Returns (point,
    weights over all rows, kkt_gap), the gap max(0, max_i <g_i, x - p>) +
    |<lam, G (x - p)>|. Raises NonConvergenceError after CONE_MAX_ITER
    iterations or for a gap term above tolerance (see _kkt_certified),
    ValueError for a non-finite entry. When x.x overflows, x / 2^e, 2^e just
    above max |x_i|, is projected and the point and weights scaled back
    exactly, with the certificate of x / 2^e. A member comes back unchanged:
    when p reproduces x to rounding level (_snap_member), a copy of x, with
    ||x - p|| added to the gap."""
    G = np.asarray(generators, dtype=float)
    x = np.asarray(x, dtype=float)
    # vdot does not warn when it overflows; the entries decide then
    xx = float(np.vdot(x, x))
    if not ((math.isfinite(xx) or np.isfinite(x).all())
            and (math.isfinite(np.vdot(G, G)) or np.isfinite(G).all())):
        raise ValueError("generators and x must be finite")
    if len(G) == 0:
        return np.zeros_like(x), np.zeros(0), 0.0
    e = 0 if math.isfinite(xx) else math.frexp(float(np.abs(x).max()))[1]
    xs = np.ldexp(x, -e) if e else x
    x_norm = math.sqrt(xx) if not e else vec_norm(xs)
    p, support, weights, pair = _lawson_hanson(G, xs)
    dual = max(0.0, float(pair.max()))
    comp = abs(sum(w * float(pair[i]) for i, w in zip(support, weights)))
    if not _kkt_certified(dual, comp, x_norm):
        raise NonConvergenceError("project_conic_generators KKT gap above tolerance", 0, dual + comp)
    p, gap = _snap_member(xs, p, dual + comp, x_norm)
    lam = np.zeros(len(G))
    for i, w in zip(support, weights):
        lam[i] = w
    if e:
        with np.errstate(over="ignore"):
            p, lam = np.ldexp(p, e), np.ldexp(lam, e)
    return p, lam, gap

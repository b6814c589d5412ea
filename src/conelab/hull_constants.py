"""Constants that transfer a slice-level error bound to its conic hull.

For a closed cone K generated by a compact convex slice
C = K \\cap {x : <e, x> = level}, an error-bound constant kappa measured on
the slice lifts to the cone through three geometric quantities:

* ``r``     the largest norm over the slice,
* ``alpha`` the antipodality constant of a face F: the worst pairing between
  a unit vector of span F and its best unit approximant inside F,
* ``beta``  = max(1, 1/sqrt(1 - alpha^2)),

which combine into ``gamma = beta * kappa_slice * r * ||e||``.  The module
measures r and alpha on deterministic grids, assembles the constants record,
and verifies the two pointwise inequalities behind the transfer:

* slice bound: ``dist(x, C) <= ||e|| * r * dist(x, K)`` for x on the slice
  hyperplane whose cone projection is nonzero (equivalently x outside -K*);
* monotone shift: ``dist(x + t y, K) <= dist(x, K)`` and
  ``dist(x, F) <= beta * dist(x + t y, F)`` for x in span F, t >= 0, and y
  the best unit approximant of x inside F.

Both verifiers evaluate every distance against the same finitely generated
approximant of the input (the slice sample cloud, or exact projectors when
the handles carry them), so the inequalities are checked self-consistently
at tight tolerances instead of being polluted by discretization error.

The antipodality constant is computed from the identity

    min_{x in span F, ||x|| = 1}  max_{y in F, ||y|| = 1}  <x, y>
        = -dist(0, conv(unit sphere of F)),

which removes the direction-grid error in x entirely: the grid only enters
through the sampled unit sphere of F, and the reported error bar covers that
grid's resolution.  The literal grid min-max is kept alongside as a
diagnostic upper bound; it decreases monotonically as the grid refines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone_algebra import ConeSpec, SliceSpec, UnsupportedVariantError, get_slice
from .facial_structure import FaceHandle, face_projection
from .linalg_core import row_norms, sorted_unique, unit_sphere_grid, vec_norm
from .projection_engine import project, project_conic_generators, project_hull

__all__ = [
    "HullConstants",
    "AntipodalityEstimate",
    "SliceBoundReport",
    "MonotoneShiftReport",
    "DegenerateFaceError",
    "face_sphere_directions",
    "slice_radius",
    "antipodality_alpha",
    "beta_from_alpha",
    "build_constants",
    "verify_slice_bound",
    "verify_monotone_shift",
]


class DegenerateFaceError(ValueError):
    """The face is too small for a direction-grid computation."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AntipodalityEstimate:
    """Antipodality constant of a face, with the grid quality attached.

    ``alpha`` is the hull-polished value (exact over all unit x in span F,
    sampled in y); ``grid_minmax`` is the literal min-max over the direction
    grid, an upper bound that decreases under grid refinement; ``error_bar``
    is the covering-radius estimate of the grid.
    """

    alpha: float
    grid_minmax: float
    error_bar: float
    n_dirs: int
    face_dim: int

    def __float__(self) -> float:
        return self.alpha


@dataclass(frozen=True)
class HullConstants:
    """Constants transferring a slice error bound to the conic hull."""

    r: float
    alpha: float
    beta: float
    kappa_slice: float
    gamma: float
    e_norm: float
    alpha_error_bar: float = 0.0

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("slice radius r must be positive")
        if not self.kappa_slice > 0:
            raise ValueError("kappa_slice must be positive")
        if not self.e_norm > 0:
            raise ValueError("e_norm must be positive")
        if not -1.0 < self.alpha <= 0.0:
            raise ValueError(f"alpha must lie in (-1, 0], got {self.alpha}")
        beta_ref = beta_from_alpha(self.alpha)
        if abs(self.beta - beta_ref) > 1e-9 * max(1.0, beta_ref):
            raise ValueError(
                f"beta {self.beta} does not match max(1, 1/sqrt(1-alpha^2)) = {beta_ref}"
            )
        gamma_ref = self.beta * self.kappa_slice * self.r * self.e_norm
        if abs(self.gamma - gamma_ref) > 1e-9 * max(1.0, gamma_ref):
            raise ValueError(
                f"gamma {self.gamma} does not match beta*kappa*r*e_norm = {gamma_ref}"
            )

    def to_report(self) -> dict:
        return {
            "r": self.r,
            "alpha": self.alpha,
            "alpha_error_bar": self.alpha_error_bar,
            "beta": self.beta,
            "kappa_slice": self.kappa_slice,
            "e_norm": self.e_norm,
            "gamma": self.gamma,
        }

    def text_block(self) -> str:
        rows = [
            ("r (slice radius)", self.r),
            ("alpha (antipodality)", self.alpha),
            ("beta", self.beta),
            ("kappa_slice", self.kappa_slice),
            ("||e||", self.e_norm),
            ("gamma = beta*kappa*r*||e||", self.gamma),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"{name.ljust(width)}  {value:.12g}" for name, value in rows]
        if self.alpha_error_bar:
            lines.insert(2, f"{'  grid error bar'.ljust(width)}  {self.alpha_error_bar:.3g}")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class SliceBoundReport:
    """Outcome of sampling the slice bound dist(x,C) <= ||e|| r dist(x,K)."""

    n_samples: int
    n_kept: int
    n_rejected: int
    r: float
    e_norm: float
    tol: float
    worst_margin: float
    violations: int
    seed: int

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_report(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "n_kept": self.n_kept,
            "n_rejected": self.n_rejected,
            "r": self.r,
            "e_norm": self.e_norm,
            "tol": self.tol,
            "worst_margin": self.worst_margin,
            "violations": self.violations,
            "ok": self.ok,
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class MonotoneShiftReport:
    """Outcome of checking the two shift inequalities along a t-grid.

    Each row is (t, dist(x+ty, K), dist(x+ty, F), cone_ok, face_ok).
    """

    rows: tuple
    dist_cone_at_x: float
    dist_face_at_x: float
    beta: float
    y: np.ndarray
    tol: float

    @property
    def ok(self) -> bool:
        return all(r[3] and r[4] for r in self.rows)

    def to_report(self) -> dict:
        return {
            "beta": self.beta,
            "y": [float(v) for v in self.y],
            "dist_cone_at_x": self.dist_cone_at_x,
            "dist_face_at_x": self.dist_face_at_x,
            "tol": self.tol,
            "ok": self.ok,
            "rows": [
                {
                    "t": t,
                    "dist_cone_shifted": dk,
                    "dist_face_shifted": df,
                    "cone_ok": bool(ok1),
                    "face_ok": bool(ok2),
                }
                for (t, dk, df, ok1, ok2) in self.rows
            ],
        }


# ---------------------------------------------------------------------------
# Direction grids
# ---------------------------------------------------------------------------


def _grid_resolution(dim: int, n: int) -> float:
    """Covering-radius estimate of the unit-sphere grid used for a face."""
    if dim <= 1:
        return 0.0
    if dim == 2:
        return float(np.pi / n)
    if dim == 3:
        return float(2.0 * np.sqrt(np.pi / n))
    return float(2.0 * n ** (-1.0 / (dim - 1)))


def face_sphere_directions(F: FaceHandle, n_dirs: int = 4096) -> np.ndarray:
    """Unit directions of a cone face, sampled deterministically.

    Maps a unit-sphere grid of the face's span into the ambient space,
    projects each direction onto the face, and keeps the normalized nonzero
    images.  The result covers the unit sphere of F: interior directions are
    fixed points of the projection, and outside directions land on the
    boundary of F.
    """
    if F.affine_basepoint is not None and float(np.linalg.norm(F.affine_basepoint)) > 1e-12:
        raise ValueError(
            "face sphere directions are defined for cone faces; this handle "
            "has a nonzero affine basepoint"
        )
    k = F.face_dim
    if k < 1:
        raise DegenerateFaceError("the zero face has no directions")
    # one stacked projection: each row and its norm are those of the row alone
    P = face_projection(F, unit_sphere_grid(k, n_dirs) @ F.span_basis)
    nrm = row_norms(P)
    keep = nrm > 1e-9
    if not keep.any():
        raise DegenerateFaceError("no grid direction has a nonzero face projection")
    return sorted_unique(np.round(P[keep] / nrm[keep, None], 12))


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


def slice_radius(slice_spec: SliceSpec, density: int = 2048) -> float:
    """Largest norm over the sampled slice; nondecreasing under refinement
    whenever the sampler's grids nest."""
    pts = np.asarray(slice_spec.sampler(density), dtype=float)
    if pts.size == 0:
        raise ValueError("slice sampler produced no points")
    return float(np.linalg.norm(pts, axis=1).max())


def antipodality_alpha(F: FaceHandle, n_dirs: int = 4096) -> AntipodalityEstimate:
    """Antipodality constant of a face of dimension >= 2.

    Returns min over unit x in span F of max over sampled unit y in F of
    <x, y>.  The minimum over x is taken exactly through the identity
    alpha = -dist(0, conv(sampled unit sphere of F)); the literal grid
    min-max is attached as ``grid_minmax``.  For pointed faces the value
    lies in (-1, 0].
    """
    if F.face_dim <= 1:
        raise DegenerateFaceError(
            "antipodality needs a face of dimension >= 2; rays and the zero "
            "face transfer directly with beta = 1"
        )
    dirs = face_sphere_directions(F, n_dirs)
    grid_x = unit_sphere_grid(F.face_dim, n_dirs) @ F.span_basis
    grid_minmax = float(np.min(np.max(grid_x @ dirs.T, axis=1)))
    nearest = project_hull(dirs, np.zeros(dirs.shape[1]))
    alpha = -float(nearest.distance)
    return AntipodalityEstimate(
        alpha=alpha,
        grid_minmax=grid_minmax,
        error_bar=_grid_resolution(F.face_dim, n_dirs),
        n_dirs=n_dirs,
        face_dim=F.face_dim,
    )


def beta_from_alpha(alpha: float) -> float:
    """max(1, 1/sqrt(1 - alpha^2)); requires alpha in (-1, 1)."""
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (-1, 1), got {alpha}")
    return max(1.0, 1.0 / np.sqrt(1.0 - alpha * alpha))


def build_constants(
    K: ConeSpec,
    F: FaceHandle,
    kappa_slice: float,
    *,
    n_dirs: int = 4096,
) -> HullConstants:
    """Assemble the full constants record for a conic hull and one face.

    ``kappa_slice`` is the error-bound constant measured on the slice (for
    instance the ``kappa_hat`` of a bounded-verdict probe).  The face must
    have dimension >= 2; lower-dimensional faces take beta = 1 directly.
    """
    slice_spec = get_slice(K)
    if slice_spec is None:
        raise UnsupportedVariantError("the cone spec carries no slice data")
    r = slice_radius(slice_spec)
    est = antipodality_alpha(F, n_dirs)
    alpha = min(est.alpha, 0.0)
    beta = beta_from_alpha(alpha)
    e_norm = float(np.linalg.norm(slice_spec.e)) / slice_spec.level
    gamma = beta * kappa_slice * r * e_norm
    return HullConstants(
        r=r,
        alpha=alpha,
        beta=beta,
        kappa_slice=float(kappa_slice),
        gamma=gamma,
        e_norm=e_norm,
        alpha_error_bar=est.error_bar,
    )


# ---------------------------------------------------------------------------
# Pointwise verifiers
# ---------------------------------------------------------------------------


def verify_slice_bound(
    K: ConeSpec,
    n_samples: int = 1000,
    *,
    density: int = 512,
    seed: int = 0,
    spread: float = 3.0,
) -> SliceBoundReport:
    """Sample the slice bound dist(x,C) <= ||e|| r dist(x,K) on the slice
    hyperplane.

    Points are drawn around the slice's centroid inside its hyperplane and
    kept when their cone projection is nonzero (the bound concerns exactly
    those x outside -K*).  Both distances and the radius r are evaluated
    against the same sample cloud, so the inequality is exact up to solver
    gaps for the sampled cone; violations beyond the report's ``tol``
    (1e-8) are counted as findings rather than raised.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be nonnegative")
    if not (math.isfinite(spread) and spread > 0):
        raise ValueError("spread must be finite and positive")
    slice_spec = get_slice(K)
    if slice_spec is None:
        raise UnsupportedVariantError("the cone spec carries no slice data")
    cloud = np.asarray(slice_spec.sampler(density), dtype=float)
    if cloud.size == 0:
        raise ValueError("slice sampler produced no points")
    e_norm = vec_norm(slice_spec.e) / slice_spec.level
    # np.linalg.norm(., axis=1)'s own arithmetic, without numpy.linalg
    r = float(np.sqrt((cloud * cloud).sum(axis=1)).max())
    tangent = slice_spec.tangent_basis
    center = cloud.mean(axis=0)

    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((n_samples, tangent.shape[0]))
    norms = np.sqrt((coords * coords).sum(axis=1, keepdims=True))
    radii = rng.uniform(0.0, spread * r, size=(n_samples, 1))
    points = center + (coords / np.maximum(norms, 1e-300) * radii) @ tangent

    tol = 1e-8
    kept = 0
    rejected = 0
    violations = 0
    worst = -np.inf
    for x in points:
        p, _, _ = project_conic_generators(cloud, x)
        if vec_norm(p) <= 1e-9 * max(1.0, vec_norm(x)):
            rejected += 1
            continue
        kept += 1
        dist_cone = vec_norm(x - p)
        dist_slice = float(project_hull(cloud, x).distance)
        margin = dist_slice - e_norm * r * dist_cone
        worst = max(worst, margin)
        if margin > tol:
            violations += 1
    return SliceBoundReport(
        n_samples=n_samples,
        n_kept=kept,
        n_rejected=rejected,
        r=r,
        e_norm=e_norm,
        tol=tol,
        worst_margin=float(worst) if kept else -np.inf,
        violations=violations,
        seed=seed,
    )


def verify_monotone_shift(
    K: ConeSpec,
    F: FaceHandle,
    x,
    t_grid,
) -> MonotoneShiftReport:
    """Check the two shift inequalities along a grid of nonnegative shifts.

    ``y`` is the argmax of <x, u> over the sampled unit sphere of F (4096
    grid directions).  The checks are dist(x+ty, K) <= dist(x, K) + tol and
    dist(x, F) <= beta * dist(x+ty, F) + tol, with tol = 1e-7 and beta
    computed from the face's antipodality constant.
    """
    x = np.asarray(x, dtype=float)
    if F.face_dim <= 1:
        raise DegenerateFaceError(
            "the shift argmax is degenerate on faces of dimension <= 1"
        )
    B = F.span_basis
    x_span = B.T @ (B @ x)
    if float(np.linalg.norm(x - x_span)) > 1e-8 * (1.0 + float(np.linalg.norm(x))):
        raise ValueError("x must lie in the span of the face")
    t_grid = [float(t) for t in t_grid]
    if any(t < 0 for t in t_grid):
        raise ValueError("shifts must be nonnegative")

    dirs = face_sphere_directions(F)
    y = dirs[int(np.argmax(dirs @ x))]
    beta = beta_from_alpha(antipodality_alpha(F).alpha)
    tol = 1e-7

    d_cone_0 = float(project(K, x).distance)
    d_face_0 = float(np.linalg.norm(x - face_projection(F, x)))
    rows = []
    for t in t_grid:
        xt = x + t * y
        d_cone_t = float(project(K, xt).distance)
        d_face_t = float(np.linalg.norm(xt - face_projection(F, xt)))
        ok_cone = d_cone_t <= d_cone_0 + tol
        ok_face = d_face_0 <= beta * d_face_t + tol
        rows.append((t, d_cone_t, d_face_t, ok_cone, ok_face))
    return MonotoneShiftReport(
        rows=tuple(rows),
        dist_cone_at_x=d_cone_0,
        dist_face_at_x=d_face_0,
        beta=float(beta),
        y=y,
        tol=tol,
    )

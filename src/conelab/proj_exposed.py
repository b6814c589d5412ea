"""Idempotent projections onto faces and the converging-extreme-ray probe.

A face F of a closed convex cone K is projectionally exposed when some
idempotent linear map P has P(K) = F.  This module constructs such maps
explicitly in the two low-rank cases where a recipe exists:

* rays: P = x z^T with x generating the ray and z a dual element scaled to
  pairing one (``build_rank_one_projection``);
* two-dimensional faces spanned by a pair of exposed extreme rays x, y:
  P = x z2^T + y z1^T with z1 taken from the conjugate face of the x-ray
  (so that <x, z1> = 0) and scaled so <y, z1> = 1, and symmetrically for z2
  (``build_rank_two_projection``).

Every constructed map is certified on samples: idempotency in Frobenius
norm, images landing in the target face, the face held pointwise fixed,
and for rank one the image coefficients staying nonnegative.  The record
reports the violation counts instead of hiding them.

For faces of codimension one there is a sharper necessary condition: if F
is projectionally exposed then the unit generator w of its conjugate ray is
not the limit of unit generators of other extreme rays of the dual cone.
``sung_tam_probe`` searches sampled extreme directions of the dual within
a geometrically shrinking schedule of neighborhoods of w and reports the
converging rays it finds (evidence against projectional exposedness) or
their absence (evidence for).  ``codim1_amenable_implies_pexp_check``
combines the probe with an error-bound estimate and flags the one
genuinely inconsistent outcome: bounded-ratio (amenability) evidence
together with converging extreme rays, which would contradict the fact
that amenable codimension-one faces are projectionally exposed and
therefore indicates an implementation bug or insufficient sampling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .amenability_probe import ErrorBoundEstimate, estimate_kappa
from .cone_algebra import (
    ConeSpec,
    Membership,
    UnsupportedVariantError,
    dual_cone,
    membership,
    sample_points,
)
from .facial_structure import (
    FaceHandle,
    cone_span_dim,
    conjugate_face,
    face_contains,
    face_projection,
    face_samples,
    is_exposed,
    minimal_face,
)
from .linalg_core import BoundedRegion, row_norms, sorted_unique
from .projection_engine import (
    NonConvergenceError,
    dykstra_projectors,
    project,
)

__all__ = [
    "ProjectionMap",
    "SungTamResult",
    "Codim1ConsistencyReport",
    "NotSeparableError",
    "build_rank_one_projection",
    "build_rank_two_projection",
    "extreme_ray_samples",
    "sung_tam_probe",
    "codim1_amenable_implies_pexp_check",
]


class NotSeparableError(RuntimeError):
    """Conjugate-face sampling could not separate the two generator rays.

    Raised by the rank-two constructor when every sampled element of one
    conjugate face pairs to zero with the opposite generator, so no dual
    slice element with the required cross pairing exists among the samples.
    """


# ---------------------------------------------------------------------------
# Projection maps and their certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProjectionMap:
    """A linear map intended to retract the cone onto one of its faces.

    ``idempotency_residual`` is the Frobenius norm of P^2 - P; the
    containment count folds together sampled cone images that left the
    target face, face samples the map failed to hold fixed, and (for rank
    one) negative image coefficients.  ``certified`` requires a residual
    below 1e-12 and a clean count.
    """

    matrix: np.ndarray
    target_face: FaceHandle
    idempotency_residual: float
    containment_violations: int
    n_samples_checked: int = 0
    pairing_residual: float | None = None

    @property
    def certified(self) -> bool:
        return self.idempotency_residual < 1e-12 and self.containment_violations == 0

    def apply(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=float)

    def to_report(self) -> dict:
        return {
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "idempotency_residual": float(self.idempotency_residual),
            "containment_violations": int(self.containment_violations),
            "n_samples_checked": int(self.n_samples_checked),
            "pairing_residual": None
            if self.pairing_residual is None
            else float(self.pairing_residual),
            "certified": bool(self.certified),
            "target_face_dim": int(self.target_face.face_dim),
        }


def _certification_counts(
    P: np.ndarray,
    K: ConeSpec,
    F: FaceHandle,
    n_samples: int,
    seed: int,
    ray_dual: np.ndarray | None = None,
):
    rng = np.random.default_rng(seed)
    idem = float(np.linalg.norm(P @ P - P))
    X = sample_points(K, n_samples, rng)
    images = X @ P.T
    violations = int(np.count_nonzero(~face_contains(F, images)))
    if ray_dual is not None:
        norms = np.linalg.norm(X, axis=1)
        coefs = X @ ray_dual
        violations += int(np.sum(coefs < -1e-10 * (1.0 + norms)))
    fixed = face_samples(F, min(512, n_samples), rng)
    # P @ f per row (a batched matrix-vector product, as for one f)
    moved = row_norms((P @ fixed[:, :, None])[:, :, 0] - fixed)
    violations += int(np.count_nonzero(moved > 1e-8 * (1.0 + row_norms(fixed))))
    return idem, violations, len(X) + len(fixed)


def _assert_pointed(K: ConeSpec, n_samples: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    X = sample_points(K, n_samples, rng)
    for x in X:
        if np.linalg.norm(x) <= 1e-9:
            continue
        if membership(K, -x).status is not Membership.OUTSIDE:
            raise ValueError(
                "cone is not pointed: it contains the line through "
                f"{np.array2string(x, precision=4)}"
            )


def _oriented_generator(K: ConeSpec, g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if membership(K, g).status is not Membership.OUTSIDE:
        return g
    if membership(K, -g).status is not Membership.OUTSIDE:
        return -g
    raise ValueError("neither orientation of the ray generator lies in the cone")


def build_rank_one_projection(
    K: ConeSpec,
    F: FaceHandle,
    *,
    n_samples: int = 10_000,
    seed: int = 0,
) -> ProjectionMap:
    """Rank-one retraction P = x z^T of a pointed cone onto an extreme ray.

    x generates the ray; z is the dual projection of x scaled to pairing
    one (falling back to the best-pairing dual sample when that projection
    is unavailable or degenerate).  Every image is then <z, v> x with a
    nonnegative coefficient on the cone, so P(K) is exactly the ray.
    """
    if F.face_dim != 1:
        raise ValueError(f"rank-one construction requires a ray; face_dim = {F.face_dim}")
    _assert_pointed(K, min(64, n_samples), seed)
    gens = F.descriptor.get("generators")
    raw = np.asarray(gens, dtype=float)[0] if gens is not None else F.span_basis[0]
    x = _oriented_generator(K, raw)

    z = None
    try:
        dual = dual_cone(K)
        p = project(dual, x).point
        pair = float(x @ p)
        if pair > 1e-9 * max(1.0, float(np.linalg.norm(p))):
            z = p / pair
    except UnsupportedVariantError:
        dual = None
    if z is None:
        rng = np.random.default_rng(seed)
        best_pair, best = 0.0, None
        if dual is not None:
            S = sample_points(dual, 512, rng)
            norms = np.maximum(np.linalg.norm(S, axis=1), 1e-30)
            rel = (S @ x) / norms
            j = int(np.argmax(rel))
            best_pair, best = float(S[j] @ x), S[j]
        if best is None or best_pair <= 1e-9:
            raise ValueError(
                "no dual element with positive pairing against the ray "
                "generator was found; this would contradict pointedness"
            )
        z = best / best_pair

    P = np.outer(x, z)
    idem, violations, checked = _certification_counts(
        P, K, F, n_samples, seed, ray_dual=z
    )
    return ProjectionMap(
        matrix=P,
        target_face=F,
        idempotency_residual=idem,
        containment_violations=violations,
        n_samples_checked=checked,
        pairing_residual=abs(float(x @ z) - 1.0),
    )


# ---------------------------------------------------------------------------
# Rank-two construction on a pair of exposed extreme rays
# ---------------------------------------------------------------------------


def _ray_face(K: ConeSpec, F: FaceHandle, g: np.ndarray, index: int) -> FaceHandle:
    try:
        return minimal_face(K, g)
    except UnsupportedVariantError:
        factory = F.descriptor.get("ray_faces")
        if factory is not None:
            return factory()[index]
        raise UnsupportedVariantError(
            "no ray-face construction is available for this cone; supply "
            "F.descriptor['ray_faces'] returning handles for the two "
            "generator rays"
        )


def _dual_slice_element(
    G: FaceHandle,
    pair_vec: np.ndarray,
    *,
    seed: int,
    label: str,
) -> np.ndarray:
    """Minimum-norm element of G with <pair_vec, .> = 1, found among 256
    samples of the conjugate face and polished with alternating projections.
    A polish that does not converge raises NonConvergenceError naming label."""
    rng = np.random.default_rng(seed)
    S = face_samples(G, 256, rng)
    norms = np.maximum(np.linalg.norm(S, axis=1), 1e-30)
    pairs = S @ pair_vec
    j = int(np.argmax(pairs / norms))
    if pairs[j] <= 1e-9 * max(1.0, float(norms[j])):
        raise NotSeparableError(
            f"not separable: all {len(S)} samples of the conjugate face pair "
            f"to zero against the opposite generator while building {label} "
            f"(largest pairing {float(pairs[j]):.3e}); the conjugate face "
            "appears to be contained in the opposite generator's orthogonal "
            "complement"
        )
    z = S[j] / float(pairs[j])

    nv2 = float(pair_vec @ pair_vec)

    def onto_slice(v):
        return v - ((float(pair_vec @ v) - 1.0) / nv2) * pair_vec

    try:
        res = dykstra_projectors(
            [lambda v: face_projection(G, v), onto_slice],
            np.zeros_like(z),
            tol_change=1e-13,
        )
        cand = np.asarray(res.point, dtype=float)
        on_slice = abs(float(pair_vec @ cand) - 1.0) <= 1e-9
        in_face = np.linalg.norm(face_projection(G, cand) - cand) <= 1e-9 * (
            1.0 + float(np.linalg.norm(cand))
        )
        if on_slice and in_face and np.linalg.norm(cand) <= np.linalg.norm(z) + 1e-9:
            z = cand / float(pair_vec @ cand)
    except NonConvergenceError as err:
        raise NonConvergenceError(
            f"polishing {label}: {err.message}", err.iterations, err.residual
        ) from err
    return z


def build_rank_two_projection(
    K: ConeSpec,
    F: FaceHandle,
    *,
    n_samples: int = 10_000,
    seed: int = 0,
) -> ProjectionMap:
    """Rank-two retraction P = x z2^T + y z1^T onto a 2-dim face.

    x, y are the face's extreme generators (taken from the handle's
    descriptor when stored, otherwise recovered as the angular extremes of
    the face's unit-sphere directions).  z1 lives in the conjugate face of
    the x-ray, so <x, z1> = 0 automatically, and is scaled to <y, z1> = 1;
    z2 symmetrically.  The four cross pairings are verified to 1e-10 and the
    assembled map is certified on cone samples.
    """
    if F.face_dim != 2:
        raise ValueError(
            f"rank-two construction requires a 2-dim face; face_dim = {F.face_dim}"
        )
    _assert_pointed(K, min(64, n_samples), seed)

    gens = F.descriptor.get("generators")
    if gens is not None:
        G = np.asarray(gens, dtype=float)
        if G.shape[0] != 2:
            raise ValueError(
                f"face descriptor stores {G.shape[0]} generators; exactly two are required"
            )
        x, y = G[0], G[1]
    else:
        from .hull_constants import face_sphere_directions

        dirs = face_sphere_directions(F, n_dirs=1024)
        coords = dirs @ F.span_basis.T
        mean = coords.mean(axis=0)
        mean /= max(np.linalg.norm(mean), 1e-30)
        angles = np.arctan2(
            coords[:, 0] * mean[1] - coords[:, 1] * mean[0], coords @ mean
        )
        x = dirs[int(np.argmin(angles))]
        y = dirs[int(np.argmax(angles))]
    x = _oriented_generator(K, x)
    y = _oriented_generator(K, y)

    for idx, g in enumerate((x, y)):
        ray = _ray_face(K, F, g, idx)
        res = is_exposed(K, ray)
        if res.status == "not_exposed":
            raise ValueError(
                f"generator ray {idx} is not an exposed face of the cone; "
                "the rank-two construction requires facial exposedness"
            )
        if res.status == "undecided":
            warnings.warn(
                f"exposedness of generator ray {idx} could not be certified; "
                "proceeding with the construction",
                RuntimeWarning,
                stacklevel=2,
            )

    Gx = conjugate_face(K, _ray_face(K, F, x, 0))
    Gy = conjugate_face(K, _ray_face(K, F, y, 1))
    z1 = _dual_slice_element(Gx, y, seed=seed, label="z1")
    z2 = _dual_slice_element(Gy, x, seed=seed + 1, label="z2")

    pairing_residual = max(
        abs(float(x @ z1)),
        abs(float(x @ z2) - 1.0),
        abs(float(y @ z1) - 1.0),
        abs(float(y @ z2)),
    )
    if pairing_residual > 1e-10:
        raise NotSeparableError(
            "not separable: cross pairings of the dual slice elements miss "
            f"the required values by {pairing_residual:.3e} "
            f"(<x,z1> = {float(x @ z1):.3e}, <x,z2> = {float(x @ z2):.6f}, "
            f"<y,z1> = {float(y @ z1):.6f}, <y,z2> = {float(y @ z2):.3e})"
        )

    P = np.outer(x, z2) + np.outer(y, z1)
    idem, violations, checked = _certification_counts(P, K, F, n_samples, seed)
    return ProjectionMap(
        matrix=P,
        target_face=F,
        idempotency_residual=idem,
        containment_violations=violations,
        n_samples_checked=checked,
        pairing_residual=pairing_residual,
    )


# ---------------------------------------------------------------------------
# Extreme-direction sampling of the dual cone
# ---------------------------------------------------------------------------


def extreme_ray_samples(K: ConeSpec, n: int, seed: int = 0) -> np.ndarray:
    """Unit generators of (sampled) extreme rays of the dual cone K*, by K's
    rule K._dual_rays.

    Closed-form parameterizations are used where available (gallery sets
    carry their own; orthants and second-order / semidefinite atoms have
    textbook extreme-ray families).  For an inequality-represented
    polyhedral cone the rows generate the dual and each is kept only if
    its minimal face in the dual is one-dimensional, which is exactly the
    perturbation test for extremeness.
    """
    return K._dual_rays(n, seed)


# ---------------------------------------------------------------------------
# Converging-extreme-ray probe for codimension-1 faces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SungTamResult:
    """Outcome of the converging-extreme-ray search around the conjugate ray.

    ``levels`` holds one (radius, hit count) pair per schedule entry; the
    probe reports success only when every neighborhood in the shrinking
    schedule contains a sampled extreme direction distinct from w.  The
    nearest representative per populated level is kept in ``rays``.
    """

    found: bool
    w: np.ndarray
    levels: tuple
    rays: np.ndarray
    nearest_distance: float
    n_rays: int

    @property
    def status(self) -> str:
        return "converging_extreme_rays" if self.found else "no_converging_sequence_found"

    def to_report(self) -> dict:
        return {
            "status": self.status,
            "found": bool(self.found),
            "w": [float(v) for v in self.w],
            "levels": [
                {"radius": float(r), "count": int(c)} for r, c in self.levels
            ],
            "rays": [[float(v) for v in row] for row in self.rays],
            "nearest_distance": float(self.nearest_distance),
            "n_rays": int(self.n_rays),
        }


def _conjugate_ray_direction(K: ConeSpec, F: FaceHandle) -> np.ndarray:
    stored = F.descriptor.get("conjugate_ray")
    if stored is not None:
        w = np.asarray(stored, dtype=float)
    else:
        G = conjugate_face(K, F)
        if G.face_dim != 1:
            raise ValueError(
                "the conjugate of the face is not a ray "
                f"(dimension {G.face_dim}); the probe's hypotheses fail"
            )
        w = np.asarray(G.span_basis[0], dtype=float)
        try:
            if membership(dual_cone(K), w).status is Membership.OUTSIDE:
                w = -w
        except UnsupportedVariantError:
            pass
    norm = float(np.linalg.norm(w))
    if norm <= 1e-12:
        raise ValueError("conjugate ray direction is numerically zero")
    return w / norm


def sung_tam_probe(
    K: ConeSpec,
    F: FaceHandle,
    n_rays: int = 512,
    shrink_schedule=None,
    *,
    seed: int = 0,
) -> SungTamResult:
    """Search for extreme rays of K* accumulating at the conjugate ray of F.

    F must be a codimension-1 face of a pointed full-dimensional cone whose
    conjugate face is a ray, generated by unit w.  Sampled unit extreme
    directions of the dual are counted inside each neighborhood radius of
    the shrinking schedule (default 0.5 * 2^-k for k = 0..12), ignoring
    directions within 1e-6 of w itself.  Hits at every level mean
    extreme rays distinct from w approach w, which rules out projectional
    exposedness of F; an empty deepest level is evidence in its favor.
    """
    ambient = K.dim
    span = cone_span_dim(K)
    if span != ambient:
        raise ValueError(
            f"the probe requires a full-dimensional cone; span dimension "
            f"{span} < ambient dimension {ambient}"
        )
    codim = ambient - F.face_dim
    if codim != 1:
        raise ValueError(
            f"the probe requires a codimension-1 face; this face has "
            f"codimension {codim}"
        )
    _assert_pointed(K, 32, seed)

    if shrink_schedule is None:
        shrink_schedule = tuple(0.5 * 0.5**k for k in range(13))
    radii = tuple(float(r) for r in shrink_schedule)
    if not radii or any(r <= 0 for r in radii) or any(
        b >= a for a, b in zip(radii, radii[1:])
    ):
        raise ValueError("shrink schedule must be positive and strictly decreasing")

    w = _conjugate_ray_direction(K, F)
    rays = extreme_ray_samples(K, n_rays, seed=seed)
    dists = np.linalg.norm(rays - w, axis=1)
    distinct = dists > 1e-6

    levels = []
    hits = []
    for r in radii:
        mask = distinct & (dists <= r)
        count = int(mask.sum())
        levels.append((r, count))
        if count:
            masked = np.where(mask, dists, np.inf)
            hits.append(rays[int(np.argmin(masked))])
    found = all(count > 0 for _, count in levels)
    if hits:
        reps = sorted_unique(np.round(np.vstack(hits), 12))
    else:
        reps = np.zeros((0, rays.shape[1]))
    nearest = float(dists[distinct].min()) if bool(distinct.any()) else float("inf")
    return SungTamResult(
        found=found,
        w=w,
        levels=tuple(levels),
        rays=reps,
        nearest_distance=nearest,
        n_rays=len(rays),
    )


# ---------------------------------------------------------------------------
# Consistency check: amenability evidence vs converging extreme rays
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Codim1ConsistencyReport:
    """Joint reading of an error-bound estimate and the extreme-ray probe.

    For a codimension-1 face, bounded-ratio evidence (amenability) together
    with converging extreme rays cannot both be right: amenable
    codimension-1 faces are projectionally exposed, which the converging
    rays would rule out.  That cell is flagged as a contradiction; every
    other combination is consistent or merely inconclusive.
    """

    kappa_verdict: str
    converging_found: bool
    contradiction: bool
    note: str
    evidence: ErrorBoundEstimate
    probe: SungTamResult

    @property
    def consistent(self) -> bool:
        return not self.contradiction

    def to_report(self) -> dict:
        return {
            "kappa_verdict": self.kappa_verdict,
            "converging_found": bool(self.converging_found),
            "contradiction": bool(self.contradiction),
            "consistent": bool(self.consistent),
            "note": self.note,
            "kappa_hat": float(self.evidence.kappa_hat),
            "probe": self.probe.to_report(),
        }


def codim1_amenable_implies_pexp_check(
    K: ConeSpec,
    F: FaceHandle,
    *,
    evidence: ErrorBoundEstimate | None = None,
    region: BoundedRegion | None = None,
    n_samples: int = 64,
    refine_from=None,
) -> Codim1ConsistencyReport:
    """Cross-check amenability evidence against the converging-ray probe.
    Both run at seed 0, the probe on its default rays and schedule.

    When no evidence is supplied, an error-bound estimate is computed on a
    unit ball centered at the mean of a few face samples.  The only flagged
    combination is bounded evidence with converging extreme rays found; see
    Codim1ConsistencyReport.
    """
    probe = sung_tam_probe(K, F)
    if evidence is None:
        if region is None:
            center = face_samples(F, 8, np.random.default_rng(0)).mean(axis=0)
            region = BoundedRegion(center=center, radius=1.0)
        evidence = estimate_kappa(K, F, region, n_samples=n_samples, refine_from=refine_from)

    verdict = evidence.verdict
    contradiction = verdict == "bounded" and probe.found
    if contradiction:
        note = (
            "contradiction: bounded-ratio evidence together with converging "
            "extreme rays; one of the two is wrong (implementation bug or "
            "insufficient sampling)"
        )
    elif verdict == "bounded":
        note = "consistent: bounded-ratio evidence and no converging extreme rays"
    elif verdict == "growth_detected" and probe.found:
        note = (
            "consistent: ratio growth alongside converging extreme rays "
            "(the contrapositive direction)"
        )
    elif verdict == "growth_detected":
        note = (
            "consistent: ratio growth with no converging extreme rays; "
            "growth alone does not decide projectional exposedness"
        )
    else:
        note = "inconclusive amenability evidence; no consistency claim made"
    return Codim1ConsistencyReport(
        kappa_verdict=verdict,
        converging_found=probe.found,
        contradiction=contradiction,
        note=note,
        evidence=evidence,
        probe=probe,
    )

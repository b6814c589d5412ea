"""Registry of named verification checks for the command-line runner.

Each check re-measures one of the library's headline guarantees end to end
and reports the measured quantities next to the thresholds they must meet,
so a failing run shows what was observed rather than a bare boolean.  The
registry keys are stable names addressable from the command line:

sturm, witness_asymptotics, det_M, exposing_normals, dual_sum,
slice_bound, moreau, sung_tam_gallery, projections_dim4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gallery
from .amenability_probe import (
    WitnessCurve,
    blr_check,
    evaluate_witness,
    ratio_table,
)
from .cone_algebra import (
    ConicHull,
    NonnegativeOrthant,
    PsdCone,
    SecondOrderCone,
    SliceSpec,
    dual_cone,
    sample_points,
)
from .facial_structure import FaceHandle, dual_sum_membership, minimal_face
from .hull_constants import verify_slice_bound
from .linalg_core import BoundedRegion, norm_scale, orthonormalize, row_norms, sym_to_vec
from .projection_engine import moreau_decompose, project
from .proj_exposed import (
    build_rank_one_projection,
    build_rank_two_projection,
    sung_tam_probe,
)

__all__ = ["CheckResult", "CHECKS", "run_check", "run_all"]


@dataclass(frozen=True, eq=False)
class CheckResult:
    """Outcome of one named verification check.

    ``measured`` holds the observed quantities, ``expected`` the thresholds
    they were held against; both are flat dicts of numbers and short
    strings so reports serialize directly.
    """

    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    note: str = ""

    def to_report(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": dict(self.measured),
            "expected": dict(self.expected),
            "note": self.note,
        }


def check_sturm() -> CheckResult:
    """The slice family beats any linear error bound, yet every fixed ball
    yields a finite constant: unboundedness is a global phenomenon."""
    S = gallery.sturm_slice()
    F = gallery.sturm_face()
    measured: dict = {}
    ok = True
    for kappa in (1.0, 10.0, 100.0):
        eps = 0.1 / kappa
        row = ratio_table(S, F, [gallery.sturm_family(eps).x_eps],
                          denominator="sum")[0]
        measured[f"ratio_at_kappa_{int(kappa)}"] = float(row.ratio)
        ok = ok and row.ratio > kappa
    est = blr_check(
        S, F, BoundedRegion(center=np.array([1.0, 0.0, 1.0]), radius=3.0),
        n_samples=768,
    )
    measured["ball_radius_3_verdict"] = est.verdict
    measured["ball_radius_3_kappa_hat"] = float(est.kappa_hat)
    ok = ok and est.verdict == "bounded"
    return CheckResult(
        name="sturm",
        passed=ok,
        measured=measured,
        expected={
            "ratio_at_kappa_k": "> k for k in {1, 10, 100}",
            "ball_radius_3_verdict": "bounded",
        },
        note="escaping family defeats global bounds; local ball stays bounded",
    )


def check_witness_asymptotics() -> CheckResult:
    """Witness curve: face distance matches the closed form and the
    face-to-set distance ratio decays at fourth order in t."""
    C = gallery.body(2048)
    F = gallery.face_disk_top(C)
    rep = evaluate_witness(
        C, F, WitnessCurve(gallery.witness_w, (0.2, 0.1, 0.05, 0.025))
    )
    max_err = max(
        abs(dist_face**2 - gallery.witness_face_distance_sq(t))
        for t, dist_face, _, _ in rep.rows
    )
    slope = float(rep.slope)
    ok = max_err <= 1e-10 and abs(slope - 4.0) <= 0.3
    return CheckResult(
        name="witness_asymptotics",
        passed=ok,
        measured={"max_face_distance_sq_error": float(max_err), "slope": slope},
        expected={"max_face_distance_sq_error": 1e-10, "slope": "4.0 +/- 0.3"},
        note="squared ratio slope on log-log grid t = 0.2 .. 0.025",
    )


def check_det_m() -> CheckResult:
    """Arc-chord determinant: numeric 3x3 determinant equals the closed
    form on a 50 x 50 parameter grid, with the bracket factor >= 2."""
    grid = np.linspace(0.0, np.pi, 52)[1:-1]
    max_err = 0.0
    min_bracket = np.inf
    n_pairs = 0
    for i, t in enumerate(grid):
        for s in grid[i + 1 :]:
            ident = gallery.det_M(float(t), float(s))
            max_err = max(max_err, abs(ident.numeric - ident.closed_form))
            min_bracket = min(min_bracket, ident.bracket)
            n_pairs += 1
    ok = max_err <= 1e-8 and min_bracket >= 2.0
    return CheckResult(
        name="det_M",
        passed=ok,
        measured={
            "max_abs_error": float(max_err),
            "min_bracket": float(min_bracket),
            "n_pairs": n_pairs,
        },
        expected={"max_abs_error": 1e-8, "min_bracket": ">= 2.0"},
        note="grid 0 < t < s < pi, 50 values per axis",
    )


def check_exposing_normals() -> CheckResult:
    """Each computed normal strictly separates its top-circle point from a
    dense sample of the body."""
    pts, _ = gallery.curve_cloud(2048)
    min_margin = np.inf
    max_support_err = 0.0
    for t in (0.3, 1.0, np.pi / 2.0, np.pi, 5.0):
        p = gallery.exposing_normal(t)
        sv = float(gallery.curve_alpha(t) @ p)
        max_support_err = max(max_support_err, abs(sv - (1.0 + p[2])))
        others = pts @ p
        # exclude the exposed point itself from the strictness margin
        keep = np.linalg.norm(pts - gallery.curve_alpha(t), axis=1) > 1e-9
        min_margin = min(min_margin, sv - float(others[keep].max()))
    ok = min_margin > 0.0 and max_support_err <= 1e-12
    return CheckResult(
        name="exposing_normals",
        passed=ok,
        measured={
            "min_strict_margin": float(min_margin),
            "max_support_value_error": float(max_support_err),
        },
        expected={"min_strict_margin": "> 0", "max_support_value_error": 1e-12},
        note="margins over a 2048-sample cloud at five parameters",
    )


def check_dual_sum() -> CheckResult:
    """The dual-plus-complement sum of the cylinder hull matches its closed
    membership formula pointwise, and boundary points decompose."""
    obj = gallery.cylinder_hull_objects()
    F = obj.face
    rng = np.random.default_rng(0)
    inside = sample_points(obj.dual_sum_set, 5000, rng)
    ambient = rng.standard_normal((10_000, 4)) * 2.0
    disagreements = 0
    n_checked = 0
    for s in np.vstack([inside, ambient]):
        gauge = float(np.linalg.norm(s[:2]) - (s[2] + s[3]))
        scale = 1e-9 * max(1.0, float(np.linalg.norm(s)))
        if abs(gauge) <= scale:
            continue  # on the boundary both answers are legitimate
        n_checked += 1
        if dual_sum_membership(obj.hull, F, s).in_sum != (gauge < 0.0):
            disagreements += 1
    # boundary decomposition: points with the gauge exactly active
    max_residual = 0.0
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    for th in theta:
        for z in (-1.0, -0.2, 0.4, 1.3):
            w = 2.0 - z  # radius z + w = 2 on the boundary
            s = np.array([2.0 * np.cos(th), 2.0 * np.sin(th), z, w])
            res = dual_sum_membership(obj.hull, F, s)
            if not res.in_sum:
                max_residual = np.inf
                continue
            recon = float(np.linalg.norm(res.dual_part + res.perp_part - s))
            dual_gauge = float(
                np.linalg.norm(res.dual_part[:2])
                + abs(res.dual_part[2])
                - res.dual_part[3]
            )
            perp_off = float(
                np.hypot(res.perp_part[0], res.perp_part[1])
                + abs(res.perp_part[2] + res.perp_part[3])
            )
            max_residual = max(
                max_residual, recon, max(dual_gauge, 0.0), perp_off, res.residual
            )
    ok = disagreements == 0 and max_residual < 1e-9
    return CheckResult(
        name="dual_sum",
        passed=ok,
        measured={
            "n_checked": n_checked,
            "disagreements": disagreements,
            "max_boundary_residual": float(max_residual),
        },
        expected={"disagreements": 0, "max_boundary_residual": 1e-9},
        note="over 10^4 sampled points plus 256 boundary decompositions",
    )


def check_slice_bound() -> CheckResult:
    """Distance-to-cone bounds distance-to-hull on the slice's affine
    hyperplane, for the gallery hull and a random shifted polytope."""
    rep_gallery = verify_slice_bound(
        gallery.conic_hull_of_body(512), n_samples=1000, density=512, seed=0
    )
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.normal(2.0, 0.6, size=(40, 4)), np.ones(40)])
    poly = ConicHull(
        SliceSpec(e=np.array([0.0, 0.0, 0.0, 0.0, 1.0]), sampler=lambda n: pts)
    )
    rep_poly = verify_slice_bound(poly, n_samples=1000, density=40, seed=1, spread=2.0)
    ok = rep_gallery.violations == 0 and rep_poly.violations == 0
    return CheckResult(
        name="slice_bound",
        passed=ok,
        measured={
            "gallery_violations": rep_gallery.violations,
            "gallery_worst_margin": float(rep_gallery.worst_margin),
            "polytope_violations": rep_poly.violations,
            "polytope_worst_margin": float(rep_poly.worst_margin),
        },
        expected={"violations": 0, "tolerance": float(rep_gallery.tol)},
        note="1000 hyperplane samples each; both sides against one cloud",
    )


def check_moreau() -> CheckResult:
    """Decomposition x = P_K(x) + P_polar(x) with orthogonal parts and the
    polar part in the polar cone, across the three atom families."""
    cones = (NonnegativeOrthant(8), SecondOrderCone(10), PsdCone(5))
    max_residual = 0.0
    max_cross = 0.0
    max_polar_gap = 0.0
    rng = np.random.default_rng(0)
    for K in cones:
        dual = dual_cone(K)
        X = rng.standard_normal((10_000, K.dim)) * 1.5
        for x in X:
            split = moreau_decompose(K, x)
            scale = max(1.0, float(np.linalg.norm(x)))
            recon = float(
                np.linalg.norm(split.original - split.cone_part - split.polar_part)
            )
            max_residual = max(max_residual, recon / scale)
            max_cross = max(max_cross, split.residual / scale**2)
            nearest = project(dual, -split.polar_part).point
            gap = float(np.linalg.norm(-split.polar_part - nearest))
            max_polar_gap = max(max_polar_gap, gap / scale)
    ok = max_residual <= 1e-10 and max_cross <= 1e-10 and max_polar_gap <= 1e-10
    return CheckResult(
        name="moreau",
        passed=ok,
        measured={
            "max_residual": float(max_residual),
            "max_orthogonality_gap": float(max_cross),
            "max_polar_membership_gap": float(max_polar_gap),
        },
        expected={
            "max_residual": 1e-10,
            "max_orthogonality_gap": 1e-10,
            "max_polar_membership_gap": 1e-10,
        },
        note="10^4 points per cone: orthant(8), second_order(10), psd(5)",
    )


def check_sung_tam_gallery() -> CheckResult:
    """Extreme dual rays accumulate at the disk-conjugate tip of the
    gallery hull but stay isolated for an orthant facet."""
    K = NonnegativeOrthant(3)
    F = minimal_face(K, np.array([1.0, 1.0, 0.0]))
    res_orthant = sung_tam_probe(K, F)
    hull = gallery.conic_hull_of_body()
    res_gallery = sung_tam_probe(
        hull,
        gallery.lifted_disk_face(hull),
        shrink_schedule=tuple(0.5 * 2.0**-k for k in range(9)),
    )
    deepest = res_gallery.levels[-1]
    ok = (not res_orthant.found) and res_gallery.found
    return CheckResult(
        name="sung_tam_gallery",
        passed=ok,
        measured={
            "orthant_status": res_orthant.status,
            "gallery_status": res_gallery.status,
            "gallery_deepest_radius": float(deepest[0]),
            "gallery_deepest_count": int(deepest[1]),
            "gallery_nearest_distance": float(res_gallery.nearest_distance),
        },
        expected={
            "orthant_status": "no_converging_sequence_found",
            "gallery_status": "converging_extreme_rays",
        },
        note="gallery probed through eight halvings of the neighborhood",
    )


def _diagonal_psd_face(K: PsdCone) -> FaceHandle:
    """The cone of diagonal PSD(2) matrices, spanned by diag(1, 0) and
    diag(0, 1): in the embedding (X11, sqrt(2) X12, X22) the off-diagonal
    coordinate is zero and the diagonal ones are nonnegative. Projector and
    membership are closed forms that map (..., 3) stacks row by row."""
    gens = np.array(
        [sym_to_vec(np.diag([1.0, 0.0])), sym_to_vec(np.diag([0.0, 1.0]))]
    )

    def projector(x):
        p = np.maximum(x, 0.0)
        p[..., 1] = 0.0
        return p

    def member(x, tol=None):
        return row_norms(x - projector(x)) <= 1e-9 * norm_scale(x)

    return FaceHandle(
        parent=K,
        span_basis=orthonormalize(gens),
        membership=member,
        exact_projector=projector,
        descriptor={
            "kind": "diagonal",
            "stacks": ("membership", "exact_projector"),
            "generators": gens,
            "sampler": lambda n, rng: rng.gamma(2.0, 1.0, (n, 2)) @ gens,
        },
    )


def check_projections_dim4() -> CheckResult:
    """Rank-one and rank-two retractions certify on 10^4 cone samples for
    the orthant, the semidefinite diagonal pair, and the cylinder hull."""
    obj = gallery.cylinder_hull_objects()
    orthant = NonnegativeOrthant(3)
    psd = PsdCone(2)
    builds = (
        (
            "orthant_ray",
            build_rank_one_projection(
                orthant, minimal_face(orthant, np.array([1.0, 0.0, 0.0]))
            ),
        ),
        (
            "psd_ray",
            build_rank_one_projection(
                psd, minimal_face(psd, sym_to_vec(np.diag([1.0, 0.0])))
            ),
        ),
        (
            "cylinder_seam_ray",
            build_rank_one_projection(
                obj.hull, gallery.seam_ray_faces(obj.hull)[0]
            ),
        ),
        (
            "orthant_face",
            build_rank_two_projection(
                orthant, minimal_face(orthant, np.array([1.0, 1.0, 0.0]))
            ),
        ),
        (
            "psd_diagonal",
            build_rank_two_projection(psd, _diagonal_psd_face(psd)),
        ),
        (
            "cylinder_seam_face",
            build_rank_two_projection(obj.hull, gallery.seam_face(obj.hull)),
        ),
    )
    max_idem = max(pm.idempotency_residual for _, pm in builds)
    total_violations = sum(pm.containment_violations for _, pm in builds)
    measured: dict = {
        "max_idempotency_residual": float(max_idem),
        "total_containment_violations": int(total_violations),
    }
    for label, pm in builds:
        measured[f"{label}_idempotency"] = float(pm.idempotency_residual)
    ok = max_idem < 1e-12 and total_violations == 0
    return CheckResult(
        name="projections_dim4",
        passed=ok,
        measured=measured,
        expected={
            "max_idempotency_residual": 1e-12,
            "total_containment_violations": 0,
        },
        note="six constructed maps, 10^4 cone samples each",
    )


CHECKS = {
    "sturm": check_sturm,
    "witness_asymptotics": check_witness_asymptotics,
    "det_M": check_det_m,
    "exposing_normals": check_exposing_normals,
    "dual_sum": check_dual_sum,
    "slice_bound": check_slice_bound,
    "moreau": check_moreau,
    "sung_tam_gallery": check_sung_tam_gallery,
    "projections_dim4": check_projections_dim4,
}


def run_check(name: str) -> CheckResult:
    """Run one registered check by name; unknown names list the registry."""
    if name not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        raise ValueError(f"unknown check {name!r}; known checks: {known}")
    return CHECKS[name]()


def run_all() -> tuple:
    """Run every registered check in registry order."""
    return tuple(fn() for fn in CHECKS.values())

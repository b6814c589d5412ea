"""Transfer constants: slice radius, antipodality, and the pointwise verifiers."""

import numpy as np
import pytest

from conelab import gallery
from conelab.amenability_probe import estimate_kappa
from conelab.cone_algebra import (
    ConicHull,
    GallerySet,
    Membership,
    MembershipResult,
    NonnegativeOrthant,
    PolyhedralCone,
    PsdCone,
    SecondOrderCone,
    SliceSpec,
    UnsupportedVariantError,
    get_slice,
)
from conelab.facial_structure import FaceHandle, face_projection, full_face, minimal_face
from conelab.hull_constants import (
    AntipodalityEstimate,
    DegenerateFaceError,
    HullConstants,
    antipodality_alpha,
    beta_from_alpha,
    build_constants,
    face_sphere_directions,
    slice_radius,
    verify_monotone_shift,
    verify_slice_bound,
)
from conelab.linalg_core import DEFAULT_TOL, BoundedRegion, sym_to_vec, unit_sphere_grid
from conelab.projection_engine import ProjectionResult, project


SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


# ---------------------------------------------------------------------------
# Shared objects
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cylinder():
    return gallery.cylinder_hull_objects()


def _disk_slice():
    """Unit circle at height one: every sample has norm sqrt(2)."""

    def sampler(n):
        th = np.linspace(0.0, 2.0 * np.pi, max(int(n), 4), endpoint=False)
        return np.column_stack([np.cos(th), np.sin(th), np.ones_like(th)])

    return SliceSpec(e=np.array([0.0, 0.0, 1.0]), sampler=sampler)


def _cylinder_body3():
    """conv(top circle + bottom circle) = unit disk x [-1, 1] in R^3."""

    def project_fn(x):
        x = np.asarray(x, dtype=float)
        ab = x[:2]
        s = float(np.linalg.norm(ab))
        p = np.array([*(ab if s <= 1.0 else ab / s), min(1.0, max(-1.0, x[2]))])
        return ProjectionResult(p, float(np.linalg.norm(x - p)), "closed_form", 0, 0.0)

    def member_fn(x, tol=DEFAULT_TOL):
        x = np.asarray(x, dtype=float)
        worst = max(float(np.linalg.norm(x[:2])) - 1.0, abs(x[2]) - 1.0)
        eps = tol.margin(max(1.0, float(np.linalg.norm(x))))
        if worst > eps:
            return MembershipResult(Membership.OUTSIDE, True, max(worst, 0.0))
        status = Membership.INSIDE if worst < -eps else Membership.BOUNDARY
        return MembershipResult(status, True, 0.0)

    def sample_fn(n, rng):
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        rad = np.sqrt(rng.uniform(0.0, 1.0, n))
        return np.column_stack([rad * np.cos(th), rad * np.sin(th), rng.uniform(-1, 1, n)])

    return GallerySet(
        name="cylinder_body",
        ambient_dim=3,
        is_cone=False,
        member_fn=member_fn,
        project_fn=project_fn,
        sample_fn=sample_fn,
    )


def _top_disk_face(body3):
    def projector(x):
        x = np.asarray(x, dtype=float)
        ab = x[:2]
        s = float(np.linalg.norm(ab))
        return np.array([*(ab if s <= 1.0 else ab / s), 1.0])

    return FaceHandle(
        parent=body3,
        span_basis=np.eye(3)[:2],
        membership=lambda x, tol: abs(x[2] - 1.0) <= 1e-9
        and float(np.linalg.norm(x[:2])) <= 1.0 + 1e-9,
        exact_projector=projector,
        affine_basepoint=np.array([0.0, 0.0, 1.0]),
    )


# ---------------------------------------------------------------------------
# Slice radius
# ---------------------------------------------------------------------------


class TestSliceRadius:
    def test_disk_at_height_one(self):
        assert slice_radius(_disk_slice(), 512) == pytest.approx(SQRT2, abs=1e-12)

    def test_simplex_vertices(self):
        verts = np.eye(3)

        def sampler(n):
            rng = np.random.default_rng(0)
            w = rng.dirichlet(np.ones(3), size=max(int(n), 4))
            return np.vstack([verts, w @ verts])

        spec = SliceSpec(e=np.array([1.0, 1.0, 1.0]), sampler=sampler)
        assert slice_radius(spec, 64) == pytest.approx(1.0, abs=1e-12)

    def test_gallery_hull_radius(self):
        s = get_slice(gallery.conic_hull_of_body(256))
        r = slice_radius(s, 2048)
        assert r == pytest.approx(np.sqrt(10.0), rel=1e-4)
        assert r <= np.sqrt(10.0) + 1e-12

    def test_nondecreasing_under_refinement(self):
        s = get_slice(gallery.conic_hull_of_body(256))
        values = [slice_radius(s, d) for d in (256, 512, 1024)]
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_cylinder_slice_radius_exact(self, cylinder):
        assert slice_radius(get_slice(cylinder.hull), 256) == pytest.approx(
            SQRT3, abs=1e-12
        )

    def test_empty_sampler_raises(self):
        spec = SliceSpec(e=np.array([0.0, 1.0]), sampler=lambda n: np.zeros((0, 2)))
        with pytest.raises(ValueError, match="no points"):
            slice_radius(spec, 16)


# ---------------------------------------------------------------------------
# Antipodality
# ---------------------------------------------------------------------------


class TestAntipodality:
    def test_orthant2_in_own_span(self):
        est = antipodality_alpha(full_face(NonnegativeOrthant(2)), 4096)
        assert est.alpha == pytest.approx(-SQRT2 / 2, abs=1e-9)
        assert est.grid_minmax == pytest.approx(-SQRT2 / 2, abs=1e-9)
        assert est.face_dim == 2

    def test_halfplane_zero(self):
        half = PolyhedralCone(inequalities=np.array([[1.0, 0.0]]))
        est = antipodality_alpha(full_face(half), 4096)
        assert est.alpha == pytest.approx(0.0, abs=1e-9)
        assert est.alpha <= 0.0

    def test_lifted_disk_cone_value(self):
        est = antipodality_alpha(full_face(SecondOrderCone(3)), 4096)
        assert est.alpha == pytest.approx(-1.0 / SQRT2, abs=1e-8)

    def test_cylinder_face_value(self, cylinder):
        est = antipodality_alpha(cylinder.face, 4096)
        assert est.alpha == pytest.approx(-np.sqrt(2.0 / 3.0), abs=1e-8)

    def test_grid_stable_to_1e3(self):
        vals = [
            antipodality_alpha(full_face(SecondOrderCone(3)), n).alpha
            for n in (2048, 4096, 8192)
        ]
        assert abs(vals[0] - vals[1]) <= 1e-3
        assert abs(vals[1] - vals[2]) <= 1e-3

    def test_grid_minmax_nonincreasing_under_refinement(self):
        F = full_face(SecondOrderCone(3))
        vals = [antipodality_alpha(F, n).grid_minmax for n in (1024, 2048, 4096)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_polished_value_below_grid_minmax(self):
        for F in (full_face(SecondOrderCone(3)), full_face(NonnegativeOrthant(2))):
            est = antipodality_alpha(F, 2048)
            assert est.alpha <= est.grid_minmax + 1e-12

    def test_ray_face_raises(self):
        F = minimal_face(NonnegativeOrthant(2), np.array([1.0, 0.0]))
        with pytest.raises(DegenerateFaceError, match="beta = 1"):
            antipodality_alpha(F, 256)

    def test_error_bar_shrinks(self):
        F = full_face(SecondOrderCone(3))
        coarse = antipodality_alpha(F, 1024)
        fine = antipodality_alpha(F, 8192)
        assert 0.0 < fine.error_bar < coarse.error_bar

    def test_float_conversion(self):
        est = antipodality_alpha(full_face(NonnegativeOrthant(2)), 512)
        assert float(est) == est.alpha

    def test_direction_pool_is_unit_and_in_face(self):
        K = SecondOrderCone(3)
        F = full_face(K)
        dirs = face_sphere_directions(F, 512)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9)
        assert all(F.contains(d) for d in dirs)


def _reference_sphere_directions(F, n_dirs):
    """face_sphere_directions as a row-by-row loop: one face projection and
    one np.linalg.norm per grid direction; the rows are de-duplicated by
    np.unique, with each zero then written as +0.0."""
    grid = unit_sphere_grid(F.face_dim, n_dirs) @ F.span_basis
    dirs = []
    for g in grid:
        p = face_projection(F, g)
        nrm = float(np.linalg.norm(p))
        if nrm > 1e-9:
            dirs.append(p / nrm)
    return np.unique(np.round(np.asarray(dirs), 12), axis=0) + 0.0


def _sphere_direction_faces():
    return {
        "orthant": minimal_face(NonnegativeOrthant(3), np.array([1.0, 1.0, 0.0])),
        "psd_range": minimal_face(PsdCone(3), sym_to_vec(np.diag([1.0, 1.0, 0.0]))),
        "soc_ray": minimal_face(SecondOrderCone(3), np.array([1.0, 0.0, 1.0])),
        "seam_face": gallery.seam_face(gallery.cylinder_hull_objects().hull),
    }


class TestFaceSphereDirections:
    @pytest.mark.parametrize("name", ["orthant", "psd_range", "soc_ray", "seam_face"])
    @pytest.mark.parametrize("n_dirs", [300, 1024])
    def test_equals_the_row_by_row_loop_bitwise(self, name, n_dirs):
        F = _sphere_direction_faces()[name]
        dirs = face_sphere_directions(F, n_dirs)
        ref = _reference_sphere_directions(F, n_dirs)
        assert dirs.shape == ref.shape
        assert dirs.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Beta and the constants record
# ---------------------------------------------------------------------------


class TestConstants:
    def test_beta_values(self):
        assert beta_from_alpha(0.0) == 1.0
        assert beta_from_alpha(-SQRT2 / 2) == pytest.approx(SQRT2, abs=1e-12)
        assert beta_from_alpha(-np.sqrt(2.0 / 3.0)) == pytest.approx(SQRT3, abs=1e-12)

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            beta_from_alpha(-1.0)
        with pytest.raises(ValueError):
            beta_from_alpha(1.5)

    def test_build_constants_cylinder(self, cylinder):
        consts = build_constants(cylinder.hull, cylinder.face, kappa_slice=1.0, n_dirs=4096)
        assert consts.r == pytest.approx(SQRT3, abs=1e-12)
        assert consts.alpha == pytest.approx(-np.sqrt(2.0 / 3.0), abs=1e-8)
        assert consts.beta == pytest.approx(SQRT3, abs=1e-8)
        assert consts.e_norm == pytest.approx(1.0, abs=1e-12)
        assert consts.gamma == pytest.approx(3.0, abs=1e-7)

    def test_record_rejects_inconsistent_beta(self):
        with pytest.raises(ValueError, match="beta"):
            HullConstants(r=1.0, alpha=-0.5, beta=2.0, kappa_slice=1.0, gamma=2.0, e_norm=1.0)

    def test_record_rejects_inconsistent_gamma(self):
        beta = beta_from_alpha(-0.5)
        with pytest.raises(ValueError, match="gamma"):
            HullConstants(r=1.0, alpha=-0.5, beta=beta, kappa_slice=1.0, gamma=9.0, e_norm=1.0)

    def test_record_rejects_bad_ranges(self):
        beta = beta_from_alpha(-0.5)
        with pytest.raises(ValueError):
            HullConstants(r=0.0, alpha=-0.5, beta=beta, kappa_slice=1.0, gamma=beta, e_norm=1.0)
        with pytest.raises(ValueError):
            HullConstants(r=1.0, alpha=0.5, beta=1.0, kappa_slice=1.0, gamma=1.0, e_norm=1.0)

    def test_report_and_text(self, cylinder):
        consts = build_constants(cylinder.hull, cylinder.face, kappa_slice=1.0, n_dirs=2048)
        report = consts.to_report()
        assert set(report) == {
            "r", "alpha", "alpha_error_bar", "beta", "kappa_slice", "e_norm", "gamma",
        }
        block = consts.text_block()
        assert "gamma" in block and "kappa_slice" in block

    def test_build_requires_slice(self):
        F = full_face(NonnegativeOrthant(3))
        with pytest.raises(UnsupportedVariantError):
            build_constants(NonnegativeOrthant(3), F, kappa_slice=1.0)


# ---------------------------------------------------------------------------
# Slice bound verifier
# ---------------------------------------------------------------------------


class TestSliceBound:
    def test_gallery_zero_violations(self):
        rep = verify_slice_bound(
            gallery.conic_hull_of_body(256), n_samples=200, density=256, seed=0
        )
        assert rep.ok and rep.violations == 0
        assert rep.worst_margin <= rep.tol
        assert rep.n_kept + rep.n_rejected == rep.n_samples
        assert rep.n_kept >= 150

    def test_random_polytope_zero_violations_and_rejections(self):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.normal(2.0, 0.6, size=(40, 4)), np.ones(40)])
        poly = ConicHull(SliceSpec(e=np.array([0.0, 0.0, 0.0, 0.0, 1.0]), sampler=lambda n: pts))
        rep = verify_slice_bound(poly, n_samples=300, density=40, seed=1, spread=2.0)
        assert rep.ok and rep.violations == 0
        assert rep.n_rejected > 0
        assert rep.worst_margin <= 1e-10

    def test_point_of_slice_has_both_sides_zero(self):
        s = get_slice(gallery.conic_hull_of_body(256))
        cloud = np.asarray(s.sampler(256))
        from conelab.projection_engine import project_conic_generators, project_hull

        x = cloud.mean(axis=0)
        p, _, _ = project_conic_generators(cloud, x)
        assert np.linalg.norm(x - p) <= 1e-9
        assert project_hull(cloud, x).distance <= 1e-9

    def test_report_shape(self):
        rep = verify_slice_bound(
            gallery.conic_hull_of_body(256), n_samples=32, density=256, seed=2
        )
        d = rep.to_report()
        assert {"n_kept", "n_rejected", "r", "worst_margin", "violations", "ok"} <= set(d)

    def test_no_slice_raises(self):
        with pytest.raises(UnsupportedVariantError):
            verify_slice_bound(NonnegativeOrthant(3), n_samples=8)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_samples": -1}, "n_samples"),
            ({"spread": float("nan")}, "spread"),
            ({"spread": float("inf")}, "spread"),
            ({"spread": 0.0}, "spread"),
            ({"spread": -1.0}, "spread"),
        ],
    )
    def test_bad_arguments_raise(self, kwargs, match):
        poly = ConicHull(_disk_slice())
        with pytest.raises(ValueError, match=match):
            verify_slice_bound(poly, **{"n_samples": 8, "density": 16, **kwargs})


# ---------------------------------------------------------------------------
# Monotone shift verifier
# ---------------------------------------------------------------------------


class TestMonotoneShift:
    def test_orthant_constant_face_distance(self):
        K = NonnegativeOrthant(2)
        rep = verify_monotone_shift(K, full_face(K), [1.0, -1.0], [0.0, 0.5, 1.0, 2.0, 5.0])
        assert rep.ok
        assert np.allclose(rep.y, [1.0, 0.0], atol=1e-12)
        for _, d_cone, d_face, _, _ in rep.rows:
            assert d_cone == pytest.approx(1.0, abs=1e-12)
            assert d_face == pytest.approx(1.0, abs=1e-12)

    def test_soc_polar_point_projection_path(self):
        K = SecondOrderCone(3)
        x = np.array([0.0, 0.0, -1.0])
        ts = [0.0, 0.25, 0.5, 1.0 / SQRT2, 1.0, 2.0]
        rep = verify_monotone_shift(K, full_face(K), x, ts)
        assert rep.ok
        assert rep.beta == pytest.approx(SQRT2, abs=1e-8)
        # the best unit approximant sits on the boundary circle of the cone
        assert rep.y[2] == pytest.approx(1.0 / SQRT2, abs=1e-6)
        pair = float(x @ rep.y)
        for t in ts:
            p = project(K, x + t * rep.y).point
            if t <= -pair - 1e-9:
                assert np.linalg.norm(p) <= 1e-12
            else:
                assert np.allclose(p, (pair + t) * rep.y, atol=1e-9)

    def test_point_on_face_is_trivial(self):
        K = NonnegativeOrthant(2)
        rep = verify_monotone_shift(K, full_face(K), [2.0, 1.0], [0.0, 1.0, 3.0])
        assert rep.ok
        assert rep.dist_face_at_x == pytest.approx(0.0, abs=1e-12)
        for _, d_cone, _, _, _ in rep.rows:
            assert d_cone <= 1e-12

    def test_off_span_raises(self):
        K = NonnegativeOrthant(3)
        F = minimal_face(K, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="span"):
            verify_monotone_shift(K, F, [1.0, -1.0, 0.5], [0.0, 1.0])

    def test_one_dim_face_raises(self):
        K = NonnegativeOrthant(2)
        F = minimal_face(K, np.array([1.0, 0.0]))
        with pytest.raises(DegenerateFaceError):
            verify_monotone_shift(K, F, [1.0, 0.0], [0.0, 1.0])

    def test_negative_shift_raises(self):
        K = NonnegativeOrthant(2)
        with pytest.raises(ValueError, match="nonnegative"):
            verify_monotone_shift(K, full_face(K), [1.0, -1.0], [-0.5, 1.0])

    def test_report_shape(self):
        K = NonnegativeOrthant(2)
        rep = verify_monotone_shift(K, full_face(K), [1.0, -1.0], [0.0, 1.0])
        d = rep.to_report()
        assert d["ok"] is True
        assert {"t", "dist_cone_shifted", "dist_face_shifted", "cone_ok", "face_ok"} == set(
            d["rows"][0]
        )


# ---------------------------------------------------------------------------
# End to end: slice-level kappa bounds the cone-level ratio through gamma
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_gamma_bounds_cone_level_ratio(self, cylinder):
        body3 = _cylinder_body3()
        top = _top_disk_face(body3)
        est = estimate_kappa(
            body3,
            top,
            BoundedRegion(center=np.array([0.0, 0.0, 1.0]), radius=2.0),
            n_samples=256,
            sampler_seed=0,
        )
        assert est.verdict == "bounded"
        assert est.kappa_hat == pytest.approx(1.0, abs=1e-9)

        consts = build_constants(
            cylinder.hull, cylinder.face, kappa_slice=est.kappa_hat, n_dirs=4096
        )
        assert consts.gamma == pytest.approx(3.0 * est.kappa_hat, abs=1e-7)

        B = cylinder.face.span_basis
        rng = np.random.default_rng(7)
        coords = rng.standard_normal((512, B.shape[0]))
        coords /= np.linalg.norm(coords, axis=1, keepdims=True)
        coords *= 2.0 * rng.uniform(0.0, 1.0, size=(512, 1)) ** (1.0 / B.shape[0])
        worst = 0.0
        for c in coords:
            x = c @ B
            d_face = float(np.linalg.norm(x - face_projection(cylinder.face, x)))
            d_cone = float(project(cylinder.hull, x).distance)
            if d_cone > 1e-12:
                worst = max(worst, d_face / d_cone)
        assert worst <= consts.gamma + 1e-6
        assert worst >= 1.1

"""Tests for the example gallery: curves, normals, faces, and projectors."""
import warnings

import numpy as np
import pytest

from conelab import gallery as G
from conelab.cone_algebra import (
    ConicHull,
    DualUnavailableError,
    IntersectionCone,
    LinearImageCone,
    LinearSubspace,
    PolyhedralCone,
    ProductCone,
    SecondOrderCone,
    dual_cone,
    membership,
)
from conelab.facial_structure import face_contains, is_exposed
from conelab.projection_engine import MEMBER_SNAP, project


# frozen independently of the implementation run: the closed forms below were
# evaluated by hand / with separate scripts and pinned here
U_PI = 3.2223300181843326
U_HALF_PI = 53.53810916833811
U_TWO = 23.27475892605607
DET_QUARTER = -2.100505063388336
WFD2 = {
    0.2: 0.021627846236868,
    0.1: 0.0015289935820813046,
    0.05: 9.884824206108237e-05,
    0.025: 6.231829701704833e-06,
}


class TestCurves:
    def test_seam_identities(self):
        np.testing.assert_allclose(G.curve_gamma(0.0), [1.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(G.curve_gamma(np.pi), [1.0, 0.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(G.curve_alpha(0.0), [1.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(G.curve_beta(0.0), [1.0, 0.0, -1.0], atol=1e-15)

    def test_gamma_closed_values(self):
        # 2 cos(2pi/3) - 1 = -2, 2 sin(2pi/3) = sqrt(3), height = 11/16
        np.testing.assert_allclose(
            G.curve_gamma(np.pi / 3.0), [-2.0, np.sqrt(3.0), 11.0 / 16.0], atol=1e-14
        )
        assert G.gamma_height(np.pi / 3.0) == pytest.approx(0.6875, abs=1e-15)

    def test_gamma_shadow_is_tangent_circle(self):
        t = np.linspace(0.0, np.pi, 4001)
        pts = G.curve_gamma(t)
        radius = np.hypot(pts[:, 0] + 1.0, pts[:, 1])
        np.testing.assert_allclose(radius, 2.0, atol=1e-12)
        # the shadow touches the unit circle only at the seam angle
        dist_to_origin = np.hypot(pts[:, 0], pts[:, 1])
        assert dist_to_origin.min() >= 1.0 - 1e-12
        interior = (t > 0.2) & (t < np.pi - 0.2)
        assert dist_to_origin[interior].min() > 1.05

    def test_height_flatness_quartic(self):
        # 1 - height(t) = (3/8) t^4 + O(t^6)
        for t in (1e-2, 1e-3):
            ratio = (1.0 - G.gamma_height(t)) / t**4
            assert ratio == pytest.approx(3.0 / 8.0, rel=1e-3)

    def test_velocity_matches_difference_quotient(self):
        h = 1e-6
        for t in (0.3, 1.1, 2.7):
            num = (G.curve_gamma(t + h) - G.curve_gamma(t - h)) / (2.0 * h)
            np.testing.assert_allclose(G.gamma_velocity(t), num, atol=1e-8)

    def test_cloud_contains_all_three_curves(self):
        pts, tags = G.curve_cloud(64)
        assert pts.shape == (3 * 64, 3)
        assert np.count_nonzero(tags == -1.0) == 64
        assert np.count_nonzero(tags == -2.0) == 64
        extra_pts, extra_tags = G.curve_cloud(64, gamma_extra=(0.5,))
        assert extra_pts.shape[0] == 3 * 64 + 1
        assert 0.5 in extra_tags


def _curve_cloud_reference(density, gamma_extra=(), windows=()):
    # the uncached formula
    sa = np.linspace(0.0, 2.0 * np.pi, density, endpoint=False)
    parts = [np.linspace(0.0, np.pi, density)]
    if len(gamma_extra):
        parts.append(np.asarray(gamma_extra, dtype=float))
    for center, halfwidth, count in windows:
        parts.append(np.linspace(max(0.0, center - halfwidth), min(np.pi, center + halfwidth), count))
    sg = np.unique(np.concatenate(parts))
    pts = np.vstack([G.curve_alpha(sa), G.curve_beta(sa), G.curve_gamma(sg)])
    tags = np.concatenate([np.full(density, -1.0), np.full(density, -2.0), sg])
    return pts, tags


class TestCurveCloudCache:
    @pytest.mark.parametrize("density", [64, 128, 2048])
    @pytest.mark.parametrize(
        "refine",
        [
            {},
            {"gamma_extra": (0.5, 1e-3)},
            {"windows": [(0.02, 0.01, 33), (3.1, 0.2, 17)]},
            {"gamma_extra": [0.25], "windows": [(0.25, 0.003, 65)]},
        ],
    )
    def test_bitwise_equal_to_uncached_formula(self, density, refine):
        for _ in range(2):  # the second call is served from the cache
            pts, tags = G.curve_cloud(density, **refine)
            ref_pts, ref_tags = _curve_cloud_reference(density, **refine)
            assert pts.tobytes() == ref_pts.tobytes()
            assert tags.tobytes() == ref_tags.tobytes()

    def test_writing_into_a_cloud_changes_no_later_call(self):
        pts, tags = G.curve_cloud(128, gamma_extra=(0.5,))
        pts[:] = np.nan
        tags[:] = 7.0
        pts2, tags2 = G.curve_cloud(128)
        ref_pts, ref_tags = _curve_cloud_reference(128)
        assert pts2.tobytes() == ref_pts.tobytes()
        assert tags2.tobytes() == ref_tags.tobytes()
        assert not any(a.flags.writeable for a in G._fixed_rows(128))

    def test_slice_sampler_serves_one_read_only_lifted_cloud(self, monkeypatch):
        # conic_hull_of_body builds its lifted cloud once; the slice sampler
        # behind verify_slice_bound hands out that array, read-only, and does
        # not rebuild the curve cloud
        from conelab.hull_constants import verify_slice_bound

        K = G.conic_hull_of_body(512)
        sampler = K.extra["slice"].sampler
        cloud = sampler(512)
        pts, tags = _curve_cloud_reference(512)
        assert cloud.tobytes() == np.column_stack([pts, np.ones(pts.shape[0])]).tobytes()
        assert not cloud.flags.writeable and sampler(512) is cloud
        with pytest.raises(ValueError):
            cloud[0, 0] = 0.0
        calls = []
        curve_cloud = G.curve_cloud
        monkeypatch.setattr(G, "curve_cloud", lambda *a, **k: calls.append(a) or curve_cloud(*a, **k))
        report = verify_slice_bound(K, n_samples=5, density=512, seed=1)
        assert report.violations == 0 and calls == []


class TestDeterminantIdentity:
    def test_frozen_value(self):
        d = G.det_M(np.pi / 4.0, np.pi / 2.0)
        assert d.numeric == pytest.approx(DET_QUARTER, abs=1e-12)
        assert d.agreement < 1e-12

    def test_grid_agreement_and_sign(self):
        ts = np.linspace(0.0, np.pi, 22)[1:-1]
        for i, t in enumerate(ts):
            for s in ts[i + 1 :]:
                d = G.det_M(float(t), float(s))
                assert d.agreement <= 1e-8 * max(1.0, abs(d.numeric))
                assert d.bracket >= 2.0
                assert d.numeric < 0.0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            G.det_M(2.0, 1.0)


class TestExposingNormals:
    def test_frozen_values(self):
        assert G.exposing_normal_u(np.pi) == pytest.approx(U_PI, abs=1e-9)
        assert G.exposing_normal_u(np.pi / 2.0) == pytest.approx(U_HALF_PI, abs=1e-9)
        assert G.exposing_normal_u(2.0) == pytest.approx(U_TWO, abs=1e-9)

    def test_normal_strictly_separates(self):
        pts, _ = G.curve_cloud(2048)
        for t in (0.3, 1.0, np.pi, 5.0):
            p = G.exposing_normal(t)
            target = G.curve_alpha(t)
            sv = float(target @ p)
            assert sv == pytest.approx(1.0 + p[2], abs=1e-12)
            others = pts @ p
            mask = np.linalg.norm(pts - target, axis=1) > 1e-6
            assert others[mask].max() < sv - 1e-9

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            G.exposing_normal_u(0.0)
        with pytest.raises(ValueError):
            G.exposing_normal_u(2.0 * np.pi)

    def test_growth_toward_seam(self):
        # u(t) ~ const / t^2 near the seam
        u1 = G.exposing_normal_u(0.1)
        u2 = G.exposing_normal_u(0.05)
        assert u2 / u1 == pytest.approx(4.0, rel=0.25)

    @pytest.mark.parametrize("t", [3e-3, 1e-3, 5e-4, 4e-4])
    def test_seam_limit_without_cancellation(self, t):
        # near the peak s ~ 0.19 t, 1 - height(s) ~ 3 s^4 / 8 is below the
        # rounding of a plain difference (0.0 would divide by zero, an error
        # here); u(t) t^2 tends to (64/3) phi^5 = 236.590..., times 1.001
        # for the margin
        phi5 = ((1.0 + 5.0**0.5) / 2.0) ** 5
        assert G.exposing_normal_u(t) * t * t == pytest.approx(64.0 / 3.0 * phi5 * 1.001, rel=1e-5)

    @pytest.mark.parametrize("t", [3e-4, 2e-4, 1e-4])
    def test_verified_next_to_the_seam(self, t):
        # the peak at s ~ 0.19 t lies below the arc grid's first point; the
        # verifying window over (0, 2t) sees it, and the normal separates
        # alpha(t) from every point of a finer window
        phi5 = ((1.0 + 5.0**0.5) / 2.0) ** 5
        u = G.exposing_normal_u(t)
        assert u * t * t == pytest.approx(64.0 / 3.0 * phi5 * 1.001, abs=1e-3)
        s = np.linspace(0.0, 2.0 * t, 200_002)[1:-1]
        slack = u * G._height_gap(s) - (2.0 * np.cos(t - 2.0 * s) - np.cos(t) - 1.0)
        assert slack.min() > 0.0


class TestWitnessCurve:
    def test_face_distance_closed_form_frozen(self):
        for t, expect in WFD2.items():
            assert G.witness_face_distance_sq(t) == pytest.approx(expect, rel=1e-12)

    def test_witness_stays_in_plane_ball(self):
        for t in (0.2, 0.1, 0.05, 0.025):
            w = G.witness_w(t)
            assert w[2] == 1.0
            assert np.linalg.norm(w - np.array([1.0, 0.0, 1.0])) <= 1.0 + 1e-12

    def test_closed_form_matches_exact_projector(self):
        C = G.body(256)
        F = G.face_disk_top(C)
        for t in (0.2, 0.1):
            w = G.witness_w(t)
            d2 = float(np.sum((w - F.exact_projector(w)) ** 2))
            assert d2 == pytest.approx(G.witness_face_distance_sq(t), rel=1e-10)

    def test_body_distance_much_smaller_than_face_distance(self):
        C = G.body(2048)
        for t in (0.2, 0.1):
            w = G.witness_w(t)
            dC = C.project_fn(w).distance
            dF = np.sqrt(G.witness_face_distance_sq(t))
            assert dC < dF / 20.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            G.witness_w(0.0)
        with pytest.raises(ValueError):
            G.witness_w(2.0)


class TestBody:
    def test_membership(self):
        C = G.body(512)
        assert C.member_fn(np.array([0.0, 0.0, 0.0])).in_set
        out = C.member_fn(np.array([3.0, 0.0, 0.0]))
        assert not out.in_set
        assert out.distance == pytest.approx(2.0, abs=1e-6)

    def test_projection_idempotent(self):
        # idempotency holds up to the sampled-hull chord error, which scales
        # with the inverse square of the density
        C = G.body(512)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(3) * 2.0
            p = C.project_fn(x).point
            again = C.project_fn(p)
            assert again.distance <= 1e-5

    def test_samples_inside(self):
        C = G.body(512)
        rng = np.random.default_rng(1)
        pts = C.sample_fn(50, rng)
        for x in pts:
            assert C.member_fn(x).in_set


def _refinement_queries():
    rng = np.random.default_rng(5)
    gauss = rng.standard_normal((20, 3)) * 1.5
    plane = np.column_stack([rng.uniform(-2.2, 2.2, (20, 2)), np.ones(20)])
    witness = [
        G.witness_w(t) + sign * 1e-9
        for t in np.linspace(0.01, np.pi / 2.0, 20)
        for sign in (1.0, -1.0)
    ]
    return np.vstack([gauss, plane, witness])


class TestBodyRefinement:
    def _spied(self, monkeypatch):
        rounds = []
        real = G.project_hull

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            rounds.append(out[0].distance)
            return out

        monkeypatch.setattr(G, "project_hull", spy)
        return rounds

    def test_distance_never_above_an_earlier_round(self, monkeypatch):
        rounds = self._spied(monkeypatch)
        for x in _refinement_queries():
            rounds.clear()
            d = G._project_body(x, 128).distance
            # every round goes through project_hull, so the spy sees it: one
            # round for a member, and the refinement rounds for a non-member
            assert rounds and (d == 0.0 or len(rounds) > 1), (x, d, rounds)
            assert all(d <= r for r in rounds), (x, d, rounds)
            # each warm-started round is at most the previous one, up to the
            # rounding of the re-solved affine system
            slack = MEMBER_SNAP * max(1.0, float(np.linalg.norm(x)))
            assert all(b <= a + slack for a, b in zip(rounds, rounds[1:])), (x, rounds)

    def test_carried_arc_row_must_be_in_the_refined_cloud(self):
        _, tags = G.curve_cloud(64, gamma_extra=(0.5,))
        row = np.flatnonzero(tags == 0.5).tolist()
        _, coarse = G.curve_cloud(64)
        with pytest.raises(RuntimeError, match="missing"):
            G._carry_support(row, tags[row].tolist(), coarse, 128)
        # past the end of the new grid, and carried where it is present
        with pytest.raises(RuntimeError, match="missing"):
            G._carry_support([200], [4.0], coarse, 128)
        assert G._carry_support([3, 200] + row, [-1.0, 0.0] + tags[row].tolist(), tags, 128) == [
            3, 128, int(np.flatnonzero(tags == 0.5)[0])]

    def test_member_comes_back_after_one_round(self, monkeypatch):
        rounds = self._spied(monkeypatch)
        C = G.body(128)
        members = np.vstack([[0.0, 0.0, 0.0], [0.3, -0.2, 0.5],
                             C.sample_fn(5, np.random.default_rng(3))])
        for x in members:
            rounds.clear()
            res = G._project_body(x, 128)
            assert res.point.tobytes() == x.tobytes()
            assert res.distance == 0.0
            assert rounds == [0.0]


def _bicone_reference(s):
    """Projection onto {(p, q, r, w) : ||(p, q)|| + |r| <= w} through the
    prox of lam * (||(p, q)|| + |r|), with lam found by bisection."""
    nv2, nr, w = float(np.hypot(s[0], s[1])), abs(float(s[2])), float(s[3])
    if nv2 + nr <= w:
        return s.copy()
    if max(nv2, nr) <= -w:
        return np.zeros(4)

    def defect(lam):
        return max(nv2 - lam, 0.0) + max(nr - lam, 0.0) - (w + lam)

    lo, hi = 0.0, max(nv2, nr) + abs(w)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if defect(mid) > 0.0 else (lo, mid)
    lam = 0.5 * (lo + hi)
    out = np.zeros(4)
    if nv2 > 0.0:
        out[:2] = max(nv2 - lam, 0.0) / nv2 * s[:2]
    out[2] = np.sign(s[2]) * max(nr - lam, 0.0)
    out[3] = w + lam
    return out


def _assert_bicone_moreau(s, p):
    """P(s) lies in the set, s - P(s) in its polar {max(||(p, q)||, |r|) <= -w},
    and the two are orthogonal."""
    scale = max(float(np.linalg.norm(s)), 1e-300)
    q = s - p
    assert np.hypot(p[0], p[1]) + abs(p[2]) <= p[3] + 1e-13 * scale
    assert max(np.hypot(q[0], q[1]), abs(q[2])) <= -q[3] + 1e-13 * scale
    assert abs(p @ q) <= 1e-13 * scale * scale


def _cylinder_hull_intersection():
    """The cylinder hull as an intersection spec, projected by Dykstra: rows
    (0,0,-1,1) and (0,0,1,1) encode -t <= c <= t, and the permuted product
    SOC(3) x R encodes sqrt(a^2 + b^2) <= t with c free."""
    halfspaces = PolyhedralCone(
        inequalities=np.array([[0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    )
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[1, 1] = perm[3, 2] = perm[2, 3] = 1.0
    soc_part = LinearImageCone(
        matrix=perm,
        inner=ProductCone(SecondOrderCone(3), LinearSubspace(np.eye(1), ambient=1)),
    )
    return IntersectionCone((halfspaces, soc_part))


@pytest.fixture(scope="module")
def C():
    return G.body(2048)


@pytest.fixture(scope="module")
def cyl():
    return G.cylinder_hull_objects()


class TestBodyFaces:

    def test_disks_exposed(self, C):
        for F in (G.face_disk_top(C), G.face_disk_bottom(C)):
            r = is_exposed(C, F)
            assert r.status == "exposed"
            assert r.margin > 0.0

    def test_vertices_exposed(self, C):
        faces = [
            G.face_point_top_circle(C, np.pi),
            G.face_point_top_circle(C, 0.0),
            G.face_point_bottom_circle(C, 0.7),
            G.face_point_arc(C, 1.0),
            G.face_point_arc(C, 2.5),
        ]
        for F in faces:
            r = is_exposed(C, F)
            assert r.status == "exposed", F.descriptor["kind"]

    def test_disk_projector_optimal(self, C):
        F = G.face_disk_top(C)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(3) * 2.0
            p = F.exact_projector(x)
            assert abs(p[2] - 1.0) < 1e-15 and np.linalg.norm(p[:2]) <= 1.0 + 1e-12
            # no sampled face point does better
            th = rng.uniform(0.0, 2.0 * np.pi, 64)
            rad = np.sqrt(rng.uniform(0.0, 1.0, 64))
            q = np.column_stack([rad * np.cos(th), rad * np.sin(th), np.ones(64)])
            assert np.linalg.norm(x - p) <= np.linalg.norm(q - x, axis=1).min() + 1e-12

    def test_arc_vertex_rejects_endpoints(self, C):
        with pytest.raises(ValueError):
            G.face_point_arc(C, 0.0)
        with pytest.raises(ValueError):
            G.face_point_arc(C, np.pi)


class TestConicHull:
    def test_projection_certificates(self):
        K = G.conic_hull_of_body(1024)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(4) * 2.0
            r = project(K, x)
            assert r.certificate_gap <= 1e-9

    def test_lifted_disk_face_exposed(self):
        K = G.conic_hull_of_body(1024)
        r = is_exposed(K, G.lifted_disk_face(K))
        assert r.status == "exposed"

    def test_membership_is_that_of_the_conic_hull(self):
        K = G.conic_hull_of_body(256)
        hull = ConicHull(K.extra["slice"], density=256)
        rng = np.random.default_rng(16)
        points = np.vstack([rng.standard_normal((10, 4)), K.sample_fn(5, rng)])
        for x in points:
            assert membership(K, x) == membership(hull, x)

    def test_no_dual_rule(self):
        with pytest.raises(DualUnavailableError, match="'nice_not_amenable_K' has no dual rule"):
            dual_cone(G.conic_hull_of_body(256))

    def test_dual_rays_pair_nonnegatively(self):
        rays = G.dual_ray_samples(48)
        pts, _ = G.curve_cloud(2048)
        lifted = np.column_stack([pts, np.ones(pts.shape[0])])
        assert (lifted @ rays.T).min() >= -1e-12

    def test_dual_tips_are_limits_of_rays(self):
        rays = G.dual_ray_samples(64)
        tips = G.dual_tips()
        for tip in tips:
            d = np.linalg.norm(rays - tip, axis=1)
            assert d.min() < 1e-14  # the tip itself is included
            nontip = d[d > 1e-12]
            assert nontip.min() < 1e-3  # and rays accumulate at it


class TestCylinderObjects:
    def test_membership_formulas(self, cyl):
        assert cyl.hull.member_fn(np.array([0.5, 0.0, 0.7, 1.0])).in_set
        assert not cyl.hull.member_fn(np.array([0.5, 0.0, 1.2, 1.0])).in_set
        assert cyl.dual.member_fn(np.array([0.3, 0.0, 0.5, 1.0])).in_set
        assert not cyl.dual.member_fn(np.array([0.8, 0.0, 0.5, 1.0])).in_set

    @pytest.mark.parametrize("name", ["hull", "dual", "dual_sum_set", "sturm"])
    def test_gauge_memberships(self, cyl, name):
        # status and distance from the set's residual: OUTSIDE at the
        # residual above eps, INSIDE below -eps, BOUNDARY at 0.0 between
        residuals = {
            "hull": lambda x: max(np.hypot(x[0], x[1]) - x[3], abs(x[2]) - x[3]),
            "dual": lambda x: np.hypot(x[0], x[1]) + abs(x[2]) - x[3],
            "dual_sum_set": lambda x: np.hypot(x[0], x[1]) - (x[2] + x[3]),
            "sturm": lambda x: max(-np.linalg.eigvalsh(
                [[x[0], x[1] / np.sqrt(2.0)], [x[1] / np.sqrt(2.0), x[2]]])[0], 1.0 - x[2]),
        }
        member_fn = G.sturm_slice().member_fn if name == "sturm" else getattr(cyl, name).member_fn
        dim = 3 if name == "sturm" else 4
        rng = np.random.default_rng(17)
        points = list(rng.standard_normal((200, dim)) * 2.0)
        edge = np.zeros(dim)
        edge[-1] = 1.0  # residual 0 in the three cones, on the slab's edge
        points.append(edge)
        for x in points:
            res = member_fn(x)
            worst = residuals[name](x)
            eps = 1e-10 + 1e-8 * max(1.0, np.linalg.norm(x))
            assert res.exact
            if worst > eps:
                assert res.status.value == "outside" and res.distance == pytest.approx(worst)
            else:
                assert res.status.value == ("inside" if worst < -eps else "boundary")
                assert res.distance == 0.0

    def test_hull_membership_agrees_with_projection(self, cyl):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.standard_normal(4) * 2.0
            m = cyl.hull.member_fn(x)
            d = project(cyl.hull, x).distance
            assert m.in_set == (d < 1e-7)

    def test_hull_projection_matches_the_intersection_spec(self, cyl):
        ref = _cylinder_hull_intersection()
        rng = np.random.default_rng(13)
        for x in rng.standard_normal((200, 4)) * 2.0:
            r = project(cyl.hull, x)
            assert r.method == "closed_form" and r.iterations == 0
            assert r.certificate_gap == 0.0
            tol = 1e-9 * max(1.0, np.linalg.norm(x))
            assert np.abs(r.point - project(ref, x).point).max() <= tol

    def test_hull_projection_is_a_moreau_split(self, cyl):
        # P(x) in the hull, x - P(x) in the polar cone -K*, and the two
        # orthogonal
        rng = np.random.default_rng(14)
        for x in rng.standard_normal((500, 4)) * 10.0 ** rng.uniform(-3, 3, size=(500, 1)):
            p = project(cyl.hull, x).point
            q = x - p
            scale = np.linalg.norm(x)
            assert max(np.hypot(p[0], p[1]), abs(p[2])) <= p[3] + 1e-13 * scale
            assert np.hypot(q[0], q[1]) + abs(q[2]) <= -q[3] + 1e-13 * scale
            assert abs(p @ q) <= 1e-13 * scale * scale

    def test_hull_members_come_back_unchanged(self, cyl):
        X = cyl.hull.sample_fn(200, np.random.default_rng(15))
        for x in X:
            r = project(cyl.hull, x)
            assert np.array_equal(r.point, x) and r.distance == 0.0

    def test_bicone_dual_projector_frozen(self, cyl):
        p = cyl.dual.project_fn(np.array([3.0, 4.0, 2.0, 1.0])).point
        np.testing.assert_allclose(p, [1.8, 2.4, 0.0, 3.0], atol=1e-12)

    def test_bicone_dual_projector_optimal(self, cyl):
        # variational inequality: the residual x - p pairs nonpositively with
        # every feasible direction q - p
        rng = np.random.default_rng(5)
        feas = rng.standard_normal((500, 4))
        feas[:, 3] = np.linalg.norm(feas[:, :2], axis=1) + np.abs(feas[:, 2])
        feas[:, 3] += rng.gamma(1.0, 0.5, size=500)  # strict slack
        for _ in range(10):
            x = rng.standard_normal(4) * 2.0
            p = cyl.dual.project_fn(x).point
            assert np.linalg.norm(p[:2]) + abs(p[2]) <= p[3] + 1e-10
            inner = (feas - p) @ (x - p)
            assert inner.max() <= 1e-10

    @pytest.mark.parametrize(
        "s, branch",
        [
            ([3.0, 4.0, 4.0, 1.0], "before the kink"),
            ([3.0, 4.0, 2.0, 1.0], "at the kink"),
            ([3.0, 4.0, 0.5, 1.0], "past the kink"),
            ([0.0, 0.0, 2.0, -1.0], "past the kink, (p, q) = 0"),
            ([1.0, 0.0, 1.0, 3.0], "identity"),
            ([1.0, 0.0, 0.5, -2.0], "zero"),
        ],
    )
    def test_bicone_dual_projector_matches_bisection(self, s, branch):
        s = np.array(s)
        p = G._project_bicone_dual(s)
        np.testing.assert_allclose(p, _bicone_reference(s), rtol=0.0, atol=1e-14)
        _assert_bicone_moreau(s, p)
        if branch == "identity":
            assert p.tobytes() == s.tobytes()

    def test_bicone_dual_projector_over_decades(self):
        rng = np.random.default_rng(9)
        pieces = set()
        for _ in range(2000):
            s = rng.standard_normal(4) * 10.0 ** rng.uniform(-8, 8)
            p = G._project_bicone_dual(s)
            nv2, nr = np.linalg.norm(s[:2]), abs(s[2])
            lam = p[3] - s[3]
            if lam > 0.0 and p.any():
                pieces.add("before" if lam < min(nv2, nr) else "past")
            scale = np.linalg.norm(s)
            assert np.abs(p - _bicone_reference(s)).max() <= 1e-13 * scale
            _assert_bicone_moreau(s, p)
        assert pieces == {"before", "past"}

    def test_dual_sum_set_projector_frozen(self, cyl):
        p = cyl.dual_sum_set.project_fn(np.array([3.0, 4.0, -1.0, 2.0])).point
        np.testing.assert_allclose(
            p, [11.0 / 5.0, 44.0 / 15.0, 1.0 / 3.0, 10.0 / 3.0], atol=1e-12
        )

    def test_dual_sum_closure_decomposes(self, cyl):
        rng = np.random.default_rng(6)
        closure = cyl.face.descriptor["dual_sum"]
        for _ in range(50):
            s_dual = cyl.dual.sample_fn(1, rng)[0]
            s = s_dual + rng.standard_normal() * np.array([0.0, 0.0, 1.0, -1.0])
            r = closure(s)
            assert r.in_sum and r.residual <= 1e-9
            u, v = r.dual_part, r.perp_part
            assert np.linalg.norm(u[:2]) + abs(u[2]) <= u[3] + 1e-9
            assert abs(v[0]) + abs(v[1]) + abs(v[2] + v[3]) <= 1e-12

    def test_dual_sum_closure_rejects(self, cyl):
        closure = cyl.face.descriptor["dual_sum"]
        r = closure(np.array([2.0, 0.0, 0.5, 0.5]))
        assert not r.in_sum

    def test_seam_face(self, cyl):
        F = G.seam_face(cyl.hull)
        assert F.contains(np.array([1.0, 0.0, 1.0, 1.0]))
        assert F.contains(np.array([2.0, 0.0, 0.0, 2.0]))
        assert not F.contains(np.array([0.0, 1.0, 0.0, 1.0]))
        r = is_exposed(cyl.hull, F)
        assert r.status == "exposed"

    def test_seam_conjugate_face_membership(self, cyl):
        # cone{(-1, 0, 0, 1), (0, 0, -1, 1)} inside the dual
        F = G.seam_ray_faces(cyl.hull)[0].descriptor["conjugate_factory"]()
        assert F.contains(np.array([-1.0, 0.0, -1.0, 2.0]))
        assert F.contains(np.array([0.0, 0.0, -2.0, 2.0]))
        assert not F.contains(np.array([1.0, 0.0, 0.0, 1.0]))
        assert not F.contains(np.array([0.0, 0.0, 0.0, 1.0]))
        assert not F.contains(np.array([1.0, 0.0, 0.0, -1.0]))


def _huge_point_faces():
    cyl = G.cylinder_hull_objects().hull
    top, bottom = G.seam_ray_faces(cyl)
    return {
        "seam": G.seam_face(cyl),
        "seam_ray_top": top,
        "seam_ray_bottom": bottom,
        "lifted_disk_cylinder": G.lifted_disk_face(cyl),
        "lifted_disk_body_hull": G.lifted_disk_face(G.conic_hull_of_body(512)),
    }


class TestHugePointFaceMembership:
    """The gallery faces decide a point whose x.x overflows at x / 2^e, as the
    atom faces do, with no overflow warning (an error here)."""

    HUGE = np.array([
        [1e200, 0.0, 1e200, 1e200],
        [1e200, 0.0, -1e200, 1e200],
        [1e200, 1e199, 1e200, 1e200],
        [-1e200, 0.0, 1e200, 1e200],
        [1e200, 0.0, 1e200, 5e199],
    ])
    # per face, the verdict on each HUGE row
    EXPECTED = {
        "seam": [True, True, False, False, False],
        "seam_ray_top": [True, False, False, False, False],
        "seam_ray_bottom": [False, True, False, False, False],
        "lifted_disk_cylinder": [True, False, False, True, False],
        "lifted_disk_body_hull": [True, False, False, True, False],
    }

    @pytest.mark.parametrize("name", list(EXPECTED))
    def test_single_points_and_stacks(self, name):
        F = _huge_point_faces()[name]
        single = [F.contains(x) for x in self.HUGE]
        assert single == self.EXPECTED[name]
        rng = np.random.default_rng(3)
        normal = np.vstack([F.descriptor["sampler"](4, rng), rng.standard_normal((4, 4))])
        X = np.vstack([normal, self.HUGE, 1e-3 * self.HUGE])
        stacked = face_contains(F, X).tolist()
        # every stacked verdict is the single-point one; a cone face holds
        # 1e-3 x iff it holds x
        assert stacked == [F.contains(x) for x in X]
        assert stacked[8:] == 2 * self.EXPECTED[name]
        assert stacked[:4] == [True] * 4

    def test_seam_ray_conjugate_face(self):
        F = G.seam_ray_faces(G.cylinder_hull_objects().hull)[0].descriptor["conjugate_factory"]()
        X = np.array([[-1.0, 0.0, 0.0, 1.0], [-1.0, 0.0, -1.0, 2.0], [1.0, 0.0, 0.0, 1.0]])
        for scale in (1.0, 1e200):
            assert [F.contains(x) for x in scale * X] == [True, True, False]
            assert face_contains(F, scale * X).tolist() == [True, True, False]


def _huge_point_sets():
    cyl = G.cylinder_hull_objects()
    return {"cylinder_hull": cyl.hull, "cylinder_dual": cyl.dual,
            "dual_sum_set": cyl.dual_sum_set, "body": G.body(128), "sturm_slice": G.sturm_slice()}


class TestHugePointSetMembership:
    """The closed-form sets and the body take their tolerance scale and their
    residuals from overflow-safe norms: a point past a norm of about 1.3e154
    is decided on its own residual, with no overflow warning (an error here).
    It gets the verdict of the same point scaled by 1e-200, except on the
    sturm slice, whose slab x22 >= 1 does not scale."""

    # (set, point, verdict, its distance, the scaled point's distance)
    CASES = [
        ("cylinder_hull", (3e200, 0.0, 0.0, 1e200), "OUTSIDE", 2e200, 2.0),
        ("cylinder_dual", (3e200, 0.0, 0.0, 1e200), "OUTSIDE", 2e200, 2.0),
        ("dual_sum_set", (3e200, 0.0, 0.0, 1e200), "OUTSIDE", 2e200, 2.0),
        ("body", (3e200, 0.0, 0.0), "OUTSIDE", 3e200, 2.0),
        ("cylinder_hull", (1e200, 0.0, 0.0, 3e200), "INSIDE", 0.0, 0.0),
        ("sturm_slice", (-1e200, 0.0, 1.0), "OUTSIDE", 1e200, None),
        ("sturm_slice", (1e200, 0.0, 1e200), "INSIDE", 0.0, None),
    ]

    @pytest.mark.parametrize("name, x, verdict, distance, scaled", CASES)
    def test_huge_point(self, name, x, verdict, distance, scaled):
        C = _huge_point_sets()[name]
        x = np.array(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = C.member_fn(x)
            small = C.member_fn(1e-200 * x)
        assert r.status.name == verdict
        assert r.distance == pytest.approx(distance, rel=1e-12)
        if scaled is not None:
            assert small.status.name == verdict and small.distance == scaled


class TestLiftedDiskFace:
    def test_projector_feasible_idempotent(self):
        K = G.conic_hull_of_body(512)
        F = G.lifted_disk_face(K)
        rng = np.random.default_rng(7)
        for _ in range(30):
            x = rng.standard_normal(4) * 3.0
            p = F.exact_projector(x)
            assert abs(p[2] - p[3]) <= 1e-12
            assert np.linalg.norm(p[:2]) <= p[3] + 1e-10
            np.testing.assert_allclose(F.exact_projector(p), p, atol=1e-12)

    def test_projector_simple_case(self):
        K = G.conic_hull_of_body(512)
        F = G.lifted_disk_face(K)
        np.testing.assert_allclose(
            F.exact_projector(np.array([0.0, 0.0, 2.0, 0.0])), [0.0, 0.0, 1.0, 1.0], atol=1e-14
        )

    def test_body_hull_dual_sum_closure(self):
        K = G.conic_hull_of_body(512)
        F = G.lifted_disk_face(K)
        closure = F.descriptor["dual_sum"]
        rng = np.random.default_rng(8)
        for _ in range(40):
            t = rng.uniform(0.05, 2.0 * np.pi - 0.05)
            u_t = G.exposing_normal_u(t)
            atom = np.array([-np.cos(t), -np.sin(t), -u_t, 1.0 + u_t])
            s = (
                rng.gamma(2.0, 1.0) * atom
                + rng.gamma(1.0, 0.5) * np.array([0.0, 0.0, 1.0, 1.0])
                + rng.standard_normal() * np.array([0.0, 0.0, 1.0, -1.0])
            )
            r = closure(s)
            assert r.in_sum
            assert r.residual <= 1e-9 * max(1.0, np.linalg.norm(s))

    def test_body_hull_closure_rejects_outside(self):
        K = G.conic_hull_of_body(512)
        closure = G.lifted_disk_face(K).descriptor["dual_sum"]
        r = closure(np.array([2.0, 0.0, 0.5, 0.5]))
        assert not r.in_sum


class TestSturmSlice:
    def test_membership(self):
        S = G.sturm_slice()
        assert S.member_fn(np.array([1.0, 0.0, 2.0])).in_set
        assert not S.member_fn(np.array([1.0, 0.0, 0.5])).in_set  # x22 < 1
        assert not S.member_fn(np.array([1.0, 4.0, 2.0])).in_set  # indefinite

    def test_projection_lands_on_set(self):
        S = G.sturm_slice()
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.standard_normal(3) * 2.0
            r = S.project_fn(x)
            assert S.member_fn(r.point).in_set

    def test_face_projector_interior_case(self):
        # A >= B^2 keeps the unconstrained minimizer: (A, B, 1)
        p = G._sturm_face_project(np.array([4.0, np.sqrt(2.0), 3.0]))
        np.testing.assert_allclose(p, [4.0, np.sqrt(2.0), 1.0], atol=1e-12)

    def test_face_projector_cubic_case(self):
        # A = -1, B = 2: root of b^3 + 2 b - 2 = 0, a = b^2
        p = G._sturm_face_project(np.array([-1.0, 2.0 * np.sqrt(2.0), 5.0]))
        b = p[1] / np.sqrt(2.0)
        assert b**3 + 2.0 * b - 2.0 == pytest.approx(0.0, abs=1e-12)
        assert p[0] == pytest.approx(b * b, abs=1e-12)

    def test_face_projector_optimal(self):
        F = G.sturm_face()
        rng = np.random.default_rng(10)
        for _ in range(25):
            x = rng.standard_normal(3) * 3.0
            p = F.exact_projector(x)
            mine = float(np.sum((p - x) ** 2))
            # compare against dense feasible sampling
            b = np.linspace(-4.0, 4.0, 400)
            a = b * b
            grid = np.column_stack([a, np.sqrt(2.0) * b, np.ones_like(b)])
            grid_best = float(np.sum((grid - x) ** 2, axis=1).min())
            assert mine <= grid_best + 1e-6

    def test_family_values(self):
        fam = G.sturm_family(0.1)
        np.testing.assert_allclose(
            fam.x_eps, [1.0 / 0.011, 10.0 * np.sqrt(2.0), 1.1], rtol=1e-14
        )
        assert fam.dist_to_aff_face == pytest.approx(0.1)
        S = G.sturm_slice()
        assert S.member_fn(fam.x_eps).in_set

    def test_family_breaks_error_bound(self):
        S = G.sturm_slice()
        F = G.sturm_face(S)
        for kappa in (1.0, 10.0):
            eps = 0.1 / kappa  # the sturm check's parameter
            fam = G.sturm_family(eps)
            dC = S.project_fn(fam.x_eps).distance
            dF = float(np.linalg.norm(fam.x_eps - F.exact_projector(fam.x_eps)))
            assert dF > kappa * (dC + fam.dist_to_aff_face)


class TestRegistry:
    def test_names_resolve(self):
        assert G.GALLERY_NAMES == tuple(G.GALLERY)
        for name in G.GALLERY_NAMES:
            assert G.GALLERY[name].build(2048).name == name

    def test_named_faces(self):
        C = G.GALLERY["nice_not_amenable_C"].build(2048)
        assert G.GALLERY["nice_not_amenable_C"].faces["disk_top"](C).descriptor["kind"] == "disk_top"
        assert "lifted_disk" not in G.GALLERY["nice_not_amenable_C"].faces
        K = G.GALLERY["nice_not_amenable_K"].build(2048)
        assert G.GALLERY["nice_not_amenable_K"].faces["lifted_disk"](K).face_dim == 3

"""Tests for cone constructors, membership, duals, slices, and sampling."""
import numpy as np
import pytest

from conelab.cone_algebra import (
    ConicHull,
    DualUnavailableError,
    GallerySet,
    Halfspace,
    IntersectionCone,
    LinearImageCone,
    LinearSubspace,
    Membership,
    NonnegativeOrthant,
    NotRescalableError,
    PolyhedralCone,
    ProductCone,
    PsdCone,
    SecondOrderCone,
    SliceSpec,
    UnsupportedVariantError,
    cone_span_dim,
    dual_cone,
    get_slice,
    membership,
    rescale_to_slice,
    sample_points,
    support_value,
)
from conelab.linalg_core import sym_to_vec, vec_to_sym
from conelab.projection_engine import project


def _triangle_hull():
    pts = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
    spec = SliceSpec(e=np.array([0.0, 0.0, 1.0]), sampler=lambda n: pts)
    return ConicHull(spec, density=8)


class TestConstructors:
    def test_polyhedral_needs_some_representation(self):
        with pytest.raises(ValueError):
            PolyhedralCone()

    def test_soc_minimum_dimension(self):
        with pytest.raises(ValueError):
            SecondOrderCone(1)

    def test_intersection_needs_two_parts(self):
        with pytest.raises(ValueError):
            IntersectionCone((NonnegativeOrthant(2),))

    def test_intersection_dimension_mismatch(self):
        with pytest.raises(ValueError):
            IntersectionCone((NonnegativeOrthant(2), NonnegativeOrthant(3)))

    def test_linear_image_full_column_rank(self):
        with pytest.raises(ValueError):
            LinearImageCone(matrix=np.array([[1.0, 1.0], [1.0, 1.0]]), inner=NonnegativeOrthant(2))

    def test_product_dims(self):
        P = ProductCone(NonnegativeOrthant(2), SecondOrderCone(3))
        assert P.dim == 5
        assert [type(f).__name__ for f in P.factors()] == [
            "NonnegativeOrthant",
            "SecondOrderCone",
        ]

    @pytest.mark.parametrize(
        "normal, offset, x, point",
        [
            # the normal's square sum overflows
            ((1e308, 1e308), 0.0, (1.0, 2.0), (-0.5, 0.5)),
            ((1e200, 1e200), 3e200, (5.0, 5.0), (1.5, 1.5)),
            # the normal's square sum underflows to zero
            ((1e-320, 0.0), 0.0, (1.0, 2.0), (0.0, 2.0)),
            ((-3e-310, 4e-310), 1e-310, (0.0, 1.0), (0.36, 0.52)),
        ],
    )
    def test_halfspace_normal_of_any_size(self, normal, offset, x, point):
        # the suite turns warnings into errors: no overflow warning either
        H = Halfspace(normal, offset)
        u = np.asarray(normal) / np.abs(normal).max()
        np.testing.assert_allclose(H.normal, u / np.linalg.norm(u), rtol=1e-15)
        np.testing.assert_allclose(project(H, x).point, point, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize(
        "normal, offset, match",
        [
            ((0.0, 0.0), 0.0, "nonzero"),
            ((np.inf, 1.0), 0.0, "finite"),
            ((np.nan, 1.0), 0.0, "finite"),
            ((1e-320, 0.0), 1.0, "past the float range"),
        ],
    )
    def test_halfspace_bad_normal(self, normal, offset, match):
        with pytest.raises(ValueError, match=match):
            Halfspace(normal, offset)

    def test_slice_level_positive(self):
        with pytest.raises(ValueError):
            SliceSpec(e=np.ones(2), sampler=lambda n: np.zeros((1, 2)), level=0.0)


class TestMembership:
    def test_orthant(self):
        K = NonnegativeOrthant(3)
        assert membership(K, [1.0, 2.0, 3.0]).status is Membership.INSIDE
        assert membership(K, [1.0, 0.0, 3.0]).status is Membership.BOUNDARY
        r = membership(K, [1.0, -2.0, 3.0])
        assert r.status is Membership.OUTSIDE
        assert r.distance == pytest.approx(2.0)
        assert r.exact

    def test_halfspace(self):
        H = Halfspace(normal=np.array([0.0, 1.0]), offset=0.0)
        assert membership(H, [5.0, -1.0]).status is Membership.INSIDE
        assert membership(H, [5.0, 1.0]).status is Membership.OUTSIDE

    def test_subspace(self):
        L = LinearSubspace(np.array([[1.0, 1.0, 0.0]]))
        assert membership(L, [2.0, 2.0, 0.0]).status is Membership.BOUNDARY
        assert membership(L, [1.0, 0.0, 0.0]).status is Membership.OUTSIDE

    def test_soc(self):
        K = SecondOrderCone(3)
        assert membership(K, [0.3, 0.4, 1.0]).status is Membership.INSIDE
        assert membership(K, [0.6, 0.8, 1.0]).status is Membership.BOUNDARY
        r = membership(K, [3.0, 4.0, 0.0])
        assert r.status is Membership.OUTSIDE
        # distance to the cone from (3,4,0): project and measure
        assert r.distance == pytest.approx(5.0 / np.sqrt(2.0), rel=1e-10)

    def test_psd(self):
        K = PsdCone(2)
        assert membership(K, sym_to_vec(np.eye(2))).status is Membership.INSIDE
        assert membership(K, sym_to_vec(np.array([[1.0, 1.0], [1.0, 1.0]]))).status is Membership.BOUNDARY
        r = membership(K, sym_to_vec(np.array([[1.0, 0.0], [0.0, -2.0]])))
        assert r.status is Membership.OUTSIDE
        assert r.distance == pytest.approx(2.0)

    def test_polyhedral_inequalities(self):
        K = PolyhedralCone(inequalities=np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert membership(K, [1.0, 1.0]).status is Membership.INSIDE
        assert membership(K, [0.0, 1.0]).status is Membership.BOUNDARY
        assert membership(K, [-1.0, 1.0]).status is Membership.OUTSIDE

    def test_polyhedral_generators(self):
        K = PolyhedralCone(generators=np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert membership(K, [2.0, 1.0]).status is Membership.INSIDE
        assert membership(K, [1.0, 1.0]).status is Membership.BOUNDARY
        assert membership(K, [0.0, 1.0]).status is Membership.OUTSIDE

    def test_product(self):
        P = ProductCone(NonnegativeOrthant(2), SecondOrderCone(3))
        assert membership(P, [1.0, 1.0, 0.1, 0.1, 1.0]).status is Membership.INSIDE
        assert membership(P, [0.0, 1.0, 0.1, 0.1, 1.0]).status is Membership.BOUNDARY
        assert membership(P, [-1.0, 1.0, 0.1, 0.1, 1.0]).status is Membership.OUTSIDE

    def test_intersection(self):
        X = IntersectionCone((NonnegativeOrthant(2), PolyhedralCone(inequalities=np.array([[1.0, -1.0]]))))
        assert membership(X, [2.0, 1.0]).status is Membership.INSIDE
        assert membership(X, [1.0, 1.0]).status is Membership.BOUNDARY
        assert membership(X, [1.0, 2.0]).status is Membership.OUTSIDE

    def test_intersection_outside_distance_unreported(self):
        # the parts are at distance 1 and 0, the intersection at sqrt(2): the
        # parts' largest distance is only a lower bound, so none is reported
        X = IntersectionCone((NonnegativeOrthant(2), Halfspace((1.0, 0.0))))
        r = membership(X, (1.0, -1.0))
        assert r.status is Membership.OUTSIDE and r.exact and r.distance is None
        assert project(X, (1.0, -1.0)).distance == pytest.approx(np.sqrt(2.0), rel=1e-8)

    def test_linear_image(self):
        # rotate the orthant by 45 degrees
        c, s = np.cos(np.pi / 4.0), np.sin(np.pi / 4.0)
        R = np.array([[c, -s], [s, c]])
        K = LinearImageCone(matrix=R, inner=NonnegativeOrthant(2))
        assert membership(K, R @ np.array([1.0, 1.0])).status is Membership.INSIDE
        assert membership(K, R @ np.array([1.0, 0.0])).status is Membership.BOUNDARY
        assert membership(K, R @ np.array([1.0, -1.0])).status is Membership.OUTSIDE

    def test_conic_hull_not_exact(self):
        K = _triangle_hull()
        r = membership(K, [0.1, 0.1, 1.0])
        assert r.status is Membership.INSIDE and not r.exact
        assert membership(K, [0.0, 0.0, -1.0]).status is Membership.OUTSIDE

    def test_bare_gallery_set_raises(self):
        # without closures every operation of a gallery set refuses; the
        # slice operation is rescale_to_slice, since get_slice answers None
        bare = GallerySet(name="bare", ambient_dim=2)
        x = np.array([1.0, 1.0])
        operations = (
            lambda: membership(bare, x),
            lambda: project(bare, x),
            lambda: dual_cone(bare),
            lambda: sample_points(bare, 3, np.random.default_rng(0)),
            lambda: cone_span_dim(bare),
            lambda: rescale_to_slice(bare, x),
        )
        for op in operations:
            with pytest.raises(UnsupportedVariantError):
                op()
        assert get_slice(bare) is None


class TestHugePointMembership:
    """x.x overflows for these points: membership classifies x / 2^e, and
    the warnings-as-errors setting of the suite would fail on an overflow."""

    @pytest.mark.parametrize(
        "K, x, distance",
        [
            (NonnegativeOrthant(2), [1e200, -1e200], 1e200),
            (SecondOrderCone(3), [1e200, 1e200, 1e200], (np.sqrt(2.0) - 1.0) * 1e200 / np.sqrt(2.0)),
            (PsdCone(2), sym_to_vec(np.diag([1e200, -1e200])), 1e200),
        ],
    )
    def test_outside_point_is_outside(self, K, x, distance):
        from conelab.facial_structure import NotInConeError, minimal_face

        r = membership(K, x)
        assert r.status is Membership.OUTSIDE
        assert r.distance == pytest.approx(distance, rel=1e-12)
        with pytest.raises(NotInConeError):
            minimal_face(K, x)

    def test_member_keeps_its_verdict_and_face(self):
        from conelab.facial_structure import minimal_face

        K = NonnegativeOrthant(3)
        assert membership(K, [1e200, 3e200, 2e200]).status is Membership.INSIDE
        assert membership(K, [1e200, 0.0, 2e200]).status is Membership.BOUNDARY
        assert minimal_face(K, [1e200, 0.0, 2e200]).descriptor["zeros"] == (1,)
        K = SecondOrderCone(3)
        assert minimal_face(K, [1e200, 0.0, 2e200]).descriptor["kind"] == "full"
        ray = minimal_face(K, [1e200, 0.0, 1e200])
        np.testing.assert_allclose(ray.span_basis, [[np.sqrt(0.5), 0.0, np.sqrt(0.5)]], rtol=1e-15)

    def test_far_distance_past_the_float_range_is_inf(self):
        r = membership(NonnegativeOrthant(2), [-1.5e308, -1.5e308])
        assert r.status is Membership.OUTSIDE and r.distance == np.inf


class TestHugePointFaceMembership:
    """Face membership closures that square the point decide a point whose
    x.x overflows at x / 2^e, with no overflow warning (an error here)."""

    def test_soc_ray_face(self):
        from conelab.facial_structure import face_contains, minimal_face

        F = minimal_face(SecondOrderCone(3), [1.0, 0.0, 1.0])
        assert F.contains([1e200, 0.0, 1e200])
        assert not F.contains([1e200, 0.0, -1e200]) and not F.contains([1e200, 1e200, 1e200])
        normal = np.random.default_rng(2).standard_normal((6, 3))
        normal[:3] = np.abs(normal[:3, :1]) * [1.0, 0.0, 1.0]
        huge = np.array([[1e200, 0.0, 1e200], [1e200, 1e199, 1e200], [np.nan, 0.0, 1.0]])
        got = face_contains(F, np.vstack([normal, huge]))
        # the normal-range rows keep the verdicts they get without huge rows
        assert got[:6].tolist() == face_contains(F, normal).tolist() == [F.contains(x) for x in normal]
        assert got[6:].tolist() == [True, False, False]

    @pytest.mark.parametrize("rep", ["inequalities", "generators"])
    def test_polyhedral_faces(self, rep):
        from conelab.facial_structure import minimal_face

        F = minimal_face(PolyhedralCone(**{rep: np.eye(3)}), [1e200, 0.0, 1e200])
        assert F.descriptor["kind"] == ("poly_active" if rep == "inequalities" else "poly_gens")
        assert F.contains([1e200, 0.0, 1e200]) and F.contains([3e200, 0.0, 1e150])
        assert not F.contains([1e200, 1e199, 1e200]) and not F.contains([1e200, 0.0, -1e200])
        assert F.contains([1.0, 0.0, 2.0]) and not F.contains([1.0, 1e-3, 2.0])

    def test_dual_span_face(self):
        from conelab.facial_structure import conjugate_face, full_face

        K = PolyhedralCone(generators=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        G = conjugate_face(K, full_face(K))
        assert G.descriptor["kind"] == "dual_span_face"
        assert G.contains([0.0, 0.0, 1e200]) and G.contains([0.0, 0.0, -1e200])
        assert not G.contains([1e200, 0.0, 1e200])


class TestLinearImageOrthonormalFlag:
    def test_computed_once_and_projections_unchanged(self, monkeypatch):
        A = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))[0]
        K = LinearImageCone(matrix=A, inner=NonnegativeOrthant(3))
        calls = []
        allclose = np.allclose
        monkeypatch.setattr(np, "allclose", lambda *a, **k: calls.append(1) or allclose(*a, **k))
        X = np.random.default_rng(1).standard_normal((5, 6))
        for x in X:
            # the isometry route: push down, clip, push up
            assert project(K, x).point.tobytes() == (A @ np.maximum(A.T @ x, 0.0)).tobytes()
        assert len(calls) == 1
        assert not LinearImageCone(matrix=2.0 * A, inner=NonnegativeOrthant(3)).orthonormal_columns


class TestDualCone:
    def test_self_duals(self):
        for K in (NonnegativeOrthant(3), SecondOrderCone(4), PsdCone(2)):
            assert dual_cone(K) is K

    def test_subspace_dual_is_complement(self):
        L = LinearSubspace(np.array([[1.0, 0.0, 0.0]]))
        D = dual_cone(L)
        assert D.subspace_dim == 2
        np.testing.assert_allclose(D.basis @ np.array([1.0, 0.0, 0.0]), np.zeros(2), atol=1e-12)

    def test_polyhedral_swaps_representations(self):
        A = np.array([[1.0, 0.0], [1.0, 1.0]])
        K = PolyhedralCone(inequalities=A)
        D = dual_cone(K)
        np.testing.assert_allclose(D.generators, A)
        # pairing of dual generators with primal members is nonnegative
        rng = np.random.default_rng(0)
        pts = sample_points(K, 50, rng)
        assert (pts @ D.generators.T).min() >= -1e-9

    def test_product_dual(self):
        P = ProductCone(NonnegativeOrthant(2), SecondOrderCone(3))
        D = dual_cone(P)
        assert isinstance(D, ProductCone)

    def test_unavailable(self):
        with pytest.raises(DualUnavailableError):
            dual_cone(_triangle_hull())
        with pytest.raises(DualUnavailableError):
            dual_cone(Halfspace(normal=np.array([0.0, 1.0]), offset=1.0))

    def test_dual_pairing_randomized(self):
        rng = np.random.default_rng(1)
        for K in (NonnegativeOrthant(3), SecondOrderCone(3), PsdCone(2)):
            xs = sample_points(K, 30, rng)
            ss = sample_points(dual_cone(K), 30, rng)
            assert (xs @ ss.T).min() >= -1e-9


class TestSlices:
    def test_get_slice(self):
        K = _triangle_hull()
        s = get_slice(K)
        assert s is not None and s.level == 1.0
        assert get_slice(NonnegativeOrthant(2)) is None

    def test_rescale(self):
        K = _triangle_hull()
        y = rescale_to_slice(K, [2.0, 0.0, 4.0])
        np.testing.assert_allclose(y, [0.5, 0.0, 1.0])
        with pytest.raises(NotRescalableError):
            rescale_to_slice(K, [1.0, 0.0, 0.0])
        with pytest.raises(UnsupportedVariantError):
            rescale_to_slice(NonnegativeOrthant(2), [1.0, 1.0])

    def test_support_value(self):
        pts = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert support_value(pts, [1.0, 1.0]) == pytest.approx(2.0)


class TestSampling:
    @pytest.mark.parametrize(
        "K",
        [
            NonnegativeOrthant(3),
            SecondOrderCone(4),
            PsdCone(3),
            PolyhedralCone(generators=np.array([[1.0, 0.0], [1.0, 1.0]])),
            PolyhedralCone(inequalities=np.array([[1.0, 0.0], [0.0, 1.0]])),
            ProductCone(NonnegativeOrthant(2), SecondOrderCone(3)),
            LinearImageCone(
                matrix=np.array([[0.0, 1.0], [1.0, 0.0]]), inner=NonnegativeOrthant(2)
            ),
            _triangle_hull(),
        ],
    )
    def test_samples_are_members(self, K):
        rng = np.random.default_rng(2)
        pts = sample_points(K, 20, rng)
        assert pts.shape == (20, K.dim)
        for x in pts:
            assert membership(K, x).status is not Membership.OUTSIDE

    def test_subspace_samples(self):
        L = LinearSubspace(np.array([[1.0, 1.0, 0.0]]))
        pts = sample_points(L, 10, np.random.default_rng(3))
        np.testing.assert_allclose(pts[:, 0], pts[:, 1], atol=1e-12)


class TestPsdSampler:
    """sample_points(PsdCone(n)): one batched draw of Gram matrices a a^T,
    a an n x r Gaussian factor with r uniform on 1..n."""

    @staticmethod
    def _eigs(X):
        return np.linalg.eigvalsh(vec_to_sym(X))

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("N", [0, 1, 300])
    def test_rows_are_psd_on_their_own_scale(self, n, N):
        X = sample_points(PsdCone(n), N, np.random.default_rng(4))
        assert X.shape == (N, n * (n + 1) // 2)
        w = self._eigs(X)
        assert np.isfinite(X).all()
        assert np.all(w[:, -1] > 0.0)
        assert np.all(w[:, 0] >= -1e-13 * w[:, -1])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_same_seed_same_stack(self, n):
        a = sample_points(PsdCone(n), 50, np.random.default_rng(11))
        b = sample_points(PsdCone(n), 50, np.random.default_rng(11))
        c = sample_points(PsdCone(n), 50, np.random.default_rng(12))
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_rank_is_uniform_on_one_to_n(self, n):
        w = self._eigs(sample_points(PsdCone(n), 6000, np.random.default_rng(5)))
        ranks = np.count_nonzero(w > 1e-10 * w[:, -1:], axis=1)
        freq = np.bincount(ranks, minlength=n + 1) / len(ranks)
        assert freq[0] == 0.0
        np.testing.assert_allclose(freq[1:], 1.0 / n, atol=0.03)


class TestSpanDim:
    def test_known_values(self):
        assert cone_span_dim(NonnegativeOrthant(4)) == 4
        assert cone_span_dim(SecondOrderCone(3)) == 3
        assert cone_span_dim(PsdCone(2)) == 3
        assert cone_span_dim(LinearSubspace(np.array([[1.0, 0.0, 0.0]]))) == 1
        assert cone_span_dim(PolyhedralCone(generators=np.array([[1.0, 0.0], [2.0, 0.0]]))) == 1
        assert cone_span_dim(_triangle_hull()) == 3
        P = ProductCone(LinearSubspace(np.array([[1.0, 0.0]])), NonnegativeOrthant(1))
        assert cone_span_dim(P) == 2

    @pytest.mark.parametrize(
        "rows, span",
        [
            ([[1.0, 0.0], [-1.0, 0.0]], 1),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]], 1),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 1.0]], 3),
            ([[1.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 2),
        ],
    )
    def test_inequalities_with_implicit_equalities(self, rows, span):
        assert cone_span_dim(PolyhedralCone(inequalities=np.array(rows))) == span

    def test_full_face_of_a_line_and_its_conjugate(self):
        from conelab.facial_structure import conjugate_face, full_face

        # K = {x : x_1 >= 0, -x_1 >= 0} is the x_2-axis; K* is the x_1-axis,
        # and K* meets K's orthogonal complement in all of it
        K = PolyhedralCone(inequalities=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        F = full_face(K)
        assert F.face_dim == 1
        G = conjugate_face(K, F)
        assert G.face_dim == 1
        assert G.contains(np.array([1.0, 0.0])) and G.contains(np.array([-2.0, 0.0]))
        assert not G.contains(np.array([0.0, 1.0]))

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

    def test_gallery_delegates(self):
        K = GallerySet(name="wrapped", ambient_dim=2, inner=NonnegativeOrthant(2))
        assert membership(K, [1.0, 1.0]).status is Membership.INSIDE
        bare = GallerySet(name="bare", ambient_dim=2)
        with pytest.raises(UnsupportedVariantError):
            membership(bare, [1.0, 1.0])


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

"""Tests for closed-form projections, generator cones, hulls, and Dykstra."""
import math
import warnings
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize, nnls

from conelab import gallery, linalg_core, projection_engine
from conelab.cone_algebra import (
    ConicHull,
    Halfspace,
    IntersectionCone,
    LinearImageCone,
    LinearSubspace,
    NonnegativeOrthant,
    PolyhedralCone,
    ProductCone,
    PsdCone,
    SecondOrderCone,
    SliceSpec,
)
from conelab.facial_structure import face_projection, minimal_face
from conelab.linalg_core import sym_to_vec, vec_to_sym
from conelab.projection_engine import (
    NonConvergenceError,
    dykstra_intersection,
    dykstra_projectors,
    moreau_decompose,
    project,
    project_conic_generators,
    project_hull,
    project_scaled_soc,
)


class TestClosedForms:
    def test_orthant(self):
        r = project(NonnegativeOrthant(3), [1.0, -2.0, 0.5])
        np.testing.assert_allclose(r.point, [1.0, 0.0, 0.5])
        assert r.distance == pytest.approx(2.0)
        assert r.method == "closed_form"

    def test_soc_outside(self):
        # (3, 4, 0): projection is ((3,4)/2, 5/2) scaled onto the boundary
        r = project(SecondOrderCone(3), [3.0, 4.0, 0.0])
        np.testing.assert_allclose(r.point, [1.5, 2.0, 2.5], atol=1e-12)

    def test_soc_polar_maps_to_zero(self):
        r = project(SecondOrderCone(3), [0.3, 0.4, -2.0])
        np.testing.assert_allclose(r.point, np.zeros(3), atol=1e-15)

    def test_soc_inside_identity(self):
        x = np.array([0.1, 0.2, 1.0])
        np.testing.assert_allclose(project(SecondOrderCone(3), x).point, x)

    def test_scaled_soc(self):
        # slope 2: the point (4, 0) projects onto the line v = 2 h
        p = project_scaled_soc(np.array([4.0, 0.0]), 2.0)
        np.testing.assert_allclose(p, [3.2, 1.6], atol=1e-12)
        # inside stays put; polar goes to zero
        np.testing.assert_allclose(project_scaled_soc(np.array([1.0, 2.0]), 2.0), [1.0, 2.0])
        np.testing.assert_allclose(
            project_scaled_soc(np.array([0.5, -2.0]), 2.0), [0.0, 0.0], atol=1e-15
        )

    def test_psd_eigen_clip(self):
        X = np.array([[1.0, 0.0], [0.0, -3.0]])
        r = project(PsdCone(2), sym_to_vec(X))
        np.testing.assert_allclose(vec_to_sym(r.point), [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert r.method == "eigen_clip"
        assert r.distance == pytest.approx(3.0)

    def test_subspace(self):
        L = LinearSubspace(np.array([[1.0, 1.0]]) / np.sqrt(2.0))
        r = project(L, [2.0, 0.0])
        np.testing.assert_allclose(r.point, [1.0, 1.0], atol=1e-12)


class TestConicGenerators:
    def test_orthant_as_generators(self):
        G = np.eye(2)
        p, lam, gap = project_conic_generators(G, np.array([-1.0, 2.0]))
        np.testing.assert_allclose(p, [0.0, 2.0], atol=1e-12)
        assert gap <= 1e-10

    def test_polar_point_maps_to_zero(self):
        G = np.eye(2)
        p, lam, gap = project_conic_generators(G, np.array([-1.0, -1.0]))
        np.testing.assert_allclose(p, np.zeros(2))
        assert np.all(lam == 0.0)

    def test_kkt_on_random_clouds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            G = rng.standard_normal((rng.integers(3, 40), 4))
            x = rng.standard_normal(4) * 3.0
            p, lam, gap = project_conic_generators(G, x)
            r = x - p
            assert (G @ r).max() <= 1e-8
            assert abs(p @ r) <= 1e-8
            assert np.all(lam >= 0.0)

    def test_near_duplicate_columns_regression(self):
        # thousands of nearly collinear generators used to trip the stock
        # nonnegative least-squares solver into silently suboptimal output;
        # the active-set growth must keep the certificate tight
        t = np.linspace(0.0, np.pi, 3000)
        G = np.column_stack(
            [2.0 * np.cos(2 * t) - 1.0, 2.0 * np.sin(2 * t), np.cos(t), np.ones_like(t)]
        )
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(4) * 2.0
            p, lam, gap = project_conic_generators(G, x)
            assert gap <= 1e-8
            # cross-check with a long-horizon solver on the same instance
            res = minimize(
                lambda w: np.sum((w @ G - x) ** 2),
                np.maximum(lam, 0.0),
                jac=lambda w: 2.0 * (G @ (w @ G - x)),
                bounds=[(0.0, None)] * G.shape[0],
                method="L-BFGS-B",
                options={"maxiter": 2000},
            )
            assert np.sum((x - p) ** 2) <= res.fun + 1e-8

    def test_empty_generators(self):
        p, lam, gap = project_conic_generators(np.zeros((0, 3)), np.ones(3))
        np.testing.assert_allclose(p, np.zeros(3))


# square pyramid {(a, b, c) : |a| + |b| <= c}; bvls reproduces the member
# (0, 0, 2) only up to one rounding error in the first coordinate
PYRAMID = np.array(
    [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]]
)


def _pyramid_specs():
    return [
        PolyhedralCone(generators=PYRAMID),
        ConicHull(SliceSpec(e=np.array([0.0, 0.0, 1.0]), sampler=lambda n: PYRAMID)),
    ]


class TestMembersReturnedUnchanged:
    def test_psd_member(self):
        x = sym_to_vec(np.array([[1.0, 0.5], [0.5, 2.0]]))
        assert np.linalg.eigvalsh(vec_to_sym(x)).min() > 0.0
        r = project(PsdCone(2), x)
        assert r.point.tobytes() == x.tobytes()
        assert r.point is not x
        assert r.distance == 0.0

    @pytest.mark.parametrize("K", _pyramid_specs(), ids=["generators", "conic_hull"])
    @pytest.mark.parametrize(
        "x", [[0.0, 0.0, 2.0], [0.1, 0.2, 0.9], [0.25, -0.5, 1.1]]
    )
    def test_generator_cone_member(self, K, x):
        x = np.array(x)
        r = project(K, x)
        assert r.point.tobytes() == x.tobytes()
        assert r.distance == 0.0

    def test_subspace_member(self):
        x = np.array([0.3, 0.3, 0.0])
        r = project(LinearSubspace(np.array([[1.0, 1.0, 0.0]])), x)
        assert r.point.tobytes() == x.tobytes()
        assert r.distance == 0.0

    def test_orthonormal_linear_image_member(self):
        Q = np.linalg.qr(np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 1.0]]))[0]
        K = LinearImageCone(matrix=Q, inner=NonnegativeOrthant(2))
        x = Q @ np.array([1.0, 2.0])
        r = project(K, x)
        assert r.point.tobytes() == x.tobytes()
        assert r.distance == 0.0

    @pytest.mark.parametrize("weights", [[0.0, 0.0, 1.0, 0.0], [0.0, 0.5, 0.5, 0.0]])
    def test_hull_vertex_and_midpoint(self, weights):
        P = np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        x = np.array(weights) @ P
        r = project_hull(P, x)
        assert r.point.tobytes() == x.tobytes()
        assert r.distance == 0.0

    @pytest.mark.parametrize("K", _pyramid_specs(), ids=["generators", "conic_hull"])
    def test_point_just_outside_not_snapped(self, K):
        # 1e-8 beyond the relative interior of the facet a + b = c
        normal = np.array([1.0, 1.0, -1.0]) / np.sqrt(3.0)
        x = np.array([0.5, 0.5, 1.0]) + 1e-8 * normal
        true_dist = (x[0] + x[1] - x[2]) / np.sqrt(3.0)
        r = project(K, x)
        assert not np.array_equal(r.point, x)
        assert abs(r.distance - true_dist) <= 1e-14

    @pytest.mark.parametrize(
        "x", [[0.0, 0.0, 2.0], [0.1, 0.2, 0.9], [0.25, -0.5, 1.1]]
    )
    def test_snap_widens_certificate(self, x):
        x = np.array(x)
        p, lam, gap = project_conic_generators(PYRAMID, x)
        r = x - PYRAMID.T @ lam
        residual = float(np.linalg.norm(r))
        assert residual > 0.0  # the weights alone miss x by rounding
        assert np.array_equal(p, x)
        assert gap >= residual
        assert project(PolyhedralCone(generators=PYRAMID), x).certificate_gap >= residual
        # the residual is added on top of the solver's own KKT gap
        pair = PYRAMID @ r
        kkt = max(0.0, float(pair.max())) + abs(float(lam @ pair))
        assert gap >= kkt + 0.5 * residual


def _gallery_generators(density: int, hint: float = 0.0) -> np.ndarray:
    """Lifted generators of the gallery cone, as its project_fn builds them
    (3 * density + 1 + 65 rows with a hint window)."""
    if density == 512:
        return gallery.conic_hull_of_body(512).extra["slice"].sampler(512)
    pts, _ = gallery.curve_cloud(
        density, gamma_extra=(hint,), windows=[(hint, 8.0 * np.pi / density, 65)]
    )
    return np.column_stack([pts, np.ones(pts.shape[0])])


def _one_solve(G, x):
    """scipy's nonnegative least squares over all generators: the oracle."""
    lam = nnls(G.T, x, maxiter=30 * G.shape[0])[0]
    return G.T @ lam, lam


def _kkt_terms(G, x, p, lam):
    """The dual-feasibility and complementarity terms of the KKT gap at p."""
    pair = G @ (x - p)
    return max(0.0, float(pair.max())), abs(float(lam @ pair))


def _assert_agrees_with_scipy(G, x):
    """Both answers are certified, and their distances agree to 1e-9 s,
    s = max(1, ||x||). Returns the kernel's answer and the oracle's point."""
    p, lam, gap = project_conic_generators(G, x)
    ref, ref_lam = _one_solve(G, x)
    s = max(1.0, float(np.linalg.norm(x)))
    assert projection_engine._kkt_certified(*_kkt_terms(G, x, ref, ref_lam), s)
    assert projection_engine._kkt_certified(*_kkt_terms(G, x, G.T @ lam, lam), s)
    assert abs(np.linalg.norm(x - p) - np.linalg.norm(x - ref)) <= 1e-9 * s
    assert lam.shape == (G.shape[0],) and np.all(lam >= 0.0)
    return p, lam, gap, ref


def _queries(G, rng, n):
    """Far queries around the generators' mean, plus near-face queries
    1e-9 and 1e-6 outside the cone along the normal of a far query's
    projection, and members on that projection's face."""
    center = G.mean(axis=0)
    scale = float(np.linalg.norm(G, axis=1).max())
    far = center + rng.standard_normal((n, G.shape[1])) * scale * rng.uniform(0.2, 3.0, (n, 1))
    out = list(far)
    for x in far[: n // 2]:
        p, _ = _one_solve(G, x)
        r = x - p
        nr = float(np.linalg.norm(r))
        if nr > 1e-6:
            out += [p + 1e-9 * r / nr, p + 1e-6 * r / nr, p]
    return out


def _slice_polytope():
    """The 40-point shifted polytope of the slice_bound check, lifted."""
    return np.column_stack([np.random.default_rng(3).normal(2.0, 0.6, size=(40, 4)), np.ones(40)])


def _slice_queries(G, rng, n, spread):
    """Points around the cloud's centroid inside its slice hyperplane, as
    verify_slice_bound draws them."""
    center = G.mean(axis=0)
    r = float(np.linalg.norm(G, axis=1).max())
    coords = rng.standard_normal((n, G.shape[1] - 1))
    coords *= rng.uniform(0.0, spread * r, (n, 1)) / np.linalg.norm(coords, axis=1, keepdims=True)
    return center + np.column_stack([coords, np.zeros(n)])


class TestLawsonHanson:
    """The generator kernel against scipy's nonnegative least squares."""

    @pytest.mark.parametrize(
        "kind,n", [("random", 65), ("random", 300), ("random", 2000), ("gallery", 1536),
                   ("gallery", 6209)],
    )
    def test_agrees_with_scipy(self, kind, n):
        rng = np.random.default_rng(n)
        if kind == "random":
            G = np.column_stack([rng.standard_normal((n, 3)), np.ones(n)])
        else:
            G = _gallery_generators(512 if n == 1536 else 2048, hint=1.1)
        assert G.shape[0] == n
        for x in _queries(G, rng, 12):
            p, lam, gap, ref = _assert_agrees_with_scipy(G, x)
            s = max(1.0, float(np.linalg.norm(x)))
            assert np.linalg.norm(p - ref) <= 1e-12 * s
            assert gap <= 1e-10 * s * s
            # the certificate covers every generator
            assert (G @ (x - p)).max() <= 1e-10 * s

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 7),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
        member=st.booleans(),
    )
    def test_agrees_with_scipy_on_random_cones(self, d, n, seed, log_scale, member):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, d))
        for _ in range(3):
            x = rng.standard_normal(d) * 10.0**log_scale
            if member:
                x = rng.gamma(1.0, 1.0, n) @ G
            _assert_agrees_with_scipy(G, x)

    @pytest.mark.parametrize("cloud", ["gallery", "polytope"])
    def test_agrees_with_scipy_on_slice_queries(self, cloud):
        # the queries of verify_slice_bound on the 1,536-generator gallery
        # slice and on the 40-point polytope
        G = _gallery_generators(512) if cloud == "gallery" else _slice_polytope()
        rng = np.random.default_rng(400)
        for x in _slice_queries(G, rng, 400, 3.0 if cloud == "gallery" else 2.0):
            p, lam, gap, ref = _assert_agrees_with_scipy(G, x)
            s = max(1.0, float(np.linalg.norm(x)))
            assert np.linalg.norm(p - ref) <= 1e-12 * s
            assert gap <= 1e-10 * s * s and (G @ (x - p)).max() <= 1e-10 * s

    def test_pricing_pulls_in_a_low_cosine_support(self):
        # x sits just below the middle of the long edge A B of the slice
        # triangle A B C; 100 interior decoys near the edge pair better with x
        # by cosine than A and B do, yet the support is {A, B}
        rng = np.random.default_rng(3)
        decoys = np.column_stack(
            [rng.uniform(-0.1, 0.1, 100), rng.uniform(0.01, 0.05, 100), np.ones(100)]
        )
        A, B, C = [-10.0, 0.0, 1.0], [10.0, 0.0, 1.0], [0.0, 1.0, 1.0]
        G = np.vstack([decoys, [A, B, C]])
        x = np.array([0.3, -0.5, 1.0])
        cos = (G @ x) / np.linalg.norm(G, axis=1)
        assert not {100, 101} & set(np.argsort(-cos)[:64].tolist())
        p, lam, gap = project_conic_generators(G, x)
        assert lam[100] > 0.0 and lam[101] > 0.0
        assert np.count_nonzero(lam) == 2
        np.testing.assert_allclose(p, [0.3, 0.0, 1.0], rtol=0.0, atol=1e-12)
        ref, _ = _one_solve(G, x)
        assert np.linalg.norm(p - ref) <= 1e-12 * np.linalg.norm(x)

    def test_members_come_back_bitwise(self):
        G = _gallery_generators(512)
        rng = np.random.default_rng(5)
        for _ in range(10):
            idx = rng.choice(G.shape[0], 3, replace=False)
            x = rng.gamma(2.0, 1.0, 3) @ G[idx]
            p, lam, gap = project_conic_generators(G, x)
            assert p.tobytes() == x.tobytes()
            assert gap <= 1e-10 * np.linalg.norm(x) ** 2

    def test_does_not_copy_or_write_the_generators(self):
        G = _gallery_generators(512)
        assert not G.flags.writeable
        before = G.tobytes()
        project_conic_generators(G, np.array([3.0, 1.0, 0.5, 1.0]))
        assert G.tobytes() == before

    def test_iteration_cap_raises(self, monkeypatch):
        # the cap is read when the kernel runs
        monkeypatch.setattr(projection_engine, "CONE_MAX_ITER", 1)
        G = _gallery_generators(512)
        with pytest.raises(NonConvergenceError, match="iteration cap") as info:
            project_conic_generators(G, np.array([3.0, 1.0, 0.5, 1.0]))
        assert info.value.iterations == 1
        monkeypatch.setattr(projection_engine, "CONE_MAX_ITER", 20000)
        assert project_conic_generators(G, np.array([3.0, 1.0, 0.5, 1.0]))[2] <= 1e-10

    def test_no_least_squares_solve(self, monkeypatch):
        # the weights come from the updated factor: no LAPACK solve runs
        def forbidden(*args, **kwargs):
            raise AssertionError("project_conic_generators called a numpy.linalg solver")

        for name in ("lstsq", "solve", "qr", "svd", "pinv"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        rng = np.random.default_rng(6)
        for x in rng.standard_normal((10, 3)) * 3.0:
            assert project_conic_generators(PYRAMID, x)[2] <= 1e-10 * max(1.0, np.linalg.norm(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            project_conic_generators(_gallery_generators(512), np.array([bad, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_generator_raises(self, bad):
        G = PYRAMID.copy()
        G[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            project_conic_generators(G, np.array([3.0, 1.0, 0.5]))


class TestHugeGeneratorPoints:
    """x.x overflows: the kernel solves at x / 2^e and scales back, with no
    overflow warning (this suite turns warnings into errors)."""

    def test_orthant_generators(self):
        x = np.array([1e200, -1e200, 1e200])
        p, lam, gap = project_conic_generators(np.eye(3), x)
        assert p.tolist() == [1e200, 0.0, 1e200]
        assert lam.tolist() == [1e200, 0.0, 1e200]
        assert gap <= 1e-10

    def test_point_outside_the_gallery_cone(self):
        # every point of the cone has x4 >= 0; this one projects to 0
        K = gallery.conic_hull_of_body(128)
        r = project(K, (1e200, 0.0, 0.0, -1e200))
        assert r.point.tolist() == [0.0] * 4
        assert r.distance == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        assert r.certificate_gap <= 1e-10

    def test_scaled_answer_is_the_small_answer_scaled(self):
        rng = np.random.default_rng(8)
        G = rng.standard_normal((30, 5))
        for x in rng.standard_normal((20, 5)):
            big = np.ldexp(x, 700)
            p, lam, gap = project_conic_generators(G, big)
            e = math.frexp(float(np.abs(big).max()))[1]
            ps, lams, gaps = project_conic_generators(G, np.ldexp(big, -e))
            assert p.tobytes() == np.ldexp(ps, e).tobytes()
            assert lam.tobytes() == np.ldexp(lams, e).tobytes() and gap == gaps

    def test_member_comes_back_unchanged(self):
        x = np.array([1e200, 0.0, 3e200])
        p, _, _ = project_conic_generators(PYRAMID, x)
        assert p.tobytes() == x.tobytes()


@lru_cache(maxsize=None)
def _generator_robustness_set():
    """(kind, cone, query, G, x) at a fixed seed. For the kinds plain,
    degenerate and x100: 250 sets of n in 1..80 generators in R^d, d in
    2..16, with four queries each at scales 0.3, 1, 3 and 10 times the
    generators'; degenerate sets repeat rows of their first half in the
    second and put about half their rows on one hyperplane, x100 sets are
    plain ones scaled by 100. psd_face: 100 sets of rank-one PSD(k) matrices
    u u^T with u in a random r-dimensional subspace (a face of PSD(k)), k in
    2..5, four symmetric queries each. gallery: the lifted body clouds of
    density 512, and 2048 and 256 refined near an arc parameter, 60
    queries each around the cloud's mean. mixed: 250 sets whose rows have
    lengths 1e-4 to 1e4, three queries of scales 1e-2 to 1e4 and a member
    each."""
    rng = np.random.default_rng(0)
    out = []
    for kind in ("plain", "degenerate", "x100"):
        for c in range(250):
            d = int(rng.integers(2, 17))
            n = int(rng.integers(1, 81))
            G = rng.standard_normal((n, d))
            if kind == "degenerate":
                k = max(1, n // 2)
                G[k:] = G[rng.integers(0, k, n - k)]
                nrm = rng.standard_normal(d)
                nrm /= np.linalg.norm(nrm)
                sel = rng.random(n) < 0.5
                G[sel] -= np.outer(G[sel] @ nrm, nrm)
            scale = 100.0 if kind == "x100" else 1.0
            G *= scale
            for q in range(4):
                out.append((kind, c, q, G, rng.standard_normal(d) * scale * (0.3, 1.0, 3.0, 10.0)[q]))
    for c in range(100):
        k = int(rng.integers(2, 6))
        r = int(rng.integers(1, k + 1))
        U = rng.standard_normal((int(rng.integers(1, 40)), r)) @ np.linalg.qr(rng.standard_normal((k, r)))[0].T
        G = sym_to_vec(U[:, :, None] * U[:, None, :])
        for q in range(4):
            X = rng.standard_normal((k, k)) * (0.3, 1.0, 3.0, 10.0)[q]
            out.append(("psd_face", c, q, G, sym_to_vec(X + X.T)))
    for c, (density, hint) in enumerate([(512, None), (2048, 1.1), (256, 0.4)]):
        G = _gallery_generators(density) if hint is None else _gallery_generators(density, hint)
        center = G.mean(axis=0)
        for q in range(60):
            spread = rng.uniform(0.1, 3.0)
            out.append(("gallery", c, q, G, center + rng.standard_normal(4) * [3.0, 3.0, 3.0, 1.0] * spread))
    for c in range(250):
        d = int(rng.integers(2, 17))
        n = int(rng.integers(1, 81))
        G = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-4.0, 4.0, (n, 1))
        for q in range(3):
            out.append(("mixed", c, q, G, rng.standard_normal(d) * 10.0 ** rng.uniform(-2.0, 4.0)))
        out.append(("mixed", c, 3, G, rng.gamma(1.0, 1.0, n) @ G))
    return out


class TestGeneratorRobustnessSet:
    @pytest.mark.parametrize("kind", ["plain", "degenerate", "x100", "psd_face", "gallery"])
    def test_certified_and_agrees_with_scipy(self, kind):
        # scipy's solver certifies every query of the set and the kernel
        # raises on none; their distances agree
        for _, _, _, G, x in (case for case in _generator_robustness_set() if case[0] == kind):
            _assert_agrees_with_scipy(G, x)

    def test_mixed_lengths_certified(self):
        # the kernel certifies every query; scipy's certified answers agree
        # with it (scipy's rounding on the long generators leaves some of its
        # answers uncertified, and members unsnapped)
        oracle_certified = 0
        for _, _, _, G, x in (case for case in _generator_robustness_set() if case[0] == "mixed"):
            p, lam, gap = project_conic_generators(G, x)
            s = max(1.0, float(np.linalg.norm(x)))
            assert projection_engine._kkt_certified(*_kkt_terms(G, x, p, lam), s)
            ref, ref_lam = _one_solve(G, x)
            if projection_engine._kkt_certified(*_kkt_terms(G, x, ref, ref_lam), s):
                oracle_certified += 1
                assert abs(np.linalg.norm(x - p) - np.linalg.norm(x - ref)) <= 1e-9 * s
        assert oracle_certified >= 900  # of 1,000


class TestCompositeSpecs:
    def test_polyhedral_inequality_projection(self):
        # quadrant rotated: {x : x1 >= 0, x1 + x2 >= 0}
        K = PolyhedralCone(inequalities=np.array([[1.0, 0.0], [1.0, 1.0]]))
        r = project(K, [-1.0, -3.0])
        # KKT cross-check by construction: answer must satisfy both rows
        assert (K.inequalities @ r.point).min() >= -1e-10
        # residual is orthogonal to the point and pairs nonpositively inside
        assert abs(r.point @ ([-1.0, -3.0] - r.point)) <= 1e-9

    def test_product_blockwise(self):
        P = ProductCone(NonnegativeOrthant(2), SecondOrderCone(3))
        x = np.array([-1.0, 2.0, 3.0, 4.0, 0.0])
        r = project(P, x)
        np.testing.assert_allclose(r.point[:2], [0.0, 2.0])
        np.testing.assert_allclose(r.point[2:], [1.5, 2.0, 2.5], atol=1e-12)
        assert r.distance == pytest.approx(np.hypot(1.0, 5.0 / np.sqrt(2.0)), rel=1e-10)

    def test_intersection_psd_and_nonneg(self):
        K = IntersectionCone((PsdCone(2), NonnegativeOrthant(3)))
        X = np.array([[1.0, -1.0], [-1.0, 1.0]])
        r = project(K, sym_to_vec(X))
        Y = vec_to_sym(r.point)
        w = np.linalg.eigvalsh(Y)
        assert w.min() >= -1e-8
        assert r.point.min() >= -1e-8
        assert r.method == "dykstra"

    def test_linear_image_isometry(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation by 90 degrees
        K = LinearImageCone(matrix=R, inner=NonnegativeOrthant(2))
        r = project(K, R @ np.array([2.0, -1.0]))
        np.testing.assert_allclose(r.point, R @ np.array([2.0, 0.0]), atol=1e-12)

    def test_linear_image_general_rank(self):
        # stretch the orthant: A = diag(2, 1) is full rank but not orthonormal
        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        K = LinearImageCone(matrix=A, inner=NonnegativeOrthant(2))
        # the image is still the orthant, so projections agree with clipping
        r = project(K, np.array([-3.0, 5.0]))
        np.testing.assert_allclose(r.point, [0.0, 5.0], atol=1e-8)


class TestNonFinitePoints:
    SPECS = [
        NonnegativeOrthant(3),
        SecondOrderCone(3),
        PsdCone(2),
        LinearSubspace(np.eye(3)[:1]),
        PolyhedralCone(generators=np.eye(3)),
        ProductCone(NonnegativeOrthant(1), SecondOrderCone(2)),
    ]

    @pytest.mark.parametrize("K", SPECS, ids=lambda K: type(K).__name__)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raises_for_every_spec(self, K, bad):
        x = np.ones(3)
        x[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            project(K, x)
        with pytest.raises(ValueError, match="non-finite"):
            moreau_decompose(K, x)

    @pytest.mark.parametrize("K", [NonnegativeOrthant(6), SecondOrderCone(6), PsdCone(3)],
                             ids=lambda K: type(K).__name__)
    def test_huge_finite_points_pass_the_guard(self, K):
        # x.x overflows, so the entries decide
        x = np.array([1e200, -3e200, 2e200, 5e199, -1e200, 7e199])
        r = project(K, x)
        assert r.point.shape == x.shape
        assert np.isfinite(r.point).all() and math.isfinite(r.distance)

    @pytest.mark.parametrize("x", [[1e200, -3e200, 2e200], [3e200, 4e200, -2e200],
                                   [-1e300, 5e299, 2e299], [1e308, -1e308, 1e308],
                                   [1.5e308, 1.5e308, 1e308]])
    def test_soc_with_overflowing_norm_is_the_scaled_projection(self, x):
        # a cone projection commutes with scaling by 2^k, which is exact, and
        # at 2^-600 nothing overflows; near the float max (ny + t) / 2 and
        # ||y|| itself would
        x = np.array(x)
        small = project(SecondOrderCone(3), np.ldexp(x, -600))
        r = project(SecondOrderCone(3), x)
        p = project_scaled_soc(x, 1.0)
        assert np.isfinite(r.point).all()
        assert r.point.tobytes() == np.ldexp(small.point, 600).tobytes() == p.tobytes()
        assert r.distance == math.ldexp(small.distance, 600)

    NEAR_MAX = np.array([1.7e308] * 9 + [-1.7e308])

    def test_soc_distance_past_the_float_max_is_inf(self):
        # the projection is finite, but x - p overflows: the distance, which
        # is past the float max, comes back inf with no overflow warning
        x = self.NEAR_MAX
        r = project(SecondOrderCone(10), x)
        small = project(SecondOrderCone(10), np.ldexp(x, -600))
        assert np.isfinite(r.point).all()
        assert r.point.tobytes() == np.ldexp(small.point, 600).tobytes()
        assert small.distance > np.ldexp(np.finfo(float).max, -600)
        assert r.distance == math.inf

    @pytest.mark.parametrize("slope", [0.5, 1.0, 2.0])
    def test_scaled_soc_past_the_float_max_is_the_scaled_projection(self, slope):
        x = self.NEAR_MAX
        p = project_scaled_soc(x, slope)
        assert np.isfinite(p).all()
        assert p.tobytes() == np.ldexp(project_scaled_soc(np.ldexp(x, -600), slope), 600).tobytes()
        if slope == 1.0:
            assert p.tobytes() == project(SecondOrderCone(10), x).point.tobytes()

    NEAR_MAX_3 = np.array([1.7e308, -1.7e308, 1.7e308])

    @pytest.mark.parametrize(
        "K, expected, distance",
        [(LinearSubspace(np.array([[1.0, 1.0, 0.0]])), [0.0, 0.0, 0.0], math.inf),
         (PolyhedralCone(generators=np.eye(3)), [1.7e308, 0.0, 1.7e308], 1.7e308),
         (Halfspace(np.array([1.0, -1.0, 0.0])), [0.0, 0.0, 1.7e308], math.inf),
         (PolyhedralCone(inequalities=np.eye(3)), [1.7e308, 0.0, 1.7e308], 1.7e308),
         (LinearImageCone(np.eye(3)[:, :2], NonnegativeOrthant(2)), [1.7e308, 0.0, 0.0], math.inf),
         (IntersectionCone((NonnegativeOrthant(3), SecondOrderCone(3))),
          [1.7e308, 0.0, 1.7e308], 1.7e308)],
        ids=["subspace", "generators", "halfspace", "inequalities", "linear_image",
             "intersection"],
    )
    def test_near_max_point_is_the_scaled_projection(self, K, expected, distance):
        # x.x overflows: the cone projects x / 2^1024 and scales back, so no
        # kernel sees a square past the float max and nothing warns
        x = self.NEAR_MAX_3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = project(K, x)
        small = project(K, np.ldexp(x, -1024))
        assert r.point.tobytes() == np.ldexp(small.point, 1024).tobytes()
        np.testing.assert_allclose(r.point, expected, rtol=1e-15, atol=1e-15 * 1.7e308)
        assert r.distance == pytest.approx(distance, rel=1e-15)
        assert r.certificate_gap == small.certificate_gap

    def test_near_max_affine_halfspace_scales_its_offset(self):
        # not a cone: the offset is scaled with the point, so normal . x is
        # never formed at full size and nothing overflows
        K = Halfspace(np.array([1.0, -1.0, 0.0]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = project(K, self.NEAR_MAX_3)
        assert np.isfinite(r.point).all()
        np.testing.assert_allclose(r.point, [0.0, 0.0, 1.7e308], rtol=1e-15, atol=1e-15 * 1.7e308)
        assert r.distance == math.inf

    def test_soc_projection_past_the_float_max_raises(self):
        # the answer's last coordinate, (||y|| + t) / 2, is about 2.05e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="past the float range"):
                project(SecondOrderCone(3), self.NEAR_MAX_3)

    @pytest.mark.parametrize(
        "K, member",
        [(NonnegativeOrthant(6), np.full(6, 3e200)),
         (SecondOrderCone(6), np.array([0.0, 1e200, 0.0, 0.0, 0.0, 2e200])),
         (PsdCone(3), sym_to_vec(np.diag([1e200, 2e200, 3e200])))],
        ids=["orthant", "soc", "psd"],
    )
    def test_huge_members_come_back_bitwise(self, K, member):
        r = project(K, member)
        assert r.point.tobytes() == member.tobytes() and r.distance == 0.0


def _bits(a) -> bytes:
    return np.float64(a).tobytes()


def _reference_atom(K, x):
    """The atoms' closed forms written out with np.linalg.norm and the
    index-based embedding, the formulas the one-point path must match bitwise."""
    if isinstance(K, NonnegativeOrthant):
        p = np.maximum(x, 0.0)
    elif isinstance(K, SecondOrderCone):
        y, t = x[:-1], float(x[-1])
        ny = float(np.linalg.norm(y))
        if ny <= t:
            p = x.copy()
        elif ny <= -t:
            p = np.zeros_like(x)
        else:
            c = (ny + t) / 2.0
            p = np.append((c / ny) * y, c)
    else:
        n = K.n
        iu, ju = np.triu_indices(n)
        off = iu != ju
        w = x.copy()
        w[off] /= np.sqrt(2.0)
        X = np.zeros((n, n))
        X[iu, ju] = w
        X[ju, iu] = w
        ev, U = np.linalg.eigh(X)
        if ev[0] >= 0.0:
            p = x.copy()
        else:
            p = ((U * np.maximum(ev, 0.0)) @ U.T)[iu, ju]
            p[off] *= np.sqrt(2.0)
    return p, float(np.linalg.norm(x - p))


class TestAtomsMatchReferenceFormulas:
    @pytest.mark.parametrize(
        "K", [NonnegativeOrthant(8), SecondOrderCone(3), SecondOrderCone(10), PsdCone(1),
              PsdCone(5), PsdCone(8)],
        ids=lambda K: f"{type(K).__name__}{K.dim}",
    )
    def test_bitwise_on_a_fixed_stream(self, K):
        rng = np.random.default_rng(2011)
        for k in range(400):
            x = rng.standard_normal(K.dim) * 10.0 ** rng.uniform(-3, 3)
            if k % 4 == 0:
                x = _reference_atom(K, x)[0]  # at or next to the boundary
            r = project(K, x)
            p, d = _reference_atom(K, x)
            assert r.point.tobytes() == p.tobytes()
            assert _bits(r.distance) == _bits(d)

    @pytest.mark.parametrize("slope", [1.0, np.sqrt(2.0), 1.0 / np.sqrt(2.0)])
    @pytest.mark.parametrize("d", [3, 10])
    def test_scaled_soc_bitwise_on_a_fixed_stream(self, d, slope):
        rng = np.random.default_rng(2011)
        for _ in range(400):
            x = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            v, h = x[:-1], float(x[-1])
            nv = float(np.linalg.norm(v))
            if nv <= slope * h:
                ref = x
            elif slope * nv <= -h:
                ref = np.zeros(d)
            else:
                hstar = (slope * nv + h) / (slope * slope + 1.0)
                ref = np.append((slope * hstar / nv) * v, hstar)
            assert project_scaled_soc(x, slope).tobytes() == ref.tobytes()

    def test_psd_projector_skips_the_symmetry_check(self, monkeypatch):
        calls = []
        real = linalg_core._is_symmetric
        monkeypatch.setattr(linalg_core, "_is_symmetric", lambda X: calls.append(1) or real(X))
        sym_to_vec(np.eye(2))
        assert len(calls) == 1  # the spy sees the public map's check
        calls.clear()
        K = PsdCone(5)
        X = np.random.default_rng(4).standard_normal((200, K.dim)) * 1.5
        clipped = sum(moreau_decompose(K, x).polar_part.any() for x in X)
        assert clipped > 150
        assert calls == []


class TestMoreau:
    @pytest.mark.parametrize("K", [NonnegativeOrthant(4), SecondOrderCone(4), PsdCone(2)])
    def test_split_reconstructs_and_is_orthogonal(self, K):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.standard_normal(K.dim) * 2.0
            sp = moreau_decompose(K, x)
            np.testing.assert_allclose(sp.cone_part + sp.polar_part, x, atol=1e-12)
            assert sp.residual <= 1e-10
            # polar part projects onto the polar cone: -polar_part is in dual
            assert project(K, sp.polar_part).distance == pytest.approx(
                float(np.linalg.norm(sp.polar_part)), abs=1e-8
            )


class TestHull:
    def test_triangle_closed_form(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        r = project_hull(pts, np.array([1.0, 1.0]))
        np.testing.assert_allclose(r.point, [0.5, 0.5], atol=1e-10)
        assert r.distance == pytest.approx(np.sqrt(0.5), rel=1e-9)

    def test_inside_point_is_fixed(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        r = project_hull(pts, np.array([0.2, 0.2]))
        assert r.distance <= 1e-9

    def test_weights_live_on_simplex(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 3))
        r, w = project_hull(pts, rng.standard_normal(3) * 3.0, return_weights=True)
        assert w.min() >= -1e-14
        assert w.sum() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(w @ pts, r.point, atol=1e-10)

    def test_gap_certificate(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            pts = rng.standard_normal((100, 4))
            x = rng.standard_normal(4) * 2.0
            r = project_hull(pts, x)
            assert r.certificate_gap <= 1e-9

    def test_against_generic_solver(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((25, 3))
        for _ in range(5):
            x = rng.standard_normal(3) * 2.0
            r = project_hull(pts, x)
            res = minimize(
                lambda w: np.sum((w @ pts - x) ** 2),
                np.full(25, 1.0 / 25.0),
                jac=lambda w: 2.0 * (pts @ (w @ pts - x)),
                bounds=[(0.0, None)] * 25,
                constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
                method="SLSQP",
                options={"maxiter": 500, "ftol": 1e-14},
            )
            assert r.distance**2 <= res.fun + 1e-9

    def test_single_point(self):
        r = project_hull(np.array([[1.0, 2.0]]), np.array([4.0, 6.0]))
        assert r.distance == pytest.approx(5.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            project_hull(np.zeros((0, 2)), np.zeros(2))


def _brute_force_hull(P, x):
    """Nearest point of conv(P) by enumeration: for every support of at most
    d + 1 points, the nearest point of its affine hull, kept when its affine
    weights are nonnegative; the nearest kept point wins."""
    best = None
    for k in range(1, P.shape[1] + 2):
        for idx in combinations(range(P.shape[0]), k):
            Ps = P[list(idx)]
            nu = np.linalg.lstsq((Ps[1:] - Ps[0]).T, x - Ps[0], rcond=None)[0]
            mu = np.concatenate([[1.0 - nu.sum()], nu])
            if mu.min() < -1e-12:
                continue
            y = mu @ Ps
            if best is None or np.linalg.norm(x - y) < np.linalg.norm(x - best):
                best = y
    return best


def _cylinder_slice(n):
    # the coplanar slice t = 1 of the cylinder hull: top and bottom circles
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    top = np.column_stack([np.cos(th), np.sin(th), np.ones(n), np.ones(n)])
    return np.vstack([top, top * [1.0, 1.0, -1.0, 1.0]])


_RNG = np.random.default_rng(11)
_TINY_CLOUDS = {
    **{f"R{d}_m{m}": _RNG.standard_normal((m, d)) for d in (2, 3) for m in (2, 4, 7)},
    "duplicated_4x": np.tile(_RNG.standard_normal((5, 2)), (4, 1)),
    "flat_in_R3": np.column_stack([_RNG.standard_normal((7, 2)), np.zeros(7)]),
    "cylinder_slice": _cylinder_slice(4),
}


def _warm_start(kind, P, x, rng):
    """A start for project_hull on P from x: None (cold), the cold answer's
    own weights, one random vertex, or uniform weights over the cold support."""
    if kind == "cold":
        return None
    if kind == "vertex":
        start = np.zeros(P.shape[0])
        start[rng.integers(P.shape[0])] = 1.0
        return start
    _, w = project_hull(P, x, return_weights=True)
    return w if kind == "answer" else (w > 0.0).astype(float)


@lru_cache(maxsize=None)
def _tiny_cloud_cases(name):
    """(query, enumerated nearest point) pairs for one tiny cloud, shared by
    every start of the test below."""
    P = _TINY_CLOUDS[name]
    rng = np.random.default_rng(12)
    xs = [rng.standard_normal(P.shape[1]) * scale for scale in (0.3, 1.0, 3.0) for _ in range(8)]
    return [(x, _brute_force_hull(P, x)) for x in xs]


class TestHullAgainstBruteForce:
    @staticmethod
    def _check(name, start):
        P = _TINY_CLOUDS[name]
        rng = np.random.default_rng(13)
        for x, ref in _tiny_cloud_cases(name):
            r = project_hull(P, x, start=_warm_start(start, P, x, rng))
            np.testing.assert_allclose(r.point, ref, rtol=0.0, atol=1e-12)
            assert abs(r.distance - np.linalg.norm(x - ref)) <= 1e-12
            assert r.certificate_gap <= 1e-10
            if start == "answer":
                assert r.iterations == 1

    @pytest.mark.parametrize("name", list(_TINY_CLOUDS))
    def test_agrees_with_enumeration(self, name):
        self._check(name, "cold")

    @pytest.mark.parametrize("start", ["answer", "vertex", "uniform_on_support"])
    @pytest.mark.parametrize("name", list(_TINY_CLOUDS))
    def test_warm_start_agrees_with_enumeration(self, name, start):
        self._check(name, start)

    @pytest.mark.parametrize("name", list(_TINY_CLOUDS))
    def test_start_scale_changes_nothing(self, name):
        # start is renormalised: random weights over every row send Wolfe
        # through minor cycles, and scaling them by a power of two must not
        # change a bit of the answer
        P = _TINY_CLOUDS[name]
        rng = np.random.default_rng(14)
        for x, _ in _tiny_cloud_cases(name):
            w = rng.dirichlet(np.ones(P.shape[0]))
            r1, w1 = project_hull(P, x, return_weights=True, start=w)
            r8, w8 = project_hull(P, x, return_weights=True, start=8.0 * w)
            assert r8.iterations == r1.iterations
            assert r8.point.tobytes() == r1.point.tobytes()
            assert w8.tobytes() == w1.tobytes()

    @pytest.mark.parametrize(
        "start",
        [np.ones(3), np.ones(5), np.array([1.0, -1e-3, 0.0, 0.0]),
         np.array([1.0, np.nan, 0.0, 0.0]), np.array([np.inf, 0.0, 0.0, 0.0]),
         np.zeros(4), np.full(4, 1e308)],
        ids=["short", "long", "negative", "nan", "inf", "zero_sum", "overflowing_sum"],
    )
    def test_invalid_start_raises(self, start):
        P = _TINY_CLOUDS["R2_m4"]
        with pytest.raises(ValueError, match="start"):
            project_hull(P, np.array([3.0, 1.0]), start=start)


def _old_project_hull(P, x, start=None):
    """Wolfe's loop with a full least-squares solve of the affine problem in
    every iteration, as it was before the QR factor update: the reference
    for project_hull. Returns the result and the weights over all rows."""
    m = P.shape[0]
    if start is None:
        support = [int(np.argmin(np.linalg.norm(P - x, axis=1)))]
        lam_s = np.ones(1)
    else:
        support = np.flatnonzero(start).tolist()
        lam_s = start[support] / float(start.sum())
    for iters in range(1, projection_engine.HULL_MAX_ITER + 1):
        Ps = P[support]
        nu = np.linalg.lstsq((Ps[1:] - Ps[0]).T, x - Ps[0], rcond=None)[0]
        mu = np.concatenate([[1.0 - nu.sum()], nu])
        if mu.min() < -1e-12:
            d = mu - lam_s
            mask = d < -1e-15
            t_star = float(np.min(-lam_s[mask] / d[mask]))
            lam_s = np.maximum(lam_s + min(1.0, t_star) * d, 0.0)
            keep = lam_s > 1e-14
            support = [s for s, k_ in zip(support, keep) if k_]
            lam_s = lam_s[keep]
            lam_s /= lam_s.sum()
            continue
        lam_s = np.maximum(mu, 0.0)
        lam_s /= lam_s.sum()
        y = lam_s @ P[support]
        scores = 2.0 * (P - y) @ (x - y)
        j = int(np.argmax(scores))
        gap = max(0.0, float(scores[j]))
        if gap <= projection_engine.GAP_TOL:
            break
        assert j not in support, "the reference stalled"
        support.append(j)
        lam_s = np.append(lam_s, 0.0)
    else:
        raise AssertionError("the reference hit its iteration cap")
    y, gap = projection_engine._snap_member(x, y, gap, float(np.linalg.norm(x)))
    full = np.zeros(m)
    full[support] = lam_s
    return projection_engine._result(x, y, "hull_qp", iters, gap), full


def _rounding(P, x):
    """Rounding level of a squared distance in a hull problem: 64 eps s^2,
    s = 1 + ||x|| + max ||p||."""
    s = 1.0 + np.linalg.norm(x) + np.linalg.norm(P, axis=1).max()
    return 64.0 * np.finfo(float).eps * s * s


def _assert_agrees_with_old_loop(P, x, start=None):
    """Both answers are certified. Each squared distance is within its own
    Frank-Wolfe gap of the optimum, so they differ by at most the larger gap
    plus rounding; and f(y) - f* >= ||y - y*||^2 for the squared distance f,
    so each point is within sqrt(gap) of the optimum y*."""
    r, w = project_hull(P, x, return_weights=True, start=start)
    ref, _ = _old_project_hull(P, x, start)
    tol = projection_engine.GAP_TOL
    assert r.certificate_gap <= tol and ref.certificate_gap <= tol
    eps2 = _rounding(P, x)
    assert abs(r.distance**2 - ref.distance**2) <= max(r.certificate_gap, ref.certificate_gap) + eps2
    assert np.linalg.norm(r.point - ref.point) <= (
        math.sqrt(r.certificate_gap + eps2) + math.sqrt(ref.certificate_gap + eps2)
    )
    assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
    assert np.linalg.norm(w @ P - r.point) <= math.sqrt(eps2)


class TestWolfeAgreesWithOldLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 6),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.05, 20.0),
        warm=st.booleans(),
    )
    def test_agrees_on_random_clouds(self, d, m, seed, scale, warm):
        rng = np.random.default_rng(seed)
        P = rng.standard_normal((m, d))
        for x in rng.standard_normal((4, d)) * scale:
            start = rng.dirichlet(np.ones(m)) * (rng.random(m) < 0.5) if warm else None
            if start is not None and start.sum() == 0.0:
                start = None
            _assert_agrees_with_old_loop(P, x, start)

    @settings(max_examples=30, deadline=None)
    @given(
        P=st.integers(2, 6).flatmap(lambda d: arrays(
            np.float64, st.tuples(st.integers(1, 12), st.just(d)),
            elements=st.floats(-100.0, 100.0, allow_subnormal=False),
        )),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_on_drawn_clouds(self, P, seed):
        # duplicated and coplanar rows, and queries on the cloud itself
        rng = np.random.default_rng(seed)
        xs = np.vstack([rng.standard_normal((3, P.shape[1])) * 50.0, P[:1]])
        for x in xs:
            _assert_agrees_with_old_loop(P, x)

    @pytest.mark.parametrize("start", ["cold", "answer", "vertex", "uniform_on_support"])
    @pytest.mark.parametrize("name", list(_TINY_CLOUDS))
    def test_agrees_on_brute_force_clouds(self, name, start):
        P = _TINY_CLOUDS[name]
        rng = np.random.default_rng(13)
        for x, _ in _tiny_cloud_cases(name):
            _assert_agrees_with_old_loop(P, x, _warm_start(start, P, x, rng))

    def test_agrees_on_the_gallery_slice(self):
        G = _gallery_generators(512)
        rng = np.random.default_rng(9)
        center = G.mean(axis=0)
        for x in center + rng.standard_normal((20, 4)) * [3.0, 3.0, 3.0, 0.0]:
            _assert_agrees_with_old_loop(G, x)


class TestSupportFactor:
    def test_one_row_weighs_exactly_one(self):
        for Ps, x in [(np.array([[3.0, -1.0]]), np.array([0.5, 2.0])),
                      (np.array([[1e-300, 1e300, 0.0]]), np.zeros(3))]:
            f = projection_engine._SupportQR(Ps - Ps[0], x - Ps[0], [0])
            assert f.weights() == [1.0]

    def test_dependent_rows_weigh_zero(self):
        # a repeated row, a row on the line through two others and one in
        # the plane of three others, each computed in floating point, have no
        # factor column: a solve would divide by their rounding residuals
        rng = np.random.default_rng(16)
        p0, p1, p2 = rng.standard_normal((3, 4))
        P = np.array([p0, p1, p1, p0 + 0.3 * (p1 - p0), p2,
                      p0 + 0.7 * (p1 - p0) + 0.1 * (p2 - p0), rng.standard_normal(4)])
        x = rng.standard_normal(4) * 3.0
        f = projection_engine._SupportQR(P - p0, x - p0, list(range(7)))
        assert f.cols == [1, 4, 6]
        mu = f.weights()
        assert mu[2] == mu[3] == mu[5] == 0.0
        assert abs(sum(mu) - 1.0) <= 1e-15
        # the affine hull's nearest point: x less it is normal to the hull
        y = np.dot(mu, P)
        np.testing.assert_allclose((P[[1, 4, 6]] - p0) @ (x - y), 0.0, atol=1e-13)

    @pytest.mark.parametrize("seed", range(6))
    def test_downdates_match_a_fresh_factor(self, seed):
        # drop positions one or two at a time, the base among them, and
        # compare with the factor of the remaining support built from scratch
        rng = np.random.default_rng(seed)
        d = 6
        C = rng.standard_normal((12, d)) * 10.0 ** rng.uniform(-3, 3, size=(12, 1))
        x = rng.standard_normal(d)
        f = projection_engine._SupportQR(C, x, [0, 1, 2, 3, 4, 5, 6])
        for _ in range(4):
            k = len(f.support)
            gone = sorted(rng.choice(k, size=min(2, k - 1), replace=False).tolist())
            f.drop(gone)
            fresh = projection_engine._SupportQR(C, x, list(f.support))
            np.testing.assert_allclose(f.weights(), fresh.weights(), rtol=0.0, atol=1e-9)
            r = len(f.R)
            assert r == len(f.support) - 1
            np.testing.assert_allclose(f.Q[:r] @ f.Q[:r].T, np.eye(r), atol=1e-14)
            D = C[f.support[1:]] - C[f.support[0]]
            Rm = np.zeros((r, r))
            for i, col in enumerate(f.R):
                Rm[: i + 1, i] = col
            np.testing.assert_allclose(Rm.T @ f.Q[:r], D, atol=1e-12 * np.abs(D).max())
            f.add(int(rng.choice(sorted(set(range(12)) - set(f.support)))))


class TestHullInputs:
    @pytest.mark.parametrize(
        "points, x",
        [
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0]),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [np.inf, 1.0]),
            ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, -np.inf]),
            ([[0.0, 0.0], [np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            ([[0.0, 0.0], [1.0, np.inf], [0.0, 1.0]], [1.0, 1.0]),
        ],
        ids=["nan_x", "inf_x", "minus_inf_x", "nan_row", "inf_row"],
    )
    def test_non_finite_input_raises(self, points, x):
        with pytest.raises(ValueError, match="finite"):
            project_hull(np.array(points), np.array(x))

    @pytest.mark.parametrize(
        "points, x",
        [
            (np.array([0.0, 1.0, 2.0]), np.array([0.5])),
            (np.zeros((3, 2)), np.zeros(3)),
            (np.zeros((3, 2)), np.zeros((1, 2))),
            (np.zeros((3, 0)), np.zeros(0)),
            (np.zeros((2, 2, 2)), np.zeros(2)),
        ],
        ids=["1d_points", "x_too_long", "2d_x", "no_coordinates", "3d_points"],
    )
    def test_shape_mismatch_raises(self, points, x):
        with pytest.raises(ValueError, match="shapes"):
            project_hull(points, x)

    def test_nan_gap_is_never_certified(self):
        C = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        gap, _ = projection_engine._fw_gap(C, np.array([1.0, 1.0]), np.array([np.nan, 0.0]))
        assert math.isnan(gap)

    @pytest.mark.parametrize("k", [0, 1])
    def test_huge_points_are_projected_scaled(self, k):
        # x (and the cloud, for k = 1) near 1e200: x.x and (p - y).(x - y)
        # overflow unscaled; the answer is the scaled problem's, scaled back
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) * (1e200 if k else 1.0)
        x = np.array([1e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, w = project_hull(P, x, return_weights=True)
        e = math.frexp(1e200)[1]
        ref, ref_w = project_hull(np.ldexp(P, -e), np.ldexp(x, -e), return_weights=True)
        assert r.point.tobytes() == np.ldexp(ref.point, e).tobytes()
        assert w.tobytes() == ref_w.tobytes()
        assert r.certificate_gap == ref.certificate_gap <= projection_engine.GAP_TOL
        assert r.distance == pytest.approx(float(np.ldexp(ref.distance, e)), rel=1e-15)
        if k:
            np.testing.assert_allclose(r.point, [5e199, 5e199], rtol=1e-14)

    def test_huge_member_comes_back_unchanged(self):
        P = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]) * 1e300
        x = np.array([1e300, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = project_hull(P, x)
        assert r.distance == 0.0 and r.point.tobytes() == x.tobytes()

    def test_no_least_squares_solve(self, monkeypatch):
        # the affine weights come from the updated factor: no LAPACK solve
        # or factorization runs per iteration, or at all
        def forbidden(*args, **kwargs):
            raise AssertionError("project_hull called a numpy.linalg solver")

        for name in ("lstsq", "solve", "qr", "svd", "pinv"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        rng = np.random.default_rng(15)
        for name, P in _TINY_CLOUDS.items():
            for x in rng.standard_normal((8, P.shape[1])) * 2.0:
                r = project_hull(P, x)
                assert r.certificate_gap <= projection_engine.GAP_TOL
                r = project_hull(P, x, start=rng.dirichlet(np.ones(P.shape[0])))
                assert r.certificate_gap <= projection_engine.GAP_TOL


@lru_cache(maxsize=None)
def _robustness_set():
    """(kind, cloud, query, P, x) for 12,000 queries at a fixed seed: for each
    kind, 1,000 clouds of m in 1..60 rows in R^d, d in 2..12, and four
    queries each at scales 0.3, 1, 3 and 10 times the cloud's. Kinds: plain
    Gaussian clouds; degenerate ones, whose second half repeats rows of the
    first and about half of whose rows are projected onto one hyperplane;
    and plain clouds scaled by 100."""
    rng = np.random.default_rng(0)
    out = []
    for kind in ("plain", "degenerate", "x100"):
        for c in range(1000):
            d = int(rng.integers(2, 13))
            m = int(rng.integers(1, 61))
            P = rng.standard_normal((m, d))
            if kind == "degenerate":
                k = max(1, m // 2)
                P[k:] = P[rng.integers(0, k, m - k)]
                nrm = rng.standard_normal(d)
                nrm /= np.linalg.norm(nrm)
                sel = rng.random(m) < 0.5
                P[sel] -= np.outer(P[sel] @ nrm, nrm)
            scale = 1.0
            if kind == "x100":
                P *= 100.0
                scale = 100.0
            for q in range(4):
                x = rng.standard_normal(d) * scale * (0.3, 1.0, 3.0, 10.0)[q]
                out.append((kind, c, q, P, x))
    return out


# Queries of the x100 set on which Wolfe's loop with a least-squares solve
# per iteration stalls (the cap case, c = 116, hit 20,000 iterations): the
# updated factor certifies each, at the enumerated nearest point.
_OLD_LOOP_FAILURES = [(323, 3), (161, 3), (238, 3), (253, 0), (414, 0), (876, 3), (628, 0),
                      (688, 0), (116, 0)]


class TestRobustnessSet:
    @pytest.mark.parametrize("kind", ["plain", "degenerate", "x100"])
    def test_certified_or_raises(self, kind):
        # every answer is certified and its weights reproduce it; only the
        # far x100 queries may stall, at gaps just above the absolute
        # GAP_TOL that rounding on their scale cannot reach
        tol = projection_engine.GAP_TOL
        stalls = []
        for _, c, q, P, x in (case for case in _robustness_set() if case[0] == kind):
            try:
                r, w = project_hull(P, x, return_weights=True)
            except NonConvergenceError as err:
                assert "stalled" in str(err)
                stalls.append(err.residual)
                continue
            assert r.certificate_gap <= tol
            assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
            assert np.linalg.norm(w @ P - r.point) <= math.sqrt(_rounding(P, x))
        if kind != "x100":
            assert stalls == []
        assert len(stalls) <= 40  # of 4,000
        assert all(g < 3.0 * tol for g in stalls)

    @pytest.mark.parametrize("c, q", _OLD_LOOP_FAILURES)
    def test_old_loop_failures_agree_with_enumeration(self, c, q):
        _, _, _, P, x = next(case for case in _robustness_set()
                             if case[0] == "x100" and case[1:3] == (c, q))
        with pytest.raises(AssertionError, match="reference"):
            _old_project_hull(P, x)
        r = project_hull(P, x)
        assert r.certificate_gap <= projection_engine.GAP_TOL
        ref = _brute_force_hull(P, x)
        eps2 = _rounding(P, x)
        assert abs(r.distance**2 - np.linalg.norm(x - ref) ** 2) <= projection_engine.GAP_TOL + eps2
        assert np.linalg.norm(r.point - ref) <= math.sqrt(r.certificate_gap + eps2) + math.sqrt(eps2)

    @pytest.mark.parametrize("d", [2, 5, 9, 12, 16])
    def test_dependent_warm_starts(self, d):
        # starts over every row of clouds with more than d + 1 rows, some of
        # them repeated or on one hyperplane, agree with the cold answer
        rng = np.random.default_rng(100 + d)
        tol = projection_engine.GAP_TOL
        for _ in range(20):
            m = int(rng.integers(d + 2, d + 30))
            P = rng.standard_normal((m, d))
            P[m // 2:] = P[rng.integers(0, m // 2, m - m // 2)]
            P[rng.random(m) < 0.3, 0] = 0.0
            x = rng.standard_normal(d) * 3.0
            cold = project_hull(P, x)
            r, w = project_hull(P, x, return_weights=True, start=rng.dirichlet(np.ones(m)))
            assert r.certificate_gap <= tol and cold.certificate_gap <= tol
            eps2 = _rounding(P, x)
            assert abs(r.distance**2 - cold.distance**2) <= tol + eps2
            assert np.linalg.norm(r.point - cold.point) <= 2.0 * math.sqrt(tol + eps2)
            assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12


class TestCertifiedOrRaise:
    def test_hull_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(projection_engine, "HULL_MAX_ITER", 1)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NonConvergenceError, match="iteration cap"):
            project_hull(pts, np.array([1.0, 1.0]))

    def test_generator_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(projection_engine, "CONE_MAX_ITER", 1)
        with pytest.raises(NonConvergenceError, match="iteration cap"):
            project_conic_generators(PYRAMID, np.array([3.0, 1.0, 0.5]))

    def test_large_point_gap_on_its_own_scale(self):
        # the complementarity term <p, x - p> rounds like eps ||x||^2: 1.63e-4
        # here, above GAP_TOL * ||x|| = 1.46e-4 but far inside GAP_TOL * ||x||^2
        G = np.abs(np.random.default_rng(0).standard_normal((5, 4))) + 0.1
        F = minimal_face(PolyhedralCone(generators=G), G[0] + G[1])
        assert F.descriptor["kind"] == "poly_gens"
        x = 728495.0 * np.ones(4)
        p, lam, gap = project_conic_generators(F.descriptor["generators"], x)
        assert gap > 1e-10 * np.linalg.norm(x)
        assert face_projection(F, x).tobytes() == p.tobytes()
        # p is the projection: x - p is normal to the face cone at p
        GJ = F.descriptor["generators"]
        assert np.all(GJ @ (x - p) <= 1e-10 * np.linalg.norm(x))
        assert abs(p @ (x - p)) <= 1e-10 * np.linalg.norm(x) ** 2

    def test_linear_image_uncertified_raises(self):
        # nearly parallel columns: the step test fires at z = (0, 3e7), whose
        # image (3, 3, 0) is not the projection (1, 1, 0); its KKT gap is 12
        A = np.array([[1.0, 1e-7], [0.0, 1e-7], [0.0, 0.0]])
        K = LinearImageCone(matrix=A, inner=NonnegativeOrthant(2))
        with pytest.raises(NonConvergenceError, match="KKT gap") as info:
            project(K, np.array([-1.0, 3.0, 1.0]))
        assert info.value.iterations == 5000
        assert info.value.residual == pytest.approx(12.0, rel=1e-6)

    def test_linear_image_general_branch_certified(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 3))
        K = LinearImageCone(matrix=A, inner=SecondOrderCone(3))
        assert not K.orthonormal_columns
        for _ in range(20):
            x = rng.standard_normal(4) * 10.0 ** rng.uniform(-2, 3)
            r = project(K, x)
            assert r.certificate_gap <= 1e-10 * max(1.0, np.linalg.norm(x)) ** 2
            # the normal x - p pairs to at most zero with the whole image cone
            z_dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [-0.6, 0.8, 1.0]])
            assert np.all((z_dirs @ A.T) @ (x - r.point) <= 1e-8 * np.linalg.norm(x))
        member = A @ np.array([0.3, -0.4, 0.5])
        r = project(K, member)
        assert r.distance == 0.0 and r.point.tobytes() == member.tobytes()


class TestDykstra:
    def test_two_halfplanes_closed_form(self):
        # {y <= 0} and {y >= x}: the intersection's projection of (1, 1) is
        # the origin (the wedge's apex is the nearest point)
        def p1(v):
            return np.array([v[0], min(v[1], 0.0)])

        def p2(v):
            m = max(0.0, (v[0] - v[1]) / 2.0)
            return np.array([v[0] - m, v[1] + m])

        r = dykstra_projectors([p1, p2], np.array([1.0, 1.0]))
        np.testing.assert_allclose(r.point, [0.0, 0.0], atol=1e-8)
        assert r.method == "dykstra"

    def test_affine_pair_meets_in_point(self):
        # two lines through (2, 3): Dykstra finds the intersection
        def p1(v):
            return np.array([v[0], 3.0])

        def p2(v):
            return np.array([2.0, v[1]])

        r = dykstra_projectors([p1, p2], np.array([10.0, -4.0]))
        np.testing.assert_allclose(r.point, [2.0, 3.0], atol=1e-9)

    def test_disjoint_sets_raise(self):
        def p1(v):
            return np.array([v[0], 0.0])

        def p2(v):
            return np.array([v[0], 1.0])

        with pytest.raises(NonConvergenceError):
            dykstra_projectors([p1, p2], np.array([0.0, 0.5]), max_iter=60)

    def test_intersection_wrapper(self):
        parts = (NonnegativeOrthant(2), PolyhedralCone(inequalities=np.array([[1.0, -1.0]])))
        r = dykstra_intersection(parts, np.array([1.0, 3.0]))
        np.testing.assert_allclose(r.point, [2.0, 2.0], atol=1e-8)

    def test_needs_projectors(self):
        with pytest.raises(ValueError):
            dykstra_projectors([], np.zeros(2))

"""Tests for face handles: minimal faces, conjugates, exposedness, dual sums."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conelab import gallery
from conelab.cone_algebra import (
    NonnegativeOrthant,
    PolyhedralCone,
    ProductCone,
    PsdCone,
    SecondOrderCone,
    dual_cone,
    sample_points,
)
from conelab.facial_structure import (
    FaceHandle,
    _far_filter,
    NotInConeError,
    conjugate_face,
    dual_sum_membership,
    face_contains,
    face_projection,
    face_samples,
    full_face,
    is_exposed,
    minimal_face,
    zero_face,
)
from conelab.linalg_core import DEFAULT_TOL, orthonormalize, sym_to_vec, vec_to_sym


class TestMinimalFace:
    def test_orthant_pins_zero_coordinates(self):
        F = minimal_face(NonnegativeOrthant(3), [1.0, 0.0, 2.0])
        assert F.face_dim == 2
        assert F.descriptor["zeros"] == (1,)
        assert F.contains([5.0, 0.0, 0.1])
        assert not F.contains([1.0, 1.0, 0.0])

    def test_orthant_zero_point(self):
        F = minimal_face(NonnegativeOrthant(3), np.zeros(3))
        assert F.face_dim == 0

    def test_orthant_interior_is_full(self):
        F = minimal_face(NonnegativeOrthant(3), [1.0, 2.0, 3.0])
        assert F.face_dim == 3

    def test_soc_boundary_ray(self):
        F = minimal_face(SecondOrderCone(3), [1.0, 0.0, 1.0])
        assert F.face_dim == 1
        assert F.contains([2.0, 0.0, 2.0])
        assert not F.contains([0.0, 1.0, 1.0])

    def test_soc_interior_and_apex(self):
        assert minimal_face(SecondOrderCone(3), [0.0, 0.0, 1.0]).face_dim == 3
        assert minimal_face(SecondOrderCone(3), np.zeros(3)).face_dim == 0

    def test_psd_rank_one(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        F = minimal_face(PsdCone(2), sym_to_vec(X))
        assert F.face_dim == 1
        assert F.contains(sym_to_vec(3.0 * X))
        assert not F.contains(sym_to_vec(np.diag([1.0, 0.0])))

    def test_polyhedral_active_rows(self):
        K = PolyhedralCone(inequalities=np.eye(3))
        F = minimal_face(K, [1.0, 0.0, 2.0])
        assert F.face_dim == 2
        assert F.contains([0.5, 0.0, 9.0])

    def test_polyhedral_generator_rep(self):
        K = PolyhedralCone(generators=np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        edge = minimal_face(K, [2.0, 0.0])
        assert edge.face_dim == 1
        assert edge.contains([3.0, 0.0])
        assert not edge.contains([0.0, 1.0])
        assert minimal_face(K, [1.0, 0.5]).face_dim == 2

    def test_product_combines_blocks(self):
        K = ProductCone(NonnegativeOrthant(2), SecondOrderCone(3))
        F = minimal_face(K, [1.0, 0.0, 1.0, 0.0, 1.0])
        assert F.face_dim == 2
        assert F.contains([2.0, 0.0, 3.0, 0.0, 3.0])

    def test_outside_point_raises(self):
        with pytest.raises(NotInConeError):
            minimal_face(NonnegativeOrthant(3), [-1.0, 0.0, 0.0])


def _reference_psd_range_span(U):
    """The PSD-range face's span as a loop: one embedded u_i u_j^T + u_j u_i^T
    per pair i <= j, orthonormalized."""
    r = U.shape[1]
    vecs = []
    for i in range(r):
        for j in range(i, r):
            M = np.outer(U[:, i], U[:, j])
            vecs.append(sym_to_vec(M + M.T))
    return orthonormalize(np.array(vecs))


def _reference_product_span(K, Fl, Fr):
    """The product face's span as a loop: each factor's rows padded with zeros."""
    rows = [np.concatenate([r, np.zeros(K.right.dim)]) for r in Fl.span_basis]
    rows += [np.concatenate([np.zeros(K.left.dim), r]) for r in Fr.span_basis]
    return np.array(rows) if rows else np.zeros((0, K.dim))


class TestFaceSpans:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_psd_range_span_equals_the_loop_bitwise(self, n):
        rng = np.random.default_rng(n)
        for r in range(1, n + 1):
            A = rng.standard_normal((n, r))
            F = minimal_face(PsdCone(n), sym_to_vec(A @ A.T))
            ref = _reference_psd_range_span(F.descriptor["range_basis"])
            assert F.face_dim == r * (r + 1) // 2
            assert F.span_basis.shape == ref.shape
            assert F.span_basis.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "left, right",
        [([1.0, 0.0, 2.0], [0.0, 0.0, 0.0]), ([0.0, 0.0, 0.0], [0.6, 0.8, 1.0]),
         ([1.0, 1.0, 0.0], [0.0, 0.0, 1.0]), ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])],
        ids=["ray_zero", "zero_ray", "face_interior", "zero_zero"],
    )
    def test_product_span_equals_the_loop_bitwise(self, left, right):
        K = ProductCone(NonnegativeOrthant(3), SecondOrderCone(3))
        F = minimal_face(K, np.array(left + right))
        ref = _reference_product_span(K, F.descriptor["left"], F.descriptor["right"])
        assert F.span_basis.shape == ref.shape
        assert F.span_basis.tobytes() == ref.tobytes()


class TestHandleMechanics:
    def test_affine_of_face_is_its_span(self):
        F = minimal_face(NonnegativeOrthant(3), [1.0, 0.0, 2.0])
        aff = F.affine()
        assert aff.distance(np.array([4.0, 0.0, -1.0])) <= 1e-12
        assert aff.distance(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0)

    def test_projection_prefers_exact_projector(self):
        F = minimal_face(NonnegativeOrthant(3), [1.0, 0.0, 2.0])
        p = face_projection(F, np.array([2.0, 5.0, -1.0]))
        np.testing.assert_allclose(p, [2.0, 0.0, 0.0])

    def test_samples_lie_on_face(self):
        F = minimal_face(SecondOrderCone(3), [1.0, 0.0, 1.0])
        pts = face_samples(F, 16, np.random.default_rng(0))
        assert pts.shape == (16, 3)
        assert all(F.contains(p) for p in pts)

    def test_zero_face_samples_vanish(self):
        pts = face_samples(zero_face(NonnegativeOrthant(3)), 4, np.random.default_rng(0))
        np.testing.assert_allclose(pts, np.zeros((4, 3)))

    def test_full_and_zero_dims(self):
        assert full_face(PsdCone(2)).face_dim == 3
        assert zero_face(PsdCone(2)).face_dim == 0


_SEAM_RAYS = ("seam_ray_top", "seam_ray_bottom")


def _stack_face(kind: str, seed: int) -> FaceHandle:
    """A face of the given kind, drawn from the seed."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return zero_face(SecondOrderCone(4))
    if kind == "orthant":
        x = rng.gamma(1.0, 1.0, 5) * (rng.random(5) < 0.6)
        x[0] = 0.0
        return minimal_face(NonnegativeOrthant(5), x)
    if kind == "soc_ray":
        y = rng.standard_normal(4)
        return minimal_face(SecondOrderCone(5), np.append(y, np.linalg.norm(y)))
    if kind == "psd_range":
        A = rng.standard_normal((3, int(rng.integers(1, 3))))
        return minimal_face(PsdCone(3), sym_to_vec(A @ A.T))
    if kind == "poly_gens":
        # a generator face: one nnls solve per row
        G = np.abs(rng.standard_normal((5, 4))) + 0.1
        return minimal_face(PolyhedralCone(generators=G), G[0] + G[1])
    # "seam_ray_top", "seam_ray_bottom" or "seam", by their registry names
    hull = gallery.cylinder_hull_objects().hull
    return gallery.GALLERY["cylinder_K_tilde"].faces[kind](hull)


def _reference_projection(F: FaceHandle, x: np.ndarray) -> np.ndarray:
    """One-point projector formulas of the soc_ray, seam-ray and psd_range
    faces."""
    if F.descriptor["kind"] == "soc_ray":
        g = F.descriptor["generator"]
        return max(0.0, float(g @ x)) * g
    if F.descriptor["kind"] in _SEAM_RAYS:
        unit = F.span_basis[0]
        return max(float(unit @ x), 0.0) * unit
    U = F.descriptor["range_basis"]
    w, Q = np.linalg.eigh(U.T @ vec_to_sym(x) @ U)
    return sym_to_vec(U @ ((Q * np.maximum(w, 0.0)) @ Q.T) @ U.T)


class TestStackedProjection:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["zero", "orthant", "soc_ray", "psd_range", *_SEAM_RAYS, "poly_gens"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_stack_equals_row_by_row(self, kind, seed, data):
        F = _stack_face(kind, seed)
        assert F.descriptor["kind"] == kind
        X = data.draw(arrays(
            np.float64, st.tuples(st.integers(0, 6), st.just(F.ambient_dim)),
            elements=st.floats(-1e6, 1e6, allow_subnormal=False),
        ))
        # plus rows whose sums round, which the drawn values rarely need
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.uniform(-3, 3, (4, 1))
        X = np.vstack([X, rng.standard_normal((4, F.ambient_dim)) * scales])
        P = face_projection(F, X)
        assert P.shape == X.shape
        assert face_projection(F, X[:0]).shape == (0, F.ambient_dim)
        rows = [face_projection(F, x) for x in X]
        assert P.tobytes() == b"".join(r.tobytes() for r in rows)
        if kind in ("soc_ray", *_SEAM_RAYS, "psd_range"):
            assert P.tobytes() == b"".join(_reference_projection(F, x).tobytes() for x in X)

    @pytest.mark.parametrize("which", [0, 1])
    def test_seam_ray_keeps_signed_zero_and_nan_rows(self, which):
        # max(c, 0.0) keeps a -0.0 or NaN coefficient c, so the stack must too
        F = gallery.seam_ray_faces(gallery.cylinder_hull_objects().hull)[which]
        unit = F.span_basis[0]
        X = np.array([
            -unit, np.zeros(4), -np.zeros(4), [0.0, 1.0, 0.0, 0.0], [0.0, -0.0, 0.0, -0.0],
            [np.nan, 0.0, 1.0, 1.0], [np.inf, 0.0, 0.0, 1.0], [-np.inf, 0.0, 0.0, 1.0], 3.0 * unit,
        ])
        with np.errstate(invalid="ignore"):
            P = face_projection(F, X)
            ref = [_reference_projection(F, x) for x in X]
        assert P.tobytes() == b"".join(r.tobytes() for r in ref)

    def test_far_filter_matches_point_loop(self):
        K = PsdCone(3)
        F = minimal_face(K, sym_to_vec(np.diag([1.0, 1.0, 0.0])))
        S = np.vstack([np.zeros((1, 6)), sample_points(K, 300, np.random.default_rng(2))])
        kept = []
        for s in S:
            ns = float(np.linalg.norm(s))
            if ns >= 1e-12 and np.linalg.norm(s / ns - face_projection(F, s / ns)) >= 0.05:
                kept.append(s / ns)
        far = _far_filter(S, F)
        assert 0 < far.shape[0] < S.shape[0] - 1
        assert far.tobytes() == np.array(kept).tobytes()


def _reference_membership(F: FaceHandle, x: np.ndarray, tol=DEFAULT_TOL) -> bool:
    """One-point membership formulas of the stacked kinds, with Python's max
    and np.linalg.norm."""
    kind = F.descriptor["kind"]
    scale = max(1.0, float(np.linalg.norm(x)))
    if kind == "zero":
        return bool(np.linalg.norm(x) <= tol.margin(1.0))
    if kind == "orthant":
        e = tol.margin(scale)
        zeros = list(F.descriptor["zeros"])
        return bool(np.all(x >= -e) and np.all(np.abs(x[zeros]) <= e))
    if kind == "soc_ray":
        g = F.descriptor["generator"]
        c = float(g @ x)
        e = tol.margin(scale)
        return bool(c >= -e and np.linalg.norm(x - c * g) <= e)
    if kind == "psd_range":
        return bool(np.linalg.norm(x - _reference_projection(F, x)) <= tol.margin(scale))
    if kind in _SEAM_RAYS:
        unit = F.span_basis[0]
        c = float(unit @ x)
        return bool(c >= -1e-9 * scale and np.linalg.norm(c * unit - x) <= 1e-9 * scale)
    top, bottom = F.descriptor["generators"]
    a, b = (x[3] + x[2]) / 2.0, (x[3] - x[2]) / 2.0
    eps = 1e-9 * scale
    return bool(a >= -eps and b >= -eps and np.linalg.norm(a * top + b * bottom - x) <= eps)


_MEMBER_KINDS = ["zero", "orthant", "soc_ray", "psd_range", *_SEAM_RAYS, "seam"]


def _membership_rows(F: FaceHandle, seed: int) -> np.ndarray:
    """On-face rows, the same rows moved by 1e-9 to 1e-7 across the
    tolerance, Gaussian rows over six decades, and NaN/inf rows."""
    rng = np.random.default_rng(seed)
    d = F.ambient_dim
    on = face_samples(F, 12, rng) * 10.0 ** rng.uniform(-2, 3, (12, 1))
    on[0] = 0.0
    size = rng.choice([-1.0, 1.0], (24, 1)) * 10.0 ** rng.uniform(-9, -7, (24, 1))
    moved = np.vstack([on, on]) + size * np.vstack([
        rng.standard_normal((12, d)),
        np.eye(d)[rng.integers(0, d, 12)],  # along one coordinate
    ])
    gauss = rng.standard_normal((8, d)) * 10.0 ** rng.uniform(-3, 3, (8, 1))
    bad = np.vstack([on[:6], gauss[:3]])
    bad[np.arange(9), rng.integers(0, d, 9)] = [np.nan, np.inf, -np.inf] * 3
    return np.vstack([on, moved, gauss, bad, np.full((1, d), np.nan)])


class TestStackedMembership:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(_MEMBER_KINDS + ["poly_gens"]), seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_row_by_row(self, kind, seed):
        F = _stack_face(kind, seed)
        assert F.descriptor["kind"] == kind
        X = _membership_rows(F, seed)
        with np.errstate(all="ignore"):
            got = face_contains(F, X)
            rows = [F.contains(x) for x in X]
            assert got.dtype == bool and got.shape == (X.shape[0],)
            assert got.tolist() == rows
            assert face_contains(F, np.asfortranarray(X)).tolist() == rows
            assert face_contains(F, X[:0]).shape == (0,)
            finite = np.all(np.isfinite(X), axis=1)
            for x, verdict, ok in zip(X, rows, finite):
                if not ok:
                    assert not verdict  # a non-finite point is in no face
                elif kind != "poly_gens":
                    assert verdict == _reference_membership(F, x)
        # the rows straddle the tolerance: both verdicts occur among the moved rows
        assert 0 < sum(rows[12:36]) < 24 or kind in ("zero", "poly_gens")

    def test_orthant_rejects_infinite_point(self):
        # an infinite coordinate would make the orthant's margin infinite
        F = minimal_face(NonnegativeOrthant(3), (1.0, 1.0, 0.0))
        x = (np.inf, -1e300, 7.0)
        assert F.contains(x) is False
        assert face_contains(F, [x, (1.0, 2.0, 0.0)]).tolist() == [False, True]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_generator_face_rejects_non_finite_point(self, bad):
        # the membership runs an nnls solve, which rejects non-finite input
        F = _stack_face("poly_gens", 3)
        G = F.descriptor["generators"]
        x = G[0].copy()
        x[1] = bad
        assert F.contains(G[0]) and F.contains(x) is False
        assert face_contains(F, [x, G[0]]).tolist() == [False, True]

    def test_contains_returns_bool(self):
        for kind in _MEMBER_KINDS:
            F = _stack_face(kind, 5)
            assert type(F.contains(face_samples(F, 1, np.random.default_rng(0))[0])) is bool

    def test_each_builder_declares_its_stacked_closures(self):
        from conelab.checks import _diagonal_psd_face

        both, member_only = ("membership", "exact_projector"), ("membership",)
        faces = {kind: _stack_face(kind, 0) for kind in [*_MEMBER_KINDS, "poly_gens"]}
        faces["diagonal"] = _diagonal_psd_face(PsdCone(2))
        K = ProductCone(NonnegativeOrthant(2), SecondOrderCone(3))
        faces["product"] = minimal_face(K, [1.0, 0.0, 0.0, 0.0, 1.0])
        faces["full"] = full_face(NonnegativeOrthant(2))
        # the seam's projector is a generator solve on one point
        expected = dict.fromkeys(faces, ())
        expected.update(dict.fromkeys(["zero", "orthant", "soc_ray", "psd_range", *_SEAM_RAYS, "diagonal"], both))
        expected["seam"] = member_only
        assert {k: F.descriptor.get("stacks", ()) for k, F in faces.items()} == expected


# face inputs of the double-conjugate test, with the projections of their
# conjugate faces pinned in test_polyhedral_conjugates_are_pinned
_DOUBLE_CONJUGATE_CASES = {
    "orthant": None,
    "inequalities": [
        [0.0, 0.2987455375084699, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 1.3402152455545335, 0.0],
        [0.0, 0.4898420501851982, 0.0],
    ],
    "generators": [
        [0.0, 0.0, 0.0],
        [-0.11787202297751148, -0.11787202297751147, 0.11787202297751147],
        [0.0, 0.0, 0.0],
        [-0.16250661926493434, -0.16250661926493432, 0.16250661926493432],
    ],
    "non_spanning": [
        [0.0, 0.0, -0.2741378553622176],
        [0.0, 0.0, -0.9916465549964624],
        [0.0, 0.0, -0.49220651855132963],
        [0.0, 0.0, 0.35688700816006075],
    ],
}


def _double_conjugate_case(case: str):
    """(K, F): an orthant face; the face of an inequality cone at (1, 0, 2);
    a two-generator face of a square-based generated cone; and the full face
    of cone{e1, e2} in R^3, which does not span the space."""
    if case == "orthant":
        K = NonnegativeOrthant(4)
        return K, minimal_face(K, [1.0, 0.0, 2.0, 0.0])
    if case == "inequalities":
        K = PolyhedralCone(inequalities=np.eye(3))
        return K, minimal_face(K, [1.0, 0.0, 2.0])
    if case == "generators":
        G = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])
        K = PolyhedralCone(generators=G)
        return K, minimal_face(K, G[0] + G[1])
    K = PolyhedralCone(generators=np.eye(3)[:2])
    return K, full_face(K)


class TestConjugateFace:
    def test_orthant_support_swap(self):
        K = NonnegativeOrthant(3)
        F = minimal_face(K, [1.0, 0.0, 2.0])
        G = conjugate_face(K, F)
        assert G.face_dim == 1
        assert G.contains([0.0, 3.0, 0.0])
        assert not G.contains([1.0, 0.0, 0.0])

    def test_soc_ray_reflects(self):
        K = SecondOrderCone(3)
        F = minimal_face(K, [1.0, 0.0, 1.0])
        G = conjugate_face(K, F)
        assert G.face_dim == 1
        assert G.contains([-1.0, 0.0, 1.0])

    def test_psd_complement_range(self):
        K = PsdCone(2)
        F = minimal_face(K, sym_to_vec(np.diag([1.0, 0.0])))
        G = conjugate_face(K, F)
        assert G.contains(sym_to_vec(np.diag([0.0, 1.0])))
        assert not G.contains(sym_to_vec(np.diag([1.0, 0.0])))

    def test_polyhedral_active_rows_generate_conjugate(self):
        K = PolyhedralCone(inequalities=np.eye(3))
        F = minimal_face(K, [1.0, 0.0, 2.0])
        G = conjugate_face(K, F)
        assert G.contains([0.0, 1.0, 0.0])
        assert G.face_dim == 1

    def test_zero_face_conjugate_is_full_dual(self):
        K = SecondOrderCone(3)
        G = conjugate_face(K, zero_face(K))
        assert G.face_dim == 3

    @pytest.mark.parametrize("case", list(_DOUBLE_CONJUGATE_CASES))
    def test_double_conjugate_restores_exposed_face(self, case):
        K, F = _double_conjugate_case(case)
        G = conjugate_face(dual_cone(K), conjugate_face(K, F))
        assert G.face_dim == F.face_dim
        # same span
        gap = np.linalg.norm(F.span_basis - (F.span_basis @ G.span_basis.T) @ G.span_basis)
        assert gap <= 1e-12

    @pytest.mark.parametrize("case", [c for c in _DOUBLE_CONJUGATE_CASES if c != "orthant"])
    def test_polyhedral_conjugates_are_pinned(self, case):
        # contains and face_projection of the conjugate face on a fixed point
        # stream, as the face builders before their merge gave them
        K, F = _double_conjugate_case(case)
        G = conjugate_face(K, F)
        X = np.random.default_rng(7).standard_normal((4, 3))
        P = face_projection(G, X)
        assert P.tolist() == _DOUBLE_CONJUGATE_CASES[case]
        assert [G.contains(x) for x in X] == [False] * 4
        assert [G.contains(p) for p in P] == [True] * 4


class TestExposedness:
    def test_orthant_face_exposed(self):
        K = NonnegativeOrthant(4)
        F = minimal_face(K, [1.0, 0.0, 2.0, 0.0])
        res = is_exposed(K, F)
        assert res.status == "exposed"

    def test_soc_ray_exposed(self):
        K = SecondOrderCone(3)
        res = is_exposed(K, minimal_face(K, [1.0, 0.0, 1.0]))
        assert res.status == "exposed"

    def test_psd_face_exposed(self):
        K = PsdCone(2)
        res = is_exposed(K, minimal_face(K, sym_to_vec(np.diag([1.0, 0.0]))))
        assert res.status == "exposed"

    def test_full_face_exposed_by_zero_functional(self):
        K = SecondOrderCone(3)
        assert is_exposed(K, full_face(K)).status == "exposed"

    def test_zero_face_exposed(self):
        K = NonnegativeOrthant(3)
        assert is_exposed(K, zero_face(K)).status == "exposed"

    def test_non_face_ray_detected_by_double_conjugate(self):
        # the ray through (1, 1, 0) sits in the relative interior of the 2d
        # face {x3 = 0}, so it is not a face at all; every standard cone here
        # is facially exposed, which makes this handle the cheapest way to
        # drive the double-conjugate comparison to a negative verdict
        K = NonnegativeOrthant(3)
        dual = dual_cone(K)
        g = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)

        def ray_member(v, tol=None):
            c = float(g @ v)
            return c >= -1e-9 and float(np.linalg.norm(v - c * g)) <= 1e-9

        def conj_member(v, tol=None):
            return abs(v[0]) <= 1e-9 and abs(v[1]) <= 1e-9 and v[2] >= -1e-9

        # the dual's face {x1 = x2 = 0}, with its builder's conjugate rule,
        # and a zero sampler that leaves no witness for the ray
        base = minimal_face(dual, [0.0, 0.0, 1.0])
        conj = FaceHandle(
            dual,
            base.span_basis,
            conj_member,
            base.exact_projector,
            descriptor={**base.descriptor, "sampler": lambda n, rng: np.zeros((n, 3))},
        )
        F = FaceHandle(
            K, g[None, :], ray_member, lambda v: max(0.0, float(g @ v)) * g,
            descriptor={"conjugate_factory": lambda: conj},
        )
        res = is_exposed(K, F)
        assert res.status == "not_exposed"
        assert res.certificate.face_dim == 2


class TestDualSum:
    def test_orthant_face_sum_frees_pinned_coordinate(self):
        K = NonnegativeOrthant(3)
        F = minimal_face(K, [1.0, 2.0, 0.0])
        res = dual_sum_membership(K, F, [1.0, 2.0, -5.0])
        assert res.in_sum
        np.testing.assert_allclose(res.dual_part + res.perp_part, [1.0, 2.0, -5.0], atol=1e-9)
        assert res.dual_part.min() >= -1e-9
        np.testing.assert_allclose(F.span_basis @ res.perp_part, 0.0, atol=1e-9)

    def test_orthant_support_gap_rejects(self):
        K = NonnegativeOrthant(3)
        F = minimal_face(K, [1.0, 2.0, 0.0])
        res = dual_sum_membership(K, F, [-1.0, 2.0, 0.0])
        assert not res.in_sum
        assert res.route == "support_gap"

    def test_soc_ray_halfspace_membership(self):
        # for the boundary ray of the second-order cone the sum is the
        # halfspace of functionals nonnegative on the ray (the cone is nice)
        K = SecondOrderCone(3)
        F = minimal_face(K, [1.0, 0.0, 1.0])
        res = dual_sum_membership(K, F, [-1.0, 3.0, 2.0])
        assert res.in_sum
        s = res.dual_part + res.perp_part
        np.testing.assert_allclose(s, [-1.0, 3.0, 2.0], atol=1e-7)
        # dual part in the cone, perp part orthogonal to the ray
        assert np.hypot(*res.dual_part[:2]) <= res.dual_part[2] + 1e-7
        assert abs(res.perp_part @ np.array([1.0, 0.0, 1.0])) <= 1e-7

    def test_soc_ray_negative_pairing_rejected(self):
        K = SecondOrderCone(3)
        F = minimal_face(K, [1.0, 0.0, 1.0])
        res = dual_sum_membership(K, F, [0.0, 0.0, -1.0])
        assert not res.in_sum
        assert res.route == "support_gap"

    def test_full_face_sum_is_dual_cone(self):
        K = SecondOrderCone(3)
        F = full_face(K)
        ok = dual_sum_membership(K, F, [0.0, 0.0, 1.0])
        assert ok.in_sum
        np.testing.assert_allclose(ok.perp_part, np.zeros(3), atol=1e-12)
        bad = dual_sum_membership(K, F, [0.0, 0.0, -1.0])
        assert not bad.in_sum

    def test_psd_corner_face_sum(self):
        # F = rank-one face along E11: the sum K + span(F)perp collects every
        # matrix with nonnegative (1,1) entry, since the complement absorbs
        # the off-diagonal and the other diagonal slot
        K = PsdCone(2)
        F = minimal_face(K, sym_to_vec(np.diag([1.0, 0.0])))
        s = sym_to_vec(np.array([[1.0, 5.0], [5.0, -3.0]]))
        res = dual_sum_membership(K, F, s)
        assert res.in_sum
        np.testing.assert_allclose(res.dual_part + res.perp_part, s, atol=1e-7)
        bad = dual_sum_membership(K, F, sym_to_vec(np.array([[-1.0, 2.0], [2.0, 0.0]])))
        assert not bad.in_sum
        assert bad.route == "support_gap"

"""Tests for tolerances, subspaces, regions, and the symmetric embedding."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conelab.linalg_core import (
    DEFAULT_TOL,
    AffineSubspace,
    BoundedRegion,
    DimensionMismatchError,
    Tolerance,
    complement_basis,
    distance_to_affine,
    _embed,
    _is_symmetric,
    _triangle,
    orthonormalize,
    row_norms,
    sym_to_vec,
    sym_vec_dim,
    unit_sphere_grid,
    vec_norm,
    vec_to_sym,
)


class TestTolerance:
    def test_is_zero_scales(self):
        tol = Tolerance(abs_tol=1e-10, rel_tol=1e-8)
        assert tol.is_zero(5e-11)
        assert not tol.is_zero(1e-6)
        assert tol.is_zero(1e-6, scale=1e3)

    def test_margin(self):
        tol = Tolerance(abs_tol=1e-6, rel_tol=0.0)
        assert tol.margin(10.0) == pytest.approx(1e-6)

    def test_default_is_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_TOL.abs_tol = 1.0


class TestOrthonormalize:
    def test_identity_basis(self):
        b = orthonormalize(np.eye(3))
        assert b.shape == (3, 3)
        np.testing.assert_allclose(b @ b.T, np.eye(3), atol=1e-14)

    def test_rank_deficient_input_shrinks(self):
        rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        b = orthonormalize(rows)
        assert b.shape == (2, 3)
        np.testing.assert_allclose(b @ b.T, np.eye(2), atol=1e-14)

    def test_single_vector(self):
        b = orthonormalize(np.array([3.0, 4.0]))
        assert b.shape == (1, 2)
        assert np.linalg.norm(b[0]) == pytest.approx(1.0)

    def test_preserves_span(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((3, 5))
        b = orthonormalize(rows)
        # every original row is reproduced by its projection onto the basis
        for r in rows:
            np.testing.assert_allclose((r @ b.T) @ b, r, atol=1e-12)

    def test_empty(self):
        assert orthonormalize(np.zeros((0, 4))).shape == (0, 4)


class TestComplementBasis:
    def test_dimensions_add_up(self):
        rng = np.random.default_rng(1)
        basis = orthonormalize(rng.standard_normal((2, 5)))
        comp = complement_basis(basis, 5)
        assert comp.shape == (3, 5)
        np.testing.assert_allclose(basis @ comp.T, np.zeros((2, 3)), atol=1e-12)
        np.testing.assert_allclose(comp @ comp.T, np.eye(3), atol=1e-12)

    def test_empty_basis_gives_identity(self):
        np.testing.assert_allclose(complement_basis(np.zeros((0, 3)), 3), np.eye(3))


class TestAffineSubspace:
    def test_projection_closed_form(self):
        # the plane z = 1 in R^3
        A = AffineSubspace(np.array([0.0, 0.0, 1.0]), np.eye(3)[:2])
        np.testing.assert_allclose(A.project([2.0, -3.0, 7.0]), [2.0, -3.0, 1.0])
        assert A.distance([0.0, 0.0, 4.0]) == pytest.approx(3.0)
        assert distance_to_affine([0.0, 0.0, 4.0], A) == pytest.approx(3.0)

    def test_point_subspace(self):
        P = AffineSubspace(np.array([1.0, 2.0]), np.zeros((0, 2)))
        np.testing.assert_allclose(P.project([5.0, 5.0]), [1.0, 2.0])
        assert P.dim == 0 and P.ambient_dim == 2

    def test_coordinates_roundtrip(self):
        rng = np.random.default_rng(2)
        A = AffineSubspace.from_spanning(rng.standard_normal(4), rng.standard_normal((2, 4)))
        u = rng.standard_normal(2)
        np.testing.assert_allclose(A.coordinates(A.from_coordinates(u)), u, atol=1e-12)

    def test_contains(self):
        A = AffineSubspace.from_spanning(np.zeros(2), np.array([[1.0, 1.0]]))
        assert A.contains(np.array([2.0, 2.0]))
        assert not A.contains(np.array([1.0, -1.0]))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            AffineSubspace(np.zeros(2), np.array([[1.0, 1.0]]))

    def test_rejects_wrong_dimension(self):
        A = AffineSubspace(np.zeros(3), np.eye(3)[:1])
        with pytest.raises(DimensionMismatchError):
            A.project(np.zeros(2))

    def test_basis_is_immutable(self):
        A = AffineSubspace(np.zeros(2), np.eye(2)[:1])
        with pytest.raises(ValueError):
            A.basis[0, 0] = 5.0


class TestBoundedRegion:
    def test_ball_contains_and_samples(self):
        R = BoundedRegion(np.array([1.0, 0.0]), radius=2.0)
        assert R.contains([2.0, 0.0])
        assert not R.contains([4.0, 0.0])
        rng = np.random.default_rng(3)
        pts = R.sample(200, rng)
        assert pts.shape == (200, 2)
        assert np.all(np.linalg.norm(pts - R.center, axis=1) <= 2.0 + 1e-12)

    def test_box_contains_and_samples(self):
        R = BoundedRegion(np.zeros(2), box=np.array([[0.0, 1.0], [-1.0, 1.0]]))
        assert R.contains([0.5, 0.0])
        assert not R.contains([1.5, 0.0])
        rng = np.random.default_rng(4)
        pts = R.sample(100, rng)
        assert np.all(pts[:, 0] >= 0.0) and np.all(pts[:, 0] <= 1.0)

    def test_ball_sampling_scales_linearly_with_radius(self):
        c = np.zeros(3)
        a = BoundedRegion(c, radius=1.0).sample(50, np.random.default_rng(5))
        b = BoundedRegion(c, radius=2.0).sample(50, np.random.default_rng(5))
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedRegion(np.zeros(2))
        with pytest.raises(ValueError):
            BoundedRegion(np.zeros(2), radius=1.0, box=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            BoundedRegion(np.zeros(2), radius=-1.0)
        with pytest.raises(ValueError):
            BoundedRegion(np.zeros(2), box=np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestSymmetricEmbedding:
    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3, 5):
            A = rng.standard_normal((n, n))
            X = A + A.T
            np.testing.assert_allclose(vec_to_sym(sym_to_vec(X)), X, atol=1e-13)

    def test_isometry(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4))
            X, Y = A + A.T, B + B.T
            frob = float(np.sum(X * Y))
            assert float(sym_to_vec(X) @ sym_to_vec(Y)) == pytest.approx(frob, rel=1e-12)

    def test_layout_2x2(self):
        X = np.array([[1.0, 2.0], [2.0, 3.0]])
        np.testing.assert_allclose(sym_to_vec(X), [1.0, 2.0 * np.sqrt(2.0), 3.0])

    def test_dim(self):
        assert sym_vec_dim(2) == 3
        assert sym_vec_dim(5) == 15

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_to_vec(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            vec_to_sym(np.zeros(4))

    @pytest.mark.parametrize("m", [2, 4, 5, 7])
    def test_vec_to_sym_rejects_non_triangular_lengths(self, m):
        for shape in ((m,), (3, m)):
            with pytest.raises(ValueError, match=f"length {m} is not a triangular number"):
                vec_to_sym(np.zeros(shape))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 200])
    def test_vec_to_sym_finds_n_for_triangular_lengths(self, n):
        m = sym_vec_dim(n)
        assert vec_to_sym(np.zeros(m)).shape == (n, n)
        if n:
            # the next triangular number is m + n + 1
            with pytest.raises(ValueError):
                vec_to_sym(np.zeros(m + n))


_FINITE = st.floats(-1e150, 1e150, allow_nan=False, allow_subnormal=False)


@st.composite
def _symmetric_stacks(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 4))
    A = draw(arrays(np.float64, (k, n, n), elements=_FINITE))
    return A + np.swapaxes(A, -1, -2)


def _allclose_verdict(X) -> bool:
    """The symmetry test sym_to_vec made with np.allclose on one matrix."""
    with np.errstate(invalid="ignore"):
        return bool(np.allclose(X, X.T, atol=1e-12 * max(1.0, float(np.abs(X).max(initial=0.0)))))


@st.composite
def _near_symmetric_stacks(draw):
    """Matrices a relative 0 to 1e-3 away from symmetric, each on its own
    scale, some with NaN or infinite entries placed symmetrically or not."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    out = np.empty((k, n, n))
    for m in range(k):
        scale = draw(st.sampled_from([1e-12, 1e-6, 1.0, 1e6, 1e12]))
        A = draw(arrays(np.float64, (n, n), elements=unit))
        E = draw(arrays(np.float64, (n, n), elements=unit))
        rel = draw(st.sampled_from([0.0, 1e-16, 1e-13, 1e-12, 1e-11, 1e-6, 1e-5, 1e-3]))
        X = scale * (A + A.T) + (rel * scale) * E
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            X[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            mirror = draw(st.sampled_from(["same", "negated", "finite"]))
            X[j, i] = {"same": X[i, j], "negated": -X[i, j], "finite": 1.0}[mirror]
        out[m] = X
    return out


class TestStackedEmbedding:
    @settings(max_examples=60, deadline=None)
    @given(_symmetric_stacks())
    def test_stack_matches_rows_and_round_trips(self, X):
        V = sym_to_vec(X)
        assert V.shape == X.shape[:-2] + (sym_vec_dim(X.shape[-1]),)
        assert V.flags.c_contiguous  # unit-stride rows, as for one matrix
        rows = [sym_to_vec(x) for x in X]
        assert V.tobytes() == b"".join(v.tobytes() for v in rows)
        Y = vec_to_sym(V)
        assert Y.tobytes() == b"".join(vec_to_sym(v).tobytes() for v in rows)
        # off-diagonals go through a multiply and a divide by sqrt(2)
        np.testing.assert_allclose(Y, X, rtol=4 * np.finfo(float).eps, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: arrays(np.float64, st.tuples(st.integers(0, 4), st.just(sym_vec_dim(n))),
                         elements=_FINITE)))
    def test_vectors_round_trip(self, V):
        np.testing.assert_allclose(sym_to_vec(vec_to_sym(V)), V, rtol=4 * np.finfo(float).eps, atol=0.0)

    @settings(max_examples=150, deadline=None)
    @given(_near_symmetric_stacks())
    def test_symmetry_verdict_is_allclose_per_matrix(self, X):
        expected = [_allclose_verdict(x) for x in X]
        assert _is_symmetric(X).tolist() == expected
        for x, ok in zip(X, expected):
            if ok:
                sym_to_vec(x)
            else:
                with pytest.raises(ValueError, match="not symmetric"):
                    sym_to_vec(x)
        if not all(expected):
            with pytest.raises(ValueError, match="not symmetric"):
                sym_to_vec(X)

    @pytest.mark.parametrize(
        "X, ok",
        [
            ([[0.0, np.nan], [np.nan, 0.0]], False),
            ([[np.nan, 0.0], [0.0, 1.0]], False),
            ([[np.inf, 1.0], [1.0, 0.0]], True),
            ([[0.0, np.inf], [np.inf, 0.0]], True),
            ([[0.0, -np.inf], [-np.inf, 0.0]], True),
            ([[0.0, np.inf], [-np.inf, 0.0]], False),
            ([[0.0, np.inf], [5.0, 0.0]], False),
        ],
    )
    def test_nonfinite_entries(self, X, ok):
        X = np.array(X)
        assert _allclose_verdict(X) is ok
        assert _is_symmetric(X) == ok

    def test_scale_is_per_matrix(self):
        # alone, the first passes on its own 1e-2 slack and the second fails
        # on its 1e-12 slack; one scale for the stack would pass both
        huge = np.array([[1e10, 1.0], [1.0 + 1e-3, 1e10]])
        tiny = np.array([[1e-6, 0.0], [1e-9, 1e-6]])
        assert [_allclose_verdict(huge), _allclose_verdict(tiny)] == [True, False]
        assert _is_symmetric(np.stack([huge, tiny])).tolist() == [True, False]
        sym_to_vec(huge)
        with pytest.raises(ValueError, match="not symmetric"):
            sym_to_vec(np.stack([huge, tiny]))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_layout_is_cached_read_only(self, n):
        layout = _triangle(n)
        assert layout is _triangle(n)
        assert len(layout) == 3
        for a, b in zip(layout, _triangle(n)):
            assert a is b
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]
        X = np.eye(n)
        v = sym_to_vec(X)
        v[0] = 7.0  # the caller owns the result; the cached layout is untouched
        M = vec_to_sym(sym_to_vec(X))
        M[0, 0] = 7.0
        assert sym_to_vec(X).tobytes() == _old_sym_to_vec(X).tobytes()
        assert vec_to_sym(sym_to_vec(X)).tobytes() == X.tobytes()

    def test_row_norms_match_single_norms(self):
        A = np.random.default_rng(3).standard_normal((200, 7)) * 10.0 ** np.arange(-3, 4)
        expected = [float(np.linalg.norm(a)) for a in A]
        assert row_norms(A).tolist() == expected
        assert row_norms(np.asfortranarray(A)).tolist() == expected


def _old_sym_to_vec(X):
    """The two-step embedding the cached gather replaced, kept as the oracle:
    pick the upper triangle by row and column index, then scale the
    off-diagonal entries by sqrt(2) in place."""
    X = np.asarray(X, dtype=float)
    iu, ju = np.triu_indices(X.shape[-1])
    v = np.ascontiguousarray(X[..., iu, ju])
    v[..., iu != ju] *= np.sqrt(2.0)
    return v


def _old_vec_to_sym(v):
    """The scatter inverse the cached gather replaced, kept as the oracle."""
    v = np.asarray(v, dtype=float)
    n = int(round((np.sqrt(8 * v.shape[-1] + 1) - 1) / 2))
    iu, ju = np.triu_indices(n)
    X = np.zeros(v.shape[:-1] + (n, n))
    w = v.copy()
    w[..., iu != ju] /= np.sqrt(2.0)
    X[..., iu, ju] = w
    X[..., ju, iu] = w
    return X


# finite values at every scale, with both zeros; the specials are the quiet
# NaN and the infinities numpy itself makes (a divide by 1.0 quiets a
# signalling NaN, which no computation here produces)
_ENTRIES = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)
_SPECIALS = st.one_of(_ENTRIES, st.sampled_from([np.nan, -np.nan, np.inf, -np.inf]))
_LEAD = st.lists(st.integers(0, 3), min_size=0, max_size=2).map(tuple)


@st.composite
def _embed_inputs(draw):
    """(..., n, n) symmetric stacks, n = 1..8, in C, Fortran or a
    transposed-view layout."""
    n = draw(st.integers(1, 8))
    A = draw(arrays(np.float64, draw(_LEAD) + (n, n), elements=_ENTRIES))
    X = np.triu(A) + np.swapaxes(np.triu(A, 1), -1, -2)  # exact mirror, -0.0 kept
    layout = draw(st.sampled_from(["C", "F", "T"]))
    if layout == "F":
        X = np.asfortranarray(X)
    elif layout == "T":
        X = np.swapaxes(X, -1, -2)
    return X


class TestEmbeddingMatchesOldFormulas:
    @settings(max_examples=200, deadline=None)
    @given(_embed_inputs())
    def test_sym_to_vec_bytes(self, X):
        v = sym_to_vec(X)
        ref = _old_sym_to_vec(X)
        assert v.shape == ref.shape and v.dtype == ref.dtype
        assert v.tobytes() == ref.tobytes()
        assert v.flags.c_contiguous

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: arrays(np.float64, (2, n, n), elements=_ENTRIES)))
    def test_unchecked_embedding_reads_the_upper_triangle(self, A):
        # the PSD projector's U diag(w) U^T is symmetric only up to rounding
        assert _embed(A).tobytes() == _old_sym_to_vec(A).tobytes()
        assert _embed(A[0]).tobytes() == _old_sym_to_vec(A[0]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(_LEAD, st.just(sym_vec_dim(n)))).flatmap(
        lambda shape: arrays(np.float64, shape[0] + (shape[1],), elements=_SPECIALS)))
    def test_vec_to_sym_bytes(self, v):
        X = vec_to_sym(v)
        ref = _old_vec_to_sym(v)
        assert X.shape == ref.shape
        assert X.tobytes() == ref.tobytes()
        assert X.flags.c_contiguous

    @pytest.mark.parametrize("n", range(1, 9))
    def test_negative_zero_and_specials_keep_their_bits(self, n):
        v = np.full(sym_vec_dim(n), -0.0)
        v[::3] = np.nan
        v[1::4] = -np.inf
        X = vec_to_sym(v)
        assert X.tobytes() == _old_vec_to_sym(v).tobytes()
        assert np.signbit(X[~np.isnan(X)]).all()
        Z = -np.zeros((2, n, n))
        assert sym_to_vec(Z).tobytes() == _old_sym_to_vec(Z).tobytes()
        assert np.signbit(sym_to_vec(Z)).all()

    def test_public_map_still_checks_symmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_to_vec(np.array([[1.0, 5.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not symmetric"):
            sym_to_vec(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def _bits(a) -> bytes:
    return np.float64(a).tobytes()


class TestVecNorm:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(0, 40), elements=_ENTRIES), st.integers(1, 4))
    def test_equals_numpy_norm_bitwise(self, v, step):
        for w in (v, v[::step], v[::-1]):
            with np.errstate(over="ignore"):  # both overflow alike past 1e154
                assert _bits(vec_norm(w)) == _bits(np.linalg.norm(w))
                assert type(vec_norm(w)) is float

    @pytest.mark.parametrize(
        "v",
        [np.zeros(0), np.array([-3.0]), np.array([-0.0]), np.array([3.0, 4.0]),
         np.full(7, 1e200), np.array([1e200, -1e200, 1.0]), np.array([1e-200, 1e-200])],
        ids=["empty", "one", "negative_zero", "pythagoras", "huge", "huge_mixed", "tiny"],
    )
    def test_edge_vectors(self, v):
        with np.errstate(over="ignore", under="ignore"):
            assert _bits(vec_norm(v)) == _bits(np.linalg.norm(v))
            assert _bits(vec_norm(np.repeat(v, 2)[::2])) == _bits(np.linalg.norm(v))

    def test_overflow_and_nan(self):
        with np.errstate(over="ignore"):
            assert vec_norm(np.full(4, 1e200)) == np.inf == np.linalg.norm(np.full(4, 1e200))
        assert np.isnan(vec_norm(np.array([1.0, np.nan])))
        assert np.isnan(np.linalg.norm(np.array([1.0, np.nan])))
        assert vec_norm(np.array([np.inf, -1.0])) == np.inf


class TestUnitSphereGrid:
    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_unit_norms(self, dim):
        g = unit_sphere_grid(dim, 128)
        np.testing.assert_allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(unit_sphere_grid(5, 64), unit_sphere_grid(5, 64))

    def test_three_d_covers_poles(self):
        g = unit_sphere_grid(3, 4096)
        assert g[:, 2].max() > 0.999 and g[:, 2].min() < -0.999

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            unit_sphere_grid(0)

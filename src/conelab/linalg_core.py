"""Dense linear-algebra substrate: tolerances, affine subspaces, bounded regions,
orthonormalization, and the symmetric-matrix embedding used by every other module.

All vector collections in this package are numpy arrays with vectors as rows;
basis matrices are row-stacked orthonormal vectors.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "AffineSubspace",
    "BoundedRegion",
    "orthonormalize",
    "sym_to_vec",
    "vec_to_sym",
    "sym_vec_dim",
    "vec_norm",
    "row_norms",
    "row_dots",
    "norm_scale",
    "sorted_unique",
    "unit_sphere_grid",
]

# Rank decisions use this cutoff relative to the largest singular value.
RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class Tolerance:
    """Global numeric tolerance record threaded through all modules.

    Every pass/fail comparison in the package routes through one of these
    methods so that reruns with the same record reproduce the same verdicts.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def is_zero(self, x: float, scale: float = 0.0) -> bool:
        return abs(x) <= self.abs_tol + self.rel_tol * abs(scale)

    def margin(self, scale: float = 0.0) -> float:
        return self.abs_tol + self.rel_tol * abs(scale)


DEFAULT_TOL = Tolerance()


def _freeze(a: np.ndarray) -> np.ndarray:
    """Return a read-only float64 copy; spec objects never mutate after construction."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormalize a sequence of vectors.

    Parameters
    ----------
    vectors : sequence of 1-d arrays, or a 2-d array with vectors as rows.
      Rank is decided at RANK_CUTOFF relative to the largest singular value.

    Returns
    -------
    (k, d) array whose rows are an orthonormal basis of the span; rank-deficient
    inputs shrink the basis. Empty input yields a (0, 0) array.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.size == 0:
        return np.zeros((0, arr.shape[1] if arr.ndim == 2 else 0))
    if arr.ndim == 1:
        arr = arr[None, :]
    # SVD of the row-stack: right singular vectors span the row space.
    _, s, vt = np.linalg.svd(arr, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, arr.shape[1]))
    rank = int(np.sum(s > RANK_CUTOFF * s[0]))
    return vt[:rank]


def complement_basis(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis (rows) of the orthogonal complement of the row-span."""
    b = np.asarray(basis, dtype=float)
    if b.size == 0:
        return np.eye(dim)
    _, s, vt = np.linalg.svd(b, full_matrices=True)
    rank = int(np.sum(s > RANK_CUTOFF * (s[0] if s.size else 1.0)))
    return vt[rank:]


class DimensionMismatchError(ValueError):
    """Raised when an operand's ambient dimension disagrees with the object's."""

    def __init__(self, expected: int, got: int, what: str = "vector"):
        self.expected = expected
        self.got = got
        super().__init__(f"{what} has dimension {got}, expected {expected}")


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """Affine subspace given by a basepoint and an orthonormal direction basis.

    basis rows span the direction space; an empty basis means a single point.
    """

    basepoint: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basepoint", _freeze(self.basepoint))
        b = np.asarray(self.basis, dtype=float)
        if b.size == 0:
            b = np.zeros((0, self.basepoint.shape[0]))
        object.__setattr__(self, "basis", _freeze(b))
        if self.basis.shape[1] != self.basepoint.shape[0]:
            raise DimensionMismatchError(self.basepoint.shape[0], self.basis.shape[1], "basis")
        if self.dim > self.ambient_dim:
            raise ValueError("more basis vectors than ambient dimension")
        if self.dim:
            gram = self.basis @ self.basis.T
            if not np.allclose(gram, np.eye(self.dim), atol=1e-12):
                raise ValueError("basis is not orthonormal to 1e-12")

    @classmethod
    def from_spanning(cls, basepoint, vectors) -> "AffineSubspace":
        basepoint = np.asarray(basepoint, dtype=float)
        return cls(basepoint, orthonormalize(vectors))

    @property
    def ambient_dim(self) -> int:
        return self.basepoint.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.ambient_dim:
            raise DimensionMismatchError(self.ambient_dim, x.shape[-1])
        rel = x - self.basepoint
        if self.dim == 0:
            return np.broadcast_to(self.basepoint, x.shape).copy()
        return self.basepoint + (rel @ self.basis.T) @ self.basis

    def distance(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(x, dtype=float) - self.project(x)))

    def coordinates(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of the projection of x in the basis rows."""
        return (np.asarray(x, dtype=float) - self.basepoint) @ self.basis.T

    def from_coordinates(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.basepoint + u @ self.basis

    def contains(self, x: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
        return tol.is_zero(self.distance(x), scale=float(np.linalg.norm(x)))


@dataclass(frozen=True, eq=False)
class BoundedRegion:
    """Euclidean ball with the given center and radius; a missing or
    nonpositive radius raises ValueError."""

    center: np.ndarray
    radius: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", _freeze(self.center))
        if self.radius is None or not self.radius > 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def contains(self, x, slack: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x - self.center)) <= self.radius + slack


# ---------------------------------------------------------------------------
# Symmetric-matrix embedding.
#
# Symmetric n x n matrices are stored as the upper triangle read row by row,
# off-diagonal entries scaled by sqrt(2), so the Euclidean inner product of the
# vectors equals the Frobenius inner product of the matrices.
#
# Both maps work on stacks: sym_to_vec takes (..., n, n) and vec_to_sym takes
# (..., m), and each matrix or vector of a stack maps to exactly the bits it
# maps to on its own. Each map is one cached gather times 1.0 or sqrt(2), so
# the diagonal keeps its bits. Only sym_to_vec checks symmetry; the PSD
# projector embeds its own U diag(w) U^T unchecked (the check cost more than eigh).
# ---------------------------------------------------------------------------

_SQRT2 = float(np.sqrt(2.0))

# Relative slack of the symmetry test, the default rtol of np.allclose.
_SYM_RTOL = 1e-5


def sym_vec_dim(n: int) -> int:
    return n * (n + 1) // 2


@functools.lru_cache(maxsize=32)
def _triangle(n: int):
    """Flat upper-triangle indices of an n x n matrix, their multipliers (1.0
    or sqrt(2)) and every entry's vector coordinate; read-only, shared."""
    iu, ju = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    layout = (iu * n + ju, np.where(iu == ju, 1.0, _SQRT2), pos.ravel())
    for a in layout:
        a.setflags(write=False)
    return layout


def _is_symmetric(X: np.ndarray) -> np.ndarray:
    """Per-matrix verdict of np.allclose(X, X.T, atol=1e-12 * max(1, max|X|)),
    with each matrix of the stack on its own scale: NaN fails, and an inf
    passes only opposite an equal inf."""
    XT = np.swapaxes(X, -1, -2)
    atol = 1e-12 * np.maximum(1.0, np.abs(X).max(axis=(-2, -1), initial=0.0))
    with np.errstate(invalid="ignore"):
        close = np.abs(X - XT) <= atol[..., None, None] + _SYM_RTOL * np.abs(XT)
        ok = (close & np.isfinite(XT)) | (X == XT)
    return ok.all(axis=(-2, -1))


def _embed(X: np.ndarray) -> np.ndarray:
    """sym_to_vec of a float (..., n, n) array without the symmetry check; reads
    the upper triangle. C-ordered: BLAS sums strided rows in another order."""
    n = X.shape[-1]
    flat, mult, _ = _triangle(n)
    return X.reshape(X.shape[:-2] + (n * n,)).take(flat, axis=-1) * mult


def sym_to_vec(X: np.ndarray) -> np.ndarray:
    """Embed a symmetric matrix, or a (..., n, n) stack of them, as C-ordered
    (..., n(n+1)/2) vectors. Raises ValueError when any matrix is not
    symmetric; the PSD projector skips this check on its own output."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise ValueError("expected a square matrix")
    if not np.all(_is_symmetric(X)):
        raise ValueError("matrix is not symmetric")
    return _embed(X)


def vec_to_sym(v: np.ndarray) -> np.ndarray:
    """Inverse of sym_to_vec over the last axis: (..., m) to C-ordered
    (..., n, n), symmetric by construction, so nothing is checked."""
    v = np.asarray(v, dtype=float)
    m = v.shape[-1]
    n = (math.isqrt(8 * m + 1) - 1) // 2
    if sym_vec_dim(n) != m:
        raise ValueError(f"length {m} is not a triangular number")
    _, mult, coord = _triangle(n)
    return (v / mult).take(coord, axis=-1).reshape(v.shape[:-1] + (n, n))


def vec_norm(v: np.ndarray) -> float:
    """np.linalg.norm of a float vector, bitwise: numpy's 1-d path, undispatched.
    np.vdot runs the same ddot on the raveled vector without the overflow
    warning of v.dot(v) past a norm of about 1.3e154 (the norm is then inf)."""
    v = v.ravel(order="K")
    return math.sqrt(np.vdot(v, v))


def row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each bitwise equal to
    np.linalg.norm of that row alone (a 1 x d by d x 1 matmul is a BLAS dot,
    as the norm of one vector is; np.linalg.norm(A, axis=-1) sums in another
    order)."""
    A = np.ascontiguousarray(A, dtype=float)
    return np.sqrt((A[..., None, :] @ A[..., :, None])[..., 0, 0])


def row_dots(A: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Inner products <row, g> over the last axis, each bitwise equal to
    g @ row for that row alone (a 1 x d by d matmul is a BLAS dot)."""
    A = np.ascontiguousarray(A, dtype=float)
    return (A[..., None, :] @ g)[..., 0]


def norm_scale(A: np.ndarray) -> np.ndarray:
    """max(1, ||row||) over the last axis, as Python's max(1.0, norm) gives it
    for one row: 1.0 for a NaN norm, where np.maximum would give NaN."""
    n = row_norms(A)
    return np.where(n > 1.0, n, 1.0)


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of 1-d values, or np.unique(axis=0) of the rows of a 2-d
    array, all free of NaN: ascending values, or rows in lexicographic order (first column
    first), one of each run of equal entries kept, same dtype. Every zero
    comes back as +0.0, where np.unique keeps whichever signed zero its
    unstable sort puts first.

    Not np.unique itself, because numpy 2's first np.unique call imports
    numpy.ma (to ask whether its argument is masked), and that import costs
    each process over a megabyte of resident memory and tens of
    milliseconds."""
    a = np.asarray(a)
    s = np.sort(a) if a.ndim == 1 else a[np.lexsort(a.T[::-1])]
    keep = np.ones(s.shape[0], dtype=bool)
    differ = s[1:] != s[:-1]
    keep[1:] = differ if a.ndim == 1 else differ.any(axis=1)
    s = s[keep]
    if s.dtype.kind == "f":
        s += 0.0  # -0.0 + 0.0 is +0.0; every other value keeps its bits
    return s


# ---------------------------------------------------------------------------
# Deterministic unit-sphere grids, used for antipodality constants and
# extreme-direction scans. 2-d: uniform angles; 3-d: Fibonacci lattice;
# higher dimensions fall back to a seeded normalized-Gaussian cloud (still
# deterministic for a fixed seed, but without the lattice uniformity).
# ---------------------------------------------------------------------------

def unit_sphere_grid(dim: int, n: int = 4096, seed: int = 0) -> np.ndarray:
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        k = np.arange(n, dtype=float)
        golden = (1 + np.sqrt(5.0)) / 2
        z = 1 - (2 * k + 1) / n
        r = np.sqrt(np.maximum(0.0, 1 - z * z))
        phi = 2 * np.pi * k / golden
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, dim))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    return g

"""Exact face and slice projectors against Dykstra's alternating projections.

Each projector that replaced a Dykstra route is compared, on seeded points
of norm at most 10, with dykstra_projectors over the two sets it intersects,
and its answer is checked against the KKT conditions of its own problem,
with the cones' generators written out by hand. A spy then asserts that the
face reports, the projections_dim4 check and the sturm check make no Dykstra
call at all: Dykstra is left to the intersection cones, which have no closed
form.
"""
from __future__ import annotations

import sys
import zlib

import numpy as np
import pytest
from test_face_reports import KINDS, SPECS, _report

from conelab import checks, gallery
from conelab import projection_engine as PE
from conelab.cone_algebra import (
    NonnegativeOrthant,
    PolyhedralCone,
    dual_cone,
    full_face,
)
from conelab.facial_structure import conjugate_face, face_projection, minimal_face
from conelab.linalg_core import orthonormalize, vec_to_sym
from conelab.proj_exposed import NotSeparableError, _dual_slice_element
from conelab.projection_engine import dykstra_projectors, project

AGREE = 1e-9
KKT = 1e-9


def _points(case: str, d: int, n: int = 12) -> np.ndarray:
    """n points of norm at most 10, at scales 0.1 to 10, seeded by the case."""
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X * rng.uniform(0.1, 10.0, size=(n, 1))


def _rays_3d(A: np.ndarray) -> np.ndarray:
    """Unit extreme rays of the pointed cone {x in R^3 : A x >= 0}: the
    crossings of two facets that meet every inequality."""
    rays = []
    for i in range(len(A)):
        for j in range(i + 1, len(A)):
            c = np.cross(A[i], A[j])
            if np.linalg.norm(c) < 1e-12:
                continue
            for r in (c, -c):
                r = r / np.linalg.norm(r)
                if np.all(A @ r >= -1e-12) and not any(np.allclose(r, q) for q in rays):
                    rays.append(r)
    return np.array(rays)


# inequality cones with their generators, and points whose minimal faces are
# facets and rays
POLY_CASES = {
    "square": (
        np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]),
        [[1.0, 0.0, 1.0], [1.0, 0.5, 1.0], [1.0, 1.0, 1.0], [0.0, -1.0, 1.0]],
    ),
    "skew": (
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
        [[0.0, 2.0, 1.0], [0.0, 2.0, -1.0], [1.0, 0.0, 0.0], [1.0, 1.0, -2.0]],
    ),
    "pentagon": (
        np.array([
            [np.cos(a), np.sin(a), 1.0] for a in np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
        ]) * np.array([-1.0, -1.0, 1.0]),
        None,
    ),
}


def _poly_faces():
    for name, (A, pts) in POLY_CASES.items():
        K = PolyhedralCone(inequalities=A)
        rays = _rays_3d(A)
        if pts is None:
            # a ray and the midpoint of two rays: a facet or the interior
            pts = [rays[0], rays[0] + rays[1]]
        for k, x in enumerate(pts):
            F = minimal_face(K, np.asarray(x, dtype=float))
            if F.descriptor["kind"] == "poly_active":
                yield f"{name}-{k}", K, F, rays


POLY_FACES = {case: (K, F, rays) for case, K, F, rays in _poly_faces()}


@pytest.mark.parametrize("case", sorted(POLY_FACES))
def test_poly_active_face(case):
    K, F, rays = POLY_FACES[case]
    A = K.inequalities
    aff = F.affine()
    # the face's generators: K's rays on the span
    gens = rays[[aff.distance(r) <= 1e-12 for r in rays]]
    assert len(gens) == F.face_dim
    for x in _points(case, 3):
        p = face_projection(F, x)
        oracle = dykstra_projectors([lambda v: project(K, v).point, aff.project], x).point
        assert np.linalg.norm(p - oracle) <= AGREE
        u = x - p
        assert np.all(A @ p >= -KKT) and aff.distance(p) <= KKT
        assert np.all(gens @ u <= KKT) and abs(float(u @ p)) <= KKT


# cones that do not span their space: the conjugate of the full face is the
# subspace span(K)^perp
SPAN_CASES = {
    "plane": np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
    "ray": np.array([[1.0, -2.0, 0.5]]),
    "wedge_in_4d": np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 3.0, 0.0]]),
}


@pytest.mark.parametrize("case", sorted(SPAN_CASES))
def test_dual_span_face(case):
    gens = SPAN_CASES[case]
    K = PolyhedralCone(generators=gens)
    G = conjugate_face(K, full_face(K))
    assert G.descriptor["kind"] == "dual_span_face"
    dual, aff = dual_cone(K), G.affine()
    span = orthonormalize(gens)
    for x in _points(case, K.dim):
        p = face_projection(G, x)
        oracle = dykstra_projectors([lambda v: project(dual, v).point, aff.project], x).point
        assert np.linalg.norm(p - oracle) <= AGREE
        # p is orthogonal to span(K), and x - p lies in span(K)
        assert np.linalg.norm(span @ p) <= KKT
        assert np.linalg.norm((x - p) - (span @ (x - p)) @ span) <= KKT


def _slab(v):
    out = v.copy()
    out[2] = max(out[2], 1.0)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_sturm_slice(seed):
    S = gallery.sturm_slice()
    for x in _points(f"sturm-{seed}", 3):
        r = project(S, x)
        p = r.point
        assert r.iterations == 0
        oracle = dykstra_projectors([gallery._psd2_project, _slab], x).point
        assert np.linalg.norm(p - oracle) <= AGREE
        # KKT: p is psd with p22 >= 1, and x - p = N - mu e3 with mu >= 0
        # complementary to p22 - 1, and N negative semidefinite and
        # orthogonal to p
        u = x - p
        mu = -float(u @ p) / p[2]
        N = u.copy()
        N[2] += mu
        assert np.linalg.eigvalsh(vec_to_sym(p))[0] >= -KKT and p[2] >= 1.0 - KKT
        assert mu >= -KKT and abs(mu * (p[2] - 1.0)) <= KKT
        assert np.linalg.eigvalsh(vec_to_sym(N))[-1] <= KKT


def _slice_cases():
    """Faces G with their generators: the orthant's conjugate faces, the
    conjugate faces of the inequality cones' faces (generated by their
    active rows), and the cylinder hull's seam-ray conjugate faces."""
    orthant = NonnegativeOrthant(4)
    for x in ([1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 1.0]):
        G = conjugate_face(orthant, minimal_face(orthant, np.array(x)))
        yield f"orthant-{x}", G, np.eye(4)[[i for i in range(4) if x[i] == 0.0]]
    for case, (K, F, _) in sorted(POLY_FACES.items()):
        G = conjugate_face(K, F)
        yield f"poly-{case}", G, G.descriptor["generators"]
    for k, ray in enumerate(gallery.seam_ray_faces(gallery.cylinder_hull_objects().hull)):
        G = conjugate_face(ray.parent, ray)
        yield f"seam-{k}", G, G.descriptor["generators"]


SLICE_CASES = {case: (G, gens) for case, G, gens in _slice_cases()}


@pytest.mark.parametrize("case", sorted(SLICE_CASES))
def test_dual_slice_element(case):
    G, gens = SLICE_CASES[case]
    compared = 0
    for pair_vec in _points(case, G.ambient_dim, 24):
        # ||q|| / ||pair_vec|| is the cosine of the angle between pair_vec
        # and G; Dykstra's sweeps grow like its inverse square (about 5,000
        # at 0.066) and exceed 50,000 at 0.019, so the oracle runs from 0.05
        # and the KKT check on every point that is not numerically separable
        ratio = np.linalg.norm(face_projection(G, pair_vec)) / np.linalg.norm(pair_vec)
        if ratio <= 1e-6:
            with pytest.raises(NotSeparableError, match="pair to zero"):
                _dual_slice_element(G, pair_vec, label="z")
            continue
        z = _dual_slice_element(G, pair_vec, label="z")
        if ratio >= 0.05:
            nv2 = float(pair_vec @ pair_vec)

            def onto_slice(v, pair_vec=pair_vec, nv2=nv2):
                return v - ((float(pair_vec @ v) - 1.0) / nv2) * pair_vec

            oracle = dykstra_projectors(
                [lambda v: face_projection(G, v), onto_slice], np.zeros_like(pair_vec)
            ).point
            assert np.linalg.norm(z - oracle) <= AGREE * max(1.0, float(np.linalg.norm(z)))
            compared += 1
        # KKT of min ||z|| over G and <pair_vec, z> = 1: z is in G, and
        # t pair_vec - z, with t = ||z||^2, is in G's polar
        assert G.contains(z) and abs(float(pair_vec @ z) - 1.0) <= KKT
        t = float(z @ z)
        assert np.all(gens @ (t * pair_vec - z) <= KKT * max(1.0, t))
    assert compared >= 4


def test_no_dykstra_call_outside_intersections(monkeypatch, tmp_path):
    """The face reports, the projections_dim4 check and the sturm check
    project by closed forms and exact kernels only."""
    calls = []
    orig = PE.dykstra_projectors

    def spy(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    # every conelab module that holds the function, under any import
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "conelab" and getattr(mod, "dykstra_projectors", None) is orig:
            monkeypatch.setattr(mod, "dykstra_projectors", spy)
    for name in SPECS:
        for kind in KINDS:
            _report(name, kind, tmp_path)
    assert checks.run_check("projections_dim4").passed
    assert checks.run_check("sturm").passed
    assert calls == []

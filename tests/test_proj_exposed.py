"""Tests for face retractions and the converging-extreme-ray probe."""

from __future__ import annotations

import contextlib
import json
import types
import warnings

import numpy as np
import pytest

from conelab import checks
from conelab import cone_algebra as CA
from conelab import gallery
from conelab.amenability_probe import ErrorBoundEstimate
from conelab.facial_structure import FaceHandle, face_samples, minimal_face
from conelab.linalg_core import BoundedRegion, orthonormalize, row_norms, sym_to_vec, vec_to_sym
from conelab.projection_engine import project_conic_generators
from conelab.proj_exposed import (
    Codim1ConsistencyReport,
    NotSeparableError,
    _certification_counts,
    ProjectionMap,
    SungTamResult,
    build_rank_one_projection,
    build_rank_two_projection,
    codim1_amenable_implies_pexp_check,
    extreme_ray_samples,
    sung_tam_probe,
)

SEAM_MATRIX = np.array(
    [
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)

TIP_W = np.array([0.0, 0.0, -1.0, 1.0]) / np.sqrt(2.0)


@contextlib.contextmanager
def _no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.fixture(scope="module")
def cylinder():
    return gallery.cylinder_hull_objects()


@pytest.fixture(scope="module")
def hull():
    return gallery.conic_hull_of_body()


def diagonal_psd_face(K: CA.PsdCone) -> FaceHandle:
    gens = np.array(
        [sym_to_vec(np.diag([1.0, 0.0])), sym_to_vec(np.diag([0.0, 1.0]))]
    )

    def member(x, tol=None):
        x = np.asarray(x, dtype=float)
        return bool(np.linalg.norm(x - projector(x)) <= 1e-9 * max(1.0, float(np.linalg.norm(x))))

    def projector(x):
        p, _, _ = project_conic_generators(gens, np.asarray(x, dtype=float))
        return p

    return FaceHandle(
        parent=K,
        span_basis=orthonormalize(gens),
        membership=member,
        exact_projector=projector,
        descriptor={
            "kind": "diagonal_psd",
            "generators": gens,
            "sampler": lambda n, rng: rng.gamma(2.0, 1.0, (n, 2)) @ gens,
        },
    )


class TestProjectionMapRecord:
    def _ray_face(self):
        K = CA.NonnegativeOrthant(2)
        return K, minimal_face(K, np.array([1.0, 0.0]))

    def test_certified_logic(self):
        K, F = self._ray_face()
        good = ProjectionMap(np.eye(2), F, 1e-13, 0)
        assert good.certified
        assert not ProjectionMap(np.eye(2), F, 1e-11, 0).certified
        assert not ProjectionMap(np.eye(2), F, 0.0, 1).certified

    def test_apply(self):
        K, F = self._ray_face()
        pm = ProjectionMap(np.diag([1.0, 0.0]), F, 0.0, 0)
        assert np.allclose(pm.apply([3.0, 4.0]), [3.0, 0.0])

    def test_report_round_trips_through_json(self):
        K, F = self._ray_face()
        pm = ProjectionMap(np.diag([1.0, 0.0]), F, 0.0, 0, n_samples_checked=7)
        rep = pm.to_report()
        assert set(rep) == {
            "matrix",
            "idempotency_residual",
            "containment_violations",
            "n_samples_checked",
            "pairing_residual",
            "certified",
            "target_face_dim",
        }
        parsed = json.loads(json.dumps(rep))
        assert parsed["matrix"] == [[1.0, 0.0], [0.0, 0.0]]
        assert parsed["pairing_residual"] is None
        assert parsed["certified"] is True


class TestRankOne:
    def test_orthant_coordinate_projection(self):
        K = CA.NonnegativeOrthant(2)
        F = minimal_face(K, np.array([1.0, 0.0]))
        pm = build_rank_one_projection(K, F, n_samples=2000)
        assert np.array_equal(pm.matrix, np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert pm.idempotency_residual == 0.0
        assert pm.containment_violations == 0
        assert pm.pairing_residual == pytest.approx(0.0, abs=1e-14)
        assert pm.certified
        assert np.allclose(pm.apply([2.0, 5.0]), [2.0, 0.0])

    def test_second_order_boundary_ray(self):
        K = CA.SecondOrderCone(3)
        x = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        F = minimal_face(K, x)
        pm = build_rank_one_projection(K, F, n_samples=2000)
        assert np.allclose(pm.matrix, np.outer(x, x), atol=1e-12)
        assert pm.certified
        rng = np.random.default_rng(3)
        pts = CA.sample_points(K, 500, rng)
        imgs = pts @ pm.matrix.T
        coefs = imgs @ x
        assert np.all(coefs >= -1e-10)
        assert np.allclose(imgs, coefs[:, None] * x, atol=1e-12)

    def test_psd_rank_one_extracts_corner_entry(self):
        K = CA.PsdCone(2)
        F = minimal_face(K, sym_to_vec(np.diag([1.0, 0.0])))
        pm = build_rank_one_projection(K, F, n_samples=2000)
        assert np.allclose(pm.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
        X = np.array([[2.0, 0.3], [0.3, 1.1]])
        img = vec_to_sym(pm.apply(sym_to_vec(X)))
        assert np.allclose(img, np.diag([2.0, 0.0]), atol=1e-12)

    def test_cylinder_seam_ray(self, cylinder):
        F = gallery.seam_ray_faces(cylinder.hull)[0]
        pm = build_rank_one_projection(cylinder.hull, F, n_samples=2000)
        assert pm.certified
        assert pm.idempotency_residual < 1e-12
        # images are nonnegative multiples of the seam generator
        gen = np.array([1.0, 0.0, 1.0, 1.0])
        rng = np.random.default_rng(5)
        pts = CA.sample_points(cylinder.hull, 300, rng)
        imgs = pts @ pm.matrix.T
        coefs = imgs @ gen / (gen @ gen)
        assert np.all(coefs >= -1e-10)
        assert np.allclose(imgs, coefs[:, None] * gen, atol=1e-10)

    def test_rejects_higher_dimensional_face(self):
        K = CA.NonnegativeOrthant(3)
        F = minimal_face(K, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="requires a ray"):
            build_rank_one_projection(K, F)

    def test_rejects_unpointed_cone(self):
        K = CA.PolyhedralCone(inequalities=np.array([[1.0, 0.0]]))
        F = minimal_face(K, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="not pointed"):
            build_rank_one_projection(K, F)


class TestRankTwo:
    def test_orthant_face_gives_coordinate_projection(self):
        K = CA.NonnegativeOrthant(3)
        F = minimal_face(K, np.array([1.0, 1.0, 0.0]))
        pm = build_rank_two_projection(K, F, n_samples=2000)
        assert np.allclose(pm.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert pm.certified
        assert pm.pairing_residual < 1e-10

    def test_psd_diagonal_extraction(self):
        K = CA.PsdCone(2)
        F = diagonal_psd_face(K)
        pm = build_rank_two_projection(K, F, n_samples=2000)
        assert np.allclose(pm.matrix, np.diag([1.0, 0.0, 1.0]), atol=1e-12)
        assert pm.certified
        X = np.array([[2.0, 0.7], [0.7, 1.5]])
        img = vec_to_sym(pm.apply(sym_to_vec(X)))
        assert np.allclose(img, np.diag([2.0, 1.5]), atol=1e-12)

    def test_cylinder_seam_face_matrix(self, cylinder):
        F = gallery.seam_face(cylinder.hull)
        with _no_warnings():
            pm = build_rank_two_projection(cylinder.hull, F, n_samples=2000)
        assert np.allclose(pm.matrix, SEAM_MATRIX, atol=1e-9)
        assert pm.idempotency_residual < 1e-12
        assert pm.containment_violations == 0
        assert pm.pairing_residual < 1e-10
        assert pm.certified

    def test_seam_images_stay_in_face(self, cylinder):
        F = gallery.seam_face(cylinder.hull)
        pm = build_rank_two_projection(cylinder.hull, F, n_samples=2000)
        rng = np.random.default_rng(11)
        pts = CA.sample_points(cylinder.hull, 400, rng)
        for p in pts @ pm.matrix.T:
            assert F.contains(p)
        # the face itself is held pointwise fixed
        gens = F.descriptor["generators"]
        mix = np.array([0.3, 1.7]) @ gens
        assert np.allclose(pm.apply(mix), mix, atol=1e-12)

    def test_rejects_wrong_dimension(self, cylinder):
        F = gallery.seam_ray_faces(cylinder.hull)[0]
        with pytest.raises(ValueError, match="2-dim"):
            build_rank_two_projection(cylinder.hull, F)

    def test_not_separable_when_generators_share_a_ray(self):
        K = CA.NonnegativeOrthant(2)
        F = FaceHandle(
            parent=K,
            span_basis=np.eye(2),
            membership=lambda x, tol=None: bool(np.all(np.asarray(x) >= -1e-9)),
            exact_projector=lambda x: np.maximum(x, 0.0),
            descriptor={"generators": np.array([[1.0, 0.0], [2.0, 0.0]])},
        )
        with pytest.raises(NotSeparableError, match="pair to zero"):
            build_rank_two_projection(K, F, n_samples=100)

    def test_not_exposed_ray_is_rejected(self, monkeypatch):
        K = CA.NonnegativeOrthant(3)
        F = minimal_face(K, np.array([1.0, 1.0, 0.0]))
        monkeypatch.setattr(
            "conelab.proj_exposed.is_exposed",
            lambda K_, F_, **kw: types.SimpleNamespace(status="not_exposed"),
        )
        with pytest.raises(ValueError, match="not an exposed face"):
            build_rank_two_projection(K, F, n_samples=100)

    def test_undecided_exposedness_warns_but_builds(self, monkeypatch):
        K = CA.NonnegativeOrthant(3)
        F = minimal_face(K, np.array([1.0, 1.0, 0.0]))
        monkeypatch.setattr(
            "conelab.proj_exposed.is_exposed",
            lambda K_, F_, **kw: types.SimpleNamespace(status="undecided"),
        )
        with pytest.warns(RuntimeWarning, match="could not be certified"):
            pm = build_rank_two_projection(K, F, n_samples=100)
        assert np.allclose(pm.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


class TestCertificationCounts:
    # the sampled checks the constructors run, on explicitly given matrices
    def test_explicit_seam_matrix_certifies(self, cylinder):
        F = gallery.seam_face(cylinder.hull)
        idem, violations, _ = _certification_counts(SEAM_MATRIX, cylinder.hull, F, 2000, 0)
        assert (idem, violations) == (0.0, 0)

    def test_non_idempotent_matrix_reported(self, cylinder):
        F = gallery.seam_face(cylinder.hull)
        idem, _, _ = _certification_counts(0.5 * SEAM_MATRIX, cylinder.hull, F, 200, 0)
        assert idem > 0.1

    def test_identity_map_violates_containment(self, cylinder):
        F = gallery.seam_face(cylinder.hull)
        idem, violations, _ = _certification_counts(np.eye(4), cylinder.hull, F, 500, 0)
        assert idem == 0.0
        assert violations > 0


def _looped_certification_counts(P, K, F, n_samples, seed):
    """The certification with one F.contains call per sampled image."""
    rng = np.random.default_rng(seed)
    idem = float(np.linalg.norm(P @ P - P))
    X = CA.sample_points(K, n_samples, rng)
    violations = sum(1 for img in X @ P.T if not F.contains(img))
    fixed = face_samples(F, min(512, n_samples), rng)
    moved = row_norms((P @ fixed[:, :, None])[:, :, 0] - fixed)
    violations += int(np.count_nonzero(moved > 1e-8 * (1.0 + row_norms(fixed))))
    return idem, violations, len(X) + len(fixed)


def _dim4_retractions():
    """The six retractions of the projections_dim4 check: (label, K, F, P)."""
    hull = gallery.cylinder_hull_objects().hull
    orthant, psd = CA.NonnegativeOrthant(3), CA.PsdCone(2)
    rank_one = (
        ("orthant_ray", orthant, minimal_face(orthant, np.array([1.0, 0.0, 0.0]))),
        ("psd_ray", psd, minimal_face(psd, sym_to_vec(np.diag([1.0, 0.0])))),
        ("cylinder_seam_ray", hull, gallery.seam_ray_faces(hull)[0]),
    )
    rank_two = (
        ("orthant_face", orthant, minimal_face(orthant, np.array([1.0, 1.0, 0.0]))),
        ("psd_diagonal", psd, checks._diagonal_psd_face(psd)),
        ("cylinder_seam_face", hull, gallery.seam_face(hull)),
    )
    return [
        (label, K, F, build_rank_one_projection(K, F, n_samples=50).matrix)
        for label, K, F in rank_one
    ] + [
        (label, K, F, build_rank_two_projection(K, F, n_samples=50).matrix)
        for label, K, F in rank_two
    ]


class TestStackedCertification:
    @pytest.fixture(scope="class")
    def retractions(self):
        return _dim4_retractions()

    def test_counts_equal_the_contains_loop(self, retractions):
        kinds = set()
        for label, K, F, P in retractions:
            kinds.add(F.descriptor["kind"])
            counts = _certification_counts(P, K, F, 1000, 11)
            assert counts == _looped_certification_counts(P, K, F, 1000, 11), label
            assert counts[1] == 0, label
        assert kinds == {"orthant", "psd_range", "seam_ray_top", "seam", "diagonal"}

    def test_diagonal_counts_equal_the_generator_face(self, retractions):
        # the closed-form diagonal face against the nnls-based face it replaced,
        # whose membership goes row by row
        (P,) = [P for label, _, _, P in retractions if label == "psd_diagonal"]
        K = CA.PsdCone(2)
        closed, solved = checks._diagonal_psd_face(K), diagonal_psd_face(K)
        for M in (P, np.eye(3), P + 1e-6 * np.eye(3), P + 1e-10 * np.eye(3)):
            counts = _certification_counts(M, K, closed, 1000, 11)
            assert counts == _certification_counts(M, K, solved, 1000, 11)
            assert counts == _looped_certification_counts(M, K, closed, 1000, 11)

    def test_wrong_map_violations_equal_the_contains_loop(self, retractions):
        for label, K, F, P in retractions:
            # the identity keeps every sampled cone point, most of them off the face
            for wrong in (np.eye(P.shape[0]), P + 1e-6 * np.eye(P.shape[0])):
                counts = _certification_counts(wrong, K, F, 1000, 11)
                assert counts == _looped_certification_counts(wrong, K, F, 1000, 11), label
                assert counts[1] > 0, label


class TestExtremeRaySamples:
    def test_orthant_standard_basis(self):
        assert np.array_equal(extreme_ray_samples(CA.NonnegativeOrthant(3), 10), np.eye(3))

    def test_second_order_boundary_family(self):
        K = CA.SecondOrderCone(3)
        rays = extreme_ray_samples(K, 32)
        assert rays.shape == (32, 3)
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-12)
        assert np.allclose(rays[:, 2], 1.0 / np.sqrt(2.0), atol=1e-12)
        dual = CA.dual_cone(K)
        for row in rays[:5]:
            assert minimal_face(dual, row).face_dim == 1

    def test_psd_rank_one_family(self):
        rays = extreme_ray_samples(CA.PsdCone(2), 16)
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-12)
        for row in rays:
            eigs = np.linalg.eigvalsh(vec_to_sym(row))
            assert eigs[0] == pytest.approx(0.0, abs=1e-10)
            assert eigs[1] == pytest.approx(1.0, abs=1e-10)

    def test_polyhedral_redundant_row_filtered(self):
        K = CA.PolyhedralCone(
            inequalities=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        )
        rays = extreme_ray_samples(K, 8)
        assert sorted(map(tuple, np.round(rays, 12))) == [(0.0, 1.0), (1.0, 0.0)]

    def test_generator_representation_unsupported(self):
        K = CA.PolyhedralCone(generators=np.array([[1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(CA.UnsupportedVariantError, match="facet enumeration"):
            extreme_ray_samples(K, 8)

    def test_product_block_embeddings(self):
        K = CA.ProductCone(CA.NonnegativeOrthant(2), CA.SecondOrderCone(3))
        rays = extreme_ray_samples(K, 6)
        assert rays.shape == (8, 5)
        assert np.allclose(rays[:2, 2:], 0.0)
        assert np.allclose(rays[2:, :2], 0.0)
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-12)

    def test_gallery_rays_lie_on_dual_boundary(self, cylinder):
        rays = extreme_ray_samples(cylinder.hull, 64)
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-12)
        gauge = np.linalg.norm(rays[:, :2], axis=1) + np.abs(rays[:, 2])
        assert np.allclose(gauge, rays[:, 3], atol=1e-9)

    def test_unsupported_variant(self):
        K = CA.IntersectionCone((CA.NonnegativeOrthant(2), CA.SecondOrderCone(2)))
        with pytest.raises(CA.UnsupportedVariantError, match="extreme-ray sampler"):
            extreme_ray_samples(K, 8)


class TestSungTamProbe:
    def test_orthant_facet_has_isolated_dual_rays(self):
        K = CA.NonnegativeOrthant(3)
        F = minimal_face(K, np.array([1.0, 1.0, 0.0]))
        res = sung_tam_probe(K, F)
        assert res.status == "no_converging_sequence_found"
        assert not res.found
        assert all(count == 0 for _, count in res.levels)
        assert res.nearest_distance == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert np.allclose(res.w, [0.0, 0.0, 1.0])

    def test_soc_boundary_ray_fails_hypotheses(self):
        K = CA.SecondOrderCone(3)
        F = minimal_face(K, np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))
        with pytest.raises(ValueError, match="codimension"):
            sung_tam_probe(K, F)

    def test_gallery_tip_attracts_extreme_rays(self, hull):
        F = gallery.lifted_disk_face(hull)
        res = sung_tam_probe(hull, F)
        assert res.status == "converging_extreme_rays"
        assert res.found
        assert len(res.levels) == 13
        counts = [c for _, c in res.levels]
        assert all(c > 0 for c in counts)
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert res.nearest_distance < 1.3e-4
        assert np.allclose(res.w, TIP_W, atol=1e-12)
        assert res.rays.shape[0] >= 1
        # reported representatives are themselves near-unit dual directions
        assert np.allclose(np.linalg.norm(res.rays, axis=1), 1.0, atol=1e-9)

    def test_gallery_found_within_eight_halvings(self, hull):
        F = gallery.lifted_disk_face(hull)
        schedule = tuple(0.5 * 2.0**-k for k in range(9))
        res = sung_tam_probe(hull, F, shrink_schedule=schedule)
        assert res.found
        assert len(res.levels) == 9

    def test_cylinder_tip_is_isolated(self, cylinder):
        F = gallery.lifted_disk_face(cylinder.hull)
        res = sung_tam_probe(cylinder.hull, F)
        assert res.status == "no_converging_sequence_found"
        assert not res.found
        assert all(count == 0 for _, count in res.levels)
        assert res.nearest_distance == pytest.approx(1.0, abs=1e-9)

    def test_cylinder_wide_first_level_still_not_converging(self, cylinder):
        F = gallery.lifted_disk_face(cylinder.hull)
        res = sung_tam_probe(
            cylinder.hull, F, shrink_schedule=(1.5, 0.75, 0.375)
        )
        assert res.levels[0][1] > 0
        assert res.levels[1][1] == 0
        assert not res.found

    def test_schedule_validation(self, cylinder):
        F = gallery.lifted_disk_face(cylinder.hull)
        with pytest.raises(ValueError, match="strictly decreasing"):
            sung_tam_probe(cylinder.hull, F, shrink_schedule=(0.5, 0.5))
        with pytest.raises(ValueError, match="strictly decreasing"):
            sung_tam_probe(cylinder.hull, F, shrink_schedule=(0.5, -0.1))

    def test_full_dimensionality_required(self):
        K = CA.PolyhedralCone(generators=np.array([[1.0, 0.0]]))
        F = minimal_face(K, np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="full-dimensional"):
            sung_tam_probe(K, F)

    def test_unpointed_cone_rejected(self):
        # the halfplane x_1 >= 0: full-dimensional, and it holds the x_2-axis
        K = CA.PolyhedralCone(inequalities=np.array([[1.0, 0.0]]))
        F = minimal_face(K, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="not pointed"):
            sung_tam_probe(K, F)

    def test_report_keys_and_json(self, cylinder):
        F = gallery.lifted_disk_face(cylinder.hull)
        rep = sung_tam_probe(cylinder.hull, F).to_report()
        assert set(rep) == {
            "status",
            "found",
            "w",
            "levels",
            "rays",
            "nearest_distance",
            "n_rays",
        }
        json.dumps(rep)
        assert rep["levels"][0] == {"radius": 0.5, "count": 0}


class TestCodim1Consistency:
    def test_orthant_facet_consistent(self):
        K = CA.NonnegativeOrthant(3)
        F = minimal_face(K, np.array([1.0, 1.0, 0.0]))
        rep = codim1_amenable_implies_pexp_check(K, F)
        assert rep.kappa_verdict == "bounded"
        assert not rep.converging_found
        assert not rep.contradiction
        assert rep.consistent
        assert "consistent" in rep.note

    def test_cylinder_disk_face_consistent(self, cylinder):
        F = gallery.lifted_disk_face(cylinder.hull)
        rep = codim1_amenable_implies_pexp_check(cylinder.hull, F, n_samples=48)
        assert rep.kappa_verdict == "bounded"
        assert rep.evidence.kappa_hat < 2.0
        assert not rep.converging_found
        assert rep.consistent

    def test_gallery_contrapositive(self, hull):
        F = gallery.lifted_disk_face(hull)
        w = gallery.witness_w(0.2)
        lifted = np.array([w[0], w[1], 1.0, 1.0])
        region = BoundedRegion(center=np.array([0.0, 0.0, 1.0, 1.0]), radius=1.3)
        rep = codim1_amenable_implies_pexp_check(
            hull, F, region=region, n_samples=32, refine_from=lifted
        )
        assert rep.kappa_verdict == "growth_detected"
        assert rep.converging_found
        assert not rep.contradiction
        assert "contrapositive" in rep.note

    def test_synthetic_contradiction_is_flagged(self, hull):
        F = gallery.lifted_disk_face(hull)
        region = BoundedRegion(center=np.array([0.0, 0.0, 1.0, 1.0]), radius=1.0)
        fake = ErrorBoundEstimate(
            cone=hull,
            face=F,
            region=region,
            kappa_hat=3.0,
            samples=(),
            verdict="bounded",
            seed=0,
            denominator="cone",
        )
        rep = codim1_amenable_implies_pexp_check(hull, F, evidence=fake)
        assert rep.contradiction
        assert not rep.consistent
        assert "contradiction" in rep.note

    def test_report_keys_and_json(self):
        K = CA.NonnegativeOrthant(3)
        F = minimal_face(K, np.array([1.0, 1.0, 0.0]))
        rep = codim1_amenable_implies_pexp_check(K, F).to_report()
        assert set(rep) == {
            "kappa_verdict",
            "converging_found",
            "contradiction",
            "consistent",
            "note",
            "kappa_hat",
            "probe",
        }
        json.dumps(rep)

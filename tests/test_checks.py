"""Registry checks: names, dispatch, and the fast checks' verdicts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conelab import checks
from conelab.linalg_core import sym_to_vec


EXPECTED_NAMES = {
    "sturm",
    "witness_asymptotics",
    "det_M",
    "exposing_normals",
    "dual_sum",
    "slice_bound",
    "moreau",
    "sung_tam_gallery",
    "projections_dim4",
}


class TestRegistry:
    def test_registry_names_exact(self):
        assert set(checks.CHECKS) == EXPECTED_NAMES

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="witness_asymptotics"):
            checks.run_check("not_a_check")

    def test_callables(self):
        assert all(callable(fn) for fn in checks.CHECKS.values())


class TestCheckResult:
    def test_report_round_trip(self):
        res = checks.CheckResult(
            name="demo",
            passed=True,
            measured={"x": 1.5},
            expected={"x": 2.0},
            note="demo",
        )
        rep = json.loads(json.dumps(res.to_report()))
        assert rep["name"] == "demo"
        assert rep["passed"] is True
        assert rep["measured"]["x"] == 1.5
        assert rep["expected"]["x"] == 2.0

    def test_default_dicts_are_independent(self):
        a = checks.CheckResult(name="a", passed=True)
        b = checks.CheckResult(name="b", passed=False)
        a.measured["k"] = 1
        assert "k" not in b.measured


class TestFastChecks:
    """The sub-second checks run here; the heavy ones run in acceptance."""

    @pytest.mark.parametrize(
        "name",
        [
            "sturm",
            "witness_asymptotics",
            "det_M",
            "exposing_normals",
            "dual_sum",
            "sung_tam_gallery",
        ],
    )
    def test_passes(self, name):
        res = checks.run_check(name)
        assert res.passed, res.measured

    def test_witness_measured_fields(self):
        res = checks.run_check("witness_asymptotics")
        assert res.measured["max_face_distance_sq_error"] <= 1e-10
        assert abs(res.measured["slope"] - 4.0) <= 0.3

    def test_det_m_grid_size(self):
        res = checks.run_check("det_M")
        assert res.measured["n_pairs"] == 50 * 49 // 2
        assert res.measured["min_bracket"] >= 2.0

    def test_dual_sum_sample_count(self):
        res = checks.run_check("dual_sum")
        assert res.measured["n_checked"] >= 10_000
        assert res.measured["disagreements"] == 0

    def test_sturm_ratios_scale(self):
        res = checks.run_check("sturm")
        assert res.measured["ratio_at_kappa_100"] > 100.0
        assert res.measured["ball_radius_3_verdict"] == "bounded"

    def test_sung_tam_statuses(self):
        res = checks.run_check("sung_tam_gallery")
        assert res.measured["orthant_status"] == "no_converging_sequence_found"
        assert res.measured["gallery_status"] == "converging_extreme_rays"
        assert res.measured["gallery_deepest_radius"] == pytest.approx(
            0.5 * 2.0**-8
        )


# The projections_dim4 result block. The idempotency residuals come from the
# maps alone, not from the cone samples that certify them, and the counts are
# zero, so the block does not move with the sample stream.
PROJECTIONS_DIM4_REPORT = {
    "name": "projections_dim4",
    "passed": True,
    "measured": {
        "max_idempotency_residual": 2.499851492298633e-14,
        "total_containment_violations": 0,
        "orthant_ray_idempotency": 0.0,
        "psd_ray_idempotency": 0.0,
        "cylinder_seam_ray_idempotency": 0.0,
        "orthant_face_idempotency": 0.0,
        "psd_diagonal_idempotency": 0.0,
        "cylinder_seam_face_idempotency": 2.499851492298633e-14,
    },
    "expected": {"max_idempotency_residual": 1e-12, "total_containment_violations": 0},
    "note": "six constructed maps, 10^4 cone samples each",
}


def test_projections_dim4_report_is_golden():
    rep = checks.run_check("projections_dim4").to_report()
    assert json.dumps(rep, sort_keys=True) == json.dumps(PROJECTIONS_DIM4_REPORT, sort_keys=True)


class TestDiagonalPsdFace:
    """The face of PSD(2) used by the projections_dim4 containment count."""

    @pytest.fixture()
    def face(self):
        from conelab.cone_algebra import PsdCone

        return checks._diagonal_psd_face(PsdCone(2))

    @pytest.mark.parametrize("diag", [(1.0, 0.0), (0.0, 2.0), (0.5, 3.0)])
    def test_contains_nonnegative_diagonals(self, face, diag):
        assert face.contains(sym_to_vec(np.diag(diag)))

    @pytest.mark.parametrize(
        "X", [[[1.0, 5.0], [5.0, 1.0]], [[-3.0, 0.0], [0.0, 1.0]], [[1.0, 1e-6], [1e-6, 1.0]]]
    )
    def test_rejects_points_off_the_face(self, face, X):
        assert not face.contains(sym_to_vec(np.array(X)))

    def test_stack_equals_rows_and_the_generator_solve(self, face):
        from conelab.facial_structure import face_contains, face_projection
        from conelab.projection_engine import project_conic_generators

        rng = np.random.default_rng(7)
        on = rng.gamma(2.0, 1.0, (20, 2)) @ face.descriptor["generators"]
        on[:5, 0] = 0.0
        moved = on + rng.standard_normal((20, 3)) * 10.0 ** rng.uniform(-11, -7, (20, 1))
        X = np.vstack([on, moved, rng.standard_normal((20, 3)) * 3.0])
        X[-3:, 1] = [np.nan, np.inf, -np.inf]
        got = face_contains(face, X)
        assert got.tolist() == [face.contains(x) for x in X]
        assert 0 < got[20:40].sum() < 20 and not got[-3:].any()
        gens = face.descriptor["generators"]
        for x, verdict in zip(X[:-3], got[:-3]):
            # the membership formula of the per-point generator solve it replaced
            p = project_conic_generators(gens, x)[0]
            assert verdict == (np.linalg.norm(x - p) <= 1e-9 * max(1.0, np.linalg.norm(x)))
        P = face_projection(face, X[:-3])
        assert P.tobytes() == b"".join(face_projection(face, x).tobytes() for x in X[:-3])
        ref = np.array([project_conic_generators(gens, x)[0] for x in X[:-3]])
        np.testing.assert_allclose(P, ref, rtol=0.0, atol=1e-14)

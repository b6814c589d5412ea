"""Command-line interface: parsing, exit codes, determinism, file outputs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conelab import cli, gallery
from conelab.checks import CheckResult


@pytest.fixture()
def soc3(tmp_path):
    p = tmp_path / "soc3.json"
    p.write_text('{"type": "soc", "dim": 3}\n')
    return str(p)


@pytest.fixture()
def orthant3(tmp_path):
    p = tmp_path / "orthant3.json"
    p.write_text('{"type": "orthant", "dim": 3}\n')
    return str(p)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _result(out: str) -> dict:
    return json.loads(out)["result"]


class TestProject:
    def test_soc_halved(self, capsys, soc3):
        code, out, _ = _run(capsys, ["project", "--spec", soc3, "--point", "1,0,0"])
        assert code == 0
        res = _result(out)
        assert np.allclose(res["point"], [0.5, 0.0, 0.5])
        assert res["method"] == "closed_form"

    def test_interior_point_distance_zero(self, capsys, soc3):
        code, out, _ = _run(capsys, ["project", "--spec", soc3, "--point", "0.1,0,1"])
        assert code == 0
        assert _result(out)["distance"] == 0.0

    def test_malformed_json_reports_line_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "soc",\n dim: 3}\n')
        code, _, err = _run(
            capsys, ["project", "--spec", str(bad), "--point", "1,0,0"]
        )
        assert code == 1
        assert "line 2" in err and "column" in err

    def test_missing_spec_file(self, capsys):
        code, _, err = _run(
            capsys, ["project", "--spec", "missing.json", "--point", "1,0,0"]
        )
        assert code == 1
        assert "gallery name" in err

    def test_dimension_mismatch(self, capsys, soc3):
        code, _, err = _run(capsys, ["project", "--spec", soc3, "--point", "1,0"])
        assert code == 1
        assert "dimension 2" in err

    def test_nonnumeric_point(self, capsys, soc3):
        code, _, err = _run(capsys, ["project", "--spec", soc3, "--point", "a,b,c"])
        assert code == 1
        assert "comma-separated numbers" in err

    def test_nonconvergence_maps_to_exit_2(self, capsys, soc3, monkeypatch):
        from conelab import projection_engine

        def boom(K, x, tol=None):
            raise projection_engine.NonConvergenceError("stalled", 100, 1.0)

        monkeypatch.setattr("conelab.projection_engine.project", boom)
        code, _, err = _run(capsys, ["project", "--spec", soc3, "--point", "1,0,0"])
        assert code == 2
        assert "converge" in err

    @pytest.mark.parametrize("point", ["1,nan,0", "inf,0,1", "1,0,-inf"])
    def test_nonfinite_point_rejected(self, capsys, soc3, point):
        code, out, err = _run(capsys, ["project", "--spec", soc3, "--point", point])
        assert code == 1
        assert out == ""
        assert "--point must be finite" in err and "Traceback" not in err

    def test_psd_full_matrix_point(self, capsys, tmp_path):
        p = tmp_path / "psd2.json"
        p.write_text('{"type": "psd", "n": 2}\n')
        code, out, _ = _run(
            capsys, ["project", "--spec", str(p), "--point", "1,0.5,0.5,2"]
        )
        assert code == 0
        assert _result(out)["distance"] == 0.0

    def test_psd_asymmetric_full_matrix_rejected(self, capsys, tmp_path):
        p = tmp_path / "psd2.json"
        p.write_text('{"type": "psd", "n": 2}\n')
        code, _, err = _run(
            capsys, ["project", "--spec", str(p), "--point", "1,0.4,0.5,2"]
        )
        assert code == 1
        assert "symmetric" in err


# every numeric key of every spec type, inside an otherwise valid spec
_NUMERIC_KEYS = [
    ({"type": "orthant", "dim": 3}, "dim"),
    ({"type": "soc", "dim": 3}, "dim"),
    ({"type": "psd", "n": 2}, "n"),
    ({"type": "halfspace", "normal": [1, 0, 0], "offset": 0.0}, "offset"),
    ({"type": "hull", "points": [[0, 0, 1], [1, 0, 1]], "e": [0, 0, 1], "level": 1.0}, "level"),
    ({"type": "gallery", "name": "nice_not_amenable_C", "density": 64}, "density"),
]
# null, string, list, negative, fractional and NaN values; any finite offset
# is a valid halfspace, and a slice level need not be whole
_MALFORMED_NUMBERS = [
    (spec, key, bad)
    for spec, key in _NUMERIC_KEYS
    for bad in (None, "3", [3], -1, 2.5, float("nan"))
    if not (key == "offset" and bad in (-1, 2.5)) and not (key == "level" and bad == 2.5)
]


class TestSpecParsing:
    def test_gallery_name_accepted_directly(self, capsys):
        code, out, _ = _run(
            capsys,
            ["project", "--spec", "cylinder_K_tilde", "--point", "0,0,0,1"],
        )
        assert code == 0
        assert _result(out)["distance"] == 0.0

    @pytest.mark.parametrize("kind", ["moebius", ["orthant"]])
    def test_unknown_type_lists_known(self, capsys, tmp_path, kind):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps({"type": kind}))
        code, _, err = _run(capsys, ["project", "--spec", str(p), "--point", "1"])
        assert code == 1
        assert err == (
            f"error: spec: unknown cone type {kind!r}; known types: orthant, soc, psd, "
            "polyhedral, halfspace, subspace, product, intersection, linear_image, hull, gallery\n"
        )

    def test_hull_normal_must_be_nonzero(self, capsys, tmp_path):
        p = tmp_path / "hull.json"
        p.write_text(json.dumps({"type": "hull", "points": [[0, 0, 1], [1, 0, 1]], "e": [0, 0, 0]}))
        code, out, err = _run(capsys, ["project", "--spec", str(p), "--point", "1,0,1"])
        assert code == 1
        assert out == ""
        assert "slice normal e must be nonzero" in err

    @pytest.mark.parametrize("parts", [5, {"a": 1}, "orthant"])
    def test_intersection_parts_must_be_a_list(self, capsys, tmp_path, parts):
        p = tmp_path / "parts.json"
        p.write_text(json.dumps({"type": "intersection", "parts": parts}))
        code, out, err = _run(capsys, ["project", "--spec", str(p), "--point", "1,0"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: spec.parts: an 'intersection' spec needs a list of cone specs")

    @pytest.mark.parametrize(
        "spec, where, key",
        [
            ({"type": "orthant"}, "spec", "dim"),
            ({"type": "psd"}, "spec", "n"),
            ({"type": "hull", "e": [0, 1]}, "spec", "points"),
            (
                {"type": "product", "left": {"type": "soc"},
                 "right": {"type": "orthant", "dim": 1}},
                "spec.left",
                "dim",
            ),
            (
                {"type": "intersection",
                 "parts": [{"type": "orthant", "dim": 2}, {"type": "subspace"}]},
                "spec.parts[1]",
                "basis",
            ),
        ],
    )
    def test_missing_key_named(self, capsys, tmp_path, spec, where, key):
        p = tmp_path / "incomplete.json"
        p.write_text(json.dumps(spec))
        code, out, err = _run(capsys, ["project", "--spec", str(p), "--point", "1,0"])
        assert code == 1
        assert out == ""
        assert f"{where}: " in err and f"needs the key {key!r}" in err

    @pytest.mark.parametrize("spec, key, bad", _MALFORMED_NUMBERS)
    @pytest.mark.parametrize("nested", [False, True])
    def test_malformed_numeric_key(self, capsys, tmp_path, spec, key, bad, nested):
        spec = dict(spec, **{key: bad})
        where = "spec"
        if nested:
            spec = {"type": "product", "left": {"type": "orthant", "dim": 1}, "right": spec}
            where = "spec.right"
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(spec))
        code, out, err = _run(capsys, ["project", "--spec", str(p), "--point", "1,0,0"])
        assert code == 1
        assert out == ""
        assert f"{where}: the key {key!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"type": "halfspace", "normal": None}, "normal"),
            ({"type": "halfspace", "normal": ["a", "b"]}, "normal"),
            ({"type": "halfspace", "normal": []}, "normal"),
            ({"type": "hull", "points": [[0, 1], [1, 1]], "e": 1}, "e"),
            ({"type": "hull", "points": [[0, 1], [1, 1]], "e": [[0, 1]]}, "e"),
        ],
    )
    def test_malformed_vector_key(self, capsys, tmp_path, spec, key):
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(spec))
        code, out, err = _run(capsys, ["project", "--spec", str(p), "--point", "1,0"])
        assert code == 1
        assert out == ""
        assert f"spec: the key {key!r}" in err

    def test_whole_float_dimension_accepted(self, capsys, tmp_path):
        p = tmp_path / "orthant.json"
        p.write_text('{"type": "orthant", "dim": 3.0}')
        code, out, _ = _run(capsys, ["project", "--spec", str(p), "--point", "1,-1,0"])
        assert code == 0
        assert _result(out)["point"] == [1, 0, 0]

    def test_nested_product_spec(self, capsys, tmp_path):
        p = tmp_path / "prod.json"
        p.write_text(
            json.dumps(
                {
                    "type": "product",
                    "left": {"type": "orthant", "dim": 2},
                    "right": {"type": "soc", "dim": 3},
                }
            )
        )
        code, out, _ = _run(
            capsys, ["project", "--spec", str(p), "--point", "1,-1,1,0,0"]
        )
        assert code == 0
        res = _result(out)
        assert np.allclose(res["point"], [1.0, 0.0, 0.5, 0.0, 0.5])

    def test_hull_spec_from_points(self, capsys, tmp_path):
        p = tmp_path / "hull.json"
        p.write_text(
            json.dumps(
                {
                    "type": "hull",
                    "e": [0.0, 0.0, 1.0],
                    "points": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
                }
            )
        )
        code, out, _ = _run(
            capsys, ["project", "--spec", str(p), "--point", "0,0,2"]
        )
        assert code == 0
        assert _result(out)["distance"] == 0.0

    def test_linear_image_spec(self, capsys, tmp_path):
        # the rotation by 90 degrees of the quadrant is {x : x1 <= 0, x2 >= 0}
        p = tmp_path / "image.json"
        p.write_text(
            json.dumps(
                {
                    "type": "linear_image",
                    "matrix": [[0, -1], [1, 0]],
                    "inner": {"type": "orthant", "dim": 2},
                }
            )
        )
        code, out, _ = _run(
            capsys, ["project", "--spec", str(p), "--point", "1,2"]
        )
        assert code == 0
        res = _result(out)
        assert np.allclose(res["point"], [0.0, 2.0])
        assert res["distance"] == pytest.approx(1.0)


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, soc3):
        argv = ["project", "--spec", soc3, "--point", "1,0,0"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    def test_seventeen_digit_floats(self, capsys, soc3):
        _, out, _ = _run(capsys, ["project", "--spec", soc3, "--point", "1,0,0"])
        assert "0.70710678118654757" in out

    def test_report_envelope_fields(self, capsys, soc3):
        _, out, _ = _run(
            capsys, ["project", "--spec", soc3, "--point", "1,0,0", "--seed", "7"]
        )
        rep = json.loads(out)
        assert rep["command"] == "project"
        assert rep["seed"] == 7
        assert len(rep["spec_sha256"]) == 64
        assert set(rep["tolerances"]) == {"abs", "rel"}
        assert rep["tool_version"]


class TestProbes:
    def test_orthant_facet_bounded_kappa_one(self, capsys, orthant3):
        code, out, _ = _run(
            capsys,
            [
                "probe-amenability",
                "--spec", orthant3,
                "--face", "1,1,0",
                "--region", "1,1,0,2",
                "--samples", "64",
            ],
        )
        assert code == 0
        res = _result(out)
        assert res["verdict"] == "bounded"
        assert res["kappa_hat"] == pytest.approx(1.0, abs=1e-9)

    def test_blr_writes_json_and_csv(self, capsys, orthant3, tmp_path):
        base = tmp_path / "blr"
        code, _, _ = _run(
            capsys,
            [
                "probe-blr",
                "--spec", orthant3,
                "--face", "1,1,0",
                "--region", "1,1,0,2",
                "--samples", "32",
                "--out", str(base),
            ],
        )
        assert code == 0
        rep = json.loads((tmp_path / "blr.json").read_text())
        assert rep["result"]["verdict"] == "bounded"
        lines = (tmp_path / "blr.csv").read_text().splitlines()
        assert lines[0] == "index,dist_face,dist_cone,ratio"
        assert len(lines) > 32

    def test_region_count_mismatch(self, capsys, orthant3):
        code, _, err = _run(
            capsys,
            [
                "probe-blr",
                "--spec", orthant3,
                "--face", "1,1,0",
                "--region", "1,1,2",
            ],
        )
        assert code == 1
        assert "radius" in err

    @pytest.mark.parametrize("region", ["1,1,nan,2", "1,1,0,inf"])
    def test_nonfinite_region_rejected(self, capsys, orthant3, region):
        code, out, err = _run(
            capsys,
            ["probe-blr", "--spec", orthant3, "--face", "1,1,0", "--region", region],
        )
        assert code == 1
        assert out == ""
        assert "--region must be finite" in err

    def test_unresolvable_face_lists_names(self, capsys):
        code, _, err = _run(
            capsys,
            [
                "probe-blr",
                "--spec", "cylinder_K_tilde",
                "--face", "equator",
                "--samples", "16",
            ],
        )
        assert code == 1
        assert "seam" in err and "lifted_disk" in err


class TestFaceCommand:
    def test_minimal_face_report(self, capsys, orthant3):
        code, out, _ = _run(
            capsys, ["face", "minimal", "--spec", orthant3, "--point", "1,1,0"]
        )
        assert code == 0
        res = _result(out)
        assert res["face_dim"] == 2
        assert len(res["span_basis"]) == 2

    def test_conjugate_face_report(self, capsys, orthant3):
        code, out, _ = _run(
            capsys, ["face", "conjugate", "--spec", orthant3, "--face", "1,1,0"]
        )
        assert code == 0
        res = _result(out)
        assert res["face"]["face_dim"] == 2
        assert res["conjugate"]["face_dim"] == 1

    def test_exposedness_report(self, capsys, orthant3):
        code, out, _ = _run(
            capsys,
            [
                "face", "exposed",
                "--spec", orthant3,
                "--face", "1,1,0",
                "--samples", "256",
            ],
        )
        assert code == 0
        res = _result(out)
        assert res["status"] == "exposed"
        assert res["margin"] > 0

    def test_needs_face_or_point(self, capsys, orthant3):
        code, _, err = _run(capsys, ["face", "minimal", "--spec", orthant3])
        assert code == 1
        assert "--face or --point" in err


_KNOWN_GALLERY = "nice_not_amenable_C, nice_not_amenable_K, cylinder_K_tilde, sturm_slice"


class TestGalleryRegistry:
    """The command line reads gallery.GALLERY: its names and its face names."""

    @pytest.mark.parametrize(
        "name, face", [(n, f) for n in gallery.GALLERY_NAMES for f in gallery.GALLERY[n].faces]
    )
    def test_named_face_resolves_with_its_name_as_kind(self, capsys, name, face):
        code, out, _ = _run(capsys, ["face", "minimal", "--spec", name, "--face", face])
        assert code == 0
        assert _result(out)["kind"] == face

    @pytest.mark.parametrize("name", gallery.GALLERY_NAMES)
    def test_gallery_spec_file_accepts_every_name(self, capsys, tmp_path, name):
        p = tmp_path / "gallery.json"
        p.write_text(json.dumps({"type": "gallery", "name": name, "density": 64}))
        face = next(iter(gallery.GALLERY[name].faces))
        code, out, _ = _run(capsys, ["face", "minimal", "--spec", str(p), "--face", face])
        assert code == 0
        assert _result(out)["kind"] == face

    @pytest.mark.parametrize(
        "name", ["cylinder_K_tilde_dual", "cylinder_dual_sum", "disk_top", "Sturm_slice", ["sturm_slice"]]
    )
    def test_other_names_are_refused(self, capsys, tmp_path, name):
        assert gallery.GALLERY_NAMES == tuple(_KNOWN_GALLERY.split(", "))
        if isinstance(name, str):
            code, _, err = _run(capsys, ["project", "--spec", name, "--point", "0,0,0,1"])
            assert code == 1
            assert err == (
                f"error: spec {name!r} is neither a file nor a gallery name ({_KNOWN_GALLERY})\n"
            )
        p = tmp_path / "gallery.json"
        p.write_text(json.dumps({"type": "gallery", "name": name}))
        code, _, err = _run(capsys, ["project", "--spec", str(p), "--point", "0,0,0,1"])
        assert code == 1
        assert err == f"error: spec: unknown gallery cone {name!r}; known names: {_KNOWN_GALLERY}\n"

    @pytest.mark.parametrize("name", gallery.GALLERY_NAMES)
    def test_unknown_face_lists_the_table_names(self, capsys, name):
        code, _, err = _run(capsys, ["face", "minimal", "--spec", name, "--face", "equator"])
        assert code == 1
        names = ", ".join(sorted(gallery.GALLERY[name].faces))
        assert err == (
            f"error: --face 'equator' is neither a named face ({names}) nor a comma-separated point\n"
        )


class TestConstants:
    def test_given_kappa_skips_probe(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "constants",
                "--spec", "cylinder_K_tilde",
                "--face", "lifted_disk",
                "--kappa-slice", "2.0",
            ],
        )
        assert code == 0
        res = _result(out)
        assert res["kappa_source"] == "given"
        assert res["gamma"] == pytest.approx(
            res["beta"] * 2.0 * res["r"] * res["e_norm"]
        )

    def test_no_slice_data_is_input_error(self, capsys):
        code, _, err = _run(
            capsys,
            ["constants", "--spec", "sturm_slice", "--face", "sturm"],
        )
        assert code == 1
        assert "slice" in err


class TestSungTamCommand:
    def test_gallery_converging(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "sung-tam",
                "--spec", "nice_not_amenable_K",
                "--face", "lifted_disk",
                "--samples", "256",
            ],
        )
        assert code == 0
        res = _result(out)
        assert res["status"] == "converging_extreme_rays"

    def test_cylinder_isolated(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "sung-tam",
                "--spec", "cylinder_K_tilde",
                "--face", "lifted_disk",
                "--samples", "128",
            ],
        )
        assert code == 0
        res = _result(out)
        assert res["status"] == "no_converging_sequence_found"
        assert res["nearest_distance"] == pytest.approx(1.0, abs=1e-9)


class TestBuildProjectionCommand:
    def test_orthant_ray_rank_inferred(self, capsys, orthant3):
        code, out, _ = _run(
            capsys,
            [
                "build-projection",
                "--spec", orthant3,
                "--face", "1,0,0",
                "--samples", "500",
            ],
        )
        assert code == 0
        res = _result(out)
        assert res["rank"] == 1
        assert res["certified"] is True
        assert np.allclose(res["matrix"], np.diag([1.0, 0.0, 0.0]))

    def test_unsupported_rank_rejected(self, capsys, tmp_path):
        p = tmp_path / "orthant4.json"
        p.write_text('{"type": "orthant", "dim": 4}\n')
        code, _, err = _run(
            capsys,
            ["build-projection", "--spec", str(p), "--face", "1,1,1,0"],
        )
        assert code == 1
        assert "rank" in err


class TestVerifyCommand:
    def test_subset_passes(self, capsys):
        code, out, _ = _run(capsys, ["verify", "witness_asymptotics", "det_M"])
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 2
        assert all(l.startswith("PASS") for l in lines)

    def test_unknown_name_exits_one(self, capsys):
        code, _, err = _run(capsys, ["verify", "nonsense"])
        assert code == 1
        assert "witness_asymptotics" in err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from conelab import checks

        monkeypatch.setitem(
            checks.CHECKS,
            "stub_fail",
            lambda: CheckResult(name="stub_fail", passed=False, note="stub"),
        )
        code, out, _ = _run(capsys, ["verify", "stub_fail"])
        assert code == 1
        assert out.startswith("FAIL stub_fail")

    def test_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "verify.json"
        code, _, _ = _run(
            capsys, ["verify", "exposing_normals", "--out", str(out_path)]
        )
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert rep["result"]["checks"][0]["name"] == "exposing_normals"
        assert rep["result"]["checks"][0]["passed"] is True


class TestOutputFiles:
    def test_refuses_overwrite_without_force(self, capsys, soc3, tmp_path):
        base = tmp_path / "report"
        argv = ["project", "--spec", soc3, "--point", "1,0,0", "--out", str(base)]
        assert _run(capsys, argv)[0] == 0
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert "--force" in err
        assert _run(capsys, argv + ["--force"])[0] == 0

    def test_plot_data_tree(self, capsys, tmp_path):
        out_dir = tmp_path / "plots"
        code, _, _ = _run(
            capsys,
            ["plot-data", "--out", str(out_dir), "--samples", "256"],
        )
        assert code == 0
        names = {p.name for p in out_dir.iterdir()}
        assert {
            "witness.csv",
            "det_grid.csv",
            "exposing_normals.csv",
            "sturm_family.csv",
            "sung_tam_levels.csv",
            "manifest.json",
        } <= names
        header = (out_dir / "witness.csv").read_text().splitlines()[0]
        assert header == "t,dist_face,dist_cone,ratio"
        code, _, err = _run(
            capsys, ["plot-data", "--out", str(out_dir), "--samples", "256"]
        )
        assert code == 1 and "--force" in err

    def test_plot_data_requires_out(self, capsys):
        code, _, err = _run(capsys, ["plot-data"])
        assert code == 1
        assert "--out" in err


class TestThreadCap:
    def test_cap_applied(self, capsys, soc3, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("CONELAB_THREADS", "2")
        code, _, _ = _run(capsys, ["project", "--spec", soc3, "--point", "1,0,0"])
        assert code == 0
        import os

        assert all(os.environ[var] == "2" for var in cli._THREAD_VARS)

    def test_lower_existing_setting_kept(self, capsys, soc3, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setenv("CONELAB_THREADS", "4")
        code, _, _ = _run(capsys, ["project", "--spec", soc3, "--point", "1,0,0"])
        assert code == 0
        import os

        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_invalid_cap_is_input_error(self, capsys, soc3, monkeypatch):
        monkeypatch.setenv("CONELAB_THREADS", "zero")
        code, _, err = _run(capsys, ["project", "--spec", soc3, "--point", "1,0,0"])
        assert code == 1
        assert "CONELAB_THREADS" in err


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        code, _, err = _run(capsys, [])
        assert code == 1

    def test_unknown_flag(self, capsys, soc3):
        code, _, err = _run(
            capsys, ["project", "--spec", soc3, "--point", "1,0,0", "--bogus"]
        )
        assert code == 1

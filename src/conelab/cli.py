"""Command-line front end: cone-spec JSON in, deterministic reports out.

Commands
--------
project            nearest point in a cone
probe-amenability  error-bound ratio probe over the face's affine hull
probe-blr          error-bound ratio probe over the full region
face               minimal / conjugate / exposedness queries
constants          slice-to-hull transfer constants
sung-tam           converging-extreme-ray probe near a codimension-one face
build-projection   rank-one or rank-two idempotent retraction onto a face
verify             run named registry checks, one pass/fail line each
plot-data          CSV tables behind the standard figures

Cone specs are JSON files with a tagged-union layout {"type": ..., ...};
a handful of built-in gallery cones can be named directly in place of a
file path.  Reports are JSON with sorted keys and floats rendered at 17
significant digits, so identical inputs produce byte-identical output.
CSV output uses '.' decimals and ',' separators, independent of locale.

Exit codes: 0 success, 1 input errors (malformed JSON, unknown names,
dimension mismatches, refusal to overwrite), 2 numerical non-convergence.

The environment variable CONELAB_THREADS caps the numeric libraries'
thread pools; it is applied before the first numpy import, so it must be
set before invoking the tool, not from inside a running interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

# numpy and the library modules are imported inside handlers, after the
# thread cap from CONELAB_THREADS has been written into the environment.

__all__ = ["RunConfig", "main"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class CliInputError(Exception):
    """User-input problem: reported on stderr and mapped to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation settings, echoed verbatim into every report."""

    command: str
    spec_path: str | None
    seed: int
    tolerances: dict
    sample_counts: dict
    output_dir: str | None
    format: str


# ---------------------------------------------------------------------------
# Environment and deterministic serialization
# ---------------------------------------------------------------------------


def _apply_thread_cap() -> None:
    """Cap BLAS/OpenMP pools to CONELAB_THREADS before numpy loads."""
    raw = os.environ.get("CONELAB_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise CliInputError(f"CONELAB_THREADS must be an integer, got {raw!r}")
    if cap < 1:
        raise CliInputError(f"CONELAB_THREADS must be positive, got {cap}")
    for var in _THREAD_VARS:
        current = os.environ.get(var)
        try:
            keep = current is not None and int(current) <= cap
        except ValueError:
            keep = False
        if not keep:
            os.environ[var] = str(cap)


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(x, ".17g")


def _jsonable(obj):
    """Reduce numpy containers and dataclass leftovers to plain values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return _jsonable(obj.tolist())
    if hasattr(obj, "item"):
        return _jsonable(obj.item())
    return str(obj)


def _dumps(obj, indent: int = 0) -> str:
    """Render with sorted keys and 17-significant-digit floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_dumps(v, indent + 2)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_text(header: tuple, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(format(v, ".17g"))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Spec, point, face, and region parsing
# ---------------------------------------------------------------------------


def _floats(text: str, what: str):
    import numpy as np

    try:
        vals = np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise CliInputError(f"{what} must be comma-separated numbers, got {text!r}")
    if not np.all(np.isfinite(vals)):
        raise CliInputError(f"{what} must be finite numbers, got {text!r}")
    return vals


def _matrix(obj, where: str):
    import numpy as np

    try:
        m = np.array(obj, dtype=float)
    except (TypeError, ValueError):
        raise CliInputError(f"{where}: expected a numeric matrix (row-major rows)")
    if m.ndim != 2:
        raise CliInputError(f"{where}: expected a matrix, got shape {m.shape}")
    return m


def _key(obj: dict, key: str, where: str):
    """obj[key], or an input error naming the missing key."""
    try:
        return obj[key]
    except KeyError:
        raise CliInputError(
            f"{where}: a {obj['type']!r} spec needs the key {key!r}"
        ) from None


def _number(obj: dict, key: str, where: str, default=None, *, integer=False, positive=False):
    """obj[key] as a finite number (the default when the key is absent and a
    default is given), or an input error naming the key and where it is.
    integer asks for a whole number, positive for a value above zero."""
    val = _key(obj, key, where) if default is None else obj.get(key, default)
    ok = isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)
    if ok and integer:
        ok = float(val).is_integer()
    if ok and positive:
        ok = val > 0
    if not ok:
        want = "a positive " if positive else "a "
        want += "whole number" if integer else "finite number"
        raise CliInputError(
            f"{where}: the key {key!r} of a {obj['type']!r} spec must be {want}, got {val!r}"
        )
    return int(val) if integer else float(val)


def _vector(obj: dict, key: str, where: str):
    """obj[key] as a 1-d array of finite numbers, or an input error naming the key."""
    import numpy as np

    val = _key(obj, key, where)
    try:
        v = np.array(val, dtype=float)
    except (TypeError, ValueError):
        v = None
    if v is None or v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
        raise CliInputError(
            f"{where}: the key {key!r} of a {obj['type']!r} spec must be a list of finite numbers"
        )
    return v


def _inner(obj: dict, key: str, where: str):
    """The cone spec at obj[key], parsed with its path."""
    return _cone_from_obj(_key(obj, key, where), f"{where}.{key}")


def _polyhedral(CA, obj, where):
    if "inequalities" in obj:
        return CA.PolyhedralCone(_matrix(obj["inequalities"], where))
    if "generators" in obj:
        return CA.PolyhedralCone(generators=_matrix(obj["generators"], where))
    raise CliInputError(f"{where}: polyhedral needs inequalities or generators")


def _intersection(CA, obj, where):
    parts = _key(obj, "parts", where)
    if not isinstance(parts, list):
        raise CliInputError(
            f"{where}.parts: an 'intersection' spec needs a list of cone specs, "
            f"got {type(parts).__name__}"
        )
    return CA.IntersectionCone(
        tuple(_cone_from_obj(p, f"{where}.parts[{i}]") for i, p in enumerate(parts))
    )


def _hull(CA, obj, where):
    pts = _matrix(_key(obj, "points", where), where)
    e = _vector(obj, "e", where)
    if pts.shape[1] != e.shape[0]:
        raise CliInputError(f"{where}: hull points and e disagree on dimension")
    level = _number(obj, "level", where, 1.0, positive=True)
    return CA.ConicHull(CA.SliceSpec(e=e, sampler=lambda n: pts, level=level))


def _gallery(CA, obj, where):
    from .gallery import GALLERY, GALLERY_NAMES

    name = obj.get("name")
    density = _number(obj, "density", where, 2048, integer=True, positive=True)
    # a tuple test: `name in GALLERY` raises TypeError for a list name
    if name not in GALLERY_NAMES:
        raise CliInputError(
            f"{where}: unknown gallery cone {name!r}; "
            f"known names: {', '.join(GALLERY_NAMES)}"
        )
    return GALLERY[name].build(density)


# The parser of each cone spec "type" tag, given the cone_algebra module
# (imported on first use, see above), the spec object and its path.
_CONE_PARSERS = {
    "orthant": lambda CA, o, w: CA.NonnegativeOrthant(_number(o, "dim", w, integer=True, positive=True)),
    "soc": lambda CA, o, w: CA.SecondOrderCone(_number(o, "dim", w, integer=True, positive=True)),
    "psd": lambda CA, o, w: CA.PsdCone(_number(o, "n", w, integer=True, positive=True)),
    "polyhedral": _polyhedral,
    "halfspace": lambda CA, o, w: CA.Halfspace(_vector(o, "normal", w), _number(o, "offset", w, 0.0)),
    "subspace": lambda CA, o, w: CA.LinearSubspace(_matrix(_key(o, "basis", w), w)),
    "product": lambda CA, o, w: CA.ProductCone(_inner(o, "left", w), _inner(o, "right", w)),
    "intersection": _intersection,
    "linear_image": lambda CA, o, w: CA.LinearImageCone(
        _matrix(_key(o, "matrix", w), w), _inner(o, "inner", w)
    ),
    "hull": _hull,
    "gallery": _gallery,
}


def _cone_from_obj(obj, where: str = "spec"):
    from . import cone_algebra as CA

    if not isinstance(obj, dict) or "type" not in obj:
        raise CliInputError(f'{where}: cone specs are objects with a "type" tag')
    kind = obj["type"]
    # a str test first: an unhashable tag such as a list is unknown, not a TypeError
    parse = _CONE_PARSERS.get(kind) if isinstance(kind, str) else None
    if parse is None:
        raise CliInputError(
            f"{where}: unknown cone type {kind!r}; known types: {', '.join(_CONE_PARSERS)}"
        )
    return parse(CA, obj, where)


def _load_spec(spec_arg: str | None):
    """Resolve --spec into (cone, sha256, label).

    The argument is a JSON file path, or the bare name of a gallery cone.
    """
    from .gallery import GALLERY, GALLERY_NAMES

    if spec_arg is None:
        raise CliInputError("--spec is required for this command")
    path = Path(spec_arg)
    if not path.is_file() and spec_arg in GALLERY_NAMES:
        digest = hashlib.sha256(spec_arg.encode()).hexdigest()
        return GALLERY[spec_arg].build(2048), digest, spec_arg
    if not path.is_file():
        raise CliInputError(
            f"spec {spec_arg!r} is neither a file nor a gallery name "
            f"({', '.join(GALLERY_NAMES)})"
        )
    text = path.read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise CliInputError(
            f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}"
        )
    digest = hashlib.sha256(text.encode()).hexdigest()
    label = obj.get("name", obj.get("type", "spec")) if isinstance(obj, dict) else "spec"
    return _cone_from_obj(obj), digest, str(label)


def _parse_point(text: str | None, K):
    """Parse --point; full symmetric matrices are accepted for psd cones."""
    import numpy as np

    from .cone_algebra import PsdCone
    from .linalg_core import sym_to_vec

    if text is None:
        raise CliInputError("--point is required for this command")
    vals = _floats(text, "--point")
    if isinstance(K, PsdCone) and vals.size == K.n * K.n:
        A = vals.reshape(K.n, K.n)
        skew = float(np.abs(A - A.T).max())
        if skew > 1e-12:
            raise CliInputError(
                f"--point: full matrix must be symmetric to 1e-12, "
                f"asymmetry {skew:.3e}"
            )
        return sym_to_vec(A)
    if vals.size != K.dim:
        extra = f" (or {K.n}x{K.n} row-major)" if isinstance(K, PsdCone) else ""
        raise CliInputError(
            f"--point has dimension {vals.size}, cone expects {K.dim}{extra}"
        )
    return vals


def _parse_region(text: str | None, dim: int):
    from .linalg_core import BoundedRegion

    if text is None:
        return None
    vals = _floats(text, "--region")
    if vals.size != dim + 1:
        raise CliInputError(
            f"--region takes {dim} center coordinates plus a radius "
            f"({dim + 1} numbers), got {vals.size}"
        )
    radius = float(vals[-1])
    if radius <= 0:
        raise CliInputError(f"--region radius must be positive, got {radius}")
    return BoundedRegion(center=vals[:-1].copy(), radius=radius)


def _resolve_face(K, face_arg: str | None, label: str, tol):
    """--face is a named gallery face or a point whose minimal face is taken."""
    from .facial_structure import minimal_face
    from .gallery import GALLERY

    if face_arg is None:
        raise CliInputError("--face is required for this command")
    named = GALLERY[label].faces if label in GALLERY else {}
    if face_arg in named:
        return named[face_arg](K)
    try:
        x = _floats(face_arg, "--face")
    except CliInputError:
        options = ", ".join(sorted(named)) if named else "none for this cone"
        raise CliInputError(
            f"--face {face_arg!r} is neither a named face ({options}) "
            f"nor a comma-separated point"
        )
    if x.size != K.dim:
        raise CliInputError(
            f"--face point has dimension {x.size}, cone expects {K.dim}"
        )
    return minimal_face(K, x, tol)


def _default_region(K, F, seed: int):
    """Unit ball at the mean of a few face samples, for probes without --region."""
    import numpy as np

    from .cone_algebra import sample_points
    from .linalg_core import BoundedRegion

    rng = np.random.default_rng(seed)
    sampler = F.descriptor.get("sampler")
    if sampler is not None:
        pts = np.asarray(sampler(8, rng), dtype=float)
    else:
        pts = sample_points(K, 8, rng)
    center = np.mean(np.atleast_2d(pts), axis=0)
    return BoundedRegion(center=center, radius=1.0)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _config(args, command: str, sample_counts: dict) -> RunConfig:
    tol = _tolerance(args)
    return RunConfig(
        command=command,
        spec_path=getattr(args, "spec", None),
        seed=int(getattr(args, "seed", 0) or 0),
        tolerances={"abs": tol.abs_tol, "rel": tol.rel_tol},
        sample_counts=sample_counts,
        output_dir=getattr(args, "out", None),
        format=getattr(args, "format", "json"),
    )


def _tolerance(args):
    from .linalg_core import DEFAULT_TOL, Tolerance

    tol_abs = getattr(args, "tol_abs", None)
    tol_rel = getattr(args, "tol_rel", None)
    if tol_abs is None and tol_rel is None:
        return DEFAULT_TOL
    return Tolerance(
        abs_tol=DEFAULT_TOL.abs_tol if tol_abs is None else float(tol_abs),
        rel_tol=DEFAULT_TOL.rel_tol if tol_rel is None else float(tol_rel),
    )


def _report(cfg: RunConfig, spec_hash: str | None, payload: dict) -> dict:
    from . import __version__

    return {
        "command": cfg.command,
        "tool_version": __version__,
        "seed": cfg.seed,
        "spec_sha256": spec_hash,
        "tolerances": cfg.tolerances,
        "sample_counts": cfg.sample_counts,
        "result": _jsonable(payload),
    }


def _write_text(path: Path, text: str, force: bool) -> None:
    if path.exists() and not force:
        raise CliInputError(f"refusing to overwrite {path} (use --force)")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit(cfg: RunConfig, report: dict, force: bool,
          csv_header: tuple | None = None, csv_rows=None) -> None:
    """Write the report per --out/--format; stdout gets one stream only."""
    body = _dumps(report) + "\n"
    has_csv = csv_header is not None
    if cfg.output_dir is None:
        if cfg.format == "csv" and has_csv:
            sys.stdout.write(_csv_text(csv_header, csv_rows))
        else:
            sys.stdout.write(body)
        return
    base = Path(cfg.output_dir)
    if base.suffix == ".json":
        base = base.with_suffix("")
    if cfg.format in ("json", "both"):
        _write_text(base.with_suffix(".json"), body, force)
    if has_csv and cfg.format in ("csv", "both"):
        _write_text(base.with_suffix(".csv"), _csv_text(csv_header, csv_rows), force)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_project(args) -> int:
    from .projection_engine import project

    K, digest, _ = _load_spec(args.spec)
    x = _parse_point(args.point, K)
    res = project(K, x, _tolerance(args))
    cfg = _config(args, "project", {})
    payload = {
        "input_point": x,
        "point": res.point,
        "distance": float(res.distance),
        "method": res.method,
        "iterations": int(res.iterations),
        "certificate_gap": float(res.certificate_gap),
    }
    _emit(cfg, _report(cfg, digest, payload), args.force)
    return 0


def _probe(args, command: str) -> int:
    from .amenability_probe import blr_check, estimate_kappa

    K, digest, label = _load_spec(args.spec)
    F = _resolve_face(K, args.face, label, _tolerance(args))
    region = _parse_region(args.region, K.dim)
    if region is None:
        region = _default_region(K, F, args.seed)
    n = args.samples if args.samples is not None else 256
    fn = estimate_kappa if command == "probe-amenability" else blr_check
    est = fn(K, F, region, n_samples=n, sampler_seed=args.seed)
    cfg = _config(args, command, {"n_samples": n})
    rows = [
        (i, s.dist_face, s.dist_cone, s.ratio) for i, s in enumerate(est.samples)
    ]
    _emit(
        cfg,
        _report(cfg, digest, est.to_report()),
        args.force,
        csv_header=("index", "dist_face", "dist_cone", "ratio"),
        csv_rows=rows,
    )
    return 0


def _cmd_probe_amenability(args) -> int:
    return _probe(args, "probe-amenability")


def _cmd_probe_blr(args) -> int:
    return _probe(args, "probe-blr")


def _face_payload(F) -> dict:
    return {
        "face_dim": int(F.face_dim),
        "kind": F.descriptor.get("kind"),
        "span_basis": F.span_basis,
    }


def _cmd_face(args) -> int:
    from .facial_structure import conjugate_face, is_exposed

    K, digest, label = _load_spec(args.spec)
    tol = _tolerance(args)
    F = _resolve_face(K, args.face, label, tol) if args.face else None
    if F is None:
        if args.point is None:
            raise CliInputError("face needs --face or --point")
        from .facial_structure import minimal_face

        F = minimal_face(K, _parse_point(args.point, K), tol)
    if args.kind == "minimal":
        payload = _face_payload(F)
    elif args.kind == "conjugate":
        G = conjugate_face(K, F, tol)
        payload = {"face": _face_payload(F), "conjugate": _face_payload(G)}
    else:  # exposed
        n = args.samples if args.samples is not None else 2048
        res = is_exposed(K, F, tol, n_samples=n, seed=args.seed)
        payload = {
            "face": _face_payload(F),
            "status": res.status,
            "margin": float(res.margin),
            "support_value": float(res.support_value),
            "witness": res.witness,
        }
    cfg = _config(args, "face", {})
    _emit(cfg, _report(cfg, digest, payload), args.force)
    return 0


def _cmd_constants(args) -> int:
    from .amenability_probe import blr_check
    from .hull_constants import build_constants

    K, digest, label = _load_spec(args.spec)
    F = _resolve_face(K, args.face, label, _tolerance(args))
    n = args.samples if args.samples is not None else 256
    if args.kappa_slice is not None:
        kappa = float(args.kappa_slice)
        source = "given"
    else:
        region = _parse_region(args.region, K.dim)
        if region is None:
            region = _default_region(K, F, args.seed)
        est = blr_check(K, F, region, n_samples=n, sampler_seed=args.seed)
        if est.verdict != "bounded":
            print(
                f"error: slice probe verdict {est.verdict!r}; "
                "no finite constant to transfer (pass --kappa-slice to override)",
                file=sys.stderr,
            )
            return 2
        kappa = float(est.kappa_hat)
        source = "blr_check"
    hc = build_constants(K, F, kappa)
    payload = dict(hc.to_report())
    payload["kappa_source"] = source
    cfg = _config(args, "constants", {"n_samples": n})
    _emit(cfg, _report(cfg, digest, payload), args.force)
    return 0


def _cmd_sung_tam(args) -> int:
    from .proj_exposed import sung_tam_probe

    K, digest, label = _load_spec(args.spec)
    F = _resolve_face(K, args.face, label, _tolerance(args))
    n = args.samples if args.samples is not None else 512
    res = sung_tam_probe(K, F, n_rays=n, seed=args.seed)
    cfg = _config(args, "sung-tam", {"n_rays": n})
    rows = [(r, c) for r, c in res.levels]
    _emit(
        cfg,
        _report(cfg, digest, res.to_report()),
        args.force,
        csv_header=("radius", "count"),
        csv_rows=rows,
    )
    return 0


def _cmd_build_projection(args) -> int:
    from .proj_exposed import build_rank_one_projection, build_rank_two_projection

    K, digest, label = _load_spec(args.spec)
    F = _resolve_face(K, args.face, label, _tolerance(args))
    rank = args.rank if args.rank is not None else int(F.face_dim)
    n = args.samples if args.samples is not None else 10_000
    if rank == 1:
        pm = build_rank_one_projection(K, F, n_samples=n, seed=args.seed)
    elif rank == 2:
        pm = build_rank_two_projection(K, F, n_samples=n, seed=args.seed)
    else:
        raise CliInputError(
            f"only rank 1 and rank 2 constructions exist; face dimension "
            f"{F.face_dim} has no builder"
        )
    payload = dict(pm.to_report())
    payload["rank"] = rank
    cfg = _config(args, "build-projection", {"n_samples": n})
    _emit(cfg, _report(cfg, digest, payload), args.force)
    return 0


def _cmd_verify(args) -> int:
    from .checks import CHECKS, run_check

    names = args.names if args.names else list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        known = ", ".join(sorted(CHECKS))
        print(
            f"error: unknown check name(s) {', '.join(unknown)}; "
            f"known checks: {known}",
            file=sys.stderr,
        )
        return 1
    results = []
    all_passed = True
    for name in names:
        res = run_check(name)
        results.append(res)
        all_passed = all_passed and res.passed
        print(f"{'PASS' if res.passed else 'FAIL'} {name}: {res.note}")
    if args.out is not None:
        cfg = _config(args, "verify", {})
        report = _report(cfg, None, {"checks": [r.to_report() for r in results]})
        _write_text(Path(args.out), _dumps(report) + "\n", args.force)
    return 0 if all_passed else 1


def _cmd_plot_data(args) -> int:
    import numpy as np

    from . import gallery
    from .amenability_probe import WitnessCurve, evaluate_witness, ratio_table
    from .facial_structure import minimal_face
    from .cone_algebra import NonnegativeOrthant
    from .proj_exposed import sung_tam_probe

    if args.out is None:
        raise CliInputError("plot-data needs --out DIRECTORY")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    density = args.samples if args.samples is not None else 2048
    files = []

    C = gallery.body(density)
    F = gallery.face_disk_top(C)
    ts = tuple(np.geomspace(0.025, 0.2, 16)[::-1])
    rep = evaluate_witness(C, F, WitnessCurve(gallery.witness_w, ts))
    _write_text(
        out / "witness.csv",
        _csv_text(("t", "dist_face", "dist_cone", "ratio"), rep.rows),
        args.force,
    )
    files.append("witness.csv")

    grid = np.linspace(0.0, np.pi, 32)[1:-1]
    det_rows = []
    for i, t in enumerate(grid):
        for s in grid[i + 1 :]:
            ident = gallery.det_M(float(t), float(s))
            det_rows.append(
                (float(t), float(s), ident.numeric, ident.closed_form, ident.bracket)
            )
    _write_text(
        out / "det_grid.csv",
        _csv_text(("t", "s", "numeric", "closed_form", "bracket"), det_rows),
        args.force,
    )
    files.append("det_grid.csv")

    normal_rows = []
    for t in np.linspace(0.1, 2.0 * np.pi - 0.1, 48):
        normal_rows.append((float(t), gallery.exposing_normal_u(float(t))))
    _write_text(
        out / "exposing_normals.csv",
        _csv_text(("t", "u"), normal_rows),
        args.force,
    )
    files.append("exposing_normals.csv")

    S = gallery.sturm_slice()
    FS = gallery.sturm_face(S)
    sturm_rows = []
    for eps in np.geomspace(1e-3, 1.0, 16):
        fam = gallery.sturm_family(float(eps))
        row = ratio_table(S, FS, [fam.x_eps], denominator="sum")[0]
        sturm_rows.append(
            (float(eps), fam.dist_to_C, fam.dist_to_aff_face, row.ratio)
        )
    _write_text(
        out / "sturm_family.csv",
        _csv_text(("eps", "dist_cone", "dist_aff_face", "ratio"), sturm_rows),
        args.force,
    )
    files.append("sturm_family.csv")

    hull = gallery.conic_hull_of_body()
    res = sung_tam_probe(hull, gallery.lifted_disk_face(hull), seed=args.seed)
    _write_text(
        out / "sung_tam_levels.csv",
        _csv_text(("radius", "count"), [(r, c) for r, c in res.levels]),
        args.force,
    )
    files.append("sung_tam_levels.csv")

    cfg = _config(args, "plot-data", {"density": density})
    manifest = _report(cfg, None, {"files": files, "directory": str(out)})
    _write_text(out / "manifest.json", _dumps(manifest) + "\n", args.force)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise CliInputError(message)


def _add_common(sub, *, region: bool = False, face: bool = False,
                point: bool = False) -> None:
    sub.add_argument("--spec", help="cone spec JSON file or gallery cone name")
    if point:
        sub.add_argument("--point", help="comma-separated coordinates")
    if face:
        sub.add_argument(
            "--face",
            help="named gallery face or a comma-separated point whose "
            "minimal face is used",
        )
    if region:
        sub.add_argument(
            "--region",
            help="bounded region as center coordinates plus radius "
            '("c1,...,cn,r"); default: unit ball at a face-sample mean',
        )
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub.add_argument("--samples", type=int, default=None, help="sample count")
    sub.add_argument("--tol-abs", type=float, default=None, help="absolute tolerance")
    sub.add_argument("--tol-rel", type=float, default=None, help="relative tolerance")
    sub.add_argument("--out", help="output path base (default: stdout)")
    sub.add_argument(
        "--force", action="store_true", help="allow overwriting output files"
    )
    sub.add_argument(
        "--format",
        choices=("json", "csv", "both"),
        default="json",
        help="output format when --out is given (default json)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conelab",
        description="Facial structure, amenability probes, and projection "
        "constructors for convex cones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="nearest point of the cone")
    _add_common(p, point=True)
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser(
        "probe-amenability",
        help="ratio probe over the face's affine hull inside a region",
    )
    _add_common(p, face=True, region=True)
    p.set_defaults(handler=_cmd_probe_amenability, format="both")

    p = sub.add_parser(
        "probe-blr", help="ratio probe over the full region (bounded linear "
        "regularity form)"
    )
    _add_common(p, face=True, region=True)
    p.set_defaults(handler=_cmd_probe_blr, format="both")

    p = sub.add_parser("face", help="minimal face, conjugate face, or exposedness")
    p.add_argument(
        "kind",
        choices=("minimal", "conjugate", "exposed"),
        help="which face query to run",
    )
    _add_common(p, face=True, point=True)
    p.set_defaults(handler=_cmd_face)

    p = sub.add_parser(
        "constants", help="slice-to-hull transfer constants for a face"
    )
    _add_common(p, face=True, region=True)
    p.add_argument(
        "--kappa-slice",
        type=float,
        default=None,
        help="slice error-bound constant; measured by a probe when omitted",
    )
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser(
        "sung-tam",
        help="probe for extreme dual rays converging to a face's exposing ray",
    )
    _add_common(p, face=True)
    p.set_defaults(handler=_cmd_sung_tam, format="both")

    p = sub.add_parser(
        "build-projection", help="rank-one or rank-two retraction onto a face"
    )
    _add_common(p, face=True)
    p.add_argument(
        "--rank",
        type=int,
        choices=(1, 2),
        default=None,
        help="construction rank (default: the face dimension)",
    )
    p.set_defaults(handler=_cmd_build_projection)

    p = sub.add_parser("verify", help="run named registry checks (all by default)")
    p.add_argument("names", nargs="*", help="check names; empty runs every check")
    p.add_argument("--out", help="also write a JSON report here")
    p.add_argument("--force", action="store_true", help="allow overwriting")
    p.add_argument("--seed", type=int, default=0, help="recorded in the report")
    p.add_argument("--tol-abs", type=float, default=None)
    p.add_argument("--tol-rel", type=float, default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("plot-data", help="write the CSV tables behind the figures")
    p.add_argument("--out", help="output directory", required=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None, help="curve density")
    p.add_argument("--force", action="store_true", help="allow overwriting")
    p.add_argument("--tol-abs", type=float, default=None)
    p.add_argument("--tol-rel", type=float, default=None)
    p.set_defaults(handler=_cmd_plot_data)

    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
        parser = _build_parser()
        args = parser.parse_args(argv)
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    from .cone_algebra import UnsupportedVariantError
    from .projection_engine import NonConvergenceError

    try:
        return int(args.handler(args))
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NonConvergenceError as e:
        print(f"error: did not converge: {e}", file=sys.stderr)
        return 2
    except (ValueError, UnsupportedVariantError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

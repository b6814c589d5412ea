"""The spec protocol: a cone variant is one ConeSpec subclass, its face rules
included, and the public functions dispatch by one method call, never by the
spec's type."""
import ast
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from conelab import cone_algebra
from conelab.cone_algebra import (
    ConeSpec,
    Halfspace,
    Membership,
    MembershipResult,
    cone_span_dim,
    dual_cone,
    get_slice,
    membership,
    sample_points,
)
from conelab.facial_structure import (
    NotInConeError,
    conjugate_face,
    full_face,
    is_exposed,
    minimal_face,
    zero_face,
)
from conelab.linalg_core import DimensionMismatchError
from conelab.proj_exposed import extreme_ray_samples
from conelab.projection_engine import ProjectionResult, moreau_decompose, project

SRC = Path(cone_algebra.__file__).resolve().parent


@dataclass(frozen=True, eq=False)
class RayCone(ConeSpec):
    """cone{g}, the closed ray through a nonzero g, defined here and nowhere
    in the package."""

    g: np.ndarray

    scales = True

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g / np.linalg.norm(g))

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def _project(self, x, tol):
        p = max(float(self.g @ x), 0.0) * self.g
        return ProjectionResult(p, float(np.linalg.norm(x - p)), "closed_form")

    def _membership(self, x, tol):
        d = self._project(x, tol).distance
        if d > tol.margin(max(1.0, float(np.linalg.norm(x)))):
            return MembershipResult(Membership.OUTSIDE, True, d)
        # a ray in two or more dimensions has no interior
        return MembershipResult(Membership.BOUNDARY, True, 0.0)

    def dual(self):
        return Halfspace(-self.g)

    def sample(self, n, rng):
        return rng.gamma(1.0, 1.0, size=n)[:, None] * self.g

    def span_dim(self):
        return 1

    def _minimal_face(self, x, eps, tol):
        # a ray has two faces: {0} and itself
        return zero_face(self) if float(self.g @ x) <= eps else full_face(self)

    def _dual_rays(self, n, seed):
        # K* is the halfspace {s : <g, s> >= 0}: the ray through g in one
        # dimension, a set holding a line, so with no extreme ray, in more
        return self.g[None, :] if self.dim == 1 else np.zeros((0, self.dim))


class TestToyVariant:
    K = RayCone(np.array([2.0, 0.0]))

    def test_project(self):
        r = project(self.K, [3.0, 4.0])
        assert r.point.tolist() == [3.0, 0.0] and r.distance == 4.0
        assert project(self.K, [-3.0, 4.0]).point.tolist() == [0.0, 0.0]

    def test_project_huge_point_is_scaled(self):
        # ||x - p||^2 overflows: the rule sees x / 2^e, and the distance is
        # taken without squaring 1e308
        x = np.array([1.5e308, -1e308])
        r = project(self.K, x)
        assert r.point.tolist() == [1.5e308, 0.0]
        assert r.distance == pytest.approx(1e308, rel=1e-15)

    def test_project_checks_the_point(self):
        with pytest.raises(ValueError, match="non-finite"):
            project(self.K, [np.inf, 1e300])
        with pytest.raises(DimensionMismatchError):
            project(self.K, [1.0, 2.0, 3.0])

    def test_membership(self):
        assert membership(self.K, [5.0, 0.0]).status is Membership.BOUNDARY
        r = membership(self.K, [0.0, 1.0])
        assert r.status is Membership.OUTSIDE and r.distance == 1.0
        with pytest.raises(DimensionMismatchError):
            membership(self.K, [1.0])

    def test_dual_and_moreau(self):
        D = dual_cone(self.K)
        assert isinstance(D, Halfspace)
        s = moreau_decompose(self.K, [3.0, 4.0])
        # the polar part is in -K*, so -polar pairs nonnegatively with the ray
        assert membership(D, -s.polar_part).in_set and s.residual == 0.0

    def test_sample_and_span(self):
        pts = sample_points(self.K, 6, np.random.default_rng(0))
        assert pts.shape == (6, 2)
        assert all(membership(self.K, p).in_set for p in pts)
        assert cone_span_dim(self.K) == 1
        assert get_slice(self.K) is None


class TestToyVariantFaces:
    K = RayCone(np.array([2.0, 0.0]))

    def test_minimal_face(self):
        F = minimal_face(self.K, [3.0, 0.0])
        assert F.face_dim == 1 and F.contains([5.0, 0.0]) and not F.contains([-1.0, 0.0])
        assert minimal_face(self.K, [0.0, 0.0]).face_dim == 0
        with pytest.raises(NotInConeError):
            minimal_face(self.K, [0.0, 1.0])

    def test_conjugate_faces(self):
        # the ray's conjugate is K* meeting its complement, the x2-axis;
        # the conjugate of {0} is all of K*, the halfplane x1 >= 0
        G = conjugate_face(self.K, minimal_face(self.K, [3.0, 0.0]))
        assert G.face_dim == 1 and G.contains([0.0, -2.0]) and not G.contains([1.0, 0.0])
        H = conjugate_face(self.K, minimal_face(self.K, [0.0, 0.0]))
        assert H.face_dim == 2 and H.contains([1.0, 5.0]) and not H.contains([-1.0, 0.0])

    def test_faces_are_exposed(self):
        for x in ([3.0, 0.0], [0.0, 0.0]):
            assert is_exposed(self.K, minimal_face(self.K, x)).status == "exposed"

    def test_extreme_ray_samples(self):
        assert extreme_ray_samples(RayCone(np.array([-2.0])), 8).tolist() == [[-1.0]]
        assert extreme_ray_samples(self.K, 8).shape == (0, 2)


def _spec_names() -> set:
    return {
        name for name, obj in vars(cone_algebra).items()
        if isinstance(obj, type) and issubclass(obj, ConeSpec)
    }


def _isinstance_on_specs(nodes, module: ast.Module, specs: set) -> list:
    """Line numbers of isinstance calls in nodes whose class argument names
    a spec class, directly or through a module-level tuple of them."""
    aliases = {}
    for stmt in module.body:
        if isinstance(stmt, ast.Assign):
            names = {n.id for n in ast.walk(stmt.value) if isinstance(n, ast.Name)}
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    aliases[target.id] = names
    hits = []
    for node in nodes:
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "isinstance" and len(call.args) == 2):
                continue
            named = set()
            for n in ast.walk(call.args[1]):
                if isinstance(n, ast.Name):
                    named |= {n.id} | aliases.get(n.id, set())
                elif isinstance(n, ast.Attribute):
                    named.add(n.attr)
            if named & specs:
                hits.append(call.lineno)
    return hits


def _parse(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


def test_projection_engine_knows_no_spec_class():
    module = _parse("projection_engine.py")
    specs = _spec_names()
    assert _isinstance_on_specs([module], module, specs) == []
    imported = {
        alias.name for node in ast.walk(module) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & specs
    assert not any(
        isinstance(node, ast.ImportFrom) and node.module == "cone_algebra"
        for node in ast.walk(module)
    )


def test_cone_algebra_functions_dispatch_by_method():
    module = _parse("cone_algebra.py")
    functions = [node for node in module.body if isinstance(node, ast.FunctionDef)]
    assert {"membership", "dual_cone", "sample_points", "cone_span_dim", "get_slice"} <= {
        f.name for f in functions
    }
    assert _isinstance_on_specs(functions, module, _spec_names()) == []
    # the engine is imported once, at module top, not inside functions
    local = [
        node.lineno for f in functions + [n for n in module.body if isinstance(n, ast.ClassDef)]
        for node in ast.walk(f)
        if isinstance(node, ast.ImportFrom) and node.module == "projection_engine"
    ]
    assert local == []
    # the face builders live here too, so nothing comes back from the calculus
    assert not any(
        isinstance(node, ast.ImportFrom) and node.module == "facial_structure"
        for node in ast.walk(module)
    )


@pytest.mark.parametrize("name", ["facial_structure.py", "proj_exposed.py"])
def test_face_calculus_knows_no_spec_class(name):
    # the face rules are spec methods and face-handle closures
    module = _parse(name)
    assert _isinstance_on_specs([module], module, _spec_names()) == []


def test_guard_sees_a_dispatch_chain():
    # the guard flags a chain like the one the spec classes replaced
    module = ast.parse(
        "_ATOMS = (NonnegativeOrthant, PsdCone)\n"
        "def f(K):\n"
        "    if isinstance(K, _ATOMS):\n"
        "        return 1\n"
        "    return isinstance(K, cone_algebra.GallerySet)\n"
    )
    assert _isinstance_on_specs(module.body[1:], module, _spec_names()) == [3, 5]

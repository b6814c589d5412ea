"""conelab: numerical facial structure, amenability probes, and projectional
exposedness certificates for convex cones.

The package is organized around immutable cone specifications (cone_algebra),
exact and iterative projection kernels (projection_engine), a face calculus
(facial_structure), a gallery of worked cones with known behavior (gallery),
and sampling-based probes for regularity constants (amenability_probe,
hull_constants, proj_exposed). A cone variant's rules are the methods of its
ConeSpec subclass.
"""
from __future__ import annotations

from .linalg_core import (
    AffineSubspace,
    BoundedRegion,
    DEFAULT_TOL,
    Tolerance,
    orthonormalize,
    sym_to_vec,
    unit_sphere_grid,
    vec_to_sym,
)
from .cone_algebra import (
    ConeSpec,
    ConicHull,
    GallerySet,
    Halfspace,
    IntersectionCone,
    LinearImageCone,
    LinearSubspace,
    Membership,
    MembershipResult,
    NonnegativeOrthant,
    PolyhedralCone,
    ProductCone,
    PsdCone,
    SecondOrderCone,
    SliceSpec,
    dual_cone,
    membership,
    rescale_to_slice,
    sample_points,
)
from .projection_engine import (
    MoreauSplit,
    NonConvergenceError,
    ProjectionResult,
    dykstra_intersection,
    moreau_decompose,
    project,
    project_hull,
)

__version__ = "0.1.0"

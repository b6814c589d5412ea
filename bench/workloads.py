"""The benchmark's three workloads, driven through conelab's public API.

Each workload has four parts:

* ``setup()`` builds the fixed objects once per process (timed as set-up);
* ``inputs(seed, i)`` makes the inputs of instance ``i`` from the run's seed,
  so the same seed always gives the same inputs;
* ``run(ctx, inputs)`` is one instance, timed from its first call to its
  verdict;
* ``gate(outputs)`` checks the instance's outputs and returns
  ``(checked, failed)``; ``n_outputs(inputs)`` is the number of outputs an
  instance checks, counted as failed when the instance raises.

Why these three: ``gallery_probe`` is serial and path-dependent, spending its
time in ``project_hull`` on small clouds rebuilt for every query near the
set; ``slice_bound`` runs the same hull kernel on one fixed 1,536-point cloud
with far queries, plus one conic-generator solve per query; ``pointwise`` never
reaches ``project_hull`` and costs per-call Python overhead in the atoms and
the face calculus.  An optimisation of the hull kernel should move the first
two and leave the third unchanged.
"""
from __future__ import annotations

import numpy as np

# Layer functions are called through their modules, so that the traced run's
# wrappers (spans.py) see these calls too.
from conelab import (
    amenability_probe,
    facial_structure,
    gallery,
    hull_constants,
    proj_exposed,
    projection_engine,
)
from conelab.cone_algebra import (
    ConicHull,
    NonnegativeOrthant,
    PsdCone,
    SecondOrderCone,
    SliceSpec,
    dual_cone,
)
from conelab.facial_structure import FaceHandle
from conelab.linalg_core import BoundedRegion, orthonormalize, sym_to_vec

# Residual thresholds of the `moreau` and `projections_dim4` checks.
MOREAU_TOL = 1e-10
IDEMPOTENCY_TOL = 1e-12


def _rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


# ---------------------------------------------------------------------------
# gallery_probe: the flagship negative result on the compact body
# ---------------------------------------------------------------------------


class GalleryProbe:
    """``estimate_kappa`` for the top disk of ``body(128)`` in the ball of
    radius 1.2 around (0, 0, 1), seeded at a witness point near the seam.

    Sized to about 3.5 s: 8 ball draws and one round of one cycle of the
    climb, against the flagship test's 32 draws and three rounds of ten.
    The seed picks the witness parameter t in [0.02, 0.06], where the witness
    ratio alone (3e3 to 3e4) clears the gates; the ball draws keep the
    flagship test's sampler seed 0.  Random draws are left out of the
    seed on purpose: a few draw points send ``project_hull`` to its
    20,000-iteration cap (about 60 times a normal solve), so seeding the draws
    would swing one instance's time by a third from seed to seed.
    """

    name = "gallery_probe"
    n_samples = 4
    refine_rounds = 1
    refine_cycles = 1

    def setup(self):
        body = gallery.body(128)
        face = gallery.face_disk_top(body)
        region = BoundedRegion(center=np.array([0.0, 0.0, 1.0]), radius=1.2)
        return body, face, region

    def inputs(self, seed: int, i: int):
        return gallery.witness_w(float(_rng(seed, i).uniform(0.02, 0.06)))

    def run(self, ctx, witness):
        body, face, region = ctx
        return amenability_probe.estimate_kappa(
            body, face, region, n_samples=self.n_samples, sampler_seed=0,
            refine_from=witness, refine_rounds=self.refine_rounds,
            refine_cycles=self.refine_cycles,
        )

    def n_outputs(self, inputs) -> int:
        return 1

    def gate(self, est):
        ok = (
            est.verdict == "growth_detected"
            and est.kappa_hat > 1e3
            and est.refine_gain > 10.0
        )
        return 1, 0 if ok else 1


# ---------------------------------------------------------------------------
# slice_bound: the slice-to-hull bound on a fixed cloud
# ---------------------------------------------------------------------------


class SliceBound:
    """``verify_slice_bound`` on ``conic_hull_of_body(512)`` and on the
    `slice_bound` check's 40-point shifted polytope, 10 queries each (the
    check makes 1,000), with query seeds drawn from the run's seed.  Every
    sampled query is one checked output; a violation of the bound fails it.

    Instances are kept small (about 0.2 s) so that a run holds a hundred of
    them.  Query cost is heavy-tailed: p50 15 ms, p90 60 ms, and now and then
    a query that sends ``project_hull`` to its 20,000-iteration cap (about
    3 s).  An instance of 100 queries of each kind takes from 1.9 to 5.6 s,
    so the median of the dozen such instances a run holds moves with the
    seed; the median of a hundred small instances does not.  The capped
    queries still show in the per-layer ``project_hull`` iterations and self
    time."""

    name = "slice_bound"
    n_gallery = 10
    n_polytope = 10

    def setup(self):
        hull = gallery.conic_hull_of_body(512)
        # One of the fixed objects set-up pays for; verify_slice_bound
        # samples the same cloud again on every call.
        cloud = hull.extra["slice"].sampler(512)
        pts = np.column_stack(
            [np.random.default_rng(3).normal(2.0, 0.6, size=(40, 4)), np.ones(40)]
        )
        poly = ConicHull(
            SliceSpec(e=np.array([0.0, 0.0, 0.0, 0.0, 1.0]), sampler=lambda n: pts)
        )
        return hull, cloud, poly

    def inputs(self, seed: int, i: int):
        return tuple(int(s) for s in _rng(seed, i).integers(0, 2**31, size=2))

    def run(self, ctx, seeds):
        hull, _, poly = ctx
        return (
            hull_constants.verify_slice_bound(
                hull, n_samples=self.n_gallery, density=512, seed=seeds[0]
            ),
            hull_constants.verify_slice_bound(
                poly, n_samples=self.n_polytope, density=40, seed=seeds[1], spread=2.0
            ),
        )

    def n_outputs(self, inputs) -> int:
        return self.n_gallery + self.n_polytope

    def gate(self, reports):
        return (
            sum(r.n_samples for r in reports),
            sum(r.violations for r in reports),
        )


# ---------------------------------------------------------------------------
# pointwise: atom projections and the face calculus, one point at a time
# ---------------------------------------------------------------------------


def _diagonal_psd_face(K: PsdCone) -> FaceHandle:
    """The face of PSD(2) spanned by diag(1, 0) and diag(0, 1), as built by
    the `projections_dim4` check."""
    gens = np.array([sym_to_vec(np.diag([1.0, 0.0])), sym_to_vec(np.diag([0.0, 1.0]))])

    def member(x, tol=None):
        _, _, gap = projection_engine.project_conic_generators(gens, np.asarray(x, dtype=float))
        return bool(gap <= 1e-9 * max(1.0, float(np.linalg.norm(x))))

    def projector(x):
        return projection_engine.project_conic_generators(gens, np.asarray(x, dtype=float))[0]

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


class Pointwise:
    """Phase one: Moreau splits of 1,000 Gaussian points each on the
    orthant(8), SOC(10) and PSD(5) atoms (the `moreau` check streams 10^4),
    each checked for reconstruction, orthogonality
    and membership of the polar part in the polar cone.  Phase two: the six
    rank-one and rank-two retractions of the `projections_dim4` check,
    certified on 1,000 cone samples each (the check uses 10^4) drawn with the
    run's seed.  The streams are cut so a run holds a dozen instances."""

    name = "pointwise"
    n_points = 1_000
    n_certify = 1_000
    atoms = (NonnegativeOrthant(8), SecondOrderCone(10), PsdCone(5))

    def setup(self):
        atoms = tuple((K, dual_cone(K)) for K in self.atoms)
        obj = gallery.cylinder_hull_objects()
        orthant = NonnegativeOrthant(3)
        psd = PsdCone(2)
        rank_one = (
            (orthant, facial_structure.minimal_face(orthant, np.array([1.0, 0.0, 0.0]))),
            (psd, facial_structure.minimal_face(psd, sym_to_vec(np.diag([1.0, 0.0])))),
            (obj.hull, gallery.seam_ray_faces(obj.hull)[0]),
        )
        rank_two = (
            (orthant, facial_structure.minimal_face(orthant, np.array([1.0, 1.0, 0.0]))),
            (psd, _diagonal_psd_face(psd)),
            (obj.hull, gallery.seam_face(obj.hull)),
        )
        return atoms, rank_one, rank_two

    def inputs(self, seed: int, i: int):
        rng = _rng(seed, i)
        points = tuple(rng.standard_normal((self.n_points, K.dim)) * 1.5 for K in self.atoms)
        return points, int(rng.integers(0, 2**31))

    def run(self, ctx, inputs):
        atoms, rank_one, rank_two = ctx
        points, build_seed = inputs
        residuals = []
        for (K, dual), X in zip(atoms, points):
            for x in X:
                residuals.append(moreau_residual(projection_engine.moreau_decompose(K, x), dual))
        maps = [
            proj_exposed.build_rank_one_projection(K, F, n_samples=self.n_certify, seed=build_seed)
            for K, F in rank_one
        ] + [
            proj_exposed.build_rank_two_projection(K, F, n_samples=self.n_certify, seed=build_seed)
            for K, F in rank_two
        ]
        return np.array(residuals), [
            (pm.idempotency_residual, pm.containment_violations) for pm in maps
        ]

    def n_outputs(self, inputs) -> int:
        points, _ = inputs
        return sum(X.shape[0] for X in points) + 6

    def gate(self, outputs):
        residuals, maps = outputs
        failed = int(np.count_nonzero(~(residuals <= MOREAU_TOL)))
        failed += sum(
            1 for idem, viol in maps if not (idem < IDEMPOTENCY_TOL and viol == 0)
        )
        return residuals.size + len(maps), failed


def moreau_residual(split, dual) -> float:
    """Largest of the `moreau` check's three scaled defects for one split:
    reconstruction, orthogonality, and distance of the negated polar part
    from the dual cone."""
    scale = max(1.0, float(np.linalg.norm(split.original)))
    recon = float(np.linalg.norm(split.original - split.cone_part - split.polar_part))
    polar = -split.polar_part
    polar_gap = float(np.linalg.norm(polar - projection_engine.project(dual, polar).point))
    return max(recon / scale, split.residual / scale**2, polar_gap / scale)


WORKLOADS = {w.name: w for w in (GalleryProbe(), SliceBound(), Pointwise())}

"""Error-bound probes for faces of convex cones and compact convex sets.

Three sampling probes measure how the distance to a face compares with the
distance to the parent set over a bounded region:

* ``estimate_kappa``: ratios dist(x, F) / dist(x, C) over the affine hull of
  the face intersected with the region (the direct error-bound form),
* ``blr_check``: the bounded-linear-regularity form, ratios
  dist(x, F) / max(dist(x, aff F), dist(x, C)) over the full region,
* ``subtransversality_check``: the local form at a point of the face, with
  denominator dist(x, aff F) + dist(x, C).

All three return an ErrorBoundEstimate. A sampled maximum ratio is a valid
lower bound on any constant that works for the region, so kappa_hat is always
trustworthy in that direction; verdicts about boundedness are sampling-based
evidence, never proofs, and every report says so. Two finite decision rules
(module constants, stated here rather than hidden) pick the verdict:

* growth_detected: a rotating coordinate search seeded at the worst sample
  (and at an optional caller-supplied point) raises the ratio more than
  GROWTH_FACTOR times above the sampled maximum within REFINE_ROUNDS
  rounds (estimate_kappa's refine_rounds),
* bounded: doubling the sample count moves the maximum ratio by less than
  DRIFT_TOL relative change, and no growth was found,
* inconclusive: anything else.

Draws come from a per-point stream, so a larger n_samples with the same seed
extends the smaller run's draws; the sampled maximum is then monotone in
n_samples. Aggregation is an associative max/merge over samples, so the
estimate does not depend on evaluation order. ``evaluate_witness`` complements
the samplers: given a curve inside the affine hull of a face, it tabulates
both distances along the curve and fits the log-log rate at which the squared
distance ratio collapses.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cone_algebra import ConeSpec
from .facial_structure import FaceHandle, face_projection
from .linalg_core import AffineSubspace, BoundedRegion
from .projection_engine import project

__all__ = [
    "EmptyRegionError",
    "ProbeSample",
    "ErrorBoundEstimate",
    "WitnessCurve",
    "WitnessReport",
    "estimate_kappa",
    "blr_check",
    "subtransversality_check",
    "evaluate_witness",
    "ratio_table",
]

# Verdict rules (see the module docstring) and the growth search's default
# effort: rounds of the rotating search, and coordinate cycles per round.
GROWTH_FACTOR = 10.0
DRIFT_TOL = 0.10
REFINE_ROUNDS = 3
REFINE_CYCLES = 10


class EmptyRegionError(ValueError):
    """The region does not meet the affine hull of the face."""


@dataclass(frozen=True, eq=False)
class ProbeSample:
    """One measured point: distances to the face, the set, and the affine
    hull of the face, plus the ratio under the probe's denominator."""

    point: np.ndarray
    dist_face: float
    dist_cone: float
    dist_aff: float
    ratio: float

    def to_row(self) -> dict:
        return {
            "point": [float(v) for v in self.point],
            "dist_face": self.dist_face,
            "dist_cone": self.dist_cone,
            "dist_aff": self.dist_aff,
            "ratio": self.ratio,
        }


@dataclass(frozen=True, eq=False)
class ErrorBoundEstimate:
    """Aggregated probe outcome.

    kappa_hat is the maximum ratio over all recorded samples (draws plus the
    refinement path); draw_max covers the raw draws only and is monotone in
    n_samples for a fixed seed. drift is the relative change of the drawn
    maximum under doubling, refine_gain the factor the search gained over
    draw_max.
    """

    cone: ConeSpec
    face: FaceHandle
    region: BoundedRegion
    kappa_hat: float
    samples: tuple
    verdict: str
    seed: int
    denominator: str
    draw_max: float = 0.0
    drift: float = 0.0
    refine_gain: float = 1.0

    def to_report(self) -> dict:
        return {
            "cone": _spec_label(self.cone),
            "face": _face_label(self.face),
            "region": {
                "center": [float(v) for v in self.region.center],
                "radius": float(self.region.radius),
            },
            "seed": self.seed,
            "kappa_hat": self.kappa_hat,
            "verdict": self.verdict,
            "certification": "evidence",
            "denominator": self.denominator,
            "draw_max": self.draw_max,
            "drift": self.drift,
            "refine_gain": self.refine_gain,
            "samples": [s.to_row() for s in self.samples],
        }


@dataclass(frozen=True, eq=False)
class WitnessCurve:
    """A curve t -> point inside the affine hull of a face, evaluated on a
    decreasing positive grid."""

    parameterization: Callable[[float], np.ndarray]
    t_grid: tuple
    fitted_growth_exponent: float | None = None

    def __post_init__(self):
        grid = tuple(float(t) for t in self.t_grid)
        if not grid or min(grid) <= 0 or any(a <= b for a, b in zip(grid, grid[1:])):
            raise ValueError("t_grid must be a decreasing sequence of positive values")
        object.__setattr__(self, "t_grid", grid)


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """Distance table along a witness curve and the fitted collapse rate.

    slope is the log-log slope of (dist_cone / dist_face)^2 against t: the
    rate at which the squared set-to-face distance ratio vanishes. A large
    positive slope certifies that the face-distance dominates near the limit,
    which rules out any uniform ratio bound along the curve.
    """

    curve: WitnessCurve
    rows: tuple
    slope: float | None
    excluded: tuple = ()

    def to_report(self) -> dict:
        return {
            "slope": self.slope,
            "excluded_t": list(self.excluded),
            "rows": [
                {"t": t, "dist_face": df, "dist_cone": dc, "ratio": r}
                for (t, df, dc, r) in self.rows
            ],
        }


# ---------------------------------------------------------------------------
# Measurement and search machinery
# ---------------------------------------------------------------------------


def _spec_label(K) -> str:
    name = getattr(K, "name", None)
    return str(name) if name else f"{type(K).__name__}(dim={K.dim})"


def _face_label(F: FaceHandle) -> str:
    name = F.descriptor.get("name") or F.descriptor.get("kind")
    return str(name) if name else f"face(dim={F.face_dim})"


def _measurer(K: ConeSpec, F: FaceHandle, aff: AffineSubspace, denominator: str):
    def meas(p: np.ndarray) -> ProbeSample:
        p = np.asarray(p, dtype=float)
        dist_face = float(np.linalg.norm(p - face_projection(F, p)))
        dist_cone = float(project(K, p).distance)
        dist_aff = float(aff.distance(p))
        if denominator == "cone":
            den = dist_cone
        elif denominator == "max":
            den = max(dist_aff, dist_cone)
        else:
            den = dist_aff + dist_cone
        tiny = 1e-12 * max(1.0, float(np.linalg.norm(p)))
        ratio = dist_face / den if den > tiny else 0.0
        return ProbeSample(p, dist_face, dist_cone, dist_aff, ratio)

    return meas


def _ball_point(center: np.ndarray, radius: float, rng: np.random.Generator) -> np.ndarray:
    d = center.shape[0]
    if d == 0:
        return center.copy()
    g = rng.standard_normal(d)
    nrm = max(float(np.linalg.norm(g)), 1e-300)
    u = float(rng.random()) ** (1.0 / d)
    return center + (radius * u / nrm) * g


def _clamp_ball(c: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    d = c - center
    nrm = float(np.linalg.norm(d))
    if nrm <= radius:
        return c
    return center + (radius / nrm) * d


def _rotate_frame(lam: np.ndarray, D: np.ndarray) -> np.ndarray:
    """New orthonormal direction set whose first member points along the
    accumulated displacement (Gram-Schmidt over the classic staircase sums,
    completed from the old frame when the displacement is rank-deficient)."""
    n = D.shape[0]
    A = np.array([(lam[i:, None] * D[i:]).sum(axis=0) for i in range(n)])
    Q: list = []
    for a in list(A) + list(D) + list(np.eye(n)):
        v = a.copy()
        for q in Q:
            v -= (v @ q) * q
        nv = float(np.linalg.norm(v))
        if nv > 1e-12:
            Q.append(v / nv)
        if len(Q) == n:
            break
    return np.array(Q)


def _climb(meas_at, clamp, c0: np.ndarray, scale: float, rounds: int, cycles: int):
    """Rotating coordinate search (Rosenbrock's method) maximizing the ratio.

    Each round restarts the direction set at the coordinate axes with a
    quarter of the previous round's step, then walks direction by direction:
    success triples the signed step, failure halves and flips it, and once
    every direction has seen both outcomes the frame rotates onto the
    accumulated displacement. The rotation is what lets the search follow the
    narrow curved ridge a growing ratio traces. Returns the accepted samples
    and the best ratio seen.
    """
    c = clamp(np.asarray(c0, dtype=float))
    s0 = meas_at(c)
    best = s0.ratio
    path = [s0]
    n = c.size
    if n == 0 or rounds <= 0 or scale <= 0:
        return path, best
    for r in range(rounds):
        base = scale * (4.0 ** (-r))
        D = np.eye(n)
        step = np.full(n, base)
        lam = np.zeros(n)
        ok = np.zeros(n, dtype=bool)
        bad = np.zeros(n, dtype=bool)
        budget = cycles * n * 8
        while budget > 0:
            for i in range(n):
                budget -= 1
                cand = clamp(c + step[i] * D[i])
                s = None
                if not np.array_equal(cand, c):
                    s = meas_at(cand)
                if s is not None and s.ratio > best * (1.0 + 1e-12):
                    lam[i] += step[i]
                    best, c = s.ratio, cand
                    path.append(s)
                    step[i] *= 3.0
                    ok[i] = True
                else:
                    step[i] *= -0.5
                    bad[i] = True
            if np.all(ok & bad):
                D = _rotate_frame(lam, D)
                lam[:] = 0.0
                ok[:] = False
                bad[:] = False
                step = np.full(n, base)
            if float(np.max(np.abs(step))) < base * 1e-10:
                break
    return path, best


def _decide(draw_half: float, draw_full: float, refined: float):
    gain = refined / max(draw_full, 1e-300)
    if draw_full > 0 and gain > GROWTH_FACTOR:
        return "growth_detected", gain
    if refined > 0 and draw_full == 0.0:
        return "growth_detected", float("inf")
    if draw_full == 0.0:
        return "inconclusive", 1.0
    drift = (draw_full - draw_half) / max(draw_half, 1e-300)
    if drift < DRIFT_TOL:
        return "bounded", gain
    return "inconclusive", gain


def _run_probe(K, F, region, aff, denominator, n_samples, seed,
               draw_coords, to_point, clamp, scale,
               refine_coords, refine_rounds, refine_cycles) -> ErrorBoundEstimate:
    rng = np.random.default_rng(seed)
    meas = _measurer(K, F, aff, denominator)

    coords = [draw_coords(rng) for _ in range(2 * n_samples)]
    samples = [meas(to_point(c)) for c in coords]
    ratios = np.array([s.ratio for s in samples])
    draw_half = float(ratios[:n_samples].max(initial=0.0))
    draw_full = float(ratios.max(initial=0.0))

    seeds = []
    if draw_full > 0:
        seeds.append(coords[int(np.argmax(ratios))])
    seeds.extend(refine_coords)

    refined = draw_full
    meas_at = lambda c: meas(to_point(c))
    for c0 in seeds:
        if refine_rounds <= 0:
            break
        path, top = _climb(meas_at, clamp, c0, scale, refine_rounds, refine_cycles)
        samples.extend(path)
        refined = max(refined, top)

    verdict, gain = _decide(draw_half, draw_full, refined)
    drift = (draw_full - draw_half) / max(draw_half, 1e-300) if draw_half > 0 else 0.0
    kappa_hat = max(draw_full, refined)
    return ErrorBoundEstimate(
        cone=K, face=F, region=region, kappa_hat=kappa_hat,
        samples=tuple(samples), verdict=verdict, seed=seed,
        denominator=denominator, draw_max=draw_full, drift=float(drift),
        refine_gain=float(gain),
    )


# ---------------------------------------------------------------------------
# Region geometry helpers
# ---------------------------------------------------------------------------


def _affine_ball(aff: AffineSubspace, region: BoundedRegion):
    """Coordinates of the region's slice through the affine hull: a center in
    span coordinates and a radius. Raises when the slice is empty."""
    p0 = aff.project(region.center)
    off = float(np.linalg.norm(p0 - region.center))
    if off > region.radius * (1.0 + 1e-12) + 1e-12:
        raise EmptyRegionError(
            f"region misses the affine hull of the face by {off - region.radius:.3g}"
        )
    rho = float(np.sqrt(max(region.radius**2 - off**2, 0.0)))
    return aff.coordinates(p0), rho


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def estimate_kappa(K: ConeSpec, F: FaceHandle, region: BoundedRegion,
                   n_samples: int = 256, sampler_seed: int = 0, *,
                   refine_from=None, refine_rounds: int = REFINE_ROUNDS,
                   refine_cycles: int = REFINE_CYCLES) -> ErrorBoundEstimate:
    """Sample dist(x, F) / dist(x, C) over aff(F) intersected with the region.

    Draws 2 * n_samples points (the first half doubles to the second for the
    drift rule). refine_from optionally seeds the growth search at a specific
    point of aff(F) inside the region, in addition to the worst draw.
    """
    aff = F.affine()
    c_center, rho = _affine_ball(aff, region)
    scale = max(rho / 4.0, 1e-8)

    refine_coords = []
    if refine_from is not None:
        p = np.asarray(refine_from, dtype=float)
        if aff.distance(p) > 1e-8 * max(1.0, float(np.linalg.norm(p))):
            raise ValueError("refine_from must lie in the affine hull of the face")
        if not region.contains(p, slack=1e-9):
            raise ValueError("refine_from must lie in the region")
        refine_coords.append(aff.coordinates(p))

    return _run_probe(K, F, region, aff, "cone", n_samples, sampler_seed,
                      lambda rng: _ball_point(c_center, rho, rng),
                      aff.from_coordinates, lambda c: _clamp_ball(c, c_center, rho),
                      scale, refine_coords, refine_rounds, refine_cycles)


def _ambient_probe(K, F, region, denominator, n_samples, seed, refine_from,
                   refine_cycles):
    aff = F.affine()
    # the region must meet the affine hull for the ratios to say anything
    _affine_ball(aff, region)

    refine_coords = []
    if refine_from is not None:
        p = np.asarray(refine_from, dtype=float)
        if not region.contains(p, slack=1e-9):
            raise ValueError("refine_from must lie in the region")
        refine_coords.append(p)

    return _run_probe(K, F, region, aff, denominator, n_samples, seed,
                      lambda rng: _ball_point(region.center, region.radius, rng),
                      lambda p: p, lambda p: _clamp_ball(p, region.center, region.radius),
                      max(region.radius / 4.0, 1e-8), refine_coords,
                      REFINE_ROUNDS, refine_cycles)


def blr_check(K: ConeSpec, F: FaceHandle, region: BoundedRegion,
              n_samples: int = 256, sampler_seed: int = 0) -> ErrorBoundEstimate:
    """Sample dist(x, F) / max(dist(x, aff F), dist(x, C)) over the region.

    Unlike estimate_kappa the draws cover the full region, not only the
    affine hull of the face; the two probes' verdicts are expected to agree
    on any shared input, and the test suite checks that rather than assuming
    it.
    """
    return _ambient_probe(K, F, region, "max", n_samples, sampler_seed, None,
                          REFINE_CYCLES)


def subtransversality_check(K: ConeSpec, F: FaceHandle, x_star, radius: float,
                            n_samples: int = 256, sampler_seed: int = 0, *,
                            refine_from=None,
                            refine_cycles: int = REFINE_CYCLES) -> ErrorBoundEstimate:
    """Local probe at x_star on the face: sample the ball of the given radius
    and measure dist(x, F) / (dist(x, aff F) + dist(x, C)). A stabilized
    finite maximum is evidence for a local error bound at x_star."""
    x_star = np.asarray(x_star, dtype=float)
    if not F.contains(x_star):
        raise ValueError("x_star must lie on the face")
    region = BoundedRegion(center=x_star, radius=float(radius))
    return _ambient_probe(K, F, region, "sum", n_samples, sampler_seed,
                          refine_from, refine_cycles)


def ratio_table(K: ConeSpec, F: FaceHandle, points, denominator: str = "max"):
    """Measure the probe ratio at explicit points (no region, no sampling):
    handy for following a diverging family outside any bounded region."""
    if denominator not in ("cone", "max", "sum"):
        raise ValueError("denominator must be one of 'cone', 'max', 'sum'")
    meas = _measurer(K, F, F.affine(), denominator)
    return tuple(meas(np.asarray(p, dtype=float)) for p in points)


# ---------------------------------------------------------------------------
# Witness curves
# ---------------------------------------------------------------------------


def evaluate_witness(K: ConeSpec, F: FaceHandle, w: WitnessCurve) -> WitnessReport:
    """Tabulate dist(·, F) and dist(·, C) along the curve and fit the log-log
    slope of (dist_cone / dist_face)^2 against t.

    Points where either distance falls below 1e-12 are excluded from the fit
    with a warning. The curve must stay on the affine hull of the face to
    1e-10.
    """
    aff = F.affine()
    rows = []
    excluded = []
    logs_t, logs_r = [], []
    for t in w.t_grid:
        p = np.asarray(w.parameterization(t), dtype=float)
        if aff.distance(p) > 1e-10 * max(1.0, float(np.linalg.norm(p))):
            raise ValueError(f"curve point at t={t} leaves the affine hull of the face")
        dist_face = float(np.linalg.norm(p - face_projection(F, p)))
        dist_cone = float(project(K, p).distance)
        ratio = dist_face / dist_cone if dist_cone > 0 else float("inf")
        rows.append((t, dist_face, dist_cone, ratio))
        if dist_face < 1e-12 or dist_cone < 1e-12:
            excluded.append(t)
            warnings.warn(
                f"witness point at t={t} has a distance below 1e-12; excluded from the fit",
                stacklevel=2,
            )
            continue
        logs_t.append(np.log(t))
        logs_r.append(2.0 * (np.log(dist_cone) - np.log(dist_face)))
    slope = None
    if len(logs_t) >= 2:
        slope = float(np.polyfit(logs_t, logs_r, 1)[0])
    curve = replace(w, fitted_growth_exponent=slope)
    return WitnessReport(curve=curve, rows=tuple(rows), slope=slope, excluded=tuple(excluded))

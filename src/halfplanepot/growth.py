"""Growth-estimate verification harness and the kernel-inequality sweeps.

Samples u = v + h along rays and annuli, normalizes by y^{1-alpha}
|z|^{m+alpha}, flags samples inside the exceptional cover, and operationalizes
the "little-o at infinity" conclusion as a per-decade contraction factor with
scenario-specific thresholds.  A finite computation cannot test a limit;
the contraction factor is the strongest finite consequence the reference
scenarios analytically guarantee.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .core import (
    BoundaryDensity,
    DiscreteMeasure,
    NumericalFailure,
    ParameterError,
    QuadratureSpec,
    SingularityError,
    as_alpha,
    as_order,
    validate_scenario,
)
from .covering import ExceptionalCover
from .kernels import lemma2_bound
from .potentials import subharmonic_eval

_THETA_MARGIN = 1e-3
_BOUND_SLACK = 1e-12  # lhs <= rhs * (1 + slack)


@dataclass(frozen=True)
class SamplingPlan:
    """Rays and a geometric radius ladder; extra per-radius annulus samples
    are spread uniformly in angle and tagged with ray_index = -1.

    Rays stay at least 1e-3 away from the boundary angles 0 and pi: the
    normalizer y^{1-alpha} degenerates there for alpha > 1.
    """

    rays: Tuple[float, ...]
    radius_start: float
    radius_factor: float
    radius_count: int
    annulus_samples: int = 0

    def __post_init__(self):
        if not self.rays:
            raise ValueError("sampling plan needs at least one ray")
        for th in self.rays:
            if not _THETA_MARGIN <= th <= math.pi - _THETA_MARGIN:
                raise ValueError(
                    f"ray angle {th} must lie in [{_THETA_MARGIN}, pi - {_THETA_MARGIN}]"
                )
        if not self.radius_start > 0:
            raise ValueError("radius_start must be > 0")
        if not self.radius_factor > 1:
            raise ValueError("radius_factor must be > 1")
        if self.radius_count < 1:
            raise ValueError("radius_count must be >= 1")
        try:  # the last radius, as radii computes it
            last = self.radius_start * self.radius_factor ** (self.radius_count - 1)
        except OverflowError:
            last = math.inf
        if not (math.isfinite(last) and math.isfinite(self.radius_factor)):
            raise ValueError(f"radius ladder must stay finite, got factor {self.radius_factor} "
                             f"and last radius {last}")
        if self.annulus_samples < 0:
            raise ValueError("annulus_samples must be >= 0")

    @property
    def radii(self) -> Tuple[float, ...]:
        return tuple(
            self.radius_start * self.radius_factor**j for j in range(self.radius_count)
        )


@dataclass(frozen=True)
class GrowthSample:
    ray_index: int  # -1 for annulus sweep samples
    radius_index: int
    annulus_index: int
    x: float
    y: float
    v: float
    h: float
    u: float
    quad_error: float
    tail_bound: float
    normalizer: float
    ratio: float
    in_cover: bool
    ok: bool = True
    note: str = ""


@dataclass(frozen=True)
class GrowthReport:
    samples: Tuple[GrowthSample, ...]
    m: int
    alpha: float
    plan: SamplingPlan

    def ray_samples(self, ray_index: int) -> Tuple[GrowthSample, ...]:
        return tuple(s for s in self.samples if s.ray_index == ray_index)


def _sample_points(plan: SamplingPlan):
    """Deterministic enumeration ordered by (ray, radius, annulus index)."""
    pts = []
    radii = plan.radii
    for i, th in enumerate(plan.rays):
        for j, r in enumerate(radii):
            pts.append((i, j, 0, r, th))
    if plan.annulus_samples > 0:
        lo = _THETA_MARGIN
        hi = math.pi - _THETA_MARGIN
        for j, r in enumerate(radii):
            for a in range(plan.annulus_samples):
                th = lo + (a + 1) * (hi - lo) / (plan.annulus_samples + 1)
                pts.append((-1, j, a + 1, r, th))
    return pts


def _normalizer(y: float, r: float, m: int, a: float) -> float:
    """y^(1-alpha) |z|^(m+alpha); NumericalFailure unless it is a positive float."""
    try:
        value = y ** (1.0 - a) * r ** (m + a)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        msg = f"normalizer y^(1-alpha) |z|^(m+alpha) leaves the float range ({value})"
        raise NumericalFailure(msg, value, math.inf)
    return value


def growth_report(
    density: BoundaryDensity,
    mu: DiscreteMeasure,
    m: int,
    alpha: float,
    plan: SamplingPlan,
    cover: Optional[ExceptionalCover],
    quad: QuadratureSpec = QuadratureSpec(),
) -> GrowthReport:
    """Evaluate u over the plan grid and normalize.

    Samples inside the cover are flagged, not dropped; with cover=None no
    sample is flagged.  Per-sample evaluation errors are recorded on the
    sample (ok=False) without aborting the run.
    The per-point quadrature tolerance is max(abs_tol, rel_tol * normalizer):
    the harness consumes the ratio u/normalizer, so that is the scale on
    which accuracy matters.
    """
    mm = as_order(m)
    a = as_alpha(alpha)
    validate_scenario(density, mu, mm, a).raise_if_invalid()

    samples = []
    for ray_i, rad_j, ann_k, r, th in _sample_points(plan):
        z = complex(r * math.cos(th), r * math.sin(th))
        in_cover = cover is not None and cover.contains(z)
        normalizer = math.nan  # stays nan when the normalizer itself fails
        try:
            normalizer = _normalizer(z.imag, r, mm, a)
            pq = replace(quad, abs_tol=max(quad.abs_tol, quad.rel_tol * normalizer))
            pv = subharmonic_eval(density, mu, z, mm, pq)
            samples.append(
                GrowthSample(
                    ray_i, rad_j, ann_k, z.real, z.imag,
                    pv.v, pv.h, pv.u, pv.quad_error, pv.tail_bound, normalizer,
                    abs(pv.u) / normalizer, in_cover,
                )
            )
        except (NumericalFailure, SingularityError) as exc:
            nan = math.nan
            samples.append(
                GrowthSample(
                    ray_i, rad_j, ann_k, z.real, z.imag,
                    nan, nan, nan, nan, nan, normalizer, nan, in_cover,
                    ok=False, note=str(exc),
                )
            )
    return GrowthReport(tuple(samples), mm, a, plan)


@dataclass(frozen=True)
class RayDecay:
    ray_index: int
    status: str  # "pass", "fail", "inconclusive"
    worst_factor: Optional[float]
    pairs: int


@dataclass(frozen=True)
class DecayResult:
    passed: bool
    status: str  # "pass", "fail", "inconclusive"
    worst_factor: Optional[float]
    rays: Tuple[RayDecay, ...]


def decay_assertion(report: GrowthReport, min_factor_per_decade: float) -> DecayResult:
    """Require ratio(10 r) <= factor * ratio(r) on out-of-cover samples.

    A ray without any usable decade pair is inconclusive, not failing; the
    overall result fails if any ray fails and is inconclusive only if every
    ray is.
    """
    radii = report.plan.radii
    if radii[-1] < 100.0 * radii[0] * (1.0 - 1e-9):
        raise ParameterError("decay assertion needs >= 2 decades of radii per ray")
    decade_offset = None
    for off in range(1, len(radii)):
        if abs(radii[off] / radii[0] - 10.0) <= 1e-9 * 10.0:
            decade_offset = off
            break
    if decade_offset is None:
        raise ParameterError(
            "radius ladder does not contain exact decade pairs; choose a "
            "factor with 10 = factor^k"
        )

    rays = []
    worst = None
    for i in range(len(report.plan.rays)):
        ray = {s.radius_index: s for s in report.ray_samples(i)}
        factors = []
        for j in range(len(radii) - decade_offset):
            s_lo, s_hi = ray.get(j), ray.get(j + decade_offset)
            if s_lo is None or s_hi is None:
                continue
            if not (s_lo.ok and s_hi.ok) or s_lo.in_cover or s_hi.in_cover:
                continue
            if s_lo.ratio == 0.0:
                factors.append(0.0 if s_hi.ratio == 0.0 else math.inf)
            else:
                factors.append(s_hi.ratio / s_lo.ratio)
        if not factors:
            rays.append(RayDecay(i, "inconclusive", None, 0))
            continue
        w = max(factors)
        status = "pass" if w <= min_factor_per_decade else "fail"
        rays.append(RayDecay(i, status, w, len(factors)))
        if worst is None or w > worst:
            worst = w

    if any(r.status == "fail" for r in rays):
        status = "fail"
    elif all(r.status == "inconclusive" for r in rays):
        status = "inconclusive"
    else:
        status = "pass"
    return DecayResult(status == "pass", status, worst, tuple(rays))


# ---------------------------------------------------------------------------
# Kernel-inequality sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma2SweepReport:
    case: int
    m: int
    samples: int
    violation_count: int
    worst_ratio: float
    violations: Tuple[Tuple[complex, complex, float, float], ...]  # (z, arg, lhs, rhs)


def _log_uniform(rng, lo=1e-2, hi=1e3) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _random_upper(rng) -> complex:
    r = _log_uniform(rng)
    th = rng.uniform(_THETA_MARGIN, math.pi - _THETA_MARGIN)
    return cmath.rect(r, th)


def lemma2_sweep(case: int, m: int, samples: int, seed: int) -> Lemma2SweepReport:
    """Draw points inside the case's precondition region (log-uniform moduli
    in [1e-2, 1e3], rejection sampling for the relative-size constraints) and
    count violations of lhs <= rhs * (1 + 1e-12).  samples and seed must be
    >= 0 (ParameterError)."""
    mm = as_order(m)
    if samples < 0 or seed < 0:
        raise ParameterError(f"samples and seed must be >= 0, got {samples} and {seed}")
    rng = np.random.default_rng(seed)
    violations = []
    worst = 0.0
    drawn = 0
    guard = 0
    while drawn < samples:
        guard += 1
        if guard > 1000 * samples + 10_000:
            raise ParameterError(f"case {case} sampler could not fill the region")
        z = _random_upper(rng)
        if case in (1, 2):
            xi = _log_uniform(rng) * (1.0 if rng.uniform() < 0.5 else -1.0)
            if case == 2 and abs(xi - z) < 3.0 * abs(z):
                continue
            arg = xi
        else:
            zeta = _random_upper(rng)
            if abs(zeta) <= 1.0:
                continue
            if case == 4 and abs(zeta) <= max(1.0, 2.0 * abs(z)):
                continue
            arg = zeta
        drawn += 1
        lhs, rhs = lemma2_bound(case, z, arg, mm)
        if rhs > 0:
            ratio = lhs / rhs
        else:
            ratio = 0.0 if lhs == 0.0 else math.inf
        if ratio > worst:
            worst = ratio
        if lhs > rhs * (1.0 + _BOUND_SLACK):
            violations.append((z, complex(arg) if case in (3, 4) else arg, lhs, rhs))
    return Lemma2SweepReport(
        case=case,
        m=mm,
        samples=samples,
        violation_count=len(violations),
        worst_ratio=worst,
        violations=tuple(violations[:100]),
    )

"""Order-beta maximal function and the exceptional-set cover construction.

The cover algorithm is the covering lemma's proof run on a finite candidate
family: per dyadic annulus, candidate centers (atoms plus a hexagonal grid)
that exceed the maximal-function threshold get a witness ball, a greedy
largest-first pass keeps a disjoint subfamily, and the kept radii are
enlarged fivefold.  The budget bound

    sum (rho_j / |z_j|)^beta  <=  3 * 5^beta * mu(C) / lambda

then holds by the proof's own counting argument, and is asserted.  Whether
the finite family catches every sliver of the exceptional set is certified
statistically by certify_complement, not proven.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    Ball,
    CoverParams,
    DiscreteMeasure,
    ParameterError,
)

_WITNESS_INFLATION = 1e-9


def _distance_profile(mu: DiscreteMeasure, z: complex):
    """Sorted distinct distances from z to the atoms with cumulative mass."""
    d = np.abs(mu.positions - z)
    order = np.argsort(d, kind="stable")
    ds = d[order]
    cum = np.cumsum(mu.weight_array[order])
    last_of_run = np.append(ds[1:] != ds[:-1], True)
    return ds[last_of_run], cum[last_of_run]


def _profile_sup(dist, cum, beta: float) -> float:
    if dist[0] == 0.0:
        if cum[0] > 0.0:
            return math.inf
        dist, cum = dist[1:], cum[1:]
        if len(dist) == 0:
            return 0.0
    return float(np.max(cum / dist**beta))


def maximal_function(
    mu: DiscreteMeasure, z: complex, beta: float
) -> float:
    """M(dmu)(z) = sup over r > 0 of mu(B(z, r)) / r^beta.

    For an atomic measure the sup over the interval between consecutive atom
    distances is approached as r decreases to a distance d, giving
    max over distinct d of (mass within distance <= d) / d^beta.  Returns
    +inf when z carries an atom of positive weight and beta > 0; the total
    mass when beta = 0.
    """
    if beta < 0:
        raise ParameterError(f"maximal function order beta must be >= 0, got {beta}")
    if len(mu) == 0:
        return 0.0
    if beta == 0.0:
        return mu.total_mass
    dist, cum = _distance_profile(mu, complex(z))
    return _profile_sup(dist, cum, beta)


@dataclass(frozen=True)
class ExceptionalCover:
    """Finite ball family covering the set where M(dmu) beats lambda/|z|^beta."""

    balls: Tuple[Ball, ...]
    beta: float
    lam: float
    budget: float
    guarantee_radius: float

    def contains(self, z: complex) -> bool:
        zc = complex(z)
        return any(b.contains(zc) for b in self.balls)


def _witness_radius(z, beta, lam, dist, cum):
    """Smallest inflated atom distance whose open ball strictly beats the
    threshold; an atom-centered candidate with no positive qualifying
    distance falls back to the radius its own mass certifies."""
    az = abs(z)
    center_mass = 0.0
    for d, c in zip(dist, cum):
        if d == 0.0:
            center_mass = c
            continue
        r = d * (1.0 + _WITNESS_INFLATION)
        if c > lam * (r / az) ** beta:
            return r
    if center_mass > 0.0 and beta > 0.0:
        r = az * (center_mass / lam) ** (1.0 / beta) * (1.0 - _WITNESS_INFLATION)
        return r if r > 0.0 else None  # (mass/lam)^(1/beta) can underflow at tiny beta
    return None


def _hex_grid(r_lo: float, r_hi: float, pitch: float):
    """Hexagonal lattice points with r_lo <= |p| < r_hi."""
    dy = pitch * math.sqrt(3.0) / 2.0
    pts = []
    j = int(math.floor(-r_hi / dy))
    j_hi = int(math.ceil(r_hi / dy))
    while j <= j_hi:
        gy = j * dy
        if abs(gy) < r_hi:
            off = 0.5 * pitch if j % 2 else 0.0
            i = int(math.floor((-r_hi - off) / pitch))
            i_hi = int(math.ceil((r_hi - off) / pitch))
            while i <= i_hi:
                gx = i * pitch + off
                rr = math.hypot(gx, gy)
                if r_lo <= rr < r_hi:
                    pts.append(complex(gx, gy))
                i += 1
        j += 1
    return pts


def build_exceptional_cover(
    mu: DiscreteMeasure,
    params: CoverParams,
    search_radius: float,
) -> ExceptionalCover:
    """Construct a ball cover of E(lambda) = {|z| >= 2 : M(dmu)(z) > lambda/|z|^beta}.

    Sweeps dyadic annuli 2^k <= |z| < 2^{k+1} for 2^k <= search_radius.
    Candidates per annulus: the atoms plus a hex grid at pitch 2^{k-4},
    filtered to the annulus proper (which is what keeps each annulus's
    selected disjoint balls supported in 2^{k-1} <= |zeta| < 2^{k+2} and the
    factor-3 budget exact).  Witness radii are clamped to 2^{k-1}; the kept
    disjoint family (largest radius first, ties by center) is enlarged 5x.
    """
    beta, lam = params.beta, params.lam
    mass = mu.total_mass
    if lam < 5.0**beta * mass:
        raise ParameterError(
            f"cover threshold lambda={lam} below 5^beta * mu(C) = {5.0 ** beta * mass}"
        )
    if search_radius < 4.0:
        raise ParameterError(f"search radius must be >= 4, got {search_radius}")

    k_max = int(math.floor(math.log2(search_radius)))
    guarantee_radius = 2.0 ** (k_max + 1)
    if len(mu) == 0:
        return ExceptionalCover((), beta, lam, 0.0, guarantee_radius)

    atom_radii = np.abs(mu.positions)
    largest_atom = float(np.max(atom_radii))
    balls = []
    for k in range(1, k_max + 1):
        r_lo, r_hi = 2.0**k, 2.0 ** (k + 1)
        # no point of this annulus can reach the threshold if even the whole
        # mass at the closest possible distance falls short
        gap = r_lo - largest_atom
        if beta > 0 and gap > 0 and mass / gap**beta <= lam / r_hi**beta:
            continue
        candidates = {}
        for pos in mu.positions:
            p = complex(pos)
            if r_lo <= abs(p) < r_hi:
                candidates[(p.real, p.imag)] = p
        for g in _hex_grid(r_lo, r_hi, 2.0 ** (k - 4)):
            candidates.setdefault((g.real, g.imag), g)

        annulus_balls = []
        r_cap = 2.0 ** (k - 1)
        for key in sorted(candidates):
            c = candidates[key]
            ac = abs(c)
            dist, cum = _distance_profile(mu, c)
            if beta > 0:
                m_val = _profile_sup(dist, cum, beta)
            else:
                m_val = mass
            if not m_val > lam / ac**beta:
                continue
            witness = _witness_radius(c, beta, lam, dist, cum)
            if witness is None:
                continue
            annulus_balls.append((c, min(witness, r_cap)))

        annulus_balls.sort(key=lambda cr: (-cr[1], cr[0].real, cr[0].imag))
        kept = []
        for c, r in annulus_balls:
            if all(abs(c - c2) >= r + r2 for c2, r2 in kept):
                kept.append((c, r))
        balls.extend(Ball(c.real, c.imag, float(5.0 * r)) for c, r in kept)

    budget = math.fsum((b.radius / abs(b.center)) ** beta for b in balls)
    bound = 3.0 * 5.0**beta * mass / lam
    if budget > bound:
        raise AssertionError(
            f"cover budget {budget} exceeds 3*5^beta*mu(C)/lambda = {bound}; "
            "construction invariant broken"
        )
    return ExceptionalCover(tuple(balls), beta, lam, budget, guarantee_radius)


class CoverCertificationError(RuntimeError):
    """Complement certification found points violating the threshold bound."""

    def __init__(self, report: "CertificationReport"):
        super().__init__(
            f"{report.violation_count} of {report.samples} complement samples "
            f"violate M(dmu)(z) <= lambda/|z|^beta (worst ratio "
            f"{report.worst_ratio:.6g}); first offenders: {report.violations[:5]}"
        )
        self.report = report


@dataclass(frozen=True)
class CertificationReport:
    samples: int
    violation_count: int
    violations: Tuple[Tuple[complex, float, float], ...]  # (z, M value, threshold)
    worst_ratio: float
    seed: int


def certify_complement(
    mu: DiscreteMeasure,
    params: CoverParams,
    cover: ExceptionalCover,
    samples: int = 10_000,
    seed: int = 0,
    radius_range: float | None = None,
) -> CertificationReport:
    """Rejection-sample points outside the cover with 2 <= |z| <= radius_range
    and assert M(dmu)(z) <= lambda/|z|^beta at each; raises on any violation.
    """
    if radius_range is None:
        radius_range = cover.guarantee_radius
    if radius_range < 2.0:
        raise ParameterError("radius range must be >= 2")
    rng = np.random.default_rng(seed)
    collected = 0
    attempts = 0
    max_attempts = 1000 * samples + 10_000
    violations = []
    worst = 0.0
    log_lo, log_hi = math.log(2.0), math.log(radius_range)
    while collected < samples:
        attempts += 1
        if attempts > max_attempts:
            raise ParameterError(
                "could not draw enough points outside the cover; it covers "
                "nearly all of the sampling region"
            )
        r = math.exp(rng.uniform(log_lo, log_hi))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        z = complex(r * math.cos(theta), r * math.sin(theta))
        if cover.contains(z):
            continue
        collected += 1
        m_val = maximal_function(mu, z, params.beta)
        threshold = params.lam / abs(z) ** params.beta
        ratio = m_val / threshold if threshold > 0 else math.inf
        if ratio > worst:
            worst = ratio
        if m_val > threshold:
            violations.append((z, m_val, threshold))
    report = CertificationReport(
        samples=collected,
        violation_count=len(violations),
        violations=tuple(violations[:100]),
        worst_ratio=worst,
        seed=seed,
    )
    if violations:
        raise CoverCertificationError(report)
    return report


# ---------------------------------------------------------------------------
# Serialization: {beta, lambda, budget, balls: [{cx, cy, r}]} with floats
# printed to 17 significant digits.
# ---------------------------------------------------------------------------


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def cover_to_json(cover: ExceptionalCover) -> str:
    balls = ",\n    ".join(
        f'{{"cx": {_f17(b.cx)}, "cy": {_f17(b.cy)}, "r": {_f17(b.radius)}}}'
        for b in cover.balls
    )
    body = f"[\n    {balls}\n  ]" if cover.balls else "[]"
    return (
        "{\n"
        f'  "beta": {_f17(cover.beta)},\n'
        f'  "lambda": {_f17(cover.lam)},\n'
        f'  "budget": {_f17(cover.budget)},\n'
        f'  "balls": {body}\n'
        "}\n"
    )


def cover_from_json(text: str, *, guarantee_radius: float) -> ExceptionalCover:
    """Inverse of cover_to_json.  The JSON does not record the radius up to
    which the cover is guaranteed, so the caller must supply it."""
    data = json.loads(text)
    balls = tuple(Ball(b["cx"], b["cy"], b["r"]) for b in data["balls"])
    return ExceptionalCover(
        balls=balls,
        beta=float(data["beta"]),
        lam=float(data["lambda"]),
        budget=float(data["budget"]),
        guarantee_radius=guarantee_radius,
    )

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
from functools import cached_property
from typing import Tuple

import numpy as np

from .core import (
    Ball,
    CoverParams,
    DiscreteMeasure,
    ParameterError,
)

_WITNESS_INFLATION = 1e-9

# Upper bound on the elements (rows x atoms, or rows x balls) of every array
# temporary of the batched ball tests and maximal-function evaluations.
_BLOCK_ELEMENTS = 4096

# Draws per certification block; its (draws, 2) uniforms stay within
# _BLOCK_ELEMENTS.
_DRAW_BLOCK = _BLOCK_ELEMENTS // 8


def _row_blocks(rows: int, width: int):
    """Slices of range(rows) into blocks of at most _BLOCK_ELEMENTS // width
    rows (at least one)."""
    step = max(1, _BLOCK_ELEMENTS // width)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _nearest_atom(mu: DiscreteMeasure, zs: np.ndarray) -> np.ndarray:
    """Distance from each point of zs to its nearest atom (nonempty mu)."""
    out = np.empty(len(zs))
    for blk in _row_blocks(len(zs), len(mu)):
        out[blk] = np.min(np.abs(mu.positions - zs[blk, None]), axis=1)
    return out


def _profile_blocks(mu: DiscreteMeasure, zs: np.ndarray, beta: float):
    """Yield (blk, dist, cum, sup) over row blocks zs[blk]: per row the
    distances to the atoms sorted ascending, the cumulative mass out to each,
    and M(dmu) at the point (beta > 0, nonempty mu)."""
    for blk in _row_blocks(len(zs), len(mu)):
        d = np.abs(mu.positions - zs[blk, None])
        order = np.argsort(d, axis=1, kind="stable")
        dist = np.take_along_axis(d, order, axis=1)
        cum = np.cumsum(mu.weight_array[order], axis=1)
        yield blk, dist, cum, _profile_sup(dist, cum, beta)


def _profile_sup(dist, cum, beta: float) -> np.ndarray:
    """Row maxima of cum / dist**beta.  Within a run of equal distances the
    last entry has the largest cum (weights are >= 0), so the runs need no
    deduplication.  Zero-distance entries are skipped, unless the atoms at
    the point carry positive weight, which makes the row +inf; a row with no
    other entry is 0."""
    at_point = dist == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = cum / dist**beta
    ratio[at_point] = -math.inf
    sup = np.max(ratio, axis=1)
    sup[sup == -math.inf] = 0.0
    sup[np.any(at_point & (cum > 0.0), axis=1)] = math.inf
    return sup


def maximal_function_many(
    mu: DiscreteMeasure, zs, beta: float
) -> np.ndarray:
    """maximal_function at each point of the 1-d complex array zs, evaluated
    in blocks of bounded size."""
    if beta < 0:
        raise ParameterError(f"maximal function order beta must be >= 0, got {beta}")
    zs = np.asarray(zs, dtype=complex)
    if len(mu) == 0:
        return np.zeros(len(zs))
    if beta == 0.0:
        return np.full(len(zs), mu.total_mass)
    out = np.empty(len(zs))
    for blk, _dist, _cum, sup in _profile_blocks(mu, zs, beta):
        out[blk] = sup
    return out


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
    return float(maximal_function_many(mu, [complex(z)], beta)[0])


@dataclass(frozen=True)
class ExceptionalCover:
    """Finite ball family covering the set where M(dmu) beats lambda/|z|^beta."""

    balls: Tuple[Ball, ...]
    beta: float
    lam: float
    budget: float
    guarantee_radius: float

    @cached_property
    def _ball_arrays(self) -> np.ndarray:
        """Rows cx, cy, radius of the balls."""
        return np.array(
            [(b.cx, b.cy, b.radius) for b in self.balls], dtype=float
        ).reshape(-1, 3).T

    def contains_many(self, zs) -> np.ndarray:
        """Whether each point of the 1-d complex array zs lies in an (open)
        ball, tested in blocks of bounded size.  np.hypot is the C library's
        hypot, as abs(complex) is, while np.abs of a complex array may round
        differently; so a point on a boundary is tested as Ball.contains
        tests it."""
        zs = np.asarray(zs, dtype=complex)
        cx, cy, radius = self._ball_arrays
        inside = np.zeros(len(zs), dtype=bool)
        if len(radius) == 0:
            return inside
        for blk in _row_blocks(len(zs), len(radius)):
            z = zs[blk, None]
            inside[blk] = np.any(np.hypot(z.real - cx, z.imag - cy) < radius, axis=1)
        return inside

    def contains(self, z: complex) -> bool:
        return bool(self.contains_many([complex(z)])[0])


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


def _annulus_candidates(mu: DiscreteMeasure, k: int):
    """Candidate centers of annulus 2^k <= |z| < 2^{k+1}: its atoms and the
    hex grid at pitch 2^{k-4}, sorted by (real, imag)."""
    r_lo, r_hi = 2.0**k, 2.0 ** (k + 1)
    candidates = {}
    for pos in mu.positions:
        p = complex(pos)
        if r_lo <= abs(p) < r_hi:
            candidates[(p.real, p.imag)] = p
    for g in _hex_grid(r_lo, r_hi, 2.0 ** (k - 4)):
        candidates.setdefault((g.real, g.imag), g)
    return [candidates[key] for key in sorted(candidates)]


def _witness_balls(mu: DiscreteMeasure, params: CoverParams, centers, r_cap: float):
    """(center, witness radius clamped to r_cap) of each candidate center
    where M(dmu) beats lambda/|z|^beta and a witness radius exists, in the
    order of centers (beta > 0, nonempty mu)."""
    beta, lam = params.beta, params.lam
    points = np.array(centers)
    thresholds = np.fromiter(
        (lam / abs(c) ** beta for c in centers), float, len(centers)
    )
    # M(dmu)(c) <= mu(C) / dist(c, supp mu)^beta, so a candidate whose
    # nearest-atom bound does not beat the threshold cannot pass.  The slack
    # exceeds the rounding of the cumulative sums (an ulp per atom), of pow
    # and of the division.
    slack = 1.0 + 1e-9 + 1e-15 * len(mu)
    with np.errstate(divide="ignore"):  # a candidate on an atom
        bound = mu.total_mass * slack / _nearest_atom(mu, points) ** beta
    live = np.flatnonzero(bound > thresholds)
    found = []
    for blk, dist, cum, sup in _profile_blocks(mu, points[live], beta):
        rows = live[blk]
        for i in np.flatnonzero(sup > thresholds[rows]):
            c = centers[rows[i]]
            witness = _witness_radius(c, beta, lam, dist[i], cum[i])
            if witness is not None:
                found.append((c, min(witness, r_cap)))
    return found


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
    if not 4.0 <= search_radius < 2.0**1023:  # 2^(k_max + 1) must be a float
        raise ParameterError(f"search radius must lie in [4, 2^1023), got {search_radius}")

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
        # mass at the closest possible distance falls short; at beta = 0,
        # M(dmu) = mu(C) <= lambda = lambda/|z|^0 everywhere
        gap = r_lo - largest_atom
        if beta == 0 or (gap > 0 and mass / gap**beta <= lam / r_hi**beta):
            continue
        annulus_balls = _witness_balls(
            mu, params, _annulus_candidates(mu, k), 2.0 ** (k - 1)
        )
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
    attempts: int  # draws up to the one that filled the sample set
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

    Draws come in blocks from rng.random((k, 2)), mapped with the arithmetic
    of Generator.uniform, so the sample set is the one that alternating
    uniform(log 2, log radius_range) and uniform(0, 2 pi) calls would draw.
    """
    if radius_range is None:
        radius_range = cover.guarantee_radius
    if radius_range < 2.0:
        raise ParameterError("radius range must be >= 2")
    rng = np.random.default_rng(seed)
    beta, lam = params.beta, params.lam
    collected = 0
    attempts = 0
    max_attempts = 1000 * samples + 10_000
    violation_count = 0
    violations = []
    worst = 0.0
    log_lo, log_hi = math.log(2.0), math.log(radius_range)
    log_span, two_pi = log_hi - log_lo, 2.0 * math.pi
    while collected < samples:
        if attempts == max_attempts:
            raise ParameterError(
                "could not draw enough points outside the cover; it covers "
                "nearly all of the sampling region"
            )
        k = min(_DRAW_BLOCK, max_attempts - attempts)
        zs = []
        for u_r, u_theta in rng.random((k, 2)).tolist():
            # math.exp/cos/sin, not np.exp/cos/sin, which may differ in the last ulp
            r = math.exp(log_lo + log_span * u_r)
            theta = two_pi * u_theta
            zs.append(complex(r * math.cos(theta), r * math.sin(theta)))
        # draws past the one that fills the sample set are not attempts
        need = samples - collected
        outside = np.flatnonzero(~cover.contains_many(zs))[:need]
        attempts += int(outside[-1]) + 1 if len(outside) == need else k
        collected += len(outside)
        accepted = [zs[i] for i in outside]
        for z, m_val in zip(accepted, maximal_function_many(mu, accepted, beta).tolist()):
            threshold = lam / abs(z) ** beta
            ratio = m_val / threshold if threshold > 0 else math.inf
            if ratio > worst:
                worst = ratio
            if m_val > threshold:
                violation_count += 1
                if len(violations) < 100:
                    violations.append((z, m_val, threshold))
    report = CertificationReport(
        samples=collected,
        attempts=attempts,
        violation_count=violation_count,
        violations=tuple(violations),
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

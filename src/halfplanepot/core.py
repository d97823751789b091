"""Shared domain types for the half-plane potential library.

Every type here is an immutable value object: invariants are checked once at
construction and instances are safe to share across threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

MAX_ORDER = 32


class SingularityError(ValueError):
    """Evaluation at (or too close to) a singular point."""


class DomainError(ValueError):
    """Input lies outside an operation's region of validity."""


class ParameterError(ValueError):
    """Parameter combination violates a documented precondition."""


class ScenarioError(ValueError):
    """Scenario file is malformed or violates the schema."""


class NumericalFailure(RuntimeError):
    """Requested tolerance could not be met.

    Carries the best available value and its error estimate so callers can
    decide whether to degrade gracefully.
    """

    def __init__(self, message: str, value: float, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


def _require_finite(label: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{label} must be finite, got {v!r}")


@dataclass(frozen=True)
class UpperPoint:
    """Point of the closed upper half plane; eta = 0 marks the boundary."""

    xi: float
    eta: float

    def __post_init__(self):
        _require_finite("UpperPoint coordinate", self.xi, self.eta)
        if self.eta < 0:
            raise ValueError(f"upper point needs eta >= 0, got eta={self.eta}")

    @property
    def zeta(self) -> complex:
        return complex(self.xi, self.eta)

    def __abs__(self) -> float:
        return math.hypot(self.xi, self.eta)


@dataclass(frozen=True)
class KernelOrder:
    """Expansion order m of the modified kernels.

    Capped at 32: powers |z|^k up to k = m+1 plus tail series must stay in
    double precision at the radii the growth harness samples (|z| up to 1e4).
    """

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise ValueError(f"kernel order must be an integer, got {self.m!r}")
        if not 0 <= self.m <= MAX_ORDER:
            raise ValueError(f"kernel order must be in [0, {MAX_ORDER}], got {self.m}")


@dataclass(frozen=True)
class GrowthExponent:
    """Growth exponent alpha, 0 < alpha <= 2.

    alpha = 2 is allowed here; the stricter alpha < 2 required when a measure
    is present is enforced by validate_scenario, not by the type.
    """

    alpha: float

    def __post_init__(self):
        _require_finite("GrowthExponent", self.alpha)
        if not 0 < self.alpha <= 2:
            raise ValueError(f"growth exponent must lie in (0, 2], got {self.alpha}")


def as_order(m: Union[KernelOrder, int]) -> int:
    if isinstance(m, KernelOrder):
        return m.m
    return KernelOrder(m).m


def as_interior(z: complex) -> complex:
    """Coerce to a complex interior point, checking y > 0."""
    zc = complex(z)
    if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
        raise ValueError(f"interior point must be finite, got {zc!r}")
    if not zc.imag > 0:
        raise ValueError(f"interior point needs Im z > 0, got {zc!r}")
    return zc


def as_upper(zeta: complex) -> complex:
    """Coerce to a complex point of the closed upper half plane."""
    zc = complex(zeta)
    if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
        raise ValueError(f"upper point must be finite, got {zc!r}")
    if zc.imag < 0:
        raise ValueError(f"upper point needs Im zeta >= 0, got {zc!r}")
    return zc


def as_boundary(xi: float) -> float:
    x = float(xi)
    if not math.isfinite(x):
        raise ValueError(f"boundary point must be finite, got {xi!r}")
    return x


# ---------------------------------------------------------------------------
# Boundary densities
#
# A closed enum of families (rather than arbitrary callables) so that
# finiteness of the weighted norm is decidable and scenarios serialize.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerDensity:
    """f(xi) = scale * |xi|**s."""

    s: float
    scale: float = 1.0

    def __post_init__(self):
        _require_finite("PowerDensity parameter", self.s, self.scale)

    def value(self, xi: float) -> float:
        if xi == 0.0:
            if self.s > 0:
                return 0.0
            if self.s == 0:
                return self.scale
            return math.inf
        return self.scale * abs(xi) ** self.s

    def breakpoints(self) -> Tuple[float, ...]:
        return (0.0,)

    def support_radius(self) -> float:
        return 0.0 if self.scale == 0.0 else math.inf

    def norm_finite(self, m: int) -> Tuple[bool, str]:
        if self.scale == 0.0:
            return True, ""
        if self.s >= m + 1:
            return False, f"power density with s={self.s} >= m+1={m + 1} diverges at infinity"
        if self.s <= -1:
            return False, f"power density with s={self.s} <= -1 diverges at the origin"
        return True, ""


@dataclass(frozen=True)
class IndicatorDensity:
    """f = height on [a, b], zero elsewhere. a == b gives the zero density."""

    a: float
    b: float
    height: float = 1.0

    def __post_init__(self):
        _require_finite("IndicatorDensity parameter", self.a, self.b, self.height)
        if self.a > self.b:
            raise ValueError(f"indicator needs a <= b, got [{self.a}, {self.b}]")

    def value(self, xi: float) -> float:
        return self.height if self.a <= xi <= self.b else 0.0

    def breakpoints(self) -> Tuple[float, ...]:
        return (self.a, self.b)

    def support_radius(self) -> float:
        return max(abs(self.a), abs(self.b))

    def norm_finite(self, m: int) -> Tuple[bool, str]:
        return True, ""


@dataclass(frozen=True)
class TabulatedDensity:
    """Piecewise-linear density through sorted knots, zero outside their range."""

    knots: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("tabulated density needs at least two knots")
        xs = [k[0] for k in self.knots]
        for x, v in self.knots:
            _require_finite("tabulated knot", x, v)
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("tabulated knots must be strictly increasing in xi")

    def value(self, xi: float) -> float:
        xs = self.knots
        if xi < xs[0][0] or xi > xs[-1][0]:
            return 0.0
        lo, hi = 0, len(xs) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if xs[mid][0] <= xi:
                lo = mid
            else:
                hi = mid
        x1, v1 = xs[lo]
        x2, v2 = xs[hi]
        if xi == x1:
            return v1
        return v1 + (v2 - v1) * (xi - x1) / (x2 - x1)

    def breakpoints(self) -> Tuple[float, ...]:
        return tuple(x for x, _ in self.knots)

    def support_radius(self) -> float:
        return max(abs(self.knots[0][0]), abs(self.knots[-1][0]))

    def norm_finite(self, m: int) -> Tuple[bool, str]:
        return True, ""


BoundaryDensity = Union[PowerDensity, IndicatorDensity, TabulatedDensity]


# ---------------------------------------------------------------------------
# Measures, balls, cover parameters, quadrature control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure on the open upper half plane.

    Restricting to finite atom lists makes the theorem hypotheses checkable
    exactly, turns Green potentials into finite sums, and gives the maximal
    function a closed form.
    """

    points: Tuple[UpperPoint, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        for w in self.weights:
            _require_finite("atom weight", w)
            if w < 0:
                raise ValueError(f"atom weights must be >= 0, got {w}")
        for p in self.points:
            if not p.eta > 0:
                raise ValueError(f"measure atoms need eta > 0, got {p}")

    @classmethod
    def from_triples(cls, triples: Iterable[Sequence[float]]) -> "DiscreteMeasure":
        pts, ws = [], []
        for xi, eta, w in triples:
            pts.append(UpperPoint(float(xi), float(eta)))
            ws.append(float(w))
        return cls(tuple(pts), tuple(ws))

    @classmethod
    def empty(cls) -> "DiscreteMeasure":
        return cls((), ())

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def positions(self) -> np.ndarray:
        return np.array([p.zeta for p in self.points], dtype=complex)

    @cached_property
    def weight_array(self) -> np.ndarray:
        return np.array(self.weights, dtype=float)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.weights)

    def mass_functional(self, m: Union[KernelOrder, int]) -> float:
        """Sum of w * eta / (1 + |zeta|^{2+m}); realizes the measure condition exactly."""
        mm = as_order(m)
        terms = []
        for p, w in zip(self.points, self.weights):
            try:
                terms.append(w * p.eta / (1.0 + abs(p) ** (2 + mm)))
            except OverflowError:  # |zeta|^{2+m} is past the float range, 1 is below its ulp
                terms.append(w * (p.eta / abs(p)) * abs(p) ** -(1 + mm))
        return math.fsum(terms)

    def concat(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        return DiscreteMeasure(self.points + other.points, self.weights + other.weights)


@dataclass(frozen=True)
class Ball:
    """Open ball in the plane."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        _require_finite("Ball parameter", self.cx, self.cy, self.radius)
        if not self.radius > 0:
            raise ValueError(f"ball radius must be > 0, got {self.radius}")

    @property
    def center(self) -> complex:
        return complex(self.cx, self.cy)

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius


@dataclass(frozen=True)
class CoverParams:
    """Order and threshold of an exceptional-set cover.

    The Lemma-1 precondition lam >= 5**beta * total mass depends on the target
    measure and is checked when a cover is built, not here.
    """

    beta: float
    lam: float

    def __post_init__(self):
        _require_finite("CoverParams", self.beta, self.lam)
        if self.beta < 0:
            raise ValueError(f"cover order beta must be >= 0, got {self.beta}")
        if not self.lam > 0:
            raise ValueError(f"cover threshold lambda must be > 0, got {self.lam}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Error control for the Poisson integral: the tolerance is
    max(abs_tol, rel_tol * coarse magnitude), and initial_truncation is the
    floor of its truncation radius T."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    max_depth: int = 60
    initial_truncation: float = 8.0

    def __post_init__(self):
        _require_finite(
            "QuadratureSpec", self.abs_tol, self.rel_tol, self.initial_truncation
        )
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("quadrature tolerances must be > 0")
        if self.max_depth < 8:
            raise ValueError(f"max_depth must be >= 8, got {self.max_depth}")
        if not self.initial_truncation > 0:
            raise ValueError("initial truncation must be > 0")


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioValidation:
    ok: bool
    failures: Tuple[str, ...]
    mass_functional: float

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise DomainError("; ".join(self.failures))


def validate_scenario(
    density: BoundaryDensity,
    measure: DiscreteMeasure,
    m: Union[KernelOrder, int],
    alpha: Union[GrowthExponent, float],
) -> ScenarioValidation:
    """Check the theorem hypotheses for a (density, measure, m, alpha) scenario.

    Accepts iff the weighted density norm is finite for this m, the measure's
    mass functional is finite (automatic for finite atom lists), and alpha < 2
    whenever the measure is nonempty.
    """
    mm = as_order(m)
    a = alpha.alpha if isinstance(alpha, GrowthExponent) else GrowthExponent(float(alpha)).alpha
    failures = []
    ok, why = density.norm_finite(mm)
    if not ok:
        failures.append(f"density norm divergent: {why}")
    if len(measure) > 0 and a >= 2:
        failures.append(
            f"alpha must be < 2 when the measure is nonempty, got alpha={a}"
        )
    norm = measure.mass_functional(mm)
    return ScenarioValidation(not failures, tuple(failures), norm)

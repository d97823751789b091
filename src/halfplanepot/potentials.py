"""Poisson integrals and Green potentials.

v(z) integrates the modified Poisson kernel against a boundary density over
[-T, T] for one radius T >= 2|z| + 1 covering the density's support, and
adds the part beyond T in closed form: zero for compact support, a series
for power densities.  The error estimate is the quadrature estimate plus a
bound on the series' remainder and rounding.  h(z) is a finite sum over the
measure's atoms.  The density's norm_finite decides its hypothesis exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryDensity,
    DiscreteMeasure,
    DomainError,
    NumericalFailure,
    PowerDensity,
    QuadratureSpec,
    SingularityError,
    as_interior,
    as_order,
)
from .kernels import modified_green_many, modified_poisson
# not called here; kept so the benchmark's layer tracer can still patch it on this module
from .kernels import modified_green  # noqa: F401
from .quadrature import integrate, one_shot

PI = math.pi
_EPS = 2.0**-52  # the spacing of doubles at 1


@dataclass(frozen=True)
class PoissonIntegralResult:
    value: float
    quad_error: float
    tail_bound: float
    truncation: float
    panels: int

    @property
    def error_estimate(self) -> float:
        return self.quad_error + self.tail_bound


@dataclass(frozen=True)
class PotentialValue:
    """v, h and u = v + h at one point, with the v-error bookkeeping."""

    v: float
    h: float
    u: float
    quad_error: float
    tail_bound: float


def _breakpoints(z: complex, T: float, density: BoundaryDensity):
    """Panel seeds: peak ladder around x at scale y, kernel kinks at +-1,
    density kinks, and a dyadic ladder out to the truncation radius T."""
    pts = {-T, T}
    for p in (-1.0, 1.0, *density.breakpoints()):
        if -T < p < T:
            pts.add(float(p))
    x, y = z.real, z.imag
    if -T < x < T:
        pts.add(x)
    s = y
    while s < 4.0 * T:
        for p in (x - s, x + s):
            if -T < p < T:
                pts.add(p)
        if x - s <= -T and x + s >= T:
            break
        s *= 2.0
    d = 2.0
    while d < T:
        pts.add(d)
        pts.add(-d)
        d *= 2.0
    return sorted(pts)


def _power_poisson_tail(density: PowerDensity, z: complex, m: int, T: float):
    """(value, bound) of the part of v(z) from |xi| > T >= 2|z| + 1.

    There P_m(z, xi) = (1/pi) Im sum_{k>m} z^k / xi^{k+1}; the even k cancel
    between xi and -xi, leaving (2 scale / pi) sum_{k odd, k > m} of
    Im(z^k) T^{s-k} / (k - s) = |z|^s (|z|/T)^{k-s} sin(k th) / (k - s),
    in polar form so that no power overflows.  With k = k0 + 2n, q = (|z|/T)^2
    <= 1/4 bounds the ratio of magnitudes, so the remainder after term n is
    at most the next magnitude over 1 - q; the sum stops once that is below
    eps of the summed magnitudes.  The bound adds (8 k0 + 16 n) eps of the
    summed magnitudes for rounding: 8 k0 for the first term, 16 for each
    further power of q and sine.
    """
    s, k0 = density.s, m + 1 + m % 2
    t, th = abs(z) / T, cmath.phase(z)
    q, d0 = t * t, k0 - s
    power, n = abs(z) ** s * t ** (k0 - s), 0
    acc = mag = 0.0
    while True:
        size = power / (d0 + n * 2.0)
        acc += math.sin((k0 + 2 * n) * th) * size
        mag += size
        power *= q
        rest = power / ((d0 + (n + 1) * 2.0) * (1.0 - q))
        if rest <= _EPS * mag:
            break
        n += 1
    c = 2.0 * density.scale / PI
    return c * acc, abs(c) * (rest + (8.0 * k0 + 16.0 * n) * _EPS * mag)


def poisson_integral(
    density: BoundaryDensity,
    z: complex,
    m: int,
    quad: QuadratureSpec = QuadratureSpec(),
) -> PoissonIntegralResult:
    """v(z): the density integrated against P_m(z, .) over the real line.

    T = max(initial_truncation, 2|z| + 1, 2, support radius).  The coarse
    pass fixes the tolerance max(abs_tol, rel_tol * coarse magnitude) and
    seeds the adaptive pass; half of it budgets the quadrature over [-T, T],
    half the tail beyond T.  A T, density value or tail term past the float
    range (|xi|^s or |z|^s for a steep power density far out) raises
    NumericalFailure.
    """
    zc = as_interior(z)
    mm = as_order(m)
    ok, why = density.norm_finite(mm)
    if not ok:
        raise DomainError(f"density fails the weighted-norm condition for m={mm}: {why}")

    def integrand(xi: float) -> float:
        fv = density.value(xi)
        if fv == 0.0:
            return 0.0
        return modified_poisson(zc, xi, mm) * fv

    T = max(quad.initial_truncation, 2.0 * abs(zc) + 1.0, 2.0)
    if math.isinf(T):
        msg = f"truncation radius 2|z| + 1 passes the float range at |z| = {abs(zc):.3e}"
        raise NumericalFailure(msg, math.nan, math.inf)
    try:
        sup = density.support_radius()
        if math.isinf(sup):
            tail_value, tail_bound = _power_poisson_tail(density, zc, mm, T)
        else:
            T = max(T, sup)
            tail_value = tail_bound = 0.0
        pts = _breakpoints(zc, T, density)
        first_pass = one_shot(integrand, pts)
        coarse = math.fsum(value for value, _err in first_pass)
        tol = max(quad.abs_tol, quad.rel_tol * abs(coarse))
        if not tail_bound <= 0.5 * tol:
            msg = f"tail bound {tail_bound:.3e} beyond T={T:.3e} exceeds half the tolerance"
            raise NumericalFailure(f"{msg}, {0.5 * tol:.3e}", coarse + tail_value, tail_bound)
        res = integrate(
            integrand, pts, abs_tol=0.5 * tol, max_depth=quad.max_depth, first_pass=first_pass
        )
    except OverflowError as exc:
        raise NumericalFailure("v(z) overflows the float range", math.nan, math.inf) from exc
    return PoissonIntegralResult(res.value + tail_value, res.error, tail_bound, T, res.panels)


def green_potential(
    mu: DiscreteMeasure,
    z: complex,
    m: int,
) -> float:
    """h(z): the G_m potential of the measure, an exact finite sum, taken
    with one array evaluation of G_m over the atoms.

    z must stay a relative distance 1e-12 away from every atom; the
    logarithmic singularity makes closer evaluations meaningless.
    """
    zc = as_interior(z)
    mm = as_order(m)
    zetas = mu.positions
    # np.hypot is libm's hypot, as abs(complex) is, so the guard decides as a
    # per-atom abs(z - zeta) test would
    dist = np.hypot(zc.real - zetas.real, zc.imag - zetas.imag)
    near = np.flatnonzero(dist <= 1e-12 * (1.0 + abs(zc)))
    if near.size:
        idx = int(near[0])
        raise SingularityError(
            f"evaluation point {zc} within exclusion distance of atom "
            f"#{idx} at {mu.points[idx]}"
        )
    return math.fsum(mu.weight_array * modified_green_many(zc, zetas, mm))


def subharmonic_eval(
    density: BoundaryDensity,
    mu: DiscreteMeasure,
    z: complex,
    m: int,
    quad: QuadratureSpec = QuadratureSpec(),
) -> PotentialValue:
    """u = v + h at z."""
    vres = poisson_integral(density, z, m, quad)
    h = green_potential(mu, z, m)
    return PotentialValue(
        v=vres.value,
        h=h,
        u=vres.value + h,
        quad_error=vres.quad_error,
        tail_bound=vres.tail_bound,
    )

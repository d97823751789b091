"""Poisson integrals, Green potentials, and the hypothesis norms.

v(z) integrates the modified Poisson kernel against a boundary density with
a certificate-based truncation: the radius T is doubled until an analytic
bound on the discarded tail drops below half the tolerance, so the reported
error estimate (quadrature estimate + tail bound) is trustworthy for the
growth harness.  h(z) is a finite sum over the measure's atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .core import (
    BoundaryDensity,
    DiscreteMeasure,
    DomainError,
    KernelOrder,
    NumericalFailure,
    QuadratureSpec,
    SingularityError,
    as_interior,
    as_order,
)
from .kernels import modified_green, modified_poisson
from .quadrature import integrate, one_shot

PI = math.pi

_MAX_TRUNCATION = 1e305


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


def kernel_tail_sup_bound(z: complex, m: int, radius: float) -> float:
    """sup over |xi| >= radius of |P_m(z, xi)| (1 + |xi|^{2+m}).

    Needs radius >= max(2, 2|z|).  Both factors of the bound
    (1 + R^{-(m+2)}) and R/(R - |z|) decrease in R, so the sup is taken at
    R = radius.
    """
    az = abs(z)
    if radius < 2.0 or radius < 2.0 * az:
        raise DomainError("kernel tail bound needs radius >= max(2, 2|z|)")
    return az ** (m + 1) * (1.0 + radius ** -(m + 2)) * radius / (PI * (radius - az))


def _breakpoints(z: complex, radius: float, density: BoundaryDensity):
    """Panel seeds: peak ladder around x at scale y, kernel kinks at +-1,
    density kinks, and a dyadic ladder out to the truncation radius."""
    T = radius
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


def _truncated_integral(density, integrand, quad, start, center, tail_bound):
    """Integrate over [-T, T], doubling T from start (or the support radius,
    if larger) until tail_bound(T) clears half the tolerance; returns the
    quadrature result, the final tail bound and T.  Panels are seeded around
    center.
    """
    T = start
    sup = density.support_radius()
    if math.isfinite(sup):
        T = max(T, sup)
    coarse = one_shot(integrand, _breakpoints(center, T, density))
    tol = max(quad.abs_tol, quad.rel_tol * abs(coarse))
    while True:
        tail = tail_bound(T)
        if tail <= 0.5 * tol:
            break
        if T > _MAX_TRUNCATION:
            raise NumericalFailure(
                f"tail certificate cannot reach {0.5 * tol:.3e} within the "
                f"floating-point range (still {tail:.3e} at T={T:.3e})",
                coarse,
                tail,
            )
        T *= 2.0
    res = integrate(
        integrand,
        _breakpoints(center, T, density),
        abs_tol=0.5 * tol,
        rel_tol=0.0,
        max_depth=quad.max_depth,
    )
    return res, tail, T


def poisson_integral(
    density: BoundaryDensity,
    z: complex,
    m: Union[KernelOrder, int],
    quad: QuadratureSpec = QuadratureSpec(),
) -> PoissonIntegralResult:
    """v(z): the density integrated against P_m(z, .) over the real line.

    The effective tolerance is max(abs_tol, rel_tol * coarse magnitude); half
    of it budgets the truncation certificate, half the adaptive quadrature.
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

    res, tail, T = _truncated_integral(
        density,
        integrand,
        quad,
        max(quad.initial_truncation, 2.0 * abs(zc) + 1.0, 2.0),
        zc,
        lambda T: kernel_tail_sup_bound(zc, mm, T) * density.tail_norm_bound(mm, T),
    )
    return PoissonIntegralResult(res.value, res.error, tail, T, res.panels)


def density_norm(
    density: BoundaryDensity,
    m: Union[KernelOrder, int],
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """The weighted norm integral of |f|; math.inf when it diverges."""
    mm = as_order(m)
    ok, _why = density.norm_finite(mm)
    if not ok:
        return math.inf

    def integrand(xi: float) -> float:
        fv = density.value(xi)
        if fv == 0.0:
            return 0.0
        return abs(fv) / (1.0 + abs(xi) ** (2 + mm))

    res, _tail, _T = _truncated_integral(
        density,
        integrand,
        quad,
        max(quad.initial_truncation, 2.0),
        complex(0.0, 1.0),
        lambda T: density.tail_norm_bound(mm, T),
    )
    return res.value


def green_potential(
    mu: DiscreteMeasure,
    z: complex,
    m: Union[KernelOrder, int],
) -> float:
    """h(z): the G_m potential of the measure, an exact finite sum.

    z must stay a relative distance 1e-12 away from every atom; the
    logarithmic singularity makes closer evaluations meaningless.
    """
    zc = as_interior(z)
    mm = as_order(m)
    guard = 1e-12 * (1.0 + abs(zc))
    terms = []
    for idx, (pt, w) in enumerate(zip(mu.points, mu.weights)):
        zeta = pt.zeta
        if abs(zc - zeta) <= guard:
            raise SingularityError(
                f"evaluation point {zc} within exclusion distance of atom "
                f"#{idx} at {zeta}"
            )
        terms.append(w * modified_green(zc, zeta, mm))
    return math.fsum(terms)


def subharmonic_eval(
    density: BoundaryDensity,
    mu: DiscreteMeasure,
    z: complex,
    m: Union[KernelOrder, int],
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

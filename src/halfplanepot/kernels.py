"""Point evaluation of the half-plane kernels and their modified forms.

The modified kernels subtract the leading terms of the expansion in 1/zeta
(resp. 1/xi) on |zeta| > 1, which is what makes Poisson/Green integrals
converge against boundary data growing like |xi|^{m+1}.  Every kernel comes
in two evaluation paths:

* a "direct" path evaluating the defining branch formula, and
* a "tail" path summing the complementary series, valid for
  |argument| >= 2|z| and |argument| > 1.

The direct path loses digits to cancellation exactly where the tail series
converges fast, so the two regions complement each other; "auto" switches at
ratio |z|/|argument| = 1/2.

All evaluation is done in polar form (powers as ratio**k times sines of
multiple angles), so no intermediate z**k can overflow even at order 32.

modified_green_many is the array form of G_m for one point over many atoms,
as a Green potential needs it.  It keeps the scalar branch and stop rules
and agrees with modified_green to rounding; the scalar form stays separate
because a one-element numpy call costs fifteen to twenty scalar calls,
and lemma2_bound and the kernel command make one call per point.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Tuple, Union

import numpy as np

from .core import (
    DomainError,
    NumericalFailure,
    SingularityError,
    as_boundary,
    as_interior,
    as_order,
    as_upper,
)

PI = math.pi
TWO_PI = 2.0 * math.pi

# Relative truncation target for tail series; at ratio <= 1/2 this is reached
# in at most ~55 terms.
_TAIL_EPS = 1e-16


class EvalMode(enum.Enum):
    DIRECT = "direct"
    TAIL = "tail"
    AUTO = "auto"


def _as_mode(mode: Union[EvalMode, str]) -> EvalMode:
    if isinstance(mode, EvalMode):
        return mode
    return EvalMode(str(mode))


def fundamental_solution(z: complex) -> float:
    """E(z) = log|z| / (2 pi), the planar fundamental solution."""
    zc = complex(z)
    if zc == 0:
        raise SingularityError("fundamental solution is singular at z = 0")
    return math.log(abs(zc)) / TWO_PI


def modified_fundamental(z: complex, zeta: complex, order: int) -> float:
    """E_n evaluated at the pair (z, zeta).

    For |zeta| <= 1 this is E(z - zeta); for |zeta| > 1 the expansion
    Re(log zeta - sum_{k=1}^{n-1} z^k / (k zeta^k)) is subtracted.  The
    correction depends on z and zeta separately, so this is a two-argument
    function even though the classical notation writes E_n(z - zeta).
    Re(log zeta) is log|zeta|: only real parts enter, so no branch of the
    complex logarithm is involved.
    """
    zc = complex(z)
    zetac = complex(zeta)
    n = int(order)
    if n < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if zc == zetac:
        raise SingularityError("modified fundamental solution is singular at z = zeta")
    base = fundamental_solution(zc - zetac)
    azeta = abs(zetac)
    if azeta <= 1.0:
        return base
    correction = math.log(azeta)
    if n >= 2:
        t = abs(zc) / azeta
        phi = cmath.phase(zc) - cmath.phase(zetac) if zc != 0 else 0.0
        tk = 1.0
        acc = 0.0
        for k in range(1, n):
            tk *= t
            acc += tk * math.cos(k * phi) / k
        correction -= acc
    return base - correction / TWO_PI


def green(z: complex, zeta: complex) -> float:
    """G(z, zeta) = E(z - zeta) - E(z - conj(zeta)); nonpositive on the half plane.

    Uses the identity |z - conj(zeta)|^2 = |z - zeta|^2 + 4 y eta, so the value
    comes out of a single log1p with no cancellation even for distant zeta.
    """
    zc = as_interior(z)
    zetac = as_upper(zeta)
    d = zc - zetac
    d2 = d.real * d.real + d.imag * d.imag
    if d2 == 0.0:
        raise SingularityError("Green function is singular at z = zeta")
    return -math.log1p(4.0 * zc.imag * zetac.imag / d2) / (2.0 * TWO_PI)


def _green_correction_sum(t: float, th_z: float, th_zeta: float, m: int) -> float:
    # sum_{k=1}^{m} t^k sin(k th_z) sin(k th_zeta) / k
    acc = 0.0
    tk = 1.0
    for k in range(1, m + 1):
        tk *= t
        acc += tk * math.sin(k * th_z) * math.sin(k * th_zeta) / k
    return acc


def modified_green(
    z: complex,
    zeta: complex,
    m: int,
    mode: Union[EvalMode, str] = EvalMode.AUTO,
) -> float:
    """G_m(z, zeta) = E_{m+1}(z, zeta) - E_{m+1}(z, conj(zeta)).

    Direct path (any zeta != z): for |zeta| > 1 the log|zeta| terms of the two
    E_{m+1} cancel, leaving

        G_m = G + (1/pi) sum_{k=1}^{m} t^k sin(k th_z) sin(k th_zeta) / k,

    with t = |z|/|zeta|; for |zeta| <= 1 it is G itself.

    Tail path (|zeta| >= 2|z|, |zeta| > 1): the complementary series

        G_m = -(1/pi) sum_{k=m+1}^{oo} t^k sin(k th_z) sin(k th_zeta) / k,

    truncated when the geometric remainder bound t^{k+1}/((k+1)(1-t)) drops
    below 1e-16 of the leading-term scale.  If that takes more than 4000
    terms, which cannot happen at t <= 1/2, NumericalFailure carries the
    partial sum and the last remainder bound (both divided by pi).
    """
    zc = as_interior(z)
    zetac = as_upper(zeta)
    mm = as_order(m)
    if zc == zetac:
        raise SingularityError("modified Green function is singular at z = zeta")
    if zetac.imag == 0.0:
        # zeta = conj(zeta): the two E_{m+1} terms coincide identically, and
        # phase(zeta) = pi on the negative axis would leave sin(k pi) residue
        return 0.0
    evmode = _as_mode(mode)
    azeta = abs(zetac)
    az = abs(zc)
    tail_ok = azeta > 1.0 and az <= 0.5 * azeta
    if evmode is EvalMode.AUTO:
        evmode = EvalMode.TAIL if tail_ok else EvalMode.DIRECT
    elif evmode is EvalMode.TAIL and not tail_ok:
        raise DomainError(
            f"tail form of G_m needs |zeta| > 1 and |zeta| >= 2|z|, "
            f"got |z|={az}, |zeta|={azeta}"
        )

    if evmode is EvalMode.DIRECT:
        g = green(zc, zetac)
        if azeta <= 1.0 or mm == 0:
            return g
        th_z = cmath.phase(zc)
        th_zeta = cmath.phase(zetac)
        return g + _green_correction_sum(az / azeta, th_z, th_zeta, mm) / PI

    t = az / azeta
    th_z = cmath.phase(zc)
    th_zeta = cmath.phase(zetac)
    acc = 0.0
    tk = t**mm
    lead_scale = t ** (mm + 1) / (mm + 1)
    k = mm
    while True:
        k += 1
        tk *= t
        acc -= tk * math.sin(k * th_z) * math.sin(k * th_zeta) / k
        remainder = tk * t / ((k + 1) * (1.0 - t))
        if remainder <= _TAIL_EPS * max(abs(acc), lead_scale):
            break
        if k > mm + 4000:  # unreachable for t <= 1/2
            raise NumericalFailure(
                f"tail series of G_m did not converge in 4000 terms "
                f"(|z|/|zeta| = {t})",
                acc / PI,
                remainder / PI,
            )
    return acc / PI


def modified_green_many(z: complex, zetas, m: int) -> np.ndarray:
    """G_m(z, zeta_j) for one interior z and each atom of the 1-d complex
    array zetas: modified_green in AUTO mode, element by element.

    The paths, branch rule, eta = 0 rule and tail stop rule are the scalar
    ones; the tail series runs one loop over k on all tail elements, each
    leaving it at its own stopping k, and raises NumericalFailure (for the
    first element still running) past k = m + 4000.  Values can differ from
    the scalar ones in the last bits, where numpy's sin, atan2, log1p and
    pow round differently from the math module's.  A point equal to an atom
    raises SingularityError naming the atom's index.
    """
    zc = as_interior(z)
    mm = as_order(m)
    zeta = np.asarray(zetas, dtype=complex)
    xi, eta = zeta.real, zeta.imag
    if not (np.isfinite(xi).all() and np.isfinite(eta).all() and (eta >= 0.0).all()):
        raise ValueError("atoms must be finite points of the closed upper half plane")
    out = np.zeros(len(zeta))
    az = abs(zc)
    # cmath.phase's value, without its OverflowError where the angle underflows
    th_z = math.atan2(zc.imag, zc.real)
    azeta = np.hypot(xi, eta)
    live = eta != 0.0
    tail = live & (azeta > 1.0) & (az <= 0.5 * azeta)

    idx = np.flatnonzero(live & ~tail)
    dx, dy = zc.real - xi[idx], zc.imag - eta[idx]
    d2 = dx * dx + dy * dy
    hit = np.flatnonzero(d2 == 0.0)
    if hit.size:
        raise SingularityError(
            f"modified Green function is singular at z = zeta (atom #{idx[hit[0]]})"
        )
    g = -np.log1p(4.0 * zc.imag * eta[idx] / d2) / (2.0 * TWO_PI)
    far = azeta[idx] > 1.0
    if mm and far.any():
        sel = idx[far]
        t = az / azeta[sel]
        th = np.arctan2(eta[sel], xi[sel])
        acc = np.zeros(len(sel))
        tk = np.ones(len(sel))
        for k in range(1, mm + 1):
            tk *= t
            acc += tk * math.sin(k * th_z) * np.sin(k * th) / k
        g[far] += acc / PI
    out[idx] = g

    idx = np.flatnonzero(tail)
    t = az / azeta[idx]
    th = np.arctan2(eta[idx], xi[idx])
    acc = np.zeros(len(idx))
    tk = t**mm
    lead_scale = t ** (mm + 1) / (mm + 1)
    k = mm
    while len(idx):
        k += 1
        tk *= t
        acc -= tk * math.sin(k * th_z) * np.sin(k * th) / k
        remainder = tk * t / ((k + 1) * (1.0 - t))
        done = remainder <= _TAIL_EPS * np.maximum(np.abs(acc), lead_scale)
        if done.any():
            out[idx[done]] = acc[done] / PI
            run = ~done
            idx, t, th, tk, acc = idx[run], t[run], th[run], tk[run], acc[run]
            lead_scale, remainder = lead_scale[run], remainder[run]
        if len(idx) and k > mm + 4000:  # unreachable for t <= 1/2
            raise NumericalFailure(
                f"tail series of G_m did not converge in 4000 terms "
                f"(|z|/|zeta| = {t[0]}, atom #{idx[0]})",
                acc[0] / PI,
                remainder[0] / PI,
            )
    return out


def poisson(z: complex, xi: float) -> float:
    """Poisson kernel P(z, xi) = y / (pi |z - xi|^2); strictly positive."""
    return modified_poisson(z, xi, 0, EvalMode.DIRECT)


def _poisson_correction_sum(az: float, th_z: float, xi: float, m: int) -> float:
    # Im sum_{k=0}^{m} z^k / xi^{1+k}  =  sum sgn^{k+1} sin(k th_z) t^k / |xi|
    # (the k = 0 term vanishes).
    axi = abs(xi)
    sgn = 1.0 if xi > 0 else -1.0
    t = az / axi
    acc = 0.0
    tk = 1.0
    sk = sgn  # sgn^(k+1)
    for k in range(1, m + 1):
        tk *= t
        sk *= sgn
        acc += sk * math.sin(k * th_z) * tk
    return acc / axi


def modified_poisson(
    z: complex,
    xi: float,
    m: int,
    mode: Union[EvalMode, str] = EvalMode.AUTO,
) -> float:
    """Modified Poisson kernel P_m(z, xi); may be negative for |xi| > 1.

    Direct: P(z, xi) = y / (pi |z - xi|^2) for |xi| <= 1, else P minus
    (1/pi) Im sum_{k=0}^{m} z^k / xi^{1+k}.

    Tail (|xi| >= 2|z|, |xi| > 1): the complementary series in closed
    geometric form, (1/pi) Im( z^{m+1} / (xi^{m+1} (xi - z)) ), computed in
    polar form so no power overflows.
    """
    zc = as_interior(z)
    x = as_boundary(xi)
    mm = as_order(m)
    evmode = _as_mode(mode)
    az = abs(zc)
    axi = abs(x)
    tail_ok = axi > 1.0 and az <= 0.5 * axi
    if evmode is EvalMode.AUTO:
        evmode = EvalMode.TAIL if tail_ok else EvalMode.DIRECT
    elif evmode is EvalMode.TAIL and not tail_ok:
        raise DomainError(
            f"tail form of P_m needs |xi| > 1 and |xi| >= 2|z|, got |z|={az}, |xi|={axi}"
        )

    if evmode is EvalMode.DIRECT:
        dx = zc.real - x
        p = zc.imag / (PI * (dx * dx + zc.imag * zc.imag))
        if axi <= 1.0 or mm == 0:
            return p
        th_z = cmath.phase(zc)
        return p - _poisson_correction_sum(az, th_z, x, mm) / PI

    # Im(z^{m+1} / (xi^{m+1} (xi - z))) = t^{m+1} sgn^{m+1} Im(e^{i(m+1)th} / (xi - z))
    t = az / axi
    th_z = cmath.phase(zc)
    sgn = 1.0 if x > 0 else -1.0
    phase = cmath.exp(1j * (mm + 1) * th_z)
    w = phase / (x - zc)
    return (t ** (mm + 1)) * (sgn ** (mm + 1)) * w.imag / PI


# ---------------------------------------------------------------------------
# Magnitude envelopes (analytic upper bounds for |P_m| and |G_m| in the tail
# region).  The package computes nothing from them: they are the reference
# scale of the dual-path consistency checks.
# ---------------------------------------------------------------------------


def poisson_tail_envelope(z: complex, xi: float, m: int) -> float:
    """Bound |P_m(z, xi)| <= t^{m+1} / (pi |xi| (1 - t)) for t = |z|/|xi| < 1."""
    az = abs(complex(z))
    axi = abs(float(xi))
    t = az / axi
    if t >= 1.0:
        raise DomainError("poisson tail envelope needs |xi| > |z|")
    return t ** (m + 1) / (PI * axi * (1.0 - t))


def green_tail_envelope(z: complex, zeta: complex, m: int) -> float:
    """Bound |G_m(z, zeta)| <= t^{m+1} / (pi (m+1) (1 - t)) for t = |z|/|zeta| < 1."""
    t = abs(complex(z)) / abs(complex(zeta))
    if t >= 1.0:
        raise DomainError("green tail envelope needs |zeta| > |z|")
    return t ** (m + 1) / (PI * (m + 1) * (1.0 - t))


# ---------------------------------------------------------------------------
# The four kernel inequalities (left side exactly, right side as printed)
# ---------------------------------------------------------------------------


def lemma2_bound(
    case: int,
    z: complex,
    arg: Union[complex, float],
    m: int,
) -> Tuple[float, float]:
    """Return (lhs, rhs) of kernel inequality `case` in {1, 2, 3, 4}.

    Case 1: |Im sum_{k=0}^{m} z^k/xi^{1+k}|            vs sum_{k=0}^{m-1} 2^k y|z|^k/|xi|^{2+k}
    Case 2: |Im sum_{k>=0} z^{k+m+1}/xi^k|             vs 2^{m+1} y |z|^m
            (closed form Im(z^{m+1} xi/(xi-z)); needs |xi - z| >= 3|z|)
    Case 3: |G_m - G|                                  vs (1/pi) sum_{k=1}^{m} k y eta |z|^{k-1}/|zeta|^{1+k}   (|zeta| > 1)
    Case 4: |G_m|                                      vs (1/pi) sum_{k>m} k y eta |z|^{k-1}/|zeta|^{1+k}
            (rhs in closed derivative-of-geometric form; needs |zeta| > max(1, 2|z|))

    Preconditions are enforced with DomainError; the contract everywhere is
    lhs <= rhs * (1 + 1e-12).
    """
    zc = as_interior(z)
    mm = as_order(m)
    az = abs(zc)
    y = zc.imag
    th_z = cmath.phase(zc)

    if case == 1:
        x = as_boundary(arg)
        if x == 0.0:
            raise DomainError("case 1 needs xi != 0")
        lhs = abs(_poisson_correction_sum(az, th_z, x, mm))
        axi = abs(x)
        rhs = 0.0
        u = 1.0  # (2 |z| / |xi|)^k
        base = y / (axi * axi)
        for _k in range(0, mm):
            rhs += base * u
            u *= 2.0 * az / axi
        return lhs, rhs

    if case == 2:
        x = as_boundary(arg)
        if abs(x - zc) < 3.0 * az:
            raise DomainError("case 2 needs |xi - z| >= 3|z|")
        # Im(z^{m+1} xi / (xi - z)) in polar form
        t_pow = az ** (mm + 1)
        phase = cmath.exp(1j * (mm + 1) * th_z)
        lhs = abs(t_pow * (phase * (x / (x - zc))).imag)
        rhs = 2.0 ** (mm + 1) * y * az**mm
        return lhs, rhs

    zetac = as_upper(arg)
    azeta = abs(zetac)
    eta = zetac.imag
    th_zeta = cmath.phase(zetac)

    if case == 3:
        if azeta <= 1.0:
            raise DomainError("case 3 needs |zeta| > 1")
        t = az / azeta
        if eta == 0.0:
            # G_m - G vanishes identically on the boundary (rhs is 0 too)
            return 0.0, 0.0
        lhs = abs(_green_correction_sum(t, th_z, th_zeta, mm)) / PI
        series = 0.0
        tk = 1.0
        for k in range(1, mm + 1):
            tk *= t
            series += k * tk
        rhs = y * eta * series / (PI * az * azeta)
        return lhs, rhs

    if case == 4:
        if azeta <= max(1.0, 2.0 * az):
            raise DomainError("case 4 needs |zeta| > max(1, 2|z|)")
        lhs = abs(modified_green(zc, zetac, mm, EvalMode.TAIL))
        t = az / azeta
        # sum_{k>m} k t^k = t^{m+1} ((m+1) - m t) / (1-t)^2, written without
        # dividing by |z| so z near the imaginary axis costs nothing.
        series = (t ** (mm + 1)) * ((mm + 1) - mm * t) / (1.0 - t) ** 2
        rhs = y * eta * series / (PI * az * azeta)
        return lhs, rhs

    raise ValueError(f"case must be 1, 2, 3 or 4, got {case!r}")

"""Globally adaptive Gauss-Kronrod (7, 15) quadrature over a panel list.

The caller supplies the initial breakpoints (peak seeds, kernel kinks,
density kinks, dyadic ladder out to the truncation radius); the engine
bisects whichever live panel currently reports the largest error until the
summed estimate clears the budget.  Everything is deterministic: the heap is
tie-broken by insertion order and the final value is an fsum over panels in
interval order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .core import NumericalFailure

# (7, 15) Gauss-Kronrod pair on [-1, 1]: QUADPACK's dqk15 constants to 33
# digits.  The odd indices of _XGK are the Gauss-7 nodes.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_MAX_PANELS = 200_000


@dataclass
class QuadResult:
    value: float
    error: float
    panels: int
    evals: int  # integrand evaluations made by this call


def _gk15(f: Callable[[float], float], a: float, b: float):
    """One Kronrod-15 application on [a, b]; error estimate |K15 - G7|."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        x = h * _XGK[i]
        s = f(c - x) + f(c + x)
        kron += _WGK[i] * s
        if i % 2 == 1:  # Kronrod nodes 1, 3, 5 are the Gauss-7 nodes
            gauss += _WG[i // 2] * s
    kron *= h
    gauss *= h
    return kron, abs(kron - gauss)


def integrate(
    f: Callable[[float], float],
    breakpoints: Sequence[float],
    abs_tol: float,
    rel_tol: float = 0.0,
    max_depth: int = 60,
    *,
    first_pass: Optional[Sequence[Tuple[float, float]]] = None,
) -> QuadResult:
    """Integrate f over [breakpoints[0], breakpoints[-1]].

    Refines until the summed per-panel error estimate is below
    max(abs_tol, rel_tol * |value|); raises NumericalFailure (carrying the
    best value and estimate) if every remaining panel has hit max_depth.
    first_pass is one_shot(f, breakpoints) when the caller has it already;
    its panels are then not evaluated again.
    """
    pts = sorted(set(float(p) for p in breakpoints))
    if len(pts) < 2:
        raise ValueError("need at least two breakpoints")
    initial = [(a, b) for a, b in zip(pts, pts[1:]) if b > a]
    evals = 0
    if first_pass is None:
        first_pass = one_shot(f, pts)
        evals = 15 * len(initial)
    if len(first_pass) != len(initial):
        raise ValueError(f"first pass has {len(first_pass)} panels, expected {len(initial)}")

    heap = []  # (-err, seq, a, b, depth, value, err)
    frozen = []  # panels at max_depth: (a, b, value, err)
    seq = 0
    total_value = 0.0
    total_error = 0.0
    width_floor = 1e-15

    def push(a, b, depth, val, err):
        nonlocal seq, total_value, total_error
        total_value += val
        total_error += err
        if depth >= max_depth or (b - a) < width_floor * max(1.0, abs(a), abs(b)):
            frozen.append((a, b, val, err))
        else:
            heapq.heappush(heap, (-err, seq, a, b, depth, val, err))
        seq += 1

    for (a, b), (val, err) in zip(initial, first_pass):
        push(a, b, 0, val, err)

    def finish():
        live = [(a, b, v, e) for (_, _, a, b, _, v, e) in heap] + frozen
        live.sort()
        value = math.fsum(p[2] for p in live)
        error = math.fsum(p[3] for p in live)
        return value, error, len(live)

    while True:
        tol = max(abs_tol, rel_tol * abs(total_value))
        if total_error <= tol:
            # running totals drift; confirm with an exact resum
            value, error, n = finish()
            if error <= max(abs_tol, rel_tol * abs(value)):
                return QuadResult(value, error, n, evals)
            total_value, total_error = value, error
        if not heap:
            value, error, n = finish()
            raise NumericalFailure(
                f"quadrature stalled at error {error:.3e} > tolerance "
                f"{max(abs_tol, rel_tol * abs(value)):.3e} with all {n} panels at "
                f"max depth {max_depth}",
                value,
                error,
            )
        if seq > _MAX_PANELS:
            value, error, n = finish()
            raise NumericalFailure(
                f"quadrature exceeded {_MAX_PANELS} panels (error {error:.3e})",
                value,
                error,
            )
        _, _, a, b, depth, val, err = heapq.heappop(heap)
        total_value -= val
        total_error -= err
        mid = 0.5 * (a + b)
        push(a, mid, depth + 1, *_gk15(f, a, mid))
        push(mid, b, depth + 1, *_gk15(f, mid, b))
        evals += 30


def one_shot(
    f: Callable[[float], float], breakpoints: Sequence[float]
) -> List[Tuple[float, float]]:
    """Single unrefined pass over the panels: the (value, error) of each, in
    interval order.  The fsum of the values is a cheap magnitude estimate."""
    pts = sorted(set(float(p) for p in breakpoints))
    return [_gk15(f, a, b) for a, b in zip(pts, pts[1:]) if b > a]

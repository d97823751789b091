import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfplanepot import (
    DiscreteMeasure,
    DomainError,
    IndicatorDensity,
    NumericalFailure,
    PowerDensity,
    QuadratureSpec,
    SingularityError,
    TabulatedDensity,
    green,
    green_potential,
    modified_green,
    modified_green_many,
    poisson,
    poisson_integral,
    subharmonic_eval,
)
from halfplanepot import potentials
from halfplanepot.potentials import _power_poisson_tail

TIGHT = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-12)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

# every entry point taking an interior point z as a plain complex
INTERIOR_ENTRY_POINTS = {
    "poisson": lambda z: poisson(z, 0.5),
    "modified_green": lambda z: modified_green(z, 2j, 1),
    "modified_green_many": lambda z: modified_green_many(z, [2j], 1),
    "poisson_integral": lambda z: poisson_integral(IndicatorDensity(-1.0, 1.0, 1.0), z, 0),
    "green_potential": lambda z: green_potential(DiscreteMeasure.empty(), z, 0),
}


class TestInteriorPoint:
    @given(finite, st.floats(min_value=1e-300, max_value=1e300))
    def test_accepts_interior(self, x, y):
        assert poisson(complex(x, y), 0.5) >= 0.0
        assert green_potential(DiscreteMeasure.empty(), complex(x, y), 0) == 0.0

    @pytest.mark.parametrize("entry", sorted(INTERIOR_ENTRY_POINTS))
    @given(x=finite, y=st.floats(max_value=0.0, allow_nan=False))
    def test_rejects_boundary_and_below(self, entry, x, y):
        with pytest.raises(ValueError):
            INTERIOR_ENTRY_POINTS[entry](complex(x, y))

    @pytest.mark.parametrize("entry", sorted(INTERIOR_ENTRY_POINTS))
    def test_rejects_nan(self, entry):
        for z in (complex(math.nan, 1.0), complex(0.0, math.inf)):
            with pytest.raises(ValueError):
                INTERIOR_ENTRY_POINTS[entry](z)


def v_oracle(f: PowerDensity, z: complex, m: int) -> float:
    """v(z) for f = scale |xi|^s at 20 digits.

    [-T, T], T = max(2|z|, 2), by tanh-sinh quadrature with breakpoints at
    the kinks and around the peak at x; beyond T the closed form
    (2 scale / pi) sum_{k odd, k > m} Im(z^k) T^{s-k} / (k - s).  For
    |xi| > 1 the kernel is (1/pi) Im((z/xi)^{m+1} / (xi - z)), the subtracted
    form without its cancellation.
    """
    s = f.s
    with mp.workdps(20):
        zz = mp.mpc(z.real, z.imag)
        x, y = zz.real, zz.imag
        zm = zz ** (m + 1)

        def integrand(xi):
            if abs(xi) > 1:
                p = mp.im(zm / (xi ** (m + 1) * (xi - zz)))
            else:
                p = y / ((x - xi) ** 2 + y * y)
            return p * abs(xi) ** s

        T = max(2.0 * abs(z), 2.0)
        pts = {-T, -1.0, 0.0, 1.0, T}
        for d in (0.0, 1.0, 4.0, 16.0, 64.0):
            pts.update(p for p in (z.real - d * z.imag, z.real + d * z.imag) if -T < p < T)
        inner = mp.quad(integrand, sorted(mp.mpf(p) for p in pts))
        tail, k = mp.mpf(0), m + 1 + m % 2
        while True:
            term = 2 * mp.im(zz**k) * mp.mpf(T) ** (s - k) / (k - s)
            tail += term
            if abs(term) <= mp.mpf(10) ** -25 * abs(tail) or term == 0:
                break
            k += 2
        return float(f.scale * (inner + tail) / mp.pi)


def mp_tail(integrand, T: float, a: float) -> float:
    """int_T^oo integrand(xi) dxi at 30 digits for an integrand ~ xi^{-1-a}:
    xi = T w^{-1/a} maps it to a smooth integrand on (0, 1]."""
    with mp.workdps(30):
        T = mp.mpf(T)
        return float(
            mp.quad(lambda w: integrand(T * w ** (-1 / a)) * T / a * w ** (-1 / a - 1), [0, 1])
        )


class TestPowerTails:
    @pytest.mark.parametrize(
        "s,m,z",
        [
            (1.5, 1, 3 + 4j),
            (-0.5, 0, 0.1j),
            (1.999, 1, cmath.rect(30.0, math.pi - 1e-3)),
            (5.5, 6, cmath.rect(1e4, 1e-3)),
            (0.0, 32, 2 + 0.5j),
        ],
    )
    def test_poisson_tail_against_mpmath(self, s, m, z):
        # int_{|xi| > T} P_m(z, xi) scale |xi|^s dxi, directly
        T = max(8.0, 2 * abs(z) + 1)
        f = PowerDensity(s, -1.5)
        value, bound = _power_poisson_tail(f, z, m, T)
        zz = mp.mpc(z.real, z.imag)
        kern = lambda xi: mp.im((zz / xi) ** (m + 1) / (xi - zz)) / mp.pi
        ref = f.scale * mp_tail(
            lambda xi: (kern(xi) + kern(-xi)) * xi**s, T, m + 1 + m % 2 - s
        )
        assert abs(value - ref) <= bound

    def test_zero_scale_has_no_tail(self):
        # scale 0 passes the norm condition for any s; its support is empty
        f = PowerDensity(7.0, 0.0)
        assert f.support_radius() == 0.0
        res = poisson_integral(f, 1j, 1)
        assert (res.value, res.tail_bound, res.truncation) == (0.0, 0.0, 8.0)


def indicator_poisson_closed_form(z: complex, a: float, b: float, height: float) -> float:
    """(height/pi)(arctan((b-x)/y) - arctan((a-x)/y)); oracle for the plain kernel."""
    return (
        height
        * (math.atan((b - z.real) / z.imag) - math.atan((a - z.real) / z.imag))
        / math.pi
    )


class TestPoissonIntegral:
    def test_float_overflow_is_numerical_failure(self):
        # |z|^s and |xi|^s near the truncation radius pass the float range
        with pytest.raises(NumericalFailure, match="overflows the float range") as exc:
            poisson_integral(PowerDensity(31.0), 1e10j, 32)
        assert math.isnan(exc.value.value)
        assert exc.value.estimate == math.inf

    def test_initial_panels_evaluated_once(self, monkeypatch):
        # one coarse pass fixes the tolerance and seeds the adaptive pass
        f, z = PowerDensity(0.0), 3 + 2j  # f = 1, so every node reaches the kernel
        kernel_calls, passes = [], []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                (kernel_calls if name == "kernel" else passes).append(name)
                return fn(*args, **kwargs)
            return wrapper

        for attr, name in (("modified_poisson", "kernel"), ("one_shot", "one_shot"),
                           ("integrate", "integrate")):
            monkeypatch.setattr(potentials, attr, counted(name, getattr(potentials, attr)))
        res = poisson_integral(f, z, 0)
        initial = len(potentials._breakpoints(z, res.truncation, f)) - 1
        assert passes == ["one_shot", "integrate"]
        # each bisection adds one panel and evaluates two
        assert len(kernel_calls) == 15 * (initial + 2 * (res.panels - initial))

    def test_zero_density(self):
        res = poisson_integral(IndicatorDensity(0.0, 0.0, 1.0), 1j, 0, TIGHT)
        assert res.value == 0.0
        assert res.tail_bound == 0.0

    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_indicator_half_at_i(self, m):
        res = poisson_integral(IndicatorDensity(-1.0, 1.0, 1.0), 1j, m, TIGHT)
        assert abs(res.value - 0.5) < 1e-6

    def test_indicator_closed_form_off_axis(self):
        f = IndicatorDensity(-2.5, 0.5, 3.0)
        for z in (0.3 + 0.7j, -1 + 2j, 4 + 0.5j):
            res = poisson_integral(f, z, 0, TIGHT)
            exact = indicator_poisson_closed_form(z, -2.5, 0.5, 3.0)
            assert abs(res.value - exact) <= max(res.error_estimate, 1e-9)

    def test_constant_density_normalization(self):
        res = poisson_integral(PowerDensity(0.0, 1.0), 1 + 2j, 0, QuadratureSpec(abs_tol=1e-7, rel_tol=1e-12))
        assert abs(res.value - 1.0) < 1e-6

    def test_error_estimate_within_request(self):
        res = poisson_integral(PowerDensity(0.0, 1.0), 1j, 0, QuadratureSpec(abs_tol=1e-8, rel_tol=1e-12))
        assert res.error_estimate <= 1e-8

    def test_divergent_density_rejected(self):
        with pytest.raises(DomainError):
            poisson_integral(PowerDensity(2.0), 1j, 1, TIGHT)

    def test_quadrature_honesty(self):
        # halving abs_tol moves the value by at most the previous estimate
        rng = np.random.default_rng(1)
        scenarios = []
        for _ in range(10):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.3, 3))
            scenarios.append((IndicatorDensity(-2.0, 1.0, 1.5), z, int(rng.integers(0, 3))))
            scenarios.append((PowerDensity(0.5, 2.0), z, int(rng.integers(1, 4))))
        for f, z, m in scenarios:
            tol = 1e-5
            prev = poisson_integral(f, z, m, QuadratureSpec(abs_tol=tol, rel_tol=1e-13))
            for _ in range(6):
                tol /= 2
                cur = poisson_integral(f, z, m, QuadratureSpec(abs_tol=tol, rel_tol=1e-13))
                assert abs(cur.value - prev.value) <= prev.error_estimate * (1 + 1e-9) + 1e-15
                prev = cur

    def test_linearity_scaling(self):
        # indicator and power families are closed under height/scale scaling
        z = 0.4 + 1.3j
        f1 = IndicatorDensity(-1.5, 0.5, 1.0)
        f2 = IndicatorDensity(-1.5, 0.5, -2.5)
        v1 = poisson_integral(f1, z, 1, TIGHT).value
        v2 = poisson_integral(f2, z, 1, TIGHT).value
        assert abs(v2 - (-2.5) * v1) < 1e-8
        g1 = PowerDensity(0.7, 1.0)
        g2 = PowerDensity(0.7, 3.25)
        w1 = poisson_integral(g1, z, 1, TIGHT).value
        w2 = poisson_integral(g2, z, 1, TIGHT).value
        assert abs(w2 - 3.25 * w1) <= 1e-8 * max(1.0, abs(w2))

    def test_linearity_combination(self):
        # tabulated densities on a shared knot grid are closed under a f + b g
        z = -0.6 + 0.9j
        xs = (-2.0, -0.5, 0.0, 1.0, 3.0)
        v1s = (0.0, 1.0, -0.5, 2.0, 0.0)
        v2s = (0.0, -2.0, 1.5, 0.5, 0.0)
        a, b = 2.0, -1.5
        f = TabulatedDensity(tuple(zip(xs, v1s)))
        g = TabulatedDensity(tuple(zip(xs, v2s)))
        combo = TabulatedDensity(tuple((x, a * u + b * w) for x, u, w in zip(xs, v1s, v2s)))
        vf = poisson_integral(f, z, 1, TIGHT).value
        vg = poisson_integral(g, z, 1, TIGHT).value
        vc = poisson_integral(combo, z, 1, TIGHT).value
        assert abs(vc - (a * vf + b * vg)) < 1e-8

    def test_tabulated_wide_support_against_trapezoid(self):
        # support reaching past the default truncation forces the compact-
        # support tail handling; oracle by dense trapezoid of P * f
        f = TabulatedDensity(((-40.0, 0.0), (-10.0, 3.0), (25.0, 1.0), (60.0, 0.0)))
        z = 2.0 + 1.5j
        res = poisson_integral(f, z, 0, TIGHT)
        xs = np.linspace(-40.0, 60.0, 2_000_001)
        kern = z.imag / (math.pi * ((z.real - xs) ** 2 + z.imag**2))
        vals = np.array([f.value(x) for x in np.linspace(-40.0, 60.0, 2_000_001)])
        oracle = float(np.trapezoid(kern * vals, xs))
        assert abs(res.value - oracle) < 1e-6

    def test_slowly_decaying_power(self):
        # f = |xi|^1.999 at m = 1: the part beyond T decays like T^-0.001,
        # and its closed form carries it
        z = 3 + 4j
        res = poisson_integral(PowerDensity(1.999), z, 1)
        assert res.truncation == 11.0
        ref = v_oracle(PowerDensity(1.999), z, 1)
        assert abs(res.value - ref) <= res.error_estimate

    @pytest.mark.parametrize("density", [IndicatorDensity(-1.0, 1.0, 1.0), PowerDensity(0.5)])
    @pytest.mark.parametrize("z", [1e308j, 1e308 + 1e308j])
    def test_truncation_radius_past_float_range(self, monkeypatch, density, z):
        # 2|z| + 1 is inf: the failure comes before the first panel is evaluated
        def no_panels(*args, **kwargs):
            raise AssertionError("a panel was evaluated")

        monkeypatch.setattr(potentials, "one_shot", no_panels)
        with pytest.raises(NumericalFailure, match="truncation radius") as exc:
            poisson_integral(density, z, 0)
        assert math.isnan(exc.value.value) and exc.value.estimate == math.inf

    def test_one_truncation_radius(self):
        # T is max(initial_truncation, 2|z| + 1, 2, support radius), not searched for
        assert poisson_integral(PowerDensity(1.5), 1j, 1).truncation == 8.0
        assert poisson_integral(PowerDensity(1.5), 30 + 40j, 1).truncation == 101.0
        q = QuadratureSpec(initial_truncation=500.0)
        assert poisson_integral(PowerDensity(1.5), 30 + 40j, 1, q).truncation == 500.0
        wide = TabulatedDensity(((-40.0, 0.0), (-10.0, 3.0), (25.0, 1.0), (60.0, 0.0)))
        res = poisson_integral(wide, 2.0 + 1.5j, 0)
        assert res.truncation == 60.0 and res.tail_bound == 0.0

    def test_tail_bound_beyond_tolerance(self):
        # a 1e-300 tolerance leaves no room for the rounding of the tail series
        absurd = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(NumericalFailure, match="tail bound"):
            poisson_integral(PowerDensity(1.5), 3 + 4j, 1, absurd)

    def test_error_estimate_honest_against_mpmath(self):
        # |v - v_mpmath| <= quad_error + tail_bound over s, m and |z| = 0.1 .. 1e4,
        # on the rays near 0, at pi/2 and near pi (each (s, m) meets every
        # radius and, across pairs, every ray)
        q = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7)
        rays = (1e-3, math.pi / 2, math.pi - 1e-3)
        pairs = [(s, m) for s in (-0.5, 0.0, 1.5, 1.999, 5.5) for m in (0, 1, 2, 6, 32) if s < m + 1]
        assert len(pairs) == 20
        for i, (s, m) in enumerate(pairs):
            for j, r in enumerate((0.1, 3.0, 1e4)):
                z = cmath.rect(r, rays[(i + j) % 3])
                f = PowerDensity(s, 1.0 if i % 2 else -2.5)
                res = poisson_integral(f, z, m, q)
                ref = v_oracle(f, z, m)
                assert abs(res.value - ref) <= res.error_estimate, (s, m, z)

    def test_harmonicity_of_v(self):
        # 5-point Laplacian at step 1e-2 below 1e-3 of the local value
        f = IndicatorDensity(-1.0, 1.0, 1.0)
        q = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-13)
        rng = np.random.default_rng(2)
        d = 1e-2
        for _ in range(20):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.5, 4.0))
            vals = [
                poisson_integral(f, z + dz, 0, q).value
                for dz in (d, -d, 1j * d, -1j * d, 0)
            ]
            lap = (vals[0] + vals[1] + vals[2] + vals[3] - 4 * vals[4]) / d**2
            assert abs(lap) <= 1e-3 * abs(vals[4])


class TestDensityNorm:
    def test_critical_power_divergent(self):
        # int |xi|^s / (1 + |xi|^2) diverges at s = 1 (infinity) and s = -1 (origin)
        assert not PowerDensity(1.0).norm_finite(0)[0]
        assert not PowerDensity(-1.0).norm_finite(0)[0]


class TestGreenPotential:
    def test_empty(self):
        assert green_potential(DiscreteMeasure.empty(), 1j, 3) == 0.0

    def test_single_atom_inside_unit_disc(self):
        mu = DiscreteMeasure.from_triples([(0.0, 0.5, 2.0)])
        expected = 2 * green(1j, 0.5j)
        for m in (0, 1, 5):
            assert math.isclose(green_potential(mu, 1j, m), expected, rel_tol=1e-14)

    def test_nonpositive_for_small_support(self):
        rng = np.random.default_rng(3)
        mu = DiscreteMeasure.from_triples(
            [(rng.uniform(-0.6, 0.6), rng.uniform(0.05, 0.7), rng.uniform(0, 2)) for _ in range(6)]
        )
        for _ in range(100):
            z = complex(rng.uniform(-20, 20), rng.uniform(0.01, 20))
            if any(abs(z - p) < 1e-6 for p in mu.points):
                continue
            assert green_potential(mu, z, 0) <= 0.0

    def test_additivity_over_concatenation(self):
        rng = np.random.default_rng(4)
        mk = lambda n: DiscreteMeasure.from_triples(
            [(rng.uniform(-5, 5), rng.uniform(0.1, 5), rng.uniform(0, 3)) for _ in range(n)]
        )
        mu1, mu2 = mk(5), mk(7)
        z = 0.7 + 1.9j
        whole = green_potential(mu1.concat(mu2), z, 2)
        parts = green_potential(mu1, z, 2) + green_potential(mu2, z, 2)
        # equal up to the final fsum rounding
        assert math.isclose(whole, parts, rel_tol=1e-15, abs_tol=1e-300)

    def test_atom_proximity_guard(self):
        mu = DiscreteMeasure.from_triples([(0.0, 1.0, 1.0)])
        with pytest.raises(SingularityError):
            green_potential(mu, complex(0.0, 1.0 + 1e-14), 0)

    @staticmethod
    def first_guarded_atom(mu, z):
        """The per-atom guard test: the first index with abs(z - zeta) <= guard."""
        guard = 1e-12 * (1.0 + abs(z))
        for idx, p in enumerate(mu.points):
            if abs(z - p) <= guard:
                return idx
        return None

    def test_guard_names_first_offending_atom(self):
        z = 0.5 + 1j
        mu = DiscreteMeasure.from_triples(
            [(3.0, 2.0, 1.0), (0.5 + 1e-13, 1.0, 1.0), (0.5, 1.0 + 1e-14, 2.0), (0.5, 1.0, 1.0)]
        )
        assert self.first_guarded_atom(mu, z) == 1
        with pytest.raises(SingularityError, match=r"atom #1 at \(0\.5000000000001\+1j\)"):
            green_potential(mu, z, 2)

    def test_guard_decides_as_per_atom_abs(self):
        # atoms a few ulps either side of the guard distance.  Near a tiny z
        # the atoms' coordinates are of the guard's size, so their distances
        # are resolved to the ulp and a one-ulp change flips the decision.
        rng = np.random.default_rng(17)
        for i in range(600):
            r = 10 ** (rng.uniform(-20, -14) if i % 2 else rng.uniform(-2, 4))
            z = cmath.rect(r, rng.uniform(1e-3, math.pi - 1e-3))
            guard = 1e-12 * (1.0 + abs(z))
            triples = []
            for _ in range(4):
                d = cmath.rect(guard * (1.0 + rng.integers(-4, 5) * 2.0**-52), rng.uniform(0.01, 3.13))
                triples.append(((z + d).real, (z + d).imag, 1.0))
            mu = DiscreteMeasure.from_triples([(0.0, 5.0, 1.0)] + triples)
            idx = self.first_guarded_atom(mu, z)
            if idx is None:
                green_potential(mu, z, 1)
            else:
                with pytest.raises(SingularityError, match=f"atom #{idx} "):
                    green_potential(mu, z, 1)


class TestMeasureNormAndCompose:
    def test_examples(self):
        assert DiscreteMeasure.empty().mass_functional(0) == 0.0
        one = DiscreteMeasure.from_triples([(0.0, 1.0, 1.0)])
        assert math.isclose(one.mass_functional(0), 0.5, rel_tol=1e-15)
        two = DiscreteMeasure.from_triples([(0.0, 2.0, 1.0), (0.0, 3.0, 2.0)])
        assert math.isclose(two.mass_functional(1), 2.0 / 9.0 + 6.0 / 28.0, rel_tol=1e-15)

    def test_subharmonic_compose(self):
        f = IndicatorDensity(-1.0, 1.0, 1.0)
        mu = DiscreteMeasure.from_triples([(0.0, 3.0, 1.0)])
        pv = subharmonic_eval(f, mu, 1j, 0, TIGHT)
        assert pv.u == pv.v + pv.h
        expected = 0.5 + (math.log(2) - math.log(4)) / (2 * math.pi)
        assert abs(pv.u - expected) < 1e-6

    def test_empty_measure_gives_u_equals_v(self):
        f = IndicatorDensity(-1.0, 1.0, 1.0)
        pv = subharmonic_eval(f, DiscreteMeasure.empty(), 0.5 + 1j, 2, TIGHT)
        assert pv.h == 0.0 and pv.u == pv.v

    def test_zero_density_gives_u_equals_h(self):
        f = IndicatorDensity(0.0, 0.0, 1.0)
        mu = DiscreteMeasure.from_triples([(1.0, 2.0, 1.5)])
        pv = subharmonic_eval(f, mu, 1j, 1, TIGHT)
        assert pv.v == 0.0 and pv.u == pv.h

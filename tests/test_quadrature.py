import math
import sys

import mpmath as mp
import numpy as np
import pytest

from halfplanepot import NumericalFailure
from halfplanepot.quadrature import _WG, _WGK, _XGK, _gk15, integrate, one_shot

U = sys.float_info.epsilon / 2  # unit roundoff


def rule(nodes, weights):
    """The symmetric rule's (node, weight) pairs on [-1, 1], as exact mpf."""
    out = []
    for x, w in zip(nodes, weights):
        out.append((mp.mpf(x), mp.mpf(w)))
        if x != 0.0:
            out.append((-mp.mpf(x), mp.mpf(w)))
    return out


KRONROD = rule(_XGK, _WGK)
GAUSS = rule(_XGK[1::2], _WG)


class TestRuleExactness:
    @pytest.mark.parametrize("deg", range(0, 21))
    def test_kronrod_exact_on_polynomials(self, deg):
        # K15 integrates polynomials up to degree 22 exactly (x**deg and the
        # sums round, so ask for 5e-14 relative)
        val, _err = _gk15(lambda x: x**deg, 0.0, 1.0)
        exact = 1.0 / (deg + 1)
        assert math.isclose(val, exact, rel_tol=5e-14)

    def test_gauss_error_estimate_zero_for_low_degree(self):
        # G7 exact through degree 13, so |K - G| collapses to rounding noise
        # for a cubic
        _val, err = _gk15(lambda x: x**3 - 2 * x + 1, -1.0, 2.0)
        assert err < 1e-13


class TestRuleConstants:
    """The stored doubles are the rules' constants to rounding: each node and
    weight within one unit roundoff U, so a moment sum_i w_i x_i^k misses
    2/(k+1) by at most about (k + 1) U sum_i |w_i x_i^k|.  Constants cut to
    15 significant digits miss by up to 50 times that."""

    @staticmethod
    def moment_gap(pairs, k):
        with mp.workdps(40):
            exact = mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)
            got = mp.fsum(w * x**k for x, w in pairs)
            scale = mp.fsum(abs(w * x**k) for x, w in pairs)
            return float(abs(got - exact) / ((k + 1) * U * scale))

    def test_sizes(self):
        assert len(KRONROD) == 15 and len(GAUSS) == 7
        assert {x for x, _ in GAUSS} <= {x for x, _ in KRONROD}

    @pytest.mark.parametrize("k", range(0, 23))
    def test_kronrod_exact_through_degree_22(self, k):
        assert self.moment_gap(KRONROD, k) <= 2.0

    @pytest.mark.parametrize("k", range(0, 14))
    def test_gauss_exact_through_degree_13(self, k):
        assert self.moment_gap(GAUSS, k) <= 2.0

    def test_weights_sum_to_two(self):
        for pairs in (KRONROD, GAUSS):
            with mp.workdps(40):
                assert abs(mp.fsum(w for _, w in pairs) - 2) <= 2 * U

    def test_degree_23_is_not_exact(self):
        # the moment test is sharp: K15 misses x^24 by far more than rounding
        assert self.moment_gap(KRONROD, 24) > 1e6
        assert self.moment_gap(GAUSS, 14) > 1e6


class TestAdaptivity:
    def test_integrable_endpoint_singularity(self):
        res = integrate(lambda x: x**-0.5, [0.0, 1.0], abs_tol=1e-8, max_depth=60)
        assert abs(res.value - 2.0) < 1e-8

    def test_poisson_peak_against_arctan(self):
        y = 1e-3
        f = lambda x: y / (math.pi * (x * x + y * y))
        exact = 2 * math.atan(1.0 / y) / math.pi
        res = integrate(f, [-1.0, 0.0, 1.0], abs_tol=1e-10, max_depth=60)
        assert abs(res.value - exact) < 1e-10

    def test_error_estimate_covers_true_error(self):
        # dense-trapezoid oracle; the engine must land within its own estimate
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, c = rng.uniform(0.5, 3.0, 3)
            f = lambda x: math.exp(-a * x * x) * math.cos(b * x) + c / (1 + x * x)
            xs = np.linspace(-8, 8, 400001)
            ys = np.array([f(x) for x in xs])
            oracle = float(np.trapezoid(ys, xs))
            res = integrate(f, [-8.0, 0.0, 8.0], abs_tol=1e-9, max_depth=40)
            assert abs(res.value - oracle) < 1e-7  # trapezoid oracle's own limit
            assert res.error <= 1e-9

    def test_budget_honesty_halving(self):
        # halving the tolerance moves the value by at most the reported error
        f = lambda x: 1.0 / (1.0 + x * x) + math.cos(5 * x) * math.exp(-abs(x))
        pts = [-20.0, -1.0, 0.0, 1.0, 20.0]
        tol = 1e-4
        prev = integrate(f, pts, abs_tol=tol, max_depth=50)
        for _ in range(12):
            tol /= 2
            cur = integrate(f, pts, abs_tol=tol, max_depth=50)
            assert abs(cur.value - prev.value) <= prev.error * (1 + 1e-9) + 1e-15
            prev = cur

    def test_max_depth_exhaustion_raises_with_payload(self):
        # a kink cannot be resolved at depth 8 to 1e-14
        f = lambda x: abs(x - 1 / 3) ** 0.1
        with pytest.raises(NumericalFailure) as exc:
            integrate(f, [0.0, 1.0], abs_tol=1e-14, max_depth=8)
        assert math.isfinite(exc.value.value)
        assert exc.value.estimate > 1e-14

    def test_one_shot_magnitude(self):
        first_pass = one_shot(lambda x: 1.0, [0.0, 0.25, 1.0])
        assert len(first_pass) == 2
        v = math.fsum(val for val, _err in first_pass)
        assert math.isclose(v, 1.0, rel_tol=1e-14)

    def test_first_pass_seeds_the_heap(self):
        # a seeded run evaluates only the refinements and ends bit for bit
        # where an unseeded run does
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / (1.0 + x * x) + math.cos(5 * x) * math.exp(-abs(x))

        pts = [-20.0, -1.0, 0.0, 1.0, 20.0]
        plain = integrate(f, pts, abs_tol=1e-10, max_depth=50)
        n_plain = len(calls)
        first_pass = one_shot(f, pts)
        del calls[:]
        seeded = integrate(f, pts, abs_tol=1e-10, max_depth=50, first_pass=first_pass)
        assert (seeded.value, seeded.error, seeded.panels) == (plain.value, plain.error, plain.panels)
        assert seeded.evals == plain.evals - 15 * 4 == len(calls) == n_plain - 60

    def test_first_pass_must_match_panels(self):
        f = lambda x: x
        with pytest.raises(ValueError, match="first pass"):
            integrate(f, [0.0, 1.0, 2.0], abs_tol=1e-9, first_pass=one_shot(f, [0.0, 2.0]))

    def test_relative_tolerance_path(self):
        f = lambda x: 1e6 / (1.0 + x * x)
        res = integrate(f, [-100.0, 0.0, 100.0], abs_tol=1e-300, rel_tol=1e-9, max_depth=50)
        exact = 1e6 * 2 * math.atan(100.0)
        assert abs(res.value - exact) <= 1e-8 * exact

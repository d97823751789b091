import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfplanepot import (
    Ball,
    CoverParams,
    DiscreteMeasure,
    IndicatorDensity,
    PowerDensity,
    QuadratureSpec,
    SamplingPlan,
    TabulatedDensity,
    green_potential,
    growth_report,
    lemma2_bound,
    lemma2_sweep,
    modified_green,
    modified_green_many,
    modified_poisson,
    poisson_integral,
    subharmonic_eval,
    validate_scenario,
)
from halfplanepot.core import as_alpha, as_order


class TestOrderAndExponent:
    @pytest.mark.parametrize("m", [0, 1, 16, 32])
    def test_order_ok(self, m):
        assert as_order(m) == m

    @pytest.mark.parametrize("m", [-1, 33, 2.0, True])
    def test_order_bad(self, m):
        with pytest.raises(ValueError):
            as_order(m)

    def test_alpha_range(self):
        assert as_alpha(2.0) == 2.0
        assert as_alpha(1) == 1.0 and isinstance(as_alpha(1), float)
        for bad in (0.0, -1.0, 2.0001, math.nan):
            with pytest.raises(ValueError):
                as_alpha(bad)


_DENSITY = IndicatorDensity(-1.0, 1.0, 1.0)
_MU = DiscreteMeasure.from_triples([(0.0, 3.0, 1.0)])
_PLAN = SamplingPlan(rays=(math.pi / 2,), radius_start=10.0, radius_factor=10.0, radius_count=1)

# every public function that takes an order m, called with it at ordinary other arguments
ORDER_ENTRIES = {
    "modified_poisson": lambda m: modified_poisson(1j, 2.0, m),
    "modified_green": lambda m: modified_green(1j, 2.0 + 1.0j, m),
    "modified_green_many": lambda m: modified_green_many(1j, np.array([2.0 + 1.0j]), m),
    "poisson_integral": lambda m: poisson_integral(_DENSITY, 1j, m),
    "green_potential": lambda m: green_potential(_MU, 1j, m),
    "subharmonic_eval": lambda m: subharmonic_eval(_DENSITY, _MU, 1j, m),
    "lemma2_bound": lambda m: lemma2_bound(1, 1j, 2.0, m),
    "lemma2_sweep": lambda m: lemma2_sweep(1, m, 0, 0),
    "growth_report": lambda m: growth_report(_DENSITY, _MU, m, 1.0, _PLAN, None),
    "validate_scenario": lambda m: validate_scenario(_DENSITY, _MU, m, 1.0),
    "mass_functional": lambda m: _MU.mass_functional(m),
}
ALPHA_ENTRIES = {
    "growth_report": lambda a: growth_report(_DENSITY, _MU, 0, a, _PLAN, None),
    "validate_scenario": lambda a: validate_scenario(_DENSITY, _MU, 0, a),
}


class TestEntryChecks:
    @pytest.mark.parametrize("m", [-1, 33, 2.0, True])
    @pytest.mark.parametrize("name", sorted(ORDER_ENTRIES))
    def test_rejects_order(self, name, m):
        with pytest.raises(ValueError, match="kernel order"):
            ORDER_ENTRIES[name](m)

    @pytest.mark.parametrize("alpha", [0, -1, 2.0001, math.nan])
    @pytest.mark.parametrize("name", sorted(ALPHA_ENTRIES))
    def test_rejects_alpha(self, name, alpha):
        with pytest.raises(ValueError, match="growth exponent"):
            ALPHA_ENTRIES[name](alpha)


class TestDensities:
    def test_indicator(self):
        f = IndicatorDensity(-1.0, 1.0, 2.0)
        assert f.value(0.0) == 2.0
        assert f.value(1.0) == 2.0
        assert f.value(1.0000001) == 0.0
        assert f.support_radius() == 1.0
        with pytest.raises(ValueError):
            IndicatorDensity(1.0, -1.0)

    def test_indicator_empty_range_is_zero(self):
        f = IndicatorDensity(0.0, 0.0, 5.0)
        assert f.value(0.1) == 0.0 and f.value(-0.1) == 0.0

    def test_tabulated_interpolation(self):
        f = TabulatedDensity(((0.0, 0.0), (1.0, 2.0), (3.0, 2.0)))
        assert f.value(0.5) == 1.0
        assert f.value(2.0) == 2.0
        assert f.value(-0.1) == 0.0
        assert f.value(3.1) == 0.0

    def test_tabulated_needs_increasing_knots(self):
        with pytest.raises(ValueError):
            TabulatedDensity(((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            TabulatedDensity(((1.0, 1.0),))

    def test_power_norm_window(self):
        assert PowerDensity(1.5).norm_finite(1)[0]
        assert not PowerDensity(2.0).norm_finite(1)[0]  # s >= m+1
        assert not PowerDensity(-1.0).norm_finite(1)[0]  # origin divergence
        assert PowerDensity(123.0, scale=0.0).norm_finite(0)[0]

    def test_power_value(self):
        f = PowerDensity(0.5, scale=3.0)
        assert f.value(4.0) == 6.0
        assert f.value(-4.0) == 6.0
        assert f.value(0.0) == 0.0
        assert PowerDensity(0.0).value(0.0) == 1.0
        assert PowerDensity(-0.5).value(0.0) == math.inf


class TestDiscreteMeasure:
    def test_rejects_bad_atoms(self):
        with pytest.raises(ValueError):
            DiscreteMeasure.from_triples([(0.0, 0.0, 1.0)])  # eta = 0
        with pytest.raises(ValueError):
            DiscreteMeasure.from_triples([(0.0, 1.0, -1.0)])  # negative weight
        for atom in (complex(0.0, -1e-12), complex(math.nan, 1.0), complex(0.0, math.inf), 2.0):
            with pytest.raises(ValueError):
                DiscreteMeasure((atom,), (1.0,))

    def test_atoms_are_complex(self):
        mu = DiscreteMeasure.from_triples([(3.0, 4.0, 0.5), (-1, 2, 1)])
        assert mu.points == (3 + 4j, -1 + 2j)
        assert mu.positions.dtype == complex and list(mu.positions) == [3 + 4j, -1 + 2j]
        assert DiscreteMeasure.empty().positions.dtype == complex

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=1e-3, max_value=50),
                st.floats(min_value=0, max_value=10),
            ),
            max_size=8,
        ),
        st.integers(min_value=0, max_value=4),
    )
    def test_mass_functional_is_the_hand_sum(self, triples, m):
        mu = DiscreteMeasure.from_triples(triples)
        hand = math.fsum(
            w * eta / (1 + math.hypot(xi, eta) ** (2 + m)) for xi, eta, w in triples
        )
        assert math.isclose(mu.mass_functional(m), hand, rel_tol=1e-15, abs_tol=1e-300)

    def test_mass_functional_distant_atom_at_order_32(self):
        # |zeta|^{34} = 1e340 overflows a float; the term, about 1e-330,
        # underflows to 0 instead
        far = DiscreteMeasure.from_triples([(0.0, 1e10, 1.0)])
        assert far.mass_functional(32) == 0.0
        near = DiscreteMeasure.from_triples([(0.0, 1.0, 1.0)])
        assert far.concat(near).mass_functional(32) == near.mass_functional(32) == 0.5
        # past the overflow the term is still w eta / |zeta|^{2+m} where representable
        huge = DiscreteMeasure.from_triples([(0.0, 1e160, 2.0)])
        assert math.isclose(huge.mass_functional(0), 2e-160, rel_tol=1e-15)

    def test_concat(self):
        a = DiscreteMeasure.from_triples([(0.0, 1.0, 1.0)])
        b = DiscreteMeasure.from_triples([(1.0, 2.0, 3.0)])
        assert a.concat(b).total_mass == 4.0


class TestBallAndParams:
    def test_ball_positive_radius(self):
        with pytest.raises(ValueError):
            Ball(0.0, 0.0, 0.0)
        assert Ball(1.0, 2.0, 0.5).contains(1.1 + 2.1j)

    def test_cover_params(self):
        with pytest.raises(ValueError):
            CoverParams(beta=-0.1, lam=1.0)
        with pytest.raises(ValueError):
            CoverParams(beta=1.0, lam=0.0)
        with pytest.raises(ValueError, match="5\\^beta"):  # 5^beta overflows
            CoverParams(beta=1e308, lam=1.0)
        assert CoverParams(beta=440.0, lam=1.0).beta == 440.0  # 5^440 is about 1e307

    def test_quadrature_spec(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_depth=7)


class TestValidateScenario:
    def test_accepts_power_below_window(self):
        res = validate_scenario(PowerDensity(1.5), DiscreteMeasure.empty(), 1, 1.0)
        assert res.ok

    def test_rejects_divergent_power(self):
        res = validate_scenario(PowerDensity(3.0), DiscreteMeasure.empty(), 1, 1.0)
        assert not res.ok
        assert "divergent" in res.failures[0]

    def test_rejects_alpha_two_with_measure(self):
        mu = DiscreteMeasure.from_triples([(0.0, 1.0, 1.0)])
        res = validate_scenario(IndicatorDensity(-1.0, 1.0, 1.0), mu, 0, 2.0)
        assert not res.ok
        assert "alpha" in res.failures[0]

    def test_alpha_two_fine_without_measure(self):
        res = validate_scenario(IndicatorDensity(-1.0, 1.0, 1.0), DiscreteMeasure.empty(), 0, 2.0)
        assert res.ok


def test_public_names_resolve_once():
    import halfplanepot

    names = halfplanepot.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(halfplanepot, name), name

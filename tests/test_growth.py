import math

import pytest

from halfplanepot import (
    CoverParams,
    DiscreteMeasure,
    ExceptionalCover,
    IndicatorDensity,
    ParameterError,
    PowerDensity,
    QuadratureSpec,
    SamplingPlan,
    build_exceptional_cover,
    decay_assertion,
    growth_report,
    lemma2_sweep,
)

EMPTY_COVER = ExceptionalCover((), 1.0, 1.0, 0.0, 1e9)
QUAD = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7)


def three_decade_plan(rays=(math.pi / 2,), start=10.0):
    return SamplingPlan(rays=rays, radius_start=start, radius_factor=10.0, radius_count=3)


class TestSamplingPlan:
    def test_ray_bounds(self):
        with pytest.raises(ValueError):
            SamplingPlan(rays=(1e-4,), radius_start=1, radius_factor=10, radius_count=3)
        with pytest.raises(ValueError):
            SamplingPlan(rays=(math.pi,), radius_start=1, radius_factor=10, radius_count=3)

    def test_radii(self):
        plan = three_decade_plan()
        assert plan.radii == (10.0, 100.0, 1000.0)

    @pytest.mark.parametrize(
        "start,factor,count",
        [
            (math.inf, 10.0, 3),
            (math.nan, 10.0, 3),
            (10.0, math.inf, 1),  # a one-radius ladder never multiplies by the factor
            (10.0, 10.0, 400),  # 10^399 raises OverflowError in factor ** j
            (1e308, 10.0, 2),  # 1e309 rounds to inf without raising
        ],
    )
    def test_rejects_radii_past_the_float_range(self, start, factor, count):
        with pytest.raises(ValueError):
            SamplingPlan(rays=(1.0,), radius_start=start, radius_factor=factor, radius_count=count)


class TestGrowthReport:
    def test_zero_scenario_all_ratios_zero(self):
        rep = growth_report(
            IndicatorDensity(0.0, 0.0, 1.0),
            DiscreteMeasure.empty(),
            0,
            1.0,
            three_decade_plan(),
            EMPTY_COVER,
            QUAD,
        )
        assert all(s.ratio == 0.0 for s in rep.samples)
        res = decay_assertion(rep, 0.5)
        assert res.passed and res.worst_factor == 0.0

    def test_bounded_density_decays(self):
        # v of a bounded compactly-supported density is bounded, so the ratio
        # |v| / |z|^{m+alpha} contracts by ~0.01 per decade at m=0, alpha=1
        rep = growth_report(
            IndicatorDensity(-1.0, 1.0, 1.0),
            DiscreteMeasure.empty(),
            0,
            1.0,
            three_decade_plan(rays=(math.pi / 3, math.pi / 2)),
            EMPTY_COVER,
            QUAD,
        )
        res = decay_assertion(rep, 0.5)
        assert res.passed
        assert res.worst_factor < 0.05

    def test_normalizer_and_ratio_fields(self):
        rep = growth_report(
            IndicatorDensity(-1.0, 1.0, 1.0),
            DiscreteMeasure.empty(),
            1,
            1.5,
            three_decade_plan(),
            EMPTY_COVER,
            QUAD,
        )
        for s in rep.samples:
            r = math.hypot(s.x, s.y)
            assert math.isclose(s.normalizer, s.y ** (1 - 1.5) * r ** (1 + 1.5), rel_tol=1e-12)
            assert s.normalizer > 0
            assert math.isclose(s.ratio, abs(s.u) / s.normalizer, rel_tol=1e-15)

    @pytest.mark.parametrize("start,bad", [(1e8, 2), (1e-10, 0)])
    def test_normalizer_past_the_float_range(self, start, bad):
        # at m = 32, alpha = 1 the normalizer is |z|^33: 1e330 overflows and
        # 1e-330 underflows to 0; that sample fails and the others are kept
        plan = SamplingPlan((math.pi / 2,), start, 10.0, 3)
        rep = growth_report(PowerDensity(1.5), DiscreteMeasure.empty(), 32, 1.0, plan, None, QUAD)
        assert [s.ok for s in rep.samples] == [i != bad for i in range(3)]
        for i, s in enumerate(rep.samples):
            if i != bad:
                assert s.normalizer == s.y**33
        failed = rep.samples[bad]
        assert "normalizer" in failed.note and math.isnan(failed.ratio)

    def test_in_cover_flag_consistency(self):
        mu = DiscreteMeasure.from_triples([(30.0, 30.0, 1.0)])
        params = CoverParams(beta=1.0, lam=5.0)
        cover = build_exceptional_cover(mu, params, 128.0)
        plan = SamplingPlan(
            rays=(math.pi / 4,), radius_start=1.0, radius_factor=10 ** (1 / 3), radius_count=7
        )
        rep = growth_report(PowerDensity(0.5), mu, 0, 1.0, plan, cover, QUAD)
        for s in rep.samples:
            assert s.in_cover == cover.contains(complex(s.x, s.y))
        assert any(s.in_cover for s in rep.samples)  # the ray pierces the ball at ~42i+42

    def test_determinism(self):
        args = (
            PowerDensity(1.2),
            DiscreteMeasure.from_triples([(3.0, 4.0, 0.5)]),
            1,
            1.0,
            three_decade_plan(rays=(0.7, math.pi / 2)),
            EMPTY_COVER,
            QUAD,
        )
        assert growth_report(*args) == growth_report(*args)

    def test_annulus_samples_tagged(self):
        plan = SamplingPlan(
            rays=(math.pi / 2,),
            radius_start=10.0,
            radius_factor=10.0,
            radius_count=3,
            annulus_samples=4,
        )
        rep = growth_report(
            IndicatorDensity(-1.0, 1.0, 1.0),
            DiscreteMeasure.empty(),
            0,
            1.0,
            plan,
            EMPTY_COVER,
            QUAD,
        )
        onray = [s for s in rep.samples if s.ray_index >= 0]
        swept = [s for s in rep.samples if s.ray_index == -1]
        assert len(onray) == 3 and len(swept) == 12

    def test_rejects_invalid_scenario(self):
        from halfplanepot import DomainError

        with pytest.raises(DomainError):
            growth_report(
                PowerDensity(5.0),
                DiscreteMeasure.empty(),
                1,
                1.0,
                three_decade_plan(),
                EMPTY_COVER,
                QUAD,
            )


class TestDecayAssertion:
    def test_needs_two_decades(self):
        rep = growth_report(
            IndicatorDensity(-1.0, 1.0, 1.0),
            DiscreteMeasure.empty(),
            0,
            1.0,
            SamplingPlan(rays=(math.pi / 2,), radius_start=10.0, radius_factor=10.0, radius_count=2),
            EMPTY_COVER,
            QUAD,
        )
        with pytest.raises(ParameterError):
            decay_assertion(rep, 0.5)

    def test_near_critical_scenario_fails_decay(self):
        # s = m+1 - 0.05 decays only like 10^-0.05 ~ 0.891 per decade: the
        # machinery must detect non-decay against a 0.5 threshold
        plan = SamplingPlan(
            rays=(math.pi / 4,), radius_start=10.0, radius_factor=10.0, radius_count=3
        )
        quad = QuadratureSpec(abs_tol=1e-6, rel_tol=2e-4, max_depth=80)
        rep = growth_report(
            PowerDensity(0.95), DiscreteMeasure.empty(), 0, 1.95, plan, EMPTY_COVER, quad
        )
        res = decay_assertion(rep, 0.5)
        assert not res.passed
        assert res.status == "fail"
        assert 0.85 <= res.worst_factor <= 0.95  # analytic factor 10^-0.05 = 0.891

    def test_remark_one_alpha_two_variant(self):
        # alpha = 2 with an empty measure: beta = 0 makes the exceptional set
        # bounded (here empty); the assertion must pass with no cover at all
        rep = growth_report(
            IndicatorDensity(-1.0, 1.0, 1.0),
            DiscreteMeasure.empty(),
            0,
            2.0,
            three_decade_plan(rays=(math.pi / 4, math.pi / 2)),
            EMPTY_COVER,
            QUAD,
        )
        res = decay_assertion(rep, 0.5)
        assert res.passed

    def test_in_cover_pairs_are_skipped(self):
        # a cover ball swallowing the middle radius leaves no usable pair on
        # a 3-radius ladder: inconclusive, not failure
        from halfplanepot import Ball

        plan = three_decade_plan()
        big_ball = Ball(0.0, 100.0, 5.0)
        cover = ExceptionalCover((big_ball,), 1.0, 1.0, 0.05, 1e9)
        rep = growth_report(
            IndicatorDensity(-1.0, 1.0, 1.0),
            DiscreteMeasure.empty(),
            0,
            1.0,
            plan,
            cover,
            QUAD,
        )
        res = decay_assertion(rep, 0.5)
        assert res.status == "inconclusive"
        assert not res.passed


class TestLemma2Sweep:
    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_no_violations_small(self, case):
        for m in (0, 1, 4):
            rep = lemma2_sweep(case, m, samples=1000, seed=42)
            assert rep.violation_count == 0
            assert rep.worst_ratio <= 1.0 + 1e-12

    def test_case1_order_zero_all_zero(self):
        rep = lemma2_sweep(1, 0, samples=500, seed=0)
        assert rep.violation_count == 0
        assert rep.worst_ratio == 0.0

    def test_determinism(self):
        a = lemma2_sweep(3, 2, samples=500, seed=7)
        b = lemma2_sweep(3, 2, samples=500, seed=7)
        assert a == b

import json
import math

import numpy as np
import pytest

from halfplanepot import (
    CoverCertificationError,
    CoverParams,
    DiscreteMeasure,
    ExceptionalCover,
    ParameterError,
    build_exceptional_cover,
    certify_complement,
    cover_from_json,
    cover_to_json,
    maximal_function,
)

SINGLE_ATOM = DiscreteMeasure.from_triples([(4.0, 4.0, 1.0)])
SINGLE_PARAMS = CoverParams(beta=1.0, lam=5.0)


def random_measure(rng, n=5, r_lo=0.5, r_hi=40.0):
    r = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), n))
    th = rng.uniform(0.05, math.pi - 0.05, n)
    w = rng.uniform(0.1, 2.0, n)
    return DiscreteMeasure.from_triples(zip(r * np.cos(th), r * np.sin(th), w))


def brute_force_sup(mu, z, beta, n_radii=10_000):
    """Evaluate mu(B(z, r))/r^beta on a finite radius set: a log grid plus
    every atom distance inflated past the jump.  Independent of the
    closed-form path by construction."""
    d = np.abs(mu.positions - complex(z))
    d_max = float(np.max(d))
    if d_max == 0.0:
        d_max = 1.0
    grid = np.geomspace(max(1e-12, d_max * 1e-6), 2 * d_max, n_radii - len(d))
    radii = np.concatenate([grid, d * (1 + 1e-12)])
    radii = radii[radii > 0]
    mass = (d[None, :] < radii[:, None]) @ mu.weight_array
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = mass / radii**beta
    return float(np.max(ratios))


class TestMaximalFunction:
    def test_single_atom(self):
        mu = DiscreteMeasure.from_triples([(1.0, 1.0, 1.0)])
        z = 4.0 + 5.0j
        d = abs(z - (1 + 1j))
        for beta in (0.5, 1.0, 1.5):
            assert math.isclose(maximal_function(mu, z, beta), d**-beta, rel_tol=1e-14)

    def test_at_atom_positive_weight(self):
        assert maximal_function(SINGLE_ATOM, 4 + 4j, 1.0) == math.inf

    def test_beta_zero_total_mass(self):
        mu = DiscreteMeasure.from_triples([(0.0, 1.0, 2.0), (3.0, 2.0, 5.0)])
        assert maximal_function(mu, 100 + 1j, 0.0) == 7.0
        assert maximal_function(mu, 0 + 1j, 0.0) == 7.0

    def test_two_atom_hand_example(self):
        # distances 1 and 2, weights 1 and 8: sup = max(1/1, 9/2) = 4.5
        mu = DiscreteMeasure.from_triples([(0.0, 1.0, 1.0), (0.0, 2.0, 8.0)])
        assert maximal_function(mu, 0j, 1.0) == 4.5

    def test_empty(self):
        assert maximal_function(DiscreteMeasure.empty(), 1j, 1.0) == 0.0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            mu = random_measure(rng)
            for beta in (0.5, 1.0, 1.5):
                z = complex(rng.uniform(-30, 30), rng.uniform(-10, 30))
                closed = maximal_function(mu, z, beta)
                brute = brute_force_sup(mu, z, beta)
                assert math.isclose(closed, brute, rel_tol=1e-9)

    def test_monotone_in_atoms(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mu = random_measure(rng, n=4)
            extra = random_measure(rng, n=1)
            z = complex(rng.uniform(-20, 20), rng.uniform(0, 20))
            assert maximal_function(mu.concat(extra), z, 1.0) >= maximal_function(mu, z, 1.0)

    def test_weight_scaling(self):
        rng = np.random.default_rng(12)
        mu = random_measure(rng, n=6)
        # powers of two shift exponents only, so the scaling law is bit-exact
        halved = DiscreteMeasure(mu.points, tuple(0.5 * w for w in mu.weights))
        # a general scalar rounds inside the cumulative sums
        c = 1.7
        scaled = DiscreteMeasure(mu.points, tuple(c * w for w in mu.weights))
        for _ in range(20):
            z = complex(rng.uniform(-20, 20), rng.uniform(0, 20))
            base = maximal_function(mu, z, 1.5)
            assert maximal_function(halved, z, 1.5) == 0.5 * base
            assert math.isclose(maximal_function(scaled, z, 1.5), c * base, rel_tol=1e-14)

    def test_beta_negative_rejected(self):
        with pytest.raises(ParameterError):
            maximal_function(SINGLE_ATOM, 1j, -0.5)


class TestCoverConstruction:
    def test_empty_measure(self):
        cover = build_exceptional_cover(DiscreteMeasure.empty(), CoverParams(1.0, 1.0), 16.0)
        assert cover.balls == ()
        assert cover.budget == 0.0

    def test_lambda_precondition(self):
        with pytest.raises(ParameterError):
            build_exceptional_cover(SINGLE_ATOM, CoverParams(beta=1.0, lam=4.999), 16.0)

    def test_search_radius_precondition(self):
        with pytest.raises(ParameterError):
            build_exceptional_cover(SINGLE_ATOM, SINGLE_PARAMS, 3.0)

    def test_single_atom_budget(self):
        cover = build_exceptional_cover(SINGLE_ATOM, SINGLE_PARAMS, 16.0)
        assert cover.budget <= 3.0
        assert all(abs(b.center) >= 2.0 for b in cover.balls)

    def test_single_atom_hand_containment(self):
        # E(lambda) subset B(z0, |z0|/4); the cover must swallow that ball
        cover = build_exceptional_cover(SINGLE_ATOM, SINGLE_PARAMS, 16.0)
        z0 = 4 + 4j
        rng = np.random.default_rng(13)
        for _ in range(5000):
            rr = abs(z0) / 4 * math.sqrt(rng.uniform())
            p = z0 + rr * np.exp(1j * rng.uniform(0, 2 * math.pi))
            if abs(p) >= 2.0:
                assert cover.contains(complex(p))

    def test_budget_bound_random_measures(self):
        rng = np.random.default_rng(14)
        for beta in (0.5, 1.0, 1.5):
            for _ in range(5):
                mu = random_measure(rng, n=int(rng.integers(1, 12)))
                lam = 5.0**beta * mu.total_mass * rng.uniform(1.0, 3.0)
                cover = build_exceptional_cover(mu, CoverParams(beta, lam), 64.0)
                assert cover.budget <= 3.0 * 5.0**beta * mu.total_mass / lam

    def test_deterministic(self):
        a = build_exceptional_cover(SINGLE_ATOM, SINGLE_PARAMS, 16.0)
        b = build_exceptional_cover(SINGLE_ATOM, SINGLE_PARAMS, 16.0)
        assert a == b


class TestCoverContains:
    def test_empty_cover(self):
        cover = ExceptionalCover((), 1.0, 1.0, 0.0, 8.0)
        assert not cover.contains(3 + 3j)

    def test_center_and_open_boundary(self):
        from halfplanepot import Ball

        cover = ExceptionalCover((Ball(0.0, 0.0, 1.0),), 1.0, 1.0, 1.0, 8.0)
        assert cover.contains(0j)
        assert not cover.contains(1.0 + 0j)  # distance exactly the radius


class TestCertification:
    def test_empty_measure_trivially_clean(self):
        cover = build_exceptional_cover(DiscreteMeasure.empty(), CoverParams(1.0, 1.0), 16.0)
        rep = certify_complement(DiscreteMeasure.empty(), CoverParams(1.0, 1.0), cover, 2000, seed=0)
        assert rep.violation_count == 0

    def test_single_atom_clean(self):
        cover = build_exceptional_cover(SINGLE_ATOM, SINGLE_PARAMS, 16.0)
        rep = certify_complement(SINGLE_ATOM, SINGLE_PARAMS, cover, 10_000, seed=1)
        assert rep.violation_count == 0
        assert rep.worst_ratio <= 1.0

    def test_random_measures_clean(self):
        rng = np.random.default_rng(15)
        for i in range(5):
            mu = random_measure(rng, n=int(rng.integers(1, 10)))
            beta = float(rng.choice([0.5, 1.0, 1.5]))
            params = CoverParams(beta, 5.0**beta * mu.total_mass)
            cover = build_exceptional_cover(mu, params, 64.0)
            rep = certify_complement(mu, params, cover, 10_000, seed=100 + i)
            assert rep.violation_count == 0

    def test_deleted_balls_violate(self):
        # stripping the balls must expose points near the atom
        cover = build_exceptional_cover(SINGLE_ATOM, SINGLE_PARAMS, 16.0)
        naked = ExceptionalCover((), cover.beta, cover.lam, 0.0, cover.guarantee_radius)
        with pytest.raises(CoverCertificationError) as exc:
            certify_complement(SINGLE_ATOM, SINGLE_PARAMS, naked, 10_000, seed=2)
        assert exc.value.report.violation_count > 0


class TestSerialization:
    def test_json_shape_and_17_digits(self):
        cover = build_exceptional_cover(SINGLE_ATOM, SINGLE_PARAMS, 16.0)
        text = cover_to_json(cover)
        data = json.loads(text)
        assert set(data) == {"beta", "lambda", "budget", "balls"}
        assert set(data["balls"][0]) == {"cx", "cy", "r"}
        assert data["lambda"] == 5.0
        # 17 significant digits round-trip doubles exactly
        back = cover_from_json(text, guarantee_radius=cover.guarantee_radius)
        assert back == cover
        with pytest.raises(TypeError):
            cover_from_json(text)  # the radius is not in the JSON; no silent default

    def test_empty_cover_json(self):
        cover = ExceptionalCover((), 0.5, 2.0, 0.0, 8.0)
        data = json.loads(cover_to_json(cover))
        assert data["balls"] == []
        assert data["budget"] == 0.0

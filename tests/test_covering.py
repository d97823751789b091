import hashlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfplanepot import covering
from halfplanepot import (
    Ball,
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
    maximal_function_many,
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


# ---------------------------------------------------------------------------
# Batched evaluation against the scalar algorithms it replaced
# ---------------------------------------------------------------------------


def ref_profile(mu, z):
    """Sorted distinct atom distances from z with the cumulative mass."""
    d = np.abs(mu.positions - z)
    order = np.argsort(d, kind="stable")
    ds = d[order]
    cum = np.cumsum(mu.weight_array[order])
    last_of_run = np.append(ds[1:] != ds[:-1], True)
    return ds[last_of_run], cum[last_of_run]


def ref_maximal(mu, z, beta):
    """The per-point maximal function: sup over the distinct distances."""
    if len(mu) == 0:
        return 0.0
    if beta == 0.0:
        return mu.total_mass
    dist, cum = ref_profile(mu, complex(z))
    if dist[0] == 0.0:
        if cum[0] > 0.0:
            return math.inf
        dist, cum = dist[1:], cum[1:]
        if len(dist) == 0:
            return 0.0
    return float(np.max(cum / dist**beta))


def ref_cover_balls(mu, params, search_radius):
    """The per-candidate cover build: every candidate's deduplicated profile,
    no nearest-atom prune."""
    beta, lam = params.beta, params.lam
    mass = mu.total_mass
    largest_atom = float(np.max(np.abs(mu.positions)))
    balls = []
    for k in range(1, int(math.floor(math.log2(search_radius))) + 1):
        r_lo, r_hi = 2.0**k, 2.0 ** (k + 1)
        gap = r_lo - largest_atom
        if beta > 0 and gap > 0 and mass / gap**beta <= lam / r_hi**beta:
            continue
        candidates = {}
        for pos in mu.positions:
            p = complex(pos)
            if r_lo <= abs(p) < r_hi:
                candidates[(p.real, p.imag)] = p
        for g in covering._hex_grid(r_lo, r_hi, 2.0 ** (k - 4)):
            candidates.setdefault((g.real, g.imag), g)
        found = []
        for key in sorted(candidates):
            c = candidates[key]
            if not ref_maximal(mu, c, beta) > lam / abs(c) ** beta:
                continue
            witness = covering._witness_radius(c, beta, lam, *ref_profile(mu, c))
            if witness is not None:
                found.append((c, min(witness, 2.0 ** (k - 1))))
        found.sort(key=lambda cr: (-cr[1], cr[0].real, cr[0].imag))
        kept = []
        for c, r in found:
            if all(abs(c - c2) >= r + r2 for c2, r2 in kept):
                kept.append((c, r))
        balls.extend(Ball(c.real, c.imag, float(5.0 * r)) for c, r in kept)
    return tuple(balls)


# Eighth-integer coordinates make exact distance ties and exact hits common;
# no distance is then so small that dist**beta underflows.
_coord = st.integers(-160, 160).map(lambda i: i / 8)
_height = st.integers(1, 160).map(lambda i: i / 8)
_weight = st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 4.0)


@st.composite
def measure_and_points(draw):
    atoms = draw(st.lists(st.tuples(_coord, _height, _weight), max_size=30))
    # duplicate atoms, and mirror images in the imaginary axis (equal
    # distances from the points on it)
    atoms += draw(st.lists(st.sampled_from(atoms), max_size=5)) if atoms else []
    atoms += [(-x, y, w) for x, y, w in atoms[: draw(st.integers(0, 3))]]
    mu = DiscreteMeasure.from_triples(atoms)
    points = [complex(x, y) for x, y in draw(st.lists(st.tuples(_coord, _coord), max_size=60))]
    points += [complex(x, y) for x, y, _ in atoms[: draw(st.integers(0, 8))]]  # on an atom
    beta = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))
    return mu, points, beta


@st.composite
def balls_and_points(draw):
    balls, points = [], []
    for (cx, cy), (px, py) in draw(st.lists(st.tuples(st.tuples(_coord, _coord),
                                                      st.tuples(_coord, _coord)), max_size=40)):
        c, p = complex(cx, cy), complex(px, py)
        if p != c:
            # p lies exactly on the boundary of this ball
            balls.append(Ball(cx, cy, abs(p - c)))
            points += [p, c]
    points += [complex(x, y) for x, y in draw(st.lists(st.tuples(_coord, _coord), max_size=60))]
    return balls, points


class TestBatchedEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(measure_and_points())
    def test_maximal_function_many_is_bit_exact(self, case):
        mu, points, beta = case
        want = [ref_maximal(mu, z, beta) for z in points]
        for block in (covering._BLOCK_ELEMENTS, 7):
            with mock.patch.object(covering, "_BLOCK_ELEMENTS", block):
                assert maximal_function_many(mu, points, beta).tolist() == want
        assert [maximal_function(mu, z, beta) for z in points] == want

    @settings(max_examples=150, deadline=None)
    @given(balls_and_points())
    def test_contains_many_is_bit_exact(self, case):
        balls, points = case
        cover = ExceptionalCover(tuple(balls), 1.0, 1.0, 0.0, 8.0)
        want = [any(b.contains(z) for b in balls) for z in points]
        for block in (covering._BLOCK_ELEMENTS, 7):
            with mock.patch.object(covering, "_BLOCK_ELEMENTS", block):
                assert cover.contains_many(points).tolist() == want
        assert [cover.contains(z) for z in points] == want

    def test_cover_build_matches_per_candidate_build(self):
        rng = np.random.default_rng(16)
        for beta in (0.5, 1.0, 1.5):
            for _ in range(3):
                mu = random_measure(rng, n=int(rng.integers(1, 12)))
                # a zero-weight copy and a weighted copy of the first atom
                mu = mu.concat(DiscreteMeasure(mu.points[:1] * 2, (0.0, 1.0)))
                params = CoverParams(beta, 5.0**beta * mu.total_mass * rng.uniform(1.0, 2.0))
                cover = build_exceptional_cover(mu, params, 64.0)
                assert cover.balls == ref_cover_balls(mu, params, 64.0)


# ---------------------------------------------------------------------------
# Golden values of the criterion 8/9/11/12 measure, from the per-point build
# and certification this module replaced
# ---------------------------------------------------------------------------


def hundred_atom_measure():
    rng = np.random.default_rng(42)
    r = np.exp(rng.uniform(np.log(2.0), np.log(1e3), 100))
    th = rng.uniform(1e-2, math.pi - 1e-2, 100)
    w = rng.uniform(0.5, 1.5, 100)
    triples = list(zip(r * np.cos(th), r * np.sin(th), w))
    norm = DiscreteMeasure.from_triples(triples).mass_functional(1)
    return DiscreteMeasure.from_triples((x, e, w / norm) for x, e, w in triples)


@pytest.fixture(scope="module")
def hundred_atom_cover():
    mu = hundred_atom_measure()
    params = CoverParams(beta=1.0, lam=5.0 * mu.total_mass)
    return mu, params, build_exceptional_cover(mu, params, search_radius=10_000.0)


class TestGolden:
    def test_cover_json_digest(self, hundred_atom_cover):
        _, _, cover = hundred_atom_cover
        digest = hashlib.sha256(cover_to_json(cover).encode()).hexdigest()
        assert digest == "0401bdfbb6ffdd8f119ba3a5df048d5b5465d07a5c251288049c1e2a4463914d"

    @pytest.mark.parametrize("seed, samples, attempts, worst", [
        (99, 10_000, 10_009, "0.2000290869492983"),
        (7, 2000, 2002, "0.20003040365824729"),
    ])
    def test_certification_report(self, hundred_atom_cover, seed, samples, attempts, worst):
        mu, params, cover = hundred_atom_cover
        rep = certify_complement(mu, params, cover, samples, seed=seed, radius_range=10_000.0)
        assert (rep.samples, rep.violation_count, repr(rep.worst_ratio)) == (samples, 0, worst)
        assert rep.attempts == attempts  # the per-draw sampler's count


class TestAttempts:
    def test_empty_cover_accepts_every_draw(self):
        cover = ExceptionalCover((), 1.0, 1.0, 0.0, 16.0)
        for samples in (1, 511, 512, 513, 2000):
            rep = certify_complement(DiscreteMeasure.empty(), CoverParams(1.0, 1.0), cover,
                                     samples, seed=3)
            assert rep.attempts == rep.samples == samples

    def test_rejections_count(self):
        cover = build_exceptional_cover(SINGLE_ATOM, SINGLE_PARAMS, 16.0)
        rep = certify_complement(SINGLE_ATOM, SINGLE_PARAMS, cover, 5000, seed=4)
        assert rep.samples == 5000
        assert rep.attempts > rep.samples  # the ball around the atom rejects some draws

    def test_full_cover_raises_after_max_attempts_draws(self, monkeypatch):
        drawn = []
        real_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def random(self, size):
                drawn.append(size[0])
                return self._rng.random(size)

        monkeypatch.setattr(covering.np.random, "default_rng", CountingGenerator)
        everything = ExceptionalCover((Ball(0.0, 0.0, 100.0),), 1.0, 5.0, 1.0, 16.0)
        with pytest.raises(ParameterError):
            certify_complement(SINGLE_ATOM, SINGLE_PARAMS, everything, samples=3, seed=5)
        assert sum(drawn) == 1000 * 3 + 10_000


class TestMemory:
    """Every batched temporary is bounded by covering._BLOCK_ELEMENTS."""

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_certification_on_a_thousand_atoms(self):
        rng = np.random.default_rng(17)
        mu = random_measure(rng, n=1000, r_lo=2.0, r_hi=1e3)
        params = CoverParams(1.0, 5.0 * mu.total_mass)
        cover = ExceptionalCover(
            tuple(Ball(p.real, p.imag, 0.5 * abs(p)) for p in mu.positions), 1.0, params.lam,
            0.0, 1024.0)
        peak = self.peak_bytes(lambda: certify_complement(mu, params, cover, 2000, seed=6))
        assert peak <= 1_000_000

    def test_cover_build(self):
        mu = hundred_atom_measure()
        params = CoverParams(beta=1.0, lam=5.0 * mu.total_mass)
        peak = self.peak_bytes(lambda: build_exceptional_cover(mu, params, 10_000.0))
        assert peak <= 1_000_000

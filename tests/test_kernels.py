import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfplanepot import (
    DiscreteMeasure,
    DomainError,
    NumericalFailure,
    SingularityError,
    fundamental_solution,
    green,
    green_potential,
    green_tail_envelope,
    lemma2_bound,
    modified_fundamental,
    modified_green,
    modified_green_many,
    modified_poisson,
    poisson,
    poisson_tail_envelope,
)
from halfplanepot import kernels
from halfplanepot.kernels import EvalMode

TWO_PI = 2 * math.pi


def rand_upper(rng, r_lo=0.05, r_hi=50.0):
    r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
    return cmath.rect(r, rng.uniform(1e-3, math.pi - 1e-3))


class TestFundamental:
    def test_unit_modulus_is_zero(self):
        assert fundamental_solution(1j) == 0.0
        assert fundamental_solution(complex(-1, 0)) == 0.0

    def test_e(self):
        assert math.isclose(fundamental_solution(math.e), 1 / TWO_PI, rel_tol=1e-15)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            if z == 0:
                continue
            assert fundamental_solution(z) == fundamental_solution(abs(z))

    def test_singularity(self):
        with pytest.raises(SingularityError):
            fundamental_solution(0j)


class TestModifiedFundamental:
    def test_inner_branch_reduces_to_e(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            zeta = cmath.rect(rng.uniform(0, 1.0), rng.uniform(0, TWO_PI))
            z = complex(rng.normal(), rng.normal())
            if z == zeta:
                continue
            for n in (0, 1, 3, 7):
                assert modified_fundamental(z, zeta, n) == fundamental_solution(z - zeta)

    def test_order_one_example(self):
        # E(-i) = 0 and the sum is empty, leaving -(log 2)/(2 pi)
        assert math.isclose(
            modified_fundamental(1j, 2j, 1), -math.log(2) / TWO_PI, rel_tol=1e-15
        )

    def test_order_two_example(self):
        # Re(i / (2i)) = 1/2
        expected = -(math.log(2) - 0.5) / TWO_PI
        assert math.isclose(modified_fundamental(1j, 2j, 2), expected, rel_tol=1e-15)

    def test_against_mpmath_definition(self):
        """Literal high-precision evaluation of E(z - zeta) minus the
        expansion Re(log zeta - sum z^k/(k zeta^k))."""
        mpmath.mp.dps = 50
        rng = np.random.default_rng(2)
        for _ in range(40):
            z = complex(rng.normal(), rng.normal())
            zeta = cmath.rect(math.exp(rng.uniform(0.01, 4.0)), rng.uniform(0.05, math.pi - 0.05))
            n = int(rng.integers(0, 7))
            zm, qm = mpmath.mpc(z), mpmath.mpc(zeta)
            ref = mpmath.log(abs(zm - qm)) / (2 * mpmath.pi)
            corr = mpmath.log(abs(qm))
            for k in range(1, n):
                corr -= mpmath.re(zm**k / (k * qm**k))
            ref -= corr / (2 * mpmath.pi)
            got = modified_fundamental(z, zeta, n)
            assert abs(got - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))


class TestGreen:
    def test_boundary_zeta_gives_zero(self):
        assert green(1 + 1j, complex(3.0, 0.0)) == 0.0

    def test_hand_value(self):
        assert math.isclose(green(1j, 2j), -math.log(3) / TWO_PI, rel_tol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z, zeta = rand_upper(rng), rand_upper(rng)
            if z == zeta:
                continue
            assert math.isclose(green(z, zeta), green(zeta, z), rel_tol=1e-13, abs_tol=1e-300)

    def test_sign_and_magnitude_bound(self):
        # G <= 0 and |G| <= y eta / (pi |z - zeta|^2)
        rng = np.random.default_rng(4)
        for _ in range(500):
            z, zeta = rand_upper(rng), rand_upper(rng)
            if abs(z - zeta) < 1e-9:
                continue
            g = green(z, zeta)
            assert g <= 0.0
            bound = z.imag * zeta.imag / (math.pi * abs(z - zeta) ** 2)
            assert -g <= bound * (1 + 1e-12)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            green(1j, 1j)


class TestModifiedGreen:
    def test_small_zeta_reduces_to_green(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            zeta = cmath.rect(rng.uniform(0.01, 1.0), rng.uniform(0.1, math.pi - 0.1))
            z = rand_upper(rng)
            if abs(z - zeta) < 1e-9:
                continue
            for m in (0, 1, 4):
                assert modified_green(z, zeta, m) == green(z, zeta)

    def test_boundary_zeta_gives_zero_every_order(self):
        for m in (0, 1, 3, 8):
            assert modified_green(0.5 + 2j, complex(4.0, 0.0), m) == 0.0

    def test_m_zero_is_green(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            z, zeta = rand_upper(rng), rand_upper(rng)
            if abs(z - zeta) < 1e-9:
                continue
            assert modified_green(z, zeta, 0, EvalMode.DIRECT) == green(z, zeta)

    def test_direct_tail_cross_check(self):
        d = modified_green(1j, 4j, 1, EvalMode.DIRECT)
        t = modified_green(1j, 4j, 1, EvalMode.TAIL)
        assert math.isclose(d, t, rel_tol=1e-9)

    def test_against_mpmath_definition(self):
        """G_m must equal the literal E_{m+1}(z, zeta) - E_{m+1}(z, conj zeta)."""
        mpmath.mp.dps = 60

        def e_n(zm, qm, n):
            val = mpmath.log(abs(zm - qm)) / (2 * mpmath.pi)
            if abs(qm) <= 1:
                return val
            corr = mpmath.log(abs(qm))
            for k in range(1, n):
                corr -= mpmath.re(zm**k / (k * qm**k))
            return val - corr / (2 * mpmath.pi)

        rng = np.random.default_rng(7)
        for _ in range(40):
            z = rand_upper(rng, 0.1, 5.0)
            zeta = rand_upper(rng, 0.2, 8.0)
            if abs(z - zeta) < 1e-6:
                continue
            m = int(rng.integers(0, 6))
            zm, qm = mpmath.mpc(z), mpmath.mpc(zeta)
            ref = float(e_n(zm, qm, m + 1) - e_n(zm, mpmath.conj(qm), m + 1))
            got = modified_green(z, zeta, m, EvalMode.DIRECT)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_tail_mode_domain(self):
        with pytest.raises(DomainError):
            modified_green(1j, 1.5j, 0, EvalMode.TAIL)  # |zeta| < 2|z|
        with pytest.raises(DomainError):
            modified_green(0.1j, 0.9j, 0, EvalMode.TAIL)  # |zeta| <= 1

    def test_singularity(self):
        with pytest.raises(SingularityError):
            modified_green(2j, 2j, 1)

    def test_tail_hard_stop_raises(self, monkeypatch):
        converged = modified_green(1j, 4j, 1, EvalMode.TAIL)
        monkeypatch.setattr(kernels, "_TAIL_EPS", -1.0)  # never met: run to the stop
        with pytest.raises(NumericalFailure) as exc:
            modified_green(1j, 4j, 1, EvalMode.TAIL)
        # after 4001 terms at ratio 1/4 the partial sum is the converged
        # value, and the remainder bound (1/4)^4003 / (4003 * 3/4) underflows
        assert math.isclose(exc.value.value, converged, rel_tol=1e-15)
        assert exc.value.estimate == 0.0


EPS = 2.0**-52

# Rays near 0 and near pi as well as in between; atoms also lie on the real
# axis (angle 0 or pi gives eta = 0 or a tiny eta).
RAY_ANGLES = st.one_of(
    st.sampled_from([1e-9, 1e-6, 1e-3, math.pi / 2, math.pi - 1e-3, math.pi - 1e-6, math.pi - 1e-9]),
    st.floats(min_value=1e-9, max_value=math.pi - 1e-9),
)
ATOM_ANGLES = st.one_of(RAY_ANGLES, st.sampled_from([0.0, math.pi]))


def gm_magnitudes(z, zeta, m):
    """The summed term magnitudes of G_m(z, zeta): |G| (direct path only)
    plus sum t^k / (pi k) over the correction or tail terms, plus |G_m|.
    64 eps of this is the rounding envelope that the benchmark's h check
    uses, term by term."""
    if zeta.imag == 0.0:
        return 0.0
    az, azeta = abs(z), abs(zeta)
    t = az / azeta
    if azeta > 1.0 and az <= 0.5 * azeta:
        size, k = 0.0, m + 1
        while True:
            term = t**k / (math.pi * k)
            size += term
            if term <= 1e-17 * size:
                break
            k += 1
    else:
        size = abs(green(z, zeta))
        if azeta > 1.0:
            size += math.fsum(t**k / (math.pi * k) for k in range(1, m + 1))
    return size + abs(modified_green(z, zeta, m))


@st.composite
def point_and_atoms(draw):
    """An interior z with |z| in [1e-3, 1e6] and atoms on every branch:
    on the switch lines |zeta| = 2|z| (tail) and |zeta| = 1 (direct), one
    ulp either side of |zeta| = 2|z|, inside the unit disc, on the real axis
    (eta = 0), and anywhere within three decades of |z|."""
    z = cmath.rect(10.0 ** draw(st.floats(min_value=-3.0, max_value=6.0)), draw(RAY_ANGLES))
    r = abs(z)
    atoms = [2.0 * r * 1j, complex(-2.0 * r, 0.0), 1j, complex(0.6, 0.8),
             2.0 * r * (1.0 + EPS) * 1j, 2.0 * r * (1.0 - EPS / 2) * 1j]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        atoms.append(cmath.rect(draw(st.floats(min_value=1e-3, max_value=1.0)), draw(ATOM_ANGLES)))
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        rho = r * 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
        atoms.append(cmath.rect(rho, draw(ATOM_ANGLES)))
    # G_m is singular at zeta = z and the benchmark keeps atoms away from points
    atoms = [q for q in atoms if abs(q - z) > 1e-12 * r]
    return z, atoms


class TestModifiedGreenMany:
    """The array G_m against the scalar modified_green, element by element.

    Envelope: each element may differ from the scalar value by at most
    64 eps times its summed term magnitudes (gm_magnitudes), the constant of
    the benchmark's h check.  numpy's sin, atan2, log1p and pow may round
    differently from the math module's, so the two forms need not be
    bit-identical.  Over 30,000 random pairs about 98% were, and the largest
    difference was 12 eps of the magnitudes, at m = 32 on the tail path.
    """

    @settings(max_examples=300, deadline=None)
    @given(point_and_atoms(), st.sampled_from([0, 1, 2, 6, 32]))
    def test_matches_scalar_within_envelope(self, case, m):
        z, atoms = case
        got = modified_green_many(z, np.array(atoms, dtype=complex), m)
        assert got.shape == (len(atoms),)
        for q, g in zip(atoms, got):
            ref = modified_green(z, q, m)
            assert abs(g - ref) <= 64 * EPS * gm_magnitudes(z, q, m), (z, q, m, g, ref)
            if q.imag == 0.0:
                assert g == 0.0

    @pytest.mark.parametrize(
        "z,zeta",
        [
            (1 + 2j, 3 + 7j),  # tail
            (1 + 2j, -40 + 9j),  # tail, |z|/|zeta| ~ 1/18
            (0.5 + 0.01j, 3 + 1e-3j),  # tail, near the real axis
            (1e3 + 1e3j, -5e3 + 1e2j),  # tail, ray near pi for zeta
            (20 + 30j, 1 + 0.5j),  # direct, correction terms of size 1e43
            (20 + 30j, 30 + 25j),  # direct, |zeta| ~ |z|
            (2 + 1j, 4.472135954999579j),  # direct, just below |zeta| = 2|z|
        ],
    )
    def test_against_mpmath_at_order_32(self, z, zeta):
        m = 32
        mpmath.mp.dps = 80
        zm, qm = mpmath.mpc(z), mpmath.mpc(zeta)

        def e_n(qq, n):
            val = mpmath.log(abs(zm - qq)) / (2 * mpmath.pi)
            if abs(qq) <= 1:
                return val
            corr = mpmath.log(abs(qq))
            for k in range(1, n):
                corr -= mpmath.re(zm**k / (k * qq**k))
            return val - corr / (2 * mpmath.pi)

        ref = float(e_n(qm, m + 1) - e_n(mpmath.conj(qm), m + 1))
        got = modified_green_many(z, [zeta], m)[0]
        assert abs(got - ref) <= 64 * EPS * gm_magnitudes(z, zeta, m)

    def test_green_potential_is_fsum_of_scalar_terms(self):
        rng = np.random.default_rng(21)
        for m in (0, 1, 2, 6, 32):
            triples = [
                (rng.uniform(-1e3, 1e3), 10 ** rng.uniform(-3, 3), rng.uniform(0, 2))
                for _ in range(60)
            ]
            mu = DiscreteMeasure.from_triples(triples)
            for _ in range(10):
                z = cmath.rect(10 ** rng.uniform(-3, 4), rng.uniform(1e-3, math.pi - 1e-3))
                pairs = list(zip(mu.weights, mu.points))
                ref = math.fsum(w * modified_green(z, q, m) for w, q in pairs)
                env = 64 * EPS * math.fsum(w * gm_magnitudes(z, q, m) for w, q in pairs)
                assert abs(green_potential(mu, z, m) - ref) <= env

    def test_empty(self):
        assert modified_green_many(1j, np.array([], dtype=complex), 3).shape == (0,)

    def test_singularity_names_the_atom(self):
        with pytest.raises(SingularityError, match="#1"):
            modified_green_many(2j, [5j, 2j], 1)

    @pytest.mark.parametrize("zeta", [1 - 1j, complex(math.nan, 1.0), complex(1.0, math.inf)])
    def test_rejects_points_off_the_closed_half_plane(self, zeta):
        with pytest.raises(ValueError):
            modified_green_many(1j, [2j, zeta], 1)

    def test_tail_hard_stop_raises(self, monkeypatch):
        converged = modified_green(1j, 4j, 1, EvalMode.TAIL)
        monkeypatch.setattr(kernels, "_TAIL_EPS", -1.0)  # never met: run to the stop
        with pytest.raises(NumericalFailure, match="atom #1") as exc:
            modified_green_many(1j, [0.5j, 4j, 8j], 1)
        # the first tail element still running carries the payload, as in
        # the scalar test: the converged sum and an underflowed remainder
        assert math.isclose(exc.value.value, converged, rel_tol=1e-15)
        assert exc.value.estimate == 0.0


class TestPoisson:
    def test_hand_value(self):
        assert math.isclose(poisson(1j, 0.0), 1 / math.pi, rel_tol=1e-15)

    def test_translation(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = rand_upper(rng)
            xi = rng.normal() * 5
            assert poisson(z, xi) == poisson(complex(z.real - xi, z.imag), 0.0)

    def test_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            assert poisson(rand_upper(rng), rng.normal() * 10) > 0.0


class TestModifiedPoisson:
    def test_m_zero_is_poisson(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            z = rand_upper(rng)
            xi = rng.normal() * 10
            if xi == 0:
                continue
            assert modified_poisson(z, xi, 0, EvalMode.DIRECT) == poisson(z, xi)

    def test_small_xi_is_poisson_every_order(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = rand_upper(rng)
            xi = rng.uniform(-1, 1)
            for m in (1, 3, 8):
                assert modified_poisson(z, xi, m) == poisson(z, xi)

    def test_hand_value(self):
        assert math.isclose(
            modified_poisson(1j, 2.0, 1), -1 / (20 * math.pi), rel_tol=1e-13
        )
        # the same point sits on the tail-region boundary
        assert math.isclose(
            modified_poisson(1j, 2.0, 1, EvalMode.TAIL),
            -1 / (20 * math.pi),
            rel_tol=1e-13,
        )

    def test_against_naive_definition(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            z = rand_upper(rng, 0.1, 20.0)
            xi = (1.0 if rng.uniform() < 0.5 else -1.0) * rng.uniform(1.01, 30.0)
            m = int(rng.integers(0, 9))
            naive = poisson(z, xi) - sum(
                (z**k / xi ** (1 + k)).imag for k in range(m + 1)
            ) / math.pi
            got = modified_poisson(z, xi, m, EvalMode.DIRECT)
            scale = poisson(z, xi) + sum(
                abs(z) ** k / abs(xi) ** (k + 1) for k in range(m + 1)
            )
            assert abs(got - naive) <= 1e-13 * scale

    def test_tail_mode_domain(self):
        with pytest.raises(DomainError):
            modified_poisson(1j, 1.5, 0, EvalMode.TAIL)


class TestBranchConsistency:
    """Direct and tail paths agree to 1e-9 of the kernel envelope in the
    handoff band t = |z|/|arg| in [0.4, 0.5]."""

    def test_modified_poisson(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            m = int(rng.integers(0, 9))
            axi = math.exp(rng.uniform(math.log(1.0001), math.log(1e3)))
            xi = axi * (1.0 if rng.uniform() < 0.5 else -1.0)
            z = cmath.rect(rng.uniform(0.4, 0.5) * axi, rng.uniform(1e-3, math.pi - 1e-3))
            d = modified_poisson(z, xi, m, EvalMode.DIRECT)
            t = modified_poisson(z, xi, m, EvalMode.TAIL)
            assert abs(d - t) <= 1e-9 * poisson_tail_envelope(z, xi, m)

    def test_modified_green(self):
        rng = np.random.default_rng(14)
        for _ in range(2000):
            m = int(rng.integers(0, 9))
            azeta = math.exp(rng.uniform(math.log(1.0001), math.log(1e3)))
            zeta = cmath.rect(azeta, rng.uniform(1e-3, math.pi - 1e-3))
            z = cmath.rect(rng.uniform(0.4, 0.5) * azeta, rng.uniform(1e-3, math.pi - 1e-3))
            d = modified_green(z, zeta, m, EvalMode.DIRECT)
            t = modified_green(z, zeta, m, EvalMode.TAIL)
            assert abs(d - t) <= 1e-9 * green_tail_envelope(z, zeta, m)


class TestKernelLink:
    def test_finite_difference_matches_modified_poisson(self):
        # -G_m(z, xi + i eta)/eta -> P_m(z, xi); G_m vanishes at eta = 0 so the
        # one-sided quotient is second-order accurate.
        rng = np.random.default_rng(15)
        eta = 1e-4
        checked = 0
        while checked < 200:
            m = int(rng.integers(0, 9))
            axi = math.exp(rng.uniform(math.log(2.0), math.log(100.0)))
            xi = axi * (1.0 if rng.uniform() < 0.5 else -1.0)
            z = cmath.rect(
                rng.uniform(0.2, 0.45) * axi, rng.uniform(0.05 * math.pi, 0.95 * math.pi)
            )
            if abs(xi - z) < 1.0:
                continue
            pm = modified_poisson(z, xi, m)
            if abs(pm) < 1e-2 * poisson_tail_envelope(z, xi, m):
                continue
            checked += 1
            fd = -modified_green(z, complex(xi, eta), m) / eta
            assert abs(fd - pm) <= 1e-3 * abs(pm)


class TestHarmonicity:
    @staticmethod
    def lap5(f, z, d):
        return (f(z + d) + f(z - d) + f(z + 1j * d) + f(z - 1j * d) - 4 * f(z)) / d**2

    def test_modified_poisson_harmonic_in_z(self):
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 25:
            m = int(rng.integers(0, 9))
            xi = (1.0 if rng.uniform() < 0.5 else -1.0) * rng.uniform(0.2, 10.0)
            z = complex(rng.uniform(-8, 8), rng.uniform(0.5, 6.0))
            if abs(z - xi) < 1.0:
                continue
            checked += 1
            f = lambda w: modified_poisson(w, xi, m)
            scale = abs(f(z)) + poisson(z, xi)
            assert abs(self.lap5(f, z, 1e-3)) <= 1e-4 * scale

    def test_modified_green_harmonic_in_z(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 25:
            m = int(rng.integers(0, 9))
            zeta = complex(rng.uniform(-8, 8), rng.uniform(0.5, 6.0))
            z = complex(rng.uniform(-8, 8), rng.uniform(0.5, 6.0))
            if abs(z - zeta) < 1.0:
                continue
            checked += 1
            g = lambda w: modified_green(w, zeta, m)
            scale = abs(g(z)) + abs(green(z, zeta))
            assert abs(self.lap5(g, z, 1e-3)) <= 1e-4 * scale


coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
heights = st.floats(min_value=1e-3, max_value=100.0, allow_nan=False)


class TestKernelProperties:
    @given(coords, heights, coords, heights)
    def test_green_sign_and_eq_2_14(self, x, y, xi, eta):
        z, zeta = complex(x, y), complex(xi, eta)
        if abs(z - zeta) < 1e-9:
            return
        g = green(z, zeta)
        assert g <= 0.0
        assert -g <= y * eta / (math.pi * abs(z - zeta) ** 2) * (1 + 1e-12)

    @given(coords, heights, coords)
    def test_poisson_positive_and_translation_invariant(self, x, y, xi):
        z = complex(x, y)
        p = poisson(z, xi)
        assert p > 0.0
        assert p == poisson(complex(x - xi, y), 0.0)

    @given(coords, heights, st.integers(min_value=0, max_value=8))
    def test_modified_green_boundary_degeneracy(self, x, y, m):
        # eta = 0 collapses both E_{m+1} terms for every order
        zeta = complex(x, 0.0)
        z = complex(0.3, y)
        if z == zeta:
            return
        assert modified_green(z, zeta, m) == 0.0


class TestLemma2Bound:
    def test_case1_order_zero_both_sides_empty(self):
        lhs, rhs = lemma2_bound(1, 1j, 5.0, 0)
        assert lhs == 0.0 and rhs == 0.0

    def test_case2_hand_example(self):
        # closed form y xi^2 / |xi - z|^2 = 100/101 at z=i, xi=10
        lhs, rhs = lemma2_bound(2, 1j, 10.0, 0)
        assert math.isclose(lhs, 100.0 / 101.0, rel_tol=1e-13)
        assert rhs == 2.0

    def test_case3_equality_example(self):
        lhs, rhs = lemma2_bound(3, 1j, 2j, 1)
        assert math.isclose(lhs, 1 / (2 * math.pi), rel_tol=1e-13)
        assert math.isclose(rhs, 1 / (2 * math.pi), rel_tol=1e-13)
        assert lhs <= rhs * (1 + 1e-12)

    def test_case2_boundary_circle_margin(self):
        # on |xi - z| = 3|z| the closed form is at most (16/9) y < 2 y (m = 0)
        rng = np.random.default_rng(18)
        for _ in range(500):
            z = rand_upper(rng, 0.1, 10.0)
            # xi just outside the circle |xi - z| = 3|z|: xi = x +- sqrt(9|z|^2 - y^2)
            dx = math.sqrt(9 * abs(z) ** 2 - z.imag**2) * (1 + 1e-9)
            for xi in (z.real + dx, z.real - dx):
                if xi == 0:
                    continue
                lhs, rhs = lemma2_bound(2, z, xi, 0)
                assert lhs <= (16.0 / 9.0) * z.imag * (1 + 1e-12)
                assert rhs == 2.0 * z.imag

    def test_preconditions(self):
        with pytest.raises(DomainError):
            lemma2_bound(1, 1j, 0.0, 1)
        with pytest.raises(DomainError):
            lemma2_bound(2, 1j, 2.0, 1)  # |xi - z| < 3|z|
        with pytest.raises(DomainError):
            lemma2_bound(3, 1j, 0.5j, 1)  # |zeta| <= 1
        with pytest.raises(DomainError):
            lemma2_bound(4, 1j, 1.5j, 1)  # |zeta| <= 2|z|
        with pytest.raises(ValueError):
            lemma2_bound(5, 1j, 2.0, 1)

"""Field, polynomial, and interpolation tests, including the exhaustive
perfect-secrecy count over F_31."""

import random
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from conftest import deal, make_tree, tf
from hiershare import algebra
from hiershare.curve import STANDARD_CURVE
from hiershare.sharing import reconstruct
from hiershare.algebra import (
    DuplicateAbscissa,
    FieldParams,
    Polynomial,
    ZeroAbscissa,
    ZeroInverse,
    field_inverse,
    interpolate,
    is_prime,
    lagrange_at_zero,
    lagrange_weights,
    poly_eval,
    randbelow,
    sample_polynomial,
)

# Draw bounds from 1 to the secp256k1 group order.
DRAW_BOUNDS = [1, 2, 3, 13, 1009, 2**61 - 1, STANDARD_CURVE.order]


class TestFieldParams:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            FieldParams(21)

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            FieldParams(2)


# psi_12 and psi_13: the least composites that pass Miller-Rabin to the
# first 12 and 13 prime bases (Jiang & Deng 2014, Sorenson & Webster 2017).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
# Base-2 strong pseudoprimes with no factor below 1000.
BASE_2_PSEUDOPRIMES = [3474749660383, 341550071728321, 3825123056546413051, PSI_12, PSI_13]


def strong_probable_prime(n, a):
    """Reference Miller-Rabin round to base a, independent of ``is_prime``."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


class TestIsPrime:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
        for n in range(2, 40):
            assert is_prime(n) == (n in primes)

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    def test_large(self):
        p256 = 2**256 - 2**32 - 977
        assert is_prime(p256)
        assert not is_prime(p256 + 2)

    def test_matches_a_sieve_above_trial_division(self):
        # 1711469 = 1069 * 1601 lies in the window: a strong Lucas
        # pseudoprime with no factor below 1000, refused only by Miller-Rabin.
        lo, hi = 1_700_000, 1_720_000
        sieve = bytearray([1]) * (hi - lo)
        for q in algebra._small_primes(isqrt(hi) + 1):
            start = max(q * q, -(-lo // q) * q)
            sieve[start - lo :: q] = bytes(len(sieve[start - lo :: q]))
        assert [n for n in range(lo, hi) if is_prime(n)] == [
            n for n in range(lo, hi) if sieve[n - lo]
        ]

    @pytest.mark.parametrize("n", BASE_2_PSEUDOPRIMES)
    def test_base_2_strong_pseudoprimes_are_refused_by_the_lucas_half(self, n):
        assert all(n % q for q in algebra._TRIAL_PRIMES)
        assert strong_probable_prime(n, 2)
        assert not algebra._strong_lucas(n)
        assert not is_prime(n)

    def test_psi_12_is_composite(self):
        assert PSI_12 == 399165290221 * 798330580441
        # Of the proven base set only 41, the 13th prime, is a witness.
        assert [a for a in algebra._MR_BASES if not strong_probable_prime(PSI_12, a)] == [41]
        assert not is_prime(PSI_12)

    @pytest.mark.parametrize("n", [5459, 5777, 10877, 16109, 18971, 1711469])
    def test_strong_lucas_pseudoprimes_are_refused(self, n):
        assert algebra._strong_lucas(n)
        assert not is_prime(n)

    @pytest.mark.parametrize("root", [1009, 1093, 2**61 - 1, 2**127 - 1])
    def test_squares_of_primes_are_refused_without_a_search(self, monkeypatch, root):
        # A square has no D with (D/n) = -1, so the search must not start.
        # 1093 is a Wieferich prime: its square passes Miller-Rabin to base 2.
        def jacobi(a, n):
            raise AssertionError("Jacobi symbol taken for a square")

        monkeypatch.setattr(algebra, "_jacobi", jacobi)
        assert not algebra._strong_lucas(root * root)
        assert not is_prime(root * root)

    @pytest.mark.parametrize(
        "n",
        [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1, STANDARD_CURVE.order],
    )
    def test_large_primes_are_accepted(self, n):
        assert is_prime(n)

    def test_one_modular_exponentiation_above_psi_13(self, monkeypatch):
        # secp256k1's n is above psi_13: one base-2 exponentiation; the
        # Lucas half and the Jacobi symbols use none.
        calls = []

        def counting(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(algebra, "pow", counting, raising=False)
        assert is_prime(STANDARD_CURVE.order)
        assert len(calls) == 1


class TestFieldArithmetic:
    def test_inverse_examples(self):
        assert field_inverse(2, 19) == 10
        assert field_inverse(1, 19) == 1
        assert field_inverse(7, 31) == 9

    def test_inverse_exhaustive_f19(self):
        for a in range(1, 19):
            assert field_inverse(a, 19) * a % 19 == 1

    @pytest.mark.parametrize("p", [19, STANDARD_CURVE.order])
    def test_inverse_equals_fermat(self, p):
        rng = random.Random(p)
        for a in [rng.randrange(1, p) for _ in range(50)] + [1, p - 1, p + 2, -3]:
            assert field_inverse(a, p) == pow(a, p - 2, p)

    def test_zero_inverse(self):
        with pytest.raises(ZeroInverse):
            field_inverse(0, 19)
        with pytest.raises(ZeroInverse):
            field_inverse(19, 19)


class TestPolyEval:
    def test_direct_substitution(self):
        q = Polynomial((5, 3))
        assert poly_eval(q, 2, 19) == 11

    def test_wraparound(self):
        q = Polynomial((5, 3))
        assert poly_eval(q, 7, 19) == 7

    def test_zero_gives_free_coefficient(self, rng):
        for degree in range(6):
            q = sample_polynomial(rng, degree, rng.randrange(19), 19)
            assert poly_eval(q, 0, 19) == q[0]


class TestRandbelow:
    @pytest.mark.parametrize("n", DRAW_BOUNDS)
    def test_draws_as_randrange(self, n):
        """randbelow(n) is randrange(n), and 1 + randbelow(n - 1) is
        randrange(1, n): equal values, and equal generator states after."""
        ours, reference = random.Random(n), random.Random(n)
        for _ in range(200):
            assert randbelow(ours, n) == reference.randrange(n)
            if n > 1:
                assert 1 + randbelow(ours, n - 1) == reference.randrange(1, n)
            assert ours.getstate() == reference.getstate()


class TestSamplePolynomial:
    @pytest.mark.parametrize("p", [n for n in DRAW_BOUNDS if n > 2])
    def test_draws_as_randrange(self, p):
        """Each coefficient is randrange(p), and a zero top one is drawn
        again, so the polynomials and the generator states match a
        randrange reference. p = 3 makes a zero top coefficient common."""
        ours, reference = random.Random(p), random.Random(p)
        for degree in list(range(6)) * 20:
            expected = [1] + [reference.randrange(p) for _ in range(degree)]
            while degree and expected[-1] == 0:
                expected[-1] = reference.randrange(p)
            assert sample_polynomial(ours, degree, 1, p) == tuple(expected)
            assert ours.getstate() == reference.getstate()

    def test_degree_zero_is_constant(self, rng):
        q = sample_polynomial(rng, 0, 7, 19)
        assert len(q) == 1
        assert q[0] == 7

    def test_free_coefficient_kept(self, rng):
        q = sample_polynomial(rng, 2, 5, 31)
        assert q[0] == 5
        assert len(q) == 3

    def test_is_a_coefficient_tuple(self, rng):
        assert Polynomial((5, 3)) == (5, 3)
        for degree in range(5):
            q = sample_polynomial(rng, degree, 1, 19)
            assert type(q) is tuple and len(q) == degree + 1

    def test_deterministic_under_seed(self):
        a = sample_polynomial(random.Random(99), 2, 4, 31)
        b = sample_polynomial(random.Random(99), 2, 4, 31)
        assert a == b

    def test_leading_coefficient_never_zero(self):
        rng = random.Random(3)
        for _ in range(300):
            q = sample_polynomial(rng, 3, rng.randrange(19), 19)
            assert all(0 <= c < 19 for c in q)
            assert q[-1] != 0

    def test_negative_degree(self, rng):
        with pytest.raises(ValueError):
            sample_polynomial(rng, -1, 0, 19)


class TestLagrangeAtZero:
    def test_two_points_on_line(self):
        assert lagrange_at_zero([(1, 8), (2, 11)], 19) == 5

    def test_single_point(self):
        assert lagrange_at_zero([(4, 9)], 19) == 9

    def test_duplicate_abscissa(self):
        with pytest.raises(DuplicateAbscissa):
            lagrange_at_zero([(1, 8), (1, 9)], 19)

    def test_zero_abscissa(self):
        with pytest.raises(ZeroAbscissa):
            lagrange_at_zero([(0, 8)], 19)

    def test_abscissa_checks_reduce_mod_p(self):
        p = 19
        with pytest.raises(ZeroAbscissa):
            lagrange_at_zero([(p, 5)], p)
        with pytest.raises(DuplicateAbscissa):
            lagrange_at_zero([(3, 1), (3 + p, 2)], p)

    def test_one_inversion_per_interpolation(self, monkeypatch):
        calls = []

        def counting_inverse(a, p):
            calls.append(a)
            return field_inverse(a, p)

        monkeypatch.setattr(algebra, "field_inverse", counting_inverse)
        q = sample_polynomial(random.Random(8), 4, 12, 31)
        pts = [(x, poly_eval(q, x, 31)) for x in (2, 5, 9, 17, 30)]
        assert lagrange_at_zero(pts, 31) == 12
        assert len(calls) == 1

    def test_round_trip_exhaustive_small_degrees(self, rng):
        # Every abscissa set of size k+1 over F_19 for k <= 3.
        for k in range(4):
            for xs in combinations(range(1, 19), k + 1):
                q = sample_polynomial(rng, k, rng.randrange(19), 19)
                pts = [(x, poly_eval(q, x, 19)) for x in xs]
                assert lagrange_at_zero(pts, 19) == q[0]

    @pytest.mark.parametrize("modulus", [19, 31])
    def test_round_trip_sampled_up_to_degree_8(self, modulus):
        rng = random.Random(modulus)
        for _ in range(200):
            k = rng.randrange(9)
            q = sample_polynomial(rng, k, rng.randrange(modulus), modulus)
            xs = rng.sample(range(1, modulus), k + 1)
            pts = [(x, poly_eval(q, x, modulus)) for x in xs]
            assert lagrange_at_zero(pts, modulus) == q[0]


class TestWeightCache:
    """``lagrange_weights`` is computed once per (abscissa set, modulus);
    every later interpolation over the set is a dot product."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = []

        def counting_inverse(a, p):
            calls.append(a)
            return field_inverse(a, p)

        monkeypatch.setattr(algebra, "field_inverse", counting_inverse)
        lagrange_weights.cache_clear()
        return calls

    def test_first_interpolation_inverts_once_and_a_repeat_never(self, inversions):
        q = sample_polynomial(random.Random(3), 3, 7, 31)
        pts = [(x, poly_eval(q, x, 31)) for x in (4, 11, 20, 29)]
        assert lagrange_at_zero(pts, 31) == 7
        assert len(inversions) == 1
        other = sample_polynomial(random.Random(4), 3, 12, 31)
        assert lagrange_at_zero([(x, poly_eval(other, x, 31)) for x, _ in pts], 31) == 12
        assert len(inversions) == 1
        assert lagrange_weights.cache_info().hits == 1

    def test_refusals_raise_on_every_call(self, inversions):
        for _ in range(3):
            with pytest.raises(ZeroAbscissa):
                lagrange_at_zero([(5, 1), (31, 2)], 31)
            with pytest.raises(DuplicateAbscissa):
                lagrange_at_zero([(5, 1), (36, 2)], 31)
            with pytest.raises(ValueError):
                lagrange_at_zero([], 31)
        assert inversions == []

    def test_same_ids_under_another_modulus_or_order(self, inversions):
        xs = (2, 5, 9, 17)
        for modulus in (19, 31, 1009, 19):
            q = sample_polynomial(random.Random(modulus), 3, 6, modulus)
            for order in (xs, xs[::-1], (9, 2, 17, 5)):
                pts = [(x, poly_eval(q, x, modulus)) for x in order]
                assert lagrange_at_zero(pts, modulus) == 6
        # Three orders under each of three moduli; the repeat of 19 hits.
        assert len(inversions) == 9

    def test_weights_interpolate_constants_and_lines(self):
        # sum_i w_i * 1 interpolates the constant 1; sum_i w_i * x_i the
        # line through the origin.
        weights = lagrange_weights((3, 8, 14), 31)
        assert sum(weights) % 31 == 1
        assert sum(w * x for w, x in zip(weights, (3, 8, 14))) % 31 == 0

    def test_second_reconstruct_of_a_no_curve_tree_is_served_from_the_cache(self, rng):
        tree = make_tree([[[], [], []], [[], []], [[[], []]]], rng, prime=1009)
        dealer, _secret, shares = deal(tree, 321, tf(2, 3), rng)
        lagrange_weights.cache_clear()
        assert reconstruct(tree, shares, shares, dealer.split) == 321
        first = lagrange_weights.cache_info()
        # Five groups, thresholds 2 of {1, 2, 3}, 2 of {4, 5, 6}, 2 of
        # {7, 8}, 1 of {9} and 2 of {10, 11}: the root picks 1 and 2, so
        # only the groups under 0, 1 and 2 are interpolated.
        assert (first.hits, first.misses) == (0, 3)
        assert reconstruct(tree, shares, shares, dealer.split) == 321
        second = lagrange_weights.cache_info()
        assert (second.hits, second.misses) == (3, 3)

    def test_cache_is_bounded(self):
        # Every group of a 1,364-user, fan-out-4 tree fits.
        assert lagrange_weights.cache_info().maxsize == algebra.WEIGHT_CACHE_SIZE > 341


class TestInterpolate:
    @pytest.mark.parametrize("modulus", [19, 1009, STANDARD_CURVE.order])
    def test_round_trip_degrees_0_to_6(self, modulus):
        rng = random.Random(modulus)
        for degree in range(7):
            for _ in range(5):
                q = sample_polynomial(rng, degree, rng.randrange(modulus), modulus)
                xs: set[int] = set()
                while len(xs) <= degree:
                    xs.add(rng.randrange(modulus))
                f = interpolate([(x, poly_eval(q, x, modulus)) for x in xs], modulus)
                assert f == q
                for _ in range(3):
                    x = rng.randrange(modulus)
                    assert poly_eval(f, x, modulus) == poly_eval(q, x, modulus)

    def test_through_zero_keeps_every_coefficient(self):
        # Points on 3x + 5x^2 mod 19: the x^2 term needs all three points.
        pts = [(0, 0), (1, 8), (2, 7)]
        assert interpolate(pts, 19) == (0, 3, 5)

    def test_duplicate_abscissa(self):
        with pytest.raises(DuplicateAbscissa):
            interpolate([(0, 0), (4, 8), (4, 9)], 19)
        with pytest.raises(DuplicateAbscissa):
            interpolate([(3, 1), (3 + 19, 2)], 19)

    def test_no_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            interpolate([], 19)

    def test_one_inversion_per_interpolation(self, monkeypatch):
        calls = []

        def counting_inverse(a, p):
            calls.append(a)
            return field_inverse(a, p)

        monkeypatch.setattr(algebra, "field_inverse", counting_inverse)
        q = sample_polynomial(random.Random(9), 6, 0, 1009)
        pts = [(x, poly_eval(q, x, 1009)) for x in (0, 2, 5, 9, 17, 30, 500)]
        assert interpolate(pts, 1009) == q
        assert len(calls) == 1


@given(
    degree=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
    free=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_interpolation_round_trip_property(degree, seed, free):
    rng = random.Random(seed)
    q = sample_polynomial(rng, degree, free, 31)
    xs = rng.sample(range(1, 31), degree + 1)
    pts = [(x, poly_eval(q, x, 31)) for x in xs]
    assert lagrange_at_zero(pts, 31) == free


def test_perfect_secrecy_flat_distribution_f31():
    """With threshold 3, two fixed shares leave every candidate secret
    consistent with exactly the same number of degree-2 polynomials."""
    x1, y1 = 3, 17
    x2, y2 = 12, 5
    counts = {a0: 0 for a0 in range(31)}
    for a0 in range(31):
        for a1 in range(31):
            for a2 in range(31):
                v1 = (a0 + a1 * x1 + a2 * x1 * x1) % 31
                v2 = (a0 + a1 * x2 + a2 * x2 * x2) % 31
                if v1 == y1 and v2 == y2:
                    counts[a0] += 1
    assert len(set(counts.values())) == 1
    # One (a1, a2) pair per candidate secret: flat and nonzero.
    assert counts[0] == 1

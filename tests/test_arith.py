import random
from functools import cache
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opnkit
from opnkit import arith, congruences, identities, sieve
from opnkit.arith import (
    EffortExceededError,
    SpoofFactor,
    SpoofFactorization,
    classify_prime,
    divisor_sum_geometric,
    factorize,
    is_prime,
    prime_counts_1mod4,
    primes_below,
    sigma,
    sigma_range,
    sigma_triple,
    spoof_sigma,
)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, 1),
        (2, 3),
        (6, 12),
        (28, 56),
        (9, 13),
        (225, 403),
        (496, 992),
        (9018009, 18035199),
    ],
)
def test_sigma_known_values(n, expected):
    assert sigma(n) == expected


@pytest.mark.parametrize(
    "n,expected",
    [(6, 0), (28, 0), (9, 5), (12, -4), (1, 1), (9018009, 819)],
)
def test_deficiency_known_values(n, expected):
    assert sigma_triple(n).deficiency == expected


@pytest.mark.parametrize(
    "n,expected",
    [(1, 0), (6, 6), (225, 178), (9018009, 9017190)],
)
def test_aliquot_known_values(n, expected):
    assert sigma_triple(n).aliquot == expected


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma(0)
    with pytest.raises(ValueError):
        sigma_triple(-3)


def test_sigma_triple_bundles_all_three():
    t = sigma_triple(9018009)
    assert (t.sigma, t.deficiency, t.aliquot) == (18035199, 819, 9017190)


@given(st.integers(min_value=1, max_value=10**6))
def test_deficiency_plus_aliquot_is_n(n):
    t = sigma_triple(n)
    assert t.deficiency + t.aliquot == n


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_sigma_multiplicative_on_coprime_parts(a, b):
    from math import gcd

    if gcd(a, b) == 1:
        assert sigma(a * b) == sigma(a) * sigma(b)


@pytest.mark.parametrize(
    "p,k,expected",
    [(2, 5, 63), (13, 5, 402234), (17, 1, 18), (22021, 1, 22022)],
)
def test_divisor_sum_geometric(p, k, expected):
    assert divisor_sum_geometric(p, k) == expected


def test_geometric_sum_is_sigma_only_for_a_prime_base():
    # sigma(p^k) is the geometric sum after is_prime(p); 22021 = 19^2 * 61 has more divisors
    assert divisor_sum_geometric(13, 5) == sigma(13**5) == 402234
    assert not is_prime(22021)
    assert sigma(22021) != divisor_sum_geometric(22021, 1)


def test_divisor_sum_geometric_checks_its_arguments():
    with pytest.raises(ValueError, match=r"^exponent must be positive$"):
        divisor_sum_geometric(13, 0)
    with pytest.raises(ValueError, match=r"^base must be at least 2$"):
        divisor_sum_geometric(1, 5)


def test_primes_below_counts():
    assert len(primes_below(100)) == 25
    assert len(primes_below(10**6)) == 78498
    assert primes_below(2).size == 0
    assert primes_below(3).tolist() == [2]


def primes_below_by_full_mask(limit):
    """Twin of primes_below: the sieve of Eratosthenes over every number below limit."""
    if limit <= 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit - 1) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


class TestPrimesBelowTwin:
    @staticmethod
    def assert_twins_agree(limit):
        got = primes_below(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, primes_below_by_full_mask(limit)), limit

    def test_every_limit_to_5000(self):
        for limit in range(5001):
            self.assert_twins_agree(limit)

    def test_prime_square_boundaries(self):
        for p in primes_below(300).tolist():
            for limit in (p * p - 1, p * p, p * p + 1):
                self.assert_twins_agree(limit)

    def test_one_million(self):
        self.assert_twins_agree(10**6)

    def test_budget_is_checked_before_the_mask(self, monkeypatch):
        def no_mask(*args, **kwargs):
            raise AssertionError("the mask was allocated before the budget check")

        monkeypatch.setattr(np, "ones", no_mask)
        with pytest.raises(ValueError, match=r"1000000001 exceeds .* \(a 500000000-byte sieve mask\)"):
            primes_below(10**9 + 1)


class TestClassSieveTwin:
    """_class_sieve(limit, m) against the primes of primes_below in the class 1 (mod m), 1 left set."""

    @staticmethod
    def assert_twins_agree(limit):
        for m in (4, 8):
            primes = primes_below(limit)
            expected = np.zeros(max(0, (limit + m - 2) // m), dtype=bool)
            expected[(primes[primes % m == 1] - 1) // m] = True
            expected[:1] = True  # index 0 stands for 1
            assert np.array_equal(arith._class_sieve(limit, m), expected), (limit, m)

    def test_every_limit_to_3000(self):
        for limit in range(3001):
            self.assert_twins_agree(limit)

    @pytest.mark.parametrize("m", [4, 8])
    def test_wheel_period_edges(self, m):
        # index 15015 starts the second tiled period of the wheel 3 * 5 * 7 * 11 * 13
        for limit in range(m * 15015 - 8, m * 15015 + 9):
            self.assert_twins_agree(limit)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_limits(self, limit):
        self.assert_twins_agree(limit)


class TestPrimeCounts1Mod4Twin:
    @staticmethod
    def assert_twins_agree(limit):
        got = prime_counts_1mod4(limit)
        assert all(type(c) is int for c in got)
        assert list(got) == np.bincount(primes_below(limit) % 8, minlength=8)[[1, 5]].tolist(), limit

    def test_every_limit_to_3000(self):
        for limit in range(3001):
            self.assert_twins_agree(limit)

    def test_around_one_million(self):
        for limit in range(10**6 - 8, 10**6 + 9):
            self.assert_twins_agree(limit)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_limits(self, limit):
        self.assert_twins_agree(limit)

    def test_budget_is_checked_before_the_mask(self, monkeypatch):
        def no_mask(*args, **kwargs):
            raise AssertionError("the mask was allocated before the budget check")

        for name in ("ones", "resize"):
            monkeypatch.setattr(np, name, no_mask)
        monkeypatch.setattr(arith, "primes_below", no_mask)
        with pytest.raises(ValueError, match=r"1000000001 exceeds .* \(a 250000000-byte sieve mask\)"):
            prime_counts_1mod4(10**9 + 1)


class TestPrimality:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 97, 7919, 999983, 2305843009213693951])
    def test_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [0, 1, 4, 561, 2047, 22021, 10**12 + 1])
    def test_composites(self, n):
        # 561 is Carmichael, 2047 is a strong pseudoprime to base 2
        assert not is_prime(n)

    def test_verdicts_below_64_bits_are_proven(self):
        r = classify_prime(2305843009213693951)
        assert r.is_prime and r.proven
        assert classify_prime(999983).proven

    def test_verdict_above_psi13_is_probable_only(self):
        r = classify_prime(2**89 - 1)  # Mersenne prime, 89 bits, above psi_13
        assert r.is_prime and not r.proven

    # psi_12 and psi_13: the least strong pseudoprimes to all prime bases up to 37 and 41
    PSI12 = 399165290221 * 798330580441
    PSI13 = 1287836182261 * 2575672364521

    def test_psi12_fails_base_41_and_is_proven_composite(self):
        assert self.PSI12 == 318_665_857_834_031_151_167_461
        assert arith._miller_rabin(self.PSI12, arith._MR_WITNESSES[:-1])
        assert not arith._miller_rabin(self.PSI12, (41,))
        r = classify_prime(self.PSI12)
        assert not r.is_prime and r.proven

    def test_psi13_passes_every_witness_and_the_random_rounds_reject_it(self):
        assert self.PSI13 == arith._DETERMINISTIC_LIMIT == 3_317_044_064_679_887_385_961_981
        assert arith._MR_WITNESSES == tuple(primes_below(42).tolist())
        assert arith._miller_rabin(self.PSI13, arith._MR_WITNESSES)
        r = classify_prime(self.PSI13)
        assert not r.is_prime and r.proven

    @pytest.mark.parametrize(
        "n",
        [10**4, 10**4 + 2, 10**6, 10**6 + 2, 2**64, 2**64 + 2, PSI13 + 1, 2**90],
        ids=["1e4", "1e4_plus_2", "1e6", "1e6_plus_2", "2_64", "2_64_plus_2", "psi13_plus_1", "2_90"],
    )
    def test_even_numbers_past_the_table_fail_base_2(self, n):
        assert not arith._miller_rabin(n, arith._MR_WITNESSES)
        assert not arith._miller_rabin(n, (2,))
        assert classify_prime(n) == arith.PrimalityResult(False, True)

    @pytest.mark.parametrize(
        "n", [2**64 + 13, 3_317_044_064_679_887_385_961_813], ids=["above_2_64", "below_psi13"]
    )
    def test_primes_below_psi13_are_proven(self, n):
        # the least prime above 2^64, and the largest prime below psi_13
        r = classify_prime(n)
        assert r.is_prime and r.proven

    @pytest.mark.parametrize(
        "n",
        [2**70, 10007 * (2**89 - 1), 999983 * (2**64 + 13)],
        ids=["pow2_70", "p10007_m89", "p999983_q64"],
    )
    def test_composite_above_64_bits_with_small_factor_is_proven(self, n):
        r = classify_prime(n)
        assert not r.is_prime and r.proven

    @pytest.mark.parametrize("n", [2**90, 2**90 + 1, PSI13 + 2], ids=["2_90", "2_90_plus_1", "psi13_plus_2"])
    def test_witness_rejection_above_psi13_draws_no_random_bases(self, n, monkeypatch):
        def no_rng(seed):
            raise AssertionError("random bases drawn for a number the witnesses reject")

        assert not arith._miller_rabin(n, (2,))
        monkeypatch.setattr(arith.random, "Random", no_rng)
        assert classify_prime(n) == arith.PrimalityResult(False, True)

    def test_verdicts_across_the_table_edge_match_trial_division(self):
        # the table ends at 10^4: 9973 is its last prime, 10007 the first prime past it
        assert arith._SMALL_PRIME_LIMIT == 10**4
        for n in [*range(20_001), 999_983, 10**6, 10**6 + 3]:
            assert classify_prime(n) == classify_prime_by_trial_division(n), n

    @given(n=st.integers(min_value=PSI13, max_value=2**128))
    @example(n=2**89 - 1)
    @example(n=2**107 - 1)
    @example(n=2**127 - 1)
    @example(n=PSI13)
    @example(n=PSI13 * 3)
    @settings(max_examples=300)
    def test_verdicts_above_psi13_match_one_base_list(self, n):
        assert classify_prime(n) == classify_prime_by_one_list(n)

    @given(
        a=st.integers(min_value=2**46, max_value=2**46 + 2**24),
        b=st.integers(min_value=2**46, max_value=2**46 + 2**24),
    )
    @settings(max_examples=60)
    def test_products_of_two_46_bit_primes_match_one_base_list(self, a, b):
        p, q = next_prime(a), next_prime(b)
        assert classify_prime(p * q) == classify_prime_by_one_list(p * q) == arith.PrimalityResult(False, True)


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def classify_prime_by_trial_division(n):
    """Twin of classify_prime below psi_13: n is prime when no d in 2..isqrt(n) divides it."""
    return arith.PrimalityResult(n >= 2 and all(n % d for d in range(2, isqrt(n) + 1)), True)


def classify_prime_by_one_list(n):
    """Twin of classify_prime at and above psi_13: the witnesses and the random rounds as one list."""
    rng = random.Random(n % (1 << 61))
    bases = list(arith._MR_WITNESSES) + [rng.randrange(2, n - 1) for _ in range(arith._MR_ROUNDS)]
    probable = arith._miller_rabin(n, bases)
    return arith.PrimalityResult(probable, not probable)


def assert_canonical_factorization(f, n):
    """factorize's contract: a tuple of int pairs (p, e), p prime and strictly ascending, e >= 1, product n."""
    assert type(f) is tuple
    assert all(type(pair) is tuple and len(pair) == 2 for pair in f)
    assert all(type(p) is int and type(e) is int and e >= 1 for p, e in f)
    bases = [p for p, _ in f]
    assert all(a < b for a, b in zip(bases, bases[1:]))
    assert all(is_prime(p) for p in bases)
    assert prod(p**e for p, e in f) == n


class TestFactorize:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, ()),
            (2, ((2, 1),)),
            (22021, ((19, 2), (61, 1))),
            (9018009, ((3, 2), (7, 2), (11, 2), (13, 2))),
            (2**20, ((2, 20),)),
            (2**20 + 1, ((17, 1), (61681, 1))),
            (999983 * (2**64 + 13), ((999983, 1), (2**64 + 13, 1))),
            ((2**61 - 1) ** 2, ((2**61 - 1, 2),)),  # split by isqrt, before ECM runs
            # 14- to 16-bit factors: a curve often finds both at once and returns None, so the next curve runs
            (10937 * 12289, ((10937, 1), (12289, 1))),
            (32749 * 65521, ((32749, 1), (65521, 1))),
            (65519 * 65521, ((65519, 1), (65521, 1))),
        ],
    )
    def test_known_factorizations(self, n, expected):
        f = factorize(n)
        assert f == expected
        assert_canonical_factorization(f, n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=2**40))
    @settings(max_examples=200)
    def test_value_round_trip(self, n):
        assert_canonical_factorization(factorize(n), n)

    def test_small_cofactor_rule_at_its_boundary(self):
        # a cofactor below _SMALL_PRIME_LIMIT**2 = 10^8 left by trial division is taken as prime
        assert arith._SMALL_PRIME_LIMIT**2 == 10**8
        for n in [*range(10**8 - 3, 10**8 + 4), 99_999_989, 10007**2, 10007 * 10009]:
            assert_canonical_factorization(factorize(n), n)

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert factorize(p * q) == ((p, 1), (q, 1))

    def test_parts_below_the_table_square_are_not_tested(self, monkeypatch):
        # only p*q >= 10^8 needs a primality test; its ECM parts p and q are below 10^8
        tested = []
        monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or is_prime(n))
        p, q = 1000003, 1000033
        assert factorize(p * q) == ((p, 1), (q, 1))
        assert tested == [p * q]

    def test_effort_budget_is_honored(self, monkeypatch):
        monkeypatch.setattr(arith, "_ECM_SCHEDULE", ((200, 2),))
        with pytest.raises(EffortExceededError, match=r"\(129 bits\) survived 2 ECM curves"):
            factorize((2**64 + 13) * (2**64 + 37))

    def test_86_bit_semiprime_is_split(self):
        # a 39-bit prime times a 47-bit prime, split by ECM
        assert factorize(40365552581166398777811101) == ((371904240523, 1), (108537489447287, 1))

    @pytest.mark.parametrize("bits", [(20, 20), (20, 32), (24, 30), (28, 28), (32, 32), (36, 40), (40, 48)])
    def test_two_prime_products_from_20_to_48_bits(self, bits):
        p, q = next_prime((2 << bits[0]) // 3), next_prime((3 << bits[1]) // 4)  # of bits[0] and bits[1] bits
        assert factorize(p * q) == ((p, 1), (q, 1))

    @given(st.integers(min_value=10**4, max_value=2**36), st.integers(min_value=10**4, max_value=2**36))
    @settings(max_examples=20, deadline=None)
    def test_product_of_two_primes_returns_both(self, a, b):
        p, q = sorted((next_prime(a), next_prime(b)))
        assert factorize(p * q) == (((p, 2),) if p == q else ((p, 1), (q, 1)))


def suyama_curve(sig, n):
    """Start point (u^3 : v^3) and a24 = (A + 2) / 4 of Suyama's curve for sig, mod n coprime to 6 sig."""
    u, v = (sig * sig - 5) % n, 4 * sig % n
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(16 * u**3 * v, -1, n) % n
    return pow(u, 3, n), pow(v, 3, n), a24


class TestEllipticCurveMethod:
    P = 2**61 - 1

    @pytest.mark.parametrize("sig", [6, 11, 2024])
    def test_ladder_matches_the_differential_addition_chain(self, sig):
        n = self.P
        x, z, a24 = suyama_curve(sig, n)
        chain = [None, (x, z), arith._xz_double(x, z, n, a24)]
        while len(chain) <= 300:
            (xa, za), (xb, zb) = chain[-2], chain[-1]
            chain.append(arith._xz_add(xb, zb, x, z, xa, za, n))
        for k in range(1, 301):
            xc, zc = chain[k]
            xl, zl = arith._xz_ladder(k, x, z, n, a24)
            assert zc % n and zl % n, k
            assert (xl * zc - xc * zl) % n == 0, k

    def test_ladder_matches_the_affine_group_law(self):
        # By^2 = x^3 + Ax^2 + x through (x0, 1): B = x0^3 + A x0^2 + x0, chord-and-tangent in affine x, y
        n = self.P
        x, z, a24 = suyama_curve(7, n)
        a = (4 * a24 - 2) % n
        x0 = x * pow(z, -1, n) % n
        b = (x0**3 + a * x0 * x0 + x0) % n

        def add(p1, p2):
            (x1, y1), (x2, y2) = p1, p2
            if x1 == x2:
                slope = (3 * x1 * x1 + 2 * a * x1 + 1) * pow(2 * b * y1, -1, n) % n
            else:
                slope = (y2 - y1) * pow(x2 - x1, -1, n) % n
            x3 = (b * slope * slope - a - x1 - x2) % n
            return x3, (slope * (x1 - x3) - y1) % n

        point = (x0, 1)
        for k in range(1, 61):
            xl, zl = arith._xz_ladder(k, x, z, n, a24)
            assert xl * pow(zl, -1, n) % n == point[0], k
            point = add(point, (x0, 1))

    @pytest.mark.parametrize("b1", sorted({b1 for b1, _ in arith._ECM_SCHEDULE} | {106, 9999}))
    def test_stage2_plan_lists_each_prime_once(self, b1):
        d = arith._ECM_WHEEL
        assert d == 210 and len(arith._ECM_BABY_STEPS) == 24
        assert set(arith._ECM_BABY_STEPS) == {j for j in range(1, d // 2) if all(j % r for r in (2, 3, 5, 7))}
        k, plan = arith._ecm_plan(b1)
        for p in primes_below(b1 + 1).tolist():  # k holds the largest power of each p <= b1 that is <= b1
            e = 1
            while p ** (e + 1) <= b1:
                e += 1
            assert k % p**e == 0 and k % p ** (e + 1) != 0, p
            k //= p**e
        assert k == 1
        primes = [q for q in primes_below(arith._SMALL_PRIME_LIMIT + 1).tolist() if q > b1]
        covered = []
        for i, js in enumerate(plan, 1):
            for j in (arith._ECM_BABY_STEPS[j] for j in js):
                hits = [m for m in (i * d - j, i * d + j) if m > b1 and is_prime(m)]
                assert hits and all(m <= arith._SMALL_PRIME_LIMIT for m in hits), (i, j)
                covered += hits
        assert sorted(covered) == primes

    def test_degenerate_suyama_parameter_is_caught_by_the_first_gcd(self):
        # 15^2 = 5 (mod 11) only: u = sig^2 - 5 shares the factor 11 with n = 11 * 19
        assert arith._ecm_curve(209, 200, 15) == 11
        # 180^2 = 5 (mod 209): u = 0 mod n, the curve is singular mod both primes
        assert arith._ecm_curve(209, 200, 180) is None

    @given(
        st.integers(min_value=3, max_value=2**40),
        st.integers(min_value=3, max_value=2**40),
        st.integers(min_value=6, max_value=2**40),
        st.sampled_from([b1 for b1, _ in arith._ECM_SCHEDULE[:2]]),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_curve_returns_none_or_a_proper_divisor(self, a, b, sig, b1):
        n = (2 * a + 1) * (2 * b + 1)
        g = arith._ecm_curve(n, b1, sig % (n - 11) + 6)
        assert g is None or (1 < g < n and n % g == 0)


def test_sigma_range_matches_pointwise_sigma():
    limit = 10**6
    sig = sigma_range(limit)
    sample = random.Random(6).sample(range(2001, limit), 3000)
    for n in [*range(1, 2001), *sample, limit]:
        assert sig[n] == sigma(n), n


def test_sigma_range_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma_range(0)


def sigma_range_by_harmonic_sieve(limit):
    """Twin of sigma_range: add each d <= limit to every multiple of d."""
    sig = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sig[d::d] += d
    return sig


@cache
def harmonic_table():
    return sigma_range_by_harmonic_sieve(400_000)


class TestSigmaRangeTwin:
    @staticmethod
    def assert_twins_agree(limit):
        got = sigma_range(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, harmonic_table()[: limit + 1]), limit

    def test_every_limit_to_500(self):
        for limit in range(1, 501):
            self.assert_twins_agree(limit)

    def test_square_and_pronic_boundaries(self):
        # every k to 100, then every 13th k to 600: where isqrt(limit) and limit // k step
        for k in [*range(1, 101), *range(101, 600, 13), 600]:
            for limit in (k * k - 1, k * k, k * k + 1, k * k + k - 1, k * k + k):
                if limit >= 1:
                    self.assert_twins_agree(limit)

    def test_ramp_block_boundaries(self):
        block = arith._RAMP_BLOCK
        for limit in (block - 1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1, 400_000):
            self.assert_twins_agree(limit)

    @given(st.integers(min_value=1, max_value=200_000))
    @settings(max_examples=60, deadline=None)
    def test_random_limits(self, limit):
        self.assert_twins_agree(limit)

    def test_budget_is_checked_before_the_table(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("the table was allocated before the budget check")

        monkeypatch.setattr(np, "zeros", no_table)
        with pytest.raises(ValueError, match=r"sigma_range limit 100000001 exceeds the budget of 100000000"):
            sigma_range(10**8 + 1)


def test_public_names_are_exported_by_the_package():
    from opnkit import sigma_range as exported

    assert exported is sigma_range
    assert "sigma_range" in arith.__all__
    assert "prime_counts_1mod4" in arith.__all__
    assert "special_prime_columns" in sieve.__all__  # public, so the benchmark tracer times it
    for module in (arith, congruences, identities, sieve):
        for name in module.__all__:
            assert name in opnkit.__all__, name
            assert getattr(opnkit, name) is getattr(module, name), name


DESCARTES = SpoofFactorization(
    (
        SpoofFactor(3, 2),
        SpoofFactor(7, 2),
        SpoofFactor(11, 2),
        SpoofFactor(13, 2),
        SpoofFactor(22021, 1, pseudo=True),
    )
)


class TestSpoofSigma:
    def test_descartes_value_is_perfect_under_spoof(self):
        n = DESCARTES.value
        assert n == 198585576189
        assert spoof_sigma(DESCARTES) == 2 * n

    @given(
        terms=st.lists(
            st.tuples(st.sampled_from(primes_below(200).tolist()), st.integers(1, 6), st.booleans()),
            min_size=1, max_size=8, unique_by=lambda t: t[0],
        ),
    )
    @settings(max_examples=100)
    def test_any_split_of_the_terms_multiplies_out(self, terms):
        f = SpoofFactorization(tuple(SpoofFactor(b, e) for b, e, _ in terms))
        part = [t for t, (_, _, left) in zip(f.factors, terms) if left]
        rest = [t for t, (_, _, left) in zip(f.factors, terms) if not left]
        assert spoof_sigma(list(f.factors)) == spoof_sigma(f)
        assert spoof_sigma(part) * spoof_sigma(rest) == spoof_sigma(f)

    def test_descartes_terms_as_a_list(self):
        assert spoof_sigma(list(DESCARTES)) == spoof_sigma(DESCARTES) == 2 * DESCARTES.value

    def test_flag_free_spoof_agrees_with_honest_sigma(self):
        f = SpoofFactorization((SpoofFactor(3, 2), SpoofFactor(7, 1)))
        assert spoof_sigma(f) == sigma(63)

    def test_unflagged_composite_base_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            SpoofFactorization((SpoofFactor(22021, 1),))

    def test_size_budget(self):
        SpoofFactorization((SpoofFactor(2, 500_000),))  # 2 bits x 500,000
        with pytest.raises(ValueError, match="about 1000002 bits exceeds the budget of 1000000 bits"):
            SpoofFactorization((SpoofFactor(2, 500_001),))

    def test_size_budget_comes_before_primality(self, monkeypatch):
        def no_primality_test(n):
            raise AssertionError(f"is_prime({n}) ran before the size budget")

        monkeypatch.setattr(arith, "is_prime", no_primality_test)
        with pytest.raises(ValueError, match="about 1000487 bits exceeds the budget of 1000000 bits"):
            SpoofFactorization((SpoofFactor(2**3217 - 1, 311),))  # the Mersenne prime M3217

    def test_term_budget(self):
        bases = primes_below(10**4)[1 : arith._MAX_SPEC_TERMS + 2].tolist()
        assert len(SpoofFactorization(tuple(SpoofFactor(b, 2) for b in bases[:-1])).factors) == 1000
        with pytest.raises(ValueError, match="^spoof spec of 1001 terms exceeds the budget of 1000 terms$"):
            SpoofFactorization(tuple(SpoofFactor(b, 2) for b in bases))

    def test_non_coprime_bases_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            SpoofFactorization((SpoofFactor(15, 1, pseudo=True), SpoofFactor(21, 1, pseudo=True)))

    def test_str_uses_factor_spec_grammar(self):
        assert str(DESCARTES) == "3^2,7^2,11^2,13^2,22021^1!"

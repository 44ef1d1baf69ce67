from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnkit import arith, sieve
from opnkit.arith import is_prime, primes_below
from opnkit.sieve import (
    SieveHit,
    _checked,
    _half_roots,
    _least_non_residues,
    _records,
    scan_special_primes,
    sieve_special_primes,
    special_prime_columns,
)


def _half_root_two(q):
    """Scalar twin of _half_roots: an r with 2r^2 == 1 (mod q), for a prime q == +-1 (mod 8).

    For q == 7 (mod 8), r = h^((q+1)/4) with h = (q + 1)/2.  For q == 1 (mod 8),
    the least c >= 3 with z = c^((q-1)/8) of order 8 is found by trying powers,
    and r = h(z - z^3).
    """
    h = (q + 1) // 2
    if q % 8 == 7:
        return pow(h, (q + 1) // 4, q)
    c = 3
    while pow(z := pow(c, (q - 1) // 8, q), 4, q) != q - 1:
        c += 1
    return h * (z - pow(z, 3, q)) % q


def sieving_primes(limit):
    """The primes q == +-1 (mod 8) below limit, as the int64 array the sieve passes."""
    q = primes_below(limit)
    return q[(q % 8 == 1) | (q % 8 == 7)]


def sieve_by_miller_rabin(bound):
    """Brute-force twin of sieve_special_primes: one primality test per odd root."""
    max_root = isqrt((bound + 1) // 2)
    while 2 * max_root * max_root - 1 >= bound:
        max_root -= 1
    hits = []
    for a in range(3, max_root + 1, 2):
        p = 2 * a * a - 1
        if is_prime(p):
            hits.append(SieveHit(p=p, root=a, p_mod16=p % 16))
    return hits


def scan_by_isqrt(bound):
    """Brute-force twin of scan_special_primes: one exact isqrt per prime p == 1 (mod 8)."""
    primes = primes_below(bound)
    hits = []
    for p in primes[primes % 8 == 1].tolist():
        half = (p + 1) // 2
        a = isqrt(half)
        if a * a == half and a % 2 == 1:
            hits.append(SieveHit(p=p, root=a, p_mod16=p % 16))
    return hits


class TestCandidateFromRoot:
    """The sieve's candidate for odd root a >= 3 is 2a^2 - 1."""

    @pytest.mark.parametrize("a,expected", [(3, 17), (5, 49), (7, 97), (11, 241), (13, 337)])
    def test_values(self, a, expected):
        hits = [h.p for h in sieve_special_primes(expected + 1) if h.root == a]
        assert hits == ([expected] if is_prime(expected) else [])

    @given(st.integers(min_value=1, max_value=10**6))
    def test_candidate_shape(self, i):
        a = 2 * i + 1
        # an odd square is 1 mod 8, so every candidate 2a^2 - 1 is 1 mod 16
        assert (2 * a * a - 1) % 16 == 1


class TestSieve:
    @pytest.mark.parametrize(
        "bound,expected",
        [
            (100, [17, 97]),
            (18, [17]),
            (17, []),
            (2, []),
            (400, [17, 97, 241, 337]),
        ],
    )
    def test_hit_lists(self, bound, expected):
        assert [h.p for h in sieve_special_primes(bound)] == expected

    def test_hits_carry_root_and_residue(self):
        hits = sieve_special_primes(100)
        assert [(h.p, h.root, h.p_mod16) for h in hits] == [(17, 3, 1), (97, 7, 1)]

    def test_composite_candidates_are_skipped(self):
        # a = 5 and a = 9 give 49 and 161, both composite; SieveHit no longer
        # tests primality, so the sieve alone must keep every composite out
        found = {h.p for h in sieve_special_primes(10**5)}
        assert 49 not in found and 161 not in found
        composites = [2 * a * a - 1 for a in range(3, 224, 2) if not is_prime(2 * a * a - 1)]
        assert composites and all(p < 10**5 for p in composites)
        assert found.isdisjoint(composites)

    def test_sieving_primes_that_are_hits_survive(self):
        # each of these q <= sqrt(10^6) strikes its own root class; its root must be spared
        hits = [h.p for h in sieve_special_primes(10**6)]
        assert {17, 97, 241, 337} <= set(hits)

    def test_bound_is_exclusive(self):
        assert [h.p for h in sieve_special_primes(98)] == [17, 97]
        assert [h.p for h in sieve_special_primes(97)] == [17]

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            sieve_special_primes(1)

    def test_bound_budget(self, monkeypatch):
        def no_sieve(limit):
            raise AssertionError("primes_below ran before the budget check")

        monkeypatch.setattr(sieve, "primes_below", no_sieve)
        monkeypatch.setattr(sieve.np, "ones", no_sieve)
        with pytest.raises(ValueError, match="sieve bound 100000000000001 exceeds the budget of 100000000000000"):
            sieve_special_primes(10**14 + 1)

    def test_hits_below_10_to_the_12(self):
        hits = sieve_special_primes(10**12)
        assert len(hits) == 51_447
        assert hits[-1].p < 10**12

    def test_hits_below_one_million(self):
        hits = sieve_special_primes(10**6)
        assert len(hits) == 112
        assert [h.p for h in hits] == sorted(h.p for h in hits)
        assert all(h.p % 16 == 1 for h in hits)


class TestMillerRabinTwin:
    """The divisor sieve must reproduce one primality test per root exactly."""

    def test_every_small_bound(self):
        for bound in range(2, 3001):
            assert sieve_special_primes(bound) == sieve_by_miller_rabin(bound), bound

    def test_bounds_at_each_root_edge(self):
        # 2a^2 - 1 < b first holds at b = 2a^2: the mask of b = 2a^2 - 1 stops below root a
        for a in range(3, 302, 2):
            for b in (2 * a * a - 1, 2 * a * a, 2 * a * a + 1):
                assert sieve_special_primes(b) == sieve_by_miller_rabin(b), b

    @given(st.integers(min_value=2, max_value=10**8))
    @settings(max_examples=50, deadline=None)
    def test_random_bounds(self, bound):
        assert sieve_special_primes(bound) == sieve_by_miller_rabin(bound)

    def test_one_billion(self):
        assert sieve_special_primes(10**9) == sieve_by_miller_rabin(10**9)

    _EDGE_QS = [q for q in primes_below(200).tolist() if q % 8 in (1, 7)] + [1031, 4999]

    @pytest.mark.parametrize("q", _EDGE_QS)
    def test_sieving_prime_at_the_mask_length(self, q):
        # the mask for bound 2(2n + 1)^2 holds the n roots 3..2n + 1; a class of a
        # sieving prime q >= n strikes at most one index, so q sits at n - 1, n, n + 1
        assert is_prime(q)
        for n in (q - 1, q, q + 1):
            bound = 2 * (2 * n + 1) ** 2
            assert isqrt(bound - 1) >= q
            for b in (bound - 1, bound, bound + 1):
                assert sieve_special_primes(b) == sieve_by_miller_rabin(b), (q, b)

    def test_square_roots_of_one_half(self):
        qs = [q for q in primes_below(10**5).tolist() if q % 8 in (1, 7)]
        for q in qs:
            r = _half_root_two(q)
            assert 0 < r < q
            assert (2 * r * r - 1) % q == 0
            assert (2 * (q - r) ** 2 - 1) % q == 0


def _column_pairs(bound):
    ps, roots = special_prime_columns(bound)
    assert ps.dtype == roots.dtype == np.int64
    return list(zip(ps.tolist(), roots.tolist()))


class TestColumnsTwin:
    """The checked columns the CLI renders hold exactly the (p, root) of the SieveHit records."""

    def test_every_small_bound(self):
        for bound in range(2, 3001):
            assert _column_pairs(bound) == [(h.p, h.root) for h in sieve_special_primes(bound)], bound

    @given(st.integers(min_value=2, max_value=10**10))
    @settings(max_examples=50, deadline=None)
    def test_random_bounds(self, bound):
        assert _column_pairs(bound) == [(h.p, h.root) for h in sieve_special_primes(bound)]

    def test_10_to_the_12(self):
        assert _column_pairs(10**12) == [(h.p, h.root) for h in sieve_special_primes(10**12)]


class TestHalfRoots:
    """The array roots equal the scalar twin's, and each step is checked."""

    def test_equal_to_the_scalar_twin_on_the_cap_range(self):
        # every q the sieve can meet: the 10^14 bound cap sieves by the q below 10^7
        q = sieving_primes(10**7)
        assert _half_roots(q).tolist() == [_half_root_two(x) for x in q.tolist()]

    def test_non_residue_is_the_least_by_eulers_criterion(self):
        q = sieving_primes(10**6)
        q = q[q % 8 == 1]
        odd_primes = primes_below(128).tolist()[1:]
        for x, c in zip(q.tolist(), _least_non_residues(q).tolist()):
            assert pow(c, (x - 1) // 2, x) == x - 1, (x, c)
            assert all(pow(d, (x - 1) // 2, x) == 1 for d in odd_primes if d < c), (x, c)

    def test_squares_tables(self):
        assert sieve._SMALL_ODD_PRIMES == primes_below(128).tolist()[1:]
        for c, is_square in zip(sieve._SMALL_ODD_PRIMES, sieve._IS_SQUARE):
            # 0 counts as a square: q mod c = 0 means q = c, which is no non-residue of itself
            assert [x for x in range(c) if is_square[x]] == sorted({y * y % c for y in range(c)}), c

    def test_no_non_residue_in_the_table_raises(self, monkeypatch):
        # 3 is a square mod 73, so a table holding only 3 finds no non-residue
        monkeypatch.setattr(sieve, "_SMALL_ODD_PRIMES", [3])
        with pytest.raises(RuntimeError, match="no odd prime non-residue"):
            _half_roots(np.array([7, 17, 73], dtype=np.int64))

    def test_a_wrong_root_raises(self, monkeypatch):
        # a table that calls 3 a non-residue of every q gives 73 a z of order below 8
        monkeypatch.setattr(sieve, "_IS_SQUARE", [np.zeros(3, dtype=bool)] + sieve._IS_SQUARE[1:])
        with pytest.raises(RuntimeError, match="fails 2r"):
            _half_roots(np.array([7, 17, 73], dtype=np.int64))


class TestScanOracle:
    """The direct prime-scan must reproduce the root enumeration exactly."""

    def test_every_small_bound_matches_the_isqrt_twin(self):
        for bound in range(2, 3001):
            assert scan_special_primes(bound) == scan_by_isqrt(bound), bound

    @given(st.integers(min_value=2, max_value=10**7))
    @settings(max_examples=50, deadline=None)
    def test_random_bounds_match_the_isqrt_twin(self, bound):
        assert scan_special_primes(bound) == scan_by_isqrt(bound)

    def test_ten_million_matches_the_isqrt_twin(self):
        assert scan_special_primes(10**7) == scan_by_isqrt(10**7)

    def test_bounds_at_each_candidate_match_the_isqrt_twin(self):
        # each 2a^2 - 1 below 10^5, the 42 hits and composites like 49 and 161, just
        # excluded (bound 2a^2 - 1) and just included (bound 2a^2)
        candidates = [2 * a * a - 1 for a in range(3, 224, 2)]
        assert candidates[:2] == [17, 49] and 161 in candidates and candidates[-1] < 10**5 < 2 * 225**2 - 1
        assert sum(map(is_prime, candidates)) == len(scan_by_isqrt(10**5)) == 42
        for c in candidates:
            for bound in (c, c + 1):
                assert scan_special_primes(bound) == scan_by_isqrt(bound), bound

    def test_one_hundred_million_matches_the_root_sieve(self):
        assert scan_special_primes(10**8) == sieve_special_primes(10**8)

    def test_bound_budget(self, monkeypatch):
        def no_sieve(*args, **kwargs):
            raise AssertionError("the class sieve allocated before the budget check")

        # the mask is arith._class_sieve's: a tiled wheel (np.concatenate), struck by arith.primes_below
        for owner, name in ((sieve, "primes_below"), (arith, "primes_below"), (np, "concatenate")):
            monkeypatch.setattr(owner, name, no_sieve)
        with pytest.raises(ValueError, match=r"prime limit 1000000001 exceeds the budget of 1000000000 \(a 125000000-byte sieve mask\)"):
            scan_special_primes(10**9 + 1)

    @pytest.mark.parametrize("bound", [2, 18, 100, 1000, 10**4])
    def test_agreement(self, bound):
        assert scan_special_primes(bound) == sieve_special_primes(bound)

    def test_scan_sees_only_odd_square_halves(self):
        for h in scan_special_primes(10**4):
            half = (h.p + 1) // 2
            assert isqrt(half) ** 2 == half
            assert isqrt(half) % 2 == 1


class TestRemarkTable:
    """The five p < 100 with p = 1 mod 8, and their (p + 1)/2 values."""

    def test_half_values(self):
        assert [(p + 1) // 2 for p in (17, 41, 73, 89, 97)] == [9, 21, 37, 45, 49]

    def test_only_nine_and_fortynine_are_squares(self):
        squares = [p for p in (17, 41, 73, 89, 97) if isqrt((p + 1) // 2) ** 2 == (p + 1) // 2]
        assert squares == [17, 97]

    def test_the_three_rejects_fail_the_residue_filter(self):
        assert [p for p in (17, 41, 73, 89, 97) if p % 16 != 1] == [41, 73, 89]
        assert all(p % 16 == 9 for p in (41, 73, 89))

    @pytest.mark.parametrize("p,special", [(17, True), (41, False), (73, False), (89, False), (97, True), (241, True)])
    def test_class_mod16_agrees_with_the_sieve(self, p, special):
        # each p here is 1 mod 8 and has (p + 1)/2 square exactly when p == 1 (mod 16)
        assert (p % 16 == 1) is special
        assert (p in [h.p for h in sieve_special_primes(256)]) is special


class TestHitCheck:
    """_checked checks the arrays of a whole call once; _records and SieveHit check nothing."""

    @pytest.mark.parametrize(
        "p,root",
        [(31, 4), (1, 1), (33, 3), (25, 3)],
        ids=["even_root", "root_1", "p_not_2a2_minus_1", "p_not_1_mod_16"],
    )
    def test_rejects_corrupted_arrays(self, p, root):
        ps = np.array([17, p, 97], dtype=np.int64)
        roots = np.array([3, root, 7], dtype=np.int64)
        with pytest.raises(RuntimeError, match="shape check"):
            _checked(ps, roots)

    @pytest.mark.parametrize("p", [5, 13, 15, 20])
    def test_rejects_a_hit_outside_1_mod_8(self, p):
        ps = np.array([17, p], dtype=np.int64)
        roots = np.array([3, isqrt((p + 1) // 2)], dtype=np.int64)
        with pytest.raises(RuntimeError, match="shape check"):
            _checked(ps, roots)

    def test_builds_plain_records(self):
        hits = _records(np.array([17, 97], dtype=np.int64), np.array([3, 7], dtype=np.int64))
        assert hits == [SieveHit(p=17, root=3, p_mod16=1), SieveHit(p=97, root=7, p_mod16=1)]
        assert repr(hits[0]) == "SieveHit(p=17, root=3, p_mod16=1)"
        assert all(type(h.p) is int and type(h.root) is int for h in hits)
        assert _records(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)) == []

    @pytest.mark.parametrize("producer", [sieve_special_primes, scan_special_primes, special_prime_columns])
    def test_each_producer_checks_its_arrays(self, producer, monkeypatch):
        checked = sieve._checked
        monkeypatch.setattr(sieve, "_checked", lambda ps, roots: checked(ps, roots + 2))
        with pytest.raises(RuntimeError, match="shape check"):
            producer(10**4)

    @pytest.mark.parametrize("producer", [sieve_special_primes, scan_special_primes, special_prime_columns])
    def test_each_producer_checks_once_per_call(self, producer, monkeypatch):
        checked, calls = sieve._checked, []
        monkeypatch.setattr(sieve, "_checked", lambda ps, roots: calls.append(ps.size) or checked(ps, roots))
        producer(10**4)
        assert calls == [16]  # one check, of all 16 hits below 10^4


def test_min_special_prime():
    assert sieve_special_primes(100)[0].p == 17
    assert all(h.p >= 17 for h in sieve_special_primes(10**5))


def test_every_hit_is_prime_with_square_half():
    for h in sieve_special_primes(10**7):
        assert is_prime(h.p)
        half = (h.p + 1) // 2
        assert isqrt(half) ** 2 == half

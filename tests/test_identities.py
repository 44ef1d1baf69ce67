import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnkit import arith
from opnkit.arith import (
    SpoofFactor,
    SpoofFactorization,
    _decimal,
    divisor_sum_geometric,
    factorize,
    sigma,
    spoof_sigma,
)
from opnkit.cli import parse_factor_spec, run
from opnkit.identities import report_from_spoof

DESCARTES_TRIPLE = (22021, 1, 3003)  # (p, k, m)
DESCARTES_SPOOF = SpoofFactorization(
    (
        SpoofFactor(3, 2),
        SpoofFactor(7, 2),
        SpoofFactor(11, 2),
        SpoofFactor(13, 2),
        SpoofFactor(22021, 1, pseudo=True),
    )
)


def _flag_free(p, k, m):
    """The flag-free spec of p^k * m^2: every base an honest prime, m^2 split by factorize(m)."""
    return SpoofFactorization((SpoofFactor(p, k), *(SpoofFactor(q, 2 * e) for q, e in factorize(m))))


class TestValidateEulerForm:
    """The Euler form p^k * m^2 as the spoof route checks it: the spec's bounds,
    primality and coprimality first, then p == k == 1 (mod 4) and m odd."""

    def test_honest_candidate_passes(self):
        r = report_from_spoof(_flag_free(5, 1, 3))
        assert (r.p, r.k, r.m) == (5, 1, 3)

    def test_descartes_passes_only_in_spoof_mode(self):
        r = report_from_spoof(DESCARTES_SPOOF)
        assert (r.p, r.k, r.m) == DESCARTES_TRIPLE
        with pytest.raises(ValueError) as excinfo:
            _flag_free(*DESCARTES_TRIPLE)
        assert str(excinfo.value) == "base 22021 is not prime and not flagged pseudo"

    @pytest.mark.parametrize(
        "triple,fragment",
        [
            ((7, 1, 3), "mod 4"),      # p = 3 mod 4
            ((5, 3, 3), "mod 4"),      # k = 3 mod 4
            ((5, 1, 4), "odd"),        # even m
            ((5, 1, 15), "coprime"),   # p | m
            ((5, 0, 3), "positive"),
        ],
    )
    def test_violations_are_reported(self, triple, fragment):
        with pytest.raises(ValueError, match=fragment):
            report_from_spoof(_flag_free(*triple))

    def test_all_violations_listed_not_just_first(self):
        with pytest.raises(ValueError) as excinfo:
            report_from_spoof(_flag_free(7, 3, 4))
        assert len(str(excinfo.value).split("; ")) == 3

    @pytest.mark.parametrize(
        "triple,expected",
        [
            (
                (3, 3, 2),  # every congruence broken
                [
                    "special base 3 is 3 mod 4, needs 1",
                    "special exponent 3 is 3 mod 4, needs 1",
                    "square root part 2 must be odd",
                ],
            ),
            (
                (5, 3, 4),  # p == 1 (mod 4) holds and is not listed
                [
                    "special exponent 3 is 3 mod 4, needs 1",
                    "square root part 4 must be odd",
                ],
            ),
        ],
    )
    def test_every_violation_listed_in_order(self, triple, expected):
        with pytest.raises(ValueError) as excinfo:
            report_from_spoof(_flag_free(*triple))
        assert str(excinfo.value).split("; ") == expected


class TestPerfectDecomposition:
    def test_descartes_is_spoof_perfect(self):
        p, k, m = DESCARTES_TRIPLE
        assert spoof_sigma(DESCARTES_SPOOF) == 2 * p**k * m**2

    @pytest.mark.parametrize("triple", [(5, 1, 3), (13, 1, 1)])
    def test_honest_small_triples_are_not_perfect(self, triple):
        p, k, m = triple
        n = p**k * m**2
        assert spoof_sigma(_flag_free(p, k, m)) == sigma(n) != 2 * n


class TestDescartesChain:
    """The one nontrivial fixture where the whole chain collapses."""

    @pytest.fixture
    def report(self):
        return report_from_spoof(DESCARTES_SPOOF)

    def test_g(self, report):
        assert report.g == 819
        assert report.g == gcd(3003**2, sigma(3003**2))

    def test_all_five_quotients_equal_g(self, report):
        assert report.q1 == report.q2 == report.q3 == report.q4 == report.g == 819

    def test_quotients_match_hand_computation(self, report):
        assert report.q1 == Fraction(18035199, 22021)
        assert report.q2 == Fraction(2 * 9018009, 22022)
        assert report.q3 == Fraction(819, 1)
        assert report.q4 == Fraction(9017190, 11010)

    def test_ratio_is_two(self, report):
        assert report.ratio == 2
        assert report.d_pk * report.d_m2 == 2 * report.s_pk * report.s_m2

    def test_star_equation(self, report):
        assert report.star_lhs == 670761 == 819**2

    def test_underlying_quantities(self, report):
        assert report.sigma_pk == 22022
        assert report.sigma_m2 == 18035199
        assert (report.d_pk, report.s_pk) == (22020, 1)
        assert (report.d_m2, report.s_m2) == (819, 9017190)

    def test_chain_holds(self, report):
        assert report.all_identities_hold


class TestNegativeControls:
    def test_nonperfect_triple_still_reports(self):
        r = report_from_spoof(_flag_free(5, 1, 3))
        assert not r.all_identities_hold
        assert r.q1 == Fraction(13, 5)
        assert r.q2 == 3

    def test_m_equal_one_makes_ratio_undefined(self):
        r = report_from_spoof(_flag_free(13, 1, 1))
        assert r.s_m2 == 0
        assert r.ratio is None
        assert not r.all_identities_hold

    def test_invalid_form_is_rejected(self):
        with pytest.raises(ValueError, match="mod 4"):
            report_from_spoof(_flag_free(7, 1, 3))

    def test_square_of_a_large_prime_is_factored(self):
        # factorize(m) of a 61-bit prime m is [(m, 1)], so sigma(m^2) is 1 + m + m^2
        q = 2**61 - 1
        r = report_from_spoof(_flag_free(5, 1, q))
        assert r.sigma_m2 == 1 + q + q * q
        assert not r.all_identities_hold


SMALL_SPECIALS = (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)


@given(
    p=st.sampled_from(SMALL_SPECIALS),
    k=st.sampled_from([1, 5, 9]),
    m=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=150)
def test_chain_collapse_is_equivalent_to_perfection(p, k, m):
    """all_identities_hold tracks sigma(n) = 2n exactly, in both directions.

    The twin sigma(n) factors n itself and shares no code with spoof_sigma or the chain.
    """
    m = 2 * m + 1
    if gcd(p, m) != 1:
        return
    r = report_from_spoof(_flag_free(p, k, m))
    assert (r.p, r.k, r.m) == (p, k, m)
    n = p**k * m * m
    assert r.all_identities_hold == (sigma(n) == 2 * n)


@given(
    p=st.sampled_from(SMALL_SPECIALS),
    k=st.sampled_from([1, 5]),
    m=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=100)
def test_g_squared_is_one_mod_eight(p, k, m):
    # gcd of two odd numbers is odd, and odd squares are 1 mod 8
    m = 2 * m + 1
    if gcd(p, m) != 1:
        return
    r = report_from_spoof(_flag_free(p, k, m))
    assert (r.p, r.k, r.m) == (p, k, m)
    assert r.g % 2 == 1
    assert r.g**2 % 8 == 1


def _spoof_specials(limit):
    """Every (b, m) with b = sigma(m^2)/D(m^2) integral and (b, 1, m) a valid spoof triple.

    Solving (b + 1) sigma(m^2) = 2 b m^2 for b shows these are exactly the
    k = 1 spoof-perfect decompositions with square part m^2.
    """
    out = []
    for m in range(3, limit, 2):
        m2 = m * m
        f = factorize(m)
        sig = 1
        for p, e in f:
            sig *= divisor_sum_geometric(p, 2 * e)
        d = 2 * m2 - sig
        if d <= 0 or sig % d:
            continue
        b = sig // d
        if b >= 2 and b % 4 == 1 and gcd(b, m) == 1:
            out.append((b, m))
    return out


def test_constructed_spoof_instances_collapse_the_chain():
    """Independently generated spoof decompositions all satisfy the chain."""
    found = _spoof_specials(4000)
    assert (22021, 3003) in found
    for b, m in found:
        f = SpoofFactorization(
            tuple(SpoofFactor(p, 2 * e) for p, e in factorize(m)) + (SpoofFactor(b, 1, pseudo=True),)
        )
        assert spoof_sigma(f) == 2 * f.value
        r = report_from_spoof(f)
        assert (r.p, r.k, r.m) == (b, 1, m)
        assert r.all_identities_hold
        assert r.star_lhs == r.g**2


def test_sigma_pk_is_two_mod_four_on_the_grid():
    """sigma(p^k) = 2 mod 4 whenever p = k = 1 mod 4, composite p included (a spoof p may be)."""
    for p in range(5, 10**4, 4):
        for k in (1, 5, 9, 13):
            assert divisor_sum_geometric(p, k) % 4 == 2


class TestReportFromSpoof:
    def test_descartes_splits_into_the_right_triple(self):
        r = report_from_spoof(DESCARTES_SPOOF)
        assert (r.p, r.k, r.m) == DESCARTES_TRIPLE
        assert r.all_identities_hold

    def test_requires_exactly_one_odd_exponent(self):
        no_special = SpoofFactorization((SpoofFactor(3, 2), SpoofFactor(5, 2)))
        with pytest.raises(ValueError, match="odd-exponent"):
            report_from_spoof(no_special)
        two_specials = SpoofFactorization((SpoofFactor(5, 1), SpoofFactor(13, 1)))
        with pytest.raises(ValueError, match="odd-exponent"):
            report_from_spoof(two_specials)

    @pytest.mark.parametrize(
        "factors,message",
        [
            ((SpoofFactor(7, 1), SpoofFactor(3, 2)), "special base 7 is 3 mod 4, needs 1"),
            ((SpoofFactor(5, 3), SpoofFactor(3, 2)), "special exponent 3 is 3 mod 4, needs 1"),
            ((SpoofFactor(2, 2), SpoofFactor(5, 1)), "square root part 2 must be odd"),
        ],
        ids=["7^1,3^2", "5^3,3^2", "2^2,5^1"],
    )
    def test_congruence_violations_are_reported_exactly(self, factors, message):
        with pytest.raises(ValueError) as excinfo:
            report_from_spoof(SpoofFactorization(factors))
        assert str(excinfo.value) == message

    def test_chain_names_are_the_cli_check_names(self):
        r = report_from_spoof(parse_factor_spec("5^1,3^2"))
        doc = json.loads(run(["verify-identities", "--spoof", "5^1,3^2", "--json"]).payload)
        names = [f"{field} = {target}" for field, target, _ in r.chain]
        assert names == [failure["check"] for failure in doc["failures"]]
        assert names == ["q1 = g", "q2 = g", "q3 = g", "q4 = g", "ratio = 2", "star_lhs = g^2"]

    @pytest.mark.parametrize("spec", ["3^2,7^2,11^2,13^2,22021^1!", "5^1,3^2"], ids=["descartes", "5^1,3^2"])
    def test_all_identities_hold_is_derived_from_the_chain(self, spec):
        r = report_from_spoof(parse_factor_spec(spec))
        assert r.all_identities_hold == all(holds for _, _, holds in r.chain)
        assert [holds for _, _, holds in r.chain] == [spec.endswith("!")] * 6
        assert "all_identities_hold" not in {f.name for f in fields(r)}

    def test_flag_free_input_uses_honest_sigma(self):
        f = SpoofFactorization((SpoofFactor(5, 1), SpoofFactor(3, 2)))
        r = report_from_spoof(f)
        assert r.sigma_m2 == sigma(9)
        assert not r.all_identities_hold

    @given(
        p=st.sampled_from(SMALL_SPECIALS),
        k=st.sampled_from([1, 5, 9]),
        m=st.integers(min_value=0, max_value=10**4),
    )
    @settings(max_examples=100)
    def test_flag_free_spoof_sigma_is_the_honest_sigma(self, p, k, m):
        """Twin of the spoof route on flag-free specs: sigma(m^2) by factorization and by divisor pairs."""
        m = 2 * m + 1
        if gcd(p, m) != 1:
            return
        n = m * m
        by_pairs = sum(d + n // d for d in range(1, m) if n % d == 0) + m
        assert report_from_spoof(_flag_free(p, k, m)).sigma_m2 == sigma(n) == by_pairs

    @given(
        p=st.sampled_from(SMALL_SPECIALS),
        k=st.sampled_from([1, 5, 9]),
        m=st.integers(min_value=0, max_value=10**4),
    )
    @settings(max_examples=100)
    def test_flag_free_verdict_is_derived_from_the_chain(self, p, k, m):
        m = 2 * m + 1
        if gcd(p, m) != 1:
            return
        r = report_from_spoof(_flag_free(p, k, m))
        assert r.all_identities_hold == all(holds for _, _, holds in r.chain)


@contextmanager
def _digit_limit(limit):
    """Run the block under the given int-to-str digit limit (0: none)."""
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(caller)


class TestReasonsPastTheDigitLimit:
    """A refusal names p or m in full however long it is, and leaves the caller's digit limit alone."""

    @given(n=st.integers(1, 20_000).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1)))
    @settings(max_examples=100, deadline=None)
    def test_renderer_is_str(self, n):
        # 4300 digits is 14,284 bits: the drawn sizes cross the default limit
        with _digit_limit(0):
            assert _decimal(n) == str(n)

    @pytest.mark.parametrize(
        "n", [0, 1, 10, 10**309, 10**4299, 10**4300, 10**4301, 10**9000, 10**9000 - 1, -1, -(10**9000)],
        ids=["0", "1", "10", "10^309", "10^4299", "10^4300", "10^4301", "10^9000", "10^9000-1", "-1", "-10^9000"],
    )
    def test_renderer_at_zero_and_powers_of_ten(self, n):
        with _digit_limit(0):
            assert _decimal(n) == str(n)

    @pytest.mark.parametrize(
        "factors,template,value",
        [
            ((SpoofFactor(5, 1), SpoofFactor(2, 30000)), "square root part {} must be odd", 2**15000),
            ((SpoofFactor(4 * 10**5000 + 3, 1, pseudo=True), SpoofFactor(3, 2)),
             "special base {} is 3 mod 4, needs 1", 4 * 10**5000 + 3),
        ],
        ids=["m=2^15000", "p=4*10^5000+3"],
    )
    @pytest.mark.parametrize("limit", [sys.int_info.default_max_str_digits, 640], ids=["default", "lowest"])
    def test_reason_under_the_callers_limit(self, factors, template, value, limit):
        with _digit_limit(0):
            expected = template.format(value)
        with _digit_limit(limit):
            with pytest.raises(ValueError) as excinfo:
                report_from_spoof(SpoofFactorization(factors))
            assert sys.get_int_max_str_digits() == limit
        assert str(excinfo.value) == expected

    @pytest.mark.parametrize(
        "factors,template,value",
        [
            ((SpoofFactor(10**5000, 1),), "base {} is not prime and not flagged pseudo", 10**5000),
            ((SpoofFactor(3 * 10**5000 + 3, 1, pseudo=True), SpoofFactor(3, 2)),
             "bases {} and 3 are not coprime", 3 * 10**5000 + 3),
            ((SpoofFactor(-(10**5000), 1),), "base {} must be at least 2", -(10**5000)),
        ],
        ids=["base=10^5000", "pseudo=3*10^5000+3", "base=-10^5000"],
    )
    @pytest.mark.parametrize("limit", [sys.int_info.default_max_str_digits, 640], ids=["default", "lowest"])
    def test_spec_refusal_under_the_callers_limit(self, factors, template, value, limit, monkeypatch):
        # Miller-Rabin would take about 10 s on 10^5000: its factor 2 must refuse it before any base
        def no_base(*args):
            raise AssertionError("Miller-Rabin ran on a base with a prime factor up to 53")

        monkeypatch.setattr(arith, "_miller_rabin", no_base)
        with _digit_limit(0):
            expected = template.format(value)
        with _digit_limit(limit):
            with pytest.raises(ValueError) as excinfo:
                SpoofFactorization(factors)
            assert sys.get_int_max_str_digits() == limit
        assert str(excinfo.value) == expected

from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opnkit.arith as arith
import opnkit.congruences as congruences
from opnkit.arith import divisor_sum_geometric, primes_below, sigma_triple
from opnkit.congruences import (
    ALIQUOT_M2_MOD4,
    ALIQUOT_PK_MOD8,
    DEFICIENCY_M2_MOD4,
    DEFICIENCY_PK_MOD8,
    SIGMA_PK_MOD8,
    THEOREM_CASES,
    InfeasibilityCertificate,
    Mismatch,
    OracleReport,
    TheoremCase,
    certify_case,
    forced_sigma_m2_mod4,
    lemma_oracle,
)

PK_CLASSES = ((1, 1), (1, 5), (5, 1), (5, 5))


def certificate_by_tuples(c: TheoremCase, m: int) -> InfeasibilityCertificate:
    """Brute-force twin of certify_case: enumerate every tuple of variable residues."""
    lhs = {
        2 * (4 * a + c.d_m2_mod4) * (4 * b + c.s_m2_mod4) % m
        for a in range(m)
        for b in range(m)
    }
    rhs = {
        (8 * x + 1) * (8 * cc + c.d_pk_mod8) * (8 * d + c.s_pk_mod8) % m
        for x in range(m)
        for cc in range(m)
        for d in range(m)
    }
    return InfeasibilityCertificate(c.case_id, m, frozenset(lhs), frozenset(rhs))


def lemma_oracle_by_restarts(prime_bound: int, k_values) -> OracleReport:
    """Brute-force twin of lemma_oracle: restart the power sweep for every listed k.

    Every prime is checked on its own; its wrong entries are then grouped
    by (class, k, quantity, observed), so primes of one class that
    disagreed would give two records where lemma_oracle gives one.
    """
    ks = tuple(k_values)
    primes = primes_below(prime_bound + 1)
    primes = primes[primes % 4 == 1]
    checks = 0
    grouped = {}  # (class, index of k, quantity, observed, expected) -> primes
    observed = {}
    pm8 = primes % 8
    names = ("sigma", "deficiency", "aliquot")
    for j, k in enumerate(ks):
        power = np.ones_like(pm8)
        acc = np.ones_like(pm8)
        for _ in range(k):
            power = power * pm8 % 8
            acc = (acc + power) % 8
        sig = acc
        dfc = (2 * power - sig) % 8
        alq = (sig - power) % 8
        km8 = k % 8
        exp_sig = np.where(pm8 == 1, SIGMA_PK_MOD8[(1, km8)], SIGMA_PK_MOD8[(5, km8)])
        exp_dfc = np.where(pm8 == 1, DEFICIENCY_PK_MOD8[(1, km8)], DEFICIENCY_PK_MOD8[(5, km8)])
        exp_alq = np.where(pm8 == 1, ALIQUOT_PK_MOD8[(1, km8)], ALIQUOT_PK_MOD8[(5, km8)])
        checks += len(primes)
        for cls in (1, 5):
            sel = pm8 == cls
            if not sel.any():
                continue
            bucket = observed.setdefault((cls, km8), {"sigma": set(), "deficiency": set(), "aliquot": set()})
            bucket["sigma"].update(np.unique(sig[sel]).tolist())
            bucket["deficiency"].update(np.unique(dfc[sel]).tolist())
            bucket["aliquot"].update(np.unique(alq[sel]).tolist())
        bad = (sig != exp_sig) | (dfc != exp_dfc) | (alq != exp_alq)
        for i in np.nonzero(bad)[0]:
            for q, (got, exp) in enumerate(
                ((sig[i], exp_sig[i]), (dfc[i], exp_dfc[i]), (alq[i], exp_alq[i]))
            ):
                if got != exp:
                    key = (int(pm8[i]), j, q, int(got), int(exp))
                    grouped[key] = grouped.get(key, 0) + 1
    mismatches = tuple(
        Mismatch(cls, n, ks[j], names[q], got, exp)
        for (cls, j, q, got, exp), n in sorted(grouped.items())
    )
    return OracleReport(prime_bound, ks, checks, mismatches, observed)


class TestResidueMaps:
    @pytest.mark.parametrize("pk,expected", [((1, 1), 2), ((1, 5), 6), ((5, 1), 6), ((5, 5), 2)])
    def test_sigma_map(self, pk, expected):
        assert SIGMA_PK_MOD8[pk] == expected

    @pytest.mark.parametrize("pk,expected", [((1, 1), 0), ((1, 5), 4), ((5, 1), 4), ((5, 5), 0)])
    def test_deficiency_map(self, pk, expected):
        assert DEFICIENCY_PK_MOD8[pk] == expected

    @pytest.mark.parametrize("pk,expected", [((1, 1), 1), ((1, 5), 5), ((5, 1), 1), ((5, 5), 5)])
    def test_aliquot_map(self, pk, expected):
        assert ALIQUOT_PK_MOD8[pk] == expected

    @pytest.mark.parametrize("s,d,a", [(1, 1, 0), (3, 3, 2)])
    def test_square_part_maps(self, s, d, a):
        assert DEFICIENCY_M2_MOD4[s] == d
        assert ALIQUOT_M2_MOD4[s] == a

    # The tables are keyed only through forced_sigma_m2_mod4 and TheoremCase,
    # which must reject every class outside the tables' keys.
    @pytest.mark.parametrize("bad", [0, 2, 3, 7, 9])
    def test_pk_maps_reject_other_classes(self, bad):
        for p_mod8, k_mod8 in ((bad, 1), (1, bad)):
            with pytest.raises(ValueError, match="mod 8 must be 1 or 5"):
                forced_sigma_m2_mod4(p_mod8, k_mod8)
            with pytest.raises(ValueError, match="mod 8 must be 1 or 5"):
                TheoremCase(1, p_mod8, k_mod8, 3)

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_square_maps_reject_even_classes(self, bad):
        with pytest.raises(ValueError, match="must be 1 or 3"):
            TheoremCase(1, 1, 1, bad)

    @pytest.mark.parametrize("pk", PK_CLASSES)
    def test_derivation_identities_hold_as_residue_equations(self, pk):
        # D = 2 p^k - sigma and s = p^k - D, reduced mod 8
        p_mod8, k_mod8 = pk
        pk_mod8 = pow(p_mod8, k_mod8, 8)
        assert (SIGMA_PK_MOD8[pk] + DEFICIENCY_PK_MOD8[pk]) % 8 == 2 * pk_mod8 % 8
        assert (DEFICIENCY_PK_MOD8[pk] + ALIQUOT_PK_MOD8[pk]) % 8 == pk_mod8

    @pytest.mark.parametrize("s", (1, 3))
    def test_square_part_sum_identity(self, s):
        # D(m^2) + s(m^2) = m^2 = 1 mod 4
        assert (DEFICIENCY_M2_MOD4[s] + ALIQUOT_M2_MOD4[s]) % 4 == 1

    def test_concrete_p17_k1(self):
        t = sigma_triple(17)
        assert t.sigma % 8 == SIGMA_PK_MOD8[(1, 1)]
        assert t.deficiency % 8 == DEFICIENCY_PK_MOD8[(1, 1)] == 16 % 8
        assert t.aliquot % 8 == ALIQUOT_PK_MOD8[(1, 1)] == 1

    def test_concrete_m15(self):
        t = sigma_triple(225)
        assert t.sigma % 4 == 3
        assert t.deficiency % 4 == DEFICIENCY_M2_MOD4[3] == 3
        assert t.aliquot % 4 == ALIQUOT_M2_MOD4[3] == 2


class TestForcedClass:
    @pytest.mark.parametrize("pk,expected", [((1, 1), 1), ((1, 5), 3), ((5, 1), 3), ((5, 5), 1)])
    def test_values(self, pk, expected):
        assert forced_sigma_m2_mod4(*pk) == expected

    def test_biconditional(self):
        for a, b in PK_CLASSES:
            assert (forced_sigma_m2_mod4(a, b) == 1) == (a == b)

    def test_rejects_other_classes(self):
        with pytest.raises(ValueError):
            forced_sigma_m2_mod4(3, 1)

    @pytest.mark.parametrize("pk", PK_CLASSES)
    def test_forced_class_is_the_one_no_case_excludes(self, pk):
        excluded = {c.assumed_sigma_m2_mod4 for c in THEOREM_CASES
                    if (c.p_mod8, c.k_mod8) == pk}
        assert {forced_sigma_m2_mod4(*pk)} == {1, 3} - excluded

    def test_read_off_the_theorem_cases(self, monkeypatch):
        # cases assuming the other class force the other class: the answer is not a formula of its own
        flipped = tuple(TheoremCase(c.case_id, c.p_mod8, c.k_mod8, 4 - c.assumed_sigma_m2_mod4)
                        for c in THEOREM_CASES)
        shipped = {pk: forced_sigma_m2_mod4(*pk) for pk in PK_CLASSES}
        monkeypatch.setattr(congruences, "THEOREM_CASES", flipped)
        for pk in PK_CLASSES:
            assert forced_sigma_m2_mod4(*pk) == 4 - shipped[pk]


class TestTheoremCases:
    def test_exactly_four_bindings(self):
        assert [(c.case_id, c.p_mod8, c.k_mod8, c.assumed_sigma_m2_mod4) for c in THEOREM_CASES] == [
            (1, 1, 1, 3),
            (2, 1, 5, 1),
            (3, 5, 1, 1),
            (4, 5, 5, 3),
        ]

    @pytest.mark.parametrize(
        "case_id,equation",
        [
            (1, "2(4a + 3)(4b + 2) = (8x + 1)(8c + 0)(8d + 1)"),
            (2, "2(4a + 1)(4b + 0) = (8x + 1)(8c + 4)(8d + 5)"),
            (3, "2(4a + 1)(4b + 0) = (8x + 1)(8c + 4)(8d + 1)"),
            (4, "2(4a + 3)(4b + 2) = (8x + 1)(8c + 0)(8d + 5)"),
        ],
    )
    def test_symbolic_equations(self, case_id, equation):
        assert THEOREM_CASES[case_id - 1].equation == equation

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TheoremCase(5, 1, 1, 3)
        with pytest.raises(ValueError):
            TheoremCase(1, 3, 1, 3)
        with pytest.raises(ValueError):
            TheoremCase(1, 1, 1, 2)

    @pytest.mark.parametrize("assumed", [0, 2, 4, -1])
    def test_rejects_an_even_or_unreduced_class(self, assumed):
        message = rf"^sigma\(m\^2\) mod 4 must be 1 or 3 \(it is odd for odd m\), got {assumed}$"
        with pytest.raises(ValueError, match=message):
            TheoremCase(1, 1, 1, assumed)


class TestCertification:
    @pytest.mark.parametrize("case", THEOREM_CASES, ids=lambda c: f"case{c.case_id}")
    def test_mod16_separates(self, case):
        cert = certify_case(case, 16)
        assert cert.disjoint
        if case.assumed_sigma_m2_mod4 == 3:
            assert cert.lhs_residues == {4, 12}
            assert cert.rhs_residues == {0, 8}
        else:
            assert cert.lhs_residues == {0, 8}
            assert cert.rhs_residues == {4, 12}

    @pytest.mark.parametrize("case", THEOREM_CASES, ids=lambda c: f"case{c.case_id}")
    @pytest.mark.parametrize("modulus", range(8, 129, 8))
    def test_every_multiple_of_eight_separates(self, case, modulus):
        # one side is exactly divisible by 4, the other by 8
        assert certify_case(case, modulus).disjoint

    @pytest.mark.parametrize(
        "case", THEOREM_CASES + (TheoremCase(4, 5, 5, 1),),
        ids=lambda c: f"case{c.case_id}_sigma{c.assumed_sigma_m2_mod4}",
    )
    @pytest.mark.parametrize("modulus", range(8, 129, 8))
    def test_overlap_is_the_intersection_and_empty_iff_disjoint(self, case, modulus):
        cert = certify_case(case, modulus)
        assert cert.overlap == cert.lhs_residues & cert.rhs_residues
        assert (not cert.overlap) == cert.disjoint

    def test_overlap_of_a_case_that_does_not_separate(self):
        cert = certify_case(TheoremCase(4, 5, 5, 1), 16)
        assert cert.overlap == {0, 8} and not cert.disjoint

    @pytest.mark.parametrize("case", THEOREM_CASES, ids=lambda c: f"case{c.case_id}")
    @pytest.mark.parametrize("modulus", range(8, 65, 8))
    def test_matches_tuple_enumeration(self, case, modulus):
        assert certify_case(case, modulus) == certificate_by_tuples(case, modulus)

    def test_default_modulus_is_16(self):
        assert certify_case(THEOREM_CASES[0]).modulus == 16

    @pytest.mark.parametrize("bad", [0, -8, 4, 12, 15])
    def test_rejects_modulus_not_multiple_of_eight(self, bad):
        with pytest.raises(ValueError, match="multiple of 8"):
            certify_case(THEOREM_CASES[0], bad)

    def test_modulus_budget(self):
        with pytest.raises(ValueError, match="136 exceeds the budget of 128"):
            certify_case(THEOREM_CASES[0], 136)

    @pytest.mark.parametrize("case", THEOREM_CASES, ids=lambda c: f"case{c.case_id}")
    def test_residues_come_from_actual_products(self, case):
        """Spot-check membership: concrete variable assignments land in the sets."""
        cert = certify_case(case, 16)
        lhs_sample = 2 * (4 * 3 + case.d_m2_mod4) * (4 * 5 + case.s_m2_mod4) % 16
        rhs_sample = (8 * 2 + 1) * (8 * 7 + case.d_pk_mod8) * (8 * 4 + case.s_pk_mod8) % 16
        assert lhs_sample in cert.lhs_residues
        assert rhs_sample in cert.rhs_residues


class TestLemmaOracle:
    def test_small_sweep_is_clean(self):
        primes = primes_below(101)
        qualifying = int((primes % 4 == 1).sum())
        report = lemma_oracle(100, [1, 5, 9, 13])
        assert report.ok
        assert report.mismatches == ()
        assert report.checks == 4 * qualifying

    def test_p13_k5_concrete(self):
        # sigma(13^5) = 402234 = 2 mod 8 and 13 = 5 mod 8
        assert divisor_sum_geometric(13, 5) % 8 == 2 == SIGMA_PK_MOD8[(5, 5)]
        assert lemma_oracle(13, [5]).ok

    def test_p5_k1_concrete(self):
        assert divisor_sum_geometric(5, 1) == 6
        assert SIGMA_PK_MOD8[(5, 1)] == 6

    def test_observed_residues_are_single_valued(self):
        """The sweep's raw data shows each class pins all three quantities."""
        report = lemma_oracle(2000, [1, 5])
        for (p_mod8, k_mod8), buckets in report.observed_residues.items():
            assert buckets["sigma"] == {SIGMA_PK_MOD8[(p_mod8, k_mod8)]}
            assert buckets["deficiency"] == {DEFICIENCY_PK_MOD8[(p_mod8, k_mod8)]}
            assert buckets["aliquot"] == {ALIQUOT_PK_MOD8[(p_mod8, k_mod8)]}

    def test_bound_is_inclusive(self):
        # 13 itself must be swept when the bound is exactly 13
        r = lemma_oracle(13, [1])
        primes = primes_below(14)
        assert r.checks == int((primes % 4 == 1).sum())

    @pytest.mark.parametrize("bound,ks", [(4, [1]), (100, []), (100, [3]), (100, [0])])
    def test_rejects_bad_input(self, bound, ks):
        with pytest.raises(ValueError):
            lemma_oracle(bound, ks)

    @given(st.integers(min_value=5, max_value=500), st.sampled_from([1, 5, 9, 13, 17]))
    @settings(max_examples=30, deadline=None)
    def test_random_slices_stay_clean(self, bound, k):
        assert lemma_oracle(bound, [k]).ok

    @pytest.mark.parametrize(
        "bound,ks",
        [
            (5, [1]),
            (13, [5, 1, 5]),
            (17, [1, 5]),
            (100, [1, 5, 9, 13]),
            (2000, [13, 1, 97, 5, 13, 1]),
            (20000, list(range(1, 150, 4))),
            (20000, [1 + 96 * i for i in range(7)]),
        ],
    )
    def test_matches_restarted_sweeps(self, bound, ks):
        assert lemma_oracle(bound, ks) == lemma_oracle_by_restarts(bound, ks)

    @pytest.mark.parametrize("corruptions", [
        [("SIGMA_PK_MOD8", (1, 1), 4)],
        [("DEFICIENCY_PK_MOD8", (5, 5), 12)],
        [("SIGMA_PK_MOD8", (1, 5), 0), ("ALIQUOT_PK_MOD8", (1, 5), 1)],
        [("SIGMA_PK_MOD8", (5, 1), 2), ("ALIQUOT_PK_MOD8", (1, 5), 0)],  # both classes wrong
    ])
    def test_corrupted_tables_give_the_same_mismatches(self, monkeypatch, corruptions):
        for table, key, value in corruptions:
            monkeypatch.setitem(getattr(congruences, table), key, value)
        ks = [5, 1, 9, 5, 13]
        report = lemma_oracle(300, ks)
        assert not report.ok
        assert report == lemma_oracle_by_restarts(300, ks)

    @pytest.mark.parametrize("table", ["SIGMA_PK_MOD8", "DEFICIENCY_PK_MOD8", "ALIQUOT_PK_MOD8"])
    @pytest.mark.parametrize("key", [(1, 1), (1, 5)])
    def test_corrupted_class_without_a_prime(self, monkeypatch, table, key):
        # no prime == 1 (mod 8) lies below 17, so a wrong class-1 entry shows only from 17 on
        monkeypatch.setitem(getattr(congruences, table), key, 3)
        ks = [1, 5, 9]
        below, at = lemma_oracle(13, ks), lemma_oracle(17, ks)
        assert below.ok
        assert {p_mod8 for p_mod8, _ in below.observed_residues} == {5}
        assert below == lemma_oracle_by_restarts(13, ks)
        assert {(m.p_mod8, m.primes) for m in at.mismatches} == {(1, 1)}  # 17 alone
        assert at == lemma_oracle_by_restarts(17, ks)

    @given(
        st.integers(min_value=5, max_value=3000),
        st.lists(st.integers(min_value=0, max_value=40).map(lambda i: 4 * i + 1), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_sweeps_match_restarted_sweeps(self, bound, ks):
        assert lemma_oracle(bound, ks) == lemma_oracle_by_restarts(bound, ks)

    # 250 exponents up to 997 with repeats: i and 250 - i have the same square mod 250
    LONG_KS = [4 * (i * i % 250) + 1 for i in range(250)]

    @pytest.mark.parametrize(
        "corruption", [None, ("ALIQUOT_PK_MOD8", (1, 5), 0), ("SIGMA_PK_MOD8", (5, 1), 2)]
    )
    def test_long_k_list_with_repeats_matches_restarted_sweeps(self, monkeypatch, corruption):
        if corruption:
            table, key, value = corruption
            monkeypatch.setitem(getattr(congruences, table), key, value)
        assert len(set(self.LONG_KS)) < len(self.LONG_KS) == 250
        report = lemma_oracle(300, self.LONG_KS)
        assert report.ok == (corruption is None)
        assert report == lemma_oracle_by_restarts(300, self.LONG_KS)

    @pytest.mark.parametrize("corruption", [
        None,
        *(
            (table, key)
            for table in ("SIGMA_PK_MOD8", "DEFICIENCY_PK_MOD8", "ALIQUOT_PK_MOD8")
            for key in PK_CLASSES
        ),
    ])
    def test_no_prime_list_is_built(self, monkeypatch, corruption):
        sieving_primes = arith.primes_below

        def no_primes(limit):
            # the class sieve strikes with the primes up to sqrt(10^4); no list goes further
            if limit > isqrt(10**4) + 1:
                raise AssertionError("primes_below ran past the sieving primes: the sweep needs only the class counts")
            return sieving_primes(limit)

        if corruption:
            table, key = corruption
            monkeypatch.setitem(getattr(congruences, table), key, 3)  # 3 is no entry of any *_PK_MOD8 table
        monkeypatch.setattr(arith, "primes_below", no_primes)  # the twin holds its own binding
        ks = range(1, 150, 4)
        report = lemma_oracle(10**4, ks)
        assert report.ok == (corruption is None)
        assert report == lemma_oracle_by_restarts(10**4, ks)

    def test_records_are_one_per_class_k_and_quantity(self, monkeypatch):
        monkeypatch.setitem(congruences.SIGMA_PK_MOD8, (1, 1), 4)
        ks = range(1, 150, 4)
        report = lemma_oracle(10**6, ks)
        assert len(report.mismatches) == 19 <= 6 * len(ks)  # k == 1 (mod 8): 1, 9, ..., 145
        assert {(m.p_mod8, m.k % 8, m.quantity) for m in report.mismatches} == {(1, 1, "sigma")}
        assert sum(m.primes for m in report.mismatches) == 371_488  # one per prime and listed k

    def test_prime_limit_is_refused_before_the_sieve_runs(self, monkeypatch):
        def no_mask(*args, **kwargs):
            raise AssertionError("the sieve ran before the prime limit check")

        for owner, name in ((arith, "_class_sieve"), (arith, "primes_below"), (np, "ones"), (np, "resize")):
            monkeypatch.setattr(owner, name, no_mask)
        with pytest.raises(ValueError, match="^prime bound 100000000000 exceeds the budget of 999999999$"):
            lemma_oracle(10**11, [1, 5])

    def test_budget_edge_names_the_bound_as_given(self, monkeypatch):
        # the sieve counts the primes below prime_bound + 1, so the largest bound accepted is one less
        monkeypatch.setattr(congruences, "_MAX_PRIME_LIMIT", 100)
        assert lemma_oracle(99, [1]).checks == 11  # the primes 5, 13, ..., 97 that are 1 mod 4
        with pytest.raises(ValueError, match="^prime bound 100 exceeds the budget of 99$"):
            lemma_oracle(100, [1])


def sigma_mod8_by_pow(p: int, k: int) -> int:
    """sigma(p^k) mod 8 from the exact quotient (p^(k+1) - 1) / (p - 1), reduced mod 8(p - 1)."""
    return (pow(p, k + 1, 8 * (p - 1)) - 1) // (p - 1) % 8


class TestLemmaOracleBigIntegerTwin:
    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 29, 37, 41, 101, 197, 1997])
    def test_pow_form_matches_exact_sums(self, p):
        for k in range(1, 41):
            assert sigma_mod8_by_pow(p, k) == divisor_sum_geometric(p, k) % 8

    def test_huge_exponents_match_the_pow_form(self):
        ks = [4_000_001, 4_000_000_001]
        primes = [int(p) for p in primes_below(2001) if p % 4 == 1]
        expected = {}
        for k in ks:
            for p in primes:
                sig, pk = sigma_mod8_by_pow(p, k), pow(p, k, 8)
                values = {"sigma": sig, "deficiency": (2 * pk - sig) % 8, "aliquot": (sig - pk) % 8}
                bucket = expected.setdefault((p % 8, k % 8), {name: set() for name in values})
                for name, value in values.items():
                    bucket[name].add(value)
        report = lemma_oracle(2000, ks)
        assert report.ok
        assert report.checks == len(primes) * len(ks)
        assert report.observed_residues == expected

    @pytest.mark.parametrize("table,key,value", [
        ("SIGMA_PK_MOD8", (1, 1), 4),
        ("DEFICIENCY_PK_MOD8", (5, 1), 0),
        ("ALIQUOT_PK_MOD8", (5, 5), 7),
    ])
    def test_huge_exponent_mismatches_match_the_pow_form(self, monkeypatch, table, key, value):
        monkeypatch.setitem(getattr(congruences, table), key, value)
        ks = [4_000_000_001, 5]
        tables = {
            "sigma": congruences.SIGMA_PK_MOD8,
            "deficiency": congruences.DEFICIENCY_PK_MOD8,
            "aliquot": congruences.ALIQUOT_PK_MOD8,
        }
        primes = [int(p) for p in primes_below(2001) if p % 4 == 1]
        expected = {}  # (class, k, quantity, observed, table) -> primes, in lemma_oracle's order
        for c in (1, 5):
            for k in ks:
                for p in (p for p in primes if p % 8 == c):
                    sig, pk = sigma_mod8_by_pow(p, k), pow(p, k, 8)
                    values = {"sigma": sig, "deficiency": (2 * pk - sig) % 8, "aliquot": (sig - pk) % 8}
                    for name, got in values.items():
                        want = tables[name][(c, k % 8)]
                        if got != want:
                            key = (c, k, name, got, want)
                            expected[key] = expected.get(key, 0) + 1
        report = lemma_oracle(2000, ks)
        assert expected
        assert report.mismatches == tuple(
            Mismatch(c, n, k, name, got, want) for (c, k, name, got, want), n in expected.items()
        )

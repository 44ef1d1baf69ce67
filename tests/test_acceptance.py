"""Acceptance gate: one test per criterion, one PASS/FAIL line per criterion.

Each test drives the documented surface (CLI where the criterion is a CLI
invocation, library API otherwise) and asserts the exact expected values
plus the stated runtime bound.  Verdict lines are collected by the
criterion fixture and printed in the terminal summary.
"""

import json
import time
from math import isqrt

import numpy as np

from opnkit.arith import divisor_sum_geometric, primes_below, sigma, sigma_range, sigma_triple
from opnkit.cli import run
from opnkit.congruences import forced_sigma_m2_mod4
from opnkit.sieve import scan_special_primes, sieve_special_primes, special_prime_columns


def test_criterion_1_lemma_sweep(criterion):
    with criterion(1, "verify-lemmas sweep to 100000, zero mismatches, under 5s"):
        t0 = time.perf_counter()
        result = run(
            ["verify-lemmas", "--prime-bound", "100000", "--k-list", "1,5,9,...,97", "--json"]
        )
        elapsed = time.perf_counter() - t0
        assert result.exit_code == 0
        doc = json.loads(result.payload)
        assert doc["failures"] == []
        assert doc["checks"] == 4783 * 25  # 4783 primes = 1 mod 4 below 1e5, 25 exponents
        assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"


def test_criterion_2_theorem_certification(criterion):
    with criterion(2, "four disjoint residue certificates mod 16"):
        t0 = time.perf_counter()
        result = run(["certify-theorem", "--json"])
        elapsed = time.perf_counter() - t0
        assert result.exit_code == 0
        doc = json.loads(result.payload)
        assert doc["failures"] == []
        certs = {c["case_id"]: c for c in doc["certificates"]}
        # odd-sigma assumptions (cases 1 and 4) put the doubled product at 4 mod 8
        for case_id in (1, 4):
            assert certs[case_id]["lhs_residues"] == [4, 12]
            assert certs[case_id]["rhs_residues"] == [0, 8]
        for case_id in (2, 3):
            assert certs[case_id]["lhs_residues"] == [0, 8]
            assert certs[case_id]["rhs_residues"] == [4, 12]
        assert all(c["disjoint"] for c in certs.values())
        assert elapsed < 1.0


def test_criterion_3_descartes_fixture(criterion):
    with criterion(3, "Descartes spoof satisfies the whole identity chain exactly"):
        t0 = time.perf_counter()
        result = run(
            ["verify-identities", "--spoof", "3^2,7^2,11^2,13^2,22021^1!", "--json"]
        )
        elapsed = time.perf_counter() - t0
        assert result.exit_code == 0
        doc = json.loads(result.payload)
        assert doc["failures"] == []
        assert doc["g"] == 819
        assert doc["q1"] == doc["q2"] == doc["q3"] == doc["q4"] == "819"
        assert doc["ratio"] == "2"
        assert doc["star_lhs"] == "670761"
        assert 670761 == 819**2
        assert doc["all_identities_hold"] is True
        assert elapsed < 1.0


def test_criterion_4_survivor_table(criterion):
    with criterion(4, "17,41,73,89,97 classify as stated; sieve below 100 gives [17, 97]"):
        halves = [(p + 1) // 2 for p in (17, 41, 73, 89, 97)]
        assert halves == [9, 21, 37, 45, 49]
        squares = [h for h in halves if isqrt(h) ** 2 == h]
        assert squares == [9, 49]
        result = run(["sieve", "--bound", "100", "--json"])
        assert result.exit_code == 0
        assert [h["p"] for h in json.loads(result.payload)] == [17, 97]
        assert special_prime_columns(18)[0].tolist() == [17]
        assert sieve_special_primes(100)[0].p == 17


def test_criterion_5_residue_filter_and_dual_sieve(criterion):
    with criterion(5, "all hits below 1e8 are 1 mod 16; dual algorithms agree at 1e6; under 30s"):
        t0 = time.perf_counter()
        hits = sieve_special_primes(10**8)
        assert hits, "expected survivors below 1e8"
        assert all(h.p % 16 == 1 for h in hits)
        assert all(p % 16 != 1 for p in (41, 73, 89))
        assert sieve_special_primes(10**6) == scan_special_primes(10**6)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"sieve work took {elapsed:.2f}s"


def test_criterion_6_core_identities_exhaustive(criterion):
    with criterion(6, "D + s = n to 1e6; sigma(m^2) odd to 1e4; sigma(p^k) = 2 mod 4 grid"):
        limit = 10**6
        sig = sigma_range(limit)
        # the bulk sieve must agree with the factorization route before it is trusted
        for n in range(1, 20001):
            t = sigma_triple(n)
            assert t.sigma == sig[n]
            assert t.deficiency + t.aliquot == n
        for n in range(20001, limit + 1, 7919):
            assert sigma(n) == sig[n]

        idx = np.arange(limit + 1, dtype=np.int64)
        deficiency_all = 2 * idx - sig
        aliquot_all = sig - idx
        violations = int(((deficiency_all + aliquot_all)[1:] != idx[1:]).sum())
        assert violations == 0

        assert all(sigma(m * m) % 2 == 1 for m in range(1, 10**4 + 1, 2))

        primes = primes_below(10**4)
        for p in primes[primes % 4 == 1].tolist():
            for k in (1, 5, 9, 13):
                assert divisor_sum_geometric(p, k) % 4 == 2


def test_criterion_7_biconditional(criterion):
    with criterion(7, "forced class is 1 exactly on the diagonal p = k mod 8"):
        for a in (1, 5):
            for b in (1, 5):
                r = forced_sigma_m2_mod4(a, b)
                assert (r == 1) == (a == b)
                assert r in (1, 3)

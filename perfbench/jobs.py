"""The three benchmark workloads: seeded job lists, job execution, answer checks.

A job is one call to opnkit's documented surface: ``opnkit.cli.run`` with
``--json``, or one of the oracle routes the acceptance tests and scripts
call directly (``sieve.scan_special_primes`` against
``sieve.sieve_special_primes``, and ``arith.sigma_range``).  Every job is
generated from the workload seed, and every answer is checked against
``reference`` and ``tables``, never against opnkit itself.

Each workload is a fixed design of cells (job kind x parameter stratum)
and the seed draws the parameters inside each cell and the order of the
jobs.  Keeping the strata fixed keeps the total work of a pass nearly the
same from seed to seed, so throughput differences between two commits are
not swamped by differences between two job lists.

The CLI is driven without ``--threads``, and JSON is read field by field
with extra keys tolerated, so that removing that flag or adding fields to
the envelope does not break the benchmark.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from math import gcd, prod

import reference
import tables

WORKLOADS = ("lemma-sweep", "special-sieve", "divisor-chain")


@dataclass(frozen=True)
class Job:
    """One verification job.

    args is the CLI argv for CLI kinds and the bound for direct routes;
    spec carries whatever the checker needs to know the right answer.
    """

    kind: str
    args: tuple
    spec: tuple = ()


def log_grid(lo: int, hi: int, n: int) -> list[int]:
    """n distinct bounds log-spaced from lo to hi, rounded to 3 significant digits."""
    return [int(float(f"{lo * (hi / lo) ** (i / (n - 1)):.3g}")) for i in range(n)]


LEMMA_BOUNDS = sorted(tables.LEMMA_PI)
SIEVE_BOUNDS = log_grid(10**6, 3 * 10**9, 140)
SCAN_BOUNDS = log_grid(10**5, 10**7, 60)
RANGE_LIMITS = log_grid(50_000, 150_000, 24)
CERT_MODULI = (16, 24, 32, 40, 48)
DESCARTES = ((3, 2, False), (7, 2, False), (11, 2, False), (13, 2, False), (22021, 1, True))

# Dense k-lists 1,5,...,K draw K from one adjacent pair; sparse lists
# 1,97,193,... have a fixed number of terms.  Narrow cells keep the cost
# of each cell, and so the latency quantiles of a pass, nearly the same
# for every seed.
DENSE_K_PAIRS = ((9, 13), (29, 33), (49, 53), (69, 73), (89, 93), (109, 113), (129, 133), (145, 149))
SPARSE_TERMS = (2, 4, 6, 7)

_SMALL_PRIMES = reference.primes_upto(10_000)


def _pairs(grid):
    return [grid[i : i + 2] for i in range(0, len(grid), 2)]


def _dense_k_list(top: int) -> tuple[str, tuple[int, ...]]:
    return f"1,5,...,{top}", tuple(range(1, top + 1, 4))


def _sparse_k_list(terms: int) -> tuple[str, tuple[int, ...]]:
    ks = tuple(1 + 96 * i for i in range(terms))
    text = "1,97" if terms == 2 else f"1,97,...,{ks[-1]}"
    return text, ks


def _lemma_sweep(rng: random.Random) -> list[Job]:
    """96 verify-lemmas jobs (8 prime-bound strata x 12 k-list cells) and
    10 certify-theorem jobs (moduli 16..48, two each): 106 jobs."""
    jobs = []
    for strat in (LEMMA_BOUNDS[i : i + 3] for i in range(0, len(LEMMA_BOUNDS), 3)):
        for pair in DENSE_K_PAIRS:
            jobs.append(_lemma_job(rng.choice(strat), *_dense_k_list(rng.choice(pair))))
        for terms in SPARSE_TERMS:
            jobs.append(_lemma_job(rng.choice(strat), *_sparse_k_list(terms)))
    for modulus in CERT_MODULI * 2:
        jobs.append(Job("certify", ("certify-theorem", "--modulus", str(modulus), "--json"), (modulus,)))
    rng.shuffle(jobs)
    return jobs


def _lemma_job(bound: int, text: str, ks: tuple[int, ...]) -> Job:
    argv = ("verify-lemmas", "--prime-bound", str(bound), "--k-list", text, "--json")
    return Job("lemmas", argv, (bound, ks))


def _special_sieve(rng: random.Random) -> list[Job]:
    """70 `sieve --bound` jobs from 1e6 to 3e9 and 30 dual-route scan jobs
    from 1e5 to 1e7, one bound from each adjacent pair of the grids: 100 jobs."""
    jobs = [
        Job("sieve", ("sieve", "--bound", str(b), "--json"), (b,))
        for b in (rng.choice(pair) for pair in _pairs(SIEVE_BOUNDS))
    ]
    jobs += [Job("dual-scan", (b,), (b,)) for b in (rng.choice(p) for p in _pairs(SCAN_BOUNDS))]
    rng.shuffle(jobs)
    return jobs


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if reference.is_prime(n):
            return n


def _sigma_job(kind: str, factors: dict[int, int]) -> Job:
    n = prod(p**e for p, e in factors.items())
    return Job(kind, ("sigma", str(n), "--json"), (n, tuple(sorted(factors.items()))))


def _distinct_primes(rng, pool, count, exclude=()):
    chosen = set()
    while len(chosen) < count:
        p = rng.choice(pool)
        if p not in exclude:
            chosen.add(p)
    return sorted(chosen)


def _spf_factors(rng):
    """A factorization with value in [2, 2^20]: the SPF-table route."""
    pool = _SMALL_PRIMES[:172]  # primes below 1024
    while True:
        f = {p: rng.randint(1, 3) for p in _distinct_primes(rng, pool, rng.randint(1, 4))}
        if prod(p**e for p, e in f.items()) <= 1 << 20:
            return f


def _smooth_factors(rng):
    """Above 2^20 with every prime below 10^4: the trial-division route."""
    while True:
        f = {p: rng.randint(1, 4) for p in _distinct_primes(rng, _SMALL_PRIMES, rng.randint(3, 6))}
        if prod(p**e for p, e in f.items()) > 1 << 20:
            return f


def _rho_factors(rng, bits):
    """Two distinct primes of 17 to 32 bits, the smaller of `bits` bits: Pollard rho."""
    p = _random_prime(rng, 1 << (bits - 1), 1 << bits)
    q = p
    while q == p:
        q = _random_prime(rng, 1 << (bits - 1), 1 << 32)
    return {p: 1, q: 1}


def _big_prime_factors(rng):
    """A prime in [2^64, 2^80) times a small smooth cofactor: the probable-prime path."""
    f = {p: rng.randint(1, 2) for p in _distinct_primes(rng, _SMALL_PRIMES, rng.randint(1, 3))}
    f[_random_prime(rng, 1 << 64, 1 << 80)] = 1
    return f


def _euler_terms(rng):
    """A valid spoof spec p^k m^2 with large exponents; pairwise coprime odd bases.

    p is a prime == 1 (mod 4) and k == 1 (mod 4), the m^2 terms carry even
    exponents, and half the specs add one flagged composite base built from
    primes not used elsewhere, so the spec always parses and validates.
    """
    odd_primes = _SMALL_PRIMES[1:]
    p = rng.choice([q for q in odd_primes if q % 4 == 1])
    k = rng.randrange(5, 202, 4)
    others = _distinct_primes(rng, odd_primes, rng.randint(2, 5), exclude={p})
    terms = [(p, k, False)] + [(q, 2 * rng.randint(1, 40), False) for q in others]
    if rng.random() < 0.5:
        used = {p, *others}
        a, b = _distinct_primes(rng, odd_primes[:45], 2, exclude=used)
        terms.append((a * b, 2 * rng.randint(1, 10), True))
    rng.shuffle(terms)
    return tuple(terms)


def _identities_job(terms) -> Job:
    spec = ",".join(f"{b}^{e}{'!' if pseudo else ''}" for b, e, pseudo in terms)
    return Job("identities", ("verify-identities", "--spoof", spec, "--json"), terms)


def _divisor_chain(rng: random.Random) -> list[Job]:
    """sigma point queries on each factorization route (160 SPF-table, 160
    smooth, 60 rho in four factor-size strata, 120 above 2^64), 12
    sigma_range tables from 5e4 to 1.5e5, 16 Descartes fixtures and 272
    non-perfect Euler-form specs: 800 jobs.

    The slowest tenth of a pass is the sigma_range tables, the slow rho
    jobs and part of the tightly clustered jobs above 2^64, so job_p90_ms
    falls inside that cluster whatever the seed draws for rho.
    """
    jobs = [_sigma_job("sigma-spf", _spf_factors(rng)) for _ in range(160)]
    jobs += [_sigma_job("sigma-smooth", _smooth_factors(rng)) for _ in range(160)]
    for lo, hi in ((17, 20), (21, 24), (25, 28), (29, 32)):
        jobs += [_sigma_job("sigma-rho", _rho_factors(rng, rng.randint(lo, hi))) for _ in range(15)]
    jobs += [_sigma_job("sigma-ge64", _big_prime_factors(rng)) for _ in range(120)]
    for pair in _pairs(RANGE_LIMITS):
        limit = rng.choice(pair)
        spots = tuple(sorted(rng.sample(range(1, limit + 1), 32)))
        jobs.append(Job("sigma-range", (limit,), spots))
    jobs += [_identities_job(DESCARTES) for _ in range(16)]
    jobs += [_identities_job(_euler_terms(rng)) for _ in range(272)]
    rng.shuffle(jobs)
    return jobs


_GENERATORS = {
    "lemma-sweep": _lemma_sweep,
    "special-sieve": _special_sieve,
    "divisor-chain": _divisor_chain,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass of a workload; the same seed gives the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def run_job(job: Job):
    """Execute one job through opnkit's public surface and return its raw output.

    Functions are looked up on their modules at call time, so a tracer
    that rebinds them sees every call.
    """
    from opnkit import arith, cli, sieve

    if job.kind == "dual-scan":
        return sieve.scan_special_primes(job.args[0]), sieve.sieve_special_primes(job.args[0])
    if job.kind == "sigma-range":
        return arith.sigma_range(job.args[0])
    result = cli.run(list(job.args))
    return result.exit_code, result.payload


# ---------------------------------------------------------------- checkers
# Each returns None when the answer is right and a one-line reason otherwise.


class _Wrong(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise _Wrong(what)


def _cli_json(out, want_exit: int):
    code, payload = out
    _expect(code == want_exit, f"exit code {code}, expected {want_exit}")
    return json.loads(payload)


def _check_lemmas(job, out):
    bound, ks = job.spec
    doc = _cli_json(out, 0)
    _expect(doc["failures"] == [], "mismatches reported")
    _expect(doc["prime_bound"] == bound, "wrong prime_bound")
    _expect(list(doc["k_values"]) == list(ks), "wrong k_values")
    _expect(doc["checks"] == tables.LEMMA_PI[bound] * len(ks), f"checks {doc['checks']}")
    seen = {}
    for entry in doc["observed_residues"]:
        key = (entry["p_mod8"], entry["k_mod8"])
        seen[key] = {q: list(entry[q]) for q in ("sigma", "deficiency", "aliquot")}
    want = {
        (p8, k % 8): {q: [v] for q, v in reference.pk_residues_mod8(p8, k % 8).items()}
        for p8 in (1, 5)
        for k in ks
    }
    _expect(seen == want, "observed residues differ from the derived classes")


def _check_certify(job, out):
    (modulus,) = job.spec
    doc = _cli_json(out, 0)
    _expect(doc["failures"] == [] and doc["modulus"] == modulus, "certificate failures")
    certs = {c["case_id"]: c for c in doc["certificates"]}
    _expect(sorted(certs) == [1, 2, 3, 4], "missing certificates")
    for case_id, p8, k8, s4 in reference.THEOREM_CASES:
        lhs, rhs = reference.certificate_residues(p8, k8, s4, modulus)
        c = certs[case_id]
        _expect(c["lhs_residues"] == sorted(lhs), f"case {case_id} lhs residues")
        _expect(c["rhs_residues"] == sorted(rhs), f"case {case_id} rhs residues")
        _expect(c["disjoint"] is True, f"case {case_id} not disjoint")


_SPECIAL_PRIMES = [2 * a * a - 1 for a in tables.SPECIAL_ROOTS]


def expected_hits(bound: int) -> list[tuple[int, int]]:
    """(p, root) of every special prime below bound, from the roots table."""
    if bound > tables.SPECIAL_ROOTS_BOUND:
        raise ValueError(f"bound {bound} is beyond the roots table")
    cut = bisect.bisect_left(_SPECIAL_PRIMES, bound)
    return list(zip(_SPECIAL_PRIMES[:cut], tables.SPECIAL_ROOTS[:cut]))


def _hits_of(doc):
    # sieve --json is a bare array of hits today; accept an envelope holding it too.
    if isinstance(doc, dict):
        doc = doc.get("hits", doc.get("data"))
    _expect(isinstance(doc, list), "no hit list in output")
    return doc


def _check_sieve(job, out):
    (bound,) = job.spec
    hits = _hits_of(_cli_json(out, 0))
    _expect(all(h["p_mod16"] == 1 for h in hits), "hit not 1 mod 16")
    _expect([(h["p"], h["root"]) for h in hits] == expected_hits(bound), "hit list differs")


def _check_dual_scan(job, out):
    (bound,) = job.spec
    scanned, sieved = out
    want = expected_hits(bound)
    for name, hits in (("scan", scanned), ("sieve", sieved)):
        _expect([(h.p, h.root) for h in hits] == want, f"{name} hit list differs")
        _expect(all(h.p_mod16 == 1 for h in hits), f"{name} hit not 1 mod 16")


def _check_sigma(job, out):
    n, factors = job.spec
    s = reference.sigma_of(dict(factors))
    doc = _cli_json(out, 0)
    _expect(doc["n"] == n and doc["sigma"] == s, "wrong sigma")
    _expect(doc["deficiency"] == 2 * n - s and doc["aliquot"] == s - n, "wrong D or s")


def _check_sigma_range(job, out):
    (limit,) = job.args
    _expect(len(out) == limit + 1 and int(out[0]) == 0, "wrong table shape")
    _expect(int(out.sum()) == reference.sigma_total(limit), "wrong divisor-sum total")
    for i in job.spec:
        _expect(int(out[i]) == reference.sigma_of(reference.trial_factor(i)), f"wrong sigma({i})")


def _check_identities(job, out):
    terms = job.spec
    (p, k, _), = [t for t in terms if t[1] % 2]
    rest = [t for t in terms if t[1] % 2 == 0]
    m = prod(b ** (e // 2) for b, e, _ in rest)
    sigma_m2 = prod(reference.geometric(b, e) for b, e, _ in rest)
    perfect = reference.geometric(p, k) * sigma_m2 == 2 * p**k * m * m
    doc = _cli_json(out, 0 if perfect else 1)
    _expect((doc["p"], doc["k"], doc["m"]) == (p, k, m), "wrong decomposition")
    _expect(doc["g"] == gcd(m * m, sigma_m2), "wrong g")
    _expect(doc["all_identities_hold"] is perfect, "wrong verdict")
    _expect((doc["failures"] == []) is perfect, "failures disagree with the verdict")


_CHECKERS = {
    "lemmas": _check_lemmas,
    "certify": _check_certify,
    "sieve": _check_sieve,
    "dual-scan": _check_dual_scan,
    "sigma-spf": _check_sigma,
    "sigma-smooth": _check_sigma,
    "sigma-rho": _check_sigma,
    "sigma-ge64": _check_sigma,
    "sigma-range": _check_sigma_range,
    "identities": _check_identities,
}


def check_job(job: Job, out) -> str | None:
    """None when out is the right answer to job, else why it is wrong."""
    try:
        _CHECKERS[job.kind](job, out)
    except _Wrong as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {exc!r}"
    return None

"""Tests of the benchmark itself: job lists, answer checkers, expected tables, tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import cache
from math import gcd
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import tables  # noqa: E402


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_identical_job_list(workload):
    assert jobs.make_jobs(workload, 7) == jobs.make_jobs(workload, 7)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_different_seed_gives_different_job_list(workload):
    assert jobs.make_jobs(workload, 7) != jobs.make_jobs(workload, 8)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_pass_leaves_ten_jobs_above_p90(workload):
    assert len(jobs.make_jobs(workload, 7)) >= 100


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generated_inputs_are_valid(workload):
    for job in jobs.make_jobs(workload, 3):
        assert "--threads" not in job.args
        if job.kind.startswith("sigma-") and job.kind != "sigma-range":
            n, factors = job.spec
            assert all(reference.is_prime(p) for p, _ in factors)
        if job.kind == "identities":
            bases = [b for b, _, _ in job.spec]
            assert len(set(bases)) == len(bases)
            assert all(reference.is_prime(b) or pseudo for b, _, pseudo in job.spec)
            assert all(gcd(a, b) == 1 for i, a in enumerate(bases) for b in bases[i + 1 :])


def _size(job):
    if job.kind == "sigma-range":
        return job.args[0]
    if job.kind == "identities":
        return len(job.spec)
    return job.spec[0]


@cache
def _cheapest(kind):
    candidates = [j for w in jobs.WORKLOADS for j in jobs.make_jobs(w, 5) if j.kind == kind]
    return min(candidates, key=_size)


def _edit_json(edit):
    def corrupt(out):
        code, payload = out
        doc = json.loads(payload)
        edit(doc)
        return code, json.dumps(doc)

    return corrupt


def _flip_exit(out):
    return 1 - out[0] if out[0] in (0, 1) else 0, out[1]


def _drop_last(hits):
    hits.pop()


def _bump(table, index):
    table = table.copy()
    table[index] += 1
    return table


CORRUPTIONS = [
    ("lemmas", _flip_exit),
    ("lemmas", _edit_json(lambda d: d.update(checks=d["checks"] - 1))),
    ("lemmas", _edit_json(lambda d: d["observed_residues"][0]["sigma"].append(7))),
    ("certify", _edit_json(lambda d: d["certificates"][0]["lhs_residues"].pop())),
    ("certify", _edit_json(lambda d: d["certificates"][2].update(disjoint=False))),
    ("sieve", _edit_json(_drop_last)),
    ("sieve", _edit_json(lambda d: d[0].update(root=d[0]["root"] + 2))),
    ("dual-scan", lambda out: (out[0][:-1], out[1])),
    ("dual-scan", lambda out: (out[0], out[1][1:])),
    ("sigma-spf", _edit_json(lambda d: d.update(sigma=d["sigma"] + 1))),
    ("sigma-smooth", _edit_json(lambda d: d.update(aliquot=d["aliquot"] - 1))),
    ("sigma-rho", _flip_exit),
    ("sigma-ge64", _edit_json(lambda d: d.update(deficiency=d["deficiency"] + 2))),
    ("sigma-range", lambda out: _bump(out, 1)),
    ("sigma-range", lambda out: _bump(out, len(out) - 1)),
    ("identities", _flip_exit),
    ("identities", _edit_json(lambda d: d.update(g=d["g"] + 2))),
    ("identities", _edit_json(lambda d: d.update(all_identities_hold=not d["all_identities_hold"]))),
]


@pytest.mark.parametrize("kind", sorted({kind for kind, _ in CORRUPTIONS}))
def test_checker_accepts_true_answer(kind):
    job = _cheapest(kind)
    assert jobs.check_job(job, jobs.run_job(job)) is None


@pytest.mark.parametrize("kind, corrupt", CORRUPTIONS)
def test_checker_rejects_corrupted_answer(kind, corrupt):
    job = _cheapest(kind)
    out = jobs.run_job(job)
    assert jobs.check_job(job, corrupt(out))


def test_descartes_fixture_is_checked_as_perfect():
    job = jobs._identities_job(jobs.DESCARTES)
    code, payload = jobs.run_job(job)
    assert code == 0 and jobs.check_job(job, (code, payload)) is None


def test_wrong_answer_counts_as_failed_job():
    good = _cheapest("sigma-spf")
    n, factors = good.spec
    wrong = jobs.Job(good.kind, good.args, (n + 1, factors))
    loop = run.Loop([good, wrong], run.KERNELS["divisor-chain"])
    loop.run(0)
    assert loop.attempted == 2 and len(loop.failures) == 1


def test_lemma_table_matches_reference_sieve():
    assert len(tables.LEMMA_PI) == 24
    for bound, count in tables.LEMMA_PI.items():
        assert reference.count_primes_1mod4(bound) == count


def test_roots_table_matches_miller_rabin_enumeration():
    assert max(jobs.SIEVE_BOUNDS) <= tables.SPECIAL_ROOTS_BOUND
    assert list(tables.SPECIAL_ROOTS) == reference.special_roots_below(tables.SPECIAL_ROOTS_BOUND)


def test_roots_table_matches_eratosthenes_scan():
    bound = max(jobs.SCAN_BOUNDS)
    want = reference.special_roots_by_scan(bound)
    assert [root for _, root in jobs.expected_hits(bound)] == want


def test_reference_primality_matches_sieve():
    flags = reference.prime_flags(100_000)
    assert all(reference.is_prime(n) == bool(flags[n]) for n in range(100_000))
    assert reference.is_prime(2**61 - 1) and not reference.is_prime((2**61 - 1) * (2**19 - 1))
    assert reference.is_prime(761_838_257_287) and not reference.is_prime(2**67 - 1)


def test_reference_certificates_match_joint_enumeration():
    for case_id, p8, k8, s4 in reference.THEOREM_CASES:
        d_m2, s_m2 = (2 - s4) % 4, (s4 - 1) % 4
        pk = reference.pk_residues_mod8(p8, k8)
        m = 16
        lhs = {2 * (4 * a + d_m2) * (4 * b + s_m2) % m for a in range(m) for b in range(m)}
        rhs = {
            (8 * x + 1) * (8 * c + pk["deficiency"]) * (8 * d + pk["aliquot"]) % m
            for x in range(m)
            for c in range(m)
            for d in range(m)
        }
        assert reference.certificate_residues(p8, k8, s4, m) == (lhs, rhs)
        assert not lhs & rhs


def test_reference_pk_residues_match_direct_powers():
    for p in (5, 13, 17, 29, 37, 41):
        for k in (1, 5, 9, 13):
            sig = sum(p**i for i in range(k + 1))
            want = {"sigma": sig % 8, "deficiency": (2 * p**k - sig) % 8, "aliquot": (sig - p**k) % 8}
            assert reference.pk_residues_mod8(p % 8, k % 8) == want


def test_reference_sigma_total_matches_direct_sum():
    for limit in (1, 2, 10, 97, 1000):
        direct = sum(reference.sigma_of(reference.trial_factor(n)) for n in range(1, limit + 1))
        assert reference.sigma_total(limit) == direct


@pytest.mark.parametrize("bound", [2, 17, 18, 50, 51, 99, 10**6])
def test_roots_tried_counts_enumerated_candidates(bound):
    assert spans.roots_tried(bound) == sum(1 for a in range(3, bound, 2) if 2 * a * a - 1 < bound)


def test_tracer_counts_and_restores_bindings():
    import opnkit
    from opnkit import arith, sieve

    original = sieve.is_prime
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sieve.is_prime is not original and opnkit.is_prime is sieve.is_prime
        job = jobs.Job("sieve", ("sieve", "--bound", "100000", "--json"), (100_000,))
        assert jobs.check_job(job, jobs.run_job(job)) is None
    finally:
        tracer.uninstall()
    assert sieve.is_prime is original and arith.is_prime is original
    assert tracer.calls["cli.run"] == 1 and tracer.calls["sieve.sieve_special_primes"] == 1
    roots = spans.roots_tried(100_000)
    hits = len(jobs.expected_hits(100_000))
    assert tracer.counts["sieve.sieve_special_primes.roots"] == roots
    assert tracer.counts["sieve.sieve_special_primes.hits"] == hits
    assert tracer.counts["sieve.classify_prime_calls"] == roots + hits
    assert tracer.edges[("cli.run", "sieve.sieve_special_primes")] == 1
    assert tracer.self_s["cli.run"] > 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert set(run.KERNELS) == set(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_opnkit_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

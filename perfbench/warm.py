"""Set-up probe: import opnkit and warm its lazy tables through public calls.

Run as ``python3 perfbench/warm.py SRC_DIR`` in a fresh process, it prints
the CPU seconds from just before the first opnkit import to the end of the
warm-up: the set-up cost every job-running process pays once.
"""

from __future__ import annotations

import sys
import time


def warm() -> None:
    """Touch every route that builds a cached table, so timed jobs start warm."""
    import opnkit.cli
    from opnkit import arith, congruences, sieve

    arith.factorize(1_048_575)            # smallest-prime-factor table (n <= 2^20)
    arith.factorize(3**20 * 7919)         # small-prime trial table (n > 2^20)
    arith.classify_prime(999_983)         # trial-division primality tier
    arith.classify_prime(2**89 - 1)       # trial primes below 10^6 above 2^64
    arith.sigma_range(100)
    sieve.scan_special_primes(10_000)
    sieve.sieve_special_primes(10_000)
    congruences.lemma_oracle(100, (1, 5))
    congruences.certify_case(congruences.THEOREM_CASES[0])
    opnkit.cli.run(["forced-class", "--p-mod8", "1", "--k-mod8", "1", "--json"])


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    start = time.process_time()
    warm()
    print(time.process_time() - start)

#!/usr/bin/env python3
"""Survey special-prime survivors p = 2a^2 - 1 up to a bound.

Prints every hit (or just per-decade counts with --counts-only) and
cross-checks the root enumeration against the direct prime scan on the
low range.

    python3 scripts/sieve_survey.py --bound 100000000
"""

import argparse
import sys
import time

from opnkit.sieve import scan_special_primes, sieve_special_primes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bound", type=int, default=10**8)
    ap.add_argument("--counts-only", action="store_true")
    ap.add_argument("--crosscheck-bound", type=int, default=10**6,
                    help="range on which the direct prime scan re-derives the list (0 to skip)")
    ns = ap.parse_args()

    t0 = time.perf_counter()
    hits = sieve_special_primes(ns.bound)
    elapsed = time.perf_counter() - t0
    print(f"{len(hits)} survivors below {ns.bound} in {elapsed:.2f}s")

    if ns.counts_only:
        decade = 100
        while decade <= ns.bound:
            count = sum(1 for h in hits if h.p < decade)
            print(f"  below {decade:>12}: {count}")
            decade *= 10
    else:
        for h in hits:
            print(f"  p={h.p}  root={h.root}  p mod 16 = {h.p_mod16}")

    if ns.crosscheck_bound:
        b = min(ns.crosscheck_bound, ns.bound)
        agree = scan_special_primes(b) == sieve_special_primes(b)
        print(f"direct-scan crosscheck below {b}: {'agree' if agree else 'DISAGREE'}")
        if not agree:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

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

import numpy as np

from opnkit.sieve import scan_special_primes, sieve_special_primes, special_prime_columns


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bound", type=int, default=10**8)
    ap.add_argument("--counts-only", action="store_true")
    ap.add_argument("--crosscheck-bound", type=int, default=10**6,
                    help="range on which the direct prime scan re-derives the list (0 to skip)")
    ns = ap.parse_args()

    t0 = time.perf_counter()
    ps, roots = special_prime_columns(ns.bound)
    elapsed = time.perf_counter() - t0
    print(f"{ps.size} survivors below {ns.bound} in {elapsed:.2f}s")

    if ns.counts_only:
        decades = [10**e for e in range(2, len(str(ns.bound)))]  # 100, 1000, ... up to the bound
        for decade, count in zip(decades, np.searchsorted(ps, decades).tolist()):
            print(f"  below {decade:>12}: {count}")
    else:
        for p, root in zip(ps.tolist(), roots.tolist()):
            print(f"  p={p}  root={root}  p mod 16 = {p % 16}")

    if ns.crosscheck_bound:
        b = min(ns.crosscheck_bound, ns.bound)
        agree = scan_special_primes(b) == sieve_special_primes(b)
        print(f"direct-scan crosscheck below {b}: {'agree' if agree else 'DISAGREE'}")
        if not agree:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

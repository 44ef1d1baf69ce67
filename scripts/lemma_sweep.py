#!/usr/bin/env python3
"""Sweep the mod-8 residue tables and dump the observed raw residue data.

The verification suite only needs the zero-mismatch verdict; this script
also prints, for each (p mod 8, k mod 8) class, the residue sets the
sweep actually attained.  That raw data is the starting material for any
attempt to sharpen the mod-4 analysis of sigma(m^2) to mod 8.

    python3 scripts/lemma_sweep.py --prime-bound 100000 --k-list 1,5,9,...,97
"""

import argparse
import sys
import time

from opnkit.cli import parse_k_list
from opnkit.congruences import lemma_oracle


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--prime-bound", type=int, default=100_000)
    ap.add_argument("--k-list", default="1,5,9,...,97")
    ns = ap.parse_args()

    ks = parse_k_list(ns.k_list)
    t0 = time.perf_counter()
    report = lemma_oracle(ns.prime_bound, ks)
    elapsed = time.perf_counter() - t0

    wrong = sum(m.primes for m in report.mismatches)
    print(f"{report.checks} (p, k) pairs in {elapsed:.2f}s, {wrong} mismatches")
    for (p_mod8, k_mod8), buckets in sorted(report.observed_residues.items()):
        parts = ", ".join(f"{name} {sorted(vals)}" for name, vals in buckets.items())
        print(f"  p≡{p_mod8}, k≡{k_mod8} (mod 8): {parts}")
    for m in report.mismatches:
        print(f"  MISMATCH p≡{m.p_mod8} (mod 8), {m.primes} primes, k={m.k} {m.quantity}: "
              f"observed {m.observed}, table {m.expected}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())

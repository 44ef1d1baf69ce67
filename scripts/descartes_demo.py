#!/usr/bin/env python3
"""Walk the whole identity chain on the Descartes number, step by step.

n = 3^2 7^2 11^2 13^2 22021 is perfect when the composite 22021 = 19^2 * 61
is treated as prime, which makes it the one decomposition where every
stage of the chain can be watched collapsing to a single integer.
"""

import sys

from opnkit.cli import parse_factor_spec
from opnkit.identities import report_from_spoof

SPEC = "3^2,7^2,11^2,13^2,22021^1!"


def main() -> int:
    f = parse_factor_spec(sys.argv[1] if len(sys.argv) > 1 else SPEC)
    r = report_from_spoof(f)
    n = r.p**r.k * r.m**2

    print(f"n = {f} = {n}")
    print(f"split: p^k = {r.p}^{r.k}, m = {r.m}, m^2 = {r.m ** 2}")
    print(f"spoof sigma(p^k) = {r.sigma_pk}, sigma(m^2) = {r.sigma_m2}")
    print(f"sigma(n) = {r.sigma_pk * r.sigma_m2}, 2n = {2 * n}")
    print()
    print(f"D(p^k) = {r.d_pk}   s(p^k) = {r.s_pk}")
    print(f"D(m^2) = {r.d_m2}   s(m^2) = {r.s_m2}")
    print()
    print(f"g  = gcd(m^2, sigma(m^2)) = {r.g}")
    print(f"q1 = sigma(m^2) / p^k       = {r.q1}")
    print(f"q2 = 2 m^2 / sigma(p^k)     = {r.q2}")
    print(f"q3 = D(m^2) / s(p^k)        = {r.q3}")
    print(f"q4 = s(m^2) / (D(p^k)/2)    = {r.q4}")
    print(f"ratio D(p^k)D(m^2) / s(p^k)s(m^2) = {r.ratio}")
    print(f"2 D(m^2) s(m^2) / D(p^k) s(p^k)   = {r.star_lhs} = g^2 = {r.g ** 2}")
    print()
    print("all identities hold" if r.all_identities_hold else "chain does NOT collapse")
    return 0 if r.all_identities_hold else 1


if __name__ == "__main__":
    sys.exit(main())

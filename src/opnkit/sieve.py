"""Sieve for special primes p whose (p + 1)/2 is an odd perfect square.

If sigma(m^2)/p^k is a square for a perfect decomposition p^k m^2, then
k = 1 and sigma(p)/2 = (p + 1)/2 must itself be an odd square, which
forces p = 2a^2 - 1 for some odd a >= 3 and in particular p >= 17.
An odd square is 1 mod 8, so every survivor also has p == 1 (mod 16);
that rules out 41, 73 and 89 among the p < 100 with p == 1 (mod 8).

Enumerating by root a (odd, ascending) visits O(sqrt(bound)) candidates
and needs one primality test each; scan_special_primes keeps the slow
direct scan over primes as an independent oracle for the same list.
The machinery is conditional on the squareness hypothesis throughout:
hits are necessary-condition survivors, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import is_prime, primes_below

__all__ = [
    "SieveHit",
    "sieve_special_primes",
    "scan_special_primes",
    "mod16_filter",
    "min_special_prime",
]


@dataclass(frozen=True)
class SieveHit:
    """A surviving special-prime candidate, self-checking on construction."""

    p: int
    root: int
    p_mod16: int

    def __post_init__(self):
        if self.root % 2 == 0 or self.root < 3:
            raise ValueError(f"root {self.root} must be odd and at least 3")
        if self.p != 2 * self.root**2 - 1:
            raise ValueError(f"{self.p} != 2*{self.root}^2 - 1")
        if self.p_mod16 != self.p % 16:
            raise ValueError(f"stored residue {self.p_mod16} != {self.p} mod 16")
        if self.p_mod16 != 1:
            raise ValueError(f"{self.p} is {self.p_mod16} mod 16, every hit must be 1")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


def sieve_special_primes(bound: int) -> list[SieveHit]:
    """All special-prime survivors p < bound, ascending.

    Enumerates odd roots a >= 3 with 2a^2 - 1 < bound and keeps the prime
    candidates.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    max_root = isqrt((bound + 1) // 2)
    while 2 * max_root * max_root - 1 >= bound:
        max_root -= 1
    hits = []
    for a in range(3, max_root + 1, 2):
        p = 2 * a * a - 1
        if is_prime(p):
            hits.append(SieveHit(p=p, root=a, p_mod16=p % 16))
    return hits


def scan_special_primes(bound: int) -> list[SieveHit]:
    """Same list as sieve_special_primes, by the opposite algorithm.

    Walks every prime p < bound with p == 1 (mod 8) and tests whether
    (p + 1)/2 is an odd square, using exact integer square roots verified
    by squaring.  An O(B log log B) prime sieve plus one linear pass, kept
    as the oracle for cross-checking the root enumeration; prefer
    sieve_special_primes for real use.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    primes = primes_below(bound)
    hits = []
    for p in primes[primes % 8 == 1].tolist():
        half = (p + 1) // 2
        a = isqrt(half)
        if a * a == half and a % 2 == 1:
            hits.append(SieveHit(p=p, root=a, p_mod16=p % 16))
    return hits


def mod16_filter(p: int) -> bool:
    """True iff p == 1 (mod 16); requires p == 1 (mod 8) to begin with.

    (p + 1)/2 being an odd square means (p + 1)/2 == 1 (mod 8), so every
    genuine hit passes; 41, 73 and 89 are cut here without any square test.
    """
    if p % 8 != 1:
        raise ValueError(f"{p} is {p % 8} mod 8; the filter applies to p == 1 (mod 8)")
    return p % 16 == 1


def min_special_prime() -> int:
    """Smallest possible special prime under the squareness hypothesis.

    Computed, not quoted: the first hit of the sieve (root a = 3).
    """
    return sieve_special_primes(18)[0].p

"""Sieve for special primes p whose (p + 1)/2 is an odd perfect square.

If sigma(m^2)/p^k is a square for a perfect decomposition p^k m^2, then
k = 1 and sigma(p)/2 = (p + 1)/2 must itself be an odd square, which
forces p = 2a^2 - 1 for some odd a >= 3 and in particular p >= 17.
An odd square is 1 mod 8, so every survivor also has p == 1 (mod 16);
that rules out 41, 73 and 89 among the p < 100 with p == 1 (mod 8).

sieve_special_primes sieves the odd roots a by the primes that can divide
2a^2 - 1 (Shanks' sieve for primes of the form n^2 + c).  A prime q
divides some 2a^2 - 1 only if 2 is a square mod q, that is q == +-1
(mod 8), and then it divides exactly when a == +-r (mod q), where
2r^2 == 1 (mod q); r is read off an 8th root of unity mod q.  Striking
those roots for every such q up to sqrt(bound) leaves exactly the roots
whose 2a^2 - 1 is prime, so every verdict is proven and no primality test
runs.  scan_special_primes re-derives the same list from the other side,
from every prime below the bound, as an independent oracle.
The machinery is conditional on the squareness hypothesis throughout:
hits are necessary-condition survivors, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import primes_below

__all__ = [
    "SieveHit",
    "sieve_special_primes",
    "scan_special_primes",
    "mod16_filter",
    "min_special_prime",
]

_MAX_SIEVE_BOUND = 10**14  # mask of sqrt(bound/8) bytes, primes_below(sqrt(bound)); ~3 s at the cap


@dataclass(frozen=True)
class SieveHit:
    """A special prime and its root, shape-checked on construction.

    Primality is not re-checked here: both producers yield only primes.
    """

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


def _half_root_two(q: int) -> int:
    """An r with 2r^2 == 1 (mod q), for a prime q == +-1 (mod 8).

    Let h = (q + 1)/2, the inverse of 2.  For q == 7 (mod 8), q == 3 (mod 4)
    and h is a square, so r = h^((q+1)/4).  For q == 1 (mod 8), z = c^((q-1)/8)
    has z^4 == -1 exactly when c is a non-square; then z has order 8, so
    z^-1 = -z^3, z^-2 = -z^2 and (z + z^-1)^2 = z^2 + 2 + z^-2 = 2, and
    r = h(z - z^3) has 2r^2 = 4h^2 = 1.
    """
    h = (q + 1) // 2
    if q % 8 == 7:
        return pow(h, (q + 1) // 4, q)
    c = 3  # 2 is a square mod every q == +-1 (mod 8), so the search starts at 3
    while pow(z := pow(c, (q - 1) // 8, q), 4, q) != q - 1:
        c += 1
    return h * (z - pow(z, 3, q)) % q


def sieve_special_primes(bound: int) -> list[SieveHit]:
    """All special primes p = 2a^2 - 1 < bound, ascending, proven prime.

    Index i of one bool mask stands for the odd root a = 2i + 3.  For each
    prime q <= sqrt(bound) with q == +-1 (mod 8), the roots a == +-r
    (mod q), 2r^2 == 1 (mod q), are struck with stride q, except the root
    whose 2a^2 - 1 is q itself; a class of a q at or past the mask length
    holds at most one index, and those are struck in one store at the end.
    A composite 2a^2 - 1 < bound has such a prime factor, so the survivors
    are exactly the primes.  Bounds above _MAX_SIEVE_BOUND are rejected
    before anything is allocated.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if bound > _MAX_SIEVE_BOUND:
        raise ValueError(f"sieve bound {bound} exceeds the budget of {_MAX_SIEVE_BOUND}")
    max_root = isqrt((bound + 1) // 2)
    while 2 * max_root * max_root - 1 >= bound:
        max_root -= 1
    n = (max_root - 1) // 2
    mask = np.ones(n, dtype=bool)
    lone = []  # classes of q >= n strike at most one index; cleared in one store
    for q in primes_below(isqrt(bound - 1) + 1).tolist():
        if q % 8 not in (1, 7):
            continue
        r = _half_root_two(q)
        for s in (r, q - r):
            a = s if s % 2 else s + q  # the odd root below 2q in the class; never 1
            if 2 * a * a - 1 == q:
                a += 2 * q
            i = (a - 3) // 2
            if q < n:
                mask[i::q] = False
            elif i < n:
                lone.append(i)
    mask[lone] = False
    roots = 2 * np.flatnonzero(mask) + 3
    ps = 2 * roots * roots - 1  # exact in int64: the budget keeps p below 2^47
    return list(map(SieveHit, ps.tolist(), roots.tolist(), (ps % 16).tolist()))


def scan_special_primes(bound: int) -> list[SieveHit]:
    """Same list as sieve_special_primes, by the opposite algorithm.

    Takes every prime p < bound with p == 1 (mod 8) and tests whether
    (p + 1)/2 is an odd square in one array pass: a float square root,
    moved by one step either way to the exact integer root, then verified
    by squaring (exact in int64, as primes_below keeps (p + 1)/2 below
    5*10^8).  An O(B log log B) prime sieve plus one linear pass, kept as
    the oracle for cross-checking the divisor sieve over roots: its hits
    come from primes_below, so they are prime by the same kind of proof
    reached from the other side.  Prefer sieve_special_primes for real use.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    primes = primes_below(bound)
    ps = primes[primes % 8 == 1]
    half = (ps + 1) // 2
    a = np.sqrt(half).astype(np.int64)
    a -= a * a > half
    a += (a + 1) * (a + 1) <= half
    keep = (a * a == half) & (a % 2 == 1)
    ps, a = ps[keep], a[keep]
    return list(map(SieveHit, ps.tolist(), a.tolist(), (ps % 16).tolist()))


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

"""Independent arithmetic the benchmark checks opnkit's answers against.

Nothing here imports opnkit or any package beyond the standard library:
a wrong answer from the code under test must not be able to hide behind
the same wrong answer in its checker.  Each routine takes a different
algorithmic route from the opnkit function it checks where one exists
(factor-by-factor residue products instead of a joint enumeration, a
closed-form divisor-sum total instead of a sieve).
"""

from __future__ import annotations

from math import isqrt, prod

# Miller-Rabin to the first twelve prime bases is deterministic for every
# n < 3.317e24 (Sorenson & Webster 2015); every number this benchmark
# builds or checks is below 2^81 < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n < MR_LIMIT."""
    if n >= MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_flags(limit: int) -> bytearray:
    """Sieve of Eratosthenes: flags[n] == 1 iff n is prime, for n < limit."""
    flags = bytearray([1]) * max(limit, 2)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit - 1) + 1 if limit > 2 else 2):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return flags[:limit]


def primes_upto(limit: int) -> list[int]:
    """All primes p <= limit, ascending."""
    flags = prime_flags(limit + 1)
    return [n for n in range(limit + 1) if flags[n]]


def count_primes_1mod4(bound: int) -> int:
    """pi(bound; 4, 1): primes p <= bound with p == 1 (mod 4)."""
    flags = prime_flags(bound + 1)
    return sum(flags[1 : bound + 1 : 4])


def special_roots_below(bound: int) -> list[int]:
    """Odd roots a >= 3 with 2a^2 - 1 prime and below bound, by Miller-Rabin."""
    out = []
    a = 3
    while 2 * a * a - 1 < bound:
        if is_prime(2 * a * a - 1):
            out.append(a)
        a += 2
    return out


def special_roots_by_scan(bound: int) -> list[int]:
    """The same roots, found by walking an Eratosthenes sieve over p < bound."""
    flags = prime_flags(bound)
    out = []
    for p in range(17, bound, 16):
        if flags[p]:
            half = (p + 1) // 2
            a = isqrt(half)
            if a * a == half:
                out.append(a)
    return out


def geometric(base: int, exponent: int) -> int:
    """1 + base + ... + base^exponent."""
    return (base ** (exponent + 1) - 1) // (base - 1)


def sigma_of(factors: dict[int, int]) -> int:
    """Divisor sum of prod(p^e), every base taken as prime."""
    return prod(geometric(p, e) for p, e in factors.items())


def trial_factor(n: int) -> dict[int, int]:
    """Prime factorization of a small n >= 1 by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sigma_total(limit: int) -> int:
    """sum of sigma(n) for n <= limit, as sum of d * floor(limit / d) in O(sqrt(limit))."""
    total, d = 0, 1
    while d <= limit:
        q = limit // d
        hi = limit // q
        total += q * (d + hi) * (hi - d + 1) // 2
        d = hi + 1
    return total


def pk_residues_mod8(p_mod8: int, k_mod8: int) -> dict[str, int]:
    """sigma, D and s of p^k mod 8 for odd p and odd k, from p^2 == 1 (mod 8).

    The k + 1 powers alternate 1, p mod 8, so sigma = (k + 1)/2 * (1 + p)
    and p^k == p (mod 8).
    """
    sig = (k_mod8 + 1) // 2 * (1 + p_mod8) % 8
    return {
        "sigma": sig,
        "deficiency": (2 * p_mod8 - sig) % 8,
        "aliquot": (sig - p_mod8) % 8,
    }


# (case id, p mod 8, k mod 8, assumed sigma(m^2) mod 4) of the four impossible cases.
THEOREM_CASES = ((1, 1, 1, 3), (2, 1, 5, 1), (3, 5, 1, 1), (4, 5, 5, 3))


def _product_residues(factor_sets, m: int) -> set[int]:
    acc = {1}
    for values in factor_sets:
        acc = {a * b % m for a in acc for b in values}
    return acc


def certificate_residues(p_mod8: int, k_mod8: int, sigma_m2_mod4: int, m: int):
    """(lhs, rhs) residue sets mod m of 2(4a + D_m2)(4b + s_m2) and
    (8x + 1)(8c + D_pk)(8d + s_pk), built one factor at a time.

    With m^2 == 1 (mod 4): D(m^2) == 2 - sigma and s(m^2) == sigma - 1 (mod 4).
    """
    d_m2 = (2 - sigma_m2_mod4) % 4
    s_m2 = (sigma_m2_mod4 - 1) % 4
    pk = pk_residues_mod8(p_mod8, k_mod8)

    def progression(step, offset):
        return {(step * v + offset) % m for v in range(m)}

    lhs = _product_residues([{2 % m}, progression(4, d_m2), progression(4, s_m2)], m)
    rhs = _product_residues(
        [progression(8, 1), progression(8, pk["deficiency"]), progression(8, pk["aliquot"])], m
    )
    return lhs, rhs

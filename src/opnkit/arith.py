"""Exact divisor-sum arithmetic over arbitrary-precision integers.

Everything here is integer-exact: no floating point enters any code path.
The three divisor quantities are the sum of divisors sigma(n), the
deficiency D(n) = 2n - sigma(n), and the aliquot sum s(n) = sigma(n) - n,
tied together by D(n) + s(n) = n.

sigma is computed multiplicatively from a prime factorization, so the
module carries its own factorization engine: trial division by the primes
below 10^4, then Pollard rho (Brent variant) with a fixed iteration
budget.  When a composite cofactor survives the budget the engine raises
EffortExceededError instead of ever returning a wrong factorization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt, prod

import numpy as np

__all__ = [
    "EffortExceededError",
    "PrimalityResult",
    "SpoofFactor",
    "SpoofFactorization",
    "SigmaTriple",
    "primes_below",
    "prime_counts_mod8",
    "is_prime",
    "classify_prime",
    "factorize",
    "divisor_sum_geometric",
    "sigma",
    "sigma_range",
    "sigma_triple",
    "spoof_sigma",
]


class EffortExceededError(Exception):
    """factorize gave up within its fixed effort budget."""


# Complete witness set: Miller-Rabin with the bases 2..41 is deterministic below
# psi_13 ~ 3.3 * 10^24 (Sorenson & Webster 2017); the bases 2..37 stop at psi_12 (79 bits).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981  # psi_13

_SMALL_PRIME_LIMIT = 10_000         # prime table: small primality and the factorizer's trial division
_RHO_ITERATIONS = 200_000           # Pollard rho budget per attempt
_RHO_RESTARTS = 24                  # attempts with fresh parameters before giving up
_MR_ROUNDS = 24                     # extra probabilistic rounds at and above psi_13
_MAX_PRIME_LIMIT = 10**9            # one bool byte per odd number: primes_below, prime_counts_mod8
_MAX_SIGMA_RANGE_LIMIT = 10**8      # sigma_range allocates 8 bytes per entry
_RAMP_BLOCK = 1 << 14               # quotients per sigma_range update, bounds its temporaries
_MAX_SPEC_BITS = 10**6              # spoof spec size, sum of exponent * base bit length
_MAX_SPEC_TERMS = 1000              # spoof spec terms: the coprimality check takes n^2 / 2 gcds


def _odd_sieve(limit: int) -> np.ndarray:
    """Odd-only sieve mask (Bays & Hudson 1977) for limit > 2: index i for 2i + 1, 1 left set."""
    if limit > _MAX_PRIME_LIMIT:
        raise ValueError(
            f"prime limit {limit} exceeds the budget of {_MAX_PRIME_LIMIT} "
            f"(a {limit // 2}-byte sieve mask)"
        )
    mask = np.ones(limit // 2, dtype=bool)
    for p in range(3, isqrt(limit - 1) + 1, 2):
        if mask[p // 2]:
            mask[p * p // 2 :: p] = False
    return mask


def primes_below(limit: int) -> np.ndarray:
    """All primes p < limit, ascending, as an int64 array, from the odd-only sieve mask."""
    if limit <= 2:
        return np.empty(0, dtype=np.int64)
    primes = np.flatnonzero(_odd_sieve(limit)).astype(np.int64, copy=False)
    primes *= 2  # in place: no int64 temporaries beside the result
    primes += 1
    primes[0] = 2  # index 0 stands for 1, not a prime; its slot holds the one even prime
    return primes


def prime_counts_mod8(limit: int) -> tuple[int, ...]:
    """How many primes p < limit lie in each class mod 8, read off the sieve mask: no list built.

    Mask index i stands for 2i + 1, so the stride-4 views from 4, 1, 2 and 3
    are the classes 1, 3, 5 and 7; the view from 4 skips index 0, the number 1.
    """
    if limit <= 2:
        return (0,) * 8
    mask = _odd_sieve(limit)
    c1, c3, c5, c7 = (int(np.count_nonzero(mask[i::4])) for i in (4, 1, 2, 3))
    return (0, c1, 1, c3, 0, c5, 0, c7)


_SMALL_PRIMES = primes_below(_SMALL_PRIME_LIMIT).tolist()
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)


@dataclass(frozen=True)
class PrimalityResult:
    """Verdict plus whether it is proven or merely probable."""

    is_prime: bool
    proven: bool


def _miller_rabin(n: int, bases) -> bool:
    # strong-probable-prime test to each base a, 2 <= a < n; an even n fails base 2
    d = n - 1
    r = 0
    while d % 2 == 0:
        r += 1
        d //= 2
    for a in bases:
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


def classify_prime(n: int) -> PrimalityResult:
    """Primality verdict for n >= 0.

    Below _SMALL_PRIME_LIMIT = 10^4 the verdict is membership in the prime
    table, proven.  From there up to _DETERMINISTIC_LIMIT = psi_13 ~ 3.3 * 10^24
    Miller-Rabin with the witness set 2..41 decides, deterministic and exact:
    every base is below n.  At and above psi_13 Miller-Rabin runs the witness
    set first, and only an n that passes it draws _MR_ROUNDS seeded random
    bases.  A rejection proves n composite; a "prime" verdict is probable only.
    An even n past the table has r = 0 and an even 2^(n-1) mod n, neither
    1 nor n - 1, so base 2 rejects it.
    """
    if n < 0:
        raise ValueError("primality is defined for non-negative integers")
    if n < _SMALL_PRIME_LIMIT:
        return PrimalityResult(n in _SMALL_PRIME_SET, True)
    if not _miller_rabin(n, _MR_WITNESSES):
        return PrimalityResult(False, True)
    if n < _DETERMINISTIC_LIMIT:
        return PrimalityResult(True, True)
    rng = random.Random(n % (1 << 61))
    probable = _miller_rabin(n, [rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS)])
    return PrimalityResult(probable, not probable)


def is_prime(n: int) -> bool:
    return classify_prime(n).is_prime


def _pollard_brent(n: int, rng: random.Random) -> int | None:
    """One Brent-cycle attempt of _RHO_ITERATIONS on odd composite n: a factor 1 < g < n, or None."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    x = ys = y
    spent = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += m
        spent += r
        r *= 2
        if spent > _RHO_ITERATIONS:
            return None
    if g == n:
        # batched gcd overshot; replay one step at a time
        while True:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
            if g > 1:
                break
    return g if g != n else None


def _split_composite(n: int, out: dict[int, int]) -> None:
    """Accumulate the prime factorization of n > 1 into out.

    Trial division leaves n with no prime factor q < 10^4 with q^2 <= n, and every
    divisor of n, so every part split off here, keeps that.  A composite n has a
    prime factor q <= sqrt(n), so an n below _SMALL_PRIME_LIMIT^2 = 10^8 is prime
    without a test, and a composite n is odd.
    """
    if n < _SMALL_PRIME_LIMIT**2 or is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    root = isqrt(n)
    if root * root == n:
        _split_composite(root, out)
        _split_composite(root, out)
        return
    rng = random.Random(n % (1 << 61) ^ 0x9E3779B9)
    for _ in range(_RHO_RESTARTS):
        d = _pollard_brent(n, rng)
        if d is not None:
            _split_composite(d, out)
            _split_composite(n // d, out)
            return
    raise EffortExceededError(
        f"composite cofactor {n} ({n.bit_length()} bits) survived "
        f"{_RHO_RESTARTS} Pollard-rho attempts of {_RHO_ITERATIONS} iterations"
    )


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical factorization of n >= 1: the pairs (p, e) with p prime, e >= 1, p ascending.

    The empty tuple is the factorization of 1.

    Raises EffortExceededError when a composite cofactor survives the
    fixed Pollard-rho budget; never returns a partial answer.  A composite
    cofactor with two large prime factors can exhaust that budget: the
    86-bit 40365552581166398777811101 (a 39-bit prime times a 47-bit
    prime) runs for seconds and then raises.  A cofactor that is a
    perfect square is split by isqrt whatever its size.  Trial division
    by the primes below 10^4 stops at the first p with p^2 > n; whatever
    cofactor is left goes to _split_composite, which calls it prime
    without a test below 10^8.
    """
    if n < 1:
        raise ValueError("factorize is defined for n >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    if n > 1:
        _split_composite(n, out)
    return tuple(sorted(out.items()))


def divisor_sum_geometric(base: int, exponent: int) -> int:
    """1 + base + base^2 + ... + base^exponent, exactly."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if exponent < 1:
        raise ValueError("exponent must be positive")
    return (base ** (exponent + 1) - 1) // (base - 1)


def sigma(n: int) -> int:
    """Sum of all positive divisors of n >= 1.

    Factors n first, so it raises EffortExceededError where factorize
    does: on a cofactor with two prime factors too large for the rho
    budget.
    """
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    return prod(divisor_sum_geometric(p, e) for p, e in factorize(n))


def sigma_range(limit: int) -> np.ndarray:
    """sigma(n) for every n in 1..limit as int64, sig[n] = sigma(n).

    Divisor-pair sieve: each pair n = d*e with d < e adds d + e, from d,
    and d^2 adds d; isqrt(limit) loop iterations, about limit*ln(limit)/2
    element updates, added as ramps of _RAMP_BLOCK quotients so that no
    temporary is as long as the table.  Index 0 holds 0.  Limits above
    _MAX_SIGMA_RANGE_LIMIT are refused before the table is allocated.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if limit > _MAX_SIGMA_RANGE_LIMIT:
        raise ValueError(
            f"sigma_range limit {limit} exceeds the budget of {_MAX_SIGMA_RANGE_LIMIT} "
            f"(a {8 * (limit + 1)}-byte table)"
        )
    sig = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, isqrt(limit) + 1):
        sig[d * d] += d
        top = limit // d + 1
        for e in range(d + 1, top, _RAMP_BLOCK):
            stop = min(e + _RAMP_BLOCK, top)
            sig[d * e : d * stop : d] += np.arange(d + e, d + stop)
    return sig


@dataclass(frozen=True)
class SigmaTriple:
    """sigma(n), deficiency 2n - sigma(n), and aliquot sum sigma(n) - n."""

    sigma: int
    deficiency: int
    aliquot: int


def sigma_triple(n: int) -> SigmaTriple:
    """All three divisor quantities of n from a single factorization."""
    s = sigma(n)
    return SigmaTriple(sigma=s, deficiency=2 * n - s, aliquot=s - n)


@dataclass(frozen=True)
class SpoofFactor:
    """One base^exponent term; pseudo bases are treated as prime regardless."""

    base: int
    exponent: int
    pseudo: bool = False


@dataclass(frozen=True)
class SpoofFactorization:
    """Pairwise-coprime factor list where flagged bases pose as primes.

    Bases not flagged pseudo must actually be prime, so on flag-free input
    the spoof divisor sum agrees with the honest sigma of the product.  A
    spec is checked once, when it is built: construction refuses a spec of
    more than _MAX_SPEC_TERMS terms, or whose size estimate, the sum of
    exponent times base bit length, exceeds _MAX_SPEC_BITS, before any power
    is built, any base is tested for primality or any pair for coprimality.
    """

    factors: tuple[SpoofFactor, ...]

    def __post_init__(self):
        if len(self.factors) > _MAX_SPEC_TERMS:
            raise ValueError(
                f"spoof spec of {len(self.factors)} terms exceeds the budget of {_MAX_SPEC_TERMS} terms"
            )
        for f in self.factors:
            if f.base < 2:
                raise ValueError(f"base {f.base} must be at least 2")
            if f.exponent < 1:
                raise ValueError(f"exponent of base {f.base} must be positive")
        bits = sum(f.exponent * f.base.bit_length() for f in self.factors)
        if bits > _MAX_SPEC_BITS:
            raise ValueError(
                f"spoof spec of about {bits} bits exceeds the budget of {_MAX_SPEC_BITS} bits"
            )
        for i, a in enumerate(self.factors):
            if not a.pseudo and not is_prime(a.base):
                raise ValueError(f"base {a.base} is not prime and not flagged pseudo")
            for b in self.factors[i + 1 :]:
                if gcd(a.base, b.base) != 1:
                    raise ValueError(f"bases {a.base} and {b.base} are not coprime")

    @property
    def value(self) -> int:
        return prod(f.base**f.exponent for f in self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __str__(self):
        return ",".join(
            f"{f.base}^{f.exponent}{'!' if f.pseudo else ''}" for f in self.factors
        )


def spoof_sigma(terms) -> int:
    """Divisor sum of any iterable of SpoofFactor terms, every base treated as prime."""
    return prod(divisor_sum_geometric(t.base, t.exponent) for t in terms)

"""Exact divisor-sum arithmetic over arbitrary-precision integers.

Everything here is integer-exact: no floating point enters any code path.
The three divisor quantities are the sum of divisors sigma(n), the
deficiency D(n) = 2n - sigma(n), and the aliquot sum s(n) = sigma(n) - n,
tied together by D(n) + s(n) = n.

sigma is computed multiplicatively from a prime factorization, so the
module carries its own factorization engine: trial division by the primes
below 10^4, then Lenstra's elliptic-curve method (ECM) on Suyama curves in
Montgomery's XZ form, with stage 1 to a bound B1 and a stage 2 over the
prime table up to 10^4, on a fixed schedule of curves.  ECM splits off the
prime factors of up to about 48 bits.  When a composite cofactor survives
the schedule the engine raises EffortExceededError instead of ever
returning a wrong factorization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt, lcm, prod

import numpy as np

__all__ = [
    "EffortExceededError",
    "PrimalityResult",
    "SpoofFactor",
    "SpoofFactorization",
    "SigmaTriple",
    "primes_below",
    "prime_counts_1mod4",
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
    """factorize gave up within its fixed effort budget.

    A composite cofactor survived every curve of the ECM schedule; the
    message names the cofactor, its bit length and the curves spent.
    Getting there takes seconds: about 4 s for (2^64 + 13)(2^64 + 37),
    two 65-bit primes.
    """


# Complete witness set: Miller-Rabin with the bases 2..41 is deterministic below
# psi_13 ~ 3.3 * 10^24 (Sorenson & Webster 2017); the bases 2..37 stop at psi_12 (79 bits).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981  # psi_13

_SMALL_PRIME_LIMIT = 10_000         # prime table: small primality, trial division and ECM's stage-2 bound B2
_ECM_SCHEDULE = ((200, 40), (1_000, 100), (3_000, 200))  # (stage-1 bound B1, curves) in turn
_ECM_WHEEL = 210                    # stage-2 giant step D = 2 * 3 * 5 * 7
_MR_ROUNDS = 24                     # extra probabilistic rounds at and above psi_13
_MAX_PRIME_LIMIT = 10**9            # mask bytes: limit/2, /4 or /8 in _class_sieve at modulus 2, 4 or 8
_MAX_SIGMA_RANGE_LIMIT = 10**8      # sigma_range allocates 8 bytes per entry
_RAMP_BLOCK = 1 << 14               # quotients per sigma_range update, bounds its temporaries
_MAX_SPEC_BITS = 10**6              # spoof spec size, sum of exponent * base bit length
_MAX_SPEC_TERMS = 1000              # spoof spec terms: the coprimality check takes n^2 / 2 gcds


def primes_below(limit: int) -> np.ndarray:
    """All primes p < limit, ascending, as an int64 array, from _class_sieve(limit, 2)."""
    if limit <= 2:
        return np.empty(0, dtype=np.int64)
    primes = np.flatnonzero(_class_sieve(limit, 2)).astype(np.int64, copy=False)
    primes *= 2  # in place: no int64 temporaries beside the result
    primes += 1
    primes[0] = 2  # index 0 stands for 1, not a prime; its slot holds the one even prime
    return primes


def _class_sieve(limit: int, modulus: int) -> np.ndarray:
    """Eratosthenes in the class 1 (mod modulus), modulus 2, 4 or 8: index i for modulus*i + 1 < limit.

    A tiled wheel period strikes 3..13 (Pritchard 1982), set back where in the class; each
    other odd prime q <= sqrt(limit - 1) strikes q^2, q^2 + modulus*q, ...  A composite of the
    class is q*m, q its least prime factor, m >= q, m == q^-1 == q (mod modulus).  1 is left set.
    """
    size = max(0, (limit + modulus - 2) // modulus)
    if limit > _MAX_PRIME_LIMIT:
        raise ValueError(
            f"prime limit {limit} exceeds the budget of {_MAX_PRIME_LIMIT} (a {size}-byte sieve mask)"
        )
    wheel = _WHEELS[modulus]
    mask = np.concatenate((wheel,) * (size // wheel.size + 1))[:size]
    for q in (3, 5, 7, 11, 13):
        if q % modulus == 1 and q < limit:
            mask[q // modulus] = True
    root = isqrt(max(limit - 1, 0))
    if root >= 17:  # below 17^2 the wheel has struck every composite: no primes_below call
        for q in primes_below(root + 1)[6:].tolist():  # past 2 and the wheel
            mask[q * q // modulus :: q] = False
    return mask


def prime_counts_1mod4(limit: int) -> tuple[int, int]:
    """How many primes p < limit are 1 and 5 (mod 8), read off _class_sieve(limit, 4)."""
    mask = _class_sieve(limit, 4)
    c1 = int(np.count_nonzero(mask[2::2]))  # index i is 4i + 1: even i > 0 are 1 (mod 8), odd i 5
    return c1, int(np.count_nonzero(mask[1:])) - c1


# one wheel period per modulus m of _class_sieve: j kept where m*j + 1 is prime to 15015 = 3*5*7*11*13
_WHEELS = {m: np.gcd(m * np.arange(15_015) + 1, 15_015) == 1 for m in (2, 4, 8)}
_SMALL_PRIMES = primes_below(_SMALL_PRIME_LIMIT).tolist()
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_PRIMORIAL_53 = prod(_SMALL_PRIMES[:16])  # 2 * 3 * ... * 53, 65 bits


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
    Past the table, one gcd with 2 * 3 * ... * 53 proves composite, before
    any base, every n with a prime factor up to 53, every even n among them.
    """
    if n < 0:
        raise ValueError("primality is defined for non-negative integers")
    if n < _SMALL_PRIME_LIMIT:
        return PrimalityResult(n in _SMALL_PRIME_SET, True)
    if gcd(n, _PRIMORIAL_53) != 1:
        return PrimalityResult(False, True)
    if not _miller_rabin(n, _MR_WITNESSES):
        return PrimalityResult(False, True)
    if n < _DETERMINISTIC_LIMIT:
        return PrimalityResult(True, True)
    rng = random.Random(n % (1 << 61))
    probable = _miller_rabin(n, [rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS)])
    return PrimalityResult(probable, not probable)


def is_prime(n: int) -> bool:
    return classify_prime(n).is_prime


def _xz_double(x: int, z: int, n: int, a24: int) -> tuple[int, int]:
    """[2](x : z) on the Montgomery curve By^2 = x^3 + Ax^2 + x mod n, a24 = (A + 2) / 4."""
    s = (x + z) ** 2 % n
    d = (x - z) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xz_add(x1: int, z1: int, x2: int, z2: int, xd: int, zd: int, n: int) -> tuple[int, int]:
    """P1 + P2 in XZ form from the difference P1 - P2 = (xd : zd) (Montgomery 1987)."""
    u = (x1 - z1) * (x2 + z2)
    v = (x1 + z1) * (x2 - z2)
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _xz_ladder(k: int, x: int, z: int, n: int, a24: int) -> tuple[int, int]:
    """[k](x : z) for k >= 1 by Montgomery's ladder: R1 - R0 = (x : z) at every step.

    _xz_add and _xz_double written out, one addition and one doubling per bit of k.
    """
    x0, z0 = x, z
    x1, z1 = _xz_double(x, z, n, a24)
    for bit in bin(k)[3:]:
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
        a = x0 + z0
        b = x0 - z0
        u = b * (x1 + z1)
        v = a * (x1 - z1)
        x1, z1 = z * (u + v) ** 2 % n, x * (u - v) ** 2 % n
        s = a * a % n
        d = b * b % n
        t = s - d
        x0, z0 = s * d % n, t * (d + a24 * t) % n
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0


def _affine_x(points: list[tuple[int, int]], n: int) -> tuple[int, list[int] | None]:
    """(1, X / Z mod n of each point) by one inversion (Montgomery's trick).

    (g, None) instead when g = gcd(Z, n) > 1 for some point.
    """
    partial = [1]
    for _, z in points:
        partial.append(partial[-1] * z % n)
    g = gcd(partial[-1], n)
    if g != 1:
        return g, None
    inverse = pow(partial[-1], -1, n)  # of the product of the Z of points[:i + 1] in the loop below
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, z = points[i]
        xs[i] = x * inverse * partial[i] % n
        inverse = inverse * z % n
    return 1, xs


_ECM_BABY_STEPS = tuple(j for j in range(1, _ECM_WHEEL // 2, 2) if gcd(j, _ECM_WHEEL) == 1)


@cache
def _ecm_plan(b1: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Stage-1 multiplier lcm(1, ..., b1) and stage-2 plan for 105 < b1 < _SMALL_PRIME_LIMIT.

    Entry i - 1 of the plan lists, for giant step i, the
    indices into _ECM_BABY_STEPS of the j with i*D - j or i*D + j a prime in
    (b1, _SMALL_PRIME_LIMIT]: each such prime q is i*D +- j for i the nearest
    multiple of D, one pair per q, and a pair serves both signs.
    """
    index = {j: i for i, j in enumerate(_ECM_BABY_STEPS)}
    half = _ECM_WHEEL // 2
    giants: list[set[int]] = [set() for _ in range((_SMALL_PRIME_LIMIT + half) // _ECM_WHEEL)]
    for q in _SMALL_PRIMES:
        if q > b1:
            i = (q + half) // _ECM_WHEEL
            giants[i - 1].add(index[abs(q - i * _ECM_WHEEL)])
    return lcm(*range(1, b1 + 1)), tuple(tuple(sorted(js)) for js in giants)


def _ecm_curve(n: int, b1: int, sig: int) -> int | None:
    """One curve of Lenstra's elliptic-curve method on odd composite n: a factor 1 < g < n, or None.

    Suyama's curve for sig (Montgomery 1987, section 10.3) in XZ form.  Stage 1
    multiplies the start point Q by the _ecm_plan multiplier, stage 2 takes the
    product of x([iD]Q) - x([j]Q) over the plan's pairs, with the 24 baby steps
    [j]Q normalized to Z = 1, so each pair costs two multiplications and one
    reduction.  The curve finds a prime factor p of n when the order of Q mod p
    is b1-smooth but for at most one prime in (b1, 10^4].  The gcd is taken
    after stage 1 and after each giant step; a curve that finds every prime
    factor of n at once returns None.
    """
    u = (sig * sig - 5) % n
    v = 4 * sig % n
    x, z = pow(u, 3, n), pow(v, 3, n)
    den = 16 * x * v % n
    g = gcd(den, n)
    if g != 1:
        return g if g < n else None
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    k, plan = _ecm_plan(b1)
    x, z = _xz_ladder(k, x, z, n, a24)
    g = gcd(z, n)
    if g != 1:
        return g if g < n else None
    # odd multiples [1]Q, [3]Q, ..., [D/2 - 2]Q, each the last plus [2]Q with the one before as difference
    x2, z2 = _xz_double(x, z, n, a24)
    odd = [(x, z), _xz_add(x2, z2, x, z, x, z, n)]
    while len(odd) < _ECM_WHEEL // 4:
        (xa, za), (xb, zb) = odd[-2], odd[-1]
        odd.append(_xz_add(xb, zb, x2, z2, xa, za, n))
    g, babies = _affine_x([odd[j // 2] for j in _ECM_BABY_STEPS], n)
    if g != 1:
        return g if g < n else None
    # giant steps [iD]Q, i = 1, 2, ...: each the last plus [D]Q with the one before as difference
    xd, zd = _xz_ladder(_ECM_WHEEL, x, z, n, a24)
    xg, zg = xd, zd
    xn, zn = _xz_double(xd, zd, n, a24)
    acc = 1
    for js in plan:
        if js:
            for j in js:
                acc = acc * (xg - babies[j] * zg) % n
            g = gcd(acc, n)  # per giant step, so factors found at different steps come apart
            if g != 1:
                return g if g < n else None
        xg, zg, xn, zn = xn, zn, *_xz_add(xn, zn, xd, zd, xg, zg, n)
    return None


def _ecm(n: int, rng: random.Random) -> int | None:
    """The curves of _ECM_SCHEDULE in turn on odd composite n: a factor 1 < g < n, or None."""
    for b1, curves in _ECM_SCHEDULE:
        for _ in range(curves):
            g = _ecm_curve(n, b1, rng.randrange(6, n - 5))
            if g is not None:
                return g
    return None


def _split_composite(n: int, out: dict[int, int]) -> None:
    """Accumulate the prime factorization of n > 1 into out.

    Trial division leaves n with no prime factor q < 10^4 with q^2 <= n, and every
    divisor of n, so every part split off here, keeps that.  A composite n has a
    prime factor q <= sqrt(n), so an n below _SMALL_PRIME_LIMIT^2 = 10^8 is prime
    without a test, and a composite n is odd.  A composite that is not a square
    goes to the ECM schedule, and both parts of a split go through these
    checks again.
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
    d = _ecm(n, rng)
    if d is None:
        raise EffortExceededError(
            f"composite cofactor {n} ({n.bit_length()} bits) survived "
            f"{sum(c for _, c in _ECM_SCHEDULE)} ECM curves "
            f"(B1 up to {_ECM_SCHEDULE[-1][0]}, B2 = {_SMALL_PRIME_LIMIT})"
        )
    _split_composite(d, out)
    _split_composite(n // d, out)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical factorization of n >= 1: the pairs (p, e) with p prime, e >= 1, p ascending.

    The empty tuple is the factorization of 1.

    Raises EffortExceededError when a composite cofactor survives the
    fixed effort budget, the ECM schedule; never returns a partial
    answer.  ECM's reach is set by the
    smallest prime factor, not by the size of the cofactor: the 86-bit
    40365552581166398777811101 (a 39-bit prime times a 47-bit prime)
    splits in about 0.1 s, while a cofactor whose prime factors all have
    about 50 bits or more exhausts the schedule in seconds and raises.
    A cofactor that is a perfect square is split by isqrt whatever its
    size.  Trial division
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
    does: on a composite cofactor whose prime factors are all too large
    for the ECM schedule.
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


def _decimal(n: int) -> str:
    """str(n) for an int n of any size and sign, joined from pieces of at most 1024 bits.

    A piece has at most 309 digits, below any int-to-str digit limit the
    interpreter accepts (640 or more), so a reason can name a value past
    the caller's limit without lifting it.
    """
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 1024:
        return str(n)
    half = n.bit_length() * 1233 >> 13  # about half the digits: log10(2) > 1233/4096, so high >= 1
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


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
                raise ValueError(f"base {_decimal(f.base)} must be at least 2")
            if f.exponent < 1:
                raise ValueError(f"exponent of base {_decimal(f.base)} must be positive")
        bits = sum(f.exponent * f.base.bit_length() for f in self.factors)
        if bits > _MAX_SPEC_BITS:
            raise ValueError(
                f"spoof spec of about {bits} bits exceeds the budget of {_MAX_SPEC_BITS} bits"
            )
        for i, a in enumerate(self.factors):
            if not a.pseudo and not is_prime(a.base):
                raise ValueError(f"base {_decimal(a.base)} is not prime and not flagged pseudo")
            for b in self.factors[i + 1 :]:
                if gcd(a.base, b.base) != 1:
                    raise ValueError(f"bases {_decimal(a.base)} and {_decimal(b.base)} are not coprime")

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

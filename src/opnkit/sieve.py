"""Sieve for special primes p whose (p + 1)/2 is an odd perfect square.

If sigma(m^2)/p^k is a square for a perfect decomposition p^k m^2, then
k = 1 and sigma(p)/2 = (p + 1)/2 must itself be an odd square, which
forces p = 2a^2 - 1 for some odd a >= 3 and in particular p >= 17.
An odd square is 1 mod 8, so every survivor also has p == 1 (mod 16);
that rules out 41, 73 and 89 among the p < 100 with p == 1 (mod 8).

special_prime_columns sieves the odd roots a by the primes that can divide
2a^2 - 1 (Shanks' sieve for primes of the form n^2 + c).  A prime q
divides some 2a^2 - 1 only if 2 is a square mod q, that is q == +-1
(mod 8), and then it divides exactly when a == +-r (mod q), where
2r^2 == 1 (mod q); every r comes from one array power.  Striking those
roots for every such q up to sqrt(bound) leaves exactly the roots whose
2a^2 - 1 is prime, so every verdict is proven and no primality test runs.
scan_special_primes re-derives the same list from the other side, as an
independent oracle: Eratosthenes in the class 1 (mod 8) below the bound,
read at each candidate 2a^2 - 1.  Both check their hits as arrays once per call.
special_prime_columns returns the checked int64 columns (p, root), which the
CLI renders without building a record per hit; sieve_special_primes and
scan_special_primes return SieveHit records.  The machinery is conditional on
the squareness hypothesis: hits are necessary-condition survivors, nothing more.
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt
from typing import NamedTuple

import numpy as np

from .arith import primes_below

__all__ = [
    "SieveHit",
    "special_prime_columns",
    "sieve_special_primes",
    "scan_special_primes",
]

# mask of sqrt(bound/8) bytes, primes_below(sqrt(bound)); at the cap special_prime_columns takes
# 0.47-0.49 s and 72 MB peak, sieve_special_primes 0.92-1.06 s and 124 MB (2 shared vCPUs, numpy 2.4)
_MAX_SIEVE_BOUND = 10**14
# scan_special_primes: a mask of bound/8 bytes; at the cap 2.3-2.6 s and 149 MB peak
# (2 shared vCPUs, numpy 2.4)
_MAX_SCAN_BOUND = 10**9

# Odd primes c < 128, squares mod c (0 included); each prime q == 1 (mod 8) below 10^7 has one below 54
_SMALL_ODD_PRIMES = primes_below(128)[1:].tolist()
_IS_SQUARE = [np.bincount(np.arange(c) ** 2 % c, minlength=c) > 0 for c in _SMALL_ODD_PRIMES]


class SieveHit(NamedTuple):
    """A special prime p = 2*root^2 - 1 and p mod 16 (always 1); a plain record, checked by _checked."""

    p: int
    root: int
    p_mod16: int


def _checked(ps: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hit columns of one call, after one check: roots >= 3 and p == 2*root^2 - 1 == 1 (mod 16).

    Raises RuntimeError otherwise.  The identity and p == 1 (mod 16) force each root odd.
    """
    if not (np.all(roots >= 3) and np.array_equal(ps, 2 * roots * roots - 1) and np.all(ps & 15 == 1)):
        raise RuntimeError("special-prime hits fail their shape check: p = 2a^2 - 1 == 1 (mod 16), a >= 3")
    return ps, roots


def _records(ps: np.ndarray, roots: np.ndarray) -> list[SieveHit]:
    """One SieveHit per index of columns that passed _checked, so p_mod16 is 1; built in C."""
    # the tuple construction SieveHit.__new__ runs, without a Python frame per hit
    return list(map(tuple.__new__, repeat(SieveHit), zip(ps.tolist(), roots.tolist(), repeat(1))))


def _least_non_residues(q: np.ndarray) -> np.ndarray:
    """The least odd prime non-residue of each prime q == 1 (mod 8), by reciprocity (see _half_roots)."""
    c = np.zeros_like(q)
    todo = np.arange(q.size)
    for ell, is_square in zip(_SMALL_ODD_PRIMES, _IS_SQUARE):
        non_residue = ~is_square[q[todo] % ell]  # q mod ell = 0 counts as a square
        c[todo[non_residue]] = ell
        todo = todo[~non_residue]
        if not todo.size:
            return c
    raise RuntimeError(f"no odd prime non-residue below 128 for q = {q[todo[0]]}")


def _half_roots(q: np.ndarray) -> np.ndarray:
    """An r with 2r^2 == 1 (mod q) for each prime q == +-1 (mod 8) of an int64 array.

    Let h = (q + 1)/2, the inverse of 2.  For q == 7 (mod 8), q == 3 (mod 4) and
    h is a square, so r = h^((q+1)/4).  For q == 1 (mod 8), z = c^((q-1)/8) has
    order 8 for a non-square c, so z^-1 = -z^3, (z + z^-1)^2 = 2 and r = h(z - z^3)
    has 2r^2 = 1.  c is the least odd prime non-residue (2 is a square mod q, so
    the least non-residue above 2 is prime); as q == 1 (mod 4), reciprocity gives
    (c|q) = (q mod c | c), read from the squares mod c.  One elementwise square-
    and-multiply serves both classes; every product is below q^2 <= 10^14 < 2^47
    under the bound cap, so int64 is exact.  RuntimeError if the table holds no
    non-residue, or if any 2r^2 != 1 (mod q).
    """
    one = q & 7 == 1
    q1 = q[one]
    base = (q + 1) // 2
    base[one] = _least_non_residues(q1)
    e = np.where(one, (q - 1) // 8, (q + 1) // 4)
    z = np.ones_like(q)
    for k in range(int(e.max(initial=0)).bit_length()):
        z = np.where(e >> k & 1, z * base % q, z)
        base = base * base % q
    z1 = z[one]
    z[one] = (q1 + 1) // 2 * ((z1 - z1 * z1 % q1 * z1) % q1) % q1
    if not np.all(2 * (z * z % q) % q == 1):
        raise RuntimeError("a computed root r fails 2r^2 == 1 (mod q)")
    return z


def special_prime_columns(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """All special primes p = 2a^2 - 1 < bound, ascending, proven prime, as int64 columns (p, a).

    Index i of one bool mask stands for the odd root a = 2i + 3.  For each prime
    q <= sqrt(bound) with q == +-1 (mod 8), the roots a == +-r (mod q), 2r^2 == 1
    (mod q), are struck with stride q, except the root whose 2a^2 - 1 is q; r
    and the start of each class come from array passes over all q.  A class of
    a q at or past the mask length holds at most one index; those are struck in
    one store.  A composite 2a^2 - 1 < bound has such a prime factor, so the
    survivors are the primes.  Bounds above _MAX_SIEVE_BOUND are rejected first.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if bound > _MAX_SIEVE_BOUND:
        raise ValueError(f"sieve bound {bound} exceeds the budget of {_MAX_SIEVE_BOUND}")
    n = (isqrt(bound // 2) - 1) // 2  # 2a^2 - 1 < bound exactly when a^2 <= bound // 2
    mask = np.ones(n, dtype=bool)
    q = primes_below(isqrt(bound - 1) + 1)
    q = q[(q & 7 == 1) | (q & 7 == 7)]
    r = _half_roots(q)
    s = np.stack((r, q - r))
    a = s + q * (s & 1 == 0)  # the odd root below 2q in each class; never 1
    a += 2 * q * (2 * a * a - 1 == q)  # spare the root whose 2a^2 - 1 is q itself
    i = (a - 3) // 2
    small = np.searchsorted(q, n)  # q ascending: a class of a q < n strikes with stride q
    for qv, i0, i1 in zip(q[:small].tolist(), i[0, :small].tolist(), i[1, :small].tolist()):
        mask[i0::qv] = mask[i1::qv] = False
    lone = i[:, small:]
    mask[lone[lone < n]] = False
    roots = 2 * np.flatnonzero(mask) + 3
    return _checked(2 * roots * roots - 1, roots)  # exact in int64: the budget keeps p below 2^47


def sieve_special_primes(bound: int) -> list[SieveHit]:
    """The hits of special_prime_columns(bound) as SieveHit records, in the same order."""
    return _records(*special_prime_columns(bound))


def scan_special_primes(bound: int) -> list[SieveHit]:
    """Same list as sieve_special_primes, by the opposite algorithm.

    Eratosthenes in one residue class: mask index i stands for 8i + 1 < bound,
    and each odd prime q <= sqrt(bound - 1) strikes q^2, q^2 + 8q, ... (q^2 == 1
    (mod 8)).  A composite n == 1 (mod 8) is q*m, q its least prime factor, m >= q
    and m == q^-1 == q (mod 8), so n lies on q's progression; every struck value
    is q*m with m >= q >= 3, so no prime is struck.  The mask is then read at each
    candidate p = 2a^2 - 1, a odd >= 3, kept by comparing p itself with the bound
    (not by the root sieve's root limit); p == 1 (mod 8) puts p at index (p - 1)/8.
    Only integer operations run.  Bounds above _MAX_SCAN_BOUND are rejected first.
    The oracle of the root sieve; prefer that.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if bound > _MAX_SCAN_BOUND:
        raise ValueError(
            f"prime limit {bound} exceeds the budget of {_MAX_SCAN_BOUND} "
            f"(a {(bound + 6) // 8}-byte sieve mask)"
        )
    mask = np.ones((bound + 6) // 8, dtype=bool)
    for q in primes_below(isqrt(bound - 1) + 1)[1:].tolist():
        mask[q * q // 8 :: q] = False
    a = np.arange(3, isqrt(bound) + 1, 2)  # 2a^2 - 1 < bound forces a^2 < bound
    a = a[2 * a * a - 1 < bound]
    ps = 2 * a * a - 1
    keep = mask[ps >> 3]  # index (p - 1)/8, never 0: p >= 17
    return _records(*_checked(ps[keep], a[keep]))


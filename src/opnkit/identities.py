"""Exact identity chain linking the two halves of an Euler decomposition.

A candidate is written n = p^k * m^2 with p == k == 1 (mod 4) and
gcd(p, m) = 1.  When sigma(n) = 2n, five quotients built from sigma, the
deficiency D and the aliquot sum s all collapse to one integer
g = gcd(m^2, sigma(m^2)):

    q1 = sigma(m^2) / p^k
    q2 = 2 m^2 / sigma(p^k)
    q3 = D(m^2) / s(p^k)
    q4 = s(m^2) / (D(p^k) / 2)
    q5 = g

with the cross ratio D(p^k) D(m^2) / (s(p^k) s(m^2)) = 2 and the product
form 2 D(m^2) s(m^2) / (D(p^k) s(p^k)) = g^2.  Everything is evaluated in
exact rational arithmetic (reduced Fractions, equality by
cross-multiplication), so the chain doubles as a perfection test: it
holds as stated if and only if the decomposition is perfect.

report_from_spoof is the one route into the chain.  It takes a
SpoofFactorization, whose flagged bases count as prime inside every
divisor sum; a flag-free spec such as 5^1,3^2 is an honest decomposition
with prime p.  No odd perfect number is known, so the only nontrivial
end-to-end fixture is the Descartes number 3^2 7^2 11^2 13^2 22021,
perfect once the composite 22021 = 19^2 * 61 is treated as prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .arith import SpoofFactorization, _decimal, divisor_sum_geometric, spoof_sigma

__all__ = ["IdentityReport", "report_from_spoof"]


@dataclass(frozen=True)
class IdentityReport:
    """All chain quantities for one decomposition n = p^k * m^2, exactly.

    p is prime or a flagged pseudo base, gcd(p, m) = 1, p == k == 1
    (mod 4) and m is odd, as report_from_spoof split and checked the spec.
    g is gcd(m^2, sigma(m^2)) and the quotients q1..q4 are reduced
    Fractions.  ratio is D(p^k) D(m^2) / (s(p^k) s(m^2)), or None when
    m = 1 makes the denominator vanish.  star_lhs is
    2 D(m^2) s(m^2) / (D(p^k) s(p^k)).  chain lists the six identities,
    each as (field, target, holds), and all_identities_hold is derived
    from it: the chain collapsed completely when q1 = q2 = q3 = q4 = g,
    ratio = 2 and star_lhs = g^2.
    """

    p: int
    k: int
    m: int
    sigma_pk: int
    sigma_m2: int
    d_pk: int
    d_m2: int
    s_pk: int
    s_m2: int
    g: int
    q1: Fraction
    q2: Fraction
    q3: Fraction
    q4: Fraction
    ratio: Fraction | None
    star_lhs: Fraction

    @property
    def chain(self) -> list[tuple[str, str, bool]]:
        """(field, target, holds) per identity, in order: q1..q4 = g, ratio = 2, star_lhs = g^2."""
        g = self.g
        identities = [("q1", "g", g), ("q2", "g", g), ("q3", "g", g), ("q4", "g", g),
                      ("ratio", "2", 2), ("star_lhs", "g^2", g * g)]
        return [(field, target, getattr(self, field) == value)
                for field, target, value in identities]

    @property
    def all_identities_hold(self) -> bool:
        return all(holds for _, _, holds in self.chain)


def report_from_spoof(f: SpoofFactorization) -> IdentityReport:
    """Evaluate the chain for a whole spoof factorization.

    The factor list must contain exactly one term of odd exponent; that
    term plays p^k and the remaining terms form m^2.  Both halves honor
    the spoof: flagged bases count as prime inside every divisor sum, so
    on a flag-free spec they are the honest sigma(p^k) and sigma(m^2).
    The spoof factorization has proved p >= 2, k >= 1, m >= 1 and
    gcd(p, m) = 1, so only the congruences on p, k and m are checked.
    The report is produced even when the decomposition is not perfect
    (all_identities_hold then comes out false, the negative control).
    """
    odd = [term for term in f.factors if term.exponent % 2 == 1]
    if len(odd) != 1:
        raise ValueError(
            f"need exactly one odd-exponent factor to play p^k, found {len(odd)}"
        )
    special = odd[0]
    rest = [term for term in f.factors if term is not special]
    p, k = special.base, special.exponent
    m = prod(term.base ** (term.exponent // 2) for term in rest)
    reasons = []
    if p % 4 != 1:
        reasons.append(f"special base {_decimal(p)} is {p % 4} mod 4, needs 1")
    if k % 4 != 1:
        reasons.append(f"special exponent {k} is {k % 4} mod 4, needs 1")
    if m % 2 == 0:
        reasons.append(f"square root part {_decimal(m)} must be odd")
    if reasons:
        raise ValueError("; ".join(reasons))
    # p == k == 1 (mod 4) from here: sigma(p^k) == 2 (mod 4), so D(p^k)/2 is whole
    sigma_pk = divisor_sum_geometric(p, k)
    sigma_m2 = spoof_sigma(rest)
    pk = p**k
    m2 = m**2
    d_pk = 2 * pk - sigma_pk
    s_pk = sigma_pk - pk
    d_m2 = 2 * m2 - sigma_m2
    s_m2 = sigma_m2 - m2
    return IdentityReport(
        p=p,
        k=k,
        m=m,
        sigma_pk=sigma_pk,
        sigma_m2=sigma_m2,
        d_pk=d_pk,
        d_m2=d_m2,
        s_pk=s_pk,
        s_m2=s_m2,
        g=gcd(m2, sigma_m2),
        q1=Fraction(sigma_m2, pk),
        q2=Fraction(2 * m2, sigma_pk),
        q3=Fraction(d_m2, s_pk),            # s_pk = 1 + p + ... + p^(k-1) >= 1
        q4=Fraction(2 * s_m2, d_pk),        # prime powers are deficient, d_pk >= 1
        ratio=Fraction(d_pk * d_m2, s_pk * s_m2) if s_m2 != 0 else None,
        star_lhs=Fraction(2 * d_m2 * s_m2, d_pk * s_pk),
    )

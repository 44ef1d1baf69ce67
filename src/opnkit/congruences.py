"""Residue-class analysis for the two halves of an Euler decomposition.

With p == k == 1 (mod 4), the divisor quantities of the prime-power half
sit in residue classes mod 8 fixed by (p mod 8, k mod 8) alone, and the
square half's quantities mod 4 are fixed by sigma(m^2) mod 4.  Five
lookup tables carry that content; lemma_oracle re-derives every entry by
a brute-force modular sweep, so the tables never have to be trusted.  The
swept state (p^k, sigma(p^k)) mod 8 is a function of p mod 8 and periodic
in k, so one sweep over a period per class of p mod 8, found when the
state returns to its k = 0 value, covers every prime of the class and
every listed exponent, however large.  The sweep needs only how many
primes each class holds, counted off the sieve mask, and a wrong entry is
reported once for its whole class, with that count.

Feeding the tables into the product identity
2 D(m^2) s(m^2) = g^2 D(p^k) s(p^k) with g odd leaves four parameter
combinations where the two sides cannot match.  certify_case proves each
impossibility by collecting the residues modulo 16 that each side attains
over all integer variables, built factor by factor, and showing the two
sets are disjoint.  The class that survives is what
forced_sigma_m2_mod4 reports: sigma(m^2) == 1 (mod 4) iff p == k (mod 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import _MAX_PRIME_LIMIT, prime_counts_1mod4

_MAX_CERT_MODULUS = 128   # certify_case multiplies residue sets: O(m^2) products per factor

__all__ = [
    "SIGMA_PK_MOD8",
    "DEFICIENCY_PK_MOD8",
    "ALIQUOT_PK_MOD8",
    "DEFICIENCY_M2_MOD4",
    "ALIQUOT_M2_MOD4",
    "forced_sigma_m2_mod4",
    "TheoremCase",
    "THEOREM_CASES",
    "InfeasibilityCertificate",
    "certify_case",
    "Mismatch",
    "OracleReport",
    "lemma_oracle",
]


# The tables are the content; every entry is re-derivable from
# sigma(p^k) = 1 + p + ... + p^k with p^2 == 1 (mod 8) for odd p,
# and lemma_oracle checks them against primes directly.  The *_PK_MOD8
# tables give sigma, D = 2p^k - sigma and s = sigma - p^k of p^k mod 8,
# keyed by (p mod 8, k mod 8); the *_M2_MOD4 tables give D(m^2) and
# s(m^2) mod 4, keyed by sigma(m^2) mod 4, using m^2 == 1 (mod 4).
SIGMA_PK_MOD8 = {(1, 1): 2, (1, 5): 6, (5, 1): 6, (5, 5): 2}
DEFICIENCY_PK_MOD8 = {(1, 1): 0, (1, 5): 4, (5, 1): 4, (5, 5): 0}
ALIQUOT_PK_MOD8 = {(1, 1): 1, (1, 5): 5, (5, 1): 1, (5, 5): 5}
DEFICIENCY_M2_MOD4 = {1: 1, 3: 3}
ALIQUOT_M2_MOD4 = {1: 0, 3: 2}


def _check_pk_classes(p_mod8: int, k_mod8: int) -> None:
    if p_mod8 not in (1, 5):
        raise ValueError(f"p mod 8 must be 1 or 5, got {p_mod8}")
    if k_mod8 not in (1, 5):
        raise ValueError(f"k mod 8 must be 1 or 5, got {k_mod8}")


def forced_sigma_m2_mod4(p_mod8: int, k_mod8: int) -> int:
    """The one class of sigma(m^2) mod 4, 1 or 3, the four impossibilities leave open.

    sigma(m^2) is odd, so the class is the odd one that the THEOREM_CASES
    entry for (p mod 8, k mod 8) does not assume: 1 when p == k (mod 8),
    else 3, the biconditional form of the theorem.
    """
    _check_pk_classes(p_mod8, k_mod8)
    case = next(c for c in THEOREM_CASES if (c.p_mod8, c.k_mod8) == (p_mod8, k_mod8))
    return 4 - case.assumed_sigma_m2_mod4


@dataclass(frozen=True)
class TheoremCase:
    """One of the four impossible parameter combinations.

    Each case assumes a class for sigma(m^2) mod 4 on top of the
    (p mod 8, k mod 8) classes; the lookup tables then pin every factor
    of 2 D(m^2) s(m^2) = g^2 D(p^k) s(p^k) to a residue class, and the
    resulting symbolic equation has no integer solutions.
    """

    case_id: int
    p_mod8: int
    k_mod8: int
    assumed_sigma_m2_mod4: int

    def __post_init__(self):
        if not 1 <= self.case_id <= 4:
            raise ValueError("case_id must be 1..4")
        _check_pk_classes(self.p_mod8, self.k_mod8)
        if self.assumed_sigma_m2_mod4 not in (1, 3):
            raise ValueError(
                f"sigma(m^2) mod 4 must be 1 or 3 (it is odd for odd m), got {self.assumed_sigma_m2_mod4}"
            )

    @property
    def d_m2_mod4(self) -> int:
        return DEFICIENCY_M2_MOD4[self.assumed_sigma_m2_mod4]

    @property
    def s_m2_mod4(self) -> int:
        return ALIQUOT_M2_MOD4[self.assumed_sigma_m2_mod4]

    @property
    def d_pk_mod8(self) -> int:
        return DEFICIENCY_PK_MOD8[(self.p_mod8, self.k_mod8)]

    @property
    def s_pk_mod8(self) -> int:
        return ALIQUOT_PK_MOD8[(self.p_mod8, self.k_mod8)]

    @property
    def equation(self) -> str:
        """The case's symbolic equation, free variables a, b, x, c, d."""
        return (
            f"2(4a + {self.d_m2_mod4})(4b + {self.s_m2_mod4})"
            f" = (8x + 1)(8c + {self.d_pk_mod8})(8d + {self.s_pk_mod8})"
        )


THEOREM_CASES = (
    TheoremCase(1, 1, 1, 3),
    TheoremCase(2, 1, 5, 1),
    TheoremCase(3, 5, 1, 1),
    TheoremCase(4, 5, 5, 3),
)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Attained residue sets of both sides of a case equation.

    Disjoint sets prove the equation has no integer solutions: any
    solution would make both sides equal, hence equal mod the modulus.
    """

    case_id: int
    modulus: int
    lhs_residues: frozenset[int]
    rhs_residues: frozenset[int]

    @property
    def overlap(self) -> frozenset[int]:
        """Residues both sides attain: empty exactly when the case is proved."""
        return self.lhs_residues & self.rhs_residues

    @property
    def disjoint(self) -> bool:
        return not self.overlap


def _product_residues(m: int, *factors: tuple[int, int]) -> frozenset[int]:
    """Residues mod m of every product with one factor (step*v + offset) per pair.

    A product's residue depends only on its factors' residues, so the set
    is built one factor at a time: at most m x m products per factor.
    """
    out = {1}
    for step, offset in factors:
        values = {(step * v + offset) % m for v in range(m)}
        out = {r * v % m for r in out for v in values}
    return frozenset(out)


def certify_case(c: TheoremCase, enumeration_modulus: int = 16) -> InfeasibilityCertificate:
    """Collect the residues both sides of the case equation attain.

    Every integer assignment of the free variables lands, mod the
    enumeration modulus, in one of the collected residues, so disjoint
    sets certify that no assignment satisfies the equation.  Each side's
    set is built factor by factor, at O(m^2) cost, rather than by
    enumerating every tuple of variable residues.  Modulus 16 separates
    all four cases.  Moduli above _MAX_CERT_MODULUS are rejected.
    """
    m = enumeration_modulus
    if m < 8 or m % 8 != 0:
        raise ValueError(f"enumeration modulus must be a positive multiple of 8, got {m}")
    if m > _MAX_CERT_MODULUS:
        raise ValueError(
            f"enumeration modulus {m} exceeds the budget of {_MAX_CERT_MODULUS} "
            f"(up to {m * m} residue products per factor)"
        )
    lhs = _product_residues(m, (0, 2), (4, c.d_m2_mod4), (4, c.s_m2_mod4))
    rhs = _product_residues(m, (8, 1), (8, c.d_pk_mod8), (8, c.s_pk_mod8))
    return InfeasibilityCertificate(c.case_id, m, lhs, rhs)


@dataclass(frozen=True)
class Mismatch:
    """A table entry the sweep contradicted for every prime of one class.

    The primes p == p_mod8 (mod 8) up to the bound, `primes` of them, all
    give `observed` at exponent k where the table says `expected`.
    """

    p_mod8: int
    primes: int
    k: int
    quantity: str
    observed: int
    expected: int


@dataclass(frozen=True)
class OracleReport:
    """Outcome of a brute-force sweep against the mod-8 tables.

    checks counts (p, k) pairs (each pair compares all three quantities).
    observed_residues maps (p mod 8, k mod 8) to the residue sets the
    sweep actually attained, keyed by quantity name: the raw material for
    any finer-modulus investigation.
    """

    prime_bound: int
    k_values: tuple[int, ...]
    checks: int
    mismatches: tuple[Mismatch, ...]
    observed_residues: dict = field(repr=False)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def lemma_oracle(prime_bound: int, k_values) -> OracleReport:
    """Brute-force every table entry over all primes p <= prime_bound, p == 1 (mod 4).

    Each k must be == 1 (mod 4).  A prime's state at k is (p^k, sigma(p^k))
    mod 8, and one step maps (x, s) to (p x, s + p x) mod 8: a function of
    p mod 8 alone.  So the state is stepped as plain ints, p^k never built,
    once per class of p mod 8 that has a prime, and every prime of a class
    is charged with its class's result.  For odd p the step is a bijection,
    with inverse x = p^-1 x', s = s' - x', so the states are purely
    periodic: the first to repeat is the k = 0 state (1, 1) itself.  The
    sweep stops there, or at max k if that comes first, and evaluates each
    distinct (position in that period, k mod 8) once; nothing here assumes
    the tables' values or the period's length.  It reads only the class
    counts of prime_counts_1mod4.  A wrong entry gives one Mismatch per
    class, listed k and quantity, carrying the class's prime count: class 1
    before 5, then k in the caller's order with duplicates, then sigma,
    deficiency, aliquot.  So there are at most 6 * len(k_values) records.
    The per-prime sweep is the test twin lemma_oracle_by_restarts.  A
    prime bound at or above the sieve budget of arith, 10^9, is refused
    before anything is counted.
    """
    if prime_bound < 5:
        raise ValueError("prime bound must be at least 5")
    if prime_bound >= _MAX_PRIME_LIMIT:  # the sieve counts the primes below prime_bound + 1
        raise ValueError(f"prime bound {prime_bound} exceeds the budget of {_MAX_PRIME_LIMIT - 1}")
    ks = tuple(k_values)
    if not ks:
        raise ValueError("need at least one exponent")
    for k in ks:
        if k < 1 or k % 4 != 1:
            raise ValueError(f"exponent {k} is not 1 mod 4")
    counts = dict(zip((1, 5), prime_counts_1mod4(prime_bound + 1)))
    tables = {"sigma": SIGMA_PK_MOD8, "deficiency": DEFICIENCY_PK_MOD8, "aliquot": ALIQUOT_PK_MOD8}
    top = max(ks)
    observed: dict[tuple[int, int], dict[str, set[int]]] = {}
    mismatches: list[Mismatch] = []
    for c in (c for c in (1, 5) if counts[c]):
        x, s, states = 1, 1, []  # states[i] is the state at k = i + 1
        while len(states) < top:
            x = c * x % 8
            s = (s + x) % 8
            states.append((x, s))
            if (x, s) == (1, 1):
                break
        wrong = {}  # (position, k mod 8) -> the wrong entries there
        for i, km8 in dict.fromkeys(((k - 1) % len(states), k % 8) for k in ks):
            x, s = states[i]
            values = {"sigma": s, "deficiency": (2 * x - s) % 8, "aliquot": (s - x) % 8}
            bucket = observed.setdefault((c, km8), {name: set() for name in values})
            for name, value in values.items():
                bucket[name].add(value)
                expected = tables[name][(c, km8)]
                if value != expected:
                    wrong.setdefault((i, km8), []).append((name, value, expected))
        if wrong:  # right tables do no per-k work
            mismatches += [
                Mismatch(c, counts[c], k, *entry)
                for k in ks for entry in wrong.get(((k - 1) % len(states), k % 8), ())
            ]
    return OracleReport(
        prime_bound=prime_bound,
        k_values=ks,
        checks=sum(counts.values()) * len(ks),
        mismatches=tuple(mismatches),
        observed_residues=observed,
    )

"""Command-line front end for the verification suites.

One executable, six subcommands:

    sigma N                        divisor quantities of one integer
    verify-identities --spoof S    the exact identity chain on a factor spec
    verify-lemmas ...              brute-force sweep of the mod-8 tables
    certify-theorem [--modulus M]  the four residue-disjointness certificates
    sieve --bound N                special-prime survivors below N
    forced-class --p-mod8 X --k-mod8 Y

Every subcommand accepts --json (machine output) and --quiet (drop
per-item detail lines in text mode).
Exit codes: 0 all checks passed, 1 a verification check failed, 2 usage
or input error, 3 internal error (an unexpected exception, whose
traceback goes to stderr), 141 stdout closed by its reader, as in
`opnkit sieve ... | head` (128 + SIGPIPE, the code a shell reports for
a process a closed pipe kills; stderr stays empty).  Verification suites
emit a JSON object with the fields "suite", "checks" and "failures";
sieve --json emits a bare array of hits.

Factor specs are comma-separated base^exp terms where a trailing "!"
marks a base to be treated as prime even if composite, e.g. the
Descartes number 3^2,7^2,11^2,13^2,22021^1!.  Exponent lists accept an
arithmetic-progression shorthand: 1,5,9,...,97.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from .arith import EffortExceededError, SpoofFactor, SpoofFactorization, sigma_triple
from .congruences import THEOREM_CASES, certify_case, forced_sigma_m2_mod4, lemma_oracle
from .identities import report_from_spoof
from .sieve import special_prime_columns

__all__ = ["CommandResult", "run", "main", "parse_factor_spec", "parse_k_list"]


@dataclass(frozen=True)
class CommandResult:
    """Exit code plus the stdout payload main() will print."""

    exit_code: int
    payload: str


def parse_factor_spec(text: str) -> SpoofFactorization:
    """Parse comma-separated base^exp terms, "!" suffix marking pseudo bases."""
    factors = []
    for term in text.split(","):
        term = term.strip()
        if not term:
            raise ValueError("empty term in factor spec")
        pseudo = term.endswith("!")
        base_text, sep, exp_text = (term[:-1] if pseudo else term).partition("^")
        try:
            base = int(base_text)
            exponent = int(exp_text) if sep else 1
        except ValueError:
            raise ValueError(f"malformed factor term {term!r}") from None
        factors.append(SpoofFactor(base=base, exponent=exponent, pseudo=pseudo))
    return SpoofFactorization(tuple(factors))


_MAX_K_TERMS = 100_000  # longest exponent list an ellipsis may expand to


def parse_k_list(text: str) -> list[int]:
    """Parse a comma-separated integer list; "..." continues the progression.

    "1,5,9,...,97" expands to 1, 5, 9, 13, ..., 97 (step taken from the
    last two explicit values; the terminal value must lie on the grid).
    An expansion past _MAX_K_TERMS exponents is rejected before it is built.
    """
    items = [t.strip() for t in text.split(",")]
    out: list[int] = []  # never left empty: split yields an item, and each pass appends or raises
    step = 0  # set by "...", which only the terminal value may follow
    for i, tok in enumerate(items):
        if tok == "...":
            if len(out) < 2 or i != len(items) - 2:
                raise ValueError('"..." needs two values before it and exactly one after')
            step = out[-1] - out[-2]
            if step <= 0:
                raise ValueError("ellipsis step must be positive")
            continue
        try:
            value = int(tok)
        except ValueError:
            raise ValueError(f"malformed list entry {tok!r}") from None
        if not step:
            out.append(value)
            continue
        if value < out[-1] or (value - out[-1]) % step != 0:
            raise ValueError(f"{value} is not reachable from {out[-1]} in steps of {step}")
        count = len(out) + (value - out[-1]) // step
        if count > _MAX_K_TERMS:
            raise ValueError(f"exponent list would expand to {count} terms, more than {_MAX_K_TERMS}")
        out.extend(range(out[-1] + step, value + 1, step))
    return out


# Tags on text lines: --quiet drops the detail lines and keeps the rest.
_DETAIL, _ALWAYS = "detail", "always"


@dataclass(frozen=True)
class _Outcome:
    """What a handler found, before run() renders it as text or JSON.

    document is what --json prints: a verification suite's dict, encoded
    by json.dumps, or JSON text the handler encoded itself (sieve).  The
    exit code comes from the document: 1 when it is a dict whose
    "failures" list is not empty.  lines are the (tag, text) pairs of
    text mode, where one text may span many output lines.
    """

    document: object
    lines: list[tuple[str, str]]


def _envelope(suite: str, checks: int, failures: list, **extra) -> dict:
    return {"suite": suite, "checks": checks, "failures": failures, **extra}


def _cmd_sigma(ns) -> _Outcome:
    t = sigma_triple(ns.n)
    document = _envelope(
        "sigma", 1, [], n=ns.n, sigma=t.sigma, deficiency=t.deficiency, aliquot=t.aliquot
    )
    return _Outcome(document, [(_ALWAYS, f"σ={t.sigma} D={t.deficiency} s={t.aliquot}")])


def _cmd_verify_identities(ns) -> _Outcome:
    r = report_from_spoof(parse_factor_spec(ns.spoof))
    t, chain, hold = r.triple, r.chain, r.all_identities_hold
    values, failures = {}, []
    lines = [
        (_DETAIL, f"decomposition: p^k = {t.p}^{t.k}, m = {t.m}"),
        (_DETAIL, f"g = gcd(m², σ(m²)) = {r.g}"),
    ]
    for field, target, holds in chain:
        # each fraction can run to thousands of digits: convert it once for text and JSON
        value = getattr(r, field)
        values[field] = text = None if value is None else str(value)  # ratio is None when m = 1
        name, detail = f"{field} = {target}", f"{field} = {'undefined' if text is None else text}"
        if not holds:
            failures.append({"check": name, "detail": detail})
        lines.append((_DETAIL, f"{detail}  [{name}: {'ok' if holds else 'FAIL'}]"))
    lines.append((_ALWAYS, "all identities hold" if hold
                  else f"{len(failures)} of {len(chain)} identities failed"))
    document = _envelope(
        "verify-identities", len(chain), failures,
        p=t.p, k=t.k, m=t.m, g=r.g, **values, all_identities_hold=hold,
    )
    return _Outcome(document, lines)


def _cmd_verify_lemmas(ns) -> _Outcome:
    report = lemma_oracle(ns.prime_bound, parse_k_list(ns.k_list))
    failures = [asdict(m) for m in report.mismatches]
    observed = [
        {"p_mod8": pk[0], "k_mod8": pk[1]}
        | {name: sorted(vals) for name, vals in buckets.items()}
        for pk, buckets in sorted(report.observed_residues.items())
    ]
    document = _envelope(
        "verify-lemmas", report.checks, failures,
        prime_bound=report.prime_bound, k_values=list(report.k_values),
        observed_residues=observed,
    )
    lines = [
        (_DETAIL, f"swept primes p ≤ {report.prime_bound}, p ≡ 1 (mod 4), "
                  f"exponents {ns.k_list}"),
        (_ALWAYS, f"{report.checks} (p, k) pairs checked, "
                  f"{sum(m.primes for m in report.mismatches)} mismatches"),
    ]
    lines += [
        (_ALWAYS, f"  p≡{m.p_mod8} (mod 8), {m.primes} primes, k={m.k} {m.quantity}: "
                  f"observed {m.observed}, table {m.expected}")
        for m in report.mismatches[:20]
    ]
    return _Outcome(document, lines)


def _cmd_certify_theorem(ns) -> _Outcome:
    certificates, failures, lines = [], [], []
    for case in THEOREM_CASES:
        cert = certify_case(case, ns.modulus)
        certificates.append({
            "case_id": cert.case_id,
            "equation": case.equation,
            "lhs_residues": sorted(cert.lhs_residues),
            "rhs_residues": sorted(cert.rhs_residues),
            "disjoint": cert.disjoint,
        })
        if not cert.disjoint:
            failures.append({"case_id": cert.case_id, "overlap": sorted(cert.overlap)})
        lines += [(_DETAIL, f"case {case.case_id}: {case.equation}"), (_ALWAYS, cert.as_text())]
    lines.append((_ALWAYS, "all four cases disjoint" if not failures
                  else f"{len(failures)} case(s) failed to separate"))
    document = _envelope(
        "certify-theorem", len(certificates), failures,
        modulus=ns.modulus, certificates=certificates,
    )
    return _Outcome(document, lines)


def _rows(template: str, sep: str, *columns: np.ndarray) -> str:
    """One template row per index of the int64 columns, joined by sep and filled by one %."""
    return sep.join([template] * columns[0].size) % tuple(np.column_stack(columns).ravel().tolist())


def _cmd_sieve(ns) -> _Outcome:
    # every p passed sieve._checked, so p mod 16 is 1 and both templates print it as a literal
    ps, roots = special_prime_columns(ns.bound)
    if ns.json:  # the bytes json.dumps(sort_keys=True) gives for the hit dicts
        rows = _rows('{"p": %d, "p_mod16": 1, "root": %d}', ", ", ps, roots)
        return _Outcome("[" + rows + "]", [])
    lines = [(_ALWAYS, _rows("%d %d 1", "\n", ps, roots))] if ps.size else []
    lines.append((_DETAIL, f"{ps.size} special-prime survivor(s) below {ns.bound}"))
    return _Outcome(None, lines)


def _cmd_forced_class(ns) -> _Outcome:
    r = forced_sigma_m2_mod4(ns.p_mod8, ns.k_mod8)
    document = _envelope(
        "forced-class", 1, [],
        p_mod8=ns.p_mod8, k_mod8=ns.k_mod8, value=r.value, modulus=r.modulus,
    )
    return _Outcome(document, [(_ALWAYS, f"σ(m²) ≡ {r}")])


@cache  # built on first use; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--quiet", action="store_true", help="suppress per-item detail lines")

    parser = argparse.ArgumentParser(
        prog="opnkit",
        description="verification suites for odd-perfect-number arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", parents=[common],
                       help="print σ, deficiency and aliquot sum of N")
    p.add_argument("n", type=int, help="integer to evaluate (arbitrary precision)")
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("verify-identities", parents=[common],
                       help="check the exact identity chain on a factor spec")
    p.add_argument("--spoof", required=True, metavar="SPEC",
                   help="comma-separated base^exp terms, '!' marks pseudo-prime bases")
    p.set_defaults(handler=_cmd_verify_identities)

    p = sub.add_parser("verify-lemmas", parents=[common],
                       help="sweep the mod-8 residue tables against brute force")
    p.add_argument("--prime-bound", type=int, required=True, metavar="B",
                   help="check all primes p ≤ B with p ≡ 1 (mod 4)")
    p.add_argument("--k-list", required=True, metavar="L",
                   help="exponents ≡ 1 (mod 4), e.g. 1,5,9,...,97")
    p.set_defaults(handler=_cmd_verify_lemmas)

    p = sub.add_parser("certify-theorem", parents=[common],
                       help="prove the four impossibility cases by residue enumeration")
    p.add_argument("--modulus", type=int, default=16, metavar="M",
                   help="enumeration modulus, a multiple of 8 (default 16)")
    p.set_defaults(handler=_cmd_certify_theorem)

    p = sub.add_parser("sieve", parents=[common],
                       help="list special primes p < N with (p+1)/2 an odd square")
    p.add_argument("--bound", type=int, required=True, metavar="N")
    p.set_defaults(handler=_cmd_sieve)

    p = sub.add_parser("forced-class", parents=[common],
                       help="the one class of σ(m²) mod 4 left open for given p, k classes")
    p.add_argument("--p-mod8", type=int, required=True, choices=(1, 5))
    p.add_argument("--k-mod8", type=int, required=True, choices=(1, 5))
    p.set_defaults(handler=_cmd_forced_class)

    return parser


def run(argv) -> CommandResult:
    """Parse argv and execute; never raises for user-caused errors."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; normalize its exit code
        return CommandResult(0 if exc.code == 0 else 2, "")
    try:
        outcome = ns.handler(ns)
    except (ValueError, EffortExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CommandResult(2, "")
    document = outcome.document
    if ns.json:
        payload = document if isinstance(document, str) else json.dumps(document, sort_keys=True)
    else:
        payload = "\n".join(
            text for tag, text in outcome.lines if not (ns.quiet and tag == _DETAIL)
        )
    return CommandResult(1 if isinstance(document, dict) and document["failures"] else 0, payload)


def main() -> int:
    try:
        result = run(sys.argv[1:])
        if result.payload:
            print(result.payload, flush=True)  # an output failure is a crash, not a failed check
    except BrokenPipeError:
        # the reader closed stdout (opnkit ... | head): send the unflushed rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception:
        traceback.print_exc()
        return 3
    return result.exit_code

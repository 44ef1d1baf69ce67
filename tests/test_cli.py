import contextlib
import json
import shlex
import sys
import threading
from collections.abc import Callable
from math import prod
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnkit import arith, sieve
from opnkit.arith import is_prime, primes_below
from opnkit.cli import CommandResult, _build_parser, main, parse_factor_spec, parse_k_list, run
from opnkit.congruences import SIGMA_PK_MOD8, THEOREM_CASES, TheoremCase
from opnkit.sieve import sieve_special_primes


class TestParseFactorSpec:
    def test_descartes(self):
        f = parse_factor_spec("3^2,7^2,11^2,13^2,22021^1!")
        assert [(t.base, t.exponent, t.pseudo) for t in f.factors] == [
            (3, 2, False),
            (7, 2, False),
            (11, 2, False),
            (13, 2, False),
            (22021, 1, True),
        ]

    def test_bare_base_means_exponent_one(self):
        f = parse_factor_spec("5,3^2")
        assert [(t.base, t.exponent) for t in f.factors] == [(5, 1), (3, 2)]

    @pytest.mark.parametrize("bad", ["", "5^", "x^2", "3^2,,5", "4^1,6^1", "9^1"])
    def test_rejects_malformed_or_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_factor_spec(bad)


class TestParseKList:
    def test_plain_list(self):
        assert parse_k_list("1,5,13") == [1, 5, 13]

    def test_ellipsis_expansion(self):
        assert parse_k_list("1,5,9,...,97") == list(range(1, 98, 4))
        assert parse_k_list("1,5,...,9") == [1, 5, 9]

    @pytest.mark.parametrize(
        "bad",
        ["", "...", "1,...", "1,5,...", "1,5,...,96", "1,5,...,97,101", "1,a", "5,1,...,9"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_k_list(bad)

    def test_rejects_expansion_past_term_budget(self):
        with pytest.raises(ValueError, match="100001 terms"):
            parse_k_list("1,5,...,400001")


_SPEC_TEXT = st.text(alphabet="0123456789,.^!- ", max_size=24) | st.text(max_size=24)


@given(_SPEC_TEXT)
def test_parsers_raise_only_value_error(text):
    for parse in (parse_k_list, parse_factor_spec):
        try:
            parse(text)
        except ValueError:
            pass


def _json_payload(argv):
    result = run(argv)
    return result, json.loads(result.payload)


class TestSigmaCommand:
    def test_text_output(self):
        result = run(["sigma", "9018009"])
        assert result == CommandResult(0, "σ=18035199 D=819 s=9017190")

    def test_json_output(self):
        result, doc = _json_payload(["sigma", "9018009", "--json"])
        assert result.exit_code == 0
        assert doc == {
            "suite": "sigma",
            "checks": 1,
            "failures": [],
            "n": 9018009,
            "sigma": 18035199,
            "deficiency": 819,
            "aliquot": 9017190,
        }

    def test_rejects_zero(self):
        assert run(["sigma", "0"]).exit_code == 2

    def test_86_bit_semiprime_exits_zero(self):
        p, q = 371904240523, 108537489447287  # 39 and 47 bits: split by ECM
        result, doc = _json_payload(["sigma", str(p * q), "--json"])
        assert result.exit_code == 0
        assert doc["sigma"] == (p + 1) * (q + 1)


class TestVerifyIdentitiesCommand:
    DESCARTES = "3^2,7^2,11^2,13^2,22021^1!"

    def test_descartes_passes(self):
        result = run(["verify-identities", "--spoof", self.DESCARTES])
        assert result.exit_code == 0
        assert "all identities hold" in result.payload

    def test_descartes_json(self):
        result, doc = _json_payload(["verify-identities", "--spoof", self.DESCARTES, "--json"])
        assert result.exit_code == 0
        assert doc["suite"] == "verify-identities"
        assert doc["checks"] == 6
        assert doc["failures"] == []
        assert doc["g"] == 819
        assert doc["q1"] == doc["q2"] == doc["q3"] == doc["q4"] == "819"
        assert doc["ratio"] == "2"
        assert doc["star_lhs"] == "670761"
        assert doc["all_identities_hold"] is True

    def test_nonperfect_decomposition_exits_one(self):
        result = run(["verify-identities", "--spoof", "5^1,3^2"])
        assert result.exit_code == 1
        assert "identities failed" in result.payload

    def test_nonperfect_json_lists_failures(self):
        result, doc = _json_payload(["verify-identities", "--spoof", "5^1,3^2", "--json"])
        assert result.exit_code == 1
        assert doc["failures"]
        assert doc["all_identities_hold"] is False

    def test_m_equal_one_leaves_ratio_undefined(self):
        text = run(["verify-identities", "--spoof", "5^1"])
        assert "ratio = undefined  [ratio = 2: FAIL]" in text.payload.splitlines()
        assert text.payload.endswith("\n5 of 6 identities failed")
        result, doc = _json_payload(["verify-identities", "--spoof", "5^1", "--json"])
        assert (result.exit_code, doc["ratio"], doc["q3"]) == (1, None, "1")
        assert {"check": "ratio = 2", "detail": "ratio = undefined"} in doc["failures"]

    def test_quiet_drops_detail(self):
        loud = run(["verify-identities", "--spoof", self.DESCARTES])
        quiet = run(["verify-identities", "--spoof", self.DESCARTES, "--quiet"])
        assert quiet.exit_code == 0
        assert len(quiet.payload.splitlines()) < len(loud.payload.splitlines())

    def test_malformed_spec_exits_two(self):
        assert run(["verify-identities", "--spoof", "not-a-spec"]).exit_code == 2

    def test_unflagged_composite_exits_two(self):
        assert run(["verify-identities", "--spoof", "3^2,22021^1"]).exit_code == 2

    def test_spec_past_size_budget_exits_two(self, capsys):
        # refused before 5^1000000001 (about 2.3e9 bits) is built
        assert run(["verify-identities", "--spoof", "5^1000000001,3^2"]) == CommandResult(2, "")
        assert "spoof spec of about 3000000007 bits exceeds the budget" in capsys.readouterr().err

    def test_non_coprime_bases_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["opnkit", "verify-identities", "--spoof", "15^1!,21^1!"])
        assert main() == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bases 15 and 21 are not coprime\n"

    @pytest.mark.parametrize(
        "spec,message",
        [("1^2!,5^1", "base 1 must be at least 2"), ("5^0,3^2", "exponent of base 5 must be positive")],
    )
    def test_bounds_on_base_and_exponent_exit_two(self, spec, message, capsys):
        # the spec's own bounds are the chain's only check of p >= 2 and k >= 1
        with pytest.raises(ValueError) as excinfo:
            parse_factor_spec(spec)
        assert str(excinfo.value) == message
        assert run(["verify-identities", "--spoof", spec]) == CommandResult(2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_malformed_term_is_quoted_as_written(self, capsys):
        assert run(["verify-identities", "--spoof", "3^2,5^1!!"]) == CommandResult(2, "")
        assert capsys.readouterr().err == "error: malformed factor term '5^1!!'\n"

    def test_spec_past_term_budget_exits_two_before_any_base_is_tested(self, capsys, monkeypatch):
        def no_test(*args):
            raise AssertionError(f"a base was tested with {args} before the term budget")

        monkeypatch.setattr(arith, "is_prime", no_test)
        monkeypatch.setattr(arith, "gcd", no_test)
        monkeypatch.setattr("sys.argv", ["opnkit", "verify-identities", "--spoof", ",".join(["3^2"] * 1001)])
        assert main() == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: spoof spec of 1001 terms exceeds the budget of 1000 terms\n"

    def test_spec_is_validated_once(self, monkeypatch):
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(arith, "is_prime", counting_is_prime)
        result = run(["verify-identities", "--spoof", self.DESCARTES, "--json"])
        assert result.exit_code == 0
        assert calls == [3, 7, 11, 13]  # one primality test per unflagged base


@contextlib.contextmanager
def _digit_limit(limit):
    """Run the block under the given int-to-str digit limit (0: none)."""
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(caller)


class TestResultsPastTheDigitLimit:
    """Results longer than the interpreter's 4300-digit limit are rendered; inputs that long are still refused."""

    ODD_PRIMES = primes_below(10**4)[1:].tolist()
    N = 2**8 * prod(ODD_PRIMES)  # 4300 digits, so argparse accepts it; sigma(N) has 4302
    SIGMA = (2**9 - 1) * prod(q + 1 for q in ODD_PRIMES)
    SPEC = "5^1,3^20000"  # m = 3^10000, 4772 digits

    def test_sigma_in_every_mode(self):
        argv = ["sigma", str(self.N)]
        n, sigma = self.N, self.SIGMA
        with _digit_limit(0):
            assert len(str(n)) == 4300 and len(str(sigma)) == 4302
            text = f"σ={sigma} D={2 * n - sigma} s={sigma - n}"
            document = json.dumps(
                {"suite": "sigma", "checks": 1, "failures": [], "n": n,
                 "sigma": sigma, "deficiency": 2 * n - sigma, "aliquot": sigma - n},
                sort_keys=True,
            )
        with _digit_limit(4300):
            assert run(argv) == run([*argv, "--quiet"]) == CommandResult(0, text)
            assert run([*argv, "--json"]) == CommandResult(0, document)

    def test_spoof_in_every_mode(self):
        argv = ["verify-identities", "--spoof", self.SPEC]
        with _digit_limit(4300):
            loud, quiet, result = run(argv), run([*argv, "--quiet"]), run([*argv, "--json"])
        with _digit_limit(0):
            m = 3**10000
            assert loud.exit_code == quiet.exit_code == result.exit_code == 1
            assert loud.payload.splitlines()[0] == f"decomposition: p^k = 5^1, m = {m}"
            assert quiet.payload == loud.payload.splitlines()[-1] == "6 of 6 identities failed"
            doc = json.loads(result.payload)
            assert (doc["p"], doc["k"], doc["m"], doc["all_identities_hold"]) == (5, 1, m, False)
            assert json.dumps(doc, sort_keys=True) == result.payload

    def test_callers_limit_is_restored_after_success_and_error(self, monkeypatch):
        with _digit_limit(5000):
            assert run(["sigma", "28", "--json"]).exit_code == 0
            assert run(["verify-identities", "--spoof", self.SPEC]).exit_code == 1
            assert sys.get_int_max_str_digits() == 5000

            def fail(*args, **kwargs):
                raise RuntimeError("injected fault")

            monkeypatch.setattr("opnkit.cli.json.dumps", fail)
            with pytest.raises(RuntimeError, match="injected fault"):
                run(["sigma", "28", "--json"])
            assert sys.get_int_max_str_digits() == 5000

    def test_over_long_sigma_argument_is_still_refused(self, capsys):
        with _digit_limit(4300):
            assert run(["sigma", "1" * 4301]) == CommandResult(2, "")
        assert "argument n: invalid int value" in capsys.readouterr().err

    def test_over_long_spec_base_is_still_malformed(self, capsys):
        term = "1" * 4301 + "^2"
        for mode in ([], ["--json"]):
            with _digit_limit(4300):
                assert run(["verify-identities", "--spoof", f"5^1,{term}", *mode]) == CommandResult(2, "")
            assert capsys.readouterr().err == f"error: malformed factor term '{term}'\n"

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_refusal_naming_a_huge_m_states_its_reason(self, mode, capsys):
        # m = 2^15000 has 4516 digits; the spec uses 60,003 of its 10^6 budget bits
        with _digit_limit(0):
            expected = f"error: square root part {2**15000} must be odd\n"
        with _digit_limit(4300):
            assert run(["verify-identities", "--spoof", "5^1,2^30000", *mode]) == CommandResult(2, "")
            assert sys.get_int_max_str_digits() == 4300
        assert capsys.readouterr().err == expected

    def test_concurrent_calls_keep_the_callers_limit(self):
        # star_lhs of 5^1,3^6000 is a 5725-digit integer, past the caller's 5000
        rounds = [["verify-identities", "--spoof", "5^1,3^6000", "--json"], ["sigma", "9018009", "--json"]]
        with _digit_limit(5000):
            expected = [run(argv) for argv in rounds]
            assert [r.exit_code for r in expected] == [1, 0]
            results = [[] for _ in range(4)]

            def worker(out):
                for _ in range(25):
                    out.extend(run(argv) for argv in rounds)

            threads = [threading.Thread(target=worker, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sys.get_int_max_str_digits() == 5000
        for out in results:
            assert out == expected * 25


class TestVerifyLemmasCommand:
    def test_small_sweep(self):
        result = run(["verify-lemmas", "--prime-bound", "1000", "--k-list", "1,5,9,13"])
        assert result.exit_code == 0
        assert "0 mismatches" in result.payload

    def test_json_envelope(self):
        result, doc = _json_payload(
            ["verify-lemmas", "--prime-bound", "100", "--k-list", "1,5", "--json"]
        )
        assert result.exit_code == 0
        assert doc["suite"] == "verify-lemmas"
        assert doc["failures"] == []
        assert doc["prime_bound"] == 100
        assert doc["k_values"] == [1, 5]
        assert doc["checks"] == 22  # 11 primes = 1 mod 4 up to 100, two exponents
        observed = {(o["p_mod8"], o["k_mod8"]): o for o in doc["observed_residues"]}
        assert observed[(1, 1)]["sigma"] == [2]
        assert observed[(5, 5)]["aliquot"] == [5]

    def test_threads_flag_rejected(self, capsys):
        argv = ["verify-lemmas", "--prime-bound", "2000", "--k-list", "1,5", "--threads", "4"]
        assert run(argv) == CommandResult(2, "")

    def test_bad_k_list_exits_two(self):
        assert run(["verify-lemmas", "--prime-bound", "100", "--k-list", "1,4"]).exit_code == 2

    @pytest.mark.parametrize(("k_list", "entry"), [("1,5,...,x", "'x'"), ("1,5,...,", "''")])
    def test_malformed_terminal_value_exits_two(self, capsys, k_list, entry):
        assert run(["verify-lemmas", "--prime-bound", "100", "--k-list", k_list]) == CommandResult(2, "")
        assert capsys.readouterr().err == f"error: malformed list entry {entry}\n"

    def test_prime_bound_past_budget_exits_two(self, capsys):
        # rejected before the sieve mask (one byte per odd number) is allocated
        assert run(["verify-lemmas", "--prime-bound", "100000000000", "--k-list", "1"]).exit_code == 2
        assert "prime bound 100000000000 exceeds the budget" in capsys.readouterr().err

    def test_refusal_at_the_budget_names_the_bound_as_given(self, capsys, monkeypatch):
        def no_sieve(*args, **kwargs):
            raise AssertionError("the sieve ran before the prime bound check")

        for owner, name in ((arith, "_class_sieve"), (arith, "primes_below"), (np, "ones"), (np, "resize")):
            monkeypatch.setattr(owner, name, no_sieve)
        argv = ["verify-lemmas", "--prime-bound", "1000000000", "--k-list", "1"]
        assert run(argv) == CommandResult(2, "")
        assert capsys.readouterr().err == "error: prime bound 1000000000 exceeds the budget of 999999999\n"

    def test_huge_exponent_sweeps_one_period(self):
        result, doc = _json_payload(
            ["verify-lemmas", "--prime-bound", "100", "--k-list", "1,4000000001", "--json"]
        )
        assert result.exit_code == 0
        assert doc["failures"] == []
        assert doc["checks"] == 22


class TestCertifyTheoremCommand:
    def test_default_modulus(self):
        result = run(["certify-theorem"])
        assert result.exit_code == 0
        assert "all four cases disjoint" in result.payload
        assert result.payload.count("disjoint") >= 4

    def test_json_certificates(self):
        result, doc = _json_payload(["certify-theorem", "--json"])
        assert result.exit_code == 0
        assert doc["suite"] == "certify-theorem"
        assert doc["checks"] == 4
        assert doc["failures"] == []
        assert doc["modulus"] == 16
        certs = doc["certificates"]
        assert [c["case_id"] for c in certs] == [1, 2, 3, 4]
        assert all(c["disjoint"] for c in certs)
        assert certs[0]["lhs_residues"] == [4, 12]
        assert certs[0]["rhs_residues"] == [0, 8]
        assert certs[1]["lhs_residues"] == [0, 8]
        assert certs[1]["rhs_residues"] == [4, 12]

    def test_alternative_modulus(self):
        assert run(["certify-theorem", "--modulus", "32"]).exit_code == 0

    def test_certificate_line_lists_sorted_residues(self):
        lines = run(["certify-theorem", "--modulus", "32"]).payload.splitlines()
        assert lines[1] == "case 1 mod 32: lhs [4, 12, 20, 28] vs rhs [0, 8, 16, 24] -> disjoint"

    def test_invalid_modulus_exits_two(self):
        assert run(["certify-theorem", "--modulus", "12"]).exit_code == 2


class TestSieveCommand:
    def test_text_lines(self):
        result = run(["sieve", "--bound", "100", "--quiet"])
        assert result.exit_code == 0
        assert result.payload.splitlines() == ["17 3 1", "97 7 1"]

    def test_summary_line(self):
        result = run(["sieve", "--bound", "100"])
        assert result.payload.splitlines()[-1] == "2 special-prime survivor(s) below 100"

    def test_json_is_a_bare_array(self):
        result, doc = _json_payload(["sieve", "--bound", "100", "--json"])
        assert result.exit_code == 0
        assert doc == [
            {"p": 17, "root": 3, "p_mod16": 1},
            {"p": 97, "root": 7, "p_mod16": 1},
        ]

    def test_bound_past_budget_exits_two(self, capsys):
        assert run(["sieve", "--bound", "100000000000001"]) == CommandResult(2, "")
        assert "sieve bound 100000000000001 exceeds the budget" in capsys.readouterr().err

    def test_empty_result_is_empty_array(self):
        _, doc = _json_payload(["sieve", "--bound", "17", "--json"])
        assert doc == []

    def test_one_million_in_every_mode_byte_exact(self):
        hits = sieve_special_primes(10**6)
        assert len(hits) == 112
        rows = [f"{h.p} {h.root} {h.p_mod16}" for h in hits]
        doc = [{"p": h.p, "root": h.root, "p_mod16": h.p_mod16} for h in hits]
        argv = ["sieve", "--bound", "1000000"]
        summary = "112 special-prime survivor(s) below 1000000"
        assert run(argv) == CommandResult(0, "\n".join(rows + [summary]))
        assert run(argv + ["--quiet"]) == CommandResult(0, "\n".join(rows))
        for mode in (["--json"], ["--json", "--quiet"]):
            assert run(argv + mode) == CommandResult(0, json.dumps(doc, sort_keys=True))


def _sieve_json_by_dumps(bound):
    """Twin of the sieve --json encoder: json.dumps of one dict per hit."""
    doc = [{"p": h.p, "root": h.root, "p_mod16": h.p_mod16} for h in sieve_special_primes(bound)]
    return json.dumps(doc, sort_keys=True)


class TestSieveJsonTwin:
    """The one-template sieve --json payload is byte-identical to json.dumps of the hit dicts."""

    def test_every_small_bound(self):
        for bound in range(2, 3001):
            assert run(["sieve", "--bound", str(bound), "--json"]).payload == _sieve_json_by_dumps(bound), bound

    @given(st.integers(min_value=2, max_value=10**10))
    @settings(max_examples=50, deadline=None)
    def test_random_bounds(self, bound):
        assert run(["sieve", "--bound", str(bound), "--json"]).payload == _sieve_json_by_dumps(bound)

    def test_10_to_the_12(self):
        assert run(["sieve", "--bound", str(10**12), "--json"]).payload == _sieve_json_by_dumps(10**12)


def _sieve_text_by_fstrings(bound, quiet):
    """Twin of the sieve text renderer: one f-string per SieveHit record, then the summary."""
    hits = sieve_special_primes(bound)
    rows = [f"{h.p} {h.root} {h.p_mod16}" for h in hits]
    return "\n".join(rows if quiet else rows + [f"{len(hits)} special-prime survivor(s) below {bound}"])


class TestSieveTextTwin:
    """The one-template sieve text payload, plain and --quiet, equals one f-string per hit."""

    @staticmethod
    def _check(bound):
        argv = ["sieve", "--bound", str(bound)]
        assert run(argv) == CommandResult(0, _sieve_text_by_fstrings(bound, quiet=False)), bound
        assert run(argv + ["--quiet"]) == CommandResult(0, _sieve_text_by_fstrings(bound, quiet=True)), bound

    def test_every_small_bound(self):
        for bound in range(2, 3001):
            self._check(bound)

    @given(st.integers(min_value=2, max_value=10**10))
    @settings(max_examples=50, deadline=None)
    def test_random_bounds(self, bound):
        self._check(bound)

    def test_10_to_the_12(self):
        self._check(10**12)


class TestSieveCheckFailure:
    """Hit columns that fail their shape check are an internal error, never a payload."""

    @pytest.fixture(autouse=True)
    def corrupt_check(self, monkeypatch):
        checked = sieve._checked
        monkeypatch.setattr(sieve, "_checked", lambda ps, roots: checked(ps, roots + 2))

    @pytest.mark.parametrize("mode", [[], ["--quiet"], ["--json"]], ids=["text", "quiet", "json"])
    def test_run_raises(self, mode):
        with pytest.raises(RuntimeError, match="shape check"):
            run(["sieve", "--bound", "1000000", *mode])

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_main_exits_three_with_no_payload(self, mode, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["opnkit", "sieve", "--bound", "1000000", *mode])
        assert main() == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "RuntimeError: special-prime hits fail their shape check" in captured.err


class TestForcedClassCommand:
    @pytest.mark.parametrize("p,k,expected", [(1, 1, 1), (1, 5, 3), (5, 1, 3), (5, 5, 1)])
    def test_values(self, p, k, expected):
        result = run(["forced-class", "--p-mod8", str(p), "--k-mod8", str(k)])
        assert result.exit_code == 0
        assert f"≡ {expected} (mod 4)" in result.payload

    def test_json(self):
        _, doc = _json_payload(["forced-class", "--p-mod8", "1", "--k-mod8", "5", "--json"])
        assert doc == {
            "suite": "forced-class",
            "checks": 1,
            "failures": [],
            "p_mod8": 1,
            "k_mod8": 5,
            "value": 3,
            "modulus": 4,
        }

    def test_rejects_other_classes(self, capsys):
        assert run(["forced-class", "--p-mod8", "3", "--k-mod8", "1"]).exit_code == 2


class TestDispatch:
    def test_unknown_command_exits_two(self, capsys):
        assert run(["no-such-command"]).exit_code == 2

    def test_no_command_exits_two(self, capsys):
        assert run([]).exit_code == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]).exit_code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["sigma", "5", "extra"],  # unrecognized arguments: worded by the top parser
            ["sigma", "--bogus", "5"],
            ["verify-lemmas", "--prime-bound", "2000", "--k-list", "1,5", "--threads", "4"],
            ["sigma"],  # missing positional
            ["sigma", "five"],  # bad int
            ["sieve", "--bound"],  # option without a value
            ["forced-class", "--p-mod8", "3", "--k-mod8", "1"],  # bad choice
            ["sigma", "--", "5"],
            ["sigma", "-h"],
            [],
            ["-h"],
            ["nosuch"],
            ["--json", "sigma", "5"],
        ],
        ids=shlex.join,
    )
    def test_parse_outcome_is_the_top_parsers(self, argv, capsys):
        """Exit code, stdout and stderr of parsing, as run() gives them and as the top parser alone does."""
        code = run(argv).exit_code
        ours = code, *capsys.readouterr()
        try:
            _build_parser()[0].parse_args(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
        assert ours == (code, *capsys.readouterr())

    def test_main_prints_payload(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["opnkit", "sigma", "28"])
        assert main() == 0
        assert capsys.readouterr().out == "σ=56 D=0 s=28\n"

    def test_main_maps_a_crash_to_exit_three(self, capsys, monkeypatch):
        def crash(n):
            raise RuntimeError("injected fault")

        monkeypatch.setattr("opnkit.cli.sigma_triple", crash)
        monkeypatch.setattr("sys.argv", ["opnkit", "sigma", "28"])
        assert main() == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "RuntimeError: injected fault" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sigma", "496", "--json"],
            ["verify-identities", "--spoof", "3^2,7^2,11^2,13^2,22021^1!", "--json"],
            ["verify-lemmas", "--prime-bound", "100", "--k-list", "1,5", "--json"],
            ["certify-theorem", "--json"],
            ["sieve", "--bound", "100", "--json"],
            ["forced-class", "--p-mod8", "1", "--k-mod8", "1", "--json"],
        ],
    )
    def test_json_round_trips(self, argv):
        payload = run(argv).payload
        assert json.dumps(json.loads(payload), sort_keys=True) == payload

    def test_envelope_fields_present_on_every_verification_suite(self):
        for argv in (
            ["sigma", "6", "--json"],
            ["verify-identities", "--spoof", "3^2,7^2,11^2,13^2,22021^1!", "--json"],
            ["verify-lemmas", "--prime-bound", "100", "--k-list", "1", "--json"],
            ["certify-theorem", "--json"],
            ["forced-class", "--p-mod8", "1", "--k-mod8", "1", "--json"],
        ):
            doc = json.loads(run(argv).payload)
            assert {"suite", "checks", "failures"} <= doc.keys()


class Golden(NamedTuple):
    """Exact output of one invocation in every output mode.

    text and quiet are the payload lines without and with --quiet; doc is
    the JSON document, which --quiet must not change.  None means an
    empty payload (usage and input errors print to stderr only).
    """

    argv: list[str]
    exit_code: int
    text: list[str]
    quiet: list[str]
    doc: object
    patch: Callable | None = None


def _corrupt_sigma_table(monkeypatch):
    monkeypatch.setitem(SIGMA_PK_MOD8, (1, 1), 4)


def _misassign_case_4(monkeypatch):
    monkeypatch.setattr(
        "opnkit.cli.THEOREM_CASES", THEOREM_CASES[:3] + (TheoremCase(4, 5, 5, 1),)
    )


GOLDEN = [
    Golden(
        ["sigma", "9018009"],
        0,
        ["σ=18035199 D=819 s=9017190"],
        ["σ=18035199 D=819 s=9017190"],
        {
            "aliquot": 9017190,
            "checks": 1,
            "deficiency": 819,
            "failures": [],
            "n": 9018009,
            "sigma": 18035199,
            "suite": "sigma",
        },
    ),
    Golden(
        ["sigma", "0"],
        2,
        [],
        [],
        None,
    ),
    Golden(
        ["verify-identities", "--spoof", "3^2,7^2,11^2,13^2,22021^1!"],
        0,
        [
            "decomposition: p^k = 22021^1, m = 3003",
            "g = gcd(m², σ(m²)) = 819",
            "q1 = 819  [q1 = g: ok]",
            "q2 = 819  [q2 = g: ok]",
            "q3 = 819  [q3 = g: ok]",
            "q4 = 819  [q4 = g: ok]",
            "ratio = 2  [ratio = 2: ok]",
            "star_lhs = 670761  [star_lhs = g^2: ok]",
            "all identities hold",
        ],
        ["all identities hold"],
        {
            "all_identities_hold": True,
            "checks": 6,
            "failures": [],
            "g": 819,
            "k": 1,
            "m": 3003,
            "p": 22021,
            "q1": "819",
            "q2": "819",
            "q3": "819",
            "q4": "819",
            "ratio": "2",
            "star_lhs": "670761",
            "suite": "verify-identities",
        },
    ),
    Golden(
        ["verify-identities", "--spoof", "5^1,3^2"],
        1,
        [
            "decomposition: p^k = 5^1, m = 3",
            "g = gcd(m², σ(m²)) = 1",
            "q1 = 13/5  [q1 = g: FAIL]",
            "q2 = 3  [q2 = g: FAIL]",
            "q3 = 5  [q3 = g: FAIL]",
            "q4 = 2  [q4 = g: FAIL]",
            "ratio = 5  [ratio = 2: FAIL]",
            "star_lhs = 10  [star_lhs = g^2: FAIL]",
            "6 of 6 identities failed",
        ],
        ["6 of 6 identities failed"],
        {
            "all_identities_hold": False,
            "checks": 6,
            "failures": [
                {"check": "q1 = g", "detail": "q1 = 13/5"},
                {"check": "q2 = g", "detail": "q2 = 3"},
                {"check": "q3 = g", "detail": "q3 = 5"},
                {"check": "q4 = g", "detail": "q4 = 2"},
                {"check": "ratio = 2", "detail": "ratio = 5"},
                {"check": "star_lhs = g^2", "detail": "star_lhs = 10"},
            ],
            "g": 1,
            "k": 1,
            "m": 3,
            "p": 5,
            "q1": "13/5",
            "q2": "3",
            "q3": "5",
            "q4": "2",
            "ratio": "5",
            "star_lhs": "10",
            "suite": "verify-identities",
        },
    ),
    Golden(
        ["verify-identities", "--spoof", "not-a-spec"],
        2,
        [],
        [],
        None,
    ),
    Golden(
        ["verify-lemmas", "--prime-bound", "100", "--k-list", "1,5"],
        0,
        [
            "swept primes p ≤ 100, p ≡ 1 (mod 4), exponents 1,5",
            "22 (p, k) pairs checked, 0 mismatches",
        ],
        ["22 (p, k) pairs checked, 0 mismatches"],
        {
            "checks": 22,
            "failures": [],
            "k_values": [1, 5],
            "observed_residues": [
                {"aliquot": [1], "deficiency": [0], "k_mod8": 1, "p_mod8": 1, "sigma": [2]},
                {"aliquot": [5], "deficiency": [4], "k_mod8": 5, "p_mod8": 1, "sigma": [6]},
                {"aliquot": [1], "deficiency": [4], "k_mod8": 1, "p_mod8": 5, "sigma": [6]},
                {"aliquot": [5], "deficiency": [0], "k_mod8": 5, "p_mod8": 5, "sigma": [2]},
            ],
            "prime_bound": 100,
            "suite": "verify-lemmas",
        },
    ),
    Golden(
        ["verify-lemmas", "--prime-bound", "100", "--k-list", "1,5"],
        1,
        [
            "swept primes p ≤ 100, p ≡ 1 (mod 4), exponents 1,5",
            "22 (p, k) pairs checked, 5 mismatches",
            "  p≡1 (mod 8), 5 primes, k=1 sigma: observed 2, table 4",
        ],
        [
            "22 (p, k) pairs checked, 5 mismatches",
            "  p≡1 (mod 8), 5 primes, k=1 sigma: observed 2, table 4",
        ],
        {
            "checks": 22,
            "failures": [
                {"expected": 4, "k": 1, "observed": 2, "p_mod8": 1, "primes": 5, "quantity": "sigma"},
            ],
            "k_values": [1, 5],
            "observed_residues": [
                {"aliquot": [1], "deficiency": [0], "k_mod8": 1, "p_mod8": 1, "sigma": [2]},
                {"aliquot": [5], "deficiency": [4], "k_mod8": 5, "p_mod8": 1, "sigma": [6]},
                {"aliquot": [1], "deficiency": [4], "k_mod8": 1, "p_mod8": 5, "sigma": [6]},
                {"aliquot": [5], "deficiency": [0], "k_mod8": 5, "p_mod8": 5, "sigma": [2]},
            ],
            "prime_bound": 100,
            "suite": "verify-lemmas",
        },
        patch=_corrupt_sigma_table,
    ),
    Golden(
        ["verify-lemmas", "--prime-bound", "100", "--k-list", "1,4"],
        2,
        [],
        [],
        None,
    ),
    Golden(
        ["certify-theorem"],
        0,
        [
            "case 1: 2(4a + 3)(4b + 2) = (8x + 1)(8c + 0)(8d + 1)",
            "case 1 mod 16: lhs [4, 12] vs rhs [0, 8] -> disjoint",
            "case 2: 2(4a + 1)(4b + 0) = (8x + 1)(8c + 4)(8d + 5)",
            "case 2 mod 16: lhs [0, 8] vs rhs [4, 12] -> disjoint",
            "case 3: 2(4a + 1)(4b + 0) = (8x + 1)(8c + 4)(8d + 1)",
            "case 3 mod 16: lhs [0, 8] vs rhs [4, 12] -> disjoint",
            "case 4: 2(4a + 3)(4b + 2) = (8x + 1)(8c + 0)(8d + 5)",
            "case 4 mod 16: lhs [4, 12] vs rhs [0, 8] -> disjoint",
            "all four cases disjoint",
        ],
        [
            "case 1 mod 16: lhs [4, 12] vs rhs [0, 8] -> disjoint",
            "case 2 mod 16: lhs [0, 8] vs rhs [4, 12] -> disjoint",
            "case 3 mod 16: lhs [0, 8] vs rhs [4, 12] -> disjoint",
            "case 4 mod 16: lhs [4, 12] vs rhs [0, 8] -> disjoint",
            "all four cases disjoint",
        ],
        {
            "certificates": [
                {
                    "case_id": 1,
                    "disjoint": True,
                    "equation": "2(4a + 3)(4b + 2) = (8x + 1)(8c + 0)(8d + 1)",
                    "lhs_residues": [4, 12],
                    "rhs_residues": [0, 8],
                },
                {
                    "case_id": 2,
                    "disjoint": True,
                    "equation": "2(4a + 1)(4b + 0) = (8x + 1)(8c + 4)(8d + 5)",
                    "lhs_residues": [0, 8],
                    "rhs_residues": [4, 12],
                },
                {
                    "case_id": 3,
                    "disjoint": True,
                    "equation": "2(4a + 1)(4b + 0) = (8x + 1)(8c + 4)(8d + 1)",
                    "lhs_residues": [0, 8],
                    "rhs_residues": [4, 12],
                },
                {
                    "case_id": 4,
                    "disjoint": True,
                    "equation": "2(4a + 3)(4b + 2) = (8x + 1)(8c + 0)(8d + 5)",
                    "lhs_residues": [4, 12],
                    "rhs_residues": [0, 8],
                },
            ],
            "checks": 4,
            "failures": [],
            "modulus": 16,
            "suite": "certify-theorem",
        },
    ),
    Golden(
        ["certify-theorem"],
        1,
        [
            "case 1: 2(4a + 3)(4b + 2) = (8x + 1)(8c + 0)(8d + 1)",
            "case 1 mod 16: lhs [4, 12] vs rhs [0, 8] -> disjoint",
            "case 2: 2(4a + 1)(4b + 0) = (8x + 1)(8c + 4)(8d + 5)",
            "case 2 mod 16: lhs [0, 8] vs rhs [4, 12] -> disjoint",
            "case 3: 2(4a + 1)(4b + 0) = (8x + 1)(8c + 4)(8d + 1)",
            "case 3 mod 16: lhs [0, 8] vs rhs [4, 12] -> disjoint",
            "case 4: 2(4a + 1)(4b + 0) = (8x + 1)(8c + 0)(8d + 5)",
            "case 4 mod 16: lhs [0, 8] vs rhs [0, 8] -> OVERLAP",
            "1 case(s) failed to separate",
        ],
        [
            "case 1 mod 16: lhs [4, 12] vs rhs [0, 8] -> disjoint",
            "case 2 mod 16: lhs [0, 8] vs rhs [4, 12] -> disjoint",
            "case 3 mod 16: lhs [0, 8] vs rhs [4, 12] -> disjoint",
            "case 4 mod 16: lhs [0, 8] vs rhs [0, 8] -> OVERLAP",
            "1 case(s) failed to separate",
        ],
        {
            "certificates": [
                {
                    "case_id": 1,
                    "disjoint": True,
                    "equation": "2(4a + 3)(4b + 2) = (8x + 1)(8c + 0)(8d + 1)",
                    "lhs_residues": [4, 12],
                    "rhs_residues": [0, 8],
                },
                {
                    "case_id": 2,
                    "disjoint": True,
                    "equation": "2(4a + 1)(4b + 0) = (8x + 1)(8c + 4)(8d + 5)",
                    "lhs_residues": [0, 8],
                    "rhs_residues": [4, 12],
                },
                {
                    "case_id": 3,
                    "disjoint": True,
                    "equation": "2(4a + 1)(4b + 0) = (8x + 1)(8c + 4)(8d + 1)",
                    "lhs_residues": [0, 8],
                    "rhs_residues": [4, 12],
                },
                {
                    "case_id": 4,
                    "disjoint": False,
                    "equation": "2(4a + 1)(4b + 0) = (8x + 1)(8c + 0)(8d + 5)",
                    "lhs_residues": [0, 8],
                    "rhs_residues": [0, 8],
                },
            ],
            "checks": 4,
            "failures": [{"case_id": 4, "overlap": [0, 8]}],
            "modulus": 16,
            "suite": "certify-theorem",
        },
        patch=_misassign_case_4,
    ),
    Golden(
        ["sieve", "--bound", "100"],
        0,
        ["17 3 1", "97 7 1", "2 special-prime survivor(s) below 100"],
        ["17 3 1", "97 7 1"],
        [{"p": 17, "p_mod16": 1, "root": 3}, {"p": 97, "p_mod16": 1, "root": 7}],
    ),
    Golden(
        ["sieve", "--bound", "17"],
        0,
        ["0 special-prime survivor(s) below 17"],
        [],
        [],
    ),
    Golden(
        ["sieve"],
        2,
        [],
        [],
        None,
    ),
    Golden(
        ["forced-class", "--p-mod8", "1", "--k-mod8", "5"],
        0,
        ["σ(m²) ≡ 3 (mod 4)"],
        ["σ(m²) ≡ 3 (mod 4)"],
        {
            "checks": 1,
            "failures": [],
            "k_mod8": 5,
            "modulus": 4,
            "p_mod8": 1,
            "suite": "forced-class",
            "value": 3,
        },
    ),
]

MODES = {
    "plain": [],
    "quiet": ["--quiet"],
    "json": ["--json"],
    "json-quiet": ["--json", "--quiet"],
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "golden", GOLDEN, ids=lambda g: " ".join(g.argv) + (f" [{g.patch.__name__}]" if g.patch else "")
)
def test_golden_output(golden, mode, monkeypatch, capsys):
    """Byte-exact (exit_code, payload) of every subcommand in every output mode."""
    if golden.patch:
        golden.patch(monkeypatch)
    if mode.startswith("json"):
        payload = "" if golden.doc is None else json.dumps(golden.doc, sort_keys=True)
    else:
        payload = "\n".join(golden.quiet if mode == "quiet" else golden.text)
    assert run(golden.argv + MODES[mode]) == CommandResult(golden.exit_code, payload)


def test_golden_output_repeats_in_one_process(monkeypatch, capsys):
    """The parser is built once; no argparse state may carry from one call to the next."""
    cases = [(golden, mode) for golden in GOLDEN for mode in MODES]

    def outputs(order):
        results = {}
        for i in order:
            golden, mode = cases[i]
            with monkeypatch.context() as patched:
                if golden.patch:
                    golden.patch(patched)
                results[i] = run(golden.argv + MODES[mode])
        return results

    first = outputs(range(len(cases)))
    assert outputs(reversed(range(len(cases)))) == first

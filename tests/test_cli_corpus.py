"""Byte-identical CLI output over a fixed corpus of argv.

tests/data/cli_corpus.txt holds one base argv per line: every CLI job of
seeds 1 and 2 of the three perfbench workloads, forced-class for the four
class pairs, the spoof probes past the digit limit and near it, and error
and budget-edge inputs.  The argv are literal data, not regenerated from
perfbench, so a benchmark change cannot move them.  Each line starts with
three short digests of (exit code, payload, stderr) from cli.run: for the
argv as written, with --json and with --quiet.  An argv that argparse
rejects is digested by its exit code alone, because argparse's own usage
and error text differ between Python minor versions.

After a deliberate output change, rewrite the digests with

    PYTHONPATH=src python tests/test_cli_corpus.py

and list the lines whose digests changed.
"""

import contextlib
import hashlib
import io
import shlex
from pathlib import Path

from opnkit.cli import run

CORPUS = Path(__file__).parent / "data" / "cli_corpus.txt"
MODES = ((), ("--json",), ("--quiet",))


def _digest(argv: list[str]) -> str:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        result = run(argv)
    record = [str(result.exit_code), result.payload, stderr.getvalue()]
    if result.exit_code == 2 and record[2].startswith("usage:"):  # argparse refused the argv
        record = record[:1]
    return hashlib.sha256("\0".join(record).encode()).hexdigest()[:12]


def _digests(argv: list[str]) -> list[str]:
    return [_digest([*argv, *mode]) for mode in MODES]


def _corpus() -> list[tuple[list[str], list[str]]]:
    """(stored digests, base argv) per corpus line."""
    out = []
    for line in CORPUS.read_text().splitlines():
        *digests, argv = line.split(" ", len(MODES))
        out.append((digests, shlex.split(argv)))
    return out


def test_cli_output_matches_corpus():
    corpus = _corpus()
    differing = [shlex.join(argv) for digests, argv in corpus if _digests(argv) != digests]
    assert not differing, (
        f"{len(differing)} of {len(corpus)} corpus argv changed output; first: "
        + " | ".join(differing[:5])
    )


if __name__ == "__main__":
    CORPUS.write_text("".join(
        " ".join([*_digests(argv), shlex.join(argv)]) + "\n" for _, argv in _corpus()
    ))

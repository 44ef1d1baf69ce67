"""Smoke test: every script under scripts/ runs to completion on small inputs."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import opnkit
from opnkit.congruences import SIGMA_PK_MOD8
from opnkit.sieve import sieve_special_primes

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
ENV = {**os.environ, "PYTHONPATH": str(Path(opnkit.__file__).parents[1])}


@pytest.mark.parametrize(
    "argv",
    [
        ["descartes_demo.py"],
        ["lemma_sweep.py", "--prime-bound", "1000", "--k-list", "1,5,9"],
        pytest.param(
            ["lemma_sweep.py", "--prime-bound", "1000", "--k-list", "1,4000000001"],
            id="lemma_sweep.py-huge-k",
        ),
        ["sieve_survey.py", "--bound", "10000", "--crosscheck-bound", "1000"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_sieve_survey_counts_only():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "sieve_survey.py"), "--bound", "10000", "--counts-only",
         "--crosscheck-bound", "1000"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = [line.split(":") for line in proc.stdout.splitlines() if line.lstrip().startswith("below")]
    assert [int(below.split()[1]) for below, _ in counts] == [100, 1000, 10000]
    assert int(counts[-1][1]) == len(sieve_special_primes(10**4))


def test_lemma_sweep_reports_a_wrong_entry(monkeypatch, capsys):
    monkeypatch.setitem(SIGMA_PK_MOD8, (1, 1), 4)
    monkeypatch.setattr(sys, "argv", ["lemma_sweep.py", "--prime-bound", "100", "--k-list", "1,5"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "lemma_sweep.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert exc.value.code == 1
    assert "22 (p, k) pairs in " in out and ", 5 mismatches\n" in out
    assert "  MISMATCH p≡1 (mod 8), 5 primes, k=1 sigma: observed 2, table 4\n" in out

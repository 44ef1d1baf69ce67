"""Smoke test: every script under scripts/ runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import opnkit

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
    env = {**os.environ, "PYTHONPATH": str(Path(opnkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

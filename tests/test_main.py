"""Smoke test: the package runs as a program, `python -m opnkit`, through main()'s print path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import opnkit

ENV = {**os.environ, "PYTHONPATH": str(Path(opnkit.__file__).parents[1]), "PYTHONIOENCODING": "utf-8"}


@pytest.mark.parametrize(
    "argv,code,stdout,stderr",
    [
        (["sigma", "28"], 0, "σ=56 D=0 s=28\n", ""),
        (["sigma", "0"], 2, "", "error: sigma is defined for n >= 1\n"),
        (["verify-identities", "--spoof", "5^1,3^2", "--quiet"], 1, "6 of 6 identities failed\n", ""),
    ],
    ids=["sigma-28", "sigma-0", "identities-fail"],
)
def test_python_m_opnkit(argv, code, stdout, stderr):
    proc = subprocess.run(
        [sys.executable, "-m", "opnkit", *argv],
        env=ENV, capture_output=True, encoding="utf-8", timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


def test_an_output_failure_exits_three():
    # an ASCII stdout cannot encode σ: that is a crash, not a failed check
    proc = subprocess.run(
        [sys.executable, "-m", "opnkit", "sigma", "28"],
        env={**ENV, "PYTHONIOENCODING": "ascii"}, capture_output=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert b"Traceback" in proc.stderr and b"UnicodeEncodeError" in proc.stderr


def test_a_closed_stdout_pipe_exits_quietly():
    # the reader takes one line and closes the pipe, as `opnkit sieve ... | head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "opnkit", "sieve", "--bound", "100000000000"],
        env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)  # reads and closes stderr, then waits
    assert (first, proc.returncode, stderr) == (b"17 3 1\n", 141, b"")

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

"""The CLI examples of README.md match the program: each "# ..." line under an
"opnkit ..." line of the ```sh block in the "## CLI" section is a line of that
command's output."""

import re
import shlex
from pathlib import Path

import pytest

from opnkit.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples() -> list[tuple[str, list[str]]]:
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("opnkit "):
            examples.append((line, []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    return examples


EXAMPLES = _cli_examples()


def test_every_example_is_found():
    assert [command.split()[1] for command, _ in EXAMPLES] == [
        "sigma", "verify-identities", "verify-lemmas", "certify-theorem", "sieve", "forced-class",
    ]
    assert all(shown for _, shown in EXAMPLES)


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_example_output_is_exact(command, shown):
    lines = run(shlex.split(command)[1:]).payload.splitlines()
    for line in shown:
        assert line in lines

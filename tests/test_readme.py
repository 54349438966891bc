"""The command-line examples in README.md, run as written.

Each `$ fourcurv ...` example in the README's text block is run through
`python -m fourcurv`.  Its stdout must match the lines shown, up to a
`...` line when there is one; an example ending in `; echo exit=$?` also
states its exit code on the last line, and every other example exits 0.
"""
import pathlib
import shlex
import subprocess
import sys

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
_ECHO = "; echo exit=$?"


def _examples():
    block = README.read_text().split("```text\n", 1)[1].split("```", 1)[0]
    for chunk in block.strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ fourcurv ")
        yield pytest.param(command[2:], shown,
                           id=command[11:].removesuffix(_ECHO))


@pytest.mark.parametrize("command, shown", _examples())
def test_readme_example(command, shown, module_env):
    code = 0
    if command.endswith(_ECHO):
        command = command[:-len(_ECHO)]
        assert shown[-1].startswith("exit=")
        code = int(shown.pop()[len("exit="):])
    partial = "..." in shown
    if partial:
        shown = shown[:shown.index("...")]
    proc = subprocess.run([sys.executable, "-m"] + shlex.split(command),
                          capture_output=True, text=True, env=module_env)
    assert proc.returncode == code, proc.stderr
    out = proc.stdout.splitlines()
    assert (out[:len(shown)] if partial else out) == shown

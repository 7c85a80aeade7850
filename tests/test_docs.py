"""The README's library and CLI examples run as written; the exports list is complete."""

import contextlib
import io
import os
import re
import shlex
import sys
import types

import ferrers
from ferrers.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], README, "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "253 0"


def _cli_examples():
    """(command, shown output) for each `$ ` line of the README, output up to the next one."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    examples = []
    for lineno, line in enumerate(lines):
        if not line.startswith("    $ "):
            continue
        shown = []
        for following in lines[lineno + 1 :]:
            if following.startswith("    $ ") or (following and not following.startswith("    ")):
                break
            shown.append(following[4:])
        examples.append((line[6:], "\n".join(shown).rstrip("\n")))
    return examples


def _run_pipeline(command, monkeypatch):
    """Stdout of a `printf ... | ferrers ...` pipeline, each ferrers stage run through main."""
    text = ""
    for stage in command.split(" | "):
        argv = shlex.split(stage)
        if argv[0] == "printf":
            text = argv[1].encode().decode("unicode_escape")
            continue
        assert argv[0] == "ferrers"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv[1:]) == 0, stage
        text = out.getvalue()
    return text


def test_readme_cli_transcript_matches(monkeypatch):
    # Examples whose output is elided with "..." are not compared.
    full = [(command, shown) for command, shown in _cli_examples() if "..." not in shown]
    verbs = [re.search(r"ferrers (\S+)", command).group(1) for command, _ in full]
    assert verbs == ["tau", "invariant", "ferrers-gen", "overlap", "enumerate", "corollary"]
    for command, shown in full:
        assert _run_pipeline(command, monkeypatch).rstrip("\n") == shown, command


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(ferrers).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ferrers.__all__) == sorted(public)

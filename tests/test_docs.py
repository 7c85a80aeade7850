"""The README's library example runs as written, and the exports list is complete."""

import os
import re
import types

import ferrers

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], README, "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "253 0"


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(ferrers).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ferrers.__all__) == sorted(public)

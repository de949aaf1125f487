"""The README's command-line workflow and library example run as
written."""

import glob
import os
import re
import shlex

from idastra.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _workflow_commands():
    """The idastra lines of the README's workflow block, continuations
    joined."""
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Command-line workflow", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line) for line in joined.splitlines()
            if line.startswith("idastra ")]


def test_readme_workflow_runs(tmp_path, monkeypatch, capsys):
    commands = _workflow_commands()
    assert [argv[1] for argv in commands] \
        == ["gen", "sweep", "train", "solve", "report", "curves"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        args = []
        for arg in argv[1:]:
            args.extend(sorted(glob.glob(arg)) if "*" in arg else [arg])
        code = main(args)
        out, err = capsys.readouterr()
        assert code == 0, (argv, out, err)
    assert os.path.getsize(tmp_path / "runs" / "cases.jsonl") > 0


def test_readme_library_block_runs(capsys):
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    speedup = float(capsys.readouterr().out)
    assert speedup > 0

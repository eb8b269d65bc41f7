"""The fenced ``python`` examples and the CLI Quickstart of README.md run as written."""

from __future__ import annotations

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lbrank.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
QUICKSTART = re.findall(r"^## Quickstart \(CLI\)\n\n```sh\n(.*?)^```", README,
                        flags=re.MULTILINE | re.DOTALL)


def _run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path):
    result = _run([sys.executable, "-B", "-c", code], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_runs(tmp_path):
    assert len(QUICKSTART) == 1
    # the installed `lbrank` script is `python -m lbrank`; run it from the source tree
    script = (f'set -e\nlbrank() {{ {shlex.quote(sys.executable)} -B -m lbrank "$@"; }}\n'
              + QUICKSTART[0])
    result = _run(["sh", "-c", script], tmp_path)
    assert result.returncode == 0, result.stderr
    for name in ("data.csv", "data-model.txt", "nested-model.txt", "rankings.csv",
                 "report.csv", "report.csv.txt", "bench.csv"):
        assert (tmp_path / name).is_file(), name


def test_readme_names_every_option_of_every_subcommand():
    # and names no other: pip's flag, and the abbreviation it shows refused
    parser = build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    missing = sorted({(name, option)
                      for name, sub in commands.choices.items()
                      for action in sub._actions
                      for option in action.option_strings
                      if option not in ("-h", "--help")
                      # the option itself, not a longer one it begins
                      and not re.search(rf"{re.escape(option)}(?![\w-])", README)})
    assert not missing, f"options missing from README.md: {missing}"
    options = {option for sub in commands.choices.values() for action in sub._actions
               for option in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z0-9]+(?:-[a-z0-9]+)*", README))
    unknown = sorted(named - options - {"--no-build-isolation", "--sample"})
    assert not unknown, f"README.md names options no subcommand takes: {unknown}"

"""README examples stay in step with the public API."""

from __future__ import annotations

import importlib
import re
import shlex
from pathlib import Path

import pytest

from spedac.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_import_runs():
    # Only the import statement: the example solve below it takes a minute.
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    statement = re.search(r"^from spedac import \(.*?^\)", block, re.DOTALL | re.MULTILINE)
    assert statement is not None, "README's Library block has no spedac import"
    exec(compile(statement.group(0), str(README), "exec"), {})


def test_readme_cli_examples_parse():
    # Parsed, not run: the examples name files the README never writes.
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("spedac ")]
    assert lines, "README's sh blocks hold no spedac example"
    for line in lines:
        try:
            _build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_readme_dotted_names_resolve():
    # Each `spedac.x.y` the prose names must exist: the longest importable
    # module prefix, then attributes for the rest.
    names = set(re.findall(r"`(spedac(?:\.\w+)+)", README.read_text(encoding="utf-8")))
    assert names, "README names no spedac.<name>"
    missing = []
    for dotted in sorted(names):
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
                break
            except ImportError:
                continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(dotted)
    assert missing == []

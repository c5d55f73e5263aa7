"""README examples stay in step with the public API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_import_runs():
    # Only the import statement: the example solve below it takes a minute.
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    statement = re.search(r"^from spedac import \(.*?^\)", block, re.DOTALL | re.MULTILINE)
    assert statement is not None, "README's Library block has no spedac import"
    exec(compile(statement.group(0), str(README), "exec"), {})

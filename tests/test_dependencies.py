"""The runtime stays stdlib only: no third-party import, no declared dependency."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
THIRD_PARTY = ("numpy", "scipy", "networkx", "pytest")


def test_runtime_imports_no_third_party_module():
    # A fresh interpreter, so nothing the test session imported counts.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import spedac, spedac.cli, spedac.bench\n"
        f"print(sorted(m for m in {THIRD_PARTY!r} if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []

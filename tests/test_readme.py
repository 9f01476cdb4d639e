"""README's library example runs, and its public API list is the package's."""

import os
import re
import subprocess
import sys
from pathlib import Path

import dcflow

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert blocks
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    for code in blocks:
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


def test_readme_public_api_sentence_matches_all():
    sentence = re.search(r"Public API: `dcflow` exports (.*?);", README, re.DOTALL)
    assert sentence is not None
    assert sorted(re.findall(r"`(\w+)`", sentence.group(1))) == sorted(dcflow.__all__)

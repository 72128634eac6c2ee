import os
import subprocess
import sys
from pathlib import Path

import pytest

import threshq

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    """Run Python as a user would, against the threshq this suite imports."""
    src = str(Path(threshq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    out = run_python([str(demo)])
    assert out.returncode == 0, out.stderr


def test_readme_quick_start_runs():
    # the README's quick start runs, and each commented print shows what
    # its comment says (a trailing "..." elides the rest of the line)
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = run_python(["-c", code])
    assert out.returncode == 0, out.stderr
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    lines = out.stdout.splitlines()
    assert len(lines) == len(prints)
    for line, shown in zip(prints, lines):
        if "  # " in line:
            claim = line.split("  # ", 1)[1].removesuffix("...").strip()
            assert shown.startswith(claim), (line, shown)

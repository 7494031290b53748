"""Documentation guard: the README's "Library" example runs against the
package as it is, so a change to a public name cannot leave it stale."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    """The first python code block under the README's "## Library" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```", section, re.S | re.M)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs():
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", library_example()],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

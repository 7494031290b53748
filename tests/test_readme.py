"""Documentation guards: the README's "Library" example and its "Command
line" block run against the package as it is, so a change to a public
name, a flag or an output file cannot leave them stale."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def code_block(heading: str, language: str) -> str:
    """The first code block in `language` under the README's `heading`."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"^```{language}\n(.*?)^```", section, re.S | re.M)
    assert match, f"no {language} block under ## {heading}"
    return match.group(1)


def package_env() -> dict[str, str]:
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_library_example_runs():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code_block("Library", "python")],
        capture_output=True, text=True, env=package_env(), cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_command_line_block_runs(tmp_path):
    block = code_block("Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("linkanom ")]
    assert len(commands) == 5
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "linkanom.cli", *command[1:]],
            capture_output=True, text=True, env=package_env(), cwd=tmp_path, timeout=300,
        )
        assert proc.returncode == 0, (command, proc.stderr)
    # the comments name each table's columns: "report.csv columns: a,b" or "sweep.csv: a,b"
    headers = dict(re.findall(r"(\w+\.csv)(?: columns)?: ([\w,]+)", block))
    assert sorted(headers) == ["report.csv", "sweep.csv", "sweep_mean.csv"]
    for name, header in headers.items():
        written = sorted(tmp_path.glob(f"*/{name}"))
        assert written, name
        for path in written:
            assert path.read_text().splitlines()[0] == header, path
    scenario = {"Y.csv", "R.csv", "U.csv", "W.csv", "anomalies.csv", "V.csv", "labels.csv",
                "config.echo"}
    assert {path.name for path in (tmp_path / "scen").iterdir()} == scenario

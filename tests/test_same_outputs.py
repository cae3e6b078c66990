"""``tools/same_outputs.py``: the byte-identity check between two trees.

A tree compared with itself shows no difference; a copy that changes one
line of output shows every request that prints it.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "same_outputs.py"
SMOKE = ["--seeds", "1", "--smoke", "--workloads", "tables-and-maps"]


def same_outputs(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), *SMOKE],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_has_the_same_outputs_as_itself():
    proc = same_outputs(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    count = re.search(r"^(\d+) requests, 0 with different outputs$", proc.stdout, re.M)
    assert count and int(count.group(1)) > 0, proc.stdout


def test_a_changed_output_is_listed(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "lscat" / "cli.py"
    text = cli.read_text()
    assert "valid graded ring homomorphism" in text
    cli.write_text(text.replace("valid graded ring homomorphism", "valid ring homomorphism"))
    proc = same_outputs(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "DIFFERS: lscat check-map torus-" in proc.stdout
    assert re.search(r"^\d+ requests, [1-9]\d* with different outputs$", proc.stdout, re.M)

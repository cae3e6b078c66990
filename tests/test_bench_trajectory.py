"""``tools/bench_trajectory.py``: the benchmark's medians over the BENCH files."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_trajectory.py"


def trajectory(*args: str) -> list[list[str]]:
    proc = subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, check=True, timeout=60
    )
    return [line.split() for line in proc.stdout.splitlines()]


def test_the_checked_in_files_give_one_row_per_workload():
    lines = trajectory()
    assert lines[0][:2] == ["bench", "workload"]
    other = [line[0] for line in lines if line[1:] == ["other", "format"]]
    assert other == ["BENCH_6", "BENCH_9", "BENCH_10"]
    read = [line for line in lines[1:-1] if line[1:] != ["other", "format"]]
    assert [line[0] for line in read] == [
        f"BENCH_{n}" for n in (11, 12, 13, 14, 18, 28, 30, 31, 32, 33, 34, 35, 36) for _ in range(3)
    ]
    assert {line[1] for line in read} == {"catalogue-sweep", "large-presentations", "tables-and-maps"}
    assert all(len(line) == 6 and all(float(cell) > 0 for cell in line[2:]) for line in read)
    # BENCH_14's catalogue-sweep p50 medians, as its summary records them
    assert ["BENCH_14", "catalogue-sweep", "72.5", "60.0", "4.3", "4.3"] in read


def test_a_file_is_read_from_its_summary(tmp_path):
    median = {"parent": {"median": 50.0}, "change": {"median": 49.31}}
    setup = {"parent": {"median": 0.0081}, "change": {"median": 0.0042}}
    bench = dict.fromkeys(("what", "parent", "machine", "command", "runs", "in_process"), "")
    bench["summary"] = {"w": {"metrics": {"request_p50_ms": median, "setup_s": setup}}}
    (tmp_path / "BENCH_2.json").write_text(json.dumps(bench))
    (tmp_path / "BENCH_10.json").write_text(json.dumps({"final": {}}))
    (tmp_path / "notes.json").write_text("{}")
    assert trajectory(str(tmp_path))[1:-1] == [
        ["BENCH_2", "w", "50.0", "49.3", "8.1", "4.2"],
        ["BENCH_10", "other", "format"],
    ]

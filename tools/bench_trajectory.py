"""Print the benchmark's trajectory over the checked-in BENCH files.

Usage::

    python tools/bench_trajectory.py [DIR]

Reads every ``BENCH_<n>.json`` in DIR (the repository root by default), in
the order of n.  For each workload in a file's ``summary`` it prints one
row: the parent and change medians of ``request_p50_ms`` (ms) and of
``setup_s`` (shown in ms).  A file without the keys the files share from
BENCH_11 on (``what``, ``parent``, ``machine``, ``command``, ``summary``,
``runs``, ``in_process``) is listed as "other format" and left as it is.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"what", "parent", "machine", "command", "summary", "runs", "in_process"}
HEADER = ("bench", "workload", "p50 parent", "p50 change", "setup parent", "setup change")


def bench_files(directory: Path) -> list[tuple[int, Path]]:
    found = (re.fullmatch(r"BENCH_(\d+)\.json", p.name) for p in directory.iterdir())
    return sorted((int(m.group(1)), directory / m.group(0)) for m in found if m)


def rows(directory: Path) -> list[tuple[str, ...]]:
    """One row per file and workload; a file of another format gives one row."""
    table = []
    for number, path in bench_files(directory):
        bench = json.loads(path.read_text())
        if not KEYS <= set(bench):
            table.append((f"BENCH_{number}", "other format"))
            continue
        for workload, summary in sorted(bench["summary"].items()):
            p50, setup = summary["metrics"]["request_p50_ms"], summary["metrics"]["setup_s"]
            table.append((
                f"BENCH_{number}", workload,
                *(f"{p50[side]['median']:.1f}" for side in ("parent", "change")),
                *(f"{setup[side]['median'] * 1000:.1f}" for side in ("parent", "change")),
            ))
    return table


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    table = [HEADER, *rows(Path(args[0]) if args else ROOT)]
    widths = [max(len(row[i]) for row in table if i < len(row)) for i in range(len(HEADER))]
    for row in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print("p50 in ms (request_p50_ms); setup in ms (setup_s); medians over each file's runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""How a CLI process ends.

``cli.entry()`` runs ``main()``, flushes both streams and leaves with
``os._exit``, skipping the interpreter's teardown; a failed flush falls
back to ``sys.exit``.  Checked three ways: in-process with ``os._exit``
patched, against the plain ``sys.exit(main(argv))`` exit path in
subprocesses, byte for byte, and by the precondition that makes the skip
safe: a request registers no atexit callback and starts no thread.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lscat
from lscat import cli

SRC = str(Path(lscat.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=SRC)
ENV.pop("PYTHONUNBUFFERED", None)
# subprocesses run with block-buffered streams, where the flush matters,
# and unbuffered, where a write to a closed pipe fails inside main()
BUFFERING = {"buffered": ENV, "unbuffered": dict(ENV, PYTHONUNBUFFERED="1")}


# -- in-process, with os._exit patched ------------------------------------------------


class Stream(io.StringIO):
    """A stream that logs its flushes, with the text written so far."""

    def __init__(self, name: str, log: list, fails: bool = False) -> None:
        super().__init__()
        self.name, self.log, self.fails = name, log, fails

    def flush(self) -> None:
        self.log.append((self.name, self.getvalue()))
        if self.fails:
            raise BrokenPipeError(32, "Broken pipe")


@pytest.fixture
def process(monkeypatch):
    """start(*argv, stdout_fails=False) -> log: patches sys.argv, both streams and
    os._exit to log what they see.  Call it in the test body, since the
    output capture sets the streams again between setup and call."""
    log: list = []

    def start(*argv: str, stdout_fails: bool = False) -> list:
        monkeypatch.setattr(sys, "argv", ["lscat", *argv])
        monkeypatch.setattr(sys, "stdout", Stream("stdout", log, fails=stdout_fails))
        monkeypatch.setattr(sys, "stderr", Stream("stderr", log))
        monkeypatch.setattr(os, "_exit", lambda code: log.append(("_exit", code)))
        return log

    return start


@pytest.mark.parametrize("argv, code, stream", [
    (["cup-length", "T3"], cli.EXIT_OK, "stdout"),
    (["cup-length", "nowhere"], cli.EXIT_USAGE, "stderr"),
])
def test_entry_flushes_both_streams_then_leaves_with_mains_code(process, argv, code, stream):
    log = process(*argv)
    cli.entry()
    assert [entry[0] for entry in log] == ["stdout", "stderr", "_exit"]
    assert log[-1] == ("_exit", code)
    flushed = dict(log[:2])
    assert flushed[stream] and not flushed[{"stdout": "stderr", "stderr": "stdout"}[stream]]


def test_a_failed_flush_leaves_through_sys_exit(process):
    log = process("cup-length", "T3", stdout_fails=True)
    with pytest.raises(SystemExit) as leaving:
        cli.entry()
    assert leaving.value.code == cli.EXIT_OK
    assert [entry[0] for entry in log] == ["stdout"]


def test_an_exception_from_main_never_reaches_os_exit(process, monkeypatch):
    def boom():
        raise RuntimeError("main raised")

    monkeypatch.setattr(cli, "main", boom)
    log = process()
    with pytest.raises(RuntimeError, match="main raised"):
        cli.entry()
    assert log == []


# -- the same bytes as the sys.exit(main(argv)) exit path ---------------------------------

# the exit path entry() replaced, kept here as the oracle
ORACLE = "import sys, lscat.cli as c; sys.exit(c.main(sys.argv[1:]))"

FAILING_MAP = "map squash\ndomain T2\nrange T2\ndegree 1\nsend t1 -> 0\nsend t2 -> t2\n"
MALFORMED_SPACE = "space X\ndim 2\ngenerator b1 1\ntruncate b1 0\n"


def both_exits(argv, cwd, buffering, **streams) -> tuple:
    """(entry's, the oracle's) (exit code, stdout, stderr) for one argv."""
    runs = []
    for command in ([sys.executable, "-m", "lscat.cli"], [sys.executable, "-c", ORACLE]):
        proc = subprocess.run([*command, *argv], cwd=cwd, env=BUFFERING[buffering],
                              stdin=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, **{"stdout": subprocess.PIPE, **streams})
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    return tuple(runs)


@pytest.mark.parametrize("argv, code", [
    (["invariants", "SO5"], cli.EXIT_OK),
    (["--json", "degree1-report", "-m", "T3", "-n", "S_2"], None),
    (["--help"], cli.EXIT_OK),
    (["cup-length"], cli.EXIT_USAGE),
    (["invariants", "bad.space"], cli.EXIT_PARSE),
    (["check-map", "squash.map"], cli.EXIT_VIOLATED),
])
@pytest.mark.parametrize("buffering", BUFFERING)
def test_entry_prints_and_exits_as_the_sys_exit_path(tmp_path, argv, code, buffering):
    (tmp_path / "bad.space").write_text(MALFORMED_SPACE)
    (tmp_path / "squash.map").write_text(FAILING_MAP)
    entry, oracle = both_exits(argv, tmp_path, buffering)
    assert entry == oracle
    assert code is None or entry[0] == code
    assert entry[1] or entry[2]


@pytest.mark.parametrize("buffering, ending", [
    # the answer waits in the buffer, the flush fails and the teardown reports it
    ("buffered", (120, None, b"Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w'"
                             b" encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n")),
    # the first write fails, inside main()
    ("unbuffered", (cli.EXIT_USAGE, None, b"lscat: error: [Errno 32] Broken pipe\n")),
])
def test_a_closed_pipe_ends_as_before(tmp_path, buffering, ending):
    reader, writer = os.pipe()
    os.close(reader)
    try:
        entry, oracle = both_exits(["catalogue"], tmp_path, buffering, stdout=writer)
    finally:
        os.close(writer)
    assert entry == oracle == ending


def test_a_closed_stdout_ends_as_before(tmp_path):
    # with descriptor 1 closed, sys.stdout is None and the flush fails
    entry, oracle = both_exits(["invariants", "SO5"], tmp_path, "buffered",
                               preexec_fn=lambda: os.close(1))
    assert entry == oracle
    assert entry[0] == cli.EXIT_OK


def test_an_exception_from_main_still_prints_its_traceback(tmp_path):
    patched = "import sys, lscat.cli as c\ndef boom():\n    raise RuntimeError('main raised')\nc.main = boom\n"
    runs = [subprocess.run([sys.executable, "-c", patched + leave], cwd=tmp_path, env=ENV,
                           capture_output=True, text=True)
            for leave in ("c.entry()", "sys.exit(c.main())")]
    for proc in runs:
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("Traceback (most recent call last):\n")
        assert proc.stderr.endswith("\nRuntimeError: main raised\n")
    assert ", in entry\n" in runs[0].stderr


# -- what makes the skip safe ---------------------------------------------------------


def test_requests_register_no_atexit_callback_and_start_no_thread(tmp_path):
    # os._exit runs no atexit callback and joins no thread; a request must need neither
    (tmp_path / "collapse.map").write_text(
        "map c\ndomain S_2\nrange T2\ndegree 1\nsend t1 -> a1\nsend t2 -> b1\n")
    requests = [
        ["show", "T2"], ["invariants", "T2"], ["cup-length", "T2"], ["check-map", "collapse.map"],
        ["degree1-report", "-m", "S2", "-n", "T2"], ["verify-paper"], ["catalogue"],
    ]
    probe = (
        "import atexit, contextlib, io, sys, threading\n"
        "registered = []\n"
        "register = atexit.register\n"
        "atexit.register = lambda f, *a, **k: registered.append(f) or register(f, *a, **k)\n"
        "import lscat.cli\n"
        f"for argv in {requests!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(lscat.cli.main(argv), end=' ', file=sys.stderr)\n"
        "print(registered, threading.active_count())\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, check=True)
    assert proc.stderr.split() == ["0", "0", "0", "0", "2", "0", "0"]
    assert proc.stdout == "[] 1\n"

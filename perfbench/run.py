"""End-to-end and per-layer benchmark of the lscat command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Every request is a fresh ``python -m lscat.cli ...`` process against
this checkout's ``src/``, sent in a closed loop by one client: the next
request starts when the previous one has exited.  A run replays whole
passes over the seeded deck of its workload (see ``decks.py``) while the
next pass is expected to end within ``--seconds``; every answer is
checked against an expectation derived without lscat (``expected.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
request once plain and once under ``tracer.py`` and reports per-layer
self times and work counts, summed over one pass.  ``--smoke`` runs a
few requests of every workload both ways, prints every metric, and
exits 1 when an answer is wrong.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import decks
from expected import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PYTHON = sys.executable
REQUEST_LIMIT_S = 60.0
SETUP_REPS = 5
PROBE_EVERY_S = 1.0

END_TO_END = {
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "gf2.insert_calls": "count",
    "gf2.insert_kept_ratio": "ratio",
    "gf2.rank_ms": "ms",
    "rings.product_calls": "count",
    "rings.multiply_calls": "count",
    "rings.table_build_ms": "ms",
    "rings.expand_to_table_ms": "ms",
    "rings.tensor_product_ms": "ms",
    "rings.poincare_duality_ms": "ms",
    "rings.self_ms": "ms",
    "bounds.cup_length_search_calls": "count",
    "bounds.cup_length_search_ms": "ms",
    "bounds.search_per_ring": "ratio",
    "bounds.cross_check_skipped": "count",
    "bounds.cat_bounds_self_ms": "ms",
    "bounds.self_ms": "ms",
    "catalogue.get_calls": "count",
    "catalogue.get_self_ms": "ms",
    "catalogue.self_ms": "ms",
    "homs.full_report_self_ms": "ms",
    "homs.validate_hom_ms": "ms",
    "homs.check_injectivity_ms": "ms",
    "homs.self_ms": "ms",
    "spacefile.parse_ms": "ms",
    "spacefile.resolve_map_ms": "ms",
    "spacefile.serialize_ms": "ms",
    "spacefile.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ms": "ms",
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


class Runner:
    """Starts lscat processes one at a time from a scratch directory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.out = work / ".stdout"
        self.err = work / ".stderr"

    def spawn(self, argv: list[str]) -> tuple[float, int, str, str, float, bool]:
        """Run argv to completion: (wall s, exit code, stdout, stderr, max RSS MB, timed out)."""
        with open(self.out, "w+b") as out, open(self.err, "w+b") as err:
            timed_out = False
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)

            def on_alarm(signum, frame):
                nonlocal timed_out
                timed_out = True
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return (wall, proc.returncode, out.read().decode("utf-8", "replace"),
                    err.read().decode("utf-8", "replace"), usage.ru_maxrss / 1024, timed_out)

    def request(self, req, traced: bool = False) -> dict:
        if traced:
            summary = self.work / ".trace.json"
            summary.unlink(missing_ok=True)
            argv = [PYTHON, str(Path(__file__).with_name("tracer.py")), str(summary), *req.argv]
        else:
            argv = [PYTHON, "-m", "lscat.cli", *req.argv]
        wall, code, out, err, rss, timed_out = self.spawn(argv)
        cause = f"exceeded the {REQUEST_LIMIT_S:.0f} s limit" if timed_out else check(req, code, out, err)
        result = {"rid": req.rid, "wall": wall, "rss": rss, "cause": cause}
        if traced:
            if not summary.exists():
                raise BenchError(f"traced request {req.rid} wrote no trace")
            result["trace"] = json.loads(summary.read_text(encoding="utf-8"))
            where_from(result["trace"]["lscat_file"])
        return result


def where_from(lscat_file: str) -> None:
    if not Path(lscat_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"lscat resolves to {lscat_file}, not to this checkout's src/")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lscat").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout; see src_sha256)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown (git not available; see src_sha256)"
    return proc.stdout.strip() or "unknown"


def import_time(runner: Runner) -> float:
    """In-process time to import lscat.cli in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import lscat, lscat.cli; "
             "print(time.perf_counter() - t, lscat.__file__)")
    _, code, out, err, _, _ = runner.spawn([PYTHON, "-c", probe])
    if code != 0:
        raise BenchError(f"cannot import lscat.cli from {SRC}: {err.strip()[-300:]}")
    seconds, lscat_file = out.split(maxsplit=1)
    where_from(lscat_file.strip())
    return float(seconds)


def interp_start_ms(runner: Runner) -> float:
    """Median wall time of a bare interpreter start (not ours)."""
    return statistics.median(runner.spawn([PYTHON, "-c", "pass"])[0] for _ in range(SETUP_REPS)) * 1e3


def harrell_davis(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile: a Beta-weighted
    mean of the order statistics near it.  Unlike a single order
    statistic it does not jump when two requests of different cost swap
    ranks, which is most of the run-to-run noise of a tail over a mixed
    deck.  Falls back to the nearest rank for tiny samples."""
    ordered, n, q = sorted(values), len(values), pct / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if a <= 1 or b <= 1:
        return ordered[max(0, math.ceil(q * n) - 1)]
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log(1 - x))

    simpson = (1, 4, 2, 4, 2, 4, 2, 4, 1)
    weights = []
    for i in range(n):  # the Beta mass of [i/n, (i+1)/n], by Simpson's rule
        lo, hi = i / n, (i + 1) / n
        xs = [lo + (hi - lo) * k / 8 for k in range(9)]
        weights.append(sum(w * density(x) for w, x in zip(simpson, xs)) * (hi - lo) / 24)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def run_passes(runner: Runner, deck, seconds: float, traced: bool):
    """Whole passes over the deck while the next one should end in time.

    Between requests, at most once per ``PROBE_EVERY_S``, a fresh
    interpreter times the import of lscat.cli, so that the set-up
    samples spread over the whole run like the requests do.  Returns the
    plain results, the traced results (paired with the plain ones when
    ``traced``), the import times, the number of passes and the wall time.
    """
    plain, traced_results, passes = [], [], 0
    imports = [import_time(runner) for _ in range(SETUP_REPS)]
    t0 = last_probe = time.perf_counter()
    while True:
        for req in deck:
            plain.append(runner.request(req))
            if traced:
                traced_results.append(runner.request(req, traced=True))
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                imports.append(import_time(runner))
                last_probe = time.perf_counter()
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (passes + 1) / passes > seconds:
            return plain, traced_results, imports, passes, elapsed


def end_to_end(workload, results, passes, elapsed, deck_size, setup_s) -> tuple[dict, list[str]]:
    walls = [r["wall"] * 1e3 for r in results]
    pct = decks.TAIL_PERCENTILE[workload]
    # one client's pass time, each request taken at its median over the
    # passes, so that a burst of load from outside does not set the rate
    pass_s = sum(statistics.median(r["wall"] for r in results[i::deck_size]) for i in range(deck_size))
    metrics = {
        "request_p50_ms": statistics.median(walls),
        "request_tail_ms": harrell_davis(walls, pct),
        "requests_per_s": deck_size / pass_s,
        "peak_rss_mb": max(r["rss"] for r in results),
        "setup_s": setup_s,
    }
    beyond = len(walls) - math.ceil(pct / 100 * len(walls))
    notes = [f"request_tail_ms is p{pct} (Harrell-Davis) of n = {len(walls)} ({passes} passes of {deck_size}), "
             f"{beyond} samples beyond it" + ("" if beyond >= 10 else " (fewer than 10: a short run)"),
             f"{len(results) / elapsed:.4f} requests/s over the whole {elapsed:.1f} s"]
    return metrics, notes


def per_layer(plain, traced, passes, deck_size) -> tuple[dict, list[str]]:
    spans: dict[str, list[float]] = {}
    outer: dict[str, float] = {}
    counts: dict[str, float] = {}
    distinct_rings = import_ns = 0
    for r in traced:
        t = r["trace"]
        for name, (calls, total, self_ns) in t["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total / 1e6
            acc[2] += self_ns / 1e6
        for module, ns in t["module_outer_ns"].items():
            outer[module] = outer.get(module, 0) + ns / 1e6
        for key, value in t["counts"].items():
            counts[key] = counts.get(key, 0) + value
        distinct_rings += t["search_rings"]
        import_ns += t["import_ns"]

    def calls(name):
        return spans.get(name, [0, 0, 0])[0] / passes

    def total(*names):
        return sum(spans.get(n, [0, 0, 0])[1] for n in names) / passes

    def self_ms(prefix):
        return sum(v[2] for n, v in spans.items() if n.startswith(prefix)) / passes

    searches = spans.get("bounds.cup_length_search", [0])[0]
    repeats = sorted(
        ((r["trace"]["spans"].get("bounds.cup_length_search", [0])[0], r["trace"]["search_rings"], r["rid"])
         for r in traced[:deck_size]),
        key=lambda x: (x[0] / max(x[1], 1), x[0]), reverse=True)
    repeats = [x for x in repeats if x[0] > x[1]]
    notes = [f"{passes} paired passes of {deck_size}",
             f"repeated cup-length search in {len(repeats)} of {deck_size} requests; most: "
             + ", ".join(f"{rid} ({n} searches of {k} ring(s))" for n, k, rid in repeats[:3])]
    metrics = {
        "gf2.insert_calls": counts["insert"] / passes,
        "gf2.insert_kept_ratio": counts["insert_kept"] / counts["insert"] if counts["insert"] else 0.0,
        "gf2.rank_ms": outer.get("gf2", 0) / passes,
        "rings.product_calls": counts["product"] / passes,
        "rings.multiply_calls": counts["multiply"] / passes,
        "rings.table_build_ms": total("rings.MultiplicationTable"),
        "rings.expand_to_table_ms": total("rings.expand_to_table"),
        "rings.tensor_product_ms": total("rings.tensor_product"),
        "rings.poincare_duality_ms": total("rings.check_poincare_duality"),
        "rings.self_ms": self_ms("rings."),
        "bounds.cup_length_search_calls": calls("bounds.cup_length_search"),
        "bounds.cup_length_search_ms": total("bounds.cup_length_search"),
        "bounds.search_per_ring": searches / distinct_rings if distinct_rings else 0.0,
        "bounds.cross_check_skipped": counts["cross_check_skipped"] / passes,
        "bounds.cat_bounds_self_ms": self_ms("bounds.cat_bounds"),
        "bounds.self_ms": self_ms("bounds."),
        "catalogue.get_calls": calls("catalogue.get"),
        "catalogue.get_self_ms": self_ms("catalogue.get"),
        "catalogue.self_ms": self_ms("catalogue."),
        "homs.full_report_self_ms": self_ms("homs.full_report"),
        "homs.validate_hom_ms": total("homs.validate_hom"),
        "homs.check_injectivity_ms": total("homs.check_injectivity"),
        "homs.self_ms": self_ms("homs."),
        "spacefile.parse_ms": total("spacefile.parse_space", "spacefile.parse_map"),
        "spacefile.resolve_map_ms": total("spacefile.resolve_map"),
        "spacefile.serialize_ms": total("spacefile.serialize_space"),
        "spacefile.self_ms": self_ms("spacefile."),
        "cli.import_ms": import_ns / 1e6 / passes,
        "cli.self_ms": self_ms("cli."),
        "trace.overhead_ms": statistics.median(r["wall"] for r in traced) * 1e3
        - statistics.median(r["wall"] for r in plain) * 1e3,
    }
    return metrics, notes


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run in a scratch directory under the checkout."""
    if not (SRC / "lscat" / "cli.py").is_file():
        raise BenchError(f"no lscat sources at {SRC}")
    deck = decks.deck(workload, seed, smoke)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for req in deck:
            for name, text in req.files:
                (work / name).write_text(text, encoding="utf-8")
        runner = Runner(work)
        # untimed: compiles bytecode and warms the file cache
        runner.request(deck[0])
        interp_ms = interp_start_ms(runner)
        plain, traced, imports, passes, elapsed = run_passes(runner, deck, seconds, trace)
        setup_s = statistics.median(imports)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    everything = plain + traced
    failures = [r for r in everything if r["cause"]]
    if trace:
        metrics, notes = per_layer(plain, traced, passes, len(deck))
    else:
        metrics, notes = end_to_end(workload, plain, passes, elapsed, len(deck), setup_s)
    return {
        "workload": workload,
        "meta": {"seed": seed, "commit": commit(), "src_sha256": source_digest(),
                 "python": platform.python_version(), "nproc": os.cpu_count(),
                 "interp_start_ms": round(interp_ms, 2), "setup_samples": len(imports)},
        "metrics": metrics,
        "units": PER_LAYER if trace else END_TO_END,
        "notes": notes,
        "attempted": len(everything),
        "failures": failures,
    }


def report(outcome: dict) -> bool:
    """Print the human-readable lines of one run; True when every answer
    that failed is a listed known defect."""
    print(f"== {outcome['workload']} ==")
    print("meta " + json.dumps(outcome["meta"], sort_keys=True))
    for name, value in outcome["metrics"].items():
        print(f"{name:34s} {value:14.4f} {outcome['units'][name]}")
    for note in outcome["notes"]:
        print(f"note: {note}")
    failures = outcome["failures"]
    print(f"failed_share {len(failures)}/{outcome['attempted']} = "
          f"{len(failures) / outcome['attempted']:.4f}")
    unknown = False
    for rid in sorted({f["rid"] for f in failures}):
        causes = sorted({f["cause"] for f in failures if f["rid"] == rid})
        known = decks.KNOWN_DEFECTS.get(rid)
        unknown |= known is None
        tag = f"known defect ({known})" if known else "WRONG ANSWER"
        n = sum(1 for f in failures if f["rid"] == rid)
        print(f"failed {n} x {rid}: {'; '.join(causes)} -- {tag}")
    return not unknown


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=decks.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few requests of every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        if args.smoke:
            correct, attempted, failed, metrics = True, 0, 0, {}
            for workload in decks.WORKLOADS:
                for trace in (False, True):
                    outcome = run(workload, args.seed, 0.0, trace, smoke=True)
                    correct &= report(outcome)
                    attempted += outcome["attempted"]
                    failed += len(outcome["failures"])
                    for name, value in outcome["metrics"].items():
                        metrics[f"{workload}/{name}"] = {"value": value, "unit": outcome["units"][name]}
        else:
            outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
            correct = report(outcome)
            attempted, failed = outcome["attempted"], len(outcome["failures"])
            metrics = {n: {"value": v, "unit": outcome["units"][n]} for n, v in outcome["metrics"].items()}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())

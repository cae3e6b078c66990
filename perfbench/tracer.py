"""Run one lscat CLI request with every public lscat function wrapped.

Usage: python tracer.py SUMMARY.json ARG...  (ARG... as for ``python -m lscat.cli``)

Each public function of each lscat module is rebound, in every lscat
module that imported it, to a wrapper that records a span (name, start,
end, parent).  A few hot methods only count calls, because a span per
call would swamp what they measure.  Exit code, stdout and stderr are
those of the plain CLI, tracebacks included.  On exit the spans are
folded into per-name totals and self times and written as JSON.
"""

from __future__ import annotations

import json
import sys
import time

MODULES = ("gf2", "rings", "bounds", "catalogue", "homs", "spacefile", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counts = {"insert": 0, "insert_kept": 0, "product": 0, "multiply": 0,
                       "cross_check_skipped": 0}
        self.search_rings: set[int] = set()

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def install(self) -> None:
        from lscat import bounds, gf2, rings

        counts, search_rings = self.counts, self.search_rings
        limit = bounds.CROSS_CHECK_LIMIT
        search, cup_length = bounds.cup_length_search, bounds.cup_length

        def counted_search(t):
            search_rings.add(hash((t.basis, t.top_degree)))
            return search(t)

        def counted_cup_length(ring):
            if isinstance(ring, rings.TruncatedPresentation) and ring.total_dimension > limit:
                counts["cross_check_skipped"] += 1
            return cup_length(ring)

        inner = {"bounds.cup_length_search": counted_search, "bounds.cup_length": counted_cup_length}
        holders = [m for n, m in sys.modules.items() if n == "lscat" or n.startswith("lscat.")]
        for short in MODULES:
            mod = sys.modules[f"lscat.{short}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{short}.{name}"
                wrapped = self.span(key, inner.get(key, obj))
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, attr, wrapped)

        insert = gf2.XorBasis.insert

        def counted_insert(self, v):
            counts["insert"] += 1
            kept = insert(self, v)
            if kept:
                counts["insert_kept"] += 1
            return kept

        gf2.XorBasis.insert = counted_insert

        product = rings.MultiplicationTable.product

        def counted_product(self, la, lb):
            counts["product"] += 1
            return product(self, la, lb)

        rings.MultiplicationTable.product = counted_product

        for cls in (rings.MultiplicationTable, rings.TruncatedPresentation):
            multiply = cls.multiply

            def counted_multiply(self, a, b, _multiply=multiply):
                counts["multiply"] += 1
                return _multiply(self, a, b)

            cls.multiply = counted_multiply
        rings.MultiplicationTable.__init__ = self.span(
            "rings.MultiplicationTable", rings.MultiplicationTable.__init__
        )

    def summary(self) -> dict:
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        by_name: dict[str, list[int]] = {}
        outer: dict[str, int] = {}  # per module, time not nested in the same module
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls, total, self_ns = by_name.setdefault(name, [0, 0, 0])
            by_name[name] = [calls + 1, total + end - start, self_ns + end - start - child_ns[i]]
            module = name.split(".")[0]
            if parent < 0 or self.spans[parent][0].split(".")[0] != module:
                outer[module] = outer.get(module, 0) + end - start
        return {
            "spans": by_name,
            "module_outer_ns": outer,
            "counts": self.counts,
            "search_rings": len(self.search_rings),
        }


def main() -> None:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import lscat.cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = lscat.cli.main(argv)
    finally:
        sys.stdout.flush()
        result = tracer.summary()
        result["import_ns"] = import_ns
        result["lscat_file"] = lscat.__file__
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()

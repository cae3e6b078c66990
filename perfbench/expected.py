"""Expected answers for benchmark requests, derived without lscat.

Nothing here imports lscat.  Every answer comes from the parameters a
workload generator chose (generator degrees, truncation heights, genus,
map construction) and from the cited tables: the special orthogonal
table of the paper, the standard values for spheres, tori and surfaces,
Kunneth for products, and the degree-one criteria as the paper states
them.  A request passes only if lscat's exit code and every checked
field agree; prose ``reason`` strings are never compared.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

# lscat's documented exit codes
EXIT = {"certified": 0, "violated": 2, "inconclusive": 3}
EXIT_OK, EXIT_VIOLATED, EXIT_USAGE, EXIT_PARSE = 0, 2, 64, 65

# rings above this many basis elements skip the formula/search
# cross-check and the duality check (lscat's bounds.CROSS_CHECK_LIMIT)
CROSS_CHECK_LIMIT = 4096

# the paper's table: n -> (dimension, cup-length = cat) for SO(n), n <= 9
SO_TABLE = {3: (3, 3), 4: (6, 4), 5: (10, 8), 6: (15, 9), 7: (21, 11), 8: (28, 12), 9: (36, 20)}


def convolve(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def truncated_poly(degrees, heights) -> tuple[int, ...]:
    """Poincare polynomial of the truncated polynomial algebra
    F2[x_1..x_m]/(x_i^p_i): a product of geometric factors."""
    poly: tuple[int, ...] = (1,)
    for d, p in zip(degrees, heights):
        factor = [0] * ((p - 1) * d + 1)
        for e in range(p):
            factor[e * d] = 1
        poly = convolve(poly, factor)
    return poly


def binomials(k: int) -> tuple[int, ...]:
    row = [1]
    for _ in range(k):
        row = [a + b for a, b in zip(row + [0], [0] + row)]
    return tuple(row)


def so_heights(n: int) -> list[tuple[int, int]]:
    """(degree, height) of the generators b_i of H*(SO(n); F2): odd i < n,
    height the least power of two p with i*p >= n."""
    out = []
    for i in range(1, n, 2):
        p = 1
        while i * p < n:
            p *= 2
        if p > 1:
            out.append((i, p))
    return out


@dataclass(frozen=True)
class Space:
    """What a request's space is, as the benchmark built it."""

    name: str
    dim: int
    poly: tuple[int, ...] | None  # None: no ring stored
    cl: int | None
    kind: str | None  # "presentation" | "table" | None
    size: int  # monomials (presentation) or basis elements (table)
    known_cat: int | None = None
    connectivity: int = 0
    stably_par: bool = True
    genus: int | None = None
    morse: tuple[int, ...] | None = None  # torsion-free homology ranks
    heights: tuple[tuple[int, int], ...] = ()  # presentation (degree, height)


def atomic(name: str) -> Space:
    if name == "point":
        return Space("point", 0, (1,), 0, "presentation", 1, 0, 0, True, None, (1,))
    if name == "G2":
        return Space("G2", 14, None, None, None, 0, 4, 2)
    m = re.fullmatch(r"SO(\d+)", name)
    if m:
        n = int(m.group(1))
        hs = so_heights(n)
        poly: tuple[int, ...] = (1,)
        for i in range(1, n):  # additively an exterior algebra on degrees 1..n-1
            poly = convolve(poly, [1] + [0] * (i - 1) + [1])
        cl = SO_TABLE[n][1] if n in SO_TABLE else sum(p - 1 for _, p in hs)
        known = SO_TABLE[n][1] if n in SO_TABLE else None
        return Space(name, n * (n - 1) // 2, poly, cl, "presentation", 2 ** (n - 1), known,
                     heights=tuple(hs))
    m = re.fullmatch(r"S_(\d+)", name)
    if m:
        g = int(m.group(1))
        return Space(name, 2, (1, 2 * g, 1), 2 if g else 1, "table", 2 * g + 2,
                     2 if g else 1, 0 if g else 1, True, g, (1, 2 * g, 1))
    m = re.fullmatch(r"T(\d+)", name)
    if m:
        k = int(m.group(1))
        b = binomials(k)
        return Space(name, k, b, k, "presentation", 2 ** k, k, 0, True, None, b,
                     heights=((1, 2),) * k)
    m = re.fullmatch(r"S(\d+)", name)
    if m:
        n = int(m.group(1))
        poly = tuple(1 if d in (0, n) else 0 for d in range(n + 1))
        return Space(name, n, poly, 1, "presentation", 2, 1, n - 1, True, None, poly,
                     heights=((n, 2),))
    raise ValueError(f"no such catalogue name {name!r}")


def product(name: str, parts: list[Space]) -> Space:
    """Kunneth: Betti numbers convolve and cup-lengths add over a field."""
    poly: tuple[int, ...] = (1,)
    morse: tuple[int, ...] | None = (1,)
    for s in parts:
        poly = convolve(poly, s.poly)
        morse = convolve(morse, s.morse) if morse is not None and s.morse else None
    size = 1
    for s in parts:
        size *= s.size
    kind = "presentation" if all(s.kind == "presentation" for s in parts) else "table"
    return Space(
        name, sum(s.dim for s in parts), poly, sum(s.cl for s in parts), kind, size,
        None, min(s.connectivity for s in parts), True, None, morse,
        tuple(h for s in parts for h in s.heights),
    )


def catalogue_space(name: str) -> Space:
    parts = name.split("x")
    if len(parts) > 1:
        return product(name, [atomic(p) for p in parts])
    return atomic(name)


def presentation_space(name, gens, stably_par=False, known_cat=None) -> Space:
    """A space file of generators (degree, height) with dim the top monomial degree."""
    degrees = [d for d, _ in gens]
    heights = [p for _, p in gens]
    size = 1
    for p in heights:
        size *= p
    dim = sum((p - 1) * d for d, p in gens)
    return Space(name, dim, truncated_poly(degrees, heights), sum(p - 1 for p in heights),
                 "presentation", size, known_cat, 0, stably_par, None, None, tuple(gens))


def surface_file_space(name: str, g: int) -> Space:
    return replace(atomic(f"S_{g}"), name=name, known_cat=None, morse=None, genus=None,
                   stably_par=False, connectivity=0)


# -- the degree-one criteria, as the paper states them ---------------------------


def expected_overall(m: Space, n: Space, hom_ok: bool | None = None) -> str:
    """Overall status of the degree +-1 comparison for maps m -> n.

    violated: some necessary condition fails (genus in dimension 2,
    cup-length monotonicity, category transfer against m's upper bound,
    homology ranks, or the induced homomorphism); certified: some
    category-transferring criterion applies (dimension <= 4, cl(n) =
    cat(n), or dim <= 2*q*cat(n) - 4 with both stably parallelizable);
    otherwise inconclusive.
    """
    assert m.dim == n.dim
    violated = hom_ok is False
    transfer = False
    if m.dim <= 4:
        if m.dim == 2 and m.genus is not None and n.genus is not None and m.genus < n.genus:
            violated = True
        else:
            transfer = True
    if m.cl is not None and n.cl is not None and m.cl < n.cl:
        violated = True
    if n.cl is not None and n.known_cat is not None and n.known_cat == n.cl:
        m_upper = m.known_cat if m.known_cat is not None else m.dim
        if m.cl is not None and m_upper < n.known_cat:
            violated = True
        else:
            transfer = True
    if m.stably_par and n.stably_par:
        cat_n = n.known_cat if n.known_cat is not None else n.cl
        if cat_n is not None and n.dim <= 2 * (n.connectivity + 1) * cat_n - 4:
            transfer = True
    if m.morse is not None and n.morse is not None:
        if any(a < b for a, b in zip(m.morse, n.morse)):
            violated = True
    if violated:
        return "violated"
    return "certified" if transfer else "inconclusive"


# -- requests -------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One CLI call: its id, argv, the files it needs, and its expected answer.

    ``expect`` is a tuple whose first item names the check; see
    :func:`check`.
    """

    rid: str
    argv: tuple[str, ...]
    expect: tuple
    files: tuple[tuple[str, str], ...] = ()


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _cl_info_ok(cl: dict | None, s: Space) -> str | None:
    if not isinstance(cl, dict):
        return "cup_length missing"
    if s.kind == "presentation":
        if cl.get("formula") != s.cl:
            return f"formula cup-length {cl.get('formula')} != {s.cl}"
        search = cl.get("search")
        if search is None and s.size <= CROSS_CHECK_LIMIT:
            return "search cup-length skipped below the cross-check limit"
        if search is not None and search != s.cl:
            return f"search cup-length {search} != {s.cl}"
        return None
    if cl.get("search") != s.cl:
        return f"search cup-length {cl.get('search')} != {s.cl}"
    return None


def _pd_ok(pd, s: Space) -> str | None:
    if pd is None and s.size > CROSS_CHECK_LIMIT:
        return None
    return None if pd is True else f"poincare duality {pd}, expected True"


def _check_invariants(s: Space, as_json: bool, out: str) -> str | None:
    if as_json:
        doc = _json(out)
        if doc is None:
            return "output is not JSON"
        if doc.get("dimension") != s.dim:
            return f"dimension {doc.get('dimension')} != {s.dim}"
        if s.poly is None:
            return None if doc.get("cup_length") is None else "ring data where none is stored"
        if doc.get("poincare_polynomial") != list(s.poly):
            return f"poincare polynomial {doc.get('poincare_polynomial')} != {list(s.poly)}"
        return _cl_info_ok(doc.get("cup_length"), s) or _pd_ok(doc.get("poincare_duality"), s)
    lines = out.splitlines()
    if s.poly is None:
        return None if any("no ring data" in l for l in lines) else "ring lines for a flags-only space"
    want = "poincare polynomial: " + " ".join(map(str, s.poly))
    if want not in lines:
        return "poincare polynomial line differs"
    cl_line = next((l for l in lines if l.startswith("cup-length: ")), None)
    if cl_line is None:
        return "no cup-length line"
    nums = [int(x) for x in re.findall(r"(\d+) \((?:formula|search)\)", cl_line)]
    if not nums or any(v != s.cl for v in nums) or "MISMATCH" in cl_line:
        return f"cup-length line {cl_line!r}, expected {s.cl}"
    if s.kind == "presentation" and s.size <= CROSS_CHECK_LIMIT and len(nums) != 2:
        return "search cup-length skipped below the cross-check limit"
    pd_line = next((l for l in lines if l.startswith("poincare duality: ")), "")
    return _pd_ok({"True": True, "False": False, "None": None}.get(pd_line[18:], "?"), s)


def _check_cup_length(s: Space, as_json: bool, out: str) -> str | None:
    if as_json:
        doc = _json(out)
        return "output is not JSON" if doc is None else _cl_info_ok(doc.get("cup_length"), s)
    first = out.splitlines()[0] if out else ""
    if not first.endswith(f": {s.cl}"):
        return f"cup-length line {first!r}, expected {s.cl}"
    return None


def _show_poly(lines: list[str]) -> tuple[int, tuple[int, ...] | None]:
    """Dimension and Poincare polynomial read back from a space file."""
    dim = next(int(l.split()[1]) for l in lines if l.startswith("dim "))
    gens = {l.split()[1]: int(l.split()[2]) for l in lines if l.startswith("generator ")}
    truncs = {l.split()[1]: int(l.split()[2]) for l in lines if l.startswith("truncate ")}
    basis = [int(l.split()[2]) for l in lines if l.startswith("basis ")]
    if basis:
        poly = [0] * (dim + 1)
        for d in basis:
            poly[d] += 1
        return dim, tuple(poly)
    if gens or dim == 0:
        names = list(gens)
        return dim, truncated_poly([gens[g] for g in names], [truncs[g] for g in names])
    return dim, None


def _check_show(s: Space, as_json: bool, out: str) -> str | None:
    if as_json:
        doc = _json(out)
        if doc is None:
            return "output is not JSON"
        ring = doc.get("ring")
        if doc.get("dimension") != s.dim or (ring or {}).get("kind") != s.kind:
            return "dimension or ring kind differs"
        if s.kind == "presentation":
            got = sorted(zip((d for _, d in ring["generators"]), ring["truncations"]))
            if got != sorted(s.heights):
                return f"generators {got} != {sorted(s.heights)}"
        elif s.kind == "table":
            poly = [0] * (s.dim + 1)
            for _, d in ring["basis"]:
                poly[d] += 1
            if tuple(poly) != s.poly:
                return f"basis degrees give {poly}, expected {list(s.poly)}"
        return None
    dim, poly = _show_poly(out.splitlines())
    if dim != s.dim or poly != s.poly:
        return f"space file gives dim {dim}, polynomial {poly}"
    return None


def _check_report(m: Space, n: Space, hom_ok, as_json: bool, out: str) -> str | None:
    overall = expected_overall(m, n, hom_ok)
    if as_json:
        doc = _json(out)
        if doc is None:
            return "output is not JSON"
        if doc.get("overall") != overall:
            return f"overall {doc.get('overall')} != {overall}"
        for key, s in (("domain_ledger", m), ("range_ledger", n)):
            ledger = doc.get(key)
            if (ledger or {}).get("cup_length") != s.cl:
                return f"{key} cup-length {(ledger or {}).get('cup_length')} != {s.cl}"
        return None
    if f"overall: {overall}" not in out.splitlines():
        return f"overall line differs, expected {overall}"
    return None


def _check_map(outcome: str, as_json: bool, out: str) -> str | None:
    consistent = outcome == "consistent"
    if as_json:
        doc = _json(out)
        if doc is None:
            return "output is not JSON"
        got = (doc.get("verdict"), doc.get("injective_overall"), doc.get("top_class_preserved"))
        want = (outcome, consistent, consistent)
        return None if got == want else f"(verdict, injective, top class) {got} != {want}"
    lines = out.splitlines()
    verdict = "verdict: consistent" if consistent else "verdict: violated"
    for want in (verdict, f"top class preserved: {consistent}"):
        if not any(l.startswith(want) for l in lines):
            return f"no {want!r} line"
    return None


def _check_catalogue(names: list[str], as_json: bool, out: str) -> str | None:
    want = [(name, atomic(name).dim, atomic(name).known_cat) for name in names]
    if as_json:
        doc = _json(out)
        if doc is None:
            return "output is not JSON"
        got = [(e["name"], e["dimension"], e["known_cat"]) for e in doc.get("spaces", [])]
    else:
        got = []
        for line in out.splitlines():
            m = re.fullmatch(r"(\S+)\s+dim (\d+)\s+known cat (\S+)", line)
            if m:
                got.append((m.group(1), int(m.group(2)), None if m.group(3) == "None" else int(m.group(3))))
    return None if got == want else "catalogue listing differs from the cited values"


def _check_verify_paper(as_json: bool, out: str) -> str | None:
    if not as_json:
        return None if out.rstrip().endswith("all checks passed") else "paper table not reproduced"
    doc = _json(out)
    if doc is None:
        return "output is not JSON"
    rows = {r["row"]: r for r in doc.get("rows", [])}
    for n, (dim, cl) in SO_TABLE.items():
        r = rows.get(f"SO{n}", {})
        if (r.get("dimension"), r.get("cup_length_formula"), r.get("cup_length_search")) != (dim, cl, cl):
            return f"SO{n} row differs from the paper table"
    return None if doc.get("ok") is True and all(r["ok"] for r in rows.values()) else "a row is not ok"


def check(req: Request, code: int, out: str, err: str) -> str | None:
    """None when lscat answered ``req`` as expected, else the cause."""
    if "Traceback (most recent call last)" in err:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        return f"traceback ({last}), exit {code}"
    kind, *args = req.expect
    if kind == "error":
        want_code, error_kind = args
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if error_kind and f"[{error_kind}]" not in err:
            return f"error kind [{error_kind}] not reported"
        return None
    if kind == "report":
        want_code = EXIT[expected_overall(*args)]
    elif kind == "check-map":
        want_code = EXIT_OK if args[0] == "consistent" else EXIT_VIOLATED
    else:
        want_code = EXIT_OK
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    checks = {
        "invariants": _check_invariants,
        "cup-length": _check_cup_length,
        "show": _check_show,
        "report": _check_report,
        "check-map": _check_map,
        "catalogue": _check_catalogue,
        "verify-paper": _check_verify_paper,
    }
    try:
        return checks[kind](*args, "--json" in req.argv, out)
    except (AttributeError, IndexError, KeyError, StopIteration, TypeError, ValueError) as exc:
        return f"unreadable output: {exc!r}"

"""Command-line front end.

Exit codes are scripting-friendly: 0 = success/certified, 2 = violated
(an obstruction was found), 3 = inconclusive, 64 = usage error,
65 = file parse/validation error.  ``--json`` emits the machine form;
the text output is a projection of the same payload.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

from . import catalogue
from .bounds import cup_length_check, poincare_duality, so_n_presentation
from .catalogue import SpaceRecord, UnknownSpaceError
from .homs import (
    CERTIFIED,
    INCONCLUSIVE,
    VIOLATED,
    DimensionMismatch,
    HomValidationError,
    _same_ring,
    check_dimensions,
    check_injectivity,
    check_top_class,
    full_report,
    thm_main_check,
    torus_stabilization_k,
    validate_hom,
)
from .rings import GeneratorSpec, MultiplicationTable, TruncatedPresentation
from .spacefile import (
    SpaceFileError,
    parse_map,
    parse_space,
    resolve_map,
    serialize_space,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_PARSE = 65

DEFAULT_SEED = 20938

# reference values for the special orthogonal family, n = 3..9:
# dimension, truncation exponents, cup-length
SO_REFERENCE = {
    3: (3, (4,), 3),
    4: (6, (4, 2), 4),
    5: (10, (8, 2), 8),
    6: (15, (8, 2, 2), 9),
    7: (21, (8, 4, 2), 11),
    8: (28, (8, 4, 2, 2), 12),
    9: (36, (16, 4, 2, 2), 20),
}


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """-h/--help was read; carries the help text to print."""


# The command line as one table; it drives both the parser and --help.
# An option is (flags, dest, kind, help).  Kinds: "help"; "flag" stores
# True; "int" and "str" store the value, "required" is a "str" that must
# be given; "append" collects every value.  Options that repeat keep the
# last value.
_HELP = (("-h", "--help"), None, "help", "show this help message and exit")
_SPACES = (("--space",), "space", "append", "extra space file (repeatable)")
_TOP = (
    _HELP,
    (("--json",), "json", "flag", "emit machine-readable JSON"),
    (("--seed",), "seed", "int", f"seed for randomized cross-checks (default {DEFAULT_SEED})"),
)
COMMANDS = {  # name: (help, positional argument or None, options besides -h/--help)
    "show": ("print a space as a normalized space file", "space", ()),
    "invariants": ("Poincare polynomial, cup-length, ledger", "space", ()),
    "cup-length": ("cup-length by formula and/or search", "space", ()),
    "check-map": ("validate a map file and its consequences", "mapfile", (_SPACES,)),
    "degree1-report": ("run every criterion for maps domain -> range", None, (
        (("-m", "--domain"), "domain", "required", "domain manifold M"),
        (("-n", "--range"), "range", "required", "range manifold N"),
        (("--map",), "mapfile", "str", "optional map file with the induced hom"),
        _SPACES,
    )),
    "verify-paper": ("recompute the SO(n) table and checks", None, ()),
    "catalogue": ("list built-in spaces", None, ()),
}
_ABOUT = (
    "Cup-length, Morse and category bounds for closed manifolds,\n"
    "and degree-one map obstruction reports."
)
_ARGUMENTS = {"space": "catalogue name or space file path", "mapfile": "map file"}
_NO_VALUE = ("help", "flag")


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read the command line into the fields the commands use: command,
    json and seed, then the command's own (space, mapfile, domain, range).

    It takes ``--opt=value``, unique prefixes of long options,
    ``-mVALUE``, ``--`` before positionals and negative numbers as values,
    with the reference grammar in ``tests/oracles.py`` as its oracle;
    top-level options go before the command.  Raises _UsageError or
    _HelpRequested.
    """
    values = {"json": False, "seed": DEFAULT_SEED, "command": None}
    unknown = _read(list(argv), None, values)
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**values)


def _read(tokens: list[str], command: str | None, values: dict) -> list[str]:
    """Read one level (the top level, or a command's arguments) into
    values; return the tokens this level does not know."""
    if command is None:
        options, positional = _TOP, "command"
    else:
        _, positional, options = COMMANDS[command]
        options = (_HELP, *options)
        values.update({dest: [] if kind == "append" else None for _, dest, kind, _ in options if dest})
        if positional:
            values[positional] = None
    table = {flag: option for option in options for flag in option[0]}
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    # each token's role: (option, flag, attached value), None for a
    # positional, or "--".  Every token after the first "--" is positional;
    # one "--" past the end stands for "no more tokens".
    roles = [_classify(t, table) for t in tokens[:cut]] + ["--"] + [None] * len(tokens)
    unknown, seen, i = [], set(), 0
    while i < len(tokens):
        if roles[i] is None or roles[i] == "--":
            j = i + (roles[i] == "--")
            if positional and j < len(tokens):
                if command is None:  # the command word takes every token after it
                    if tokens[i] not in COMMANDS:
                        choices = ", ".join(map(repr, COMMANDS))
                        raise _UsageError(
                            f"argument command: invalid choice: {tokens[i]!r} (choose from {choices})"
                        )
                    values["command"] = tokens[i]
                    return unknown + _read(tokens[i + 1 :], tokens[i], values)
                values[positional], positional = tokens[j], None
                i = j + 1 + (roles[j + 1] == "--")
            else:
                unknown.append(tokens[i])
                i += 1
            continue
        option, flag, value = roles[i]
        if option is None:
            unknown.append(tokens[i])
            i += 1
            continue
        taken = []
        while value is not None and option[2] in _NO_VALUE:  # -hm: -h, then -m
            following = "-" + value[:1]
            if flag[1] == "-" or following not in table:
                raise _UsageError(f"argument {'/'.join(option[0])}: ignored explicit argument {value!r}")
            taken.append((option, None))
            option, flag, value = table[following], following, value[1:] or None
        if option[2] not in _NO_VALUE and value is None:
            if roles[i + 1] is not None:
                raise _UsageError(f"argument {'/'.join(option[0])}: expected one argument")
            i += 1
            value = tokens[i]
        taken.append((option, value))
        i += 1
        for (flags, dest, kind, _), value in taken:
            seen.add(flags)
            if kind == "help":
                raise _HelpRequested(_help(command))
            if kind == "int":
                try:
                    value = int(value)
                except ValueError:
                    raise _UsageError(f"argument {'/'.join(flags)}: invalid int value: {value!r}") from None
            if kind == "flag":
                value = True
            elif kind == "append":
                value = [*values[dest], value]
            values[dest] = value
    missing = [positional] if positional else []
    missing += ["/".join(o[0]) for o in options if o[2] == "required" and o[0] not in seen]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    return unknown


def _classify(token: str, table: dict):
    """(option, flag, attached value) for an option token, (None, token,
    None) for an unknown one, None for a positional."""
    if token in table:
        return table[token], token, None
    if len(token) < 2 or token[0] != "-":
        return None
    flag, eq, value = token.partition("=")
    if eq and flag in table:
        return table[flag], flag, value
    if token[1] == "-":
        found = [(table[f], f, value if eq else None) for f in table if f.startswith(flag)]
    else:
        found = [(table[token[:2]], token[:2], token[2:])] if token[:2] in table else []
    if len(found) > 1:
        matches = ", ".join(f for _, f, _ in found)
        raise _UsageError(f"ambiguous option: {token} could match {matches}")
    if found:
        return found[0]
    if " " in token or _is_negative_number(token):
        return None
    return None, token, None


def _is_negative_number(token: str) -> bool:
    r"""argparse's negative-number test, re.match(r"-\d+$|-\d*\.\d+$", token),
    without loading re; like $, it lets one final newline through."""
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    if not dot:
        return whole.isdecimal()
    return fraction.isdecimal() and (whole == "" or whole.isdecimal())


def _help(command: str | None) -> str:
    """The --help text of the top level or of one command, from the table."""
    if command is None:
        prog, about, positional, options = "lscat", _ABOUT, "COMMAND ...", _TOP
        listed = ("commands", [(name, spec[0]) for name, spec in COMMANDS.items()])
    else:
        about, positional, options = COMMANDS[command]
        prog, options = f"lscat {command}", (_HELP, *options)
        listed = ("arguments", [(positional, _ARGUMENTS[positional])] if positional else [])
    usage, rows = [prog], []
    for flags, dest, kind, text in options:
        metavar = "" if kind in _NO_VALUE else " " + dest.upper()
        usage.append(flags[0] + metavar if kind == "required" else f"[{flags[0]}{metavar}]")
        rows.append((", ".join(flags) + metavar, text))
    sections = [listed, ("options", rows)]
    width = max(len(label) for _, group in sections for label, _ in group)
    lines = ["usage: " + " ".join(usage + [positional] * bool(positional)), "", about]
    for heading, group in sections:
        if group:
            lines += ["", f"{heading}:", *(f"  {label:<{width}}  {text}" for label, text in group)]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except _HelpRequested as shown:
        print(shown, end="")
        return EXIT_OK
    except _UsageError as exc:
        print(f"lscat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        handler = {
            "show": cmd_show,
            "invariants": cmd_invariants,
            "cup-length": cmd_cup_length,
            "check-map": cmd_check_map,
            "degree1-report": cmd_degree1_report,
            "verify-paper": cmd_verify_paper,
            "catalogue": cmd_catalogue,
        }[args.command]
        return handler(args)
    except SpaceFileError as exc:
        print(f"lscat: {exc} [{exc.kind}]", file=sys.stderr)
        return EXIT_PARSE
    except HomValidationError as exc:
        print("lscat: invalid homomorphism:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_PARSE
    except (_UsageError, UnknownSpaceError, DimensionMismatch, OSError) as exc:
        print(f"lscat: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    """The process entry: ``main()``, then leave without the interpreter's
    teardown.  The answer is on the streams once they are flushed, and a
    request holds nothing else to release (no file open for writing, no
    atexit callback, no thread), so ``os._exit`` ends it.  If a flush fails
    (a closed pipe, say), it leaves through ``sys.exit``, whose teardown
    reports the failure."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError, AttributeError):  # a broken pipe, a closed or absent stream
        sys.exit(code)
    os._exit(code)


# -- resolution ----------------------------------------------------------------


def _read_file(token: str, optional: bool = False) -> str | None:
    """The text of the file ``token`` names, read as pathlib reads a path:
    empty and ``.`` parts are dropped, so ``x.space/`` names ``x.space``.
    An optional read returns None where no regular file is; any other
    read raises OSError.  Text that is not UTF-8 raises SpaceFileError."""
    path = "/" * token.startswith("/") + "/".join(p for p in token.split("/") if p not in ("", "."))
    path = path or "."
    if optional and not os.path.isfile(path):
        return None
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise SpaceFileError(f"{path}: not UTF-8 text ({exc.reason} at offset {exc.start})") from None


def _load_extra_spaces(paths: list[str]) -> dict[str, SpaceRecord]:
    """The ``--space`` files' records by name; a name given again takes the last."""
    return {record.name: record for record in (parse_space(_read_file(p)) for p in paths)}


def _resolve_space(token: str, loaded: dict[str, SpaceRecord]) -> SpaceRecord:
    """The record a token names: an extra space's, a file's, parsed once per
    request and kept in ``loaded``, or else the catalogue's."""
    if token not in loaded:
        text = _read_file(token, optional=True)
        if text is None:
            return catalogue.get(token)
        loaded[token] = parse_space(text)
    return loaded[token]


def _manifold(record: SpaceRecord) -> SpaceRecord:
    """The record, unless its ring lacks the mod-2 Poincare duality of every
    closed manifold: the criteria hold for closed manifolds only.  A record
    without a ring (flags only) passes."""
    if record.ring is not None and not poincare_duality(record.ring):
        raise SpaceFileError(f"{record.name}: no mod-2 Poincare duality in dimension "
                             f"{record.dimension}; not the cohomology ring of a closed manifold",
                             kind="non-manifold")
    return record


def _load_map(path: str, loaded: dict[str, SpaceRecord]) -> tuple:
    """A map file's spec, its domain and range records, and its induced
    homomorphism, validated: a space it names that resolves nowhere, to no
    closed manifold or to one of too many degrees or basis elements, and
    images that define no ring homomorphism are file errors, raised before
    any check of the pair (names, rings, dimensions)."""
    spec = parse_map(_read_file(path))
    try:
        domain, range_ = _resolve_space(spec.domain, loaded), _resolve_space(spec.range, loaded)
    except UnknownSpaceError as exc:
        raise SpaceFileError(str(exc), kind="unknown-space") from exc
    domain, range_ = (_manifold(r).within_limits(mapped=True) for r in (domain, range_))
    return spec, domain, range_, validate_hom(resolve_map(spec, domain, range_))


def _emit(args, payload: dict, text: list[str]) -> None:
    if args.json:
        import json  # only --json output needs it; keeps it out of start-up
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(text))


# -- commands -------------------------------------------------------------------


def cmd_show(args) -> int:
    record = _resolve_space(args.space, {})
    if args.json:
        import json
        print(json.dumps(_record_dict(record), indent=2, sort_keys=True))
        return EXIT_OK
    print(serialize_space(record), end="")
    return EXIT_OK


def _record_dict(record: SpaceRecord) -> dict:
    ring = record.ring
    if isinstance(ring, TruncatedPresentation):
        ring_info = {
            "kind": "presentation",
            "generators": [(g.name, g.degree) for g in ring.generators],
            "truncations": list(ring.truncations),
        }
    elif isinstance(ring, MultiplicationTable):
        ring_info = {"kind": "table", "basis": [list(b) for b in ring.basis]}
    else:
        ring_info = None
    return {
        "name": record.name,
        "dimension": record.dimension,
        "connectivity": record.connectivity,
        "orientable": record.orientable,
        "stably_parallelizable": record.stably_parallelizable,
        "known_cat": list(record.known_cat) if record.known_cat else None,
        "genus": record.genus,
        "ring": ring_info,
        "notes": list(record.notes),
    }


def cmd_invariants(args) -> int:
    record = _resolve_space(args.space, {}).within_limits()
    payload: dict = {
        "space": record.name,
        "dimension": record.dimension,
        "connectivity": record.connectivity,
        "stably_parallelizable": record.stably_parallelizable,
        "orientable": record.orientable,
        "known_cat": list(record.known_cat) if record.known_cat else None,
        "notes": list(record.notes),
    }
    text = [f"space {record.name}: dim {record.dimension}, connectivity {record.connectivity}"]
    if record.ring is None:
        payload.update(dict.fromkeys(("poincare_polynomial", "cup_length", "poincare_duality",
                                      "ledger")))
        text.append("no ring data stored; ring invariants not applicable")
    else:
        ring = record.ring
        poly = ring.poincare_polynomial()
        cl = cup_length_check(ring).to_dict()
        duality = poincare_duality(ring)
        ledger = record.ledger()
        payload.update({"poincare_polynomial": poly, "cup_length": cl, "poincare_duality": duality,
                        "ledger": ledger.to_dict()})
        text.append("poincare polynomial: " + " ".join(str(c) for c in poly))
        # the values that ran; two agree, as the ledger raised otherwise
        ran = [f"{cl[way]} ({way})" for way in ("formula", "search") if cl[way] is not None]
        text.append("cup-length: " + " = ".join(ran) + " [agree]" * (len(ran) == 2))
        text.append(f"poincare duality: {duality}")
        text.append(f"cat {ledger.cat}; e* {ledger.toomer_e}; ballcat {ledger.ballcat}; "
                    f"crit {ledger.crit}; crit* {ledger.crit_star}")
    if record.known_cat:
        text.append(f'known cat: {record.known_cat[0]} -- "{record.known_cat[1]}"')
    for note in record.notes:
        text.append(f"note: {note}")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_cup_length(args) -> int:
    record = _resolve_space(args.space, {})
    if record.ring is None:
        print(f"lscat: error: {record.name} has no ring data", file=sys.stderr)
        return EXIT_USAGE
    check = cup_length_check(record.ring)
    text = [f"cup-length of {record.name}: {check.value}"]
    if check.agree is not None:
        text.append(f"formula {check.formula} / search {check.search}: "
                    + ("agree" if check.agree else "MISMATCH"))
    _emit(args, {"space": record.name, "cup_length": check.to_dict()}, text)
    return EXIT_OK


def cmd_check_map(args) -> int:
    spec, domain, range_, vh = _load_map(args.mapfile, _load_extra_spaces(args.space))
    check_dimensions(domain, range_)
    per_degree, injective = check_injectivity(vh)
    top_ok = check_top_class(vh)
    violated = not injective or not top_ok
    payload = {
        "map": spec.name,
        "domain": domain.name,
        "range": range_.name,
        "asserted_degree": spec.degree,
        "valid_ring_homomorphism": True,
        "injective_per_degree": {str(d): ok for d, ok in per_degree.items()},
        "injective_overall": injective,
        "top_class_preserved": top_ok,
    }
    text = [
        f"map {spec.name}: {domain.name} -> {range_.name}, asserted degree {spec.degree:+d}",
        "induced homomorphism is a valid graded ring homomorphism",
    ]
    for d in sorted(per_degree):
        text.append(f"  degree {d}: {'injective' if per_degree[d] else 'NOT injective'}")
    text.append(f"top class preserved: {top_ok}")
    text.append("verdict: violated (no such degree +-1 map exists)" if violated
                else "verdict: consistent with a degree +-1 map")
    payload["verdict"] = "violated" if violated else "consistent"
    _emit(args, payload, text)
    return EXIT_VIOLATED if violated else EXIT_OK


def cmd_degree1_report(args) -> int:
    loaded = _load_extra_spaces(args.space)
    m_record, n_record = (_manifold(_resolve_space(t, loaded)) for t in (args.domain, args.range))
    hom = None
    if args.mapfile:
        _, map_domain, map_range, hom = _load_map(args.mapfile, loaded)
        if (map_domain.name, map_range.name) != (m_record.name, n_record.name):
            raise _UsageError(
                f"map file connects {map_domain.name} -> {map_range.name}, "
                f"not {m_record.name} -> {n_record.name}"
            )
        for role, mine, given in (("domain", map_domain, m_record), ("range", map_range, n_record)):
            if not _same_ring(mine.ring, given.ring):
                raise _UsageError(f"map file's {role} {mine.name} has a different ring "
                                  f"from the given {role}")
    report = full_report(m_record, n_record, hom=hom)
    payload = report.to_dict()
    text = [
        f"degree-1 comparison for maps f: {report.domain} -> {report.range} "
        f"(equal dimensions {m_record.dimension})"
    ]
    for v in report.verdicts:
        text.append(f"  {v.criterion_id}: {v.status} -- {v.reason}")
        for c in v.citations:
            text.append(f"      [{c}]")
    text.append(f"overall: {report.overall}")
    for note in report.notes:
        text.append(f"note: {note}")
    _emit(args, payload, text)
    return {CERTIFIED: EXIT_OK, VIOLATED: EXIT_VIOLATED, INCONCLUSIVE: EXIT_INCONCLUSIVE}[
        report.overall
    ]


def cmd_verify_paper(args) -> int:
    rows = []
    for n, (dim_expected, truncs_expected, cl_expected) in SO_REFERENCE.items():
        p = so_n_presentation(n)
        cl = cup_length_check(p)
        record = catalogue.get(f"SO{n}")
        known = record.known_cat[0] if record.known_cat else None
        checks = [
            p.top_degree == dim_expected == n * (n - 1) // 2,
            p.truncations == truncs_expected,
            cl.formula == cl_expected,
            cl.search == cl_expected,
            known == cl_expected,
        ]
        rows.append(
            {
                "row": f"SO{n}",
                "dimension": p.top_degree,
                "truncations": list(p.truncations),
                "cup_length_formula": cl.formula,
                "cup_length_search": cl.search,
                "known_cat": known,
                "ok": all(checks),
            }
        )

    g2 = catalogue.get("G2")
    x14 = SpaceRecord(
        name="X14",
        dimension=14,
        connectivity=0,
        orientable=True,
        stably_parallelizable=True,
        ring=None,
    )
    verdict = thm_main_check(x14, g2)
    g2_ok = verdict.status == CERTIFIED and "20" in verdict.reason
    rows.append(
        {
            "row": "G2",
            "condition": "dim 14 <= 2*q*cat - 4 = 20 (q = 3, cat = 4)",
            "status": verdict.status,
            "ok": g2_ok,
        }
    )

    st = torus_stabilization_k(14)
    torus_ok = st.k == 18 and st.lhs == st.rhs == 32
    rows.append(
        {
            "row": "torus stabilization",
            "k": st.k,
            "inequality": f"2k-4 = {st.lhs} >= k+n = {st.rhs}",
            "ok": torus_ok,
        }
    )

    import random  # only this command draws random rings

    rng = random.Random(args.seed)
    spot_ok = all(cup_length_check(_random_presentation(rng)).agree for _ in range(5))
    rows.append(
        {"row": "randomized oracle spot-check", "cases": 5, "seed": args.seed, "ok": spot_ok}
    )

    ok_all = all(row["ok"] for row in rows)
    payload = {"rows": rows, "ok": ok_all}
    text = []
    for row in rows:
        status = "OK" if row["ok"] else "FAIL"
        detail = ", ".join(
            f"{k} {v}" for k, v in row.items() if k not in ("row", "ok")
        )
        text.append(f"{row['row']:<28} {detail}  [{status}]")
    text.append("all checks passed" if ok_all else "MISMATCH DETECTED")
    _emit(args, payload, text)
    return EXIT_OK if ok_all else EXIT_MISMATCH


def _random_presentation(rng) -> TruncatedPresentation:
    while True:
        k = rng.randint(1, 3)
        gens = tuple(GeneratorSpec(f"g{i}", rng.randint(1, 4)) for i in range(k))
        truncs = tuple(rng.choice((2, 2, 3, 4, 8)) for _ in range(k))
        if math.prod(truncs) <= 256:
            top = sum((q - 1) * g.degree for g, q in zip(gens, truncs))
            return TruncatedPresentation(gens, truncs, top)


def cmd_catalogue(args) -> int:
    entries = []
    for name in catalogue.names():
        record = catalogue.get(name)
        entries.append(
            {
                "name": name,
                "dimension": record.dimension,
                "known_cat": record.known_cat[0] if record.known_cat else None,
            }
        )
    payload = {"spaces": entries}
    text = [f"{e['name']:<8} dim {e['dimension']:<3} known cat {e['known_cat']}" for e in entries]
    families = (f"{prefix}{letter} ({letter} >= {least})"
                for prefix, (letter, least, *_) in catalogue.FAMILIES.items())
    text.append(f"families: {', '.join(families)}; products on demand, e.g. S3xS3")
    _emit(args, payload, text)
    return EXIT_OK


if __name__ == "__main__":
    entry()

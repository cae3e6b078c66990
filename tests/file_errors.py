"""Malformed space and map files, each with what parsing it must give.

A row is ``(format, text, expected)``: ``format`` is ``"space"`` or
``"map"``, and ``expected`` is ``(message, kind, line)`` of the
``SpaceFileError`` the parser raises (``line`` None for an error of the
whole file).  The rows cover every keyword with too few and too many
arguments, a line before the header, an unknown keyword, a missing
header or field, a wrong-arity ring line after a line of the other ring
kind, every line given twice (a ``product`` pair in either order), and a
``product`` line that breaks a ring law while the table is built.

``tests/test_spacefile.py`` asserts each row, and ``tools/same_outputs.py``
runs each file through the command line, so the error of every file is
compared between two trees.
"""

from __future__ import annotations

SPACE = "space X\ndim 2\n"  # a header and the required field
MAP = "map f\ndomain T2\nrange T2\ndegree +1\n"

# keyword: its usage, too few and too many arguments, and a line of it that
# reads, for the usage and repeat rows
KEYWORDS = {
    "space": {
        "space": ("space NAME", "", "X Y", "space X"),
        "dim": ("dim N", "", "2 3", "dim 2"),
        "connectivity": ("connectivity C", "", "0 1", "connectivity 0"),
        "stably-parallelizable": ("stably-parallelizable BOOL", "", "true false",
                                  "stably-parallelizable true"),
        "orientable": ("orientable BOOL", "", "true false", "orientable true"),
        "known-cat": ('known-cat K "CITATION"', "2", '2 "c" 3', 'known-cat 2 "c"'),
        "generator": ("generator NAME DEGREE", "a", "a 1 2", "generator a 1"),
        "truncate": ("truncate NAME EXPONENT", "a", "a 2 3", "truncate a 2"),
        "basis": ("basis LABEL DEGREE", "a", "a 1 2", "basis a 1"),
        "product": ("product LABEL LABEL = EXPR", "a a", "a a a = 0", "product a a = w"),
    },
    "map": {
        "map": ("map NAME", "", "f g", "map f"),
        "domain": ("domain SPACE", "", "T2 T3", "domain T2"),
        "range": ("range SPACE", "", "T2 T3", "range T2"),
        "degree": ("degree +1|-1", "", "+1 -1", "degree +1"),
        "send": ("send GEN -> EXPR", "t1", "t1 t2 -> t1", "send t1 -> t1"),
    },
}
HEADER = {"space": "space X\n", "map": "map f\n"}

# each keyword's line given twice, after what it needs, with the error the
# second line raises
REPEATS = {
    "space": [
        ("", "space", ("line 2: duplicate space line", "syntax", 2)),
        ("space X\n", "dim", ("line 3: duplicate dim line", "syntax", 3)),
        (SPACE, "connectivity", ("line 4: duplicate connectivity line", "syntax", 4)),
        (SPACE, "stably-parallelizable",
         ("line 4: duplicate stably-parallelizable line", "syntax", 4)),
        (SPACE, "orientable", ("line 4: duplicate orientable line", "syntax", 4)),
        (SPACE, "known-cat", ("line 4: duplicate known-cat line", "syntax", 4)),
        (SPACE, "generator", ("line 4: duplicate generator 'a'", "duplicate-generator", 4)),
        (SPACE + "generator a 1\n", "truncate", ("line 5: duplicate truncate for 'a'", "syntax", 5)),
        (SPACE, "basis", ("line 4: duplicate basis label 'a'", "duplicate-basis", 4)),
        (SPACE + "basis 1 0\nbasis a 1\nbasis w 2\n", "product",
         ("line 7: duplicate product a*a", "syntax", 7)),
    ],
    "map": [
        ("", "map", ("line 2: duplicate map line", "syntax", 2)),
        ("map f\n", "domain", ("line 3: duplicate domain line", "syntax", 3)),
        ("map f\ndomain T2\n", "range", ("line 4: duplicate range line", "syntax", 4)),
        ("map f\ndomain T2\nrange T2\n", "degree", ("line 5: duplicate degree line", "syntax", 5)),
        (MAP, "send", ("line 6: duplicate send for 't1'", "syntax", 6)),
    ],
}
# what a file needs after the repeated lines to be whole
REPEAT_TAILS = {"domain": "range T2\ndegree +1\n", "range": "degree +1\n"}

MIXED = "generator/truncate lines cannot be mixed with basis/product lines"


def _rows() -> list[tuple[str, str, tuple]]:
    rows = []
    for fmt, keywords in KEYWORDS.items():
        header = HEADER[fmt]
        for keyword, (usage, few, many, _) in keywords.items():
            before = "" if keyword == fmt else header
            line = 1 if keyword == fmt else 2
            for args in (few, many):
                text = before + f"{keyword} {args}".strip() + "\n"
                rows.append((fmt, text, (f"line {line}: usage: {usage}", "syntax", line)))
        for before, keyword, expected in REPEATS[fmt]:
            line = keywords[keyword][3]
            tail = REPEAT_TAILS.get(keyword, "")
            rows.append((fmt, before + f"{line}\n{line}\n" + tail, expected))
        # a line before the header, known keyword or not
        for first in ("dim 2" if fmt == "space" else "domain T2", "frobnicate"):
            rows.append((fmt, f"{first}\n{header}",
                         (f"line 1: file must start with a {fmt} line", "syntax", 1)))
        rows.append((fmt, header + "frobnicate yes\n",
                     ("line 2: unknown keyword 'frobnicate'", "syntax", 2)))
        rows.append((fmt, "# no header\n", (f"missing {fmt} line", "syntax", None)))
    rows.append(("space", "space X\n", ("dim missing", "missing-dim", None)))
    for text, field in (("map f\n", "domain"), ("map f\ndomain T2\n", "range"),
                        ("map f\ndomain T2\nrange T2\n", "degree")):
        rows.append(("map", text, (f"{field} missing", "missing-field", None)))
    # a second product of the same pair, which once replaced the first
    square = SPACE + "basis 1 0\nbasis a 1\nbasis w 2\nproduct a a = w\n"
    rows.append(("space", square + "product a a = 0\n",
                 ("line 7: duplicate product a*a", "syntax", 7)))
    # the cup product commutes, so b*a repeats a*b, with its value or another
    pair = SPACE + "basis 1 0\nbasis a 1\nbasis b 1\nbasis w 2\nproduct a b = w\n"
    for value in ("w", "0"):
        rows.append(("space", pair + f"product b a = {value}\n",
                     ("line 8: duplicate product b*a", "syntax", 8)))
    # a product line that breaks a ring law while the table is built
    laws = {"product a a = a": "product a*a not degree-additive: 'a' has degree 1, expected 2",
            "product a w = w": "product a*w exceeds top degree but is nonzero",
            "product a 1 = b": "unit law violated at 'a'"}
    for line, message in laws.items():
        rows.append(("space", pair + f"{line}\n", (f"line 8: {message}", "syntax", 8)))
    # a ring line of the wrong arity after a line of the other ring kind
    for first, keyword in (("basis 1 0", "generator"), ("basis 1 0", "truncate"),
                           ("generator a 1", "basis"), ("generator a 1", "product")):
        rows.append(("space", SPACE + f"{first}\n{keyword} a\n",
                     (f"line 4: {MIXED}", "mixed-ring-kinds", 4)))
    return rows


FILE_ERRORS = _rows()

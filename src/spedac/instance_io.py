"""Plain-text instance files.

Format (0-based ids, LF line endings, single spaces):

    SPEDAC 1
    n m c s t
    tail head weight     (m arc lines)
    arcA arcB penalty    (c conflict lines)

parse_instance(render_instance(x)) reproduces x exactly.  Syntax
problems raise ParseError with the offending line number; structural
problems surface as InvariantError from the core model, naming the
violated rule.
"""

from __future__ import annotations

import re
from itertools import chain, islice, starmap
from pathlib import Path
from typing import Callable

from .core import ArcRecord, ConflictRecord, Instance

FORMAT_HEADER = "SPEDAC 1"


class ParseError(ValueError):
    """Syntactically invalid instance text."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_INTEGER = re.compile(r"-?[0-9]+")


def _canonical_int(part: str) -> int:
    # int() also takes '+7', '1_0' and non-ASCII digits; the format does not.
    if _INTEGER.fullmatch(part) is None:
        raise ValueError(part)
    return int(part)


def _ints(
    line_no: int, line: str, count: int, what: str, to_int: Callable[[str], int]
) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise ParseError(line_no, f"expected {count} fields for {what}, got {len(parts)}")
    values = []
    for part in parts:
        try:
            values.append(to_int(part))
        except ValueError:
            raise ParseError(line_no, f"expected integer, got {part!r}") from None
    return values


def parse_instance(text: str) -> Instance:
    """Parse instance text; see the module docstring for the format.

    An integer field is an optional '-' and ASCII digits.  Only a text
    holding a character that int() takes beyond that ('+', '_' or a
    non-ASCII digit) has its fields matched one by one.  The body is
    read in bulk, and again line by line only if that fails, so that the
    first bad line or record raises its own error.
    """
    canonical = text.isascii() and "_" not in text and "+" not in text
    to_int = int if canonical else _canonical_int
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        found = lines[0].strip() if lines else "<empty file>"
        raise ParseError(1, f"expected header {FORMAT_HEADER!r}, got {found!r}")
    if len(lines) < 2:
        raise ParseError(2, "missing counts line 'n m c s t'")
    n, m, c, s, t = _ints(2, lines[1], 5, "counts 'n m c s t'", to_int)
    if min(n, m, c) < 0:
        raise ParseError(2, f"counts n, m and c must be non-negative, got {n} {m} {c}")
    body = lines[2:]
    while body and not body[-1].strip():
        body.pop()
    if len(body) < m + c:
        raise ParseError(3 + len(body), f"expected {m} arc lines and {c} conflict lines,"
                                        f" file ends after {len(body)} body lines")
    if len(body) > m + c:
        raise ParseError(3 + m + c, f"unexpected extra line after {m} arc lines"
                                    f" and {c} conflict lines")
    try:
        if set(map(len, map(str.split, body))) - {3}:
            raise ValueError
        fields = map(to_int, chain.from_iterable(map(str.split, body)))
        triples = zip(fields, fields, fields)
        arcs = tuple(starmap(ArcRecord, islice(triples, m)))
        conflicts = tuple(starmap(ConflictRecord, triples))
    except ValueError:
        arcs = conflicts = None
    if arcs is None:
        for i, line in enumerate(body):
            if i < m:
                ArcRecord(*_ints(3 + i, line, 3, "arc 'tail head weight'", to_int))
            else:
                ConflictRecord(*_ints(3 + i, line, 3, "conflict 'arcA arcB penalty'", to_int))
    return Instance(vertex_count=n, arcs=arcs, conflicts=conflicts, source=s, sink=t)


def render_instance(instance: Instance) -> str:
    """Canonical text for an instance (LF endings, trailing newline)."""
    lines = [
        FORMAT_HEADER,
        f"{instance.vertex_count} {len(instance.arcs)} {len(instance.conflicts)}"
        f" {instance.source} {instance.sink}",
    ]
    lines.extend(f"{a.tail} {a.head} {a.weight}" for a in instance.arcs)
    lines.extend(f"{c.arc_a} {c.arc_b} {c.penalty}" for c in instance.conflicts)
    return "\n".join(lines) + "\n"


def load_instance(path: str | Path) -> Instance:
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(line_no, f"non-ASCII byte 0x{raw[exc.start]:02x}") from None
    return parse_instance(text)


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(render_instance(instance), encoding="ascii", newline="\n")

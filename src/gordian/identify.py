"""Fingerprint tables and identification evidence.

Identification here is evidence, not proof: two knots with equal
fingerprints are almost certainly the same, but nothing rules out a
collision, so every positive report is labelled "fingerprint evidence".
There is one same-knot rule: a fingerprint is the same knot as a
reference when it equals the reference's fingerprint, and its mirror
image when it equals that fingerprint's ``mirrored()``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .codes import DTCode, parse_dt, realize_dt, render_dt
from .errors import InputError, UnrealizableError
from .invariants import Fingerprint, fingerprint

# The reference codes shipped with the package: the unknot, the torus knot
# 7_1 (as a flipped 10_139 code), and the knots appearing in the bundled
# unknotting certificates.  K15n81556 deliberately appears twice, with two
# different diagrams that must collapse to one fingerprint; the second code
# is kept as an alias of the first entry, since the certificate presents it.
BUNDLED_CODES: tuple[tuple[str, str], ...] = (
    ("unknot", "DT:[]"),
    ("7_1", "DT:[12, 14, -10, -20, 16, 18, 2, -8, 4, -6]"),
    ("10_139", "DT:[12, 14, -10, -20, -16, 18, 2, -8, 4, -6]"),
    (
        "K14a18636",
        "DT:[4, -16, 24, 26, 18, 20, 28, 22, -2, 10, 12, 30, 6, 8, 14]",
    ),
    (
        "K15n81556",
        "DT:[-4, -16, 24, 26, 18, 20, 28, 22, -2, 10, 12, 30, 6, 8, 14]",
    ),
    (
        "K15n81556",
        "DT:[4, 12, -24, 14, 18, 2, 20, 26, 8, 10, -28, -30, 16, -6, -22]",
    ),
    (
        "K12n412",
        "DT:[4, 12, -24, 14, 18, 2, -20, 26, 8, 10, -28, -30, 16, -6, -22]",
    ),
)


@dataclass(frozen=True)
class KnotTableEntry:
    """A named reference knot and the fingerprint of its own code.

    The mirror image's fingerprint is ``fingerprint.mirrored()``.
    ``aliases`` are further codes of the knot whose diagrams have exactly
    ``fingerprint``, not only its mirror.
    """

    name: str
    dt: DTCode
    fingerprint: Fingerprint
    aliases: tuple[DTCode, ...] = ()

    def codes(self) -> tuple[DTCode, ...]:
        """Every code of the entry, its own first."""
        return (self.dt, *self.aliases)


_NAME = re.compile(r"[^\s#(),;~][^\s#(),;]*")


def _admit(table: list[KnotTableEntry], entry: KnotTableEntry) -> None:
    """Add ``entry`` to ``table`` under the rules every table obeys.

    A name is one token that ``--name``, ``--targets`` and a search log line
    all read back whole: no whitespace, none of ``#(),;``, no leading ``~``,
    and not ``base`` or ``?``, which are search results of their own.

    Repeated names must agree up to mirror, and then collapse to the first
    entry.  A repeated code with exactly the first entry's fingerprint is
    kept as one of its aliases; one with only the mirror of it is dropped,
    so that no code stands for the wrong chirality.  Two different names
    whose fingerprints agree up to mirror would make every identification
    ambiguous, so that is a hard failure rather than a warning.
    """
    name = entry.name
    if not _NAME.fullmatch(name) or name in ("base", "?"):
        raise InputError(
            f"bad table name {name!r}: a name is one token, with no "
            "whitespace or any of #(),;, no leading ~, and not base or ?"
        )
    same = (entry.fingerprint, entry.fingerprint.mirrored())
    for i, existing in enumerate(table):
        if existing.name != name:
            continue
        if existing.fingerprint not in same:
            raise InputError(f"duplicate name {name} with different fingerprints")
        if existing.fingerprint == entry.fingerprint:
            table[i] = replace(existing, aliases=existing.aliases + (entry.dt,))
        return
    for other in table:
        if other.fingerprint in same:
            raise InputError(
                f"fingerprint collision between {other.name} and {name}"
            )
    table.append(entry)


def build_table(entries: list[tuple[str, DTCode]]) -> list[KnotTableEntry]:
    """Fingerprint each code; reject unrealizable codes and what ``_admit``
    refuses.  Errors while fingerprinting propagate."""
    table: list[KnotTableEntry] = []
    for name, code in entries:
        try:
            d = realize_dt(code)
        except (InputError, UnrealizableError) as exc:
            raise InputError(f"table entry {name}: {exc}") from None
        _admit(table, KnotTableEntry(name, code, fingerprint(d)))
    return table


_DEFAULT_TABLE: list[KnotTableEntry] | None = None


def default_table() -> list[KnotTableEntry]:
    """The bundled reference table, built once per process."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = build_table(
            [(name, parse_dt(text)) for name, text in BUNDLED_CODES]
        )
    return _DEFAULT_TABLE


def identify(
    fp: Fingerprint, table: list[KnotTableEntry]
) -> tuple[str, str] | None:
    """The name in ``table`` matching the fingerprint ``fp`` and the
    chirality that matched, or None.  At most one entry matches, since
    ``_admit`` refuses two names whose fingerprints agree up to mirror; an
    amphichiral knot matches as listed."""
    fp_mirror = fp.mirrored()
    for entry in table:
        if fp == entry.fingerprint:
            return entry.name, "as-listed"
        if fp_mirror == entry.fingerprint:
            return entry.name, "mirror"
    return None


def save_table(table: list[KnotTableEntry], path: str) -> None:
    """Write the tab-separated table file: one line per code, an entry's
    own code first and then its aliases, each with the entry's
    fingerprint and its mirror's."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in table:
            fps = f"{e.fingerprint.render()}\t{e.fingerprint.mirrored().render()}"
            for code in e.codes():
                fh.write(f"{e.name}\t{render_dt(code)}\t{fps}\n")


def load_table(path: str) -> list[KnotTableEntry]:
    """Read a table file, recomputing fingerprints to detect corruption.

    Fingerprints in the file are never trusted: each is recomputed from
    the stored DT code, and any mismatch raises an integrity error.  The
    lines are then admitted under the same rules as ``build_table``, so an
    alias line becomes an alias again.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read table file: {exc}") from None
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise InputError(
                f"table integrity: line {lineno} has {len(fields)} fields"
            )
        rows.append((lineno, fields))
    table: list[KnotTableEntry] = []
    for lineno, (name, dt_text, fp_text, fpm_text) in rows:
        try:
            code = parse_dt(dt_text)
            d = realize_dt(code)
        except (InputError, UnrealizableError) as exc:
            raise InputError(
                f"table integrity: line {lineno} ({name}): {exc}"
            ) from None
        fp = fingerprint(d)
        if fp.render() != fp_text or fp.mirrored().render() != fpm_text:
            raise InputError(
                f"table integrity: line {lineno} ({name}) does not match "
                "its recomputed fingerprint"
            )
        try:
            _admit(table, KnotTableEntry(name, code, fp))
        except InputError as exc:
            raise InputError(f"table integrity: line {lineno}: {exc}") from None
    return table

"""Fingerprint tables and identification evidence.

Identification here is evidence, not proof: two knots with equal
fingerprints are almost certainly the same, but nothing rules out a
collision, so every positive report is labelled "fingerprint evidence".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .codes import DTCode, parse_dt, realize_dt, render_dt
from .diagram import PDDiagram
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
    """A named reference knot with both chirality fingerprints.

    ``aliases`` are further codes of the knot whose diagrams have exactly
    ``fingerprint``, not only its mirror.
    """

    name: str
    dt: DTCode
    fingerprint: Fingerprint
    fingerprint_mirror: Fingerprint
    aliases: tuple[DTCode, ...] = ()

    def codes(self) -> tuple[DTCode, ...]:
        """Every code of the entry, its own first."""
        return (self.dt, *self.aliases)

    def pair(self) -> frozenset[Fingerprint]:
        return frozenset((self.fingerprint, self.fingerprint_mirror))


def _admit(table: list[KnotTableEntry], entry: KnotTableEntry) -> None:
    """Add ``entry`` to ``table`` under the rules every table obeys.

    Repeated names must agree, and then collapse to the first entry.  A
    repeated code with exactly the first entry's fingerprint is kept as
    one of its aliases; one with only the mirror of it is dropped, so that
    no code stands for the wrong chirality.  Two different names with
    overlapping fingerprint pairs would make every identification
    ambiguous, so that is a hard failure rather than a warning.
    """
    for i, existing in enumerate(table):
        if existing.name != entry.name:
            continue
        if existing.pair() != entry.pair():
            raise InputError(
                f"duplicate name {entry.name} with different fingerprints"
            )
        if existing.fingerprint == entry.fingerprint:
            table[i] = replace(existing, aliases=existing.aliases + (entry.dt,))
        return
    for other in table:
        if entry.pair() & other.pair():
            raise InputError(
                f"fingerprint collision between {other.name} and {entry.name}"
            )
    table.append(entry)


def build_table(entries: list[tuple[str, DTCode]]) -> list[KnotTableEntry]:
    """Fingerprint each code; reject unrealizable codes, collisions and
    inconsistent duplicates.  Errors while fingerprinting propagate."""
    table: list[KnotTableEntry] = []
    for name, code in entries:
        try:
            d = realize_dt(code)
        except (InputError, UnrealizableError) as exc:
            raise InputError(f"table entry {name}: {exc}") from None
        fp = fingerprint(d)
        _admit(table, KnotTableEntry(name, code, fp, fp.mirrored()))
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
    d: PDDiagram | Fingerprint, table: list[KnotTableEntry] | None = None
) -> list[tuple[str, str]]:
    """All table names matching ``d``, each with the chirality that matched.

    Returns ``[]`` for an unidentified knot; more than one element means
    the table itself is ambiguous (the bundled table never is).
    """
    if table is None:
        table = default_table()
    fp = d if isinstance(d, Fingerprint) else fingerprint(d)
    matches = []
    for entry in table:
        if fp == entry.fingerprint:
            matches.append((entry.name, "as-listed"))
        elif fp == entry.fingerprint_mirror:
            matches.append((entry.name, "mirror"))
    return matches


@dataclass(frozen=True)
class EvidenceReport:
    """Outcome of a fingerprint comparison between two diagrams."""

    verdict: str  # PASS | PASS-UP-TO-MIRROR | FAIL
    comparisons: tuple[tuple[str, str, str], ...]  # (invariant, left, right)

    @property
    def passed(self) -> bool:
        return self.verdict != "FAIL"


def same_knot_evidence(
    a: PDDiagram | Fingerprint, b: PDDiagram | Fingerprint
) -> EvidenceReport:
    """Compare two knots invariant by invariant."""
    fa = a if isinstance(a, Fingerprint) else fingerprint(a)
    fb = b if isinstance(b, Fingerprint) else fingerprint(b)
    if fa == fb:
        verdict = "PASS"
    elif fa == fb.mirrored():
        verdict = "PASS-UP-TO-MIRROR"
    else:
        verdict = "FAIL"
    comparisons = (
        ("alexander", fa.alexander.render(), fb.alexander.render()),
        ("jones", fa.jones.render(), fb.jones.render()),
        ("signature", f"{fa.signature:+d}", f"{fb.signature:+d}"),
        ("determinant", str(fa.determinant), str(fb.determinant)),
    )
    return EvidenceReport(verdict, comparisons)


def save_table(table: list[KnotTableEntry], path: str) -> None:
    """Write the tab-separated table file: one line per code, an entry's
    own code first and then its aliases, each with the entry's
    fingerprints."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in table:
            fps = f"{e.fingerprint.render()}\t{e.fingerprint_mirror.render()}"
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
        fpm = fp.mirrored()
        if fp.render() != fp_text or fpm.render() != fpm_text:
            raise InputError(
                f"table integrity: line {lineno} ({name}) does not match "
                "its recomputed fingerprint"
            )
        try:
            _admit(table, KnotTableEntry(name, code, fp, fpm))
        except InputError as exc:
            raise InputError(f"table integrity: line {lineno}: {exc}") from None
    return table

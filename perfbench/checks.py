"""Correctness gates for the benchmark's outputs.

Output is compared byte for byte with a reference recorded from this
benchmark's parent commit where one exists.  Every invariant block and
every fingerprint is also checked against identities that hold for the
invariants of any knot, so an input without a recorded reference (a new
seed, or a search trial that used to be skipped) is still checked:

- Alexander: symmetric, value 1 at t = 1, and |value at -1| is the
  determinant;
- Jones: V(1) = 1, V'(1) = 0, V(e^{2 pi i/3}) = 1, |V(-1)| is the
  determinant, and V(i) = (-1)^Arf, where Arf = 0 exactly when the
  determinant is +-1 mod 8;
- signature: even, and divisible by 4 exactly when the determinant is
  1 mod 4; the Murasugi bound is |signature| / 2.
"""

from __future__ import annotations

import re

_TERM = re.compile(r"([+-]?)(?:(\d+)\*)?(?:(t)(?:\^(-?\d+))?|(\d+))")


def parse_poly(text: str) -> dict[int, int]:
    """Exponent -> coefficient of a polynomial rendered by ``LaurentPoly``."""
    s = text.replace(" ", "")
    terms: dict[int, int] = {}
    if s == "0":
        return terms
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"not a polynomial: {text!r}")
        sign, mag, var, exp, const = m.groups()
        if var:
            coeff, e = int(mag or 1), int(exp or 1)
        else:
            coeff, e = int(const), 0
        terms[e] = terms.get(e, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
    return terms


def knot_identities(alexander: str, jones: str, signature: int, det: int) -> list[str]:
    """The identities above that these invariants break, as messages."""
    bad = []
    try:
        alex, jon = parse_poly(alexander), parse_poly(jones)
    except ValueError as exc:
        return [str(exc)]
    if any(alex.get(-e, 0) != c for e, c in alex.items()):
        bad.append("Alexander is not symmetric")
    if sum(alex.values()) != 1:
        bad.append("Alexander(1) != 1")
    if abs(sum(c * (-1) ** (e % 2) for e, c in alex.items())) != det:
        bad.append("|Alexander(-1)| != determinant")
    if sum(jon.values()) != 1:
        bad.append("Jones(1) != 1")
    if sum(e * c for e, c in jon.items()) != 0:
        bad.append("Jones'(1) != 0")
    if abs(sum(c * (-1) ** (e % 2) for e, c in jon.items())) != det:
        bad.append("|Jones(-1)| != determinant")
    # Coefficient sums by exponent mod 3 and mod 4 give V at the cube and
    # fourth roots of unity.  With w = e^{2 pi i/3}, 1 + w + w^2 = 0, so
    # V(w) = 1 means (s0, s1, s2) = (s2 + 1, s2, s2); V(i) = s0 - s2 + (s1 - s3)i.
    s3 = [sum(c for e, c in jon.items() if e % 3 == r) for r in range(3)]
    if not (s3[1] == s3[2] and s3[0] == s3[2] + 1):
        bad.append("Jones(exp(2 pi i/3)) != 1")
    s4 = [sum(c for e, c in jon.items() if e % 4 == r) for r in range(4)]
    arf_sign = 1 if det % 8 in (1, 7) else -1
    if (s4[0] - s4[2], s4[1] - s4[3]) != (arf_sign, 0):
        bad.append("Jones(i) != (-1)^Arf")
    if signature % 2:
        bad.append("odd signature")
    elif (signature % 4 == 0) != (det % 4 == 1):
        bad.append("signature mod 4 disagrees with determinant mod 4")
    return bad


def invariants_block(lines: list[str], expected: list[str] | None) -> list[str]:
    """Problems with one ``gordian invariants`` output."""
    if expected is not None and lines != expected:
        return [f"output differs from the reference: {lines} != {expected}"]
    fields = dict(line.split(": ", 1) for line in lines if ": " in line)
    try:
        sig = int(fields["signature"])
        det = int(fields["determinant"])
        bound = int(fields["murasugi bound"].removeprefix("u >= "))
        bad = knot_identities(fields["alexander"], fields["jones"], sig, det)
    except (KeyError, ValueError) as exc:
        return [f"unreadable invariants output {lines}: {exc!r}"]
    if bound != abs(sig) // 2:
        bad.append("Murasugi bound != |signature| / 2")
    return bad


def search_line(line: str, expected: str | None) -> list[str]:
    """Problems with one search trial line.

    A completed trial must match the reference.  A trial the reference
    skipped may complete; a trial the reference completed may not be
    skipped.
    """
    fields = line.split()
    if expected is not None:
        if line == expected:
            return []
        ref_fields = expected.split()
        if " skip(" not in expected or fields[:2] != ref_fields[:2]:
            return [f"{line!r} != reference {expected!r}"]
    if len(fields) != 6:
        return [f"malformed trial line {line!r}"]
    if fields[4].startswith("skip("):
        return []
    try:
        parts = dict(item.split("=", 1) for item in fields[5].split(";"))
        return knot_identities(
            parts["alexander"],
            parts["jones"],
            int(parts["signature"]),
            int(parts["determinant"]),
        )
    except (KeyError, ValueError) as exc:
        return [f"unreadable fingerprint in {line!r}: {exc!r}"]

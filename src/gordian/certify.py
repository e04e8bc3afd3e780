"""Machine-checkable certificates for unknotting-number bounds.

A certificate is a sequence of steps.  Each step presents a diagram (as a
DT code or a braid word), changes the crossings at the given indices, and
optionally claims what knot the diagram is before and after the changes.
Consecutive steps must present the same knot that the previous step ended
on, so the total number of changes bounds the Gordian distance from the
first presentation to the last result.  A certificate whose final claim is
the unknot therefore bounds an unknotting number.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .braid import (
    BraidWord,
    braid_closure,
    flip_letters,
    parse_braid,
    render_braid,
)
from .codes import DTCode, flip_entries, parse_dt, realize_dt, render_dt
from .diagram import PDDiagram, parse_int_list
from .errors import InputError
from .identify import KnotTableEntry, identify
from .invariants import (
    Fingerprint,
    fingerprint,
    knot_invariants,
    murasugi_bound,
)
from .moves import deconnect_sum, simplify_global

Presentation = DTCode | BraidWord


@dataclass(frozen=True)
class CertificateStep:
    """One link of the chain: a diagram plus the crossings to change."""

    presentation: Presentation
    change_indices: frozenset[int]
    claimed_before: str | None = None
    claimed_after: str | None = None


@dataclass(frozen=True)
class UnknottingCertificate:
    steps: tuple[CertificateStep, ...]

    def change_count(self) -> int:
        return sum(len(s.change_indices) for s in self.steps)


def parse_presentation(text: str) -> Presentation | None:
    """Read ``DT:[...]`` or ``BRAID:[...]``; None when neither prefix starts
    the text."""
    if text.startswith("DT:"):
        return parse_dt(text)
    if text.startswith("BRAID:"):
        return parse_braid(text)
    return None


def _flipped(p: Presentation, flips) -> Presentation:
    """``p`` with the crossings at ``flips`` changed."""
    if isinstance(p, DTCode):
        return flip_entries(p, flips)
    return flip_letters(p, flips)


def realize(p: Presentation, flips=()) -> PDDiagram:
    """The diagram of ``p`` after changing the crossings at ``flips``."""
    q = _flipped(p, flips)
    if isinstance(q, DTCode):
        return realize_dt(q)
    return braid_closure(q)


def _render_presentation(p: Presentation) -> str:
    if isinstance(p, DTCode):
        return render_dt(p)
    return "BRAID:" + render_braid(p)


@dataclass(frozen=True)
class StepReport:
    index: int
    lines: tuple[str, ...]


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    bound: int
    steps: tuple[StepReport, ...]

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"certificate: {verdict}, total crossing changes = {self.bound}"

    def render(self) -> str:
        out = []
        for s in self.steps:
            out.extend(s.lines)
        out.append(self.summary())
        return "\n".join(out)


def _check_claim(
    fp: Fingerprint,
    claim: str,
    table: list[KnotTableEntry],
    where: str,
    lines: list[str],
) -> bool:
    match = identify(fp, table)
    found = "no table match" if match is None else "{} ({})".format(*match)
    if match is not None and match[0] == claim:
        lines.append(f"  {where}: {found} [fingerprint evidence]")
        return True
    lines.append(f"  {where}: FAIL, claimed {claim} but found {found}")
    return False


def _fingerprint(
    known: dict[Presentation, Fingerprint], p: Presentation
) -> Fingerprint:
    """The fingerprint of ``p``'s diagram: from ``known`` when it holds
    ``p``, else computed and added to it."""
    fp = known.get(p)
    if fp is None:
        fp = known[p] = fingerprint(realize(p))
    return fp


def check_certificate(
    cert: UnknottingCertificate,
    table: list[KnotTableEntry],
    log=None,
) -> CertificateReport:
    """Verify every link of the chain; any mismatch fails the certificate.

    Claims are names in ``table``.  The final step must reduce to a
    0-crossing diagram unless it claims a named knot other than the unknot
    (certificates may be fragments that stop at a reference knot, such as
    a torus-knot cascade ending at 7_1); ``simplify_global`` walks it, on
    its own default budget.
    ``log``, when given, receives a ``== step N ==`` header before each
    step is checked and the step's report lines as soon as it is done.

    Each presentation, before or after its changes, is fingerprinted at
    most once per check.  One that is a code of a table entry, its own or
    an alias, is not fingerprinted at all: the entry's fingerprint is
    used.  That is the same value, because ``build_table`` computes
    ``fingerprint(realize_dt(code))`` for every code and keeps a code as
    an alias only when that equals the entry's fingerprint, and
    ``load_table`` recomputes it so and rejects a file that disagrees.
    """
    known: dict[Presentation, Fingerprint] = {
        code: entry.fingerprint for entry in table for code in entry.codes()
    }
    reports: list[StepReport] = []
    prev_after: Fingerprint | None = None
    all_passed = True
    for i, step in enumerate(cert.steps):
        if log is not None:
            log(f"== step {i + 1} ==")
        lines = [f"step {i + 1}: {_render_presentation(step.presentation)}"]
        ok = True
        if prev_after is not None or step.claimed_before is not None:
            before = _fingerprint(known, step.presentation)
        if prev_after is not None:
            if before in (prev_after, prev_after.mirrored()):
                verdict = "PASS" if before == prev_after else "PASS-UP-TO-MIRROR"
                lines.append(f"  continues step {i}: {verdict} (fingerprint evidence)")
            else:
                ok = False
                name = next(
                    f.name for f in fields(Fingerprint)
                    if getattr(before, f.name) != getattr(prev_after, f.name)
                )
                lines.append(f"  FAIL: does not continue step {i} (mismatched {name})")
        if step.claimed_before is not None:
            ok &= _check_claim(before, step.claimed_before, table, "before", lines)
        changed = sorted(step.change_indices)
        lines.append(f"  change crossings {changed} ({len(changed)} changes)")
        flipped = _flipped(step.presentation, step.change_indices)
        last = i == len(cert.steps) - 1
        must_unknot = last and step.claimed_after in (None, "unknot")
        if must_unknot:
            # Walk here: the crossing count of the walked diagram is the
            # verdict, and its invariants are read off it as it stands.
            result = simplify_global(realize(flipped))
            after = knot_invariants(result)
        else:
            after = _fingerprint(known, flipped)
        if step.claimed_after is not None:
            ok &= _check_claim(after, step.claimed_after, table, "after", lines)
        if must_unknot:
            if result.n == 0:
                lines.append("  reduces to the 0-crossing unknot diagram")
            else:
                ok = False
                lines.append(
                    f"  FAIL: final diagram only reduced to {result.n} crossings"
                )
        prev_after = after
        reports.append(StepReport(i, tuple(lines)))
        if log is not None:
            for line in lines:
                log(line)
        if not ok:
            all_passed = False
            break
    return CertificateReport(all_passed, cert.change_count(), tuple(reports))


# ---------------------------------------------------------------------------
# Bundled certificates
# ---------------------------------------------------------------------------

# Closing this braid gives the connected sum of 7_1 and its mirror; changing
# the two negative crossings at positions 0 and 1 turns the closure into
# K14a18636.
BASE_BRAID = BraidWord.from_letters(
    (1, -4, 2, 3, 3, 3, 2, 3, 2, 2, 4, -3, -3, -3, -3, -1, -3, -2, -3, -3)
)


def _unknotting_certificate_7_1() -> UnknottingCertificate:
    """Three changes take 7_1 to the unknot; the same three changes on the
    mirror diagram take the mirror to the unknot."""
    code = parse_dt("DT:[12, 14, -10, -20, 16, 18, 2, -8, 4, -6]")
    return UnknottingCertificate((CertificateStep(code, frozenset({0, 1, 2}), "7_1"),))


def paper_summands(table: list[KnotTableEntry]) -> tuple[bool, list[str]]:
    """Check that the closure of ``BASE_BRAID``, where the paper certificate
    starts, splits into two 7-crossing summands, 7_1 and its mirror, and
    that u(7_1) = u(mirror 7_1) = 3: Murasugi's signature bound from
    below, and a checked certificate from above.

    Returns the verdict and the transcript lines.
    """
    lines = ["First braid word (for L) is", render_braid(BASE_BRAID)]
    d = braid_closure(BASE_BRAID)
    s = simplify_global(d, seed=0)
    lines.append(f"closure of L has {d.n} crossings; simplified to {s.n}")
    parts = sorted(deconnect_sum(s), key=lambda p: p.n)
    counts = [p.n for p in parts]
    lines.append(f"summands of the closure, by crossing count: {counts}")
    if counts != [7, 7]:
        lines.append("  FAIL: expected two 7-crossing summands")
        return False, lines
    ok = True
    fps = []
    for i, p in enumerate(parts, start=1):
        fps.append(knot_invariants(p))
        ok &= _check_claim(fps[-1], "7_1", table, f"summand {i}", lines)
    mirror_pair = fps[0] == fps[1].mirrored() and fps[0] != fps[1]
    lines.append(
        "  the summands are mirror partners: "
        + ("PASS" if mirror_pair else "FAIL")
    )
    sigma = fps[0].signature
    lower = murasugi_bound(sigma)
    lines.append(f"  lower bound: u(7_1) >= murasugi_bound({sigma:+d}) = {lower}")
    report = check_certificate(_unknotting_certificate_7_1(), table)
    lines.append("  upper bound on u(7_1), by certificate:")
    lines.extend("    " + line for line in report.render().splitlines())
    exact = report.passed and report.bound == lower
    lines.append(
        f"  u(7_1) = u(mirror 7_1) = {lower}, so u(7_1) + u(mirror 7_1) = {2 * lower}"
        if exact
        else "  FAIL: the bounds on u(7_1) do not meet"
    )
    return ok and mirror_pair and exact, lines


def paper_certificate() -> UnknottingCertificate:
    """The five-change chain from the connected sum down to the unknot."""
    ka = parse_dt("DT:[4, -16, 24, 26, 18, 20, 28, 22, -2, 10, 12, 30, 6, 8, 14]")
    kc = parse_dt("DT:[4, 12, -24, 14, 18, 2, 20, 26, 8, 10, -28, -30, 16, -6, -22]")
    kd = flip_entries(kc, {6})
    return UnknottingCertificate(
        (
            CertificateStep(BASE_BRAID, frozenset({0, 1}), None, "K14a18636"),
            CertificateStep(ka, frozenset({0}), "K14a18636", "K15n81556"),
            CertificateStep(kc, frozenset({6}), "K15n81556", "K12n412"),
            CertificateStep(kd, frozenset({13}), "K12n412", "unknot"),
        )
    )


def adjacency_certificate_10_139() -> UnknottingCertificate:
    """One crossing change takes 10_139 to 7_1 (a certificate fragment)."""
    code = parse_dt("DT:[12, 14, -10, -20, -16, 18, 2, -8, 4, -6]")
    return UnknottingCertificate(
        (CertificateStep(code, frozenset({4}), "10_139", "7_1"),)
    )


def torus_cascade_certificate(k: int, *, mirror: bool = False) -> UnknottingCertificate:
    """Fragment taking the (2, 2k+1) torus knot down to 7_1, one change per step.

    Changing the first crossing of the standard (2, 2i+1) diagram cancels a
    pair of crossings, leaving (2, 2i-1).  For ``k == 3`` the knot already
    is 7_1 and the fragment is empty.
    """
    if k < 3:
        raise InputError(f"torus cascade needs k >= 3, got {k}")
    sign = -1 if mirror else 1
    steps = []
    for i in range(k, 3, -1):
        word = BraidWord.from_letters((sign,) * (2 * i + 1), 2)
        after = "7_1" if i == 4 else None
        steps.append(CertificateStep(word, frozenset({0}), None, after))
    return UnknottingCertificate(tuple(steps))


def composed_torus_bound(k: int, l: int, table: list[KnotTableEntry]) -> int:
    """Verified unknotting bound for T(2,2k+1) # mirror T(2,2l+1).

    Cascades both summands down to 7_1 and its mirror, then runs the
    five-change certificate: (k-3) + (l-3) + 5 changes in total.
    """
    certs = (
        torus_cascade_certificate(k),
        torus_cascade_certificate(l, mirror=True),
        paper_certificate(),
    )
    for cert in certs:
        report = check_certificate(cert, table)
        if not report.passed:
            raise InputError("certificate check failed:\n" + report.render())
    return (k - 3) + (l - 3) + 5


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def render_certificate(cert: UnknottingCertificate) -> str:
    """Serialize as repeated blocks of ``step:`` / key-value lines."""
    out = []
    for step in cert.steps:
        out.append("step:")
        out.append(f"presentation: {_render_presentation(step.presentation)}")
        out.append("flip: " + ", ".join(str(i) for i in sorted(step.change_indices)))
        if step.claimed_before is not None:
            out.append(f"before: {step.claimed_before}")
        if step.claimed_after is not None:
            out.append(f"after: {step.claimed_after}")
    return "\n".join(out) + "\n"


def parse_certificate(text: str) -> UnknottingCertificate:
    blocks: list[dict[str, str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "step:":
            blocks.append({})
            continue
        if ":" not in line:
            raise InputError(f"bad certificate line {line!r}")
        if not blocks:
            raise InputError("certificate must start with a 'step:' line")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in blocks[-1]:
            raise InputError(f"duplicate {key!r} in certificate step")
        blocks[-1][key] = value.strip()
    steps = []
    for block in blocks:
        if "presentation" not in block:
            raise InputError("certificate step is missing a presentation")
        ptext = block.pop("presentation")
        pres = parse_presentation(ptext)
        if pres is None:
            raise InputError(f"presentation must be DT:[...] or BRAID:[...], got {ptext!r}")
        flips = block.pop("flip", "")
        listed = parse_int_list(f"[{flips}]", "flip indices")
        indices = frozenset(listed)
        if len(indices) != len(listed):
            raise InputError(f"flip indices must not repeat, got {flips!r}")
        before = block.pop("before", None)
        after = block.pop("after", None)
        if block:
            raise InputError(f"unknown certificate keys: {sorted(block)}")
        steps.append(CertificateStep(pres, indices, before, after))
    return UnknottingCertificate(tuple(steps))

"""Certificate checking: the bundled chains and deliberate tampering."""

from dataclasses import replace

import pytest

from gordian import certify, moves
from gordian.braid import BraidWord
from gordian.certify import (
    BASE_BRAID,
    CertificateStep,
    UnknottingCertificate,
    adjacency_certificate_10_139,
    check_certificate,
    paper_certificate,
    parse_certificate,
    render_certificate,
    torus_cascade_certificate,
)
from gordian.codes import parse_dt
from gordian.errors import InputError
from gordian.identify import default_table
from gordian.invariants import fingerprint


@pytest.fixture(scope="module")
def table():
    return default_table()


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """The diagrams ``check_certificate`` fingerprints, in call order."""
    calls = []

    def counting(d, *args, **kwargs):
        calls.append(d)
        return fingerprint(d, *args, **kwargs)

    monkeypatch.setattr(certify, "fingerprint", counting)
    return calls


def test_paper_certificate_passes(table, fingerprint_calls):
    report = check_certificate(paper_certificate(), table)
    assert report.passed
    assert report.bound == 5
    assert len(report.steps) == 4
    # Only step 1's result is fingerprinted.  Five diagrams are table codes,
    # whose fingerprints the table holds: step 2's presentation (K14a18636),
    # step 2's result (the first K15n81556 code), step 3's presentation (the
    # second K15n81556 code, an alias of that entry), and step 3's result,
    # which is step 4's presentation (K12n412).  The base closure itself is
    # never fingerprinted, and the final result's invariants are taken on
    # the diagram the step walked.
    assert len(fingerprint_calls) == 1
    text = report.render()
    assert "PASS, total crossing changes = 5" in text
    assert "reduces to the 0-crossing unknot diagram" in text


def test_adjacency_certificate_passes(table, fingerprint_calls):
    report = check_certificate(adjacency_certificate_10_139(), table)
    assert report.passed
    assert report.bound == 1
    # The 10_139 code and its flip, the 7_1 code, are both table codes.
    assert fingerprint_calls == []


@pytest.mark.parametrize(
    "flips, left", [({0, 1, 2}, 0), ({0, 1}, 3), ({0, 1, 4}, 6)]
)
def test_the_7_1_certificate_needs_its_three_flips(
    table, fingerprint_calls, flips, left
):
    # The 7_1 code is a table code, so its fingerprint comes from the table
    # and only the flipped diagram is walked.  Two flips, or a wrong third
    # one, leave a knotted diagram.
    (step,) = certify._unknotting_certificate_7_1().steps
    step = replace(step, change_indices=frozenset(flips))
    report = check_certificate(UnknottingCertificate((step,)), table)
    assert fingerprint_calls == []
    assert report.passed == (left == 0)
    if left:
        assert f"FAIL: final diagram only reduced to {left} crossings" in report.render()


def test_a_missing_table_entry_is_fingerprinted_and_still_fails(
    table, fingerprint_calls
):
    reduced = [entry for entry in table if entry.name != "K12n412"]
    report = check_certificate(paper_certificate(), reduced)
    assert not report.passed
    assert report.steps[-1].index == 2
    assert report.steps[-1].lines[-1] == (
        "  after: FAIL, claimed K12n412 but found no table match"
    )
    # Step 3's result is no longer a table code, so it is fingerprinted too,
    # after step 1's result; the check stops at the failed step.
    assert len(fingerprint_calls) == 2


def test_a_computed_fingerprint_serves_a_later_step(table, fingerprint_calls):
    # Without K12n412 in the table and without the claims naming it, step 3's
    # result is computed once and step 4 presents the same code: two calls,
    # step 1's result and step 3's, where fingerprinting step 4's
    # presentation again would make three.
    reduced = [entry for entry in table if entry.name != "K12n412"]
    steps = paper_certificate().steps
    cert = UnknottingCertificate(
        (
            *steps[:2],
            replace(steps[2], claimed_after=None),
            replace(steps[3], claimed_before=None),
        )
    )
    report = check_certificate(cert, reduced)
    assert report.passed, report.render()
    assert "continues step 3: PASS" in report.render()
    assert len(fingerprint_calls) == 2


def test_torus_cascades(table, fingerprint_calls):
    assert check_certificate(torus_cascade_certificate(3), table).bound == 0
    for k in (4, 5):
        fingerprint_calls.clear()
        report = check_certificate(torus_cascade_certificate(k), table)
        assert report.passed, report.render()
        assert report.bound == k - 3
        # One result per step and one presentation per continuation; the
        # first, largest torus knot is never fingerprinted.
        assert len(fingerprint_calls) == 2 * (k - 3) - 1
    mirrored = check_certificate(
        torus_cascade_certificate(4, mirror=True), table
    )
    assert mirrored.passed
    assert "7_1 (mirror)" in mirrored.render()


def test_torus_cascade_rejects_small_k():
    with pytest.raises(InputError):
        torus_cascade_certificate(2)


def test_empty_certificate_is_vacuously_true(table):
    report = check_certificate(UnknottingCertificate(()), table)
    assert report.passed
    assert report.bound == 0


def test_wrong_flip_index_fails_with_named_step(table, fingerprint_calls):
    # Change crossing 1 instead of 0 in the second step: the result is no
    # longer K15n81556 and the chain must break loudly.
    good = paper_certificate()
    bad_step = CertificateStep(
        good.steps[1].presentation,
        frozenset({1}),
        good.steps[1].claimed_before,
        good.steps[1].claimed_after,
    )
    bad = UnknottingCertificate(
        (good.steps[0], bad_step) + good.steps[2:]
    )
    report = check_certificate(bad, table)
    assert not report.passed
    text = report.render()
    assert "FAIL" in text
    assert "step 2" in text
    assert report.steps[-1].index == 1
    # The changed code is no table code, so it is fingerprinted.
    assert len(fingerprint_calls) == 2


def test_wrong_claim_fails(table):
    cert = UnknottingCertificate(
        (
            CertificateStep(
                parse_dt("[12, 14, -10, -20, -16, 18, 2, -8, 4, -6]"),
                frozenset({4}),
                "10_139",
                "K12n412",  # wrong: the flip gives 7_1
            ),
        )
    )
    report = check_certificate(cert, table)
    assert not report.passed
    assert "claimed K12n412" in report.render()


def test_broken_chain_fails_naming_invariant(table):
    # A trefoil step cannot continue a chain that just produced K14a18636.
    cert = UnknottingCertificate(
        (
            CertificateStep(BASE_BRAID, frozenset({0, 1}), None, "K14a18636"),
            CertificateStep(
                BraidWord.from_letters((1, 1, 1), 2), frozenset({0}), None, None
            ),
        )
    )
    report = check_certificate(cert, table)
    assert not report.passed
    assert "does not continue step 1" in report.render()
    assert "mismatched alexander" in report.render()


@pytest.mark.parametrize(
    "letter, verdict", [(1, "PASS"), (-1, "PASS-UP-TO-MIRROR")]
)
def test_a_step_continues_the_last_up_to_mirror(table, letter, verdict):
    # One change takes T(2,5) to the positive trefoil; the next step
    # presents that trefoil, or its mirror image, and unknots it.
    cert = UnknottingCertificate(
        (
            CertificateStep(
                BraidWord.from_letters((1,) * 5, 2), frozenset({0}), None, None
            ),
            CertificateStep(
                BraidWord.from_letters((letter,) * 3, 2), frozenset({0}), None, None
            ),
        )
    )
    report = check_certificate(cert, table)
    assert report.passed
    assert report.steps[1].lines[1] == (
        f"  continues step 1: {verdict} (fingerprint evidence)"
    )


def test_final_step_must_unknot(table):
    cert = UnknottingCertificate(
        (
            CertificateStep(
                BraidWord.from_letters((1,) * 7, 2), frozenset({0}), None, None
            ),
        )
    )
    # Changing one crossing of T(2,7) gives T(2,5), not the unknot.
    report = check_certificate(cert, table)
    assert not report.passed
    assert "FAIL: final diagram only reduced to 5 crossings" in report.render()


def test_paper_certificate_fails_when_the_final_walk_is_cut_short(
    table, monkeypatch
):
    # The final step simplifies its own diagram; fingerprints of small
    # diagrams never walk, so only this simplification decides the unknot
    # verdict.  Pickup alone unknots it, so the cut comes before pickup:
    # at budget 0 only the greedy pass runs.
    monkeypatch.setattr(
        certify, "simplify_global", lambda d: moves.simplify_global(d, budget=0)
    )
    report = check_certificate(paper_certificate(), table)
    assert not report.passed
    assert "FAIL: final diagram only reduced to" in report.render()


def test_certificate_text_round_trip():
    for cert in (
        paper_certificate(),
        adjacency_certificate_10_139(),
        torus_cascade_certificate(5),
        UnknottingCertificate(()),
    ):
        assert parse_certificate(render_certificate(cert)) == cert


def test_certificate_text_format_shape():
    text = render_certificate(paper_certificate())
    assert text.startswith("step:\npresentation: BRAID:[1, -4, 2")
    assert "flip: 0, 1" in text
    assert "after: K14a18636" in text
    assert "before: K15n81556" in text


def test_parse_certificate_errors():
    with pytest.raises(InputError):
        parse_certificate("presentation: DT:[4, 6, 2]\n")  # no step: header
    with pytest.raises(InputError):
        parse_certificate("step:\nflip: 0\n")  # missing presentation
    with pytest.raises(InputError):
        parse_certificate("step:\npresentation: PD:[x]\n")
    with pytest.raises(InputError):
        parse_certificate("step:\npresentation: DT:[4, 6, 2]\nwhat: 1\n")
    with pytest.raises(InputError):
        parse_certificate(
            "step:\npresentation: DT:[4, 6, 2]\nflip: 0\nflip: 1\n"
        )
    with pytest.raises(InputError, match="flip indices"):
        parse_certificate("step:\npresentation: DT:[4, 6, 2]\nflip: 0, x\n")
    # A repeated index would claim one more crossing change than is made.
    with pytest.raises(InputError, match="must not repeat"):
        parse_certificate("step:\npresentation: DT:[4, 6, 2]\nflip: 0, 0\n")


def test_parse_certificate_ignores_comments_and_blanks():
    text = "# a certificate\n\nstep:\npresentation: DT:[4, 6, 2]\nflip: 0\n"
    cert = parse_certificate(text)
    assert len(cert.steps) == 1
    assert cert.steps[0].change_indices == frozenset({0})
    assert cert.steps[0].claimed_before is None

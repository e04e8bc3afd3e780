"""Certificate checking: the bundled chains and deliberate tampering."""

import pytest

from gordian import certify
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
    # Three results plus the three presentations compared with the previous
    # step's result; the base closure itself is never fingerprinted, and the
    # final result's invariants are taken on the diagram the step walked.
    assert len(fingerprint_calls) == 6
    text = report.render()
    assert "PASS, total crossing changes = 5" in text
    assert "reduces to the 0-crossing unknot diagram" in text


def test_adjacency_certificate_passes(table):
    report = check_certificate(adjacency_certificate_10_139(), table)
    assert report.passed
    assert report.bound == 1


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


def test_wrong_flip_index_fails_with_named_step(table):
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
    assert "mismatched" in report.render()


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
    # The final step walks its own diagram; fingerprints of small diagrams
    # never walk, so only this walk's budget decides the unknot verdict.
    monkeypatch.setattr(certify, "FINGERPRINT_BUDGET", 5)
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

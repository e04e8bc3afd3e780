"""Byte-for-byte transcripts of the paper check and of DT realizations.

``data/verify_paper.txt`` is the exact standard output of ``gordian
verify-paper``.  The order in which the base closure's two summands come
out decides which one prints ``(mirror)``, so the whole transcript is
pinned, not only its last line.  ``data/convert_pd.txt`` holds ``gordian
convert --to pd`` of every bundled name and of every DT code in the
bundled certificates, before and after its crossing changes.
``data/convert_braid.txt`` holds ``gordian convert --to braid`` of every
bundled name, of ``7_1#~7_1`` and of the README base braid, whose closure
is already coherent, so Vogel's reader sees it with no push made.
``data/search_seed7.txt`` is the log of ``gordian search`` on the README
base braid (seed 7, 10 trials, ``--k 2``); its trials scramble with every
move kind and braid through Vogel's pushes.  ``data/search_seed13.txt`` is
the same search at seed 13, whose trials 0 and 6 have greedy diagrams (87
and 53 crossings) with bracket frontiers wider than 12, so their
fingerprints walk: it pins that both take the walk and finish without a
``skip``.  Every fingerprint field is a knot invariant, so it does not pin
the walk's path; ``data/simplify.txt`` and
``test_full_length_walks_match_the_unfloored_reference`` do.
``data/invariants.txt`` holds ``gordian invariants`` of every
bundled name, of ``~7_1`` and of ``7_1#~7_1``, and the README's
``identify`` example: it pins how each polynomial renders.
``data/simplify.txt`` holds ``gordian simplify`` of every bundled name, of
``7_1#~7_1``, of the README base braid and of T(2,19) as a 2-strand braid:
it pins the walk's result, including where the walk ends.
"""

import contextlib
import io
from pathlib import Path

from gordian import certify
from gordian.certify import adjacency_certificate_10_139, paper_certificate
from gordian.cli import main
from gordian.codes import DTCode, flip_entries, render_dt
from gordian.identify import BUNDLED_CODES

DATA = Path(__file__).resolve().parent / "data"
README_BASE = "BRAID:[1,-4,2,3,3,3,2,3,2,2,4,-3,-3,-3,-3,-1,-3,-2,-3,-3]"


def _convert_commands() -> list[list[str]]:
    names = dict.fromkeys(name for name, _ in BUNDLED_CODES)
    commands = [("--name", name) for name in names]
    for cert in (paper_certificate(), adjacency_certificate_10_139()):
        for step in cert.steps:
            code = step.presentation
            if isinstance(code, DTCode):
                flipped = flip_entries(code, step.change_indices)
                commands.append(("--dt", render_dt(code)))
                commands.append(("--dt", render_dt(flipped)))
    return [["convert", *args, "--to", "pd"] for args in dict.fromkeys(commands)]


def _convert_braid_commands() -> list[list[str]]:
    names = [*dict.fromkeys(name for name, _ in BUNDLED_CODES), "7_1#~7_1"]
    inputs = [("--name", name) for name in names] + [("--braid", README_BASE)]
    return [["convert", *args, "--to", "braid"] for args in inputs]


def _invariants_commands() -> list[list[str]]:
    names = [*dict.fromkeys(name for name, _ in BUNDLED_CODES), "~7_1", "7_1#~7_1"]
    commands = [["invariants", "--name", name] for name in names]
    return commands + [["identify", "--braid", "BRAID:[-1,-1,-1,-1,-1,-1,-1]"]]


def _simplify_commands() -> list[list[str]]:
    names = [*dict.fromkeys(name for name, _ in BUNDLED_CODES), "7_1#~7_1"]
    inputs = [("--name", name) for name in names]
    torus = "BRAID:[" + ",".join(["1"] * 19) + "]"  # T(2,19)
    inputs += [("--braid", README_BASE), ("--braid", torus)]
    return [["simplify", *args] for args in inputs]


def transcript(capsys, commands: list[list[str]]) -> str:
    """Each command line as ``$ gordian ...`` followed by its output."""
    out = []
    for argv in commands:
        assert main(argv) == 0
        out.append("$ gordian " + " ".join(argv) + "\n" + capsys.readouterr().out)
    return "".join(out)


def test_verify_paper_transcript_is_unchanged(capsys):
    assert main(["verify-paper"]) == 0
    expected = (DATA / "verify_paper.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_verify_paper_prints_each_step_as_it_is_checked(monkeypatch):
    # Whatever times the transcript by its lines must see each section's
    # header before that section gets its first fingerprint, and every
    # earlier section's lines already printed.  Every step's fingerprints,
    # computed or taken from the table, come through one helper; the
    # summands section takes one for its u(7_1) certificate.
    out = io.StringIO()
    printed_at_call = []

    def spy(known, p):
        printed_at_call.append(out.getvalue())
        return lookup(known, p)

    lookup = certify._fingerprint
    monkeypatch.setattr(certify, "_fingerprint", spy)
    with contextlib.redirect_stdout(out):
        assert main(["verify-paper"]) == 0
    expected = (DATA / "verify_paper.txt").read_text(encoding="utf-8")
    assert out.getvalue() == expected
    assert all(expected.startswith(printed) for printed in printed_at_call)
    last_lines = {printed.splitlines()[-1] for printed in printed_at_call}
    assert last_lines == {"== summands =="} | {f"== step {i} ==" for i in range(1, 5)}


def test_convert_to_pd_is_unchanged(capsys):
    expected = (DATA / "convert_pd.txt").read_text(encoding="utf-8")
    assert transcript(capsys, _convert_commands()) == expected


def test_convert_to_braid_is_unchanged(capsys):
    expected = (DATA / "convert_braid.txt").read_text(encoding="utf-8")
    assert transcript(capsys, _convert_braid_commands()) == expected


def test_invariants_and_identify_are_unchanged(capsys):
    expected = (DATA / "invariants.txt").read_text(encoding="utf-8")
    assert transcript(capsys, _invariants_commands()) == expected


def test_simplify_is_unchanged(capsys):
    expected = (DATA / "simplify.txt").read_text(encoding="utf-8")
    assert transcript(capsys, _simplify_commands()) == expected


def test_search_log_is_unchanged(capsys):
    argv = ["search", "--base", README_BASE, "--seed", "7", "--trials", "10"]
    assert main([*argv, "--k", "2"]) == 0
    expected = (DATA / "search_seed7.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_walked_search_log_is_unchanged(capsys):
    argv = ["search", "--base", README_BASE, "--seed", "13", "--trials", "10"]
    assert main([*argv, "--k", "2"]) == 0
    expected = (DATA / "search_seed13.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected

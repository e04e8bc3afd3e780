"""Randomized search pipeline: determinism, self-identification, replay."""

from pathlib import Path

import pytest

from gordian.braid import BraidWord, braid_closure, parse_braid
from gordian.certify import BASE_BRAID, parse_certificate
from gordian.codes import parse_dt
from gordian.errors import InputError
from gordian.identify import default_table
from gordian.invariants import fingerprint
from gordian.search import (
    SearchConfig,
    _is_hit,
    evaluate_candidate,
    replay_line,
    run_pipeline,
)

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def table():
    return default_table()


@pytest.fixture(scope="module")
def base():
    return braid_closure(BASE_BRAID)


def test_known_candidate_identifies_k14a18636(table, base):
    # The two-change candidate that started the whole chain: flipping the
    # first two letters of the base braid lands on K14a18636.
    result, fp = evaluate_candidate(
        BASE_BRAID, (0, 1), fingerprint(base), table
    )
    assert result == "K14a18636"
    assert fp.determinant == 261
    assert fp.signature == 0


def test_pipeline_is_deterministic(table, base):
    cfg = SearchConfig(seed=42, trials=4, k_changes=1)
    first_log: list = []
    second_log: list = []
    first = run_pipeline(base, cfg, table, log=first_log.append)
    second = run_pipeline(base, cfg, table, log=second_log.append)
    assert first_log == second_log
    assert first == second
    assert len(first_log) == 4


def test_zero_changes_always_selfidentify(table, base):
    cfg = SearchConfig(seed=1, trials=5, k_changes=0)
    hits = run_pipeline(base, cfg, table)
    assert len(hits) == 5
    assert all(h.split()[4] == "base" for h in hits)
    assert all(h.split()[3] == "[]" for h in hits)


def test_hit_braids_close_to_the_base_knot(table, base):
    # Before any flips, every stored braid closes to the base knot: the
    # scramble and braiding stages must be fingerprint-preserving.
    base_fp = fingerprint(base)
    cfg = SearchConfig(seed=6, trials=3, k_changes=0)
    for hit in run_pipeline(base, cfg, table):
        assert fingerprint(braid_closure(parse_braid(hit.split()[2]))) == base_fp


def test_log_line_format_and_replay(table, base):
    cfg = SearchConfig(seed=9, trials=2, k_changes=0)
    log: list = []
    run_pipeline(base, cfg, table, log=log.append)
    for line in log:
        fields = line.split()
        assert len(fields) == 6
        trial, seed, braid, flips, result, fp_token = fields
        assert trial.isdigit() and seed.isdigit()
        assert braid.startswith("[") and " " not in braid
        assert flips == "[]"
        assert result == "base"
        assert fp_token.startswith("alexander=")
    ok, rebuilt = replay_line(log[0], base, table)
    assert ok
    assert rebuilt == log[0]


def test_replay_detects_tampering(table, base):
    cfg = SearchConfig(seed=9, trials=1, k_changes=0)
    log: list = []
    run_pipeline(base, cfg, table, log=log.append)
    tampered = log[0].replace("determinant=49", "determinant=51")
    ok, _ = replay_line(tampered, base, table)
    assert not ok


def test_replay_rejects_malformed_lines(table, base):
    from gordian.errors import InputError

    with pytest.raises(InputError):
        replay_line("1 2 3", base, table)
    with pytest.raises(InputError):
        replay_line("x 2 [1] [] base alexander=1", base, table)
    with pytest.raises(InputError, match="flip indices"):
        replay_line("1 2 [1,1,1] [x] base alexander=1", base, table)


def test_replay_refuses_flips_that_search_never_writes(table, base):
    # search writes sorted, distinct flips.  Reordered flips rebuild to a
    # line that passes, and repeated ones claim a change that is never made.
    line = (DATA / "search_seed7.txt").read_text(encoding="utf-8").splitlines()[0]
    assert " [9,12] " in line and replay_line(line, base, table)[0]
    _, single = replay_line(line.replace("[9,12]", "[9]"), base, table)
    for tampered in (line.replace("[9,12]", "[12,9]"), single.replace("[9]", "[9,9]")):
        with pytest.raises(InputError, match="strictly increase"):
            replay_line(tampered, base, table)


# List bodies, each with three slots for the reader's own entries.  A log
# line splits on whitespace, so the shared table has no whitespace.
LIST_SPELLINGS = [
    ("{},{},{}", True),
    ("{},{},{},", True),
    (",{},{},{}", True),
    ("{},,{},{}", True),
    (",,{},+{},{},,", True),
    ("", True),
    (",", True),
    ("{};{};{}", False),
    ("{},x{},{}", False),
    ("{},{}.0,{}", False),
    ("{},[{}],{}", False),
    ("({},{},{})", False),
]


@pytest.mark.parametrize("body, accepted", LIST_SPELLINGS)
def test_every_integer_list_reader_takes_the_same_spellings(table, body, accepted):
    trefoil = braid_closure(BraidWord.from_letters((1, 1, 1)))
    flips = body.format(0, 1, 2)
    readers = {
        "dt": lambda: parse_dt("DT:[" + body.format(4, 6, 2) + "]"),
        "braid": lambda: parse_braid("BRAID:[" + body.format(1, 1, 1) + "]"),
        "replay": lambda: replay_line(f"0 0 [1,1,1] [{flips}] base x", trefoil, table),
        "certificate": lambda: parse_certificate(
            f"step:\npresentation: DT:[4, 6, 2]\nflip: {flips}\n"
        ),
    }
    verdicts = {}
    for name, read in readers.items():
        try:
            read()
            verdicts[name] = True
        except InputError:
            verdicts[name] = False
    assert verdicts == dict.fromkeys(readers, accepted)


def test_impossible_flip_count_is_skipped(table):
    # Asking for more changes than the braid has letters cannot crash the
    # run; the trial is logged as skipped and produces no hit.
    trefoil = braid_closure(BASE_BRAID)
    cfg = SearchConfig(seed=3, trials=2, k_changes=500)
    log: list = []
    hits = run_pipeline(trefoil, cfg, table, log=log.append)
    assert hits == []
    assert len(log) == 2
    assert all("skip(ResourceError)" in line for line in log)


def test_targets_filter_hits(table, base):
    # With a target set, base self-identifications no longer count as hits.
    cfg = SearchConfig(seed=1, trials=2, k_changes=0, targets=("K12n412",))
    hits = run_pipeline(base, cfg, table)
    assert hits == []


def test_is_hit_counts_identified_results():
    # A hit is a result the table identifies, or the base knot itself.
    cfg = SearchConfig(seed=1)
    assert _is_hit("K14a18636", False, cfg)
    assert _is_hit("7_1(mirror)", False, cfg)
    assert _is_hit("base", True, cfg)
    assert _is_hit("7_1", True, cfg)
    assert not _is_hit("?", False, cfg)
    targeted = SearchConfig(seed=1, targets=("K12n412",))
    assert _is_hit("K12n412(mirror)", False, targeted)
    assert not _is_hit("K14a18636", False, targeted)
    assert not _is_hit("base", True, targeted)
    # The base target is the base's fingerprint, whatever the table calls it.
    on_base = SearchConfig(seed=1, targets=("base",))
    assert _is_hit("base", True, on_base)
    assert _is_hit("7_1(mirror)", True, on_base)
    assert not _is_hit("7_1(mirror)", False, on_base)
    assert not _is_hit("?", False, on_base)

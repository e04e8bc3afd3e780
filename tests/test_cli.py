"""Command-line behaviour: output shapes, exit codes, determinism."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gordian import certify, cli, invariants
from gordian.certify import UnknottingCertificate, parse_certificate
from gordian.cli import build_parser, main
from gordian.codes import parse_dt, realize_dt
from gordian.errors import InputError, InternalError
from gordian.identify import default_table, save_table
from gordian.invariants import alexander, jones
from gordian.laurent import LaurentPoly
from gordian.moves import mirror
from gordian.search import SearchConfig, run_pipeline


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_trefoil(capsys):
    code, out, _ = run(capsys, "invariants", "--dt", "[4,6,2]")
    assert code == 0
    assert "determinant: 3" in out
    assert "signature: +2" in out or "signature: -2" in out
    assert "murasugi bound: u >= 1" in out


def test_invariants_empty_braid_is_unknot(capsys):
    code, out, _ = run(capsys, "invariants", "--braid", "[]")
    assert code == 0
    assert "alexander: 1" in out
    assert "jones: 1" in out
    assert "determinant: 1" in out


def test_invariants_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "invariants", "--dt", "[3,4]")
    assert code == 2
    assert "error" in err


def test_input_flags_are_exclusive(capsys):
    code, _, err = run(
        capsys, "invariants", "--dt", "[4,6,2]", "--braid", "[1,1,1]"
    )
    assert code == 2
    assert "exactly one" in err


def test_convert_round_trip(capsys):
    code, out, _ = run(capsys, "convert", "--braid", "[1,1,1]", "--to", "dt")
    assert code == 0
    dt_text = out.strip()
    code, out, _ = run(capsys, "convert", "--dt", dt_text, "--to", "pd")
    assert code == 0
    assert out.count("X[") == 3
    code, out, _ = run(capsys, "convert", "--dt", dt_text, "--to", "braid")
    assert code == 0
    assert out.startswith("BRAID:[")


def test_simplify_reports_crossing_counts(capsys):
    code, out, _ = run(
        capsys, "simplify", "--braid", "[1, -1, 1, -1, 1]", "--seed", "0"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("crossings: 5 ->")


def test_identify_names_chirality(capsys):
    code, out, _ = run(
        capsys, "identify", "--braid", "[-1, -1, -1, -1, -1, -1, -1]"
    )
    assert code == 0
    assert "match: 7_1 (mirror) [fingerprint evidence]" in out


def test_identify_unknown(capsys):
    code, out, _ = run(capsys, "identify", "--braid", "[1, -2, 1, -2]")
    assert code == 0
    assert "no table match" in out


def test_name_expression_mirror_and_sum(capsys):
    code, out, _ = run(capsys, "invariants", "--name", "7_1#~7_1")
    assert code == 0
    assert "signature: +0" in out
    assert "determinant: 49" in out
    assert "murasugi bound: u >= 0" in out


def test_invariants_of_30_crossing_sum_multiply(capsys):
    # 30 crossings, evaluated as given: the invariants of a connected sum
    # are the products of the summands' invariants.
    code, out, _ = run(capsys, "invariants", "--name", "7_1#~7_1#7_1")
    assert code == 0
    assert "simplified from" not in out
    fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
    table = default_table()
    k = realize_dt(next(e for e in table if e.name == "7_1").dt)
    summands = (k, mirror(k), k)
    alex = jones_product = LaurentPoly.one()
    for d in summands:
        alex = alex * alexander(d)
        jones_product = jones_product * jones(d)
    assert fields["alexander"] == alex.render()
    assert fields["jones"] == jones_product.render()
    assert fields["determinant"] == "343"


def test_frontier_state_bound_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(invariants, "MAX_FRONTIER_STATES", 4)
    code, _, err = run(capsys, "invariants", "--name", "7_1#~7_1#7_1")
    assert code == 1
    assert err.startswith("resource limit: ")
    assert "Traceback" not in err


def test_unknown_name_lists_table(capsys):
    code, _, err = run(capsys, "invariants", "--name", "6_1")
    assert code == 2
    assert "unknown knot name" in err
    assert "7_1" in err


def test_verify_paper_full_transcript(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    headers = [line for line in out.splitlines() if line.startswith("== ")]
    assert headers == ["== summands =="] + [f"== step {i} ==" for i in range(1, 5)]
    assert "First braid word (for L) is" in out
    assert "summands of the closure, by crossing count: [7, 7]" in out
    assert "reduces to the 0-crossing unknot diagram" in out
    assert "certificate: PASS, total crossing changes = 5" in out
    assert out.strip().endswith("bound: u(7_1 # mirror 7_1) <= 5")


def test_verify_paper_step_4(capsys):
    # Step 4 continues step 3, so it is checked within the full run.
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    step_4 = out.split("== step 4 ==\n", 1)[1].split("certificate:", 1)[0]
    assert "continues step 3: PASS" in step_4
    assert "after: unknot" in step_4
    assert "reduces to the 0-crossing unknot diagram" in step_4


def test_verify_paper_fails_on_a_wrong_summand(capsys, tmp_path):
    # Without 7_1 in the table the summands cannot be identified, so the
    # certificate alone must not establish the bound.
    path = tmp_path / "table.tsv"
    save_table([e for e in default_table() if e.name != "7_1"], str(path))
    code, out, _ = run(capsys, "verify-paper", "--table", str(path))
    assert code == 1
    assert "summand 1: FAIL, claimed 7_1 but found no table match" in out
    assert "certificate: PASS, total crossing changes = 5" in out
    assert out.strip().endswith("bound not established")


def test_verify_paper_fails_without_the_7_1_upper_bound(capsys, monkeypatch):
    # Two of the three flips leave 3 crossings, so u(7_1) = 3 is not shown
    # and the summands verdict fails, though the paper certificate passes.
    (step,) = certify._unknotting_certificate_7_1().steps
    cert = UnknottingCertificate((replace(step, change_indices=frozenset({0, 1})),))
    monkeypatch.setattr(certify, "_unknotting_certificate_7_1", lambda: cert)
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    summands = out.split("== step 1 ==", 1)[0]
    assert "lower bound: u(7_1) >= murasugi_bound(+6) = 3" in summands
    assert "      FAIL: final diagram only reduced to 3 crossings\n" in summands
    assert "    certificate: FAIL, total crossing changes = 2\n" in summands
    assert "FAIL: the bounds on u(7_1) do not meet" in summands
    assert "certificate: PASS, total crossing changes = 5" in out
    assert out.strip().endswith("bound not established")


def test_verify_paper_transcripts_are_identical(capsys):
    _, first, _ = run(capsys, "verify-paper")
    _, second, _ = run(capsys, "verify-paper")
    assert first == second


def test_verify_paper_with_a_saved_table_matches_the_recording(capsys, tmp_path):
    # The certificate takes table codes' fingerprints from the table: here
    # the ones load_table recomputed from the file.
    path = tmp_path / "table.tsv"
    save_table(default_table(), str(path))
    code, out, _ = run(capsys, "verify-paper", "--table", str(path))
    assert code == 0
    recorded = Path(__file__).resolve().parent / "data" / "verify_paper.txt"
    assert out == recorded.read_text(encoding="utf-8")


def test_verify_paper_with_a_table_saved_before_aliases(capsys, tmp_path):
    # A table file written before repeated codes were kept as aliases has
    # one line per name.  It still loads; the second K15n81556 code is then
    # fingerprinted by the certificate, and the transcript is the same.
    path = tmp_path / "table.tsv"
    save_table(default_table(), str(path))
    lines = path.read_text().splitlines(keepends=True)
    firsts = {}
    for line in lines:
        firsts.setdefault(line.split("\t")[0], line)
    assert len(firsts) == len(lines) - 1
    path.write_text("".join(firsts.values()))
    code, out, _ = run(capsys, "verify-paper", "--table", str(path))
    assert code == 0
    recorded = Path(__file__).resolve().parent / "data" / "verify_paper.txt"
    assert out == recorded.read_text(encoding="utf-8")


def test_corrupted_table_is_rejected(capsys, tmp_path):
    path = tmp_path / "table.tsv"
    save_table(default_table(), str(path))
    text = path.read_text().replace("determinant=261", "determinant=262")
    path.write_text(text)
    code, _, err = run(
        capsys, "identify", "--name", "7_1", "--table", str(path)
    )
    assert code == 2
    assert "table integrity" in err


@pytest.mark.parametrize(
    "dt, reason",
    [
        ("DT:[x]", "DT code must be a bracketed list of integers, got 'DT:[x]'"),
        (
            "DT:[4, 6, 8, 10, 2, 12]",
            "DT code [4, 6, 8, 10, 2, 12] has no planar realization",
        ),
    ],
    ids=["unparsable", "unrealizable"],
)
def test_table_dt_errors_name_their_line(capsys, tmp_path, dt, reason):
    path = tmp_path / "table.tsv"
    save_table(default_table(), str(path))
    lines = path.read_text().splitlines()
    name, _, *fingerprints = lines[1].split("\t")
    lines[1] = "\t".join([name, dt, *fingerprints])
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "identify", "--name", "7_1", "--table", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: table integrity: line 2 ({name}): {reason}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--base", "7_1", "--config", "{tmp}/letters.cfg"],
        ["search", "--base", "7_1", "--config", "{tmp}/binary.cfg"],
        ["search", "--base", "7_1", "--config", "{tmp}/missing.cfg"],
        ["identify", "--name", "7_1", "--table", "{tmp}/missing.tsv"],
        ["search", "--base", "7_1", "--seed", "5", "--k", "-1"],
        ["search", "--base", "7_1", "--seed", "5", "--trials", "-3"],
        [
            "search", "--base", "BRAID:[1,1,1]",
            "--replay", "1 2 [1,1,1] [x] base alexander=1",
        ],
        [
            "search", "--base", "BRAID:[1,1,1]",
            "--replay", "1 2 [1,1,1] [0,0] base alexander=1",
        ],
        [
            "search", "--base", "BRAID:[1,1,1]",
            "--replay", "1 2 [1,1,1] [2,0] base alexander=1",
        ],
        ["convert", "--braid", "BRAID:[-2,-2,1,1,1,-2]", "--to", "dt"],
        ["simplify", "--name", "7_1", "--budget", "-5"],
    ],
    ids=[
        "config-not-integer",
        "config-not-utf8",
        "config-missing",
        "table-missing",
        "negative-k",
        "negative-trials",
        "replay-flip-not-integer",
        "replay-flip-repeated",
        "replay-flip-decreasing",
        "dt-of-square-knot",
        "negative-budget",
    ],
)
def test_bad_input_exits_2(capsys, tmp_path, argv):
    (tmp_path / "letters.cfg").write_text("seed=5\ntrials=abc\n")
    (tmp_path / "binary.cfg").write_bytes(b"seed=5\n\xff\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


def test_long_braid_letter_is_refused_promptly():
    # The closure has about 10**20 free loops; counting them must not walk
    # every strand height.
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [
            sys.executable, "-m", "gordian.cli",
            "invariants", "--braid", "BRAID:[99999999999999999999]",
        ],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: expected a one-component diagram\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify-paper"],
        ["search", "--base", "BRAID:[1, 1, 1]", "--seed", "5", "--trials", "2"],
    ],
    ids=["verify-paper", "search"],
)
def test_a_closed_stdout_ends_quietly_with_141(argv, unbuffered):
    # The reader is gone before the first write, as after `| head -n 1`
    # once it has its line.  Buffered output first fails at the flush in
    # main; unbuffered output at the first print.
    src = str(Path(__file__).resolve().parent.parent / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "gordian.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_internal_error_exits_1(capsys, monkeypatch):
    def broken(d):
        raise InternalError("braid reading dropped crossings")

    monkeypatch.setattr(cli, "vogel_braid", broken)
    code, out, err = run(capsys, "convert", "--dt", "[4,6,2]", "--to", "braid")
    assert code == 1
    assert out == ""
    assert err == "internal error: braid reading dropped crossings\n"


def test_search_requires_seed(capsys):
    code, _, err = run(capsys, "search", "--base", "7_1")
    assert code == 2
    assert "seed" in err


def test_search_cli_logs_and_summary(capsys):
    argv = [
        "search", "--base", "BRAID:[1, 1, 1]",
        "--seed", "5", "--trials", "2", "--k", "0",
    ]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "hits: 2 of 2 trials"
    assert all(" base " in line for line in lines[:-1])
    code, out2, _ = run(capsys, *argv)
    assert out2 == out  # byte-identical reruns


def test_search_base_accepts_a_dt_presentation(capsys):
    argv = ["--seed", "5", "--trials", "2", "--k", "1"]
    code, out, _ = run(capsys, "search", "--base", "DT:[4, 6, 2]", *argv)
    assert code == 0
    log = []
    cfg = SearchConfig(seed=5, trials=2, k_changes=1)
    hits = run_pipeline(realize_dt(parse_dt("[4, 6, 2]")), cfg, log=log.append)
    assert out.splitlines() == [*log, f"hits: {len(hits)} of 2 trials"]


@pytest.mark.parametrize("text", ["DT:[4, 6]", "DT:[4, x, 2]", "DT:4, 6, 2", "DT:[3]"])
def test_bad_dt_presentation_gives_one_error(capsys, text):
    code, out, err = run(capsys, "search", "--base", text, "--seed", "5")
    with pytest.raises(InputError) as exc:
        parse_certificate(f"step:\npresentation: {text}\n")
    assert (code, out) == (2, "")
    assert err == f"error: {exc.value}\n"


def test_search_defaults_come_from_search_config():
    args = build_parser().parse_args(["search", "--base", "7_1", "--seed", "5"])
    assert cli._merge_search_config(args) == SearchConfig(seed=5)


def test_search_config_file(capsys, tmp_path):
    cfg = tmp_path / "search.cfg"
    cfg.write_text("seed=5\ntrials=2\nk_changes=0\n# comment\n")
    code, out, _ = run(
        capsys, "search", "--base", "BRAID:[1, 1, 1]", "--config", str(cfg)
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "hits: 2 of 2 trials"
    # explicit flag overrides the file
    code, out, _ = run(
        capsys,
        "search", "--base", "BRAID:[1, 1, 1]",
        "--config", str(cfg), "--trials", "1",
    )
    assert out.strip().splitlines()[-1] == "hits: 1 of 1 trials"


def test_search_targets_from_flag_and_config(capsys, tmp_path):
    argv = ["search", "--base", "7_1", "--seed", "1", "--trials", "2", "--k", "0"]
    _, out, _ = run(capsys, *argv, "--targets", "7_1")
    assert out.splitlines()[-1] == "hits: 2 of 2 trials"
    _, out, _ = run(capsys, *argv, "--targets", "K12n412")
    assert out.splitlines()[-1] == "hits: 0 of 2 trials"
    # Empty entries of the comma-separated list are skipped.
    cfg = tmp_path / "search.cfg"
    cfg.write_text("targets=,7_1,\n")
    _, out, _ = run(capsys, *argv, "--config", str(cfg))
    assert out.splitlines()[-1] == "hits: 2 of 2 trials"


def test_search_targets_are_stripped_and_must_be_known(capsys, tmp_path):
    argv = ["search", "--seed", "1", "--trials", "2", "--k", "0"]
    cfg = tmp_path / "search.cfg"
    for base, given in [("7_1", "K12n412, 7_1"), ("BRAID:[1, 1, 1]", "7_1 , base")]:
        _, out, _ = run(capsys, *argv, "--base", base, "--targets", given)
        assert out.splitlines()[-1] == "hits: 2 of 2 trials"
        cfg.write_text(f"targets={given}\n")
        _, out, _ = run(capsys, *argv, "--base", base, "--config", str(cfg))
        assert out.splitlines()[-1] == "hits: 2 of 2 trials"
    argv += ["--base", "7_1"]
    # A name that no result can carry is bad input, not a search with no hits.
    names = ", ".join(e.name for e in default_table())
    expected = (
        f"error: unknown target 'nope' (table has: {names}; base also counts)\n"
    )
    for given in ("nope", "7_1, nope"):
        assert run(capsys, *argv, "--targets", given) == (2, "", expected)
        cfg.write_text(f"targets={given}\n")
        assert run(capsys, *argv, "--config", str(cfg)) == (2, "", expected)


def test_search_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "search.cfg"
    cfg.write_text("seed=5\nbudget=10\n")
    code, _, err = run(
        capsys, "search", "--base", "BRAID:[1, 1, 1]", "--config", str(cfg)
    )
    assert code == 2
    assert "unknown config keys" in err


def test_dropped_walk_options_exit_2(capsys, tmp_path):
    # No output depends on how far a simplification walk got, so neither
    # the identification crossing cap nor the fingerprint budget is an
    # option or a config key.
    cfg = tmp_path / "search.cfg"
    cfg.write_text("seed=5\nmax_crossings_for_id=16\n")
    code, _, err = run(
        capsys, "search", "--base", "BRAID:[1, 1, 1]", "--config", str(cfg)
    )
    assert code == 2
    assert "unknown config keys: ['max_crossings_for_id']" in err
    with pytest.raises(SystemExit) as exc:
        main(["search", "--base", "BRAID:[1, 1, 1]", "--seed", "5", "--max-id", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--name", "7_1", "--budget", "10"])
    assert exc.value.code == 2


def test_search_replay_through_cli(capsys):
    base = ("search", "--base", "BRAID:[1, 1, 1]")
    _, out, _ = run(capsys, *base, "--seed", "5", "--trials", "1", "--k", "0")
    replay = (*base, "--replay", out.splitlines()[0])
    code, out, _ = run(capsys, *replay)
    assert code == 0
    assert out.strip().splitlines()[-1] == "replay: PASS"
    # The line carries its own seed, flips and result, so search options
    # beside it are refused rather than silently dropped.
    code, out, err = run(
        capsys, *replay, "--targets", "nope", "--config", "/nonexistent"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: --replay takes its settings from the line; "
        "drop --targets, --config\n"
    )
    for flag in ("--seed", "--trials", "--k", "--n-backtrack"):
        code, _, err = run(capsys, *replay, flag, "1")
        assert code == 2
        assert err.endswith(f"drop {flag}\n")


def test_search_replay_refuses_a_skip_line(capsys):
    # A skipped trial logs no braid and no flips, so there is nothing to
    # recompute; the refusal says so instead of blaming the braid field.
    code, out, err = run(
        capsys, "search", "--base", "BRAID:[1, 1, 1]",
        "--replay", "0 1000003 - - skip(ResourceError) -",
    )
    assert (code, out) == (2, "")
    assert err == "error: a skipped trial records no braid to replay\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2

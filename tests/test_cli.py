"""Command-line behaviour: output shapes, exit codes, determinism."""

import pytest

from gordian import cli, invariants
from gordian.cli import main
from gordian.codes import realize_dt
from gordian.errors import InternalError
from gordian.identify import default_table, save_table
from gordian.invariants import alexander, jones
from gordian.laurent import LaurentPoly
from gordian.moves import mirror


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


def test_verify_paper_transcripts_are_identical(capsys):
    _, first, _ = run(capsys, "verify-paper")
    _, second, _ = run(capsys, "verify-paper")
    assert first == second


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
    "argv",
    [
        ["search", "--base", "7_1", "--config", "{tmp}/letters.cfg"],
        ["search", "--base", "7_1", "--config", "{tmp}/binary.cfg"],
        ["search", "--base", "7_1", "--config", "{tmp}/missing.cfg"],
        ["identify", "--name", "7_1", "--table", "{tmp}/missing.tsv"],
        ["search", "--base", "7_1", "--seed", "5", "--k", "-1"],
        ["search", "--base", "7_1", "--seed", "5", "--trials", "-3"],
    ],
    ids=[
        "config-not-integer",
        "config-not-utf8",
        "config-missing",
        "table-missing",
        "negative-k",
        "negative-trials",
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


def test_search_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "search.cfg"
    cfg.write_text("seed=5\nbudget=10\n")
    code, _, err = run(
        capsys, "search", "--base", "BRAID:[1, 1, 1]", "--config", str(cfg)
    )
    assert code == 2
    assert "unknown config keys" in err


def test_search_replay_through_cli(capsys):
    code, out, _ = run(
        capsys,
        "search", "--base", "BRAID:[1, 1, 1]",
        "--seed", "5", "--trials", "1", "--k", "0",
    )
    line = out.strip().splitlines()[0]
    code, out, _ = run(
        capsys, "search", "--base", "BRAID:[1, 1, 1]", "--replay", line
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "replay: PASS"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2

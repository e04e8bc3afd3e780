"""Reference table construction, identification, and integrity checks."""

import pytest

from gordian.braid import BraidWord, braid_closure
from gordian.codes import parse_dt, realize_dt
from gordian.errors import InputError
from gordian.identify import (
    BUNDLED_CODES,
    KnotTableEntry,
    build_table,
    default_table,
    identify,
    load_table,
    same_knot_evidence,
    save_table,
)
from gordian.invariants import fingerprint
from gordian.moves import mirror


def test_default_table_names_and_duplicate_collapse():
    table = default_table()
    assert [e.name for e in table] == [
        "unknot",
        "7_1",
        "10_139",
        "K14a18636",
        "K15n81556",
        "K12n412",
    ]
    # Two different diagrams are bundled for K15n81556; they must agree.
    assert len([n for n, _ in BUNDLED_CODES if n == "K15n81556"]) == 2


def _via_build_table(entries, tmp_path):
    return build_table(entries)


def _via_load_table(entries, tmp_path):
    rows = []
    for name, code in entries:
        fp = fingerprint(realize_dt(code))
        rows.append(KnotTableEntry(name, code, fp, fp.mirrored()))
    path = tmp_path / "table.tsv"
    save_table(rows, str(path))
    return load_table(str(path))


TABLE_PATHS = pytest.mark.parametrize(
    "make_table, prefix",
    [
        pytest.param(_via_build_table, "", id="build_table"),
        pytest.param(_via_load_table, "table integrity: line 2: ", id="load_table"),
    ],
)


@TABLE_PATHS
def test_build_table_rejects_collisions(make_table, prefix, tmp_path):
    entries = [
        ("first", parse_dt("[4, 6, 2]")),
        ("second", parse_dt("[-4, -6, -2]")),  # same knot, new name
    ]
    with pytest.raises(InputError, match=f"^{prefix}fingerprint collision"):
        make_table(entries, tmp_path)


@TABLE_PATHS
def test_build_table_rejects_inconsistent_duplicate_names(
    make_table, prefix, tmp_path
):
    entries = [
        ("knot", parse_dt("[4, 6, 2]")),
        ("knot", parse_dt("[4, 6, 8, 2]")),  # different knot, same name
    ]
    with pytest.raises(InputError, match=f"^{prefix}duplicate name knot"):
        make_table(entries, tmp_path)


def test_identify_reports_chirality():
    table = default_table()
    d = realize_dt(parse_dt("[12, 14, -10, -20, 16, 18, 2, -8, 4, -6]"))
    assert identify(d, table) == [("7_1", "as-listed")]
    assert identify(mirror(d), table) == [("7_1", "mirror")]
    assert identify(fingerprint(d), table) == [("7_1", "as-listed")]


def test_identify_unknown_knot_is_empty():
    table = default_table()
    fig8 = braid_closure(BraidWord.from_letters((1, -2, 1, -2), 3))
    assert identify(fig8, table) == []


def test_same_knot_evidence_verdicts():
    t = braid_closure(BraidWord.from_letters((1, 1, 1), 2))
    report = same_knot_evidence(t, t)
    assert report.verdict == "PASS"
    assert report.passed
    assert all(left == right for _, left, right in report.comparisons)

    report = same_knot_evidence(t, mirror(t))
    assert report.verdict == "PASS-UP-TO-MIRROR"
    assert report.passed

    fig8 = braid_closure(BraidWord.from_letters((1, -2, 1, -2), 3))
    report = same_knot_evidence(t, fig8)
    assert report.verdict == "FAIL"
    assert not report.passed
    rendered = report.render()
    assert "FAIL" in rendered and "!=" in rendered
    assert "fingerprint evidence" in rendered


def test_table_save_load_round_trip(tmp_path):
    table = default_table()
    path = tmp_path / "table.tsv"
    save_table(table, str(path))
    loaded = load_table(str(path))
    assert [(e.name, e.dt, e.fingerprint) for e in loaded] == [
        (e.name, e.dt, e.fingerprint) for e in table
    ]


def test_load_table_detects_corruption(tmp_path):
    table = default_table()
    path = tmp_path / "table.tsv"
    save_table(table, str(path))
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("determinant=7", "determinant=9")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match="table integrity"):
        load_table(str(path))


def test_load_table_rejects_malformed_lines(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("only two\tfields\n")
    with pytest.raises(InputError, match="table integrity"):
        load_table(str(path))

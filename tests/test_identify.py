"""Reference table construction, identification, and integrity checks."""

import re
import sys

import pytest

from gordian.braid import BraidWord, braid_closure
from gordian.certify import CertificateStep, UnknottingCertificate, check_certificate
from gordian.codes import parse_dt, realize_dt
from gordian.errors import InputError, InternalError, ResourceError
from gordian.identify import (
    BUNDLED_CODES,
    KnotTableEntry,
    build_table,
    default_table,
    identify,
    load_table,
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
    # Two different diagrams are bundled for K15n81556; they must agree, and
    # the second code is kept as an alias of the first entry.
    first, second = [parse_dt(t) for n, t in BUNDLED_CODES if n == "K15n81556"]
    entry = next(e for e in table if e.name == "K15n81556")
    assert (entry.dt, entry.aliases) == (first, (second,))
    assert all(e.aliases == () for e in table if e is not entry)


def _via_build_table(entries, tmp_path):
    return build_table(entries)


def _via_load_table(entries, tmp_path):
    rows = []
    for name, code in entries:
        fp = fingerprint(realize_dt(code))
        rows.append(KnotTableEntry(name, code, fp))
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


@TABLE_PATHS
@pytest.mark.parametrize("error", [InternalError, ResourceError])
def test_table_fingerprint_faults_propagate(
    make_table, prefix, tmp_path, monkeypatch, error
):
    # A limit or a fault met while fingerprinting an entry is not bad
    # input: both table paths let it through unchanged.
    def failing(d):
        raise error("fingerprint failed")

    # The package exports a function named identify, so reach the module
    # through sys.modules.
    monkeypatch.setattr(sys.modules["gordian.identify"], "fingerprint", failing)
    with pytest.raises(error, match="^fingerprint failed$"):
        make_table([("trefoil", parse_dt("[4, 6, 2]"))], tmp_path)


# realize_dt fixes a code's chirality by the writhe of its crossings, so
# negating every entry of the 7_1 code realizes 7_1 again, not its mirror.
# The second pair labels one writhe-0 diagram of a chiral 10-crossing knot
# from two starts, and the writhe tie rule realizes opposite mirror images.
SEVEN_ONE = parse_dt("[12, 14, -10, -20, 16, 18, 2, -8, 4, -6]")
NEGATED_SEVEN_ONE = parse_dt("[-12, -14, 10, 20, -16, -18, -2, 8, -4, 6]")
TEN = parse_dt("[-14, -18, 12, -2, -16, 4, -20, -8, -10, -6]")
MIRROR_TEN = parse_dt("[-16, -10, 18, -14, -2, -4, -20, -8, -12, 6]")


@TABLE_PATHS
@pytest.mark.parametrize(
    "first, second, aliases, chirality",
    [
        pytest.param(
            SEVEN_ONE, NEGATED_SEVEN_ONE, (NEGATED_SEVEN_ONE,), "as-listed",
            id="same-fingerprint",
        ),
        pytest.param(TEN, MIRROR_TEN, (), "mirror", id="mirror-fingerprint"),
    ],
)
def test_a_repeated_code_is_an_alias_only_in_the_same_chirality(
    make_table, prefix, tmp_path, first, second, aliases, chirality
):
    # A repeated name whose code draws the mirror image is dropped.  As an
    # alias it would lend a certificate step presenting that code the
    # as-listed fingerprint, and the step would report the wrong chirality.
    table = make_table([("knot", first), ("knot", second)], tmp_path)
    fp = fingerprint(realize_dt(first))
    assert table == [KnotTableEntry("knot", first, fp, aliases)]
    assert identify(fingerprint(realize_dt(second)), table) == ("knot", chirality)
    step = CertificateStep(second, frozenset(), "knot", "knot")
    report = check_certificate(UnknottingCertificate((step,)), table)
    assert report.passed
    assert report.steps[0].lines[1:] == (
        f"  before: knot ({chirality}) [fingerprint evidence]",
        "  change crossings [] (0 changes)",
        f"  after: knot ({chirality}) [fingerprint evidence]",
    )


@TABLE_PATHS
@pytest.mark.parametrize(
    "name", ["", "my knot", "K(1)", "7_1#7_1", "a,b", "a;b", "~7_1", "base", "?"]
)
def test_a_table_name_must_come_back_whole(make_table, prefix, tmp_path, name):
    # Each of these names would be cut, joined or misread by a reader of
    # names: a search log line, --targets, --name, or a search result.
    entries = [("7_1", SEVEN_ONE), (name, parse_dt("[4, 6, 2]"))]
    message = re.escape(f"{prefix}bad table name {name!r}: ")
    with pytest.raises(InputError, match=f"^{message}"):
        make_table(entries, tmp_path)


def test_build_table_names_an_unrealizable_entry():
    with pytest.raises(InputError, match=r"^table entry bad: "):
        build_table([("bad", parse_dt("[4, 6, 8, 10, 2]"))])


def test_identify_reports_chirality():
    table = default_table()
    d = realize_dt(parse_dt("[12, 14, -10, -20, 16, 18, 2, -8, 4, -6]"))
    assert identify(fingerprint(d), table) == ("7_1", "as-listed")
    assert identify(fingerprint(mirror(d)), table) == ("7_1", "mirror")


def test_identify_unknown_knot_is_empty():
    table = default_table()
    fig8 = braid_closure(BraidWord.from_letters((1, -2, 1, -2), 3))
    assert identify(fingerprint(fig8), table) is None


def test_table_save_load_round_trip(tmp_path):
    table = default_table()
    path = tmp_path / "table.tsv"
    save_table(table, str(path))
    loaded = load_table(str(path))
    assert [(e.name, e.dt, e.aliases, e.fingerprint) for e in loaded] == [
        (e.name, e.dt, e.aliases, e.fingerprint) for e in table
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

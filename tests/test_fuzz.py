"""Property tests for the text parsers and the readers built on them.

Arbitrary text may only fail with a package error (which the CLI maps to
an exit code), never with a bare Python exception; valid DT codes and
braid words survive a render/parse round trip unchanged.  Search log
lines, table files and search config files are fuzzed the same way; the
knots they can name are kept to a few crossings so each example is cheap.
Connected sums of two random knot closures keep their fingerprint through
PD text and the Vogel braid, and up to mirror through a DT code, which is
refused when both summands are knotted.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gordian import cli
from gordian.braid import (
    BraidWord,
    braid_closure,
    closure_component_count,
    parse_braid,
    render_braid,
    vogel_braid,
)
from gordian.certify import parse_certificate
from gordian.codes import DTCode, parse_dt, pd_to_dt, realize_dt, render_dt
from gordian.diagram import pd_from_text, pd_to_text
from gordian.errors import GordianError, InputError
from gordian.identify import build_table, default_table, load_table, save_table
from gordian.invariants import fingerprint, jones
from gordian.laurent import LaurentPoly
from gordian.moves import connected_sum, simplify_greedy
from gordian.search import replay_line

FUZZ = settings(max_examples=150, deadline=None, database=None)


def _text(alphabet: str):
    """Arbitrary text, or text drawn mostly from a format's own symbols."""
    return st.one_of(st.text(), st.text(alphabet=alphabet))


def _parses_or_raises_gordian_error(parse, text: str) -> None:
    try:
        parse(text)
    except GordianError:
        pass


@FUZZ
@given(_text("DT:[]0123456789-, \n"))
def test_parse_dt_raises_only_package_errors(text):
    _parses_or_raises_gordian_error(parse_dt, text)


@FUZZ
@given(_text("BRAID:[]0123456789-, \n"))
def test_parse_braid_raises_only_package_errors(text):
    _parses_or_raises_gordian_error(parse_braid, text)


_pd_line = st.builds(
    "X[{},{},{},{}] sign={}".format,
    *[st.integers(0, 9)] * 4,
    st.sampled_from(["+1", "-1"]),
)


@FUZZ
@given(
    st.one_of(
        _text("X[]0123456789,+-= signO\n"),
        st.lists(st.one_of(_pd_line, st.just("O")), max_size=6).map("\n".join),
    )
)
def test_pd_from_text_raises_only_package_errors(text):
    _parses_or_raises_gordian_error(pd_from_text, text)


_cert_line = st.one_of(
    st.just("step:"),
    st.sampled_from(["DT:[4, 6, 2]", "DT:[]", "DT:[4, 2]", "BRAID:[1, 1, 1]"])
    .map("presentation: {}".format),
    st.sampled_from(["BRAID:[0]", "DT:[x]", "[1]"]).map("presentation: {}".format),
    st.text(alphabet="0123456789, x-", max_size=6).map("flip: {}".format),
    st.builds(
        "{}: {}".format,
        st.sampled_from(["before", "after", "other"]),
        st.text(max_size=6),
    ),
    st.text(max_size=12),
)


@FUZZ
@given(st.one_of(st.text(), st.lists(_cert_line, max_size=8).map("\n".join)))
def test_parse_certificate_raises_only_package_errors(text):
    _parses_or_raises_gordian_error(parse_certificate, text)


@st.composite
def dt_codes(draw):
    n = draw(st.integers(0, 12))
    evens = draw(st.permutations([2 * i for i in range(1, n + 1)]))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return DTCode(tuple(s * e for s, e in zip(signs, evens)))


@FUZZ
@given(dt_codes())
def test_dt_render_then_parse_is_identity(code):
    assert parse_dt(render_dt(code)) == code


@FUZZ
@given(st.lists(st.integers(-9, 9).filter(bool), max_size=20))
def test_braid_render_then_parse_is_identity(letters):
    word = BraidWord.from_letters(letters)
    assert parse_braid(render_braid(word)) == word
    assert parse_braid("BRAID:" + render_braid(word)) == word


@st.composite
def knot_words(draw):
    """A braid word of at most 4 strands and 15 letters closing to a knot.

    Up to 12 drawn letters are followed by a letter at each pair of
    adjacent strands that still lie in different components of the
    closure, which joins the two.
    """
    strands = draw(st.integers(2, 4))
    gens = st.integers(1, strands - 1)
    letter = st.one_of(gens, gens.map(int.__neg__))
    letters = draw(st.lists(letter, max_size=12))
    for i in range(1, strands):
        count = closure_component_count(BraidWord(tuple(letters), strands))
        if closure_component_count(BraidWord((*letters, i), strands)) < count:
            letters.append(draw(st.sampled_from((i, -i))))
    word = BraidWord(tuple(letters), strands)
    assert closure_component_count(word) == 1
    return word


@FUZZ
@given(knot_words(), knot_words())
def test_pd_dt_and_braid_round_trips_keep_the_fingerprint(word, other):
    left, right = braid_closure(word), braid_closure(other)
    d = connected_sum(left, right)
    fp = fingerprint(d)
    assert fingerprint(pd_from_text(pd_to_text(d))) == fp
    assert fingerprint(braid_closure(vogel_braid(d))) == fp
    if all(_nontrivial(simplify_greedy(k)) for k in (left, right)):
        # A code would not fix each summand's chirality.
        with pytest.raises(InputError):
            pd_to_dt(d)
        return
    try:
        code = pd_to_dt(d)
    except InputError:
        return  # a diagram of a trivial summand can still look composite
    fr = fingerprint(realize_dt(code))
    assert fr in (fp, fp.mirrored())


def _nontrivial(d) -> bool:
    return d.n >= 3 and jones(d) != LaurentPoly.one()


def _tokens(valid, broken=("", "x", "-", "1.5")):
    """A field: a well-formed value, a malformed one, or arbitrary text."""
    return st.one_of(
        st.sampled_from(valid), st.sampled_from(broken), st.text(max_size=4)
    )


@st.composite
def _log_lines(draw):
    """A well-formed log line, often with one field replaced by junk."""
    letters = draw(st.lists(st.integers(-2, 2).filter(bool), max_size=4))
    flips = draw(
        st.lists(
            st.one_of(st.integers(-1, 5).map(str), st.sampled_from(["x", "", "1.5"])),
            max_size=3,
        )
    )
    fields = [
        str(draw(st.integers(0, 9))),
        str(draw(st.integers(0, 2**31))),
        render_braid(BraidWord.from_letters(letters)).replace(" ", ""),
        "[" + ",".join(flips) + "]",
        draw(st.sampled_from(["base", "?", "7_1"])),
        "alexander=1",
    ]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(fields) - 1))
        fields[i] = draw(_tokens(["[", "[]"]))
    return " ".join(fields)


@FUZZ
@given(st.one_of(st.text(), _log_lines()))
def test_replay_line_raises_only_package_errors(line):
    unknot = braid_closure(BraidWord((), 1))
    _parses_or_raises_gordian_error(
        lambda text: replay_line(text, unknot, default_table()), line
    )


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@pytest.fixture(scope="module")
def unknot_line(scratch_file):
    """The well-formed table line of the unknot."""
    save_table(build_table([("unknot", parse_dt("[]"))]), str(scratch_file))
    return scratch_file.read_text().rstrip("\n")


def _table_texts(unknot_line):
    name, dt, fp, fpm = unknot_line.split("\t")
    row = st.one_of(
        st.just(unknot_line),
        st.tuples(
            _tokens([name, "0_1"]),
            _tokens([dt, "DT:[2]", "DT:[-2, 4]", "DT:[4, 6, 2]", "DT:[4, 2, 6]"]),
            _tokens([fp, fpm]),
            _tokens([fpm, fp]),
        ).map("\t".join),
        st.text(max_size=20),
    )
    return st.lists(row, max_size=4).map("\n".join)


def test_load_table_raises_only_package_errors(scratch_file, unknot_line):
    @FUZZ
    @given(_table_texts(unknot_line))
    def check(text):
        scratch_file.write_text(text, encoding="utf-8")
        _parses_or_raises_gordian_error(load_table, str(scratch_file))

    check()


_config_line = st.one_of(
    st.builds(
        "{}={}".format,
        st.sampled_from(
            ["seed", "trials", "k_changes", "n_backtrack", "targets", "budget"]
        ),
        _tokens(["0", "5", "-1", "7_1,K12n412"]),
    ),
    st.sampled_from(["", "# comment", "seed", "=5"]),
    st.text(max_size=12),
)


def test_search_config_file_exits_0_or_2(scratch_file):
    @FUZZ
    @given(
        st.one_of(
            st.lists(_config_line, max_size=5).map("\n".join).map(str.encode),
            st.binary(max_size=20),
        )
    )
    def check(data):
        scratch_file.write_bytes(data)
        argv = ["search", "--base", "BRAID:[1]", "--config", str(scratch_file)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--trials", "0"])
        assert code in (0, 2)
        assert (code == 2) == err.getvalue().startswith("error: ")

    check()

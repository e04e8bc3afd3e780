"""Property tests for the text parsers.

Arbitrary text may only fail with a package error (which the CLI maps to
an exit code), never with a bare Python exception; valid DT codes and
braid words survive a render/parse round trip unchanged.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gordian.braid import BraidWord, parse_braid, render_braid
from gordian.certify import parse_certificate
from gordian.codes import DTCode, parse_dt, render_dt
from gordian.diagram import pd_from_text
from gordian.errors import GordianError

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

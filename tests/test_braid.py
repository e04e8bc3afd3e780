"""Braid words, closures, and the braiding of arbitrary diagrams."""

import random

import pytest

from gordian.braid import (
    BraidWord,
    braid_closure,
    closure_component_count,
    flip_letters,
    parse_braid,
    permutation,
    render_braid,
    vogel_braid,
    writhe,
)
from gordian.diagram import validate_pd
from gordian.errors import InputError
from gordian.invariants import fingerprint
from gordian.moves import backtrack_randomize, simplify_global
from tests.conftest import (
    random_knot_diagram,
    random_knot_word,
    reference_incoherent_pair,
    reference_vogel_braid,
    relabelled,
)


def test_braid_word_validation():
    with pytest.raises(InputError):
        BraidWord((1, 0), 3)
    with pytest.raises(InputError):
        BraidWord((3,), 3)
    with pytest.raises(InputError):
        BraidWord((), 0)
    assert BraidWord.from_letters([2, -1]).strands == 3


def test_writhe_is_exponent_sum():
    assert writhe(BraidWord.from_letters((1, 1, 1))) == 3
    assert writhe(BraidWord.from_letters((1, -2, -2))) == -1


def test_permutation_composition():
    # sigma_1 then sigma_2 on three strands sends 0->1->2, a 3-cycle.
    word = BraidWord.from_letters((1, 2), 3)
    assert permutation(word) == (1, 2, 0)
    assert closure_component_count(word) == 1
    identity = BraidWord((), 3)
    assert permutation(identity) == (0, 1, 2)
    assert closure_component_count(identity) == 3


def test_flip_letters():
    word = BraidWord.from_letters((1, -4, 2))
    assert flip_letters(word, (0, 1)).letters == (-1, 4, 2)
    with pytest.raises(InputError):
        flip_letters(word, (3,))


def test_closure_structure():
    d = braid_closure(BraidWord.from_letters((1, 1, 1), 2))
    assert d.n == 3
    assert d.component_count == 1
    assert validate_pd(d) == []
    # closure of sigma sigma^-1 is a two-component unlink
    d2 = braid_closure(BraidWord.from_letters((1, -1), 2))
    assert d2.component_count == 2


def test_parse_render_round_trip():
    word = BraidWord.from_letters((1, -4, 2, 3))
    assert parse_braid(render_braid(word)).letters == word.letters
    assert parse_braid("BRAID:[1, -4, 2, 3]").letters == (1, -4, 2, 3)
    assert parse_braid("[]").letters == ()
    with pytest.raises(InputError):
        parse_braid("1, 2, 3")
    with pytest.raises(InputError):
        parse_braid("[1, x]")


def test_vogel_braid_of_closure_is_knot_preserving(rng):
    # Braiding a diagram must not change the knot: fingerprints agree
    # exactly, chirality included.
    for _ in range(20):
        d = random_knot_diagram(rng, max_crossings=10)
        word = vogel_braid(d)
        closed = braid_closure(word)
        assert closure_component_count(word) == 1
        assert fingerprint(closed) == fingerprint(d)


def test_vogel_braid_of_braid_closure_round_trips(rng):
    for _ in range(10):
        word = random_knot_word(rng, max_strands=3, max_letters=7)
        d = braid_closure(word)
        again = braid_closure(vogel_braid(simplify_global(d, budget=500)))
        assert fingerprint(again) == fingerprint(d)


def test_vogel_braid_matches_the_reference_on_large_scrambles():
    # The move-loop cases stay under about 45 crossings.  On scrambles of
    # 100-170 crossings, where a push meets long circles and large faces,
    # the kept circles and face pairs must still make the same pushes as
    # the reference, which rebuilds the whole diagram after each one.
    rng = random.Random(1990)
    cases = 0
    for i in range(4):
        word = random_knot_word(rng, max_strands=6, max_letters=120, min_letters=100)
        d = backtrack_randomize(braid_closure(word), 150, seed=i)
        if not 100 <= d.n <= 170:
            continue
        braid, ref = vogel_braid(d), reference_vogel_braid(d)
        assert (braid.letters, braid.strands) == (ref.letters, ref.strands)
        cases += 1
    assert cases >= 3


def test_vogel_braid_matches_the_reference_on_shuffled_closures(rng):
    # A closure is coherent already, so no push is made and the braid is
    # read with the input's own labels: the chain of circles starts at the
    # end circle that owns the smallest of them.  Shuffling the labels
    # moves that end, which numbers the strands from the other end.
    reversed_ = 0
    for _ in range(150):
        d = braid_closure(random_knot_word(rng, max_strands=5, max_letters=14))
        x = relabelled(d, rng)
        assert reference_incoherent_pair(x) is None
        braid, ref = vogel_braid(x), reference_vogel_braid(x)
        assert (braid.letters, braid.strands) == (ref.letters, ref.strands)
        reversed_ += braid != vogel_braid(d)
    assert reversed_ >= 30

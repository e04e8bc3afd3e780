"""DT codes: parsing, realization in the plane, and extraction."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gordian.braid import BraidWord, braid_closure
from gordian.codes import (
    DTCode,
    _embed_shadow,
    flip_entries,
    parse_dt,
    pd_to_dt,
    realize_dt,
    render_dt,
)
from gordian.diagram import validate_pd
from gordian.errors import InputError, UnrealizableError
from gordian.invariants import determinant, fingerprint, jones
from gordian.laurent import LaurentPoly
from gordian.moves import mirror
from tests.conftest import (
    planar_rotations,
    random_knot_diagram,
    two_edge_cut_split,
)


def test_parse_dt_accepts_well_formed_codes():
    code = parse_dt("[4, -16, 24, 26, 18, 20, 28, 22, -2, 10, 12, 30, 6, 8, 14]")
    assert code.n == 15
    assert parse_dt("DT:[4, 6, 2]").entries == (4, 6, 2)
    assert parse_dt("[]").entries == ()


def test_parse_dt_rejects_bad_codes():
    with pytest.raises(InputError):
        parse_dt("[4, 6, 3]")  # odd entry
    with pytest.raises(InputError):
        parse_dt("[4, 4, 2]")  # repeated magnitude
    with pytest.raises(InputError):
        parse_dt("[4, 8, 2]")  # does not cover 2..2n
    with pytest.raises(InputError):
        parse_dt("[4, 0, 2]")  # zero entry
    with pytest.raises(InputError):
        parse_dt("4, 6, 2")  # missing brackets
    with pytest.raises(InputError):
        parse_dt("[4, x, 2]")


def test_render_parse_round_trip():
    code = parse_dt("[4, -16, 2, 14, -6, 8, 10, 12]")
    assert parse_dt(render_dt(code)) == code
    assert render_dt(DTCode(())) == "DT:[]"


def test_flip_entries():
    code = parse_dt("[4, 6, 2]")
    assert flip_entries(code, {1}).entries == (4, -6, 2)
    assert flip_entries(code, ()) == code
    with pytest.raises(InputError):
        flip_entries(code, {3})


def test_realize_trefoil():
    d = realize_dt(parse_dt("[4, 6, 2]"))
    assert d.n == 3
    assert d.is_knot
    assert validate_pd(d) == []
    assert determinant(d) == 3
    assert jones(d) != LaurentPoly.one()


def test_realize_empty_code_is_unknot():
    d = realize_dt(DTCode(()))
    assert d.n == 0
    assert d.component_count == 1


def test_realize_figure_eight():
    d = realize_dt(parse_dt("[4, 6, 8, 2]"))
    assert d.n == 4
    assert determinant(d) == 5
    fp = fingerprint(d)
    assert fp == fp.mirrored()  # the figure eight is amphichiral


def test_realize_10_139():
    d = realize_dt(parse_dt("[12, 14, -10, -20, -16, 18, 2, -8, 4, -6]"))
    assert d.n == 10
    assert determinant(d) == 3
    assert validate_pd(d) == []


def test_realize_rejects_unrealizable_code():
    # The chord diagram of [4, 6, 8, 10, 2] has no planar embedding.
    with pytest.raises(UnrealizableError):
        realize_dt(parse_dt("[4, 6, 8, 10, 2]"))
    with pytest.raises(UnrealizableError):
        realize_dt(parse_dt("[4, 8, 2, 10, 6]"))


def test_realized_chirality_is_normalized():
    # A code and its entrywise negation describe mirror diagrams; the
    # realizer resolves that ambiguity identically for both.
    a = realize_dt(parse_dt("[4, 6, 2]"))
    b = realize_dt(parse_dt("[-4, -6, -2]"))
    assert fingerprint(a) == fingerprint(b)
    assert a.writhe >= 0


def test_pd_to_dt_of_trefoil():
    d = braid_closure(BraidWord.from_letters((1, 1, 1), 2))
    code = pd_to_dt(d)
    assert tuple(abs(e) for e in code.entries) == (4, 6, 2)
    assert len({e > 0 for e in code.entries}) == 1  # alternating: one sign


def test_pd_to_dt_unknot_and_errors():
    assert pd_to_dt(braid_closure(BraidWord((), 1))).entries == ()
    link = braid_closure(BraidWord.from_letters((1, 1), 2))
    with pytest.raises(InputError):
        pd_to_dt(link)


def test_dt_round_trip_up_to_mirror(rng):
    # Knot-level and code-level round trips across random realizable codes.
    # A code fixes a diagram only up to reflecting each prime summand, so
    # diagrams with two or more summands of 3 or more crossings are refused.
    seen = 0
    while seen < 30:
        d = random_knot_diagram(rng, max_crossings=12)
        if sum(part.n >= 3 for part in two_edge_cut_split(d)) >= 2:
            seen += 1
            with pytest.raises(InputError):
                pd_to_dt(d)
            continue
        code = pd_to_dt(d)
        if code.n == 0:
            continue
        seen += 1
        r = realize_dt(code)
        assert validate_pd(r) == []
        fd, fr = fingerprint(d), fingerprint(r)
        assert fd == fr or fd == fr.mirrored()
        again = pd_to_dt(r)
        assert again == code or pd_to_dt(mirror(r)) == code


def _piece_labels(code: DTCode) -> list[int]:
    """Connected piece of each crossing in the graph joining crossings
    whose passes interlace."""
    spans = [sorted((2 * i + 1, abs(e))) for i, e in enumerate(code.entries)]
    piece = list(range(code.n))
    for c, (a, b) in enumerate(spans):
        for d, (x, y) in enumerate(spans):
            if (a < x < b) != (a < y < b):
                old, new = piece[d], piece[c]
                piece = [new if p == old else p for p in piece]
    return piece


def _interlacement_pieces(code: DTCode) -> int:
    """Connected pieces of the graph joining crossings whose passes interlace."""
    return len(set(_piece_labels(code)))


def test_embedding_matches_the_face_count_oracle():
    rng = random.Random(20261018)
    realizable = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        evens = rng.sample(range(2, 2 * n + 1, 2), n)
        code = DTCode(tuple(rng.choice((1, -1)) * e for e in evens))
        planar = planar_rotations(code)
        if not planar:
            with pytest.raises(UnrealizableError):
                realize_dt(code)
            continue
        realizable += 1
        assert tuple(_embed_shadow(code)[0]) in planar
        # Each piece is embedded uniquely up to reflection.
        assert len(planar) == 2 ** _interlacement_pieces(code)
        assert validate_pd(realize_dt(code)) == []
    assert 100 < realizable < 400


def test_flipping_a_crossing_of_a_small_summand_keeps_the_knot():
    # A summand of 1 or 2 crossings is unknotted whatever its crossings,
    # so changing one must not change the knot, nor let a kink's sign pick
    # the chirality of the rest.
    rng = random.Random(20261019)
    checked = 0
    while checked < 400:
        n = rng.randint(4, 10)
        evens = rng.sample(range(2, 2 * n + 1, 2), n)
        code = DTCode(tuple(rng.choice((1, -1)) * e for e in evens))
        labels = _piece_labels(code)
        small = [c for c in range(n) if labels.count(labels[c]) < 3]
        if not small:
            continue
        try:
            fp = fingerprint(realize_dt(code))
        except UnrealizableError:
            continue
        checked += 1
        for c in small:
            assert fingerprint(realize_dt(flip_entries(code, {c}))) == fp, (code, c)


def test_package_imports_only_the_standard_library():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys, gordian.cli\n"
        "allowed = set(sys.stdlib_module_names) | {'gordian', '__main__'}\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} - allowed))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"

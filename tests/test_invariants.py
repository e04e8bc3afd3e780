"""Exact invariants, checked against an independent oracle and frozen values.

The Alexander polynomial has two test oracles, each independent of the
package's route, which takes one determinant of the Burau matrix of a
braid.  ``seifert_alexander`` in conftest interpolates ``det(V - t*V^T)``
of the Seifert matrix from integer determinants, which also pins the
Seifert matrix that the package's signature reads.  ``fox_alexander``
reads no braid at all: it takes a minor of the Fox derivatives of the
diagram's Wirtinger relators.
Determinants likewise cross two routes: Burau/Alexander on one side and
the Kauffman bracket (Jones at -1) on the other.  The bracket itself,
computed by planar contraction, is checked against the 2**n state sum
(``state_sum_bracket`` in conftest) and, beyond that sum's reach, against
the path-following contraction it replaced
(``reference_contraction_bracket``), peak frontier states included.
Signature and determinant are checked against ``goeritz_signature``
(Gordon-Litherland), which reads the diagram's checkerboard faces and no
Seifert matrix.  The
span of the Jones polynomial is checked against the crossing count of
random diagrams, the bound (Kauffman, Murasugi, Thistlethwaite) behind the
simplifier's minimality test, and that test, which reads only the Gauss
sequence, against span V.
"""
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gordian import invariants, moves
from gordian.braid import BraidWord, braid_closure
from gordian.certify import BASE_BRAID
from gordian.codes import parse_dt, realize_dt
from gordian.diagram import Crossing, Editor, PDDiagram, interlacement, pd_to_text
from gordian.errors import InputError, ResourceError, UnrealizableError
from gordian.identify import BUNDLED_CODES, default_table
from gordian.invariants import (
    _contraction_order,
    _symmetric_signature,
    alexander,
    determinant,
    fingerprint,
    jones,
    kauffman_bracket,
    knot_invariants,
    murasugi_bound,
    seifert_matrix,
    signature,
    torus_diagram,
)
from gordian.laurent import LaurentPoly
from gordian.moves import (
    backtrack_randomize,
    connected_sum,
    crossing_change,
    mirror,
    simplify_global,
    simplify_greedy,
)
from tests.conftest import (
    NARROW_WIDTH,
    fox_alexander,
    fraction_signature,
    goeritz_signature,
    int_det,
    random_knot_diagram,
    random_knot_word,
    reference_contraction_bracket,
    seifert_alexander,
    state_sum_bracket,
)
from tests.test_fuzz import dt_codes, knot_words

TREFOIL = BraidWord.from_letters((1, 1, 1), 2)
FIGURE_EIGHT = BraidWord.from_letters((1, -2, 1, -2), 3)
T27 = BraidWord.from_letters((1,) * 7, 2)
T34 = BraidWord.from_letters((1, 2) * 4, 3)


def poly(*terms):
    return LaurentPoly(list(terms))


# ---------------------------------------------------------------------------
# the independent oracle first: Seifert agrees with the Burau route
# ---------------------------------------------------------------------------


def test_seifert_oracle_matches_published_values():
    # The oracle itself is pinned before it is trusted.
    assert seifert_alexander(TREFOIL) == poly((-1, 1), (0, -1), (1, 1))
    assert seifert_alexander(FIGURE_EIGHT) == poly((-1, -1), (0, 3), (1, -1))
    assert seifert_alexander(T27) == poly(
        (-3, 1), (-2, -1), (-1, 1), (0, -1), (1, 1), (2, -1), (3, 1)
    )


def test_alexander_agrees_with_seifert_oracle(rng):
    for _ in range(40):
        word = random_knot_word(rng, max_strands=8, max_letters=30)
        assert alexander(word) == seifert_alexander(word), word.letters


def test_fox_oracle_matches_published_values():
    assert fox_alexander(PDDiagram((), 1)) == LaurentPoly.one()
    assert fox_alexander(braid_closure(TREFOIL)) == poly((-1, 1), (0, -1), (1, 1))
    assert fox_alexander(braid_closure(FIGURE_EIGHT)) == poly(
        (-1, -1), (0, 3), (1, -1)
    )
    assert fox_alexander(braid_closure(T27)) == poly(
        (-3, 1), (-2, -1), (-1, 1), (0, -1), (1, 1), (2, -1), (3, 1)
    )


def test_alexander_agrees_with_fox_oracle(rng):
    # The Fox oracle reads the diagram's arcs, so it also checks the Vogel
    # braid that alexander() reads off a diagram that is not a closure.
    for _ in range(150):
        word = random_knot_word(rng, max_strands=6, max_letters=30)
        d = braid_closure(word)
        assert alexander(word) == fox_alexander(d), word.letters
    for seed in range(16):
        d = backtrack_randomize(
            braid_closure(random_knot_word(rng, max_letters=12)), steps=8, seed=seed
        )
        assert alexander(d) == fox_alexander(d), seed
    for name, text in BUNDLED_CODES:
        d = realize_dt(parse_dt(text))
        assert alexander(d) == fox_alexander(d), name
    base = braid_closure(BASE_BRAID)
    assert alexander(base) == fox_alexander(base)


def test_goeritz_oracle_matches_published_values():
    # In the package's sign convention the positive trefoil has +2.
    assert goeritz_signature(PDDiagram((), 1)) == (0, 1)
    assert goeritz_signature(braid_closure(TREFOIL)) == (2, 3)
    assert goeritz_signature(braid_closure(FIGURE_EIGHT)) == (0, 5)
    assert goeritz_signature(braid_closure(T27)) == (6, 7)
    assert goeritz_signature(braid_closure(T34), flip=True) == (6, 3)


def test_signature_and_determinant_agree_with_goeritz_oracle(rng):
    # Gordon-Litherland reads the diagram's faces, not the Seifert matrix
    # whose constants the package's signature reads, so a wrong constant
    # shows here; the checkerboard colouring must not matter.
    diagrams = [
        braid_closure(random_knot_word(rng, max_strands=8, max_letters=40))
        for _ in range(150)
    ]
    diagrams += [
        backtrack_randomize(
            braid_closure(random_knot_word(rng, max_letters=12)), steps=8, seed=seed
        )
        for seed in range(16)
    ]
    diagrams += [realize_dt(parse_dt(text)) for _, text in BUNDLED_CODES]
    diagrams.append(braid_closure(BASE_BRAID))
    for d in diagrams:
        expected = (signature(d), determinant(d))
        assert goeritz_signature(d) == expected, d.crossings
        assert goeritz_signature(d, flip=True) == expected, d.crossings


def test_burau_pivots_are_units_at_one(rng):
    # alexander() never swaps rows: its Bareiss pivots are the leading
    # principal minors of psi - I, and at t = 1 psi is the permutation
    # matrix of the closure's one cycle, whose leading q x q minors of
    # psi - I are (-1)**q, so no pivot can vanish.
    for _ in range(300):
        word = random_knot_word(rng, max_strands=8, max_letters=30)
        k = word.strands
        cols = [[int(i == j) for i in range(k)] for j in range(k)]
        for letter in word.letters:
            i = abs(letter) - 1
            cols[i], cols[i + 1] = cols[i + 1], cols[i]
        m = [[cols[j][i] - (i == j) for j in range(k)] for i in range(k)]
        for q in range(1, k):
            assert int_det([row[:q] for row in m[:q]]) == (-1) ** q, word.letters


# ---------------------------------------------------------------------------
# frozen anchors
# ---------------------------------------------------------------------------


def test_alexander_anchors():
    assert alexander(TREFOIL) == poly((-1, 1), (0, -1), (1, 1))
    assert alexander(FIGURE_EIGHT) == poly((-1, -1), (0, 3), (1, -1))
    assert alexander(T27) == poly(
        (-3, 1), (-2, -1), (-1, 1), (0, -1), (1, 1), (2, -1), (3, 1)
    )
    assert alexander(T34) == poly((-3, 1), (-2, -1), (0, 1), (2, -1), (3, 1))
    assert alexander(braid_closure(BraidWord((), 1))) == LaurentPoly.one()


def test_alexander_of_10_139_matches_published_table():
    d = realize_dt(parse_dt("DT:[12, 14, -10, -20, -16, 18, 2, -8, 4, -6]"))
    assert alexander(d) == poly(
        (-4, 1), (-3, -1), (-1, 2), (0, -3), (1, 2), (3, -1), (4, 1)
    )
    assert determinant(d) == 3
    assert abs(signature(d)) == 6


def test_signature_anchors():
    assert signature(braid_closure(TREFOIL)) == 2
    assert signature(FIGURE_EIGHT) == 0
    assert signature(T27) == 6
    assert signature(T34) == 6
    assert signature(braid_closure(BraidWord((), 1))) == 0


def _random_symmetric(rng: random.Random) -> list[list[int]]:
    """A symmetric integer matrix, often with zero diagonal or singular."""
    n = rng.randint(0, 8)
    spread = rng.choice((1, 2, 5))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-spread, spread)
    if n and rng.random() < 0.3:
        for i in range(n):
            a[i][i] = 0
    if n > 1 and rng.random() < 0.3:
        # Copy a row and column onto another: singular, same symmetry.
        i, j = rng.sample(range(n), 2)
        for k in range(n):
            a[j][k] = a[i][k]
        for k in range(n):
            a[k][j] = a[k][i]
    return a


def test_signature_matches_the_fraction_oracle(rng):
    for _ in range(500):
        a = _random_symmetric(rng)
        assert _symmetric_signature(a) == fraction_signature(a), a
    for _ in range(40):
        V = seifert_matrix(random_knot_word(rng, max_letters=14))
        m = len(V)
        sym = [[V[i][j] + V[j][i] for j in range(m)] for i in range(m)]
        assert _symmetric_signature(sym) == fraction_signature(sym)


def test_determinant_anchors():
    assert determinant(TREFOIL) == 3
    assert determinant(FIGURE_EIGHT) == 5
    assert determinant(T27) == 7
    assert determinant(T34) == 3
    assert determinant(braid_closure(BraidWord((), 1))) == 1


def test_jones_anchors():
    assert jones(braid_closure(TREFOIL)) == poly((1, 1), (3, 1), (4, -1))
    assert jones(braid_closure(FIGURE_EIGHT)) == poly(
        (-2, 1), (-1, -1), (0, 1), (1, -1), (2, 1)
    )
    assert jones(braid_closure(T27)) == poly(
        (3, 1), (5, 1), (6, -1), (7, 1), (8, -1), (9, 1), (10, -1)
    )


def test_jones_of_unknot_diagrams_is_one(rng):
    assert jones(braid_closure(BraidWord((), 1))) == LaurentPoly.one()
    unknot = braid_closure(BraidWord.from_letters((1, -2, 3), 4))
    for seed in range(5):
        inflated = backtrack_randomize(unknot, steps=6, seed=seed)
        if inflated.n <= 20:
            assert jones(inflated) == LaurentPoly.one()


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def test_bracket_base_cases():
    assert kauffman_bracket(PDDiagram((), 1)) == LaurentPoly.one()
    assert kauffman_bracket(PDDiagram((), 3)) == LaurentPoly({2: -1, -2: -1}) ** 2
    with pytest.raises(InputError):
        kauffman_bracket(PDDiagram((), 0))
    # single positive kink: bracket -A^3
    kink = braid_closure(BraidWord.from_letters((1,), 2))
    assert kauffman_bracket(kink) == poly((3, -1))
    neg_kink = braid_closure(BraidWord.from_letters((-1,), 2))
    assert kauffman_bracket(neg_kink) == poly((-3, -1))


def test_bracket_matches_state_sum_oracle(rng):
    for _ in range(40):
        d = random_knot_diagram(rng, max_crossings=12)
        assert kauffman_bracket(d) == state_sum_bracket(d), d.crossings


def test_bracket_matches_state_sum_oracle_on_table_knots():
    for entry in default_table():
        d = realize_dt(entry.dt)
        if d.n:
            assert kauffman_bracket(d) == state_sum_bracket(d), entry.name


def test_bracket_of_split_and_looped_diagrams():
    # A free loop beside crossings multiplies by delta; the contraction
    # also handles a crossing graph in several pieces.
    delta = LaurentPoly({2: -1, -2: -1})
    trefoil = braid_closure(TREFOIL)
    looped = PDDiagram(trefoil.crossings, 1)
    assert kauffman_bracket(looped) == kauffman_bracket(trefoil) * delta
    split = braid_closure(BraidWord.from_letters((1, 1, 1, -3, -3, -3), 4))
    assert kauffman_bracket(split) == state_sum_bracket(split)


def test_bracket_matches_the_reference_and_its_peak_states(monkeypatch):
    # Above the state-sum oracle's reach, the gluing rule must give the
    # bracket of the path-following reference and hold exactly as many
    # frontier states, so a search trial skips where it always did.
    rng = random.Random(15)
    diagrams = []
    while len(diagrams) < 10:
        g = simplify_greedy(braid_closure(random_knot_word(rng, 10, 90, 60)))
        if 20 <= g.n <= 40:
            diagrams.append(g)
    assert max(_contraction_order(g)[1] for g in diagrams) >= 14
    for g in diagrams:
        expected, peak = reference_contraction_bracket(g)
        monkeypatch.setattr(invariants, "MAX_FRONTIER_STATES", peak)
        assert kauffman_bracket(g) == expected, g.crossings
        monkeypatch.setattr(invariants, "MAX_FRONTIER_STATES", peak - 1)
        with pytest.raises(ResourceError):
            kauffman_bracket(g)


@pytest.mark.parametrize("n", [7, 23, 25])
def test_jones_of_torus_knots_matches_closed_form(n):
    # V(T(2,n)) = t^((n-1)/2) * (1 + t^2 - t^3 + t^4 - ... - t^n), n odd;
    # 23 and 25 crossings are far beyond what a 2**n state sum could do.
    expected = {(n - 1) // 2: 1}
    for k in range(2, n + 1):
        expected[(n - 1) // 2 + k] = (-1) ** k
    assert jones(braid_closure(BraidWord.from_letters((1,) * n, 2))) == LaurentPoly(
        expected
    )


def _span(d: PDDiagram) -> int:
    v = jones(d)
    return v.max_exp() - v.min_exp()


def _realized(code) -> PDDiagram | None:
    try:
        return realize_dt(code)
    except UnrealizableError:
        return None


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.one_of(
        knot_words().map(braid_closure),
        dt_codes().map(_realized).filter(lambda d: d is not None),
    ),
    st.integers(0, 20),
    st.integers(0, 10**6),
)
def test_jones_span_is_at_most_the_crossing_count(d, steps, seed):
    # span V <= n on every n-crossing knot diagram, scrambled or not: no
    # diagram of the knot has fewer crossings than span V.
    for x in (d, backtrack_randomize(d, steps, seed=seed)):
        assert _span(x) <= x.n, x.crossings


def test_jones_span_equals_the_crossing_count_on_minimal_diagrams():
    for n in range(3, 20, 2):
        assert _span(torus_diagram(n)) == n
    seven_one = simplify_global(realize_dt(parse_dt(dict(BUNDLED_CODES)["7_1"])))
    assert seven_one.n == _span(seven_one) == 7
    base = simplify_global(braid_closure(BASE_BRAID), seed=0)
    assert base.n == _span(base) == 14


def _kink_between(a: PDDiagram, b: PDDiagram) -> PDDiagram:
    """kink # a # b, with ``b`` joined along the kink's remaining loop: for
    ``a`` and ``b`` with no kink, a nugatory crossing that is no kink."""
    x = connected_sum(braid_closure(BraidWord.from_letters((1,), 2)), a)
    (face,) = Editor.from_diagram(x).faces_of_size(1)
    loop, low = x.crossings[face[0] >> 2].edges[face[0] & 3], min(x.edge_ends)
    swap = {loop: low, low: loop}  # connected_sum joins the lowest labels
    x = PDDiagram(tuple(
        Crossing(tuple(swap.get(e, e) for e in c.edges), c.sign) for c in x.crossings
    ))
    return connected_sum(x, b)


def test_minimality_test_holds_exactly_on_diagrams_of_span_v_crossings(rng):
    # The simplifier stops on _is_minimal, read off the Gauss sequence.  On
    # narrow knot diagrams it must hold exactly when n = span V: random
    # closures with their greedy and pickup results, scrambles and short
    # walks of the knotted table codes, connected sums with and without a
    # mirror, and kink # a # b, whose nugatory crossing is no kink.
    diagrams = []
    for _ in range(150):
        d = braid_closure(random_knot_word(rng, 5, 24, 6))
        g = simplify_greedy(d)
        diagrams += [d, g, moves._pickup(g)]
    for _, code in BUNDLED_CODES[1:]:
        for _ in range(10):
            s = backtrack_randomize(
                realize_dt(parse_dt(code)), rng.randint(5, 30), seed=rng.randrange(10**6)
            )
            walked = simplify_global(s, budget=rng.randint(1, 60), seed=rng.randrange(10**6))
            diagrams += [s, walked]
    summands = [simplify_greedy(braid_closure(random_knot_word(rng, 4, 8))) for _ in range(200)]
    summands = [g for g in summands if g.n]
    for _ in range(100):
        a, b = rng.sample(summands, 2)
        diagrams += [connected_sum(a, b), connected_sum(a, mirror(b))]
        diagrams.append(_kink_between(a, mirror(b) if rng.random() < 0.5 else b))
    seen = Counter()
    for d in diagrams:
        if _contraction_order(d)[1] > NARROW_WIDTH:
            continue
        minimal = moves._is_minimal(d)
        assert minimal == (d.n == _span(d)), d.crossings
        sequence = [d.edge_ends[e][1] >> 2 for e in d.components[0]] if d.n else []
        nugatory = 0 in interlacement(sequence)[0]
        assert not (minimal and nugatory)
        seen["diagrams"] += 1
        seen["minimal"] += minimal
        seen["nugatory"] += nugatory
        seen["nugatory, no kink"] += nugatory and not Editor.from_diagram(d).faces_of_size(1)
    assert seen["diagrams"] >= 800 and seen["minimal"] >= 300, seen
    assert seen["nugatory"] >= 120 and seen["nugatory, no kink"] >= 80, seen


def test_jones_leaves_numpy_unimported():
    code = (
        "import sys, gordian\n"
        "gordian.jones(gordian.BraidWord.from_letters((1, -2, 1, -2)))\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# cross-route consistency
# ---------------------------------------------------------------------------


def test_determinant_consistency_across_routes(rng):
    # Seifert route (alexander at -1) against bracket route (jones at -1).
    for _ in range(25):
        d = random_knot_diagram(rng, max_crossings=10)
        det = determinant(d)
        assert det == abs(alexander(d)(-1))
        assert det == abs(jones(d)(-1))
        assert det % 2 == 1  # knot determinants are odd


def test_signature_determinant_parity(rng):
    # Murasugi: sigma = 0 mod 4 exactly when det = 1 mod 4.
    for _ in range(25):
        d = random_knot_diagram(rng, max_crossings=10)
        assert (signature(d) % 4 == 0) == (determinant(d) % 4 == 1)


def test_alexander_is_symmetric_and_normalized(rng):
    for _ in range(15):
        d = random_knot_diagram(rng, max_crossings=10)
        a = alexander(d)
        assert a.reverse() == a
        assert a(1) == 1


# ---------------------------------------------------------------------------
# Seifert matrices
# ---------------------------------------------------------------------------


def test_seifert_matrix_shapes():
    assert seifert_matrix(BraidWord((), 1)) == []
    v = seifert_matrix(T27)
    assert len(v) == 6 and all(len(row) == 6 for row in v)


def test_seifert_symmetrization_gives_the_determinant(rng):
    # |det(V + V^T)| = |Alexander(-1)|: the Seifert form the signature reads
    # against the Burau route.
    for _ in range(30):
        word = random_knot_word(rng, max_strands=6, max_letters=20)
        v = seifert_matrix(word)
        m = len(v)
        sym = [[v[i][j] + v[j][i] for j in range(m)] for i in range(m)]
        assert abs(int_det(sym)) == determinant(word), word.letters


def test_seifert_pairing_is_unimodular(rng):
    # det(V - V^T) = +-1 for any knot; this pins the off-diagonal linking
    # entries far more tightly than any single example.
    for _ in range(30):
        word = random_knot_word(rng, max_strands=4, max_letters=9)
        v = seifert_matrix(word)
        m = len(v)
        skew = [[v[i][j] - v[j][i] for j in range(m)] for i in range(m)]
        assert abs(int_det(skew)) == 1


# ---------------------------------------------------------------------------
# bounds and torus knots
# ---------------------------------------------------------------------------


def test_murasugi_bound():
    assert murasugi_bound(signature(T27)) == 3
    assert murasugi_bound(signature(braid_closure(BraidWord((), 1)))) == 0
    assert murasugi_bound(5) == 3
    assert murasugi_bound(-6) == 3


def test_torus_diagram():
    d7 = torus_diagram(7)
    assert d7.n == 7
    assert signature(d7) == 6
    assert determinant(d7) == 7
    f3 = fingerprint(torus_diagram(3))
    ftr = fingerprint(realize_dt(parse_dt("DT:[4, 6, 2]")))
    assert f3 == ftr or f3 == ftr.mirrored()
    with pytest.raises(InputError):
        torus_diagram(4)
    with pytest.raises(InputError):
        torus_diagram(1)


def test_torus_cascade_step():
    # One crossing change on T(2,9) plus simplification gives T(2,7).
    d9 = torus_diagram(9)
    dropped = simplify_global(crossing_change(d9, 0), budget=2000)
    assert fingerprint(dropped) == fingerprint(torus_diagram(7))


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_unknot():
    unknot = backtrack_randomize(
        braid_closure(BraidWord.from_letters((1, -2, 3), 4)), steps=6, seed=1
    )
    fp = fingerprint(unknot)
    assert fp.alexander == LaurentPoly.one()
    assert fp.jones == LaurentPoly.one()
    assert fp.signature == 0
    assert fp.determinant == 1
    assert simplify_global(unknot).n == 0


def test_fingerprint_fields_match_standalone_invariants(rng):
    # fingerprint() shares one Vogel braid and one Alexander polynomial
    # between its fields; each must equal the invariant computed alone.
    for _ in range(30):
        d = random_knot_diagram(rng, max_crossings=10)
        fp = fingerprint(d)
        assert fp.alexander == alexander(d)
        assert fp.jones == jones(d)
        assert fp.signature == signature(d)
        assert fp.determinant == determinant(d)
        assert abs(fp.jones(-1)) == fp.determinant


def test_fingerprint_equality_ignores_crossing_count():
    base = braid_closure(TREFOIL)
    other = backtrack_randomize(base, steps=8, seed=3)
    fa, fb = fingerprint(base), fingerprint(other)
    assert fa == fb
    assert hash(fa) == hash(fb)


def test_fingerprint_mirrored_laws(rng):
    for _ in range(10):
        d = random_knot_diagram(rng, max_crossings=9)
        fp = fingerprint(d)
        m = fp.mirrored()
        assert m.signature == -fp.signature
        assert m.jones == fp.jones.reverse()
        assert m.alexander == fp.alexander
        assert m.determinant == fp.determinant
        assert m.mirrored() == fp


def test_fingerprint_render_is_one_token():
    fp = fingerprint(braid_closure(TREFOIL))
    token = fp.render()
    assert " " not in token
    assert "alexander=" in token and "determinant=3" in token


# ---------------------------------------------------------------------------
# the fingerprint on narrow and wide diagrams
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gate_corpus():
    """(diagram, greedy diagram, greedy frontier width) over the bundled
    codes, the paper's base closure and seeded random braids, the last
    three of them large enough to straddle ``NARROW_WIDTH``."""
    rng = random.Random(20)
    words = [random_knot_word(rng) for _ in range(20)]
    words += [random_knot_word(rng, 14, 100, 80) for _ in range(3)]
    diagrams = [realize_dt(parse_dt(code)) for _, code in BUNDLED_CODES]
    diagrams += [braid_closure(w) for w in (BASE_BRAID, *words)]
    corpus = []
    for d in diagrams:
        g = simplify_greedy(d)
        corpus.append((d, g, _contraction_order(g)[1]))
    return corpus


def test_contraction_width_by_hand():
    # T(2,n): the first crossing opens 4 edge ends, each later one closes
    # two and opens two, and the last closes all four.
    for n in (3, 5, 7, 19):
        assert _contraction_order(torus_diagram(n))[1] == 4
    unknot = simplify_greedy(braid_closure(BraidWord.from_letters((1, -2, 3), 4)))
    assert unknot.n == 0
    assert _contraction_order(unknot) == ([], 0)
    seven_one = simplify_greedy(realize_dt(parse_dt(dict(BUNDLED_CODES)["7_1"])))
    assert seven_one.n == 8
    assert _contraction_order(seven_one)[1] == 4


def test_fingerprint_equals_walked_invariants(gate_corpus):
    widths = [w for _, _, w in gate_corpus]
    assert min(widths) <= NARROW_WIDTH < max(widths)
    for d, _, _ in gate_corpus:
        walked = simplify_global(d)
        assert fingerprint(d) == knot_invariants(walked)


def test_fingerprint_takes_no_walk_on_a_wide_diagram(gate_corpus, monkeypatch):
    # Greedy, then pickup, whatever the greedy diagram's width: the
    # fingerprint starts no random walk and calls no simplify_global.
    wide = [d for d, _, w in gate_corpus if w > NARROW_WIDTH]
    assert wide
    walked = [knot_invariants(simplify_global(d)) for d in wide]

    def walk(*args, **kwargs):
        raise AssertionError("the fingerprint walked")

    monkeypatch.setattr(moves, "simplify_global", walk)
    monkeypatch.setattr(moves, "random", SimpleNamespace(Random=walk))
    assert [fingerprint(d) for d in wide] == walked


def test_walk_takes_no_bracket_at_any_budget(gate_corpus, monkeypatch):
    # The walk's floor is the Gauss-sequence minimality test, so it takes no
    # bracket on the gate corpus, within the gate or wider, at any budget; at
    # budget 0 the greedy diagram comes back.
    real = invariants.kauffman_bracket
    calls = []
    monkeypatch.setattr(
        invariants, "kauffman_bracket", lambda d: calls.append(d.n) or real(d)
    )
    for d, g, _ in gate_corpus:
        assert pd_to_text(simplify_global(d, budget=0)) == pd_to_text(g)
        for budget in (1, 50):
            simplify_global(d, budget=budget)
        simplify_global(d)
    assert calls == []

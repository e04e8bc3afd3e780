"""Reidemeister moves, mirroring, crossing changes, and simplification."""

import random
from collections import Counter

import pytest

from gordian import invariants, moves
from gordian.braid import BraidWord, braid_closure, vogel_braid
from gordian.certify import BASE_BRAID
from gordian.codes import parse_dt, realize_dt
from gordian.diagram import Editor, pd_to_text, validate_pd
from gordian.errors import InputError
from gordian.identify import BUNDLED_CODES
from gordian.invariants import (
    FINGERPRINT_WIDTH,
    _contraction_order,
    alexander,
    determinant,
    fingerprint,
    jones,
    signature,
    torus_diagram,
)
from gordian.moves import (
    Move,
    apply_move,
    backtrack_randomize,
    connected_sum,
    crossing_change,
    deconnect_sum,
    find_moves,
    find_r3_moves,
    find_reducing_moves,
    mirror,
    sample_increasing_move,
    simplify_global,
    simplify_greedy,
)
from tests.conftest import (
    editing_corpus,
    random_knot_diagram,
    random_knot_word,
    random_link_diagram,
    reference_backtrack_randomize,
    reference_r3_moves,
    reference_reducing_moves,
    reference_simplify_global,
    reference_simplify_greedy,
    reference_vogel_braid,
    relabelled,
    two_edge_cut_split,
    wired_push_arc_over,
    wired_r1_plus,
)


def trefoil():
    return braid_closure(BraidWord.from_letters((1, 1, 1), 2))


def figure_eight():
    return braid_closure(BraidWord.from_letters((1, -2, 1, -2), 3))


def _random_move(d, rng):
    grouped = find_moves(d)
    kinds = [k for k, ms in grouped.items() if ms]
    if kinds and rng.random() < 0.6:
        kind = rng.choice(kinds)
        return rng.choice(grouped[kind])
    return sample_increasing_move(d, rng)


def test_moves_preserve_fingerprint(rng):
    # Walk each diagram through a handful of random moves of every kind and
    # require the fingerprint to be bit-identical throughout.
    for _ in range(40):
        d = random_knot_diagram(rng, max_crossings=9)
        fp = fingerprint(d)
        for _ in range(6):
            move = _random_move(d, rng)
            if move is None:
                break
            nxt = apply_move(d, move)
            if nxt.n > 14:
                continue
            d = nxt
            assert validate_pd(d) == []
            assert fingerprint(d) == fp


def test_crossing_change_involution(rng):
    for _ in range(10):
        d = random_knot_diagram(rng, max_crossings=10)
        i = rng.randrange(d.n)
        twice = crossing_change(crossing_change(d, i), i)
        assert twice.crossings == d.crossings


def test_crossing_change_flips_writhe():
    d = trefoil()
    assert crossing_change(d, 0).writhe == d.writhe - 2


def test_mirror_laws(rng):
    for _ in range(15):
        d = random_knot_diagram(rng, max_crossings=10)
        m = mirror(d)
        assert m.writhe == -d.writhe
        assert signature(m) == -signature(d)
        assert jones(m) == jones(d).reverse()
        assert alexander(m) == alexander(d)
        assert determinant(m) == determinant(d)


def test_mirror_is_involution():
    d = figure_eight()
    assert mirror(mirror(d)).crossings == d.crossings


def test_simplify_unknot_to_zero():
    # Each generator appears exactly once, so the closure is the unknot; a
    # backtracking scramble hides that before the solver runs.
    d = braid_closure(BraidWord.from_letters((1, -2, 3), 4))
    scrambled = backtrack_randomize(d, steps=10, seed=5)
    assert scrambled.n > 0
    s = simplify_global(scrambled, budget=4000)
    assert s.n == 0
    assert s.component_count == 1


def _count_moves(monkeypatch) -> list[int]:
    """Patch ``moves.apply_move`` to record the crossing count after each
    move of the greedy pass and the walk."""
    sizes = []

    def counting(x, move):
        y = apply_move(x, move)
        sizes.append(len(y.signs) if isinstance(y, Editor) else y.n)
        return y

    monkeypatch.setattr(moves, "apply_move", counting)
    return sizes


def test_simplify_stops_at_first_stall(monkeypatch):
    # 10_139 is non-alternating: span V = 8 on a minimal diagram of 10
    # crossings, so the floor never ends the walk.  No move shrinks this
    # diagram, so the walk ends after STALL_MOVES non-improving moves
    # instead of spending its budget.
    sizes = _count_moves(monkeypatch)
    d = realize_dt(parse_dt(dict(BUNDLED_CODES)["10_139"]))
    v = jones(d)
    assert (d.n, v.max_exp() - v.min_exp()) == (10, 8)
    s = simplify_global(d, budget=10_000)
    assert s.n == 10
    assert len(sizes) == moves.STALL_MOVES == 600


def test_simplify_makes_no_move_on_a_diagram_at_its_span_floor(monkeypatch):
    # The alternating T(2,7) diagram has span V = 7 = n, so it is minimal
    # before the walk starts.
    sizes = _count_moves(monkeypatch)
    s = simplify_global(torus_diagram(7), budget=10_000)
    assert s.n == 7
    assert sizes == []


def test_simplify_skips_the_span_floor_at_budget_zero(monkeypatch):
    # With no move to make, a floor could end nothing: T(2,7) is narrow
    # enough for one, but comes back at budget 0 without a bracket.
    brackets = []

    def counting(d):
        brackets.append(d.n)
        return jones(d)

    monkeypatch.setattr(invariants, "jones", counting)
    d = torus_diagram(7)
    assert pd_to_text(simplify_global(d, budget=0)) == pd_to_text(simplify_greedy(d))
    assert brackets == []
    simplify_global(d, budget=1)
    assert brackets == [7]


def test_simplify_stops_at_the_first_diagram_on_the_span_floor(monkeypatch):
    # span V(7_1 # mirror 7_1) = 14: the base closure's walk ends at the
    # move that first reaches 14 crossings.
    sizes = _count_moves(monkeypatch)
    s = simplify_global(braid_closure(BASE_BRAID), seed=0)
    assert s.n == 14
    assert sizes.index(14) == len(sizes) - 1


def test_full_length_walks_match_the_unfloored_reference(rng):
    # The walk ends at its span V floor; the reference walks on until it
    # stalls.  A diagram below the floor does not exist, so both return the
    # same diagram, on every table knot, the base closure and knotted random
    # closures narrow enough for the floor to be computed.
    diagrams = [realize_dt(parse_dt(code)) for _, code in BUNDLED_CODES]
    diagrams.append(braid_closure(BASE_BRAID))
    while len(diagrams) < len(BUNDLED_CODES) + 11:
        d = braid_closure(random_knot_word(rng, 5, 24, 14))
        g = simplify_greedy(d)
        if g.n and _contraction_order(g)[1] <= FINGERPRINT_WIDTH:
            diagrams.append(d)
    for d in diagrams:
        seed = rng.randrange(10**6)
        assert pd_to_text(simplify_global(d, seed=seed)) == pd_to_text(
            reference_simplify_global(d, budget=10_000, seed=seed)
        )


def test_simplify_trefoil_reaches_minimum(rng):
    for _ in range(10):
        big = backtrack_randomize(trefoil(), steps=12, seed=rng.randrange(10**6))
        assert fingerprint(big) == fingerprint(trefoil())
        s = simplify_global(big, budget=4000)
        assert s.n == 3


def test_simplify_greedy_never_increases(rng):
    for _ in range(20):
        d = random_knot_diagram(rng, max_crossings=10)
        assert simplify_greedy(d).n <= d.n


def test_backtrack_is_deterministic():
    d = figure_eight()
    a = backtrack_randomize(d, steps=15, seed=9)
    b = backtrack_randomize(d, steps=15, seed=9)
    assert a.crossings == b.crossings
    c = backtrack_randomize(d, steps=15, seed=10)
    assert fingerprint(c) == fingerprint(d)


def test_connected_sum_invariants(rng):
    for _ in range(8):
        a = random_knot_diagram(rng, max_crossings=7)
        b = random_knot_diagram(rng, max_crossings=7)
        s = connected_sum(a, b)
        assert s.component_count == 1
        assert alexander(s) == alexander(a) * alexander(b)
        assert jones(s) == jones(a) * jones(b)
        assert signature(s) == signature(a) + signature(b)
        assert determinant(s) == determinant(a) * determinant(b)


def test_deconnect_sum_recovers_factors():
    s = connected_sum(trefoil(), figure_eight())
    parts = deconnect_sum(s)
    assert sorted(p.n for p in parts) == [3, 4]
    fps = {fingerprint(p) for p in parts}
    assert fps == {fingerprint(trefoil()), fingerprint(figure_eight())}


def test_deconnect_sum_prime_diagram_is_single_factor():
    parts = deconnect_sum(trefoil())
    assert len(parts) == 1
    assert parts[0].n == 3


def test_deconnect_sum_matches_the_two_edge_cut_oracle(rng):
    def closure():
        return random_knot_diagram(rng, max_crossings=7)

    diagrams = []
    for i in range(30):
        diagrams.append(random_knot_diagram(rng, max_crossings=12))
        diagrams.append(connected_sum(closure(), closure()))
        diagrams.append(connected_sum(connected_sum(closure(), closure()), closure()))
        diagrams.append(
            backtrack_randomize(connected_sum(closure(), closure()), 12, seed=i)
        )
    for d in diagrams:
        parts = deconnect_sum(d)
        assert sorted(map(pd_to_text, parts)) == sorted(
            map(pd_to_text, two_edge_cut_split(d))
        )
        assert sum(p.n for p in parts) == d.n
        assert all(p.is_knot and validate_pd(p) == [] for p in parts)


def test_increasing_moves_match_the_case_tables(rng):
    # Every sampled R1+ and R2+ on 500 diagrams threads to the same diagram
    # as the old case-by-case wiring.
    kinds = Counter()
    for d in editing_corpus(rng, 500):
        for _ in range(4):
            move = sample_increasing_move(d, rng)
            if move is None:
                continue
            if move.kind == "R1+":
                wired = wired_r1_plus(d, move.site)
            else:
                wired = wired_push_arc_over(d, *move.site)
            assert pd_to_text(apply_move(d, move)) == pd_to_text(wired)
            kinds[move.kind] += 1
    assert kinds["R1+"] >= 500 and kinds["R2+"] >= 500


def test_reducing_moves_reduce(rng):
    for _ in range(20):
        d = random_knot_diagram(rng, max_crossings=10)
        for move in find_reducing_moves(d):
            out = apply_move(d, move)
            assert out.n < d.n
            assert validate_pd(out) == []


def test_push_arc_over_refuses_two_darts_on_one_edge():
    # Pushing an edge over itself used to return a diagram that is not
    # planar (V - E + F = 0) instead of refusing.
    d = trefoil()
    tail, head = d.edge_ends[1]
    for da, db in ((tail, head), (head, tail), (tail, tail)):
        with pytest.raises(InputError, match="same edge"):
            apply_move(d, Move("R2+", (da, db)))


def test_move_loops_match_the_rebuild_per_move_references(rng):
    # The loops rewrite one Editor and relabel once; the references rebuild
    # the whole diagram after every move and find sites on its own faces and
    # edge labels.  Both must make the same moves: the same PD text and the
    # same braid letters, on knots and links with free loops, on diagrams
    # as relabelled by a move and on diagrams whose labels are shuffled.
    seen = Counter()
    for i in range(330):
        if i % 3 == 0:
            d = random_knot_diagram(rng, max_crossings=10)
        else:
            d = random_link_diagram(rng, max_strands=5, max_letters=12)
        if rng.random() < 0.3:
            d = relabelled(d, rng)
        steps, seed = rng.randint(0, 30), rng.randrange(10**6)
        scramble = backtrack_randomize(d, steps, seed=seed)
        assert pd_to_text(scramble) == pd_to_text(
            reference_backtrack_randomize(d, steps, seed=seed)
        )
        x = relabelled(scramble, rng) if rng.random() < 0.3 else scramble
        assert find_reducing_moves(x) == reference_reducing_moves(x)
        assert find_r3_moves(x) == reference_r3_moves(x)
        assert pd_to_text(simplify_greedy(x)) == pd_to_text(
            reference_simplify_greedy(x)
        )
        budget, seed = rng.randint(0, 120), rng.randrange(10**6)
        assert pd_to_text(simplify_global(x, budget=budget, seed=seed)) == pd_to_text(
            reference_simplify_global(x, budget=budget, seed=seed)
        )
        if x.is_knot:
            word = vogel_braid(x)
            ref = reference_vogel_braid(x)
            assert (word.letters, word.strands) == (ref.letters, ref.strands)
            seen["knot"] += 1
        seen["loops"] += x.free_loops > 0
        seen["shrunk"] += simplify_greedy(x).n < x.n
    assert seen["knot"] >= 100 and seen["loops"] >= 50 and seen["shrunk"] >= 100

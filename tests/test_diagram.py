"""Planar-diagram structure: validation, text format, editing, components."""

from collections import Counter

import pytest

from gordian import moves
from gordian.braid import braid_closure, BraidWord
from gordian.diagram import (
    Crossing,
    Editor,
    PDDiagram,
    pd_from_text,
    pd_to_text,
    validate_pd,
)
from gordian.errors import InputError, InternalError
from gordian.moves import (
    apply_move,
    find_r3_moves,
    find_reducing_moves,
    sample_increasing_move,
)
from tests.conftest import (
    as_pairs,
    editing_corpus,
    random_knot_diagram,
    reference_kink_order,
    tuple_face_orbits,
    tuple_label_tails,
    tuple_partner,
    tuple_strand_walk,
    walk_smooth_out,
)


def trefoil() -> PDDiagram:
    return braid_closure(BraidWord.from_letters((1, 1, 1), 2))


def test_validate_accepts_trefoil():
    assert validate_pd(trefoil()) == []


def test_validate_reports_dangling_edge():
    d = trefoil()
    bad = PDDiagram(
        crossings=d.crossings[:-1] + (Crossing((90, 91, 92, 93), 1),),
        free_loops=d.free_loops,
    )
    problems = validate_pd(bad)
    assert problems, "expected violations for edges used once"
    assert any("edge" in p for p in problems)


def test_validate_rejects_nonplanar_rotation_system():
    # Two crossings joined so that the rotation system forces genus > 0:
    # connect the four ports of each crossing to the other one with a twist
    # that cannot be drawn in the sphere.
    c0 = Crossing((0, 1, 2, 3), 1)
    c1 = Crossing((2, 3, 0, 1), 1)
    d = PDDiagram(crossings=(c0, c1), free_loops=0)
    problems = validate_pd(d)
    assert any("V-E+F" in p for p in problems)


def test_component_counts():
    assert trefoil().component_count == 1
    assert trefoil().is_knot
    hopf = braid_closure(BraidWord.from_letters((1, 1), 2))
    assert hopf.component_count == 2
    assert not hopf.is_knot
    empty = braid_closure(BraidWord((), 1))
    assert empty.n == 0
    assert empty.component_count == 1


def test_writhe():
    assert trefoil().writhe == 3
    neg = braid_closure(BraidWord.from_letters((-1, -1, -1), 2))
    assert neg.writhe == -3


def test_faces_satisfy_euler_formula():
    d = trefoil()
    v = d.n
    e = 2 * d.n
    f = len(d.faces)
    assert v - e + f == 2


def test_pd_text_round_trip():
    d = trefoil()
    text = pd_to_text(d)
    assert "sign=+1" in text
    back = pd_from_text(text)
    assert back.crossings == d.crossings
    assert back.free_loops == d.free_loops


def test_pd_text_free_loops():
    d = PDDiagram(crossings=(), free_loops=2)
    text = pd_to_text(d)
    assert text.count("O") == 2
    assert pd_from_text(text).free_loops == 2


def test_pd_text_rejects_garbage():
    with pytest.raises(InputError):
        pd_from_text("X[1,2,3] sign=+1\n")
    with pytest.raises(InputError):
        pd_from_text("Y[1,2,3,4] sign=+1\n")


def test_pd_text_rejects_invalid_diagram():
    # Structurally parseable but the edges do not knit together.
    with pytest.raises(InputError):
        pd_from_text("X[0,1,2,3] sign=+1\n")


# ---------------------------------------------------------------------------
# Editor primitives: smooth_out splices passes out, thread lays them in
# ---------------------------------------------------------------------------


def test_smooth_out_matches_the_boundary_walk(rng):
    # Knots, braid-closure links and scrambles, each with 20 random removal
    # sets of every size (empty and whole included): the splice and the
    # old walk must leave the same signs, dart map and free loops.
    sets = looped = 0
    for d in editing_corpus(rng, 150):
        for _ in range(20):
            removed = rng.sample(range(d.n), rng.randint(0, d.n))
            ed, oracle = Editor.from_diagram(d), Editor.from_diagram(d)
            ed.smooth_out(removed)
            walk_smooth_out(oracle, removed)
            assert ed.signs == oracle.signs
            assert ed.adj == oracle.adj
            assert ed.free_loops == oracle.free_loops
            sets += 1
            looped += ed.free_loops > d.free_loops
    assert sets >= 3000
    assert looped >= 300  # removals that close strands into free loops


def test_smooth_out_keeps_planarity_only_under_its_precondition():
    # On one strand, two of the trefoil's crossings interlace once (Gauss
    # word 1 2 1 2); the two rings of T(2,4), after one of their four
    # crossings goes, meet three times.  Both leave a rotation system that
    # is not planar.  Keeping one whole interlacement piece of a knot, as
    # deconnect_sum does, leaves a planar diagram.
    for d in (trefoil(), braid_closure(BraidWord.from_letters((1,) * 4, 2))):
        ed = Editor.from_diagram(d)
        ed.smooth_out({0})
        assert validate_pd(ed.to_diagram()) != []
    granny = braid_closure(BraidWord.from_letters((1, 1, 1, -2, -2, -2), 3))
    for piece in ({0, 1, 2}, {3, 4, 5}):
        ed = Editor.from_diagram(granny)
        ed.smooth_out(set(range(6)) - piece)
        left = ed.to_diagram()
        assert left.n == 3 and validate_pd(left) == []


def rescan(ed: Editor) -> dict:
    """Every face of ``ed`` under its key, by the (crossing, slot) tracer."""
    pairs = {divmod(a, 4): divmod(b, 4) for a, b in ed.adj.items()}
    faces = (
        tuple(4 * c + s for c, s in face)
        for face in tuple_face_orbits(sorted(ed.signs), pairs)
    )
    return {face[0]: face for face in faces}


def assert_faces_match_a_rescan(ed: Editor, tails: list, kept: dict, rng) -> int:
    """The face index against a rescan, through its three reads in random
    order, the tails against the walk ``tails`` (integer darts), and the
    kinks against the old order rule; returns the number of kinks.

    ``kept`` holds the faces as of the editor's last read of any kind (a
    rescan then), and leaves holding the faces now.  What
    ``retrace_faces`` reports is the change since that read: the kept
    faces, less the dropped keys, plus the traced faces, must be a rescan.

    smooth_out of an arbitrary set can leave a link diagram that is not
    planar (two loops through one crossing at opposite slots), where an
    edge with both ends at one crossing bounds no one-dart face; the kink
    order is checked on the planar states only, which are all the move
    loops meet."""
    now = rescan(ed)
    faces = tuple(now[key] for key in sorted(now))
    for read in rng.sample(("faces", "faces_of_size", "retrace_faces"), 3):
        if read == "faces":
            assert ed.faces() == faces
        elif read == "faces_of_size":
            for k in rng.sample((1, 2, 3), 3):
                assert ed.faces_of_size(k) == [f for f in faces if len(f) == k]
        else:
            dropped, traced = ed.retrace_faces()
            for key in dropped:
                del kept[key]
            for face in traced:
                assert face[0] not in kept
                kept[face[0]] = face
            assert kept == now
        kept.clear()
        kept.update(now)
    assert all(ed.face_of(dart) == face for face in faces for dart in face)
    assert ed.tails() == tails
    kinks = [m.site[0] for m in find_reducing_moves(ed) if m.kind == "R1-"]
    if len(faces) - len(ed.signs) == 2 * components(ed):
        assert kinks == reference_kink_order(ed.adj, tails)
    return len(kinks)


def components(ed: Editor) -> int:
    """Connected pieces of the crossing graph of ``ed``."""
    seen: set[int] = set()
    count = 0
    for c in ed.signs:
        if c in seen:
            continue
        count += 1
        stack = [c]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(ed.adj[d] >> 2 for d in range(4 * x, 4 * x + 4))
    return count


def walked_tails(ed: Editor) -> tuple[list, set]:
    """The reference strand walk over ``ed``, in integer darts, and the
    crossings its strands start from."""
    pairs = {divmod(a, 4): divmod(b, 4) for a, b in ed.adj.items()}
    tails, starts = tuple_strand_walk(ed.signs, pairs)
    return [4 * c + s for c, s in tails], starts


def test_face_index_matches_a_rescan_after_every_rewrite(rng):
    # The editor keeps one face index, tracing again at each read only the
    # faces through darts touched since the last read; its tails are walked
    # afresh after every rewrite.  After every kind of rewrite, read at once
    # or after a few more, each read of the index (all faces, the faces of
    # one to three darts, and the changes since the last read applied to
    # its faces) must equal a whole-diagram rescan, and several kinks must
    # come in the order of their tails in a fresh strand walk: moves
    # through apply_move, a triangle slide tried in place and undone (as
    # greedy does), smooth_out of arbitrary crossing sets (as deconnect_sum
    # does), some deleting a crossing a strand starts from and some closing
    # free loops, and thread through the passes of new crossings.
    kinds = Counter()
    for d in editing_corpus(rng, 150):
        for _ in range(3):
            ed = Editor.from_diagram(d)
            kept = {}  # nothing read yet: the first read traces every face
            tails = [4 * c + s for c, s in tuple_label_tails(d)]
            assert_faces_match_a_rescan(ed, tails, kept, rng)
            if ed.signs and rng.random() < 0.7:
                # An edge threaded through no passes: the same diagram, whose
                # tails are walked from here on.
                ed.thread(rng.choice(ed.tails()), ())
                assert_faces_match_a_rescan(ed, walked_tails(ed)[0], kept, rng)
            for _ in range(2):
                starts = walked_tails(ed)[1]
                removed = rng.sample(sorted(ed.signs), rng.randint(0, len(ed.signs)))
                loops = ed.free_loops
                ed.smooth_out(removed)
                assert_faces_match_a_rescan(ed, walked_tails(ed)[0], kept, rng)
                kinds["smooth_out"] += 1
                kinds["smooth_out of a start"] += not starts.isdisjoint(removed)
                kinds["smooth_out closing a loop"] += ed.free_loops > loops
        ed = Editor.from_diagram(d)
        kept = {}
        tails = [4 * c + s for c, s in tuple_label_tails(d)]
        for _ in range(12):
            if tails is not None:
                kinks = assert_faces_match_a_rescan(ed, tails, kept, rng)
                kinds["several kinks"] += kinks > 1
            roll = rng.random()
            r3 = find_r3_moves(ed)
            reducing = find_reducing_moves(ed)
            kept = rescan(ed)  # both finders read the index
            if roll < 0.2 and r3:
                move = r3[rng.randrange(len(r3))]
                undo = ed.rewire(moves._slide(ed.adj, move.site))
                assert_faces_match_a_rescan(ed, walked_tails(ed)[0], kept, rng)
                ed.rewire(undo)
                kinds["R3 undone"] += 1
                tails = walked_tails(ed)[0]
                continue
            if roll < 0.4 and r3:
                move = r3[rng.randrange(len(r3))]
            elif roll < 0.7 and reducing:
                move = reducing[rng.randrange(len(reducing))]
            else:
                move = sample_increasing_move(ed, rng)
            if move is not None:
                apply_move(ed, move)
                kinds[move.kind] += 1
                # Read the indexes after this move or only after later ones.
                tails = walked_tails(ed)[0] if rng.random() < 0.7 else None
        assert_faces_match_a_rescan(ed, walked_tails(ed)[0], kept, rng)
        if ed.signs:
            tails = sorted(dart for dart in ed.adj if ed.is_out_dart(dart))
            new = [ed.new_crossing(rng.choice((1, -1))) for _ in range(rng.randint(1, 3))]
            passes = [p for c in new for p in ed.passes(c)]
            rng.shuffle(passes)
            ed.thread(rng.choice(tails), passes)
            assert_faces_match_a_rescan(ed, walked_tails(ed)[0], kept, rng)
            kinds["thread"] += 1
    assert min(kinds.values()) >= 100 and len(kinds) == 11, kinds


def test_integer_darts_map_onto_the_tuple_tracer(rng):
    # A dart is 4 * crossing + slot.  Through divmod(d, 4), the faces of a
    # diagram and of its editor, and the editor's tails, must be what the
    # (crossing, slot) tracer and strand walk give, order included: on the
    # editing corpus as copied, after each of several random moves, and on
    # the diagram the editor relabels to.
    moved = 0
    for d in editing_corpus(rng, 150):
        faces = tuple_face_orbits(range(d.n), tuple_partner(d))
        assert as_pairs(d.faces) == faces
        ed = Editor.from_diagram(d)
        assert as_pairs(ed.faces()) == faces
        assert [divmod(t, 4) for t in ed.tails()] == tuple_label_tails(d)
        for _ in range(6):
            reducing = find_reducing_moves(ed)
            move = (
                reducing[0] if reducing and rng.random() < 0.5
                else sample_increasing_move(ed, rng)
            )
            if move is None:
                break
            apply_move(ed, move)
            moved += 1
            pairs = {divmod(a, 4): divmod(b, 4) for a, b in ed.adj.items()}
            assert as_pairs(ed.faces()) == tuple_face_orbits(sorted(ed.signs), pairs)
            tails = tuple_strand_walk(ed.signs, pairs)[0]
            assert [divmod(t, 4) for t in ed.tails()] == tails
        out = ed.to_diagram()
        assert as_pairs(out.faces) == tuple_face_orbits(range(out.n), tuple_partner(out))
    assert moved >= 500


def test_passes_follow_the_slot_conventions():
    ed = Editor()
    pos, neg = ed.new_crossing(+1), ed.new_crossing(-1)
    p, n = 4 * pos, 4 * neg  # darts are 4 * crossing + slot
    assert ed.passes(pos) == ((p + 0, p + 2), (p + 1, p + 3))
    assert ed.passes(neg) == ((n + 0, n + 2), (n + 3, n + 1))


def test_thread_lays_passes_in_order():
    d = trefoil()
    ed = Editor.from_diagram(d)
    tail = 2  # crossing 0, slot 2
    head = ed.adj[tail]
    first, second = ed.new_crossing(+1), ed.new_crossing(-1)
    under, over = ed.passes(first)
    ed.thread(tail, (over, ed.passes(second)[0], under))
    f, s = 4 * first, 4 * second
    assert ed.adj[tail] == f + 1
    assert ed.adj[f + 3] == s + 0
    assert ed.adj[s + 2] == f + 0
    assert ed.adj[f + 2] == head
    # The second crossing's over pass is still unwired.
    assert s + 1 not in ed.adj and s + 3 not in ed.adj


def test_thread_through_no_passes_restores_the_edge():
    d = trefoil()
    ed = Editor.from_diagram(d)
    ed.thread(4 * 1 + 3, ())
    assert ed.adj == d.dart_partner
    assert pd_to_text(ed.to_diagram()) == pd_to_text(d)


def test_thread_refuses_a_wired_dart():
    ed = Editor.from_diagram(trefoil())
    with pytest.raises(InternalError, match="already wired"):
        ed.thread(2, [ed.passes(1)[0]])


def test_smooth_out_single_kink_leaves_free_loop():
    # A one-crossing kink diagram is the unknot; removing the crossing must
    # leave one free loop, not zero and not two.
    d = braid_closure(BraidWord.from_letters((1,), 2))
    assert d.n == 1 and d.component_count == 1
    ed = Editor.from_diagram(d)
    ed.smooth_out({0})
    out = ed.to_diagram()
    assert out.n == 0
    assert out.free_loops == 1


def test_smooth_out_hopf_pair_leaves_two_loops():
    d = braid_closure(BraidWord.from_letters((1, 1), 2))
    ed = Editor.from_diagram(d)
    ed.smooth_out({0, 1})
    out = ed.to_diagram()
    assert out.free_loops == 2


def test_reducing_moves_preserve_component_count(rng):
    # Regression guard: strands that pass through the removed region used to
    # be miscounted as trapped loops in one order of traversal.
    for _ in range(60):
        d = random_knot_diagram(rng, max_crossings=10)
        total = d.component_count
        while True:
            moves = find_reducing_moves(d)
            if not moves:
                break
            d = apply_move(d, moves[0])
            assert d.component_count == total
            assert validate_pd(d) == []

"""Diagram rewriting: Reidemeister moves, simplification, and sums.

Public calls on a ``PDDiagram`` are pure: each returns a new diagram with
its edges relabelled canonically (see :meth:`~gordian.diagram.Editor.to_diagram`),
so equal rewrite histories give equal diagrams.  The move loops (reduction,
greedy and walked simplification, and the scramble) instead copy their
input into one ``Editor``, rewrite it in place and relabel once at the
end; Vogel braiding in :mod:`gordian.braid` rewrites one editor too and
reads its braid off that editor, never relabelling it.  Site finding and
``apply_move`` take either form; a diagram is copied into an editor that
keeps its crossing ids and edge-label order, so both forms give the same
sites in the same order.  A ``Move`` is bound to the diagram or editor
state it was found on and is not meaningful for any other.

Site discovery works on faces, which an editor keeps across its rewrites.
A kink (reducible R1 site) is an edge whose two ends meet the same
crossing, and so bounds a one-dart face; a reducible R2 site is a
two-sided face whose strands keep their over/under roles at both
crossings; a triangle (R3) site is a three-sided face among three
distinct crossings where one edge is over at both of its ends or under
at both.  Increasing moves come in parameterized families and are
sampled rather than enumerated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .diagram import (
    Crossing,
    Dart,
    Editor,
    PDDiagram,
    interlacement,
    out_slots,
    small_face,
)
from .errors import InputError, InternalError


@dataclass(frozen=True)
class Move:
    kind: str  # "R1-", "R2-", "R3", "R1+", "R2+"
    site: tuple


# ---------------------------------------------------------------------------
# crossing change and mirror
# ---------------------------------------------------------------------------


def _change_record(c: Crossing) -> Crossing:
    # Same four edge ends in the same rotational order, opposite strand on
    # top: the record is rotated so slot 0 is again the incoming under-end.
    e0, e1, e2, e3 = c.edges
    if c.sign > 0:
        return Crossing((e1, e2, e3, e0), -1)
    return Crossing((e3, e0, e1, e2), +1)


def crossing_change(d: PDDiagram, i: int) -> PDDiagram:
    """Switch which strand is on top at crossing ``i``."""
    if not 0 <= i < d.n:
        raise InputError(f"crossing index {i} out of range for {d.n} crossings")
    crossings = list(d.crossings)
    crossings[i] = _change_record(crossings[i])
    return Editor.from_diagram(PDDiagram(tuple(crossings), d.free_loops)).to_diagram()


def mirror(d: PDDiagram) -> PDDiagram:
    """The mirror image: every crossing changed."""
    crossings = tuple(_change_record(c) for c in d.crossings)
    return Editor.from_diagram(PDDiagram(crossings, d.free_loops)).to_diagram()


# ---------------------------------------------------------------------------
# site discovery
# ---------------------------------------------------------------------------


def _editor(x: PDDiagram | Editor) -> Editor:
    return x if isinstance(x, Editor) else Editor.from_diagram(x)


def _is_kink(adj: dict[Dart, Dart], dart: Dart) -> bool:
    """Whether the edge at ``dart`` has both ends at one crossing."""
    return adj[dart] >> 2 == dart >> 2


def _keeps_level(adj: dict[Dart, Dart], dart: Dart) -> bool:
    """Whether the edge at ``dart`` is over at both ends or under at both
    (over slots are odd)."""
    return not (dart ^ adj[dart]) & 1


def _is_reducible_bigon(adj: dict[Dart, Dart], face: tuple[Dart, ...]) -> bool:
    """Whether ``face`` is a bigon between two crossings whose edges keep
    their levels: one strand passes over the other at both."""
    return (len(face) == 2 and face[0] >> 2 != face[1] >> 2
            and _keeps_level(adj, face[0]))


def find_reducing_moves(x: PDDiagram | Editor) -> list[Move]:
    """Reducible R2 sites in face order, then R1 sites in edge-label order.

    A kink is a one-dart face: in a planar diagram an edge with both ends
    at one crossing joins adjacent slots, so it bounds a monogon.  Several
    kinks are ordered by the rank of each kink edge's tail.
    """
    ed = _editor(x)
    adj = ed.adj
    moves = [
        Move("R2-", (face[0] >> 2, face[1] >> 2))
        for face in ed.faces_of_size(2)
        if _is_reducible_bigon(adj, face)
    ]
    kinks = [face[0] for face in ed.faces_of_size(1)]
    if len(kinks) > 1:
        rank = ed.tail_rank()
        kinks.sort(key=lambda d: rank[d] if d in rank else rank[adj[d]])
    moves.extend(Move("R1-", (d >> 2,)) for d in kinks)
    return moves


def find_r3_moves(x: PDDiagram | Editor) -> list[Move]:
    """Triangle slide sites: ``site == (face, p)`` slides edge ``face[p]``."""
    ed = _editor(x)
    moves: list[Move] = []
    for face in ed.faces_of_size(3):
        if len({d >> 2 for d in face}) != 3:
            continue
        for p in range(3):
            if _keeps_level(ed.adj, face[p]):
                moves.append(Move("R3", (face, p)))
    return moves


def find_moves(x: PDDiagram | Editor) -> dict[str, list[Move]]:
    """All reducing and triangle sites, grouped by kind."""
    ed = _editor(x)
    grouped: dict[str, list[Move]] = {"R1-": [], "R2-": [], "R3": []}
    for m in find_reducing_moves(ed):
        grouped[m.kind].append(m)
    grouped["R3"] = find_r3_moves(ed)
    return grouped


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _slide(adj: dict[Dart, Dart], site: tuple) -> dict[Dart, Dart]:
    """The partner entries that slide edge ``face[p]`` across its triangle."""
    face, p = site
    d1 = face[(p - 1) % 3]
    d2 = face[p]
    d3 = face[(p + 1) % 3]
    # Near (triangle-facing) darts of the three strands at X, Y, Z, where
    # the face passes d1, d2, d3; each partner lies at the next crossing.
    strands = (
        (d2, adj[d2]),  # sliding strand, through Y and Z
        (d1, adj[d1]),  # strand through X and Y
        (d3, adj[d3]),  # strand through Z and X
    )
    relocate: dict[Dart, Dart] = {}
    for g, h in strands:
        relocate[g] = g ^ 2
        relocate[h] = h ^ 2
        relocate[g ^ 2] = h
        relocate[h ^ 2] = g
    if len(relocate) != 12:
        raise InternalError("triangle slots are not pairwise distinct")
    pairs: dict[Dart, Dart] = {}
    for a, moved in relocate.items():
        b = adj[a]
        b = relocate.get(b, b)
        pairs[moved] = b
        pairs[b] = moved
    return pairs


def apply_move(x: PDDiagram | Editor, move: Move) -> PDDiagram | Editor:
    """Make ``move`` at its site.

    A diagram is left alone and the result comes back as a new, relabelled
    diagram; an editor is rewritten in place and returned.
    """
    ed = _editor(x)
    if move.kind in ("R1-", "R2-"):
        # A reducing site is the crossings it deletes.
        ed.smooth_out(move.site)
    elif move.kind == "R3":
        ed.rewire(_slide(ed.adj, move.site))
    elif move.kind == "R1+":
        tail, sign, first_under = move.site
        under, over = ed.passes(ed.new_crossing(sign))
        ed.thread(tail, (under, over) if first_under else (over, under))
    elif move.kind == "R2+":
        # Push the arc at face dart ``da`` over the arc at ``db``.  Both
        # darts lie on one face and traverse different edges; the pushed
        # arc crosses the other twice, staying on top at both crossings.
        da, db = move.site
        if db in (da, ed.adj[da]):
            raise InputError(f"darts {da} and {db} traverse the same edge")
        fa = ed.is_out_dart(da)
        fb = ed.is_out_dart(db)
        ta = da if fa else ed.adj[da]
        tb = db if fb else ed.adj[db]
        u1, o1 = ed.passes(ed.new_crossing(+1 if fb else -1))
        u2, o2 = ed.passes(ed.new_crossing(-1 if fb else +1))
        ed.thread(ta, (o1, o2))
        ed.thread(tb, (u2, u1) if fa == fb else (u1, u2))
    else:
        raise InputError(f"unknown move kind {move.kind!r}")
    return ed if ed is x else ed.to_diagram()


# ---------------------------------------------------------------------------
# sampled increasing moves
# ---------------------------------------------------------------------------


def sample_increasing_move(x: PDDiagram | Editor, rng: random.Random) -> Move | None:
    """A random R1 or R2 increase, or None for a bare-loop diagram."""
    ed = _editor(x)
    if not ed.signs:
        return None
    if rng.random() < 0.5:
        faces = [f for f in ed.faces() if len(f) >= 2]
        if faces:
            face = faces[rng.randrange(len(faces))]
            for _ in range(8):
                da = face[rng.randrange(len(face))]
                db = face[rng.randrange(len(face))]
                if db not in (da, ed.adj[da]):
                    return Move("R2+", (da, db))
    tails = sorted(4 * ci + s for ci, sign in ed.signs.items() for s in out_slots(sign))
    tail = tails[rng.randrange(len(tails))]
    sign = 1 if rng.random() < 0.5 else -1
    return Move("R1+", (tail, sign, rng.random() < 0.5))


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------
#
# Each loop copies its input into one Editor, makes every move through
# ``apply_move`` and relabels at the end.  A loop that makes no move
# returns its input as given, with its own edge labels.


def _reduce_fully(ed: Editor) -> bool:
    """Take the first reducing site until none is left; True if any was."""
    reduced = False
    while moves := find_reducing_moves(ed):
        apply_move(ed, moves[0])
        reduced = True
    return reduced


def _exposes_reduction(adj: dict[Dart, Dart], crossings: set[int]) -> bool:
    """Whether a kink or a reducible bigon has a dart at ``crossings``."""
    darts = [d for c in crossings for d in range(4 * c, 4 * c + 4)]
    return any(_is_kink(adj, d) for d in darts) or any(
        _is_reducible_bigon(adj, small_face(adj, d) or ()) for d in darts
    )


def simplify_greedy(d: PDDiagram) -> PDDiagram:
    """Monotone simplification: exhaust reducing moves, then try each
    triangle slide and keep it only if it exposes a new reduction.

    No reducing site is left when slides are tried, so a slide can expose
    one only at a dart of its three crossings.  Each slide is therefore
    tried in place, checked there and undone; only a kept slide is made.
    """
    ed = Editor.from_diagram(d)
    changed = _reduce_fully(ed)
    progress = True
    while progress and ed.signs:
        progress = False
        for move in find_r3_moves(ed):
            undo = ed.rewire(_slide(ed.adj, move.site))
            exposed = _exposes_reduction(ed.adj, {d >> 2 for d in move.site[0]})
            ed.rewire(undo)
            if exposed:
                apply_move(ed, move)
                _reduce_fully(ed)
                progress = changed = True
                break
    return ed.to_diagram() if changed else d


# Moves in a row without a smaller diagram after which a walk has stalled.
STALL_MOVES = 600


def simplify_global(
    d: PDDiagram, *, budget: int = 10_000, seed: int = 0
) -> PDDiagram:
    """Randomized simplification walk, returning the smallest diagram seen.

    Mostly descends (taking reducing moves when available, triangle slides
    otherwise) but occasionally explores through increasing moves.  The walk
    ends at a diagram of span V crossings, after ``STALL_MOVES`` moves in a
    row that do not improve on the best diagram, or after ``budget`` moves,
    whichever comes first.  No diagram of a knot has fewer crossings than
    span V, the span of its Jones polynomial (Kauffman, Murasugi,
    Thistlethwaite); it is read off a greedy knot diagram whose bracket
    frontier is at most ``FINGERPRINT_WIDTH`` edge ends, and is 0 otherwise
    or at budget 0.  Deterministic in ``seed``.  The walk rewrites one
    editor and relabels only when it records a new best diagram.
    """
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    from .invariants import FINGERPRINT_WIDTH, _contraction_order, jones
    rng = random.Random(seed)
    best = simplify_greedy(d)
    floor = 0
    if budget and best.is_knot and best.n and _contraction_order(best)[1] <= FINGERPRINT_WIDTH:
        v = jones(best)
        floor = v.max_exp() - v.min_exp()
    ed = Editor.from_diagram(best)
    cap = max(best.n + 8, 14)
    stale = 0
    for _ in range(budget):
        if best.n <= floor or stale == STALL_MOVES:
            break
        move = None
        reducing = find_reducing_moves(ed)
        descend = rng.random() < 0.7
        if descend and reducing:
            move = reducing[0]
        else:
            r3 = find_r3_moves(ed)
            can_grow = len(ed.signs) < cap
            if r3 and (not can_grow or rng.random() < 0.75):
                move = r3[rng.randrange(len(r3))]
            elif can_grow:
                move = sample_increasing_move(ed, rng)
            elif reducing:
                move = reducing[0]
        if move is None:
            break
        apply_move(ed, move)
        if len(ed.signs) < best.n:
            best = ed.to_diagram()
            stale = 0
        else:
            stale += 1
    return best


def backtrack_randomize(d: PDDiagram, steps: int = 30, *, seed: int = 0) -> PDDiagram:
    """Scramble a diagram through a random mix of moves (same knot)."""
    rng = random.Random(seed)
    cap = d.n + 25
    ed = Editor.from_diagram(d)
    moved = False
    for _ in range(steps):
        roll = rng.random()
        move = None
        if roll < 0.45:
            r3 = find_r3_moves(ed)
            if r3:
                move = r3[rng.randrange(len(r3))]
        elif roll < 0.8 and len(ed.signs) < cap:
            move = sample_increasing_move(ed, rng)
        else:
            reducing = find_reducing_moves(ed)
            if reducing:
                move = reducing[rng.randrange(len(reducing))]
        if move is None:
            move = sample_increasing_move(ed, rng)
        if move is not None:
            apply_move(ed, move)
            moved = True
    return ed.to_diagram() if moved else d


# ---------------------------------------------------------------------------
# connected sums
# ---------------------------------------------------------------------------


def connected_sum(a: PDDiagram, b: PDDiagram) -> PDDiagram:
    """Join two knot diagrams along their lowest-labelled edges."""
    for name, d in (("first", a), ("second", b)):
        if not d.is_knot:
            raise InputError(f"{name} summand is not a one-component diagram")
    if a.n == 0:
        return b
    if b.n == 0:
        return a
    ed = Editor.from_diagram(a)
    shift = a.n
    for c in b.crossings:
        ed.new_crossing(c.sign)  # ids shift, shift + 1, ...
    for tail, head in b.edge_ends.values():
        ed.connect(tail + 4 * shift, head + 4 * shift)
    ta = a.edge_ends[min(a.edge_ends)][0]
    tb, hb = (x + 4 * shift for x in b.edge_ends[min(b.edge_ends)])
    ha = ed.disconnect(ta)
    ed.disconnect(tb)
    ed.connect(ta, hb)
    ed.connect(tb, ha)
    return ed.to_diagram()


def deconnect_sum(d: PDDiagram) -> tuple[PDDiagram, ...]:
    """Split a knot diagram into its prime summands.

    Each piece of the interlacement graph of the strand (see
    :func:`~gordian.diagram.interlacement`) is one summand, drawn by
    smoothing out every crossing outside it.  Summands come in the order
    the strand first meets them, walking from edge 1; a diagram with one
    piece is returned whole.
    """
    if not d.is_knot:
        raise InputError("deconnect_sum expects a one-component diagram")
    if d.n == 0:
        return (d,)
    sequence = [d.edge_ends[e][1] >> 2 for e in d.components[0]]
    _, pieces = interlacement(sequence)
    if len(pieces) == 1:
        return (d,)
    parts = []
    for piece in pieces:
        ed = Editor.from_diagram(d)
        ed.smooth_out(set(range(d.n)).difference(piece))
        parts.append(ed.to_diagram())
    return tuple(parts)

"""Diagram rewriting: Reidemeister moves, simplification, and sums.

All transformations are pure functions ``PDDiagram -> PDDiagram``; applying
a move re-labels edges canonically, so equal rewrite histories give equal
diagrams.  A ``Move`` is bound to the diagram it was discovered on and is
not meaningful for any other diagram.

Site discovery works on faces.  A kink (reducible R1 site) is an edge whose
two ends meet the same crossing; a reducible R2 site is a two-sided face
whose strands keep their over/under roles at both crossings; a triangle
(R3) site is a three-sided face among three distinct crossings where one
edge is over at both of its ends or under at both.  Increasing moves come
in parameterized families and are sampled rather than enumerated.
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


def find_reducing_moves(d: PDDiagram) -> list[Move]:
    """Reducible R2 then R1 sites, in deterministic face/edge order."""
    moves: list[Move] = []
    partner = d.dart_partner
    for face in d.faces:
        if len(face) != 2:
            continue
        (c1, s1), (c2, s2) = face
        if c1 == c2:
            continue
        if s1 % 2 == partner[(c1, s1)][1] % 2:
            moves.append(Move("R2-", (c1, c2)))
    for e in sorted(d.edge_ends):
        tail, head = d.edge_ends[e]
        if tail[0] == head[0]:
            moves.append(Move("R1-", (tail[0],)))
    return moves


def find_r3_moves(d: PDDiagram) -> list[Move]:
    """Triangle slide sites: ``site == (face, p)`` slides edge ``face[p]``."""
    moves: list[Move] = []
    partner = d.dart_partner
    for face in d.faces:
        if len(face) != 3:
            continue
        if len({ci for ci, _ in face}) != 3:
            continue
        for p in range(3):
            ci, s = face[p]
            if s % 2 == partner[(ci, s)][1] % 2:
                moves.append(Move("R3", (face, p)))
    return moves


def find_moves(d: PDDiagram) -> dict[str, list[Move]]:
    """All reducing and triangle sites, grouped by kind."""
    grouped: dict[str, list[Move]] = {"R1-": [], "R2-": [], "R3": []}
    for m in find_reducing_moves(d):
        grouped[m.kind].append(m)
    grouped["R3"] = find_r3_moves(d)
    return grouped


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _apply_r3(d: PDDiagram, site: tuple) -> PDDiagram:
    face, p = site
    partner = d.dart_partner
    d1 = face[(p - 1) % 3]
    d2 = face[p]
    d3 = face[(p + 1) % 3]
    x, y, z = d1[0], d2[0], d3[0]
    # Near (triangle-facing) slots of the three strands at their crossings.
    strands = (
        ((y, d2[1]), (z, partner[d2][1])),  # sliding strand, through Y and Z
        ((x, d1[1]), (y, partner[d1][1])),  # strand through X and Y
        ((z, d3[1]), (x, partner[d3][1])),  # strand through Z and X
    )
    relocate: dict[Dart, Dart] = {}
    for (g, ng), (h, nh) in strands:
        relocate[(g, ng)] = (g, (ng + 2) % 4)
        relocate[(h, nh)] = (h, (nh + 2) % 4)
        relocate[(g, (ng + 2) % 4)] = (h, nh)
        relocate[(h, (nh + 2) % 4)] = (g, ng)
    if len(relocate) != 12:
        raise InternalError("triangle slots are not pairwise distinct")
    ed = Editor.from_diagram(d)
    new_adj: dict[Dart, Dart] = {}
    for a, b in ed.adj.items():
        new_adj[relocate.get(a, a)] = relocate.get(b, b)
    ed.adj = new_adj
    return ed.to_diagram()


def _apply_r1_plus(d: PDDiagram, site: tuple) -> PDDiagram:
    tail, sign, first_under = site
    ed = Editor.from_diagram(d)
    under, over = ed.passes(ed.new_crossing(sign))
    ed.thread(tail, (under, over) if first_under else (over, under))
    return ed.to_diagram()


def push_arc_over(d: PDDiagram, da: Dart, db: Dart) -> PDDiagram:
    """R2 increase: push the arc at face dart ``da`` over the arc at ``db``.

    Both darts must lie on a common face and traverse different edges; the
    pushed arc crosses the other twice, staying on top at both crossings.
    """
    ed = Editor.from_diagram(d)
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
    return ed.to_diagram()


def apply_move(d: PDDiagram, move: Move) -> PDDiagram:
    if move.kind in ("R1-", "R2-"):
        # A reducing site is the crossings it deletes.
        ed = Editor.from_diagram(d)
        ed.smooth_out(move.site)
        return ed.to_diagram()
    if move.kind == "R3":
        return _apply_r3(d, move.site)
    if move.kind == "R1+":
        return _apply_r1_plus(d, move.site)
    if move.kind == "R2+":
        return push_arc_over(d, *move.site)
    raise InputError(f"unknown move kind {move.kind!r}")


# ---------------------------------------------------------------------------
# sampled increasing moves
# ---------------------------------------------------------------------------


def sample_increasing_move(d: PDDiagram, rng: random.Random) -> Move | None:
    """A random R1 or R2 increase, or None for a bare-loop diagram."""
    if d.n == 0:
        return None
    if rng.random() < 0.5:
        faces = [f for f in d.faces if len(f) >= 2]
        if faces:
            face = faces[rng.randrange(len(faces))]
            for _ in range(8):
                da = face[rng.randrange(len(face))]
                db = face[rng.randrange(len(face))]
                if (
                    da != db
                    and d.crossings[da[0]].edges[da[1]]
                    != d.crossings[db[0]].edges[db[1]]
                ):
                    return Move("R2+", (da, db))
    tails = sorted(
        (ci, s) for ci, c in enumerate(d.crossings) for s in out_slots(c.sign)
    )
    tail = tails[rng.randrange(len(tails))]
    sign = 1 if rng.random() < 0.5 else -1
    return Move("R1+", (tail, sign, rng.random() < 0.5))


# ---------------------------------------------------------------------------
# simplification
# ---------------------------------------------------------------------------


def _reduce_fully(d: PDDiagram) -> PDDiagram:
    while True:
        moves = find_reducing_moves(d)
        if not moves:
            return d
        d = apply_move(d, moves[0])


def simplify_greedy(d: PDDiagram) -> PDDiagram:
    """Monotone simplification: exhaust reducing moves, then try each
    triangle slide and keep it only if it exposes a new reduction."""
    d = _reduce_fully(d)
    progress = True
    while progress and d.n:
        progress = False
        for move in find_r3_moves(d):
            trial = apply_move(d, move)
            if find_reducing_moves(trial):
                d = _reduce_fully(trial)
                progress = True
                break
    return d


# Moves in a row without a smaller diagram after which a walk has stalled.
STALL_MOVES = 600


def simplify_global(
    d: PDDiagram, *, budget: int = 10_000, seed: int = 0
) -> PDDiagram:
    """Randomized simplification walk, returning the smallest diagram seen.

    Mostly descends (taking reducing moves when available, triangle slides
    otherwise) but occasionally explores through increasing moves.  The walk
    ends at the unknot, after ``STALL_MOVES`` moves in a row that do not
    improve on the best diagram, or after ``budget`` moves, whichever comes
    first.  Deterministic in ``seed``.
    """
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    rng = random.Random(seed)
    cur = simplify_greedy(d)
    best = cur
    cap = max(cur.n + 8, 14)
    stale = 0
    for _ in range(budget):
        if best.n == 0 or stale == STALL_MOVES:
            break
        move = None
        reducing = find_reducing_moves(cur)
        descend = rng.random() < 0.7
        if descend and reducing:
            move = reducing[0]
        else:
            r3 = find_r3_moves(cur)
            can_grow = cur.n < cap
            if r3 and (not can_grow or rng.random() < 0.75):
                move = r3[rng.randrange(len(r3))]
            elif can_grow:
                move = sample_increasing_move(cur, rng)
            elif reducing:
                move = reducing[0]
        if move is None:
            break
        cur = apply_move(cur, move)
        if cur.n < best.n:
            best = cur
            stale = 0
        else:
            stale += 1
    return best


def backtrack_randomize(d: PDDiagram, steps: int = 30, *, seed: int = 0) -> PDDiagram:
    """Scramble a diagram through a random mix of moves (same knot)."""
    rng = random.Random(seed)
    cap = d.n + 25
    cur = d
    for _ in range(steps):
        roll = rng.random()
        move = None
        if roll < 0.45:
            r3 = find_r3_moves(cur)
            if r3:
                move = r3[rng.randrange(len(r3))]
        elif roll < 0.8 and cur.n < cap:
            move = sample_increasing_move(cur, rng)
        else:
            reducing = find_reducing_moves(cur)
            if reducing:
                move = reducing[rng.randrange(len(reducing))]
        if move is None:
            move = sample_increasing_move(cur, rng)
        if move is not None:
            cur = apply_move(cur, move)
    return cur


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
        ed.connect((tail[0] + shift, tail[1]), (head[0] + shift, head[1]))
    ta = a.edge_ends[min(a.edge_ends)][0]
    tb0, hb0 = b.edge_ends[min(b.edge_ends)]
    tb = (tb0[0] + shift, tb0[1])
    hb = (hb0[0] + shift, hb0[1])
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
    sequence = [d.edge_ends[e][1][0] for e in d.components[0]]
    _, pieces = interlacement(sequence)
    if len(pieces) == 1:
        return (d,)
    parts = []
    for piece in pieces:
        ed = Editor.from_diagram(d)
        ed.smooth_out(set(range(d.n)).difference(piece))
        parts.append(ed.to_diagram())
    return tuple(parts)

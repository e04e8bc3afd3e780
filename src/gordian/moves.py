"""Diagram rewriting: Reidemeister moves, simplification, and sums.

Public calls on a ``PDDiagram`` are pure: each returns a new diagram with
its edges relabelled canonically (see :meth:`~gordian.diagram.Editor.to_diagram`),
so equal rewrite histories give equal diagrams.  The move loops (reduction,
greedy and walked simplification, and the scramble) instead copy their
input into one ``Editor``, rewrite it in place and relabel once at the
end; Vogel braiding in :mod:`gordian.braid` rewrites one editor too and
reads its braid off that editor, never relabelling it.  Site finding and
``apply_move`` take an editor.  A ``Move`` is bound to the editor state it
was found on and is not meaningful for any other.

Site discovery works on faces, which an editor keeps across its rewrites.
A kink (reducible R1 site) is an edge whose two ends meet the same
crossing, and so bounds a one-dart face; a reducible R2 site is a
two-sided face whose strands keep their over/under roles at both
crossings; a triangle (R3) site is a three-sided face among three
distinct crossings where one edge is over at both of its ends or under
at both.  The editor's face index is the only place the move loops learn
about sites: the reduction loops take the first reducing site from a lazy
generator over it, and the greedy pass probes a triangle slide by making
it, asking the index whether any reducing site now exists, and undoing it.
Increasing moves come in parameterized families and are sampled rather
than enumerated.

``simplify_global`` runs three stages.  The greedy pass takes reducing
moves and keeps a triangle slide only if it exposes one.  Strand pickup
then lifts a knot's maximal over- or under-runs, each laid back along a
shortest route through the dual graph when that route crosses fewer
edges.  Its result stands if ``_is_minimal`` finds that no diagram of the
knot has fewer crossings.  Otherwise the randomized walk runs from the
greedy diagram, and the smaller of the two results wins, the walk's on a
tie.
Pickup rewrites an editor with ``smooth_out`` and ``thread`` rather than
``apply_move``.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .diagram import Crossing, Dart, Editor, PDDiagram, interlacement, out_slots
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


def _keeps_level(adj: dict[Dart, Dart], dart: Dart) -> bool:
    """Whether the edge at ``dart`` is over at both ends or under at both
    (over slots are odd)."""
    return not (dart ^ adj[dart]) & 1


def _is_reducible_bigon(adj: dict[Dart, Dart], face: tuple[Dart, ...]) -> bool:
    """Whether ``face`` is a bigon between two crossings whose edges keep
    their levels: one strand passes over the other at both."""
    return (len(face) == 2 and face[0] >> 2 != face[1] >> 2
            and _keeps_level(adj, face[0]))


def _reducing_sites(ed: Editor) -> Iterator[Move]:
    """Reducible R2 sites in face order, then R1 sites in edge-label order.

    A kink is a one-dart face: in a planar diagram an edge with both ends
    at one crossing joins adjacent slots, so it bounds a monogon.  Several
    kinks are ordered by the rank of each kink edge's tail, which walks
    every strand, so only a caller that reads past the bigons pays for it.
    The editor must not change while the generator is read.
    """
    adj = ed.adj
    for face in ed.faces_of_size(2):
        if _is_reducible_bigon(adj, face):
            yield Move("R2-", (face[0] >> 2, face[1] >> 2))
    kinks = [face[0] for face in ed.faces_of_size(1)]
    if len(kinks) > 1:
        rank = ed.tail_rank()
        kinks.sort(key=lambda d: rank[d] if d in rank else rank[adj[d]])
    for d in kinks:
        yield Move("R1-", (d >> 2,))


def _has_reducing_site(ed: Editor) -> bool:
    """Whether a kink or a reducible bigon exists: no kink order needed."""
    return bool(ed.faces_of_size(1)) or any(
        _is_reducible_bigon(ed.adj, face) for face in ed.faces_of_size(2)
    )


def find_reducing_moves(ed: Editor) -> list[Move]:
    """Every reducing site: reducible R2 sites in face order, then R1
    sites in edge-label order."""
    return list(_reducing_sites(ed))


def find_r3_moves(ed: Editor) -> list[Move]:
    """Triangle slide sites: ``site == (face, p)`` slides edge ``face[p]``."""
    moves: list[Move] = []
    for face in ed.faces_of_size(3):
        if len({d >> 2 for d in face}) != 3:
            continue
        for p in range(3):
            if _keeps_level(ed.adj, face[p]):
                moves.append(Move("R3", (face, p)))
    return moves


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


def apply_move(ed: Editor, move: Move) -> None:
    """Make ``move`` at its site, rewriting ``ed`` in place."""
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


# ---------------------------------------------------------------------------
# sampled increasing moves
# ---------------------------------------------------------------------------


def sample_increasing_move(ed: Editor, rng: random.Random) -> Move | None:
    """A random R1 or R2 increase, or None for a bare-loop diagram."""
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
    while move := next(_reducing_sites(ed), None):
        apply_move(ed, move)
        reduced = True
    return reduced


def _greedy(ed: Editor) -> bool:
    """Simplify ``ed`` greedily in place (see ``simplify_greedy``); True if
    any move was made."""
    changed = _reduce_fully(ed)
    progress = True
    while progress and ed.signs:
        progress = False
        for move in find_r3_moves(ed):
            undo = ed.rewire(_slide(ed.adj, move.site))
            exposed = _has_reducing_site(ed)
            ed.rewire(undo)
            if exposed:
                apply_move(ed, move)
                _reduce_fully(ed)
                progress = changed = True
                break
    return changed


def simplify_greedy(d: PDDiagram) -> PDDiagram:
    """Monotone simplification: exhaust reducing moves, then try each
    triangle slide and keep it only if it exposes a new reduction.

    Slides are tried only once no reducing site is left, so any site that
    exists after a slide is one the slide exposed.  Each slide is made in
    place with ``Editor.rewire``, the editor's face index is asked whether
    any reducing site now exists, and the slide is undone; a kept slide is
    then made again through ``apply_move``.
    """
    ed = Editor.from_diagram(d)
    return ed.to_diagram() if _greedy(ed) else d


# ---------------------------------------------------------------------------
# strand pickup
# ---------------------------------------------------------------------------
#
# A run is a maximal stretch of the strand that passes over every crossing
# it meets, or under every one.  Lifted off the diagram, it can be laid
# back on its own level along any route between its two ends, crossing
# each edge it meets once (Dunfield and Obeidin; SnapPy/spherogram's
# global simplification).  A shorter route is an isotopy that removes
# crossings.


def _runs(ed: Editor) -> Iterator[list[Dart]]:
    """The runs of a knot in the order of their first pass along its
    strand, walked from the first edge tail in label order.  Each run is
    the tails of its edges: the edge into its first pass, then the exit of
    each pass."""
    adj = ed.adj
    start = next(iter(ed.tail_rank()))
    exits = [adj[start] ^ 2]  # the exit of each pass, the last at ``start``
    while exits[-1] != start:
        exits.append(adj[exits[-1]] ^ 2)
    m = len(exits)
    for i in range(m):
        if (exits[i] ^ exits[i - 1]) & 1:  # over slots are odd
            j = i
            while not (exits[(j + 1) % m] ^ exits[i]) & 1:
                j += 1
            yield [exits[p % m] for p in range(i - 1, j + 1)]


def _pick_up(ed: Editor, run: list[Dart]) -> bool:
    """Lay ``run`` back along a shortest route if that crosses fewer edges
    than the run has crossings; True if it did.

    The route is found in the dual graph of the diagram with the run
    lifted: a 0-1 BFS over the editor's faces from the run's far end, where
    crossing one of the run's own edges costs nothing, is cut at the run's
    length.  The route then starts at the run's near end and, each time,
    leaves the faces joined to its current face through the run's edges by
    the least dart whose edge leads one step closer.  A run that ends at
    one of its own crossings is left alone.
    """
    adj = ed.adj
    crossings = {t >> 2 for t in run[1:]}
    k = len(crossings)
    if run[0] >> 2 in crossings or adj[run[-1]] >> 2 in crossings:
        return False
    lifted = set(run).union(adj[t] for t in run)
    ed.retrace_faces()

    def key(x: Dart) -> Dart:
        return ed.face_of(x)[0]

    far = key(run[-1])
    dist = {far: 0}
    queue = deque([far])
    while queue:
        f = queue.popleft()
        for x in ed.face_of(f):
            g = key(adj[x])
            w = x not in lifted
            if dist[f] + w < dist.get(g, k):
                dist[g] = dist[f] + w
                if w:
                    queue.append(g)
                else:
                    queue.appendleft(g)
    f = key(run[0])
    if f not in dist:
        return False
    route: list[Dart] = []  # the dart on the near side of each edge crossed
    while dist[f]:
        joined, stack = {f}, [f]
        while stack:
            for x in ed.face_of(stack.pop()):
                if x in lifted and (g := key(adj[x])) not in joined:
                    joined.add(g)
                    stack.append(g)
        x = min(
            x for g in joined for x in ed.face_of(g)
            if x not in lifted and dist.get(key(adj[x])) == dist[f] - 1
        )
        route.append(x)
        f = key(adj[x])
    # A face lies to the right of each of its darts' edges, walked from
    # the dart: the route crosses an edge from its right when it leaves
    # from the edge's tail, and then the crossing is positive if the run is
    # on top.  Each crossed edge is threaded from the tail it keeps once
    # the run's crossings are gone.  Until the run is threaded back, the
    # edge that joins its ends need not draw in the plane.
    over = bool(run[1] & 1)
    signs, tails = [], []
    for x in route:
        out = ed.is_out_dart(x)
        signs.append(1 if out == over else -1)
        tail = x if out else adj[x]
        while tail >> 2 in crossings:
            tail = adj[tail ^ 2]
        tails.append(tail)
    ed.smooth_out(crossings)
    passes = [ed.passes(ed.new_crossing(sign)) for sign in signs]
    for (under, top), tail in zip(passes, tails):
        ed.thread(tail, [under if over else top])
    ed.thread(run[0], [top if over else under for under, top in passes])
    return True


def _pickup(d: PDDiagram) -> PDDiagram:
    """Pick up runs of a knot, each time the first that gets shorter, and
    simplify greedily after each, until no run gets shorter."""
    ed = Editor.from_diagram(d)
    changed = False
    # ``any`` stops at the first run picked up, so no run is read from a
    # strand that the pickup has changed.
    while ed.signs and any(_pick_up(ed, run) for run in _runs(ed)):
        _greedy(ed)
        changed = True
    return ed.to_diagram() if changed else d


def _is_minimal(d: PDDiagram) -> bool:
    """Whether no diagram of ``d``'s knot has fewer crossings, read off its
    Gauss sequence: no prime summand (see ``deconnect_sum``) has just one
    crossing, which is nugatory, or an edge that keeps its level.

    A reduced alternating diagram has span V crossings, a prime
    non-alternating one more, and no knot diagram fewer (Kauffman,
    Murasugi, Thistlethwaite); span V adds under connected sum.  So on a
    knot this holds exactly at span V crossings.  A link passes only with
    no crossing.
    """
    if not d.is_knot:
        return not d.n
    for part in deconnect_sum(d):
        adj = part.dart_partner
        if part.n == 1 or any(_keeps_level(adj, x) for x in adj):
            return False
    return True


# Moves in a row without a smaller diagram after which a walk has stalled.
STALL_MOVES = 600


def simplify_global(
    d: PDDiagram, *, budget: int = 10_000, seed: int = 0
) -> PDDiagram:
    """Greedy simplification, then strand pickup, then a randomized walk,
    returning the smallest diagram.

    At budget 0 the greedy diagram comes back.  Otherwise a knot's runs are
    picked up on a copy of the greedy diagram (see ``_pick_up``), and that
    result returns at once when ``_is_minimal`` accepts it.

    Otherwise the walk starts from the greedy diagram.  It mostly descends
    (taking reducing moves when available, triangle slides otherwise) but
    occasionally explores through increasing moves.  It ends at a smaller
    diagram that ``_is_minimal`` accepts, after ``STALL_MOVES`` moves in a
    row that do not improve on the best diagram, or after ``budget`` moves,
    whichever comes first.  The pickup result replaces the walk's smallest
    diagram only if it has fewer crossings.  Deterministic in ``seed``.
    The walk rewrites one editor and relabels only when it records a new
    best diagram.
    """
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    best = simplify_greedy(d)
    if not budget:
        return best
    picked = _pickup(best) if best.is_knot else best
    if _is_minimal(picked):
        return picked
    rng = random.Random(seed)
    ed = Editor.from_diagram(best)
    cap = max(best.n + 8, 14)
    stale = 0
    for _ in range(budget):
        if stale == STALL_MOVES:
            break
        move = None
        reducing = next(_reducing_sites(ed), None)
        descend = rng.random() < 0.7
        if descend and reducing:
            move = reducing
        else:
            r3 = find_r3_moves(ed)
            can_grow = len(ed.signs) < cap
            if r3 and (not can_grow or rng.random() < 0.75):
                move = r3[rng.randrange(len(r3))]
            elif can_grow:
                move = sample_increasing_move(ed, rng)
            elif reducing:
                move = reducing
        if move is None:
            break
        apply_move(ed, move)
        if len(ed.signs) < best.n:
            best = ed.to_diagram()
            if _is_minimal(best):
                break
            stale = 0
        else:
            stale += 1
    return picked if picked.n < best.n else best


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

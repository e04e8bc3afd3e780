"""Shared generators and oracles for the test suite."""

import heapq
import random
from fractions import Fraction

import pytest

from gordian.braid import BraidWord, braid_closure, closure_component_count
from gordian.diagram import (
    Crossing,
    Dart,
    Editor,
    PDDiagram,
    in_slots,
    out_slots,
)
from gordian.errors import InternalError
from gordian.invariants import _SMOOTHINGS, _contraction_order, seifert_matrix
from gordian.laurent import LaurentPoly
from gordian.moves import Move, apply_move, backtrack_randomize


def random_knot_word(
    rng: random.Random,
    max_strands: int = 4,
    max_letters: int = 10,
    min_letters: int = 3,
) -> BraidWord:
    """A random braid word whose closure is a knot (one component)."""
    while True:
        strands = rng.randint(2, max_strands)
        length = rng.randint(min_letters, max_letters)
        letters = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(length)
        ]
        word = BraidWord.from_letters(letters, strands)
        if closure_component_count(word) == 1:
            return word


def random_knot_diagram(rng: random.Random, max_crossings: int = 12):
    """A random one-component diagram with at most ``max_crossings``."""
    while True:
        word = random_knot_word(rng, max_letters=max_crossings)
        d = braid_closure(word)
        if d.n <= max_crossings:
            return d


def random_link_diagram(
    rng: random.Random, max_strands: int = 4, max_letters: int = 10
):
    """The closure of a random braid word: a knot or a link, with a free
    loop for each strand height the word never touches."""
    strands = rng.randint(2, max_strands)
    letters = [
        rng.choice((1, -1)) * rng.randint(1, strands - 1)
        for _ in range(rng.randint(1, max_letters))
    ]
    return braid_closure(BraidWord.from_letters(letters, strands))


def editing_corpus(rng: random.Random, count: int) -> list:
    """``count`` diagrams, cycling through knot closures, braid-closure
    links and knot closures scrambled by random Reidemeister moves."""
    out = []
    for i in range(count):
        if i % 3 == 0:
            out.append(random_knot_diagram(rng))
        elif i % 3 == 1:
            out.append(random_link_diagram(rng))
        else:
            out.append(backtrack_randomize(random_knot_diagram(rng, 8), 12, seed=i))
    return out


# ---------------------------------------------------------------------------
# Reference dart encoding: (crossing, slot) pairs, with the orbit tracer and
# strand walk that ran on them before darts became 4 * crossing + slot
# ---------------------------------------------------------------------------


def tuple_partner(d) -> dict:
    """The dart pairing of diagram ``d`` in (crossing, slot) pairs, read off
    its edge labels."""
    ends: dict = {}
    for ci, c in enumerate(d.crossings):
        for s in range(4):
            ends.setdefault(c.edges[s], []).append((ci, s))
    partner = {}
    for a, b in ends.values():
        partner[a], partner[b] = b, a
    return partner


def tuple_face_orbits(crossings, partner) -> tuple:
    """Faces meeting ``crossings``: orbits of ``rotate(partner(dart))``,
    each from the first dart met in (crossing, slot) order."""
    seen: set = set()
    faces = []
    for start in ((ci, s) for ci in crossings for s in range(4)):
        if start in seen:
            continue
        orbit = [start]
        cj, t = partner[start]
        d = (cj, (t + 1) % 4)
        while d != start:
            orbit.append(d)
            cj, t = partner[d]
            d = (cj, (t + 1) % 4)
        seen.update(orbit)
        faces.append(tuple(orbit))
    return tuple(faces)


def tuple_strand_walk(signs: dict, partner: dict) -> tuple[list, set]:
    """Edge tails in ``Editor.to_diagram``'s label order, each strand walked
    from the lowest unvisited out slot of the lowest crossing id, and the
    crossings the strands start from."""
    seen: set = set()
    tails, starts = [], set()
    for cid in sorted(signs):
        for s in out_slots(signs[cid]):
            d = (cid, s)
            if d not in seen:
                starts.add(cid)
            while d not in seen:
                seen.add(d)
                tails.append(d)
                c2, s2 = partner[d]
                d = (c2, strand_exit(signs[c2], s2))
    return tails, starts


def tuple_label_tails(d) -> list:
    """Edge tails of diagram ``d`` in the order of its edge labels."""
    tails = {
        c.edges[s]: (ci, s)
        for ci, c in enumerate(d.crossings)
        for s in out_slots(c.sign)
    }
    return [tails[e] for e in sorted(tails)]


def as_pairs(faces) -> tuple:
    """Integer-dart faces in (crossing, slot) pairs."""
    return tuple(tuple(divmod(x, 4) for x in face) for face in faces)


def reference_kink_order(adj: dict, tails) -> list[int]:
    """The crossings of the kinks in the order of their edge tails: the rule
    ``[t for t in ed.tails() if kink]`` by which ``find_reducing_moves``
    ordered several kinks before it kept tail ranks.  ``tails`` are integer
    darts.  A kink is an edge with both ends at one crossing; in a planar
    diagram each bounds a one-dart face."""
    return [t >> 2 for t in tails if adj[t] >> 2 == t >> 2]


# ---------------------------------------------------------------------------
# Independent planarity oracle for DT shadows (every rotation, faces counted)
# ---------------------------------------------------------------------------


def planar_rotations(code) -> list[tuple[bool, ...]]:
    """Every rotation bit vector under which the code's shadow is planar.

    Ports are 0 odd-in, 1 even-in, 2 odd-out, 3 even-out.  Bit ``True`` at
    crossing c orders its ports (0, 1, 2, 3) counterclockwise, ``False``
    orders them (0, 3, 2, 1).  Each of the 2**n vectors is tried by
    tracing faces on the 4n darts; the shadow (n vertices, 2n edges) lies
    in the sphere exactly when it has n + 2 faces.  This shares nothing
    with the package's interlacement criterion.
    """
    n = code.n
    assert 1 <= n <= 8, "oracle is for small codes"
    at = {}
    for i, e in enumerate(code.entries):
        at[2 * i + 1] = i
        at[abs(e)] = i
    across = {}  # dart -> the dart at the other end of its arc
    for t in range(1, 2 * n + 1):
        u = t % (2 * n) + 1
        tail, head = (at[t], 2 if t % 2 else 3), (at[u], 0 if u % 2 else 1)
        across[tail], across[head] = head, tail
    planar = []
    for mask in range(1 << n):
        bits = tuple(bool(mask >> c & 1) for c in range(n))
        seen = set()
        faces = 0
        for start in across:
            if start in seen:
                continue
            faces += 1
            dart = start
            while dart not in seen:
                seen.add(dart)
                c, p = across[dart]
                dart = (c, (p + (1 if bits[c] else 3)) % 4)
        if faces == n + 2:
            planar.append(bits)
    return planar


# ---------------------------------------------------------------------------
# Independent summand oracle (two-edge cuts of the crossing graph)
# ---------------------------------------------------------------------------


def two_edge_cut_split(d) -> tuple:
    """Prime summands of a knot diagram, split along two-edge cuts.

    Tries every pair of edges; when removing both disconnects the crossing
    graph, each side is closed up by one new edge and split again.  This
    is quadratic in the edges and shares nothing with the package's
    interlacement pieces except ``Editor.to_diagram``.
    """
    assert d.is_knot
    if d.n == 0:
        return (d,)
    edges = sorted(d.edge_ends)
    incident = {ci: [] for ci in range(d.n)}
    for e, (tail, head) in d.edge_ends.items():
        incident[tail >> 2].append(e)
        incident[head >> 2].append(e)
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            reached = {0}
            stack = [0]
            while stack:
                ci = stack.pop()
                for g in incident[ci]:
                    if g in (e, f):
                        continue
                    tail, head = d.edge_ends[g]
                    nb = head >> 2 if tail >> 2 == ci else tail >> 2
                    if nb not in reached:
                        reached.add(nb)
                        stack.append(nb)
            if len(reached) < d.n:
                return _split_at_cut(d, e, f, reached)
    return (d,)


def _split_at_cut(d, e: int, f: int, side: set) -> tuple:
    # The strand enters ``side`` along one cut edge and leaves along the
    # other; each half is closed up by joining its two loose ends.
    te, he = d.edge_ends[e]
    tf, hf = d.edge_ends[f]
    if he >> 2 not in side:
        te, he, tf, hf = tf, hf, te, he
    assert he >> 2 in side and hf >> 2 not in side
    parts = []
    for crossings, inner, outer in (
        (side, he, tf),
        (set(range(d.n)) - side, hf, te),
    ):
        ed = Editor()
        for ci in sorted(crossings):
            ed.signs[ci] = d.crossings[ci].sign
        for g, (tail, head) in d.edge_ends.items():
            if g not in (e, f) and tail >> 2 in crossings:
                ed.connect(tail, head)
        ed.connect(outer, inner)
        parts.extend(two_edge_cut_split(ed.to_diagram()))
    return tuple(parts)


# ---------------------------------------------------------------------------
# Independent rational elimination (signature and rank)
# ---------------------------------------------------------------------------


def fraction_signature(rows: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix by elimination over Q.

    Zero pivots are handled by a symmetric swap with a later nonzero
    diagonal entry, else by adding a row and column with a nonzero
    off-diagonal entry to another (which puts twice that entry on the
    diagonal).
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    pos = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if a[r][r] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                pair = next(
                    (
                        (r, s)
                        for r in range(i, n)
                        for s in range(r + 1, n)
                        if a[r][s] != 0
                    ),
                    None,
                )
                if pair is None:
                    break  # the remaining block is zero
                r, s = pair
                for j in range(n):
                    a[r][j] += a[s][j]
                for row in a:
                    row[r] += row[s]
                if r != i:
                    a[i], a[r] = a[r], a[i]
                    for row in a:
                        row[i], row[r] = row[r], row[i]
        pivot = a[i][i]
        if pivot == 0:
            continue
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            if a[r][i] == 0:
                continue
            f = a[r][i] / pivot
            for j in range(i, n):
                a[r][j] -= f * a[i][j]
        for r in range(i + 1, n):
            a[i][r] = Fraction(0)
            a[r][i] = Fraction(0)
    return pos - neg


# ---------------------------------------------------------------------------
# Independent editing oracles (the boundary walk and the per-case wiring
# that the pass primitives replaced)
# ---------------------------------------------------------------------------


def strand_exit(sign: int, slot: int) -> int:
    """Continue a strand through a crossing: entry slot -> exit slot."""
    if slot == 0:
        return 2
    if sign > 0 and slot == 1:
        return 3
    if sign < 0 and slot == 3:
        return 1
    raise InternalError(f"slot {slot} is not an entry slot at sign {sign:+d}")


def strand_entry(sign: int, slot: int) -> int:
    """Inverse of :func:`strand_exit`: exit slot -> entry slot."""
    if slot == 2:
        return 0
    if sign > 0 and slot == 3:
        return 1
    if sign < 0 and slot == 1:
        return 3
    raise InternalError(f"slot {slot} is not an exit slot at sign {sign:+d}")


def walk_smooth_out(ed: Editor, removed) -> None:
    """Delete crossings from ``ed`` by walking each strand across the
    removed region from its boundary, then counting the strands trapped
    inside it as free loops."""
    rem = set(removed)
    if not rem:
        return
    rem_darts = {4 * c + s for c in rem for s in range(4)}

    def through(d: Dart) -> Dart:
        # Continue the strand across crossing d >> 2, with the walk's
        # direction inferred from whether d is an entry or exit dart.
        c, s = divmod(d, 4)
        sign = ed.signs[c]
        if s in in_slots(sign):
            return 4 * c + strand_exit(sign, s)
        return 4 * c + strand_entry(sign, s)

    # Reconnect strands that leave the removed region.
    boundary = [
        d for d in ed.adj if d not in rem_darts and ed.adj[d] in rem_darts
    ]
    new_pairs: list[tuple[Dart, Dart]] = []
    for u in boundary:
        if not ed.is_out_dart(u):
            continue  # walk each strand once, along its orientation
        v = ed.adj[u]
        while v in rem_darts:
            v = ed.adj[through(v)]
        new_pairs.append((u, v))

    # Count strands trapped entirely inside the removed region.  A walk
    # is trapped only if it returns to its own starting dart; running
    # into territory seen from an earlier start proves nothing, since
    # that walk may have begun mid-strand.
    visited: set[Dart] = set()
    for d0 in sorted(rem_darts):
        if d0 in visited or ed.adj[d0] not in rem_darts:
            continue
        if not ed.is_out_dart(d0):
            continue
        trapped = True
        d = d0
        while True:
            visited.add(d)
            v = ed.adj[d]
            visited.add(v)
            if v not in rem_darts:
                trapped = False
                break
            d = through(v)
            if d == d0:
                break
        if trapped:
            ed.free_loops += 1

    for d in rem_darts:
        partner = ed.adj.pop(d, None)
        if partner is not None and partner not in rem_darts:
            ed.adj.pop(partner, None)
    for c in rem:
        del ed.signs[c]
    for u, v in new_pairs:
        ed.adj[u] = v
        ed.adj[v] = u


def wired_r1_plus(d, site):
    """R1 increase wired case by case."""
    tail, sign, first_under = site
    ed = Editor.from_diagram(d)
    head = ed.disconnect(tail)
    c = 4 * ed.new_crossing(sign)
    if sign > 0 and first_under:
        ed.connect(tail, c + 0), ed.connect(c + 2, c + 1), ed.connect(c + 3, head)
    elif sign < 0 and first_under:
        ed.connect(tail, c + 0), ed.connect(c + 2, c + 3), ed.connect(c + 1, head)
    elif sign < 0:
        ed.connect(tail, c + 3), ed.connect(c + 1, c + 0), ed.connect(c + 2, head)
    else:
        ed.connect(tail, c + 1), ed.connect(c + 3, c + 0), ed.connect(c + 2, head)
    return ed.to_diagram()


def wired_push_arc_over(d, da, db):
    """R2 increase wired case by case."""
    ed = Editor.from_diagram(d)
    fa = ed.is_out_dart(da)
    fb = ed.is_out_dart(db)
    ta, ha = (da, ed.adj[da]) if fa else (ed.adj[da], da)
    tb, hb = (db, ed.adj[db]) if fb else (ed.adj[db], db)
    ed.disconnect(ta)
    ed.disconnect(tb)
    c1 = 4 * ed.new_crossing(+1 if fb else -1)
    c2 = 4 * ed.new_crossing(-1 if fb else +1)
    if fb:
        ed.connect(ta, c1 + 1)
        ed.connect(c1 + 3, c2 + 3)
        ed.connect(c2 + 1, ha)
    else:
        ed.connect(ta, c1 + 3)
        ed.connect(c1 + 1, c2 + 1)
        ed.connect(c2 + 3, ha)
    if fa == fb:
        ed.connect(tb, c2 + 0)
        ed.connect(c2 + 2, c1 + 0)
        ed.connect(c1 + 2, hb)
    else:
        ed.connect(tb, c1 + 0)
        ed.connect(c1 + 2, c2 + 0)
        ed.connect(c2 + 2, hb)
    return ed.to_diagram()


def relabelled(d, rng: random.Random):
    """``d`` with its edge labels shuffled: the same crossings and wiring,
    in a label order that is not the traversal order ``to_diagram`` gives."""
    labels = sorted(d.edge_ends)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    to = dict(zip(labels, shuffled))
    crossings = tuple(
        Crossing(tuple(to[e] for e in c.edges), c.sign) for c in d.crossings
    )
    return PDDiagram(crossings, d.free_loops)


# ---------------------------------------------------------------------------
# Reference move loops: each move rebuilds and relabels the whole diagram,
# and sites are found on the diagram's own faces and edge labels, as before
# the loops ran on one Editor
# ---------------------------------------------------------------------------


def reference_reducing_moves(d) -> list:
    moves = []
    partner = d.dart_partner
    for face in d.faces:
        if len(face) != 2:
            continue
        (c1, s1), (c2, s2) = divmod(face[0], 4), divmod(face[1], 4)
        if c1 != c2 and s1 % 2 == partner[face[0]] % 4 % 2:
            moves.append(Move("R2-", (c1, c2)))
    for e in sorted(d.edge_ends):
        tail, head = d.edge_ends[e]
        if tail >> 2 == head >> 2:
            moves.append(Move("R1-", (tail >> 2,)))
    return moves


def reference_r3_moves(d) -> list:
    moves = []
    partner = d.dart_partner
    for face in d.faces:
        if len(face) != 3 or len({x >> 2 for x in face}) != 3:
            continue
        for p in range(3):
            ci, s = divmod(face[p], 4)
            if s % 2 == partner[face[p]] % 4 % 2:
                moves.append(Move("R3", (face, p)))
    return moves


def reference_increasing_move(d, rng: random.Random):
    if d.n == 0:
        return None
    if rng.random() < 0.5:
        faces = [f for f in d.faces if len(f) >= 2]
        if faces:
            face = faces[rng.randrange(len(faces))]
            edge = [d.crossings[x >> 2].edges[x & 3] for x in face]
            for _ in range(8):
                a = rng.randrange(len(face))
                b = rng.randrange(len(face))
                if a != b and edge[a] != edge[b]:
                    return Move("R2+", (face[a], face[b]))
    tails = sorted(
        4 * ci + s for ci, c in enumerate(d.crossings) for s in out_slots(c.sign)
    )
    tail = tails[rng.randrange(len(tails))]
    sign = 1 if rng.random() < 0.5 else -1
    return Move("R1+", (tail, sign, rng.random() < 0.5))


def reference_r3(d, site):
    """Triangle slide by rebuilding the whole partner map."""
    face, p = site
    partner = d.dart_partner
    d1, d2, d3 = face[(p - 1) % 3], face[p], face[(p + 1) % 3]
    x, y, z = d1 >> 2, d2 >> 2, d3 >> 2
    strands = (
        ((y, d2 & 3), (z, partner[d2] & 3)),
        ((x, d1 & 3), (y, partner[d1] & 3)),
        ((z, d3 & 3), (x, partner[d3] & 3)),
    )
    relocate = {}
    for (g, ng), (h, nh) in strands:
        relocate[4 * g + ng] = 4 * g + (ng + 2) % 4
        relocate[4 * h + nh] = 4 * h + (nh + 2) % 4
        relocate[4 * g + (ng + 2) % 4] = 4 * h + nh
        relocate[4 * h + (nh + 2) % 4] = 4 * g + ng
    assert len(relocate) == 12
    ed = Editor.from_diagram(d)
    ed.adj = {relocate.get(a, a): relocate.get(b, b) for a, b in ed.adj.items()}
    return ed.to_diagram()


def reference_apply(d, move):
    if move.kind == "R3":
        return reference_r3(d, move.site)
    if move.kind == "R1+":
        return wired_r1_plus(d, move.site)
    if move.kind == "R2+":
        return wired_push_arc_over(d, *move.site)
    return apply_move(d, move)  # R1- and R2-: one smooth_out


def reference_reduce_fully(d):
    while moves := reference_reducing_moves(d):
        d = reference_apply(d, moves[0])
    return d


def reference_simplify_greedy(d):
    d = reference_reduce_fully(d)
    progress = True
    while progress and d.n:
        progress = False
        for move in reference_r3_moves(d):
            trial = reference_apply(d, move)
            if reference_reducing_moves(trial):
                d = reference_reduce_fully(trial)
                progress = True
                break
    return d


def reference_simplify_global(d, *, budget: int, seed: int, stall: int = 600):
    rng = random.Random(seed)
    cur = reference_simplify_greedy(d)
    best = cur
    cap = max(cur.n + 8, 14)
    stale = 0
    for _ in range(budget):
        if best.n == 0 or stale == stall:
            break
        move = None
        reducing = reference_reducing_moves(cur)
        descend = rng.random() < 0.7
        if descend and reducing:
            move = reducing[0]
        else:
            r3 = reference_r3_moves(cur)
            can_grow = cur.n < cap
            if r3 and (not can_grow or rng.random() < 0.75):
                move = r3[rng.randrange(len(r3))]
            elif can_grow:
                move = reference_increasing_move(cur, rng)
            elif reducing:
                move = reducing[0]
        if move is None:
            break
        cur = reference_apply(cur, move)
        if cur.n < best.n:
            best = cur
            stale = 0
        else:
            stale += 1
    return best


def reference_backtrack_randomize(d, steps: int, *, seed: int):
    rng = random.Random(seed)
    cap = d.n + 25
    cur = d
    for _ in range(steps):
        roll = rng.random()
        move = None
        if roll < 0.45:
            r3 = reference_r3_moves(cur)
            if r3:
                move = r3[rng.randrange(len(r3))]
        elif roll < 0.8 and cur.n < cap:
            move = reference_increasing_move(cur, rng)
        else:
            reducing = reference_reducing_moves(cur)
            if reducing:
                move = reducing[rng.randrange(len(reducing))]
        if move is None:
            move = reference_increasing_move(cur, rng)
        if move is not None:
            cur = reference_apply(cur, move)
    return cur


def seifert_exit(sign: int, slot: int) -> int:
    """Continue through the orientation-preserving smoothing of a crossing."""
    if sign > 0:
        pairing = {0: 3, 1: 2}
    else:
        pairing = {0: 1, 3: 2}
    if slot not in pairing:
        raise InternalError(f"slot {slot} is not an entry slot at sign {sign:+d}")
    return pairing[slot]


def seifert_circles(d) -> list[tuple[int, ...]]:
    """Seifert circles as edge cycles, each from the lowest edge label it
    passes, in the order of those labels."""
    ends = d.edge_ends
    seen: set[int] = set()
    circles = []
    for start in sorted(ends):
        if start in seen:
            continue
        cyc = []
        e = start
        while e not in seen:
            seen.add(e)
            cyc.append(e)
            ci, s = divmod(ends[e][1], 4)
            c = d.crossings[ci]
            e = c.edges[seifert_exit(c.sign, s)]
        circles.append(tuple(cyc))
    return circles


def reference_incoherent_pair(d):
    of_edge = {e: i for i, cyc in enumerate(seifert_circles(d)) for e in cyc}
    for face in d.faces:
        seen = []
        for x in face:
            ci, s = divmod(x, 4)
            circ = of_edge[d.crossings[ci].edges[s]]
            out = s in out_slots(d.crossings[ci].sign)
            for circ2, out2, dart in seen:
                if circ2 != circ and out2 == out:
                    return dart, x
            seen.append((circ, out, x))
    return None


def reference_vogel_braid(d) -> BraidWord:
    """Vogel's pushes on whole diagrams, then the braid read off the
    relabelled diagram's edge labels."""
    assert d.is_knot
    if d.n == 0:
        return BraidWord((), 1)
    while (pair := reference_incoherent_pair(d)) is not None:
        d = wired_push_arc_over(d, *pair)
    return reference_read_braid(d)


def reference_read_braid(d) -> BraidWord:
    """Read a braid word off a coherent (nested-circle) diagram by its own
    edge labels and faces: the reference for ``braid._read_braid``, which
    reads by the same rules off the editor and circles of ``vogel_braid``."""
    circles = seifert_circles(d)
    of_edge = {e: i for i, cyc in enumerate(circles) for e in cyc}
    k = len(circles)

    # Each crossing joins two circles; the multigraph must be a path.
    joins: dict[int, tuple[int, int]] = {}
    nbrs: dict[int, set[int]] = {i: set() for i in range(k)}
    for ci, c in enumerate(d.crossings):
        g1 = of_edge[c.edges[0]]
        g2 = of_edge[c.edges[in_slots(c.sign)[1]]]
        if g1 == g2:
            raise InternalError("crossing joins a Seifert circle to itself")
        joins[ci] = (g1, g2)
        nbrs[g1].add(g2)
        nbrs[g2].add(g1)
    ends = [i for i in range(k) if len(nbrs[i]) == 1]
    if k > 1 and (len(ends) != 2 or any(len(v) > 2 for v in nbrs.values())):
        raise InternalError("Seifert circles do not form a chain")
    if k == 1:
        raise InternalError("coherent diagram with crossings on one circle")

    # Order the circles along the chain, starting from the end that owns
    # the smallest edge label (a deterministic choice).
    first = min(ends, key=lambda i: min(circles[i]))
    order = [first]
    prev = -1
    while len(order) < k:
        step = [g for g in nbrs[order[-1]] if g != prev]
        if len(step) != 1:
            raise InternalError("Seifert circles do not form a chain")
        prev = order[-1]
        order.append(step[0])
    strand = {g: i + 1 for i, g in enumerate(order)}  # circle -> strand index

    # Pick a cut arc on each circle by walking dual to the nesting: start in
    # a face bounded only by the first circle and cross one circle at a time.
    cut: dict[int, int] = {}
    face = None
    for f in d.faces:
        if {of_edge[d.crossings[x >> 2].edges[x & 3]] for x in f} == {order[0]}:
            face = f
            break
    if face is None:
        raise InternalError("no face inside the innermost circle")
    dart_face = {dart: f for f in d.faces for dart in f}
    for g in order:
        chosen = None
        for dart in face:
            ci, s = divmod(dart, 4)
            if of_edge[d.crossings[ci].edges[s]] == g:
                chosen = dart
                break
        if chosen is None:
            raise InternalError("cut walk lost the next circle")
        edge = d.crossings[chosen >> 2].edges[chosen & 3]
        cut[g] = edge
        face = dart_face[d.dart_partner[chosen]]

    # Linearise each circle's crossing sequence starting after its cut arc,
    # then merge the chains into a word, lowest strand first on ties.
    succ: dict[int, list[int]] = {ci: [] for ci in joins}
    indeg = {ci: 0 for ci in joins}
    heads: list[tuple[int, int]] = []
    for g, cyc in enumerate(circles):
        start_pos = cyc.index(cut[g])
        seq = []
        for j in range(len(cyc)):
            e = cyc[(start_pos + j) % len(cyc)]
            seq.append(d.edge_ends[e][1] >> 2)
        for a, b in zip(seq, seq[1:]):
            succ[a].append(b)
            indeg[b] += 1
    for ci in joins:
        if indeg[ci] == 0:
            g1, g2 = joins[ci]
            heapq.heappush(heads, (min(strand[g1], strand[g2]), ci))
    letters: list[int] = []
    while heads:
        _, ci = heapq.heappop(heads)
        g1, g2 = joins[ci]
        gen = min(strand[g1], strand[g2])
        if abs(strand[g1] - strand[g2]) != 1:
            raise InternalError("crossing joins non-adjacent strands")
        letters.append(gen * d.crossings[ci].sign)
        for b in succ[ci]:
            indeg[b] -= 1
            if indeg[b] == 0:
                h1, h2 = joins[b]
                heapq.heappush(heads, (min(strand[h1], strand[h2]), b))
    if len(letters) != d.n:
        raise InternalError("braid reading dropped crossings")
    return BraidWord(tuple(letters), k)


# ---------------------------------------------------------------------------
# Independent bracket oracle (state sum over all 2**n smoothings)
# ---------------------------------------------------------------------------

STATE_SUM_MAX_CROSSINGS = 15


def state_sum_bracket(d) -> LaurentPoly:
    """Kauffman bracket as the sum over every smoothing state.

    Each state is a bitmask (bit ``c`` set: A-smoothing at crossing ``c``),
    and its loops are counted by walking darts.  Exponential, so it only
    accepts small diagrams; it shares nothing with the package's planar
    contraction except the diagram's dart pairing and Laurent arithmetic.
    """
    n = d.n
    assert 1 <= n <= STATE_SUM_MAX_CROSSINGS, "oracle is for small diagrams"
    match = [0] * (4 * n)
    for tail, head in d.edge_ends.values():
        match[tail], match[head] = head, tail
    # A-smoothing pairs slots (1,2),(3,0); B-smoothing pairs (0,1),(2,3).
    pa = [4 * (i >> 2) + (3, 2, 1, 0)[i & 3] for i in range(4 * n)]
    pb = [4 * (i >> 2) + (1, 0, 3, 2)[i & 3] for i in range(4 * n)]
    hist: dict[tuple[int, int], int] = {}
    stamp = [-1] * (4 * n)
    for state in range(1 << n):
        loops = 0
        for d0 in range(4 * n):
            if stamp[d0] == state:
                continue
            loops += 1
            x = d0
            while stamp[x] != state:
                stamp[x] = state
                e = match[x]
                stamp[e] = state
                x = pa[e] if (state >> (e >> 2)) & 1 else pb[e]
        key = (bin(state).count("1"), loops)
        hist[key] = hist.get(key, 0) + 1
    delta = LaurentPoly({2: -1, -2: -1})
    total = LaurentPoly.zero()
    for (a, loops), count in hist.items():
        b = n - a
        total = total + LaurentPoly({a - b: count}) * delta ** (
            loops - 1 + d.free_loops
        )
    return total


def reference_contraction_bracket(d) -> tuple[LaurentPoly, int]:
    """The planar contraction bracket with the per-crossing step that
    sorted each slot three ways (old frontier end, kink, fresh end) and
    followed paths through the smoothing by hand; the package now glues
    edges by one rule instead.  Returns the bracket and the most frontier
    states held after any crossing, where the package's
    ``MAX_FRONTIER_STATES`` check reads the same count.  Takes diagrams
    with at least one crossing.
    """
    assert d.n >= 1
    delta = LaurentPoly({2: -1, -2: -1})
    delta_pow = [((0, 1),), delta.terms, (delta * delta).terms]
    partner = d.dart_partner
    frontier: list[Dart] = []  # dangling edge ends of the region, by position
    states: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    peak = 0
    for c in _contraction_order(d)[0]:
        at = {dart: i for i, dart in enumerate(frontier)}
        # Where each slot's edge leads: an old frontier position, another
        # slot of this crossing (a kink), or a new frontier end.
        link = [0] * 4
        is_fresh = [False] * 4
        slot_at = [-1] * len(frontier)  # old position -> slot it ends at
        fresh: list[Dart] = []
        for s in range(4):
            p = partner[4 * c + s]
            if p in at:
                link[s] = at[p]
                slot_at[at[p]] = s
            elif p >> 2 == c:
                link[s] = -1 - (p & 3)
            else:
                is_fresh[s] = True
                fresh.append(4 * c + s)
        kept = [i for i in range(len(frontier)) if slot_at[i] < 0]
        renumber = [-1] * len(frontier)
        for k, i in enumerate(kept):
            renumber[i] = k
        for k, dart in enumerate(fresh):
            link[dart & 3] = len(kept) + k
        frontier = [frontier[i] for i in kept] + fresh
        pad = [-1] * (len(frontier) - len(kept))
        merged: dict[tuple[int, ...], dict[int, int]] = {}
        for m, poly in states.items():
            # outer[s]: where the strand leaving slot s outward ends, as a
            # new frontier index (>= 0) or as slot t (-1 - t).
            outer = [0] * 4
            for s in range(4):
                ln = link[s]
                if ln < 0 or is_fresh[s]:
                    outer[s] = ln
                else:
                    q = m[ln]
                    outer[s] = renumber[q] if slot_at[q] < 0 else -1 - slot_at[q]
            base = [renumber[m[i]] for i in kept] + pad
            for smooth, a_exp in _SMOOTHINGS:
                nm = base[:]
                seen = [False] * 4
                for s in range(4):
                    if seen[s] or outer[s] < 0:
                        continue
                    seen[s] = True
                    t = smooth[s]
                    while True:
                        seen[t] = True
                        o = outer[t]
                        if o >= 0:
                            break
                        t = -1 - o
                        seen[t] = True
                        t = smooth[t]
                    nm[outer[s]] = o
                    nm[o] = outer[s]
                loops = 0
                for s in range(4):
                    if seen[s]:
                        continue
                    loops += 1
                    t = s
                    while not seen[t]:
                        seen[t] = True
                        u = smooth[t]
                        seen[u] = True
                        t = -1 - outer[u]
                key = tuple(nm)
                acc = merged.get(key)
                if acc is None:
                    acc = merged[key] = {}
                for de, dc in delta_pow[loops]:
                    shift = a_exp + de
                    for e, coeff in poly.items():
                        e += shift
                        acc[e] = acc.get(e, 0) + coeff * dc
        peak = max(peak, len(merged))
        states = merged
    assert not frontier and len(states) == 1
    total = LaurentPoly(states[()])
    if d.free_loops:
        return total * delta ** (d.free_loops - 1), peak
    return total.exact_div(delta), peak


# ---------------------------------------------------------------------------
# Independent Alexander oracle (Seifert matrix, evaluation and interpolation)
# ---------------------------------------------------------------------------


def int_det(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    a = [row[:] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    denom = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // denom
            a[i][k] = 0
        denom = pivot
    return sign * a[n - 1][n - 1]


def seifert_alexander(word: BraidWord) -> LaurentPoly:
    """Alexander polynomial as ``det(V - t*V^T)`` of the package's Seifert
    matrix, normalized so the polynomial is symmetric in t <-> 1/t and
    evaluates to +1 at t = 1.

    The determinant is taken at the m+1 points 0..m by integer Bareiss and
    recovered by exact Newton interpolation.  This shares nothing with the
    package's Burau route except Laurent arithmetic, and it pins the
    Seifert matrix's off-diagonal constants, which the package otherwise
    reads only through the signature.
    """
    V = seifert_matrix(word)
    m = len(V)
    xs = list(range(m + 1))
    ys = [
        int_det([[V[i][j] - x * V[j][i] for j in range(m)] for i in range(m)])
        for x in xs
    ]
    # Newton's divided differences, exactly.
    coeffs = [Fraction(y) for y in ys]
    for level in range(1, m + 1):
        for i in range(m, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    det = LaurentPoly.zero()
    acc = LaurentPoly.one()
    for i, c in enumerate(coeffs):
        assert c.denominator == 1, "determinant interpolation left fractions"
        det = det + acc * int(c)
        acc = acc * LaurentPoly({1: 1, 0: -xs[i]})
    assert not det.is_zero(), "Seifert determinant vanished on a knot"
    lo, hi = det.min_exp(), det.max_exp()
    assert (lo + hi) % 2 == 0, "odd exponent span in Seifert oracle"
    centered = det.shift(-(lo + hi) // 2)
    if centered(1) < 0:
        centered = -centered
    assert centered(1) == 1, "oracle normalisation expects Delta(1) = +-1"
    return centered


def fox_alexander(d) -> LaurentPoly:
    """Alexander polynomial of a knot diagram by Fox calculus, normalized
    as ``alexander`` normalizes it.

    The arcs of the diagram generate its Wirtinger presentation.  A
    crossing of sign e, where the under-strand enters on arc i and leaves
    on arc j below the over-arc k, gives the relator x_k^e x_i x_k^-e x_j^-1,
    whose Fox derivatives with every generator sent to t are t^e at i, -1
    at j and 1 - t^e at k.  Dropping the last row and column of that n x n
    matrix leaves a minor whose determinant is the Alexander polynomial up
    to a unit +-t^a.  This reads no braid, Burau or Seifert matrix; it
    shares only Laurent arithmetic with the package.
    """
    n = d.n
    walk = list(d.components[0]) if n else []
    ends_under = {c.edges[0] for c in d.crossings}
    # Start the walk just after an undercrossing, so no arc wraps around.
    first = next((i for i, e in enumerate(walk) if e in ends_under), -1)
    walk = walk[first + 1:] + walk[: first + 1]
    arc_of, arc = {}, 0
    for e in walk:
        arc_of[e] = arc
        arc += e in ends_under
    assert arc == n, "a knot diagram has one arc per crossing"
    rows = [[LaurentPoly.zero()] * n for _ in range(n)]
    for row, c in zip(rows, d.crossings):
        i, j, k = arc_of[c.edges[0]], arc_of[c.edges[2]], arc_of[c.edges[1]]
        te = LaurentPoly.var(c.sign)
        row[i] = row[i] + te
        row[j] = row[j] - 1
        row[k] = row[k] + 1 - te
    # Fraction-free (Bareiss) elimination on the leading (n-1) minor, with
    # row swaps; a swap only changes the unit.
    m = [row[: n - 1] for row in rows[: n - 1]]
    det, denom = LaurentPoly.one(), LaurentPoly.one()
    for p in range(n - 1):
        swap = next((r for r in range(p, n - 1) if not m[r][p].is_zero()), None)
        assert swap is not None, "Fox minor is singular on a knot"
        m[p], m[swap] = m[swap], m[p]
        for r in range(p + 1, n - 1):
            for q in range(p + 1, n - 1):
                m[r][q] = (m[r][q] * m[p][p] - m[r][p] * m[p][q]).exact_div(denom)
        det = denom = m[p][p]
    lo, hi = det.min_exp(), det.max_exp()
    assert (lo + hi) % 2 == 0, "odd exponent span in Fox oracle"
    centered = det.shift(-(lo + hi) // 2)
    return centered if centered(1) > 0 else -centered


# ---------------------------------------------------------------------------
# Reference Laurent arithmetic (a sparse sorted-terms form)
# ---------------------------------------------------------------------------


class ReferenceLaurent:
    """Laurent polynomial as the sorted tuple of its nonzero
    ``(exponent, coefficient)`` terms, each operation summing terms in a
    dict.  This was the package's own form before it became dense; the
    property tests check ``LaurentPoly`` against it."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            acc[exp] = acc.get(exp, 0) + coeff
        self.terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    def __eq__(self, other):
        return isinstance(other, ReferenceLaurent) and self.terms == other.terms

    def __add__(self, other):
        return ReferenceLaurent(list(self.terms) + list(other.terms))

    def __neg__(self):
        return ReferenceLaurent([(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return ReferenceLaurent(acc)

    def shift(self, k):
        return ReferenceLaurent([(e + k, c) for e, c in self.terms])

    def reverse(self):
        return ReferenceLaurent([(-e, c) for e, c in self.terms])

    def __call__(self, x):
        x = Fraction(x)
        return sum((c * x**e for e, c in self.terms), Fraction(0))

    def exact_div(self, other):
        """Long division from the top term, in integers; ``ValueError``
        unless the quotient is an integer polynomial with no remainder."""
        if not other.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return ReferenceLaurent()
        lo, dlo = self.terms[0][0], other.terms[0][0]
        num = [0] * (self.terms[-1][0] - lo + 1)
        for e, c in self.terms:
            num[e - lo] = c
        den = [(e - dlo, c) for e, c in other.terms]
        top, lead = den[-1]
        quot: dict[int, int] = {}
        for i in range(len(num) - 1, top - 1, -1):
            if not num[i]:
                continue
            q, r = divmod(num[i], lead)
            if r:
                raise ValueError("quotient is not an integer polynomial")
            for e, c in den:
                num[i - top + e] -= q * c
            quot[i - top + lo - dlo] = q
        if any(num):
            raise ValueError("polynomial division left a remainder")
        return ReferenceLaurent(quot)

    def render(self, var="t"):
        if not self.terms:
            return "0"
        parts = []
        for i, (e, c) in enumerate(self.terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = var if e == 1 else f"{var}^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


@pytest.fixture
def rng():
    return random.Random(20260814)

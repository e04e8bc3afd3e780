"""Planar diagrams of oriented knots and links.

A diagram is a rotation system: each crossing carries four edge ends
("darts") in counterclockwise order, and every edge joins two darts.  The
slot numbering fixes all orientation conventions used by the package:

* slot 0 is the incoming under-strand, slot 2 the outgoing under-strand;
* at a ``sign == +1`` crossing the over-strand enters at slot 1 and leaves
  at slot 3; at ``sign == -1`` it enters at slot 3 and leaves at slot 1.

A dart is the integer ``4 * crossing + slot``: its crossing is ``d >> 2``,
the next slot counterclockwise ``d + 1`` (``d - 3`` at slot 3), the slot a
strand through ``d`` uses on the far side ``d ^ 2``, and over slots are
odd.  Darts sort as ``(crossing, slot)`` pairs would.  The mutable
``Editor`` keeps one face index across rewrites, which also lists the
faces of one to three darts, where every reducing and triangle site lies.

Signs follow the braid-generator convention used throughout: the closure of
the one-letter braid ``[+1]`` is a single ``+1`` crossing (a kink whose
bracket is ``-A^3``).  The mirror image of a diagram negates every sign.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, InternalError

# A dart is an edge end: 4 * crossing + slot.
Dart = int


def in_slots(sign: int) -> tuple[int, int]:
    """Slots where strands enter a crossing of the given sign."""
    return (0, 1) if sign > 0 else (0, 3)


def out_slots(sign: int) -> tuple[int, int]:
    """Slots where strands leave a crossing of the given sign."""
    return (2, 3) if sign > 0 else (2, 1)


@dataclass(frozen=True)
class Crossing:
    """One crossing: edge labels at slots 0..3 plus a sign."""

    edges: tuple[int, int, int, int]
    sign: int


@dataclass(frozen=True)
class PDDiagram:
    """Immutable planar diagram.

    ``free_loops`` counts closed strands that meet no crossing (a 0-crossing
    unknot component is one free loop).
    """

    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)

    @cached_property
    def edge_ends(self) -> dict[int, tuple[Dart, Dart]]:
        """Edge label -> (tail dart, head dart)."""
        tails: dict[int, Dart] = {}
        heads: dict[int, Dart] = {}
        for ci, c in enumerate(self.crossings):
            for s in out_slots(c.sign):
                e = c.edges[s]
                if e in tails:
                    raise InputError(f"edge {e} leaves two crossings")
                tails[e] = 4 * ci + s
            for s in in_slots(c.sign):
                e = c.edges[s]
                if e in heads:
                    raise InputError(f"edge {e} enters two crossings")
                heads[e] = 4 * ci + s
        if set(tails) != set(heads):
            raise InputError("edge set is not orientation-consistent")
        return {e: (tails[e], heads[e]) for e in tails}

    @cached_property
    def dart_partner(self) -> dict[Dart, Dart]:
        """The involution pairing the two ends of every edge."""
        out: dict[Dart, Dart] = {}
        for tail, head in self.edge_ends.values():
            out[tail] = head
            out[head] = tail
        return out

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Closed strands that pass through crossings, as edge sequences,
        each from the lowest edge label it passes."""
        ends = self.edge_ends
        seen: set[int] = set()
        cycles: list[tuple[int, ...]] = []
        for start in sorted(ends):
            if start in seen:
                continue
            cyc: list[int] = []
            e = start
            while e not in seen:
                seen.add(e)
                cyc.append(e)
                head = ends[e][1]
                e = self.crossings[head >> 2].edges[(head ^ 2) & 3]
            cycles.append(tuple(cyc))
        return tuple(cycles)

    @property
    def component_count(self) -> int:
        return len(self.components) + self.free_loops

    @property
    def is_knot(self) -> bool:
        return self.component_count == 1

    @cached_property
    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Face boundaries as dart orbits of ``rotate(partner(dart))``."""
        return Editor.from_diagram(self).faces()

    def __repr__(self) -> str:
        return f"PDDiagram({self.n} crossings, {self.component_count} components)"


def interlacement(sequence: list[int]) -> tuple[list[int], list[list[int]]]:
    """Interlacement graph of a closed strand through crossings ``0..n-1``.

    ``sequence`` is the crossing met at each of the 2n passes along the
    strand, so each crossing appears twice.  Row c is the bit mask of the
    crossings passed strictly between c's two passes.  Pieces are the
    connected components, each sorted, in the order the strand first meets
    them.  No crossing outside a piece interlaces it, so each piece of a
    knot diagram is one summand that splits no further.
    """
    n = len(sequence) // 2
    rows = [0] * n
    opened: dict[int, int] = {}  # crossing -> passed mask after its first pass
    passed = 0
    for c in sequence:
        if c in opened:
            rows[c] = passed ^ opened[c]
        passed ^= 1 << c
        opened.setdefault(c, passed)
    pieces: list[list[int]] = []
    placed = 0
    for c in sequence:
        if placed >> c & 1:
            continue
        piece = frontier = 1 << c
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier ^= 1 << v
            new = rows[v] & ~piece
            piece |= new
            frontier |= new
        placed |= piece
        pieces.append([v for v in range(n) if piece >> v & 1])
    return rows, pieces


def validate_pd(d: PDDiagram) -> list[str]:
    """Return a list of structural violations (empty means valid).

    Checks edge incidences, orientation consistency, sign values, and that
    each connected piece of the underlying 4-valent graph satisfies the
    sphere Euler relation ``V - E + F == 2`` for its rotation system.
    """
    problems: list[str] = []
    if d.free_loops < 0:
        problems.append(f"negative free_loops {d.free_loops}")
    counts: dict[int, int] = {}
    for ci, c in enumerate(d.crossings):
        if c.sign not in (-1, 1):
            problems.append(f"crossing {ci} has sign {c.sign}")
        if len(c.edges) != 4:
            problems.append(f"crossing {ci} has {len(c.edges)} edge slots")
            continue
        for e in c.edges:
            counts[e] = counts.get(e, 0) + 1
    for e, k in sorted(counts.items()):
        if k != 2:
            problems.append(f"edge {e} has {k} endpoints (expected 2)")
    if problems:
        return problems

    try:
        partner = d.dart_partner
    except InputError as exc:
        return [str(exc)]

    # Connected pieces of the crossing graph.
    comp_of: dict[int, int] = {}
    for ci in range(d.n):
        if ci in comp_of:
            continue
        label = ci
        stack = [ci]
        while stack:
            cur = stack.pop()
            if cur in comp_of:
                continue
            comp_of[cur] = label
            for s in range(4):
                nb = partner[4 * cur + s] >> 2
                if nb not in comp_of:
                    stack.append(nb)
    # A face orbit steps along edges and around crossings: one piece each.
    face_count: dict[int, int] = {}
    for face in d.faces:
        lab = comp_of[face[0] >> 2]
        face_count[lab] = face_count.get(lab, 0) + 1
    sizes: dict[int, int] = {}
    for ci, lab in comp_of.items():
        sizes[lab] = sizes.get(lab, 0) + 1
    for lab, v in sorted(sizes.items()):
        euler = v - 2 * v + face_count.get(lab, 0)
        if euler != 2:
            problems.append(
                f"connected piece at crossing {lab}: V-E+F = {euler}, not 2"
            )
    return problems


def pd_to_text(d: PDDiagram) -> str:
    """Render one crossing per line as ``X[a,b,c,d] sign=+1``.

    Free loops render as bare ``O`` lines.
    """
    lines = [
        "X[{},{},{},{}] sign={:+d}".format(*c.edges, c.sign)
        for c in d.crossings
    ]
    lines.extend("O" for _ in range(d.free_loops))
    return "\n".join(lines)


def pd_from_text(text: str) -> PDDiagram:
    """Parse the output of :func:`pd_to_text` (whitespace-tolerant)."""
    crossings: list[Crossing] = []
    loops = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "O":
            loops += 1
            continue
        m = re.fullmatch(
            r"X\[(\d+),\s*(\d+),\s*(\d+),\s*(\d+)\]\s*sign=([+-]1)", line
        )
        if m is None:
            raise InputError(f"bad PD line {line!r}")
        edges = tuple(int(m.group(i)) for i in range(1, 5))
        crossings.append(Crossing(edges, int(m.group(5))))
    d = PDDiagram(tuple(crossings), loops)
    problems = validate_pd(d)
    if problems:
        raise InputError("invalid PD data: " + "; ".join(problems))
    return d


def parse_int_list(text: str, what: str, prefix: str = "") -> tuple[int, ...]:
    """Read ``[a, b, ...]``, after ``prefix`` if the text starts with it.

    This is the one grammar of every integer list the package reads (DT
    codes, braid words, flips): integers separated by commas, whitespace
    or both, with empty entries skipped, so ``[1,,2,]`` reads as (1, 2).
    """
    s = text.strip()
    if prefix and s.startswith(prefix):
        s = s[len(prefix):].strip()
    if s.startswith("[") and s.endswith("]"):
        try:
            return tuple(int(tok) for tok in s[1:-1].replace(",", " ").split())
        except ValueError:
            pass
    raise InputError(f"{what} must be a bracketed list of integers, got {text!r}")


def negate_at(values: tuple[int, ...], positions) -> tuple[int, ...]:
    """Negate the entries at ``positions``: crossing changes on a DT code or
    a braid word.  A position outside ``values`` is refused."""
    pos = {int(p) for p in positions}
    bad = sorted(p for p in pos if not 0 <= p < len(values))
    if bad:
        raise InputError(f"flip positions {bad} out of range for {len(values)} entries")
    return tuple(-v if i in pos else v for i, v in enumerate(values))


class Editor:
    """Mutable diagram that the move loops rewrite in place.

    Crossings have stable integer ids: ``from_diagram`` numbers the copied
    crossings 0..n-1, and ``new_crossing`` hands out ids in increasing
    order after every id given so far, never reusing one.  The edge
    structure is a partner map on integer darts.  ``to_diagram`` compacts
    ids in increasing order and assigns dense edge labels in
    strand-traversal order, so equal editors yield equal diagrams.  Because
    compaction keeps the order of ids, anything ordered by dart (faces, and
    the sites found on them) comes out in the same order on an editor as on
    the diagram it relabels to.

    A *pass* is one strand's trip through a crossing, from its entry dart
    to its exit dart; each crossing has an under pass and an over pass.
    Every crossing rewrite is built from two primitives: ``smooth_out``
    splices passes out of their strands, and ``thread`` routes an edge
    through new passes.  ``rewire`` overwrites partner entries at once and
    returns what undoes it.

    Faces are kept across rewrites in one index, each under its least
    dart, its *key*, and starting there; the keys of the faces of one to
    three darts are kept by size too.  ``connect``, ``rewire`` and
    ``smooth_out`` record the darts whose partners they change, and a copy
    records every dart; every face that changed passes one of them.  Each
    read (``faces``, ``faces_of_size``, ``retrace_faces``) first drops the
    faces through recorded darts and traces again the faces through them
    and through the dropped faces' darts.  ``face_of`` reads the index as
    the last read left it.
    """

    def __init__(self) -> None:
        self.signs: dict[int, int] = {}
        self.adj: dict[Dart, Dart] = {}
        self.free_loops = 0
        self._next = 0
        # Tail ranks (see tail_rank), None after a rewrite until read.
        self._rank: dict[Dart, int] | None = None
        # The face index: key -> face, dart -> key, size -> keys of the faces
        # of one to three darts, and the darts changed since the last read.
        self._faces: dict[Dart, tuple[Dart, ...]] = {}
        self._key_of: dict[Dart, Dart] = {}
        self._small: dict[int, set[Dart]] = {1: set(), 2: set(), 3: set()}
        self._touched: set[Dart] = set()

    @classmethod
    def from_diagram(cls, d: PDDiagram) -> "Editor":
        """Copy ``d`` with crossing ids 0..n-1; until its first rewrite the
        editor's ``tails`` follow ``d``'s edge labels."""
        ed = cls()
        ed.free_loops = d.free_loops
        ed._next = d.n
        for ci, c in enumerate(d.crossings):
            ed.signs[ci] = c.sign
        ed.adj = dict(d.dart_partner)
        ed._touched = set(ed.adj)
        ends = d.edge_ends
        ed._rank = {ends[e][0]: k for k, e in enumerate(sorted(ends))}
        return ed

    def new_crossing(self, sign: int) -> int:
        cid = self._next
        self._next += 1
        self.signs[cid] = sign
        self._rank = None
        return cid

    def _touch(self, darts: Iterable[Dart]) -> None:
        self._touched.update(darts)
        self._rank = None

    def connect(self, a: Dart, b: Dart) -> None:
        if a in self.adj or b in self.adj:
            raise InternalError(f"dart already wired: {a} or {b}")
        self.adj[a] = b
        self.adj[b] = a
        self._touch((a, b))

    def disconnect(self, a: Dart) -> Dart:
        # Records nothing: faces are read only with every dart wired, so
        # connect records each dart this frees when it is wired again.
        b = self.adj.pop(a)
        if b != a:
            del self.adj[b]
        return b

    def rewire(self, pairs: dict[Dart, Dart]) -> dict[Dart, Dart]:
        """Overwrite the partners of wired darts at once.

        ``pairs`` must leave the partner map an involution.  Returns the
        entries it replaced; rewiring with them undoes the change.
        """
        old = {a: self.adj[a] for a in pairs}
        self.adj.update(pairs)
        self._touch(pairs)
        return old

    def is_out_dart(self, d: Dart) -> bool:
        s = d & 3
        return s == 2 if not s & 1 else (s == 3) == (self.signs[d >> 2] > 0)

    def retrace_faces(self) -> tuple[list[Dart], list[tuple[Dart, ...]]]:
        """Bring the face index up to date with the partner map.

        Returns the keys of the faces dropped since the last read of the
        index of any kind (``faces``, ``faces_of_size`` or this) and the
        faces traced in their place: every face, on the first read.  No
        surviving face passes a touched dart, so the touched darts and the
        darts of the dropped faces are exactly the darts of the new faces;
        tracing them in increasing order starts each face at its key.  A
        caller that follows the changes, as Vogel braiding does, makes no
        other read between two calls.
        """
        touched = self._touched
        if not touched:
            return [], []
        adj, faces, key_of, small = self.adj, self._faces, self._key_of, self._small
        dropped: list[Dart] = []
        freed = set(touched)
        for d in touched:
            key = key_of.get(d)
            if key is None:
                continue  # new, or on a face dropped already
            face = faces.pop(key)
            for x in face:
                del key_of[x]
            if len(face) <= 3:
                small[len(face)].discard(key)
            freed.update(face)
            dropped.append(key)
        touched.clear()
        traced = []
        for start in sorted(freed):
            if start in key_of or start not in adj:
                continue
            orbit = [start]
            d = adj[start]
            d = d + 1 if d & 3 != 3 else d - 3
            while d != start:
                orbit.append(d)
                d = adj[d]
                d = d + 1 if d & 3 != 3 else d - 3
            face = tuple(orbit)
            faces[start] = face
            for x in face:
                key_of[x] = start
            if len(face) <= 3:
                small[len(face)].add(start)
            traced.append(face)
        return dropped, traced

    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Face boundaries, each from its least dart, in that dart's order."""
        self.retrace_faces()
        return tuple(self._faces[key] for key in sorted(self._faces))

    def faces_of_size(self, k: int) -> list[tuple[Dart, ...]]:
        """The faces of ``k`` darts, for k = 1, 2 or 3, in face order."""
        self.retrace_faces()
        return [self._faces[key] for key in sorted(self._small[k])]

    def face_of(self, dart: Dart) -> tuple[Dart, ...]:
        """The face through ``dart`` as of the last read of the index."""
        return self._faces[self._key_of[dart]]

    def tail_rank(self) -> dict[Dart, int]:
        """Each edge tail's place in label order, the tails in that order:
        the order in which ``to_diagram`` labels edges, or the copied
        diagram's until the first rewrite.

        Two readers depend on this order: the order of several kinks in
        ``find_reducing_moves``, and the end of the chain of Seifert circles
        that Vogel's braid reader starts from."""
        if self._rank is None:
            self._rank = self._walk()
        return self._rank

    def tails(self) -> list[Dart]:
        """Edge tails in label order (see ``tail_rank``)."""
        return list(self.tail_rank())

    def _walk(self) -> dict[Dart, int]:
        # Each strand from the lowest unranked out slot of the lowest id,
        # until all 2n tails are ranked.
        adj, signs = self.adj, self.signs
        rank: dict[Dart, int] = {}
        total = 2 * len(signs)
        for cid in sorted(signs):
            for s in out_slots(signs[cid]):
                d = 4 * cid + s
                while d not in rank:
                    rank[d] = len(rank)
                    d = adj[d] ^ 2
                if len(rank) == total:
                    return rank
        return rank

    def passes(self, c: int) -> tuple[tuple[Dart, Dart], ...]:
        """The under pass and the over pass of crossing ``c``."""
        d = 4 * c
        over = d + in_slots(self.signs[c])[1]
        return (d, d + 2), (over, over ^ 2)

    def thread(self, tail: Dart, passes: Iterable[tuple[Dart, Dart]]) -> None:
        """Route the edge leaving ``tail`` through ``passes`` in order, then
        on to its old head.  The passes' darts must be unwired."""
        head = self.disconnect(tail)
        for entry, exit_ in passes:
            self.connect(tail, entry)
            tail = exit_
        self.connect(tail, head)

    def smooth_out(self, removed: Iterable[int]) -> None:
        """Delete crossings, splicing each of their passes out of its strand.

        A pass whose ends are wired to each other closed a strand lying
        wholly inside the removed set, and becomes a free loop.  This is
        the common primitive behind the reducing Reidemeister moves.  The
        crossings left must still draw in the plane, which is not checked.
        Closed curves cross an even number of times, so an odd count left
        between two components, or on one strand a crossing interlacing an
        odd number of others (Gauss), leaves a rotation system that
        ``validate_pd`` rejects.  Kinks, reducible bigons and the whole
        interlacement pieces of a knot that ``deconnect_sum`` keeps qualify.
        Strand pickup removes a run's crossings, which need not qualify, and
        threads the run back along a route through the faces before any
        face is read.
        """
        self._rank = None
        adj = self.adj
        for c in set(removed):
            for a, b in self.passes(c):
                p = adj.pop(a)
                q = adj.pop(b)
                if p == b:
                    self.free_loops += 1
                else:
                    adj[p] = q
                    adj[q] = p
                self._touch((a, b, p, q))
            del self.signs[c]

    def to_diagram(self) -> PDDiagram:
        label: dict[Dart, int] = {}
        for k, tail in enumerate(self._walk(), 1):
            label[tail] = label[self.adj[tail]] = k
        crossings = tuple(
            Crossing(tuple(label[4 * cid + s] for s in range(4)), self.signs[cid])
            for cid in sorted(self.signs)
        )
        return PDDiagram(crossings, self.free_loops)

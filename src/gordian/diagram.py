"""Planar diagrams of oriented knots and links.

A diagram is a rotation system: each crossing carries four edge ends
("darts") in counterclockwise order, and every edge joins two darts.  The
slot numbering fixes all orientation conventions used by the package:

* slot 0 is the incoming under-strand, slot 2 the outgoing under-strand;
* at a ``sign == +1`` crossing the over-strand enters at slot 1 and leaves
  at slot 3; at ``sign == -1`` it enters at slot 3 and leaves at slot 1.

Signs follow the braid-generator convention used throughout: the closure of
the one-letter braid ``[+1]`` is a single ``+1`` crossing (a kink whose
bracket is ``-A^3``).  The mirror image of a diagram negates every sign.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InputError, InternalError

# A dart is an edge end: (crossing index, slot).
Dart = tuple[int, int]


def in_slots(sign: int) -> tuple[int, int]:
    """Slots where strands enter a crossing of the given sign."""
    return (0, 1) if sign > 0 else (0, 3)


def out_slots(sign: int) -> tuple[int, int]:
    """Slots where strands leave a crossing of the given sign."""
    return (2, 3) if sign > 0 else (2, 1)


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


def seifert_exit(sign: int, slot: int) -> int:
    """Continue through the orientation-preserving smoothing of a crossing."""
    if sign > 0:
        pairing = {0: 3, 1: 2}
    else:
        pairing = {0: 1, 3: 2}
    if slot not in pairing:
        raise InternalError(f"slot {slot} is not an entry slot at sign {sign:+d}")
    return pairing[slot]


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
                tails[e] = (ci, s)
            for s in in_slots(c.sign):
                e = c.edges[s]
                if e in heads:
                    raise InputError(f"edge {e} enters two crossings")
                heads[e] = (ci, s)
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
        """Closed strands that pass through crossings, as edge sequences."""
        ends = self.edge_ends
        seen: set[int] = set()
        comps: list[tuple[int, ...]] = []
        for start in sorted(ends):
            if start in seen:
                continue
            walk: list[int] = []
            e = start
            while e not in seen:
                seen.add(e)
                walk.append(e)
                ci, s = ends[e][1]
                exit_slot = strand_exit(self.crossings[ci].sign, s)
                e = self.crossings[ci].edges[exit_slot]
            comps.append(tuple(walk))
        return tuple(comps)

    @property
    def component_count(self) -> int:
        return len(self.components) + self.free_loops

    @property
    def is_knot(self) -> bool:
        return self.component_count == 1

    @cached_property
    def faces(self) -> tuple[tuple[Dart, ...], ...]:
        """Face boundaries as dart orbits of ``rotate(partner(dart))``."""
        partner = self.dart_partner
        darts = [(ci, s) for ci in range(self.n) for s in range(4)]
        seen: set[Dart] = set()
        out: list[tuple[Dart, ...]] = []
        for d0 in darts:
            if d0 in seen:
                continue
            orbit: list[Dart] = []
            d = d0
            while d not in seen:
                seen.add(d)
                orbit.append(d)
                ci, s = partner[d]
                d = (ci, (s + 1) % 4)
            out.append(tuple(orbit))
        return tuple(out)

    def face_edges(self, face: tuple[Dart, ...]) -> tuple[int, ...]:
        """Edges traversed by a face boundary, one per dart of the orbit."""
        return tuple(self.crossings[ci].edges[s] for ci, s in face)

    def seifert_circles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the orientation-preserving smoothing, as edge cycles."""
        seen: set[int] = set()
        circles: list[tuple[int, ...]] = []
        for start in sorted(self.edge_ends):
            if start in seen:
                continue
            cyc: list[int] = []
            e = start
            while e not in seen:
                seen.add(e)
                cyc.append(e)
                ci, s = self.edge_ends[e][1]
                exit_slot = seifert_exit(self.crossings[ci].sign, s)
                e = self.crossings[ci].edges[exit_slot]
            circles.append(tuple(cyc))
        return tuple(circles)

    def __repr__(self) -> str:
        return f"PDDiagram({self.n} crossings, {self.component_count} components)"


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
                nb = partner[(cur, s)][0]
                if nb not in comp_of:
                    stack.append(nb)
    face_count: dict[int, int] = {}
    for face in d.faces:
        labels = {comp_of[ci] for ci, _ in face}
        if len(labels) != 1:
            problems.append("face spans multiple connected pieces")
            continue
        lab = labels.pop()
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


class Editor:
    """Mutable scratch representation used to build and rewrite diagrams.

    Crossings have stable integer ids; the edge structure is a partner map
    on darts.  ``to_diagram`` compacts ids and assigns dense edge labels in
    strand-traversal order, so equal editors yield equal diagrams.
    """

    def __init__(self) -> None:
        self.signs: dict[int, int] = {}
        self.adj: dict[Dart, Dart] = {}
        self.free_loops = 0
        self._next = 0

    @classmethod
    def from_diagram(cls, d: PDDiagram) -> "Editor":
        ed = cls()
        ed.free_loops = d.free_loops
        ed._next = d.n
        for ci, c in enumerate(d.crossings):
            ed.signs[ci] = c.sign
        for tail, head in d.edge_ends.values():
            ed.adj[tail] = head
            ed.adj[head] = tail
        return ed

    def new_crossing(self, sign: int) -> int:
        cid = self._next
        self._next += 1
        self.signs[cid] = sign
        return cid

    def connect(self, a: Dart, b: Dart) -> None:
        if a in self.adj or b in self.adj:
            raise InternalError(f"dart already wired: {a} or {b}")
        self.adj[a] = b
        self.adj[b] = a

    def disconnect(self, a: Dart) -> Dart:
        b = self.adj.pop(a)
        if b != a:
            del self.adj[b]
        return b

    def is_out_dart(self, d: Dart) -> bool:
        return d[1] in out_slots(self.signs[d[0]])

    def smooth_out(self, removed: Iterable[int]) -> None:
        """Delete crossings, splicing every strand straight through them.

        Strand pieces that close up entirely inside the removed set become
        free loops.  This is the common primitive behind the reducing
        Reidemeister moves.
        """
        rem = set(removed)
        if not rem:
            return
        rem_darts = {(c, s) for c in rem for s in range(4)}

        def through(d: Dart) -> Dart:
            # Continue the strand across crossing d[0], with the walk's
            # direction inferred from whether d is an entry or exit dart.
            c, s = d
            sign = self.signs[c]
            if s in in_slots(sign):
                return (c, strand_exit(sign, s))
            return (c, strand_entry(sign, s))

        # Reconnect strands that leave the removed region.
        boundary = [
            d for d in self.adj if d not in rem_darts and self.adj[d] in rem_darts
        ]
        new_pairs: list[tuple[Dart, Dart]] = []
        for u in boundary:
            if not self.is_out_dart(u):
                continue  # walk each strand once, along its orientation
            v = self.adj[u]
            while v in rem_darts:
                v = self.adj[through(v)]
            new_pairs.append((u, v))

        # Count strands trapped entirely inside the removed region.  A walk
        # is trapped only if it returns to its own starting dart; running
        # into territory seen from an earlier start proves nothing, since
        # that walk may have begun mid-strand.
        visited: set[Dart] = set()
        for d0 in sorted(rem_darts):
            if d0 in visited or self.adj[d0] not in rem_darts:
                continue
            if not self.is_out_dart(d0):
                continue
            trapped = True
            d = d0
            while True:
                visited.add(d)
                v = self.adj[d]
                visited.add(v)
                if v not in rem_darts:
                    trapped = False
                    break
                d = through(v)
                if d == d0:
                    break
            if trapped:
                self.free_loops += 1

        for d in rem_darts:
            partner = self.adj.pop(d, None)
            if partner is not None and partner not in rem_darts:
                self.adj.pop(partner, None)
        for c in rem:
            del self.signs[c]
        for u, v in new_pairs:
            self.adj[u] = v
            self.adj[v] = u

    def to_diagram(self) -> PDDiagram:
        order = sorted(self.signs)
        index = {cid: i for i, cid in enumerate(order)}
        label: dict[Dart, int] = {}
        next_label = 1
        for cid in order:
            for s in out_slots(self.signs[cid]):
                start = (cid, s)
                if start in label:
                    continue
                d = start
                while d not in label:
                    label[d] = next_label
                    head = self.adj[d]
                    label[head] = next_label
                    next_label += 1
                    c2, s2 = head
                    d = (c2, strand_exit(self.signs[c2], s2))
        crossings = tuple(
            Crossing(
                tuple(label[(cid, s)] for s in range(4)),
                self.signs[cid],
            )
            for cid in order
        )
        return PDDiagram(crossings, self.free_loops)

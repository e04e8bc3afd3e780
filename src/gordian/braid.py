"""Braid words, their closures, and braiding of arbitrary diagrams.

Letters follow the usual convention: letter ``+i`` crosses strand ``i`` over
strand ``i+1`` and contributes a ``+1`` crossing to the closure, so the
writhe of the closure equals the exponent sum of the word.

``vogel_braid`` converts any knot diagram into a braid word whose closure is
the same knot, by repeatedly pushing one arc over another inside a face
whose boundary carries two co-oriented arcs of different Seifert circles.
Once every face is coherent the Seifert circles are nested and the braid can
be read off directly.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass

from .diagram import Dart, Editor, PDDiagram, in_slots, negate_at, out_slots
from .diagram import parse_int_list
from .errors import InputError, InternalError, ResourceError
from .moves import Move, apply_move


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands."""

    letters: tuple[int, ...]
    strands: int

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise InputError(f"braid needs at least one strand, got {self.strands}")
        for x in self.letters:
            if x == 0 or abs(x) >= self.strands:
                raise InputError(
                    f"letter {x} is not a generator on {self.strands} strands"
                )

    @classmethod
    def from_letters(cls, letters, strands: int | None = None) -> "BraidWord":
        letters = tuple(int(x) for x in letters)
        if strands is None:
            strands = max((abs(x) for x in letters), default=0) + 1
        return cls(letters, strands)

    def __len__(self) -> int:
        return len(self.letters)


def writhe(word: BraidWord) -> int:
    """Exponent sum of the word, which is the writhe of its closure."""
    return sum(1 if x > 0 else -1 for x in word.letters)


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Image of each strand (0-based) under the word, read left to right."""
    perm = list(range(word.strands))
    for x in word.letters:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def closure_component_count(word: BraidWord) -> int:
    """Number of link components of the closure (cycles of the permutation)."""
    perm = permutation(word)
    seen = [False] * word.strands
    count = 0
    for i in range(word.strands):
        if seen[i]:
            continue
        count += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return count


def flip_letters(word: BraidWord, positions) -> BraidWord:
    """Invert the letters at the given positions (crossing changes)."""
    return BraidWord(negate_at(word.letters, positions), word.strands)


def braid_closure(word: BraidWord) -> PDDiagram:
    """The standard closure of the word as a planar diagram.

    Strand heights that the word never touches close into free loops.
    """
    ed = Editor()
    pending: dict[int, Dart] = {}
    start: dict[int, Dart] = {}
    for x in word.letters:
        i = abs(x)
        c = ed.new_crossing(1 if x > 0 else -1)
        d = 4 * c
        if x > 0:
            ins = {i: d + 1, i + 1: d}
            outs = {i: d + 2, i + 1: d + 3}
        else:
            ins = {i: d, i + 1: d + 3}
            outs = {i: d + 1, i + 1: d + 2}
        for h in (i, i + 1):
            if h in pending:
                ed.connect(pending[h], ins[h])
            else:
                start[h] = ins[h]
            pending[h] = outs[h]
    for h in sorted(pending):
        ed.connect(pending[h], start[h])
    ed.free_loops += word.strands - len(pending)
    return ed.to_diagram()


def parse_braid(text: str) -> BraidWord:
    """Parse ``BRAID:[1, -4, 2]`` or a bare bracketed list of letters."""
    return BraidWord.from_letters(parse_int_list(text, "braid word", "BRAID:"))


def render_braid(word: BraidWord) -> str:
    return "[" + ", ".join(str(x) for x in word.letters) + "]"


# ---------------------------------------------------------------------------
# Vogel braiding
# ---------------------------------------------------------------------------

def _circle(ed: Editor, dart: Dart) -> list[Dart]:
    """The darts of the Seifert circle through out dart ``dart``."""
    # The Seifert smoothing turns slots 0, 1 to 3, 2 at +1 and 0, 3 to 1, 2 at -1.
    adj, signs = ed.adj, ed.signs
    darts = []
    d = dart
    while True:
        head = adj[d]
        darts += (d, head)
        d = head ^ (3 if signs[head >> 2] > 0 else 1)
        if d == dart:
            return darts


def _first_pair(
    ed: Editor, circle: dict[Dart, int], face: tuple[Dart, ...]
) -> tuple[Dart, Dart] | None:
    """The face's first pair of co-oriented arcs on different circles.

    Until the face yields a pair, all the arcs met on it so far in one
    direction lie on one circle, so each arc is checked against the first
    arc met in its direction only.
    """
    first: list[Dart | None] = [None, None]  # indexed by is_out_dart
    for dart in face:
        out = ed.is_out_dart(dart)
        prior = first[out]
        if prior is None:
            first[out] = dart
        elif circle[prior] != circle[dart]:
            return prior, dart
    return None


def vogel_braid(d: PDDiagram) -> BraidWord:
    """A braid word whose closure is the given knot.

    The number of Seifert circles is preserved, so the result uses exactly
    as many strands as the diagram has circles.  The pushes rewrite one
    editor, and the braid is read off that editor and the circles this
    loop keeps, with no relabelling.

    Each push is made in the face of least key that has a pair of
    co-oriented arcs on different Seifert circles, at that face's first
    such pair.  The editor keeps the faces; this loop keeps each dart's
    circle and each face's first pair.  A push changes only the two circles
    it meets, and all their old darts lie on the circles through its two
    new crossings, so only those are traced again.  Each keeps the label
    most of its old darts had, so only darts whose circle changed are
    relabelled, and only the faces traced again and the faces of relabelled
    darts are checked again.  More than s^2 pushes on s Seifert circles
    raise ``ResourceError``.
    """
    if d.component_count != 1:
        raise InputError("vogel_braid expects a one-component diagram")
    if d.n == 0:
        return BraidWord((), 1)

    ed = Editor.from_diagram(d)
    circle: dict[Dart, int] = {}
    for ci, sign in ed.signs.items():
        for s in out_slots(sign):
            if 4 * ci + s not in circle:
                label = len(circle)  # larger than any label given so far
                circle.update(dict.fromkeys(_circle(ed, 4 * ci + s), label))
    fresh = len(circle)
    # Pushes keep the s Seifert circles.  Measured push counts reach 0.22 to
    # 0.26 s^2 (s = 16 to 137, on scrambled random closures), so a cap of
    # s^2 leaves about 4x headroom; it is a limit, not a theorem.
    circles = len(set(circle.values()))
    pushes = 0
    pair_at: dict[Dart, tuple[Dart, Dart]] = {}  # face key -> first pair
    for face in ed.faces():
        if pair := _first_pair(ed, circle, face):
            pair_at[face[0]] = pair
    while pair_at:
        pushes += 1
        if pushes > circles**2:
            raise ResourceError(f"braiding took over {circles}^2 pushes")
        apply_move(ed, Move("R2+", pair_at[min(pair_at)]))
        dropped, traced = ed.retrace_faces()
        for key in dropped:
            pair_at.pop(key, None)
        check = {face[0]: face for face in traced}
        # Pushes only add crossings, whose ids count up from the copy's
        # 0..n-1, so this push's two crossings have the two greatest ids.
        top = 4 * len(ed.signs)
        kept: set[int] = set()
        for start in filter(ed.is_out_dart, range(top - 8, top)):
            if start in circle:
                continue  # on a circle traced from an earlier start
            darts = _circle(ed, start)
            counts = Counter(circle[x] for x in darts if x in circle)
            label = next((g for g, _ in counts.most_common() if g not in kept), None)
            if label is None:
                label, fresh = fresh, fresh + 1
            kept.add(label)
            for x in darts:
                if circle.get(x) != label:
                    circle[x] = label
                    face = ed.face_of(x)
                    check[face[0]] = face
        for key, face in check.items():
            if pair := _first_pair(ed, circle, face):
                pair_at[key] = pair
            else:
                pair_at.pop(key, None)

    return _read_braid(ed, circle)


def _read_braid(ed: Editor, circle: dict[Dart, int]) -> BraidWord:
    """Read a braid word off a coherent (nested-circle) editor whose darts
    lie on the Seifert circles given by ``circle``."""
    # Each crossing joins two circles; the multigraph must be a path.
    joins: dict[int, tuple[int, int]] = {}
    nbrs: dict[int, set[int]] = {g: set() for g in set(circle.values())}
    for ci, sign in ed.signs.items():
        g1 = circle[4 * ci]
        g2 = circle[4 * ci + in_slots(sign)[1]]
        if g1 == g2:
            raise InternalError("crossing joins a Seifert circle to itself")
        joins[ci] = (g1, g2)
        nbrs[g1].add(g2)
        nbrs[g2].add(g1)
    k = len(nbrs)  # at least 2: a crossing joins two circles
    ends = {g for g, v in nbrs.items() if len(v) == 1}
    if len(ends) != 2 or any(len(v) > 2 for v in nbrs.values()):
        raise InternalError("Seifert circles do not form a chain")

    # Order the circles along the chain, starting from the end that owns
    # the first edge tail in label order (a deterministic choice).
    first = next(circle[tail] for tail in ed.tails() if circle[tail] in ends)
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
    face = next((f for f in ed.faces() if {circle[x] for x in f} == {first}), None)
    if face is None:
        raise InternalError("no face inside the innermost circle")
    cuts: list[Dart] = []  # the tail of each circle's cut arc
    for g in order:
        chosen = next((x for x in face if circle[x] == g), None)
        if chosen is None:
            raise InternalError("cut walk lost the next circle")
        cuts.append(chosen if ed.is_out_dart(chosen) else ed.adj[chosen])
        face = ed.face_of(ed.adj[chosen])

    # Linearise each circle's crossing sequence starting after its cut arc,
    # then merge the chains into a word, lowest strand first on ties, then
    # lowest crossing id (ids keep their order when an editor is relabelled).
    succ: dict[int, list[int]] = {ci: [] for ci in joins}
    indeg = {ci: 0 for ci in joins}
    for tail in cuts:
        seq = [head >> 2 for head in _circle(ed, tail)[1::2]]
        for a, b in zip(seq, seq[1:]):
            succ[a].append(b)
            indeg[b] += 1

    def key(ci: int) -> tuple[int, int]:
        return min(strand[g] for g in joins[ci]), ci

    heads = [key(ci) for ci in joins if indeg[ci] == 0]
    heapq.heapify(heads)
    letters: list[int] = []
    while heads:
        gen, ci = heapq.heappop(heads)
        g1, g2 = joins[ci]
        if abs(strand[g1] - strand[g2]) != 1:
            raise InternalError("crossing joins non-adjacent strands")
        letters.append(gen * ed.signs[ci])
        for b in succ[ci]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heads, key(b))
    if len(letters) != len(joins):
        raise InternalError("braid reading dropped crossings")
    return BraidWord(tuple(letters), k)

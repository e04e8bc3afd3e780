"""Dowker-Thistlethwaite codes and their planar realization.

A DT code lists, for the odd traversal labels 1, 3, ..., 2n-1 in order, the
even label met at the same crossing.  The entry is negative exactly when
the even-labelled strand passes over at that crossing.  Realization embeds
the code's 4-valent shadow in the sphere by parity arithmetic on its
interlacement graph (rejecting unrealizable codes) and resolves the mirror
ambiguity with a fixed writhe rule.  Each connected piece of that graph is
one prime summand of the shadow, embedded uniquely up to reflection, and
the pieces come in the order the strand first meets them from label 1.  A
composite code realizes one fixed choice of summand reflections, and only
summands of 3 or more crossings vote on the chirality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Editor, PDDiagram, interlacement, negate_at, parse_int_list
from .errors import InputError, InternalError, UnrealizableError


@dataclass(frozen=True)
class DTCode:
    """A validated DT code; ``entries`` is empty for the unknot."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        seen = set()
        for e in self.entries:
            if e == 0 or e % 2:
                raise InputError(f"DT entry {e} is not a nonzero even integer")
            seen.add(abs(e))
        if seen != {2 * i for i in range(1, n + 1)}:
            raise InputError(
                "DT entries must cover 2..2n in absolute value exactly once"
            )

    @property
    def n(self) -> int:
        return len(self.entries)


def parse_dt(text: str) -> DTCode:
    """Parse ``DT:[4, 6, 2]`` or a bare bracketed list."""
    return DTCode(parse_int_list(text, "DT code", "DT:"))


def render_dt(code: DTCode) -> str:
    """Render in the ``DT:[e1, e2, ...]`` text format."""
    return "DT:[" + ", ".join(str(e) for e in code.entries) + "]"


def flip_entries(code: DTCode, positions) -> DTCode:
    """Negate the chosen entries: a crossing change at each coded crossing."""
    return DTCode(negate_at(code.entries, positions))


def _embed_shadow(code: DTCode) -> tuple[list[bool], list[list[int]]]:
    """Rotation of each crossing in a planar embedding of the code's shadow,
    and the pieces of its interlacement graph.

    Ports are numbered 0 odd-in, 1 even-in, 2 odd-out, 3 even-out, and bit
    ``True`` means port 1 follows port 0 counterclockwise.  Crossings c and
    d interlace when exactly one pass of d falls between the two passes of
    c.  By Rosenstiehl's characterization of Gauss codes (de Fraysseix and
    Ossona de Mendez 1999) the shadow is planar exactly when every row of
    the interlacement graph has even weight, which the opposite parities
    of a crossing's two labels guarantee; every pair that does not
    interlace shares an even number of interlaced crossings; and the bits
    below exist: interlaced u and v get equal bits exactly when they share
    an odd number.  The lowest crossing of each connected piece gets
    ``True``.
    """
    n = code.n
    sequence = [0] * (2 * n)  # the crossing met at times 1..2n
    for i, e in enumerate(code.entries):
        sequence[2 * i] = sequence[abs(e) - 1] = i
    rows, pieces = interlacement(sequence)
    bits: list[bool | None] = [None] * n
    for piece in pieces:
        bits[piece[0]] = True
        stack = [piece[0]]
        while stack:
            u = stack.pop()
            for v in range(n):
                odd = (rows[u] & rows[v]).bit_count() % 2 == 1
                if rows[u] >> v & 1:
                    want = bits[u] if odd else not bits[u]
                    if bits[v] is None:
                        bits[v] = want
                        stack.append(v)
                    ok = bits[v] == want
                else:
                    ok = not odd
                if not ok:
                    raise UnrealizableError(
                        f"DT code {list(code.entries)} has no planar realization"
                    )
    return bits, pieces


def realize_dt(code: DTCode) -> PDDiagram:
    """Build a diagram traversing the code, chirality fixed by writhe.

    Only the crossings of summands (interlacement pieces) of 3 or more
    crossings vote, or every crossing when no summand is that large, so a
    kink or a 2-crossing twist never picks the mirror image.  Among the two
    reflected realizations the one whose voters have writhe >= 0 is
    returned; a zero tie goes to the lexicographically smaller sign vector
    of the voters.  The mirror image is laid out from the negated code.
    """
    n = code.n
    if n == 0:
        return PDDiagram((), 1)
    bits, pieces = _embed_shadow(code)
    signs = [1 if (e > 0) != bit else -1 for e, bit in zip(code.entries, bits)]
    big = {c for piece in pieces if len(piece) >= 3 for c in piece}
    vote = [s for c, s in enumerate(signs) if c in big or not big]
    entries = code.entries
    if sum(vote) < 0 or (sum(vote) == 0 and [-s for s in vote] < vote):
        entries = tuple(-e for e in entries)
    two_n = 2 * n

    def prev_arc(t: int) -> int:
        return t - 1 if t > 1 else two_n

    ed = Editor()
    ends: dict[tuple[int, bool], int] = {}  # (arc, leaving?) -> dart
    for i, entry in enumerate(entries):
        a, b = 2 * i + 1, abs(entry)
        # Port layout: 0 odd-in, 1 even-in, 2 odd-out, 3 even-out.
        arc_at_port = (prev_arc(a), prev_arc(b), a, b)
        # Slots run counterclockwise from the under-strand's entry port.
        under_in = 1 if entry > 0 else 0  # entry > 0: odd strand is over
        step = 1 if bits[i] else 3
        cid = ed.new_crossing(1 if (entry > 0) != bits[i] else -1)
        for slot in range(4):
            port = (under_in + slot * step) % 4
            ends[arc_at_port[port], port >= 2] = 4 * cid + slot
    for arc in range(1, two_n + 1):
        ed.connect(ends[arc, True], ends[arc, False])
    return ed.to_diagram()


def pd_to_dt(d: PDDiagram) -> DTCode:
    """Extract the lexicographically minimal DT code over all 2n starts.

    A DT code fixes a diagram only up to reflecting each prime summand, so
    a diagram with two or more summands of 3 or more crossings is refused.
    """
    if not d.is_knot:
        raise InputError("pd_to_dt expects a one-component diagram")
    n = d.n
    if n == 0:
        return DTCode(())
    walk = d.components[0]
    two_n = 2 * n
    arrivals = []  # (crossing, under?) per passage, in walk order
    for e in walk:
        head = d.edge_ends[e][1]
        arrivals.append((head >> 2, head & 3 == 0))
    _, pieces = interlacement([c for c, _ in arrivals])
    if sum(len(piece) >= 3 for piece in pieces) >= 2:
        raise InputError(
            "a DT code cannot fix the chirality of each summand of a "
            "composite diagram"
        )
    best: tuple[int, ...] | None = None
    for start in range(two_n):
        times: dict[int, list[tuple[int, bool]]] = {}
        for step in range(two_n):
            c, under = arrivals[(start + step) % two_n]
            times.setdefault(c, []).append((step + 1, under))
        entries = [0] * n
        ok = True
        for c, visits in times.items():
            (t1, u1), (t2, u2) = visits
            if t1 % 2 == t2 % 2:
                ok = False
                break
            odd, even = (t1, t2) if t1 % 2 else (t2, t1)
            even_over = not (u1 if even == t1 else u2)
            entries[(odd - 1) // 2] = -even if even_over else even
        if not ok:
            raise InternalError("traversal does not alternate parity")
        candidate = tuple(entries)
        if best is None or candidate < best:
            best = candidate
    return DTCode(best)

"""Dowker-Thistlethwaite codes and their planar realization.

A DT code lists, for the odd traversal labels 1, 3, ..., 2n-1 in order, the
even label met at the same crossing.  The entry is negative exactly when
the even-labelled strand passes over at that crossing.  Realization embeds
the code's 4-valent shadow in the sphere (rejecting unrealizable codes)
and resolves the mirror ambiguity with a fixed writhe rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import networkx as nx

from .diagram import Editor, PDDiagram
from .errors import InputError, InternalError, UnrealizableError
from .moves import deconnect_sum, mirror


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
    s = text.strip()
    if s.startswith("DT:"):
        s = s[3:].strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise InputError(f"DT code must be a bracketed list, got {text!r}")
    body = s[1:-1].strip()
    if not body:
        return DTCode(())
    entries = []
    for token in re.split(r"[,\s]+", body):
        try:
            entries.append(int(token))
        except ValueError as exc:
            raise InputError(f"bad DT entry {token!r}") from exc
    return DTCode(tuple(entries))


def render_dt(code: DTCode) -> str:
    """Render in the ``DT:[e1, e2, ...]`` text format."""
    return "DT:[" + ", ".join(str(e) for e in code.entries) + "]"


def flip_entries(code: DTCode, positions) -> DTCode:
    """Negate the chosen entries: a crossing change at each coded crossing."""
    idx = {int(p) for p in positions}
    for p in idx:
        if not 0 <= p < code.n:
            raise InputError(f"flip position {p} out of range for n={code.n}")
    return DTCode(tuple(-e if i in idx else e for i, e in enumerate(code.entries)))


def _crossing_at(code: DTCode) -> dict[int, int]:
    """Map traversal time -> crossing index."""
    crossing_at: dict[int, int] = {}
    for i, e in enumerate(code.entries):
        crossing_at[2 * i + 1] = i
        crossing_at[abs(e)] = i
    return crossing_at


def _embed_shadow(code: DTCode) -> dict[int, list[int]]:
    """Planar rotation of the code's shadow: crossing -> ccw port cycle.

    Each crossing becomes a rigid wheel gadget (hub, four rim ports) and
    each arc of the traversal a subdivided edge between ports, so the
    combinatorial embedding of the whole graph fixes the cyclic order of
    the four strand ends at every crossing.  Ports are numbered 0 odd-in,
    1 even-in, 2 odd-out, 3 even-out.
    """
    n = code.n
    two_n = 2 * n
    crossing_at = _crossing_at(code)
    graph = nx.Graph()
    for c in range(n):
        hub = ("h", c)
        for k in range(4):
            graph.add_edge(hub, ("p", c, k))
            graph.add_edge(("p", c, k), ("p", c, (k + 1) % 4))
    for arc in range(1, two_n + 1):
        t_out, t_in = arc, arc % two_n + 1
        c_out, c_in = crossing_at[t_out], crossing_at[t_in]
        port_out = 2 if t_out % 2 else 3
        port_in = 0 if t_in % 2 else 1
        mid = ("m", arc)
        graph.add_edge(("p", c_out, port_out), mid)
        graph.add_edge(mid, ("p", c_in, port_in))
    ok, embedding = nx.check_planarity(graph)
    if not ok:
        raise UnrealizableError(
            f"DT code {list(code.entries)} has no planar realization"
        )
    data = embedding.get_data()
    rotations = {}
    for c in range(n):
        order = [node[2] for node in data[("h", c)]]
        rotations[c] = order[::-1]  # get_data lists neighbors clockwise
    return rotations


def realize_dt(code: DTCode) -> PDDiagram:
    """Build a diagram traversing the code, chirality fixed by writhe.

    Among the two reflected realizations the one with writhe >= 0 is
    returned; a writhe-0 tie goes to the lexicographically smaller
    crossing-sign vector.
    """
    n = code.n
    if n == 0:
        return PDDiagram((), 1)
    rotations = _embed_shadow(code)
    two_n = 2 * n

    def prev_arc(t: int) -> int:
        return t - 1 if t > 1 else two_n

    ed = Editor()
    arc_out: dict[int, tuple[int, int]] = {}
    arc_in: dict[int, tuple[int, int]] = {}
    for i, entry in enumerate(code.entries):
        a, b = 2 * i + 1, abs(entry)
        # Port layout: 0 odd-in, 1 even-in, 2 odd-out, 3 even-out.
        arc_at_port = {0: prev_arc(a), 1: prev_arc(b), 2: a, 3: b}
        if entry > 0:  # odd-labelled strand passes over
            u_in, u_out, o_in, o_out = 1, 3, 0, 2
        else:
            u_in, u_out, o_in, o_out = 0, 2, 1, 3
        cyc = rotations[i]
        j = cyc.index(u_in)
        cyc = cyc[j:] + cyc[:j]
        if cyc[2] != u_out:
            raise InternalError("under-strand ports not opposite in embedding")
        if cyc[1] == o_in:
            sign = 1
            slot_port = {0: u_in, 1: o_in, 2: u_out, 3: o_out}
        else:
            sign = -1
            slot_port = {0: u_in, 1: o_out, 2: u_out, 3: o_in}
        cid = ed.new_crossing(sign)
        for slot, port in slot_port.items():
            arc = arc_at_port[port]
            if port in (2, 3):
                arc_out[arc] = (cid, slot)
            else:
                arc_in[arc] = (cid, slot)
    for arc in range(1, two_n + 1):
        ed.connect(arc_out[arc], arc_in[arc])
    d = ed.to_diagram()
    return _normalize_chirality(d)


def _normalize_chirality(d: PDDiagram) -> PDDiagram:
    signs = tuple(c.sign for c in d.crossings)
    w = sum(signs)
    if w < 0:
        return mirror(d)
    if w == 0:
        flipped = tuple(-s for s in signs)
        if flipped < signs:
            return mirror(d)
    return d


def pd_to_dt(d: PDDiagram) -> DTCode:
    """Extract the lexicographically minimal DT code over all 2n starts.

    A DT code fixes a diagram only up to reflecting each prime summand, so
    a diagram with two or more summands of 3 or more crossings is refused.
    """
    if not d.is_knot:
        raise InputError("pd_to_dt expects a one-component diagram")
    if sum(part.n >= 3 for part in deconnect_sum(d)) >= 2:
        raise InputError(
            "a DT code cannot fix the chirality of each summand of a "
            "composite diagram"
        )
    n = d.n
    if n == 0:
        return DTCode(())
    walk = d.components[0]
    two_n = 2 * n
    arrivals = []  # (crossing, under?) per passage, in walk order
    for e in walk:
        c, slot = d.edge_ends[e][1]
        arrivals.append((c, slot == 0))
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

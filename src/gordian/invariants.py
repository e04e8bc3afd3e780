"""Exact knot invariants: bracket, Jones, Burau, Seifert, and derived data.

Three computation routes are kept deliberately separate.  The Kauffman
bracket route contracts the diagram crossing by crossing, keeping one
polynomial per matching of the open edge ends, and gives Jones.  The
Burau route takes one determinant of the Burau matrix of a braid
presentation and gives the Alexander polynomial and the determinant.  The
Seifert route builds an explicit Seifert matrix from the same braid and
gives the signature.  ``V(-1)`` versus ``Alexander(-1)`` gives a cheap
cross-check between the bracket and Burau routes, which the test suite
exercises.

Chirality bookkeeping: a ``+1`` internal crossing is the closure of the
one-letter braid ``[+1]``, and ``signature(torus_diagram(7)) == +6``.
Under this convention the mirror image negates the signature and reverses
the Jones variable.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import braid as braid_mod
from .braid import BraidWord, braid_closure, vogel_braid
from .diagram import Dart, PDDiagram
from .errors import InputError, InternalError, ResourceError
from .laurent import LaurentPoly
from .moves import simplify_global, simplify_greedy

# Live matchings on the contraction frontier.  Diagrams met in practice
# stay far below this (a few thousand on a 10-strand, 100-letter braid);
# the bound stops a pathological crossing order from exhausting memory.
MAX_FRONTIER_STATES = 2**16

# Slot pairings of the two smoothings, as partner tables.  The A-smoothing
# joins the corners swept by rotating the over-strand counterclockwise onto
# the under-strand; with slot 0 pinned to the incoming under-end this is
# (1,2),(3,0) for both signs, and the B-smoothing is (0,1),(2,3).  A
# crossing added to the bracket's frontier at positions f..f+3 pairs
# f + s with f + partner[s] before its edges are glued.
_SMOOTHINGS = (((3, 2, 1, 0), 1), ((1, 0, 3, 2), -1))  # (partner, A exponent)


# ---------------------------------------------------------------------------
# bracket / Jones route
# ---------------------------------------------------------------------------


def _contraction_order(d: PDDiagram) -> tuple[list[int], int]:
    """Crossings in the order they join the contracted region, and the
    peak frontier width of that order, in edge ends.

    Greedy: adding a crossing grows the frontier by ``4 - gain``, where
    each edge end that meets the region adds 2 to the gain and each end of
    a kink adds 1.  The next crossing is the one of highest gain, ties to
    the lowest index.
    """
    partner = d.dart_partner
    gain = [sum(partner[x] >> 2 == c for x in range(4 * c, 4 * c + 4))
            for c in range(d.n)]
    todo = set(range(d.n))
    order: list[int] = []
    width = peak = 0
    while todo:
        c = max(todo, key=lambda x: (gain[x], -x))
        todo.remove(c)
        order.append(c)
        width += 4 - gain[c]
        peak = max(peak, width)
        for x in range(4 * c, 4 * c + 4):
            nb = partner[x] >> 2
            if nb in todo:
                gain[nb] += 2
    return order, peak


def kauffman_bracket(d: PDDiagram) -> LaurentPoly:
    """The bracket polynomial in the smoothing variable ``A``.

    Normalised so a single free loop has bracket 1 and a positive kink
    multiplies by ``-A**3``.

    Computed by planar contraction: crossings join a growing region one at
    a time, and the state maps each perfect matching of the edge ends on
    the region's frontier (how the smoothed strands inside connect them) to
    a Laurent polynomial in ``A``.  Each added crossing splits every state
    into its two smoothings, each loop that closes multiplies by
    ``delta = -A**2 - A**-2``, and equal matchings merge.  The cost is
    governed by the number of matchings, not by ``2**n``.

    Each crossing is added by one gluing rule.  Its four slots join the
    frontier at positions ``f..f+3``, paired as the smoothing pairs them.
    Then every edge with both ends on the frontier is glued: an old end
    with a slot, or the two slots of a kink.  Gluing two ends that are
    paired with each other closes a loop; otherwise their two partners
    become paired.  The survivors keep their order, old positions first,
    then the unglued slots.
    """
    delta = LaurentPoly({2: -1, -2: -1})
    if d.n == 0:
        if d.free_loops == 0:
            raise InputError("empty diagram has no bracket")
        return delta ** (d.free_loops - 1)
    delta_pow = [((0, 1),), delta.terms, (delta * delta).terms]
    partner = d.dart_partner
    frontier: list[Dart] = []  # dangling edge ends of the region, by position
    states: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    for c in _contraction_order(d)[0]:
        f = len(frontier)
        at = {dart: i for i, dart in enumerate(frontier)}
        # The crossing's slots join the frontier at f..f+3.  Glue each edge
        # that then has both ends on it: an old end with a slot, or a kink.
        glue = []
        for s in range(4):
            p = partner[4 * c + s]
            if p in at:
                glue.append((at[p], f + s))
            elif p >> 2 == c and p & 3 > s:
                glue.append((f + s, f + (p & 3)))
        glued = {i for pair in glue for i in pair}
        live = [i for i in range(f + 4) if i not in glued]
        renumber = [-1] * (f + 4)
        for k, i in enumerate(live):
            renumber[i] = k
        frontier = [frontier[i] if i < f else 4 * c + i - f for i in live]
        opened = [
            (tuple(f + t for t in smooth), a_exp) for smooth, a_exp in _SMOOTHINGS
        ]
        merged: dict[tuple[int, ...], dict[int, int]] = {}
        for m, poly in states.items():
            for ends, a_exp in opened:
                nm = [*m, *ends]
                loops = 0
                for a, b in glue:
                    x, y = nm[a], nm[b]
                    if x == b:
                        loops += 1
                    else:
                        nm[x] = y
                        nm[y] = x
                key = tuple([renumber[nm[i]] for i in live])
                acc = merged.get(key)
                if acc is None:
                    acc = merged[key] = {}
                for de, dc in delta_pow[loops]:
                    shift = a_exp + de
                    for e, coeff in poly.items():
                        e += shift
                        acc[e] = acc.get(e, 0) + coeff * dc
            if len(merged) > MAX_FRONTIER_STATES:
                raise ResourceError(
                    f"bracket contraction over {d.n} crossings needs more than "
                    f"{MAX_FRONTIER_STATES} frontier states"
                )
        states = merged
    if frontier or len(states) != 1:
        raise InternalError("contraction left open edge ends")
    # Every loop, including the last, was counted as a factor delta.
    total = LaurentPoly(states[()])
    if d.free_loops:
        return total * delta ** (d.free_loops - 1)
    return total.exact_div(delta)


def jones(d: PDDiagram | BraidWord) -> LaurentPoly:
    """Jones polynomial of a knot diagram, in ``t``."""
    if isinstance(d, BraidWord):
        d = braid_closure(d)
    if not d.is_knot:
        raise InputError("jones expects a one-component diagram")
    bracket = kauffman_bracket(d)
    w = d.writhe
    f = bracket.shift(-3 * w)
    if w % 2:
        f = -f
    terms = {}
    for e, c in f.terms:
        if e % 4:
            raise InternalError("writhe-normalised bracket is not a power of t")
        terms[-e // 4] = c
    return LaurentPoly(terms)


# ---------------------------------------------------------------------------
# Seifert route
# ---------------------------------------------------------------------------

# Off-diagonal entries (V[a][b], V[b][a]) for a band pair ``a`` preceding a
# pair ``b``.  Only the signature reads them here.  They are pinned (up to
# reversal/basis symmetries that leave every derived invariant unchanged)
# by the calibration suite: torus-knot signatures, unimodularity of
# V - V^T, |det(V + V^T)| against the determinant, and the test oracle's
# det(V - t*V^T) against the Burau Alexander polynomial on random braid
# words.
_CHAIN_PLUS = (0, -1)  # same generator, shared letter positive
_CHAIN_MINUS = (1, 0)  # same generator, shared letter negative
_INTERLEAVE_UP = (0, 1)  # adjacent generators, p < r < q < s
_INTERLEAVE_DOWN = (0, -1)  # adjacent generators, r < p < s < q


def seifert_matrix(word: BraidWord) -> list[list[int]]:
    """Seifert matrix of the closure, from the braided Seifert surface.

    The basis consists of one loop per consecutive pair of occurrences of
    each braid generator.  Every generator must occur (otherwise the
    surface is disconnected and the closure is a split link).
    """
    letters = word.letters
    used = {abs(x) for x in letters}
    missing = set(range(1, word.strands)) - used
    if missing:
        raise InputError(
            f"braid word never uses generator(s) {sorted(missing)}; "
            "its closure is split"
        )
    pairs: list[tuple[int, int, int]] = []  # (generator, position p, position q)
    for gen in sorted(used):
        positions = [i for i, x in enumerate(letters) if abs(x) == gen]
        pairs.extend((gen, p, q) for p, q in zip(positions, positions[1:]))
    sign = [1 if x > 0 else -1 for x in letters]
    m = len(pairs)
    V = [[0] * m for _ in range(m)]
    for a, (gen, p, q) in enumerate(pairs):
        V[a][a] = (sign[p] + sign[q]) // 2
    for a in range(m):
        ga, pa_, qa = pairs[a]
        for b in range(a + 1, m):
            gb, pb_, qb = pairs[b]
            if ga == gb and qa == pb_:
                vab, vba = _CHAIN_PLUS if sign[qa] > 0 else _CHAIN_MINUS
            elif gb - ga == 1:
                # Pairs are listed generator by generator, so gb >= ga here.
                if pa_ < pb_ < qa < qb:
                    vab, vba = _INTERLEAVE_UP
                elif pb_ < pa_ < qb < qa:
                    vab, vba = _INTERLEAVE_DOWN
                else:
                    continue
            else:
                continue
            V[a][b] = vab
            V[b][a] = vba
    return V


def _as_braid(x: PDDiagram | BraidWord) -> BraidWord:
    if isinstance(x, BraidWord):
        if braid_mod.closure_component_count(x) != 1:
            raise InputError("braid closure is not a knot")
        return x
    if not x.is_knot:
        raise InputError("expected a one-component diagram")
    return vogel_braid(x)


def alexander(x: PDDiagram | BraidWord) -> LaurentPoly:
    """Alexander polynomial, symmetric and normalised to ``value(1) == 1``.

    For a ``k``-strand braid whose closure is the knot, the principal
    ``(k-1)`` minor of ``psi - I``, with ``psi`` its unreduced Burau matrix,
    is the Alexander polynomial up to a unit ``+-t**a``.  The matrix is
    kept by columns, so each letter replaces two of them, and the minor is
    one fraction-free (Bareiss) determinant over ``Z[t, 1/t]``.
    """
    word = _as_braid(x)
    k = word.strands
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    cols = [[one if i == j else zero for i in range(k)] for j in range(k)]
    for letter in word.letters:
        i = abs(letter) - 1
        a, b = cols[i], cols[i + 1]
        # sigma_i turns columns (a, b) into (a + b - t*a, t*a), and its
        # inverse turns them into (b/t, a + b - b/t).
        moved = [p.shift(1) for p in a] if letter > 0 else [q.shift(-1) for q in b]
        mixed = [p + q - r for p, q, r in zip(a, b, moved)]
        cols[i], cols[i + 1] = (mixed, moved) if letter > 0 else (moved, mixed)
    n = k - 1
    m = [[cols[j][i] - one if i == j else cols[j][i] for j in range(n)]
         for i in range(n)]
    # No row swaps: each Bareiss pivot is a leading principal minor of
    # psi - I, and at t = 1 psi is the permutation matrix of one k-cycle,
    # so every leading q x q block of psi - I holds no cycle and has
    # determinant (-1)**q.  No pivot is zero.  The first step's divisor is
    # ``one``, so that step does not divide.
    denom = one
    for p in range(n - 1):
        pivot = m[p][p]
        if pivot.is_zero():
            raise InternalError("Alexander pivot vanished on a knot braid")
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                m[i][j] = m[i][j] * pivot - m[i][p] * m[p][j]
                if p:
                    m[i][j] = m[i][j].exact_div(denom)
        denom = pivot
    raw = m[-1][-1] if m else one
    if raw.is_zero():
        raise InternalError("Alexander determinant vanished on a knot")
    span = raw.max_exp() - raw.min_exp()
    if span % 2:
        raise InternalError("Alexander determinant has odd span")
    centered = raw.shift(-(raw.min_exp() + raw.max_exp()) // 2)
    at_one = centered(1)
    if at_one == 1:
        return centered
    if at_one == -1:
        return -centered
    raise InternalError(f"Alexander value at 1 is {at_one}, not a unit")


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise InternalError(f"fraction-free step left a remainder: {num} / {den}")
    return q


def _symmetric_signature(rows: list[list[int]]) -> int:
    """Signature of a symmetric integer matrix by congruent elimination.

    The block below each pivot is updated fraction-free (Bareiss): it is
    the rational Schur complement times the previous pivot, so a rational
    pivot is positive when two consecutive pivots agree in sign.  Swaps,
    pair sums and the update all keep the matrix symmetric, so the update
    computes the entries on and above the diagonal and mirrors them.
    """
    n = len(rows)
    a = [row[:] for row in rows]
    pos = neg = 0
    prev = 1
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
        p = a[i][i]  # nonzero: a pair sum puts 2 * a[r][s] on the diagonal
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            row, ari = a[r], a[r][i]
            for j in range(r, n):
                row[j] = a[j][r] = _exact_div(p * row[j] - ari * a[i][j], prev)
        prev = p
    return pos - neg


def signature(x: PDDiagram | BraidWord) -> int:
    """Knot signature, the signature of ``V + V^T``."""
    V = seifert_matrix(_as_braid(x))
    m = len(V)
    return _symmetric_signature(
        [[V[i][j] + V[j][i] for j in range(m)] for i in range(m)]
    )


def determinant(x: PDDiagram | BraidWord) -> int:
    """Knot determinant ``|Alexander(-1)|``."""
    return abs(int(alexander(x)(-1)))


def murasugi_bound(x: PDDiagram | BraidWord | int) -> int:
    """Lower bound for the unknotting number: ``ceil(|signature| / 2)``."""
    s = x if isinstance(x, int) else signature(x)
    return (abs(s) + 1) // 2


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

FINGERPRINT_BUDGET = 2000
# Widest bracket frontier, in edge ends, on which a fingerprint skips the
# walk and the walk reads its span V floor.  Twelve ends have at most 11!!
# = 10395 matchings, so the bracket is cheap and within MAX_FRONTIER_STATES.
# Past it, a greedy search candidate's invariants can cost several walks.
FINGERPRINT_WIDTH = 12


@dataclass(frozen=True)
class Fingerprint:
    """Bundle of exact invariants used for identification.

    Every field is a knot invariant, so a fingerprint does not depend on
    the diagram it was computed from.
    """

    alexander: LaurentPoly
    jones: LaurentPoly
    signature: int
    determinant: int

    def render(self) -> str:
        """One-token canonical form, safe for space-separated log lines."""
        return (
            f"alexander={self.alexander.render().replace(' ', '')};"
            f"jones={self.jones.render().replace(' ', '')};"
            f"signature={self.signature:+d};"
            f"determinant={self.determinant}"
        )

    def mirrored(self) -> "Fingerprint":
        return Fingerprint(
            self.alexander, self.jones.reverse(), -self.signature, self.determinant
        )


def knot_invariants(d: PDDiagram) -> Fingerprint:
    """The invariants of the knot diagram ``d`` as given.

    Alexander (by Burau) and signature (by Seifert matrix) read one Vogel
    braid, and the determinant is ``|Alexander(-1)|`` of the polynomial
    already computed.
    """
    if not d.is_knot:
        raise InputError("expected a one-component diagram")
    word = vogel_braid(d)
    alex = alexander(word)
    return Fingerprint(alex, jones(d), signature(word), abs(int(alex(-1))))


def fingerprint(d: PDDiagram | BraidWord) -> Fingerprint:
    """Invariant fingerprint of a knot, computed on a simplified diagram.

    Greedy simplification shrinks the diagram first.  Only when the
    bracket frontier of the greedy diagram is wider than
    ``FINGERPRINT_WIDTH`` edge ends does a walk of at most
    ``FINGERPRINT_BUDGET`` moves, always from seed 0, shrink it further,
    which keeps the Vogel braid behind Alexander and signature short and
    the bracket's frontier narrow.  Either way the result is a function of
    the diagram alone.  A caller that has already walked its diagram calls
    ``knot_invariants`` instead.  The bracket contraction raises
    ``ResourceError`` only past ``MAX_FRONTIER_STATES`` live frontier
    states.
    """
    if isinstance(d, BraidWord):
        d = braid_closure(d)
    if not d.is_knot:
        raise InputError("fingerprint expects a one-component diagram")
    g = simplify_greedy(d)
    if _contraction_order(g)[1] > FINGERPRINT_WIDTH:
        g = simplify_global(g, budget=FINGERPRINT_BUDGET)
    return knot_invariants(g)


# ---------------------------------------------------------------------------
# torus knot references
# ---------------------------------------------------------------------------


def torus_diagram(n: int) -> PDDiagram:
    """Standard ``n``-crossing closed 2-braid diagram of ``T(2, n)``."""
    if n < 3 or n % 2 == 0:
        raise InputError("torus_diagram needs an odd crossing count >= 3")
    return braid_closure(BraidWord((1,) * n, 2))


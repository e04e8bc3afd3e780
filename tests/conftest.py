"""Shared generators and oracles for the test suite."""

import random
from fractions import Fraction

import pytest

from gordian.braid import BraidWord, braid_closure, closure_component_count
from gordian.invariants import seifert_matrix
from gordian.laurent import LaurentPoly


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
        ti, hi = 4 * tail[0] + tail[1], 4 * head[0] + head[1]
        match[ti], match[hi] = hi, ti
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


@pytest.fixture
def rng():
    return random.Random(20260814)

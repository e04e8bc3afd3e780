"""Shared generators and oracles for the test suite."""

import random

import pytest

from gordian.braid import BraidWord, braid_closure, closure_component_count
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
# Independent Alexander oracle (Burau matrices)
# ---------------------------------------------------------------------------

def _mat_mul(a, b):
    n = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(n)), LaurentPoly.zero())
            for j in range(n)
        ]
        for i in range(n)
    ]


def _mat_det(m):
    if not m:
        return LaurentPoly.one()
    if len(m) == 1:
        return m[0][0]
    total = LaurentPoly.zero()
    for j, head in enumerate(m[0]):
        if head.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = head * _mat_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def burau_alexander(word: BraidWord) -> LaurentPoly:
    """Alexander polynomial via unreduced Burau matrices, normalized so the
    polynomial is symmetric in t <-> 1/t and evaluates to +1 at t = 1.

    This shares no code with the Seifert-matrix route: the only common
    dependency is Laurent arithmetic.
    """
    t = LaurentPoly.var(1)
    tinv = LaurentPoly.var(-1)
    one = LaurentPoly.one()
    k = word.strands
    m = [[one if i == j else LaurentPoly.zero() for j in range(k)] for i in range(k)]
    for x in word.letters:
        i = abs(x) - 1
        block = [
            [one if a == b else LaurentPoly.zero() for b in range(k)]
            for a in range(k)
        ]
        if x > 0:
            block[i][i] = one - t
            block[i][i + 1] = t
            block[i + 1][i] = one
            block[i + 1][i + 1] = LaurentPoly.zero()
        else:
            block[i][i] = LaurentPoly.zero()
            block[i][i + 1] = one
            block[i + 1][i] = tinv
            block[i + 1][i + 1] = one - tinv
        m = _mat_mul(m, block)
    for i in range(k):
        m[i][i] = m[i][i] - one
    reduced = [row[: k - 1] for row in m[: k - 1]]
    det = _mat_det(reduced)
    if det.is_zero():
        return LaurentPoly.zero()
    # Strip the unit +-t^a: center the exponents, then fix the sign at t=1.
    lo, hi = det.min_exp(), det.max_exp()
    if (lo + hi) % 2 != 0:
        # Odd total degree cannot be centered in t; centre in sqrt(t) never
        # happens for the knots generated in these tests.
        raise AssertionError("unexpected odd exponent span in Burau oracle")
    centered = det.shift(-(lo + hi) // 2)
    if centered(1) < 0:
        centered = -centered
    assert centered(1) == 1, "oracle normalisation expects Delta(1) = +-1"
    return centered


@pytest.fixture
def rng():
    return random.Random(20260814)

"""Laurent polynomial arithmetic against hand-computed values, and the
dense form against the sparse reference ``ReferenceLaurent`` in conftest."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gordian.laurent import LaurentPoly
from tests.conftest import ReferenceLaurent


def test_construction_drops_zero_coefficients():
    p = LaurentPoly([(2, 1), (0, 0), (-1, 3)])
    assert p.coeff(0) == 0
    assert p.coeff(2) == 1
    assert p.coeff(-1) == 3
    assert p == LaurentPoly({2: 1, -1: 3})


def test_zero_one_const_var():
    assert LaurentPoly.zero().is_zero()
    assert not LaurentPoly.one().is_zero()
    assert LaurentPoly.const(5) == LaurentPoly([(0, 5)])
    assert LaurentPoly.var(3, -2) == LaurentPoly([(3, -2)])


def test_addition_and_subtraction():
    p = LaurentPoly([(1, 2), (0, 1)])
    q = LaurentPoly([(1, -2), (2, 4)])
    assert p + q == LaurentPoly([(0, 1), (2, 4)])
    assert p - p == LaurentPoly.zero()
    assert p + 1 == LaurentPoly([(1, 2), (0, 2)])
    assert 1 - p == LaurentPoly([(1, -2)])


def test_multiplication_hand_value():
    # (t - 1)(t^-1 - 1) = 1 - t - t^-1 + 1 = 2 - t - t^-1
    p = LaurentPoly([(1, 1), (0, -1)])
    q = LaurentPoly([(-1, 1), (0, -1)])
    assert p * q == LaurentPoly([(0, 2), (1, -1), (-1, -1)])


def test_power():
    t = LaurentPoly.var(1)
    assert (t + 1) ** 2 == LaurentPoly([(2, 1), (1, 2), (0, 1)])
    assert (t + 1) ** 0 == LaurentPoly.one()
    with pytest.raises(ValueError):
        (t + 1) ** -1


def test_shift_and_reverse():
    p = LaurentPoly([(2, 3), (0, -1)])
    assert p.shift(-1) == LaurentPoly([(1, 3), (-1, -1)])
    assert p.reverse() == LaurentPoly([(-2, 3), (0, -1)])
    # A symmetric polynomial is fixed by reverse().
    sym = LaurentPoly([(-1, 1), (0, -1), (1, 1)])
    assert sym.reverse() == sym


def test_evaluation():
    p = LaurentPoly([(1, 1), (0, -1), (-1, 1)])
    assert p(1) == 1
    assert p(-1) == -3
    assert p(Fraction(2)) == Fraction(3, 2)


def test_exact_division():
    # (t^7 + 1) / (t + 1) is the Alexander polynomial of T(2,7) up to a unit.
    t = LaurentPoly.var(1)
    num = t ** 7 + 1
    den = t + 1
    quotient = num.exact_div(den)
    assert quotient == LaurentPoly(
        [(6, 1), (5, -1), (4, 1), (3, -1), (2, 1), (1, -1), (0, 1)]
    )
    assert quotient * den == num


def test_exact_division_rejects_remainder():
    t = LaurentPoly.var(1)
    with pytest.raises(ValueError, match="remainder"):
        (t ** 2 + 1).exact_div(t + 1)


def test_exact_division_rejects_a_non_integral_quotient():
    t = LaurentPoly.var(1)
    with pytest.raises(ValueError):
        (t + 1).exact_div(2 * t + 2)


def test_exact_division_with_negative_exponents():
    # (t^-2 - t^3) / (t^-1 - 1) = t^-1 + 1 + t + t^2 + t^3
    num = LaurentPoly({-2: 1, 3: -1})
    den = LaurentPoly({-1: 1, 0: -1})
    assert num.exact_div(den) == LaurentPoly({-1: 1, 0: 1, 1: 1, 2: 1, 3: 1})
    assert num.exact_div(LaurentPoly.var(-4, -1)) == LaurentPoly({2: -1, 7: 1})


def test_exact_division_undoes_multiplication():
    rng = random.Random(20261018)

    def draw():
        lo = rng.randint(-4, 4)
        return LaurentPoly(
            {lo + i: rng.randint(-5, 5) for i in range(rng.randint(1, 6))}
        )

    for _ in range(200):
        p, q = draw(), draw()
        if q.is_zero():
            continue
        assert (p * q).exact_div(q) == p


def test_render_formats():
    assert LaurentPoly.zero().render() == "0"
    assert LaurentPoly.one().render() == "1"
    p = LaurentPoly([(2, -1), (0, 3), (-1, 1)])
    assert p.render() == "t^-1 + 3 - t^2"
    assert LaurentPoly([(1, 1)]).render("A") == "A"


def test_min_max_exp():
    p = LaurentPoly([(5, 2), (-3, 1)])
    assert p.min_exp() == -3
    assert p.max_exp() == 5


# -- the dense form -------------------------------------------------------


def test_zero_is_canonical():
    p = LaurentPoly({-2: 3, 1: -1})
    for zero in (p - p, LaurentPoly({5: 0}), LaurentPoly([(3, 2), (3, -2)]), p * 0):
        assert (zero.lo, zero.coeffs) == (0, ())
        assert zero == LaurentPoly.zero() == 0
        assert hash(zero) == hash(LaurentPoly.zero())
        assert zero.terms == () and zero.render() == "0"
    assert (LaurentPoly.zero().shift(4).lo, LaurentPoly.zero().reverse().lo) == (0, 0)


def test_negative_exponents_are_stored_from_the_lowest_one():
    p = LaurentPoly({-3: 2, -1: 1, 0: 0})
    assert (p.lo, p.coeffs) == (-3, (2, 0, 1))
    assert p.terms == ((-3, 2), (-1, 1))
    assert (p.min_exp(), p.max_exp(), p.coeff(-2), p.coeff(-4), p.coeff(0)) == (
        -3, -1, 0, 0, 0
    )
    assert p.render() == "2*t^-3 + t^-1"
    assert p.reverse() == LaurentPoly({3: 2, 1: 1})
    assert p(-1) == -3


def test_a_cancelling_sum_is_trimmed_at_both_ends():
    p = LaurentPoly({-2: 1, 0: 3, 4: 1})
    q = LaurentPoly({-2: -1, 0: 5, 1: 2, 4: -1})
    s = p + q
    assert (s.lo, s.coeffs) == (0, (8, 2))
    d = p - LaurentPoly({-2: 1, 4: 1, 3: 7})
    assert (d.lo, d.coeffs) == (0, (3, 0, 0, -7))


def test_hash_and_equality_agree_however_the_value_is_built():
    t = LaurentPoly.var(1)
    built = [
        LaurentPoly({-1: 2, 1: -1}),
        LaurentPoly([(1, -1), (-1, 2), (0, 4), (0, -4)]),
        2 * t.reverse() - t + (t + 1) * (t - 1) - t * t + 1,
    ]
    assert all(p == built[0] for p in built)
    assert {hash(p) for p in built} == {hash(built[0])}
    assert len(set(built)) == 1


def test_constructor_rejects_a_float_coefficient():
    with pytest.raises(TypeError):
        LaurentPoly({0: 1.5})


def test_constructor_rejects_a_fractional_exponent():
    with pytest.raises(TypeError):
        LaurentPoly({Fraction(1, 2): 1})


def test_exact_division_by_a_longer_divisor():
    t = LaurentPoly.var(1)
    with pytest.raises(ValueError, match="remainder"):
        (t + 1).exact_div(t ** 3 + t + 1)
    assert LaurentPoly.zero().exact_div(t ** 3 + 1) == LaurentPoly.zero()


def test_exact_division_remainder_and_fraction_with_negative_exponents():
    t = LaurentPoly.var(1)
    with pytest.raises(ValueError, match="remainder"):
        (t.reverse() + 2).exact_div(t - 1)
    with pytest.raises(ValueError, match="not an integer"):
        (2 * t.reverse() + 3).exact_div(2 * t.reverse() + 2)
    with pytest.raises(ZeroDivisionError):
        t.exact_div(LaurentPoly.zero())


def test_evaluation_at_zero():
    assert LaurentPoly({0: 4, 2: 1})(0) == 4
    assert LaurentPoly({1: 4})(0) == 0
    assert LaurentPoly.zero()(0) == 0
    with pytest.raises(ZeroDivisionError):
        LaurentPoly({-1: 1})(0)


# -- the dense form against the sparse reference ---------------------------

_terms = st.dictionaries(st.integers(-6, 6), st.integers(-20, 20), max_size=8)
_points = (Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2))


def _agrees(dense: LaurentPoly, ref: ReferenceLaurent) -> bool:
    return dense.terms == ref.terms and dense.render("A") == ref.render("A")


@settings(max_examples=200, deadline=None, database=None)
@given(_terms, _terms, st.integers(-5, 5))
def test_dense_arithmetic_matches_the_sparse_reference(a, b, k):
    p, q = LaurentPoly(a), LaurentPoly(b)
    rp, rq = ReferenceLaurent(a), ReferenceLaurent(b)
    assert _agrees(p, rp) and _agrees(q, rq)
    assert _agrees(p + q, rp + rq)
    assert _agrees(p - q, rp - rq)
    assert _agrees(-p, -rp)
    assert _agrees(p * q, rp * rq)
    assert _agrees(p.shift(k), rp.shift(k))
    assert _agrees(p.reverse(), rp.reverse())
    assert all(p(x) == rp(x) for x in _points)
    if q:
        assert _agrees((p * q).exact_div(q), (rp * rq).exact_div(rq))
        try:
            expected = rp.exact_div(rq)
        except ValueError:
            with pytest.raises(ValueError):
                p.exact_div(q)
        else:
            assert _agrees(p.exact_div(q), expected)

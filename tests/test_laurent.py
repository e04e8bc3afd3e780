"""Laurent polynomial arithmetic against hand-computed values."""

import random
from fractions import Fraction

import pytest

from gordian.laurent import LaurentPoly


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
    with pytest.raises(Exception):
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

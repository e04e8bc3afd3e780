"""Exact Laurent polynomials over the integers.

Everything downstream (bracket, Jones, Alexander) is assembled from these,
so the arithmetic is deliberately plain: a polynomial is its lowest
exponent and the dense tuple of its integer coefficients from there up,
and every operation works on those lists.  No floats anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import add, neg, sub


class LaurentPoly:
    """Immutable Laurent polynomial with int coefficients.

    The variable is anonymous; ``render()`` picks a display name.  The
    value is ``sum(c * t**(lo + i) for i, c in enumerate(coeffs))``, with
    ``coeffs`` trimmed of zeros at both ends and the zero polynomial stored
    as ``lo == 0, coeffs == ()``, so structural equality coincides with
    mathematical equality.
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, terms: Iterable[tuple[int, int]] | Mapping[int, int] = ()):
        acc: dict[int, int] = {}
        for exp, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            if not (isinstance(exp, int) and isinstance(coeff, int)):
                raise TypeError(f"term {exp!r}: {coeff!r} does not map int to int")
            acc[exp] = acc.get(exp, 0) + coeff
        lo = min(acc, default=0)
        dense = [0] * (max(acc, default=lo - 1) - lo + 1)
        for exp, coeff in acc.items():
            dense[exp - lo] = coeff
        self.lo, self.coeffs = _trimmed(lo, dense)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _dense(0, ())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _dense(0, (1,))

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls([(0, c)])

    @classmethod
    def var(cls, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        """The monomial ``coeff * t**exp``."""
        return cls([(exp, coeff)])

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The ``(exponent, coefficient)`` pairs with nonzero coefficient."""
        return tuple((e, c) for e, c in enumerate(self.coeffs, self.lo) if c)

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.lo

    def max_exp(self) -> int:
        return self.min_exp() + len(self.coeffs) - 1

    def coeff(self, exp: int) -> int:
        i = exp - self.lo
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if isinstance(other, LaurentPoly):
            return self.lo == other.lo and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.coeffs))

    def _combine(self, other: "LaurentPoly | int", op) -> "LaurentPoly":
        """``op`` applied coefficientwise over the union of both spans."""
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        lo = min(self.lo, other.lo)
        out = [0] * (max(self.lo + len(a), other.lo + len(b)) - lo)
        i, j = self.lo - lo, other.lo - lo
        out[i:i + len(a)] = a
        out[j:j + len(b)] = map(op, out[j:j + len(b)], b)
        return _dense(*_trimmed(lo, out))

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _dense(self.lo, tuple(map(neg, self.coeffs)))

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self._combine(other, sub)

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return _coerce(other)._combine(self, sub)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        if not a:
            return _dense(0, ())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        # The end coefficients are products of nonzero ones: nothing to trim.
        return _dense(self.lo + other.lo, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by ``t**k``."""
        return _dense(self.lo + k, self.coeffs) if self.coeffs else self

    def reverse(self) -> "LaurentPoly":
        """Substitute ``t -> t**-1``."""
        if not self.coeffs:
            return self
        return _dense(1 - self.lo - len(self.coeffs), self.coeffs[::-1])

    def __call__(self, x) -> Fraction:
        """Evaluate exactly at a rational point, by Horner's rule."""
        x = Fraction(x)
        if x == 0 and self.coeffs and self.lo < 0:
            raise ZeroDivisionError("negative exponent at 0")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x**self.lo

    def exact_div(self, other: "LaurentPoly | int") -> "LaurentPoly":
        """Divide by ``other``, requiring a remainder-free integer quotient.

        Long division from the top term, in integers: each quotient
        coefficient of an integral quotient is the remainder's top
        coefficient divided by the divisor's, so ``ValueError`` is raised as
        soon as one does not divide exactly, or if a remainder is left.
        """
        other = _coerce(other)
        den = other.coeffs
        if not den:
            raise ZeroDivisionError("division by zero polynomial")
        num = list(self.coeffs)
        top, lead = len(den) - 1, den[-1]
        quot = [0] * max(len(num) - top, 0)
        for i in range(len(num) - 1, top - 1, -1):
            if not num[i]:
                continue
            q, r = divmod(num[i], lead)
            if r:
                raise ValueError("quotient is not an integer polynomial")
            for j, c in enumerate(den, i - top):
                num[j] -= q * c
            quot[i - top] = q
        if any(num):
            raise ValueError("polynomial division left a remainder")
        # quot * den is self, so the quotient's end coefficients are nonzero
        # unless self is zero.
        return _dense(self.lo - other.lo, tuple(quot)) if quot else self

    def render(self, var: str = "t") -> str:
        """Human-readable form, terms in ascending exponent order.

        Examples: ``0``, ``1``, ``-t^-3 + t^-2 + t^2 - t^3``, ``3*t^2``.
        """
        out = ""
        for e, c in self.terms:
            mag, power = abs(c), var if e == 1 else f"{var}^{e}"
            sign = (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
            body = power if mag == 1 else f"{mag}*{power}"
            out += sign + (str(mag) if e == 0 else body)
        return out or "0"

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r})"


def _dense(lo: int, coeffs: tuple[int, ...]) -> LaurentPoly:
    """The polynomial with these fields, which are already trimmed."""
    p = object.__new__(LaurentPoly)
    p.lo, p.coeffs = lo, coeffs
    return p


def _trimmed(lo: int, dense: list[int]) -> tuple[int, tuple[int, ...]]:
    """``(lo, coeffs)`` of the list read from exponent ``lo`` up."""
    start, stop = 0, len(dense)
    while start < stop and not dense[start]:
        start += 1
    if start == stop:
        return 0, ()
    while not dense[stop - 1]:
        stop -= 1
    return lo + start, tuple(dense[start:stop])


def _coerce(x: "LaurentPoly | int") -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a Laurent polynomial")

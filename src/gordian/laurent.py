"""Exact Laurent polynomials over the integers.

Everything downstream (bracket, Jones, Alexander) is assembled from these,
so the arithmetic is deliberately plain: a dict of ``exponent -> coefficient``
held in a canonical sorted tuple.  No floats anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction


class LaurentPoly:
    """Immutable Laurent polynomial with int coefficients.

    The variable is anonymous; ``render()`` picks a display name.  Terms are
    stored sorted by exponent with zero coefficients dropped, so structural
    equality coincides with mathematical equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, int]] | Mapping[int, int] = ()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            acc[exp] = acc.get(exp, 0) + coeff
        object.__setattr__(
            self, "terms", tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls([(0, 1)])

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls([(0, c)])

    @classmethod
    def var(cls, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        """The monomial ``coeff * t**exp``."""
        return cls([(exp, coeff)])

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[0][0]

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[-1][0]

    def coeff(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == LaurentPoly.const(other).terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        return LaurentPoly(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly([(e, -c) for e, c in self.terms])

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        other = _coerce(other)
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by ``t**k``."""
        return LaurentPoly([(e + k, c) for e, c in self.terms])

    def reverse(self) -> "LaurentPoly":
        """Substitute ``t -> t**-1``."""
        return LaurentPoly([(-e, c) for e, c in self.terms])

    def __call__(self, x) -> Fraction:
        """Evaluate exactly at a nonzero rational point."""
        x = Fraction(x)
        if x == 0 and self.terms and self.terms[0][0] < 0:
            raise ZeroDivisionError("negative exponent at 0")
        return sum((c * x**e for e, c in self.terms), Fraction(0))

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Divide by ``other``, requiring a remainder-free integer quotient.

        Long division from the top term, in integers: each quotient
        coefficient of an integral quotient is the remainder's top
        coefficient divided by the divisor's, so ``ValueError`` is raised as
        soon as one does not divide exactly, or if a remainder is left.
        """
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        lo, dlo = self.min_exp(), other.min_exp()
        num = [0] * (self.max_exp() - lo + 1)
        for e, c in self.terms:
            num[e - lo] = c
        den = [(e - dlo, c) for e, c in other.terms]
        top, lead = den[-1]
        quot: dict[int, int] = {}
        for i in range(len(num) - 1, top - 1, -1):
            if not num[i]:
                continue
            q, r = divmod(num[i], lead)
            if r:
                raise ValueError("quotient is not an integer polynomial")
            for e, c in den:
                num[i - top + e] -= q * c
            quot[i - top + lo - dlo] = q
        if any(num):
            raise ValueError("polynomial division left a remainder")
        return LaurentPoly(quot)

    # -- rendering ---------------------------------------------------------

    def render(self, var: str = "t") -> str:
        """Human-readable form, terms in ascending exponent order.

        Examples: ``0``, ``1``, ``-t^-3 + t^-2 + t^2 - t^3``, ``3*t^2``.
        """
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (e, c) in enumerate(self.terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = var if e == 1 else f"{var}^{e}"
                body = power if mag == 1 else f"{mag}*{power}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()!r})"


def _coerce(x: "LaurentPoly | int") -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot treat {type(x).__name__} as a Laurent polynomial")

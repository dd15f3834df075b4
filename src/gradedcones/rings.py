"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a dictionary mapping exponent tuples to Fraction
coefficients; zero coefficients are never stored, so equality is dictionary
equality and the zero polynomial has an empty term dict.  No floating point
appears anywhere: coefficients are fractions.Fraction and exponents are
Python ints of arbitrary size.

Coefficients may also be Polynomials over Q of one other ring, which makes
a polynomial with coefficients in Q[C]: Groebner strata reduce their marked
generators that way.  Reduction (groebner.normal_form, s_polynomial) only
divides by leading coefficients, so every divisor's leading coefficient must
then be a unit, a nonzero Fraction; a marked generator's head is monic.

Rings are lightweight value objects holding the variable names.  Two rings
with the same names compare equal, which lets results move freely between
independently constructed rings.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence

Exponent = tuple[int, ...]

ZERO = Fraction(0)  # the one dict.get default for coefficient sums; Fractions are immutable

_IDENT_OK = str.isidentifier


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(operator.add, a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(operator.sub, a, b))


def exp_divides(a: Exponent, b: Exponent) -> bool:
    """True if the monomial with exponent a divides the one with exponent b."""
    return all(map(operator.le, a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def exp_total(a: Exponent) -> int:
    return sum(a)


def exact(c) -> Fraction:
    """Coerce to Fraction, refusing floats: this library is exact only.

    A Fraction is returned as it is; Fractions are immutable.
    """
    if type(c) is Fraction:
        return c
    if isinstance(c, float):
        raise TypeError("floating point values are not accepted; pass a Fraction")
    return Fraction(c)


class PolyRing:
    """Polynomial ring Q[names].  Immutable; equality is by variable names."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for n in names:
            if not _IDENT_OK(n):
                raise ValueError(f"invalid variable name {n!r}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, PolyRing) and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return "PolyRing(%s)" % ", ".join(self.names)

    # -- element constructors ------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = exact(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def monomial(self, exponent: Sequence[int], coeff=1) -> "Polynomial":
        exponent = tuple(map(operator.index, exponent))
        if len(exponent) != self.nvars or any(x < 0 for x in exponent):
            raise ValueError(f"bad exponent {exponent} for {self!r}")
        c = exact(coeff)
        if c == 0:
            return self.zero()
        return Polynomial(self, {exponent: c})

    # -- derived rings -------------------------------------------------------

    def subring(self, keep: Sequence[int]) -> "PolyRing":
        """Ring on the kept variable positions, in their current order."""
        return PolyRing(tuple(self.names[i] for i in keep))

    def parse(self, text: str) -> "Polynomial":
        from .session import parse_polynomial

        return parse_polynomial(self, text)


class Polynomial:
    """Element of a PolyRing.  Treat as immutable."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Exponent, Fraction]):
        self.ring = ring
        self.terms = terms

    # -- basic structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(exp_total(e) == 0 for e in self.terms)

    def degree_component(self, d: int) -> "Polynomial":
        """The standard-degree-d part."""
        return Polynomial(
            self.ring, {e: c for e, c in self.terms.items() if exp_total(e) == d}
        )

    def support_variables(self) -> frozenset[int]:
        out = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    out.add(i)
        return frozenset(out)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        if type(other) is int and not other:
            return self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if type(other) is int and not other:
            return -self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other if type(other) is Fraction else Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, {e: k * c for e, k in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exp_add(e1, e2)
                s = out.get(e, ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self if other == 1 else self * (1 / Fraction(other))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- evaluation and substitution ------------------------------------------

    def evaluate(self, values: Sequence) -> Fraction:
        if len(values) != self.ring.nvars:
            raise ValueError("wrong number of values")
        vals = [exact(v) for v in values]
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for v, k in zip(vals, e):
                if k:
                    t *= v**k
            acc += t
        return acc

    def substitute(self, ring: PolyRing, images: Sequence["Polynomial | None"]) -> "Polynomial":
        """Replace each variable i by images[i], a polynomial of ring; the result lies in ring.

        images[i] is None for a variable that must not occur: an occurrence
        raises ValueError.  Variables of ring as images rename.  Each power
        of an image is computed once, and every term's image accumulates
        into one dict of ring.
        """
        powers: dict[tuple[int, int], Polynomial] = {}
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            image = Polynomial(ring, {(0,) * ring.nvars: c})
            for i, k in enumerate(e):
                if not k:
                    continue
                if (i, k) not in powers:
                    if images[i] is None:
                        raise ValueError(f"variable {self.ring.names[i]} has no image in {ring!r}")
                    powers[i, k] = images[i] ** k
                image = image * powers[i, k]
            for x, v in image.terms.items():
                s = out.get(x, ZERO) + v
                if s:
                    out[x] = s
                else:
                    out.pop(x)
        return Polynomial(ring, out)

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable i."""
        out: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                ne = list(e)
                ne[i] = k - 1
                ne = tuple(ne)
                s = out.get(ne, ZERO) + c * k
                if s:
                    out[ne] = s
                else:
                    out.pop(ne, None)
        return Polynomial(self.ring, out)

    # -- normal forms of the coefficient vector --------------------------------

    def scaled_primitive(self) -> "Polynomial":
        """Integer-coefficient scalar multiple with content 1.

        The sign is left untouched; callers fix the sign against a term order.
        """
        if not self.terms:
            return self
        from math import gcd, lcm

        den = lcm(*[c.denominator for c in self.terms.values()])
        num = gcd(*[abs(c.numerator) for c in self.terms.values()])
        return self * Fraction(den, num)

    def __repr__(self) -> str:
        from .session import format_polynomial

        return format_polynomial(self)

    __str__ = __repr__

"""Term orders on monomial exponent tuples.

An order exposes a sort key: bigger key means bigger monomial.  Keys are
nested tuples of ints, so Python tuple comparison implements the order.
Available kinds:

  lex()                  lexicographic, the first variable most significant
  degrevlex()            total degree, ties by reverse lexicographic
  weighted(weights, tie) integer weight row vector, ties by another order
  elimination(block, nvars, tie)  no kind of its own: the weighted order
                         with weight 1 on a variable block and 0 elsewhere,
                         so any monomial meeting the block beats any
                         monomial that avoids it

Orders used for Groebner computations must be well-orders (the constant
monomial is minimal).  A weighted order is one when every weight is
strictly positive, whatever its tiebreak, since only finitely many
monomials share a weight; with some weight zero it needs nonnegative
weights and a well-ordered tiebreak.  So weighted(w, weighted(-e_i, tie))
with w > 0, which prefers the least x_i exponent within a weight, is a
well-order although its tiebreak is not.
"""

from __future__ import annotations

from operator import index, mul, neg
from typing import Sequence

from .rings import Exponent, Polynomial


class TermOrder:
    __slots__ = ("kind", "weights", "tiebreak")

    def __init__(self, kind, weights=None, tiebreak=None):
        self.kind = kind
        self.weights = tuple(map(index, weights)) if weights is not None else None
        self.tiebreak = tiebreak

    # -- constructors ----------------------------------------------------------

    @classmethod
    def lex(cls) -> "TermOrder":
        return cls("lex")

    @classmethod
    def degrevlex(cls) -> "TermOrder":
        return cls("degrevlex")

    @classmethod
    def weighted(cls, weights: Sequence[int], tiebreak: "TermOrder") -> "TermOrder":
        return cls("weighted", weights=weights, tiebreak=tiebreak)

    @classmethod
    def elimination(cls, block, nvars: int, tiebreak: "TermOrder") -> "TermOrder":
        """Order whose initial segment eliminates the block variables."""
        return cls.weighted([int(i in block) for i in range(nvars)], tiebreak)

    # -- the order itself -------------------------------------------------------

    def key(self, e: Exponent):
        kind = self.kind
        if kind == "lex":
            return e
        if kind == "degrevlex":
            return (sum(e), tuple(map(neg, e[::-1])))
        if kind == "weighted":
            w = self.weights
            if len(w) != len(e):
                raise ValueError("weight vector length does not match ring")
            return (sum(map(mul, w, e)), self.tiebreak.key(e))
        raise ValueError(f"unknown order kind {kind}")

    def greater(self, a: Exponent, b: Exponent) -> bool:
        return self.key(a) > self.key(b)

    def is_well_order(self) -> bool:
        if self.kind in ("lex", "degrevlex"):
            return True
        if self.kind == "weighted":
            if all(w > 0 for w in self.weights):
                return True
            return all(w >= 0 for w in self.weights) and self.tiebreak.is_well_order()
        return False

    def tag(self) -> tuple:
        """Hashable identity, used as a cache key for Groebner bases."""
        return (
            self.kind,
            self.weights,
            self.tiebreak.tag() if self.tiebreak is not None else None,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, TermOrder) and self.tag() == other.tag()

    def __hash__(self) -> int:
        return hash(self.tag())

    def __repr__(self) -> str:
        return f"TermOrder{self.tag()!r}"

    # -- polynomial helpers -------------------------------------------------------

    def sorted_terms(self, p: Polynomial) -> list:
        """Terms of p as (exponent, coefficient), descending."""
        return sorted(p.terms.items(), key=lambda t: self.key(t[0]), reverse=True)

    def leading_exponent(self, p: Polynomial) -> Exponent:
        if p.is_zero():
            raise ValueError("zero polynomial has no leading term")
        return max(p.terms, key=self.key)

    def leading_coefficient(self, p: Polynomial):
        return p.terms[self.leading_exponent(p)]

    def positive_leading(self, p: Polynomial) -> Polynomial:
        """Flip the sign if the leading coefficient is negative."""
        if p.is_zero():
            return p
        return -p if self.leading_coefficient(p) < 0 else p

"""Exception hierarchy.

Two families matter for the command line tool: parse failures (exit code 2)
and mathematical rejections (exit code 1).  Everything else is a plain bug
and is allowed to surface as an ordinary Python traceback.

The library raises a `Rejection` where it refuses input; the command line
translates nothing.  Plain `Rejection`s refuse a kept set that misses a
variable (`cones.minimal_embedding`), a non-minimal monomial set
(`strata.MonomialIdealSpec`), a negative orbit bound or more than 20
variables (`orbits.low_orbit_stratum`), more than `cones.MINOR_LIMIT`
minors, and more than `cones.TAIL_LIMIT` or infinitely many tails
(`strata.tail_scheme`).  API misuse no document can produce stays a
`ValueError`.
"""

from __future__ import annotations


class GradedConesError(Exception):
    """Base class for all library errors."""


class ParseFailure(GradedConesError):
    """Syntax or semantic error in an input document.

    line and column are 1-based positions in the source text.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class Rejection(GradedConesError):
    """Input is well formed but mathematically inadmissible."""


class NotHomogeneousError(Rejection):
    """A polynomial required to be graded-homogeneous is not.

    Carries the offending polynomial and its nonzero component degrees.
    """

    def __init__(self, message: str, polynomial=None, degrees=()):
        super().__init__(message)
        self.polynomial = polynomial
        self.degrees = tuple(degrees)


class NonPositiveGradingError(Rejection):
    """The grading admits no strictly positive weight functional.

    certificate is the nonnegative integer exponent vector alpha with
    matrix * alpha = 0, witnessing a nonconstant monomial of degree zero.
    """

    def __init__(self, message: str, certificate):
        super().__init__(message)
        self.certificate = certificate


class ImproperIdealError(Rejection):
    """An operation that requires a proper ideal received the unit ideal."""


class DependentColumnsError(Rejection):
    """Chosen degree columns are linearly dependent (or otherwise unusable)."""


class NoRationalPointError(Rejection):
    """A one-dimensional orbit exists over the algebraic closure but no
    rational representative was found.

    supports lists the qualifying coordinate supports.
    """

    def __init__(self, message: str, supports=()):
        super().__init__(message)
        self.supports = tuple(supports)


class ResourceLimitError(GradedConesError):
    """Pair-queue cap exceeded during a Groebner basis run.

    processed counts the pairs taken from the queue, pending the queued
    pairs still live, basis_size the elements added to the basis so far.
    """

    def __init__(self, processed: int, pending: int, basis_size: int, limit: int):
        super().__init__(
            "pair limit exceeded: processed %d pairs, %d pending, basis size %d (limit %d)"
            % (processed, pending, basis_size, limit)
        )
        self.processed = processed
        self.pending = pending
        self.basis_size = basis_size
        self.limit = limit

"""Exception hierarchy shared by all gkptri modules."""


class GkpError(Exception):
    """Base class for all errors raised by this package."""


class PolyParseError(GkpError):
    """Malformed polynomial / grammar text.  Carries line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NonIntegerParams(GkpError):
    """Grammar construction needs all six recurrence parameters integral."""


class UnknownVariable(GkpError):
    """A polynomial mentions a letter outside the grammar's alphabet."""


class NonTriangularExpansion(GkpError):
    """The derivative expansion cannot be read back as a triangle row.

    Raised when the exponent lattice degenerates (distinct column indices
    map to the same monomial) or a monomial falls outside the expected
    lattice entirely.
    """


class RowOutOfRange(GkpError):
    """Row index beyond the rows actually computed for a triangle."""


class ZeroA1(GkpError):
    """Closed form requires the linear-in-k coefficient a1 to be nonzero."""


class ZeroA2(GkpError):
    """Closed form requires the linear-in-n coefficient a2 to be nonzero."""


class NonInvertibleConstantTerm(GkpError):
    """`egf_levels` needs a negative power of a y(0) that is not a single
    nonzero term, so has no inverse."""


class DegenerateY(GkpError):
    """The second-order generating-function identity requires y not in {0, 1}."""


class BudgetExceeded(GkpError):
    """A brute-force enumeration passed its object budget."""


class NegativeLeafMultiplicity(GkpError):
    """Rule parameters would create a negative number of leaves."""


class GrammarNotEnumerable(GkpError):
    """Derivation histories need single-monomial, coefficient-1 rules with
    nonnegative exponents."""


class UnknownSuite(GkpError):
    """Verification suite name not registered."""

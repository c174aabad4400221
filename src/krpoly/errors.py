"""Exception types shared across the package."""


class KRError(Exception):
    """Base class for all library errors."""


class InvalidParams(KRError, ValueError):
    """An argument out of range, of the wrong type, rank or arity.

    n, r, s and dominant weight coefficients must be ``int`` (not ``bool``),
    with 1 <= r <= n, s >= 1 and coefficients >= 0.  A tensor element needs
    a factor, and the R-matrix, its transport and the local energy need
    exactly two.  Also a ValueError, which these checks raised before they
    had a type.
    """


class DimensionMismatch(KRError):
    """Entry grid does not have shape r x (n-r+1)."""


class NegativeEntry(KRError):
    """A grid entry is negative or not an integer (bools are rejected too)."""


class PathSumExceeded(KRError):
    """Some monotone staircase sums to more than s.

    Carries a witness: the offending path as a list of (p, q) cells.
    """

    def __init__(self, message, witness=None, total=None):
        super().__init__(message)
        self.witness = witness
        self.total = total


class SizeLimitExceeded(KRError):
    """An enumeration or graph construction passed its cardinality cap."""


class IndexOutOfRange(KRError):
    """Color index outside its range.

    Raised for a color that is not an ``int`` in 0..n in the string
    statistics and operators (``KRPattern._stats``), for a pivot at
    l = r or 0, for a transport word color that is not an ``int`` in 1..n
    (``rmatrix_from_hw``) and for a monomial color other than 1 and 2.
    """


class NotHighestWeight(KRError):
    """Operation requires a classical highest weight element."""


class OracleFailure(KRError):
    """A brute-force oracle or a construction found an internal inconsistency.

    Raised when the R-matrix oracle's walk from 0 (x) 0 meets an element
    whose image has another weight or an f_l/e_l that is defined on one
    side only or not intertwined, or does not reach a bijection; when the
    R-matrix transport word does not replay on the image side; or when
    b_lower/b_upper miss their defining profile (so also when a
    ground-state path step does not rotate the weight).  Must not occur
    on valid crystals.
    """


class InconsistentRecursion(KRError):
    """A recursive construction broke its invariant.

    The energy recursion assigned conflicting values along two paths, or
    the closed-form raising schedule left its string or did not reach zero.
    """


class LevelMismatch(KRError):
    """Dominant weight level differs from the crystal level s."""

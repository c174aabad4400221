"""Integer-grid model of Kirillov-Reshetikhin crystals of affine type A.

An element of B^{r,s} at rank n is a grid of non-negative integers a[p,q]
with column index p = 1..r and row index q = r..n, subject to the polytope
constraint: every monotone staircase of cells from (1, r) to (r, n) (each
step raises p or q by one) has entry sum at most s.

The grid carries the full affine crystal structure.  Classical colors
1..n act through pivot indices; color 0 acts on the single corner cell
(1, n).  Crystal zero (an undefined operator application) is represented
by ``None`` throughout.  This module alone indexes a grid's rows and
reads a pattern's per-color records (``KRPattern._strings``): other
modules read cells and statistics through the pattern's accessors, whole
crystals through ``_read_color`` and transport through ``_raise_strings``
and ``_lower_word``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParams,
    KRError,
    NegativeEntry,
    OracleFailure,
    PathSumExceeded,
    SizeLimitExceeded,
)

ENUMERATION_CAP = 1_000_000


def weyl_dimension(weight):
    """Dimension of the irreducible sl_{n+1} module of highest weight sum m_i Lambda_i.

    ``weight`` is (m_1, ..., m_n); the Weyl product
    prod_{i<j} (m_i + ... + m_{j-1} + j - i) / (j - i) over
    1 <= i < j <= n+1 is taken in integers.
    """
    num = den = 1
    n = len(weight)
    for i in range(n):
        partial = 0
        for j in range(i + 1, n + 1):
            partial += weight[j - 1]
            if partial:  # a zero partial sum makes the factor 1
                num *= partial + j - i
                den *= j - i
    return num // den


def crystal_size(params):
    """|B^{r,s}| without enumerating it: the Weyl dimension of s Lambda_r.

    It is MacMahon's count of plane partitions in an r x s x (n+1-r) box,
    prod (i + j + c - 1) / (i + j - 1) over 1 <= i <= a, 1 <= j <= b for
    sides a <= b <= c, so only the two shorter sides are iterated.
    """
    _check_params(params)
    a, b, c = sorted((params.r, params.s, params.n + 1 - params.r))
    num = den = 1
    for i in range(1, a + 1):
        for d in range(i, i + b):
            num *= d + c
            den *= d
    return num // den


@dataclass(frozen=True)
class KRParams:
    """Crystal parameters: rank n of A_n^(1), classical node r, level s."""

    n: int
    r: int
    s: int

    def __post_init__(self):
        values = [self.n, self.r, self.s]
        if not all(map(_is_int, values)):
            raise InvalidParams(f"n, r and s must be integers, got {values}")
        if self.n < 1:
            raise InvalidParams(f"rank must be positive, got n={self.n}")
        if not 1 <= self.r <= self.n:
            raise InvalidParams(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if self.s < 1:
            raise InvalidParams(f"level must be positive, got s={self.s}")

    @property
    def num_rows(self):
        return self.n - self.r + 1

    @property
    def num_cols(self):
        return self.r


def _check_params(params):
    """InvalidParams unless ``params`` is a KRParams."""
    if not isinstance(params, KRParams):
        raise InvalidParams(f"crystal parameters must be a KRParams, got {params!r}")


def _check_cap(max_size):
    """InvalidParams unless the size cap ``max_size`` is an int (True refused)."""
    if type(max_size) is not int:
        raise InvalidParams(f"a size cap must be an integer, got {max_size!r}")


def _check_cell(p, q):
    """IndexOutOfRange unless column p and row q are ints (True, which reads 1, refused)."""
    if type(p) is not int or type(q) is not int:
        raise IndexOutOfRange(f"cell ({p!r}, {q!r}) is not a pair of ints")


@dataclass(frozen=True, slots=True)
class KRPattern:
    """One element of B^{r,s}: rows[q-r][p-1] = a[p,q].

    Patterns key the canonical-image table, so the hash of (params, rows)
    is computed once and kept in ``_hash``; rows that cannot be hashed
    (lists, as ``validate_pattern`` would not return) raise InvalidParams
    there, and a pattern's first read hashes it.  ``_strings``, read only
    in this module, holds one record per color after its first read, ``[phi,
    eps, first, last, f image, e image]``: the string statistics, then the
    images of f_l and e_l, each filled on its first read with the
    canonical object of its grid (``_move``), which carries its own
    records.  Neither takes part in equality, ``repr`` or ``to_dict``.
    """

    params: KRParams
    rows: tuple
    _hash: int = field(default=None, init=False, repr=False, compare=False)
    _strings: list = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            try:
                h = hash((self.params, self.rows))
            except TypeError:
                raise InvalidParams(f"rows {self.rows!r} are not a tuple of tuples") from None
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def n(self):
        return self.params.n

    def a(self, p, q):
        """Entry at column p, row q; zero outside the grid."""
        _check_cell(p, q)
        pr = self.params
        if 1 <= p <= pr.r and pr.r <= q <= pr.n:
            return self.rows[q - pr.r][p - 1]
        return 0

    def entries_flat(self):
        return tuple(chain.from_iterable(self.rows))

    def corner_sum(self, p, q):
        """Entry sum over the cells (i, j) with i <= p and j >= q."""
        _check_cell(p, q)
        return sum(sum(row[: max(p, 0)]) for row in self.rows[max(q - self.params.r, 0) :])

    def label(self):
        """Rows joined by "/", entries by ","; a single cell is its integer."""
        return "/".join(",".join(map(str, row)) for row in self.rows)

    def total(self):
        return sum(map(sum, self.rows))

    def sort_key(self):
        return self.entries_flat()

    # -- weights ---------------------------------------------------------

    def classical_weight(self):
        """Coefficients of the weight on the fundamental weights 1..n.

        Cell (p, q) holds the root alpha_p + ... + alpha_q, which pairs
        -1 with coroots p-1 and q+1 and 1 with coroots p and q (2 when
        p = q), so coefficient l is s*[l = r] - C_l - R_l + C_{l+1} +
        R_{l-1} in the column sums C_p and row sums R_q (zero off the grid).
        """
        pr = self.params
        rows = self.rows
        cols = [0, *map(sum, zip(*rows))] + [0] * (pr.n + 1 - pr.r)
        sums = [0] * pr.r + [sum(row) for row in rows] + [0]
        return tuple(
            pr.s * (l == pr.r) - cols[l] - sums[l] + cols[l + 1] + sums[l - 1]
            for l in range(1, pr.n + 1)
        )

    # -- string statistics and operators ----------------------------------

    def _stats(self, l):
        """The record of color l, its statistics walked once per object.

        A color that is not an ``int`` in 0..n raises IndexOutOfRange, also
        True, which would index the record of color 1.  The first read of
        a pattern hashes it, so rows that are not a tuple of tuples raise
        InvalidParams before any walk.
        """
        strings = self._strings
        if strings is None:
            hash(self)
            strings = [None] * (self.params.n + 1)
            object.__setattr__(self, "_strings", strings)
        if type(l) is not int or not 0 <= l < len(strings):
            raise IndexOutOfRange(f"color {l!r} outside 0..{self.params.n}")
        record = strings[l]
        if record is None:
            phi, eps, first, last = _walk(self.params, self.rows, l)
            record = strings[l] = [phi, eps, first, last, None, None]
        return record

    def phi(self, l):
        """Number of times f_l applies before hitting crystal zero."""
        return self._stats(l)[0]

    def eps(self, l):
        """Number of times e_l applies before hitting crystal zero."""
        return self._stats(l)[1]

    def f(self, l):
        """Lowering operator for color l; None at the end of the string."""
        record = self._stats(l)
        if not record[0]:
            return None
        image = record[4]
        if image is None:
            image = record[4] = _move(self, l, record[2], 1)
        return image

    def e(self, l):
        """Raising operator for color l; None at the top of the string."""
        record = self._stats(l)
        if not record[1]:
            return None
        image = record[5]
        if image is None:
            image = record[5] = _move(self, l, record[3], -1)
        return image

    # -- plumbing ----------------------------------------------------------

    def validate(self):
        validate_pattern(self.rows, self.params)
        return self

    def to_dict(self):
        pr = self.params
        return {"n": pr.n, "r": pr.r, "s": pr.s, "rows": [list(row) for row in self.rows]}


def zero_pattern(params):
    """The generator of B^{r,s}: all entries zero, one object per shape."""
    _check_params(params)
    return _canonical(KRPattern(params, ((0,) * params.num_cols,) * params.num_rows))


def pattern_from_cells(params, entry):
    """Unvalidated pattern of shape ``params`` whose cell (p, q) holds ``entry(p, q)``."""
    _check_params(params)
    if not callable(entry):
        raise InvalidParams(f"entry must be a callable of (p, q), got {entry!r}")
    cols = range(1, params.r + 1)
    rows = tuple(tuple(entry(p, q) for p in cols) for q in range(params.r, params.n + 1))
    return KRPattern(params, rows)


def pattern_from_dict(data):
    """Validated KRPattern from its ``to_dict`` form, e.g. parsed JSON."""
    if not isinstance(data, dict) or data.keys() != {"n", "r", "s", "rows"}:
        raise KRError("a pattern must be an object with exactly the keys n, r, s and rows")
    params = KRParams(data["n"], data["r"], data["s"])
    rows = data["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise DimensionMismatch(f"rows must be a list of lists, got {rows!r}")
    return validate_pattern(rows, params)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def validate_pattern(entries, params):
    """Check shape, integer non-negative entries and the staircase constraint.

    Returns the validated KRPattern.  Entries must be ``int`` (not
    ``bool``); nothing is coerced.  The polytope constraint is checked
    by max-path dynamic programming; on failure the witness staircase is
    attached to the raised PathSumExceeded.  Parameters that are not a
    KRParams raise InvalidParams, entries that are not rows of entries
    DimensionMismatch.
    """
    _check_params(params)
    try:
        rows = tuple(tuple(row) for row in entries)
    except TypeError:
        raise DimensionMismatch(f"entries must be rows of entries, got {entries!r}") from None
    if len(rows) != params.num_rows or any(len(row) != params.num_cols for row in rows):
        raise DimensionMismatch(
            f"expected {params.num_rows} rows x {params.num_cols} cols for "
            f"B^({params.r},{params.s}) at n={params.n}"
        )
    for qi, row in enumerate(rows):
        for pi, x in enumerate(row):
            if not _is_int(x):
                raise NegativeEntry(f"entry a[{pi + 1},{qi + params.r}] = {x!r} is not an integer")
            if x < 0:
                raise NegativeEntry(f"entry a[{pi + 1},{qi + params.r}] = {x} is negative")
    # ms[qi][pi] = largest staircase sum from (1, r) to this cell
    ms = [[0] * params.num_cols for _ in range(params.num_rows)]
    for qi in range(params.num_rows):
        for pi in range(params.num_cols):
            best = 0
            if pi > 0:
                best = ms[qi][pi - 1]
            if qi > 0:
                best = max(best, ms[qi - 1][pi])
            ms[qi][pi] = best + rows[qi][pi]
    total = ms[params.num_rows - 1][params.num_cols - 1]
    if total > params.s:
        raise PathSumExceeded(
            f"maximal staircase sums to {total} > s = {params.s}",
            witness=_witness_path(rows, ms, params),
            total=total,
        )
    return KRPattern(params, rows)


def _witness_path(rows, ms, params):
    qi, pi = params.num_rows - 1, params.num_cols - 1
    cells = [(pi + 1, qi + params.r)]
    # a staircase from the last cell back to (1, r) takes exactly
    # num_rows + num_cols - 2 unit steps
    for _ in range(params.num_rows + params.num_cols - 2):
        if pi > 0 and (qi == 0 or ms[qi][pi - 1] >= ms[qi - 1][pi]):
            pi -= 1
        else:
            qi -= 1
        cells.append((pi + 1, qi + params.r))
    cells.reverse()
    return cells


def enumerate_crystal(params, max_size=ENUMERATION_CAP):
    """All elements of B^{r,s}, in lexicographic order of flattened rows.

    The grid is built row by row.  The rows allowed below a row depend only
    on that row's staircase maxima (the largest staircase sum reaching each
    of its cells), so the allowed next rows, each with its own maxima, are
    listed once per distinct maxima tuple, in lexicographic order, and
    every pattern shares its row tuples with the others.  Only valid
    patterns are materialized.  A crystal larger than ``max_size`` raises
    SizeLimitExceeded before any pattern is built, and a count kept while
    the patterns are built refuses one the size misjudges.
    """
    _check_cap(max_size)
    if crystal_size(params) > max_size:
        raise SizeLimitExceeded(
            f"B^({params.r},{params.s}) at n={params.n} exceeds cap {max_size}"
        )
    below = {}

    def next_rows(above):
        rows = below.get(above)
        if rows is None:
            rows = [((), ())]
            for top in above:
                rows = [
                    (row + (v,), maxima + (base + v,))
                    for row, maxima in rows
                    for base in (max(maxima[-1], top) if maxima else top,)
                    for v in range(params.s - base + 1)
                ]
            below[above] = rows
        return rows

    # partial grids, each with the maxima of its last row; every partial
    # grid extends (by a zero row), so none of them outnumbers the crystal
    grids = [((), (0,) * params.num_cols)]
    for _ in range(params.num_rows - 1):
        grids = [
            (rows + (row,), maxima) for rows, above in grids for row, maxima in next_rows(above)
        ]
    out = []
    for rows, above in grids:
        out.extend(KRPattern(params, rows + (row,)) for row, _ in next_rows(above))
        if len(out) > max_size:
            raise SizeLimitExceeded(
                f"B^({params.r},{params.s}) at n={params.n} exceeds cap {max_size}"
            )
    return out


# -- statistics ------------------------------------------------------------
#
# Every color l other than 0 and r reads two lines of cells, hi and lo:
# rows l-1 and l for l > r, columns l+1 and l read bottom-up (q = n..r)
# for l < r.  Both share one objective, D_i = sum(hi[:i+1]) - sum(lo[:i]),
# read in one pass, with phi = max D and eps = max D + sum(lo) - sum(hi);
# f moves one unit from hi to lo at the first argmax and e moves it back at
# the last.  Colors 0 and r move one cell each, (1, n) and (r, r); their
# statistics read column 1 and the last row (color 0), the first row and
# the last column (color r).


def _walk(pr, rows, l):
    """(phi, eps, first, last) of color l in 0..n; first/last are extreme argmaxes."""
    if l == 0:
        eps = pr.s - sum(row[0] for row in rows) - sum(rows[-1][1:])
        return rows[-1][0], eps, 0, 0
    if l == pr.r:
        phi = pr.s - sum(rows[0][:-1]) - sum(row[-1] for row in rows)
        return phi, rows[0][-1], 0, 0
    if l > pr.r:
        pairs = zip(rows[l - 1 - pr.r], rows[l - pr.r])
    else:
        pairs = ((row[l], row[l - 1]) for row in reversed(rows))
    run = 0  # D_i, then sum(hi[:i+1]) - sum(lo[:i+1]) once lo[i] is read
    best = None
    for i, (h, x) in enumerate(pairs):
        run += h
        if best is None or run > best:
            best, first, last = run, i, i
        elif run == best:
            last = i
        run -= x
    return best, best - run, first, last


def pivot(A, l):
    """Extreme argmax positions (lo, hi) of the pivot objective of color l.

    For r < l <= n they are the columns (p_+, q_+); for 1 <= l < r the
    rows (q_-, p_-).  f_l moves a unit at p_+ or p_-, e_l at q_+ or q_-.
    """
    if not isinstance(A, KRPattern):
        raise InvalidParams(f"pivot reads a KRPattern, got {A!r}")
    pr = A.params
    _, _, first, last, _, _ = A._stats(l)  # refuses a color off 0..n
    if l == pr.r:
        raise IndexOutOfRange(f"color {l} equals r: no pivot needed")
    if l == 0:
        raise IndexOutOfRange(f"pivot needs 1 <= l <= n, got l={l}")
    if l > pr.r:
        return first + 1, last + 1
    return pr.n - last, pr.n - first


def _move_rows(params, rows, l, i, step):
    """``rows`` with ``step`` units moved from hi to lo of color l at i.

    Colors 0 and r change their single cell and ignore i.  Only the rows
    that change are rebuilt; the others are shared with ``rows``.
    """
    r = params.r
    if l > r:
        q = l - 1 - r
        hi, lo = rows[q], rows[q + 1]
        hi = (*hi[:i], hi[i] - step, *hi[i + 1:])
        lo = (*lo[:i], lo[i] + step, *lo[i + 1:])
        return (*rows[:q], hi, lo, *rows[q + 2:])
    if l == 0:
        last = rows[-1]
        return (*rows[:-1], (last[0] - step, *last[1:]))
    if l == r:
        top = rows[0]
        return ((*top[:-1], top[-1] + step), *rows[1:])
    q = params.n - r - i
    row = list(rows[q])
    row[l] -= step
    row[l - 1] += step
    return (*rows[:q], tuple(row), *rows[q + 1:])


def _move(A, l, i, step):
    """The operator image of ``_move_rows`` on A: the one object of its grid."""
    return _canonical(KRPattern(A.params, _move_rows(A.params, A.rows, l, i, step)))


def _read_color(pr, ids, l, stats, images):
    """Color l read on every grid of shape ``pr``, with no pattern built.

    ``ids`` maps each grid to its id k: ``stats[k]`` gets the ``_walk`` of
    grid k and, where f_l applies, ``images[k]`` the id of its image grid,
    -1 if that is not in ``ids``.  Each color is walked once per distinct
    set of the lines it reads: two rows (l > r), two columns (0 < l < r),
    column 1 and the last row (l = 0), or the last column and the first
    row (l = r).  For l > r the moved pair of rows is spliced in.
    """
    r = pr.r
    lines = {}
    if l > r:
        q = l - 1 - r
        for rows, k in ids.items():
            line = rows[q : q + 2]
            read = lines.get(line)
            if read is None:
                s = _walk(pr, rows, l)
                read = lines[line] = s, _move_rows(pr, rows, l, s[2], 1)[q : q + 2] if s[0] else None
            s, moved = read
            stats[k] = s
            if s[0]:
                images[k] = ids.get(rows[:q] + moved + rows[q + 2 :], -1)
        return
    if l == 0:
        pick, whole = itemgetter(0), -1
    elif l == r:
        pick, whole = itemgetter(-1), 0
    else:
        pick, whole = itemgetter(l - 1, l), None
    for rows, k in ids.items():
        line = tuple(map(pick, rows))
        if whole is not None:
            line = line, rows[whole]
        s = lines.get(line)
        if s is None:
            s = lines[line] = _walk(pr, rows, l)
        stats[k] = s
        if s[0]:
            images[k] = ids.get(_move_rows(pr, rows, l, s[2], 1), -1)


# The canonical-image table: every operator image and every shape's zero
# pattern is the first object built for its grid, so words that reach one
# grid (as e_i e_j b = e_j e_i b) share one object and the records it
# carries, and a transport that joins a grid another one visited reads the
# rest of its steps from records.  It holds one entry per distinct image or
# zero pattern: other patterns that callers build, read or enumerate never
# enter it.
@lru_cache(maxsize=None)
def _canonical(A):
    return A


# -- transport kernel --------------------------------------------------------
#
# Transport moves a (x) b along whole strings split by the tensor rule.  It
# reads each factor's records in place: a step whose image is on a record
# costs an index, also on a grid that another transport reached.

# a move along a string: the image slot of a ``KRPattern._strings`` record,
# the operator that fills the slot, and its name
_LOWER = (4, KRPattern.f, "f")
_RAISE = (5, KRPattern.e, "e")


def _steps(b, l, k, move):
    """b moved k single steps of color l by ``move``; OracleFailure past the string."""
    slot, op, name = move
    for _ in range(k):
        strings = b._strings
        b = ((strings and strings[l]) or b._stats(l))[slot] or op(b, l)
        if b is None:
            raise OracleFailure(f"transport word failed at {name}_{l}")
    return b


def _raise_strings(a, b, colors, word):
    """(a, b) raised along the whole l-string of each color l in ``colors``:
    a takes max(0, eps_l(a) - phi_l(b)) steps, b eps_l(b), and the step
    colors are appended to ``word``.  The colors are read in turn, so one
    call over joined color lists equals one call per list.
    """
    for l in colors:
        strings = b._strings
        record = (strings and strings[l]) or b._stats(l)
        eps_b = record[1]
        strings = a._strings
        left = ((strings and strings[l]) or a._stats(l))[1] - record[0]
        if left < 0:
            left = 0
        if eps_b:
            b = _steps(b, l, eps_b, _RAISE)
        if left:
            a = _steps(a, l, left, _RAISE)
        if left or eps_b:
            word.extend([l] * (left + eps_b))
    return a, b


def _lower_word(a, b, word):
    """(a, b) lowered along the reversed transport ``word``: b takes
    min(k, max(0, phi_l(b) - eps_l(a))) steps of a run of k of color l, a
    the rest.  The records are read past the gate of ``_stats``, so a run
    whose color is not an ``int`` in 1..n raises IndexOutOfRange.
    """
    n = a.n
    for l, run in groupby(reversed(word)):
        if type(l) is not int or not 1 <= l <= n:
            raise IndexOutOfRange(f"transport word color {l!r} outside 1..{n}")
        k = len(list(run))
        strings = b._strings
        phi_b = ((strings and strings[l]) or b._stats(l))[0]
        strings = a._strings
        eps_a = ((strings and strings[l]) or a._stats(l))[1]
        right = min(k, max(0, phi_b - eps_a))
        if right:
            b = _steps(b, l, right, _LOWER)
        if k - right:
            a = _steps(a, l, k - right, _LOWER)
    return a, b

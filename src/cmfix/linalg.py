"""Small exact matrices over Q or Q(zeta_m).

Shape-carrying so that 0-row / 0-column matrices compose correctly (dimension
vectors of quiver representations routinely contain zeros).  Entries are any
exact scalars supporting +, -, *, /, == 0: int, Fraction, CyclotomicNumber.

Elimination over Q and Q(zeta_m) goes through one routine, ``insert_row``:
it reduces a new row against rows already in reduced echelon form and
inserts it when it is independent, by cross-multiplication, never dividing.
Each stored row is kept in ``normal_form``, for a rational row a primitive
integer vector (Fraction-free elimination, as in Bareiss 1968), so rational
elimination runs on plain ints.  ``rank`` is the pivot count; ``rref``
inserts the rows, sorts them by pivot and divides each by its pivot entry
once, at the end (``monic``), and ``inverse`` reads the rref.  ``kernel``
is the one kernel reader: it reads a basis off the unsorted echelon rows
that ``_echelon`` returns and divides only the entries it returns by their
pivots, so on an integer matrix it eliminates on ints.  ``nullspace`` is
``kernel`` of ``_echelon``; Norton's trials (``quiver.norton_simplicity``)
build each echelon once, take the rank off it, and call ``kernel`` only
for the roots whose verdict needs one.  ``rank``, ``rref``, ``nullspace``,
the trials and the exact spin ``quiver._spin`` share ``insert_row``; the
F_P pre-spin has its own, ``quiver._insert_mod_p``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .records import Record

__all__ = ["Mat", "insert_row", "kernel", "normal_form", "monic"]


class Mat(Record):
    rows: int
    cols: int
    data: tuple[tuple, ...]

    def __init__(self, rows: int, cols: int, data):
        data = tuple(tuple(r) for r in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"shape mismatch: want {rows}x{cols}")
        Record.__init__(self, rows, cols, data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def scalar(cls, n: int, value) -> "Mat":
        return cls(n, n, [[value if i == j else 0 for j in range(n)] for i in range(n)])

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in +")
        return Mat(self.rows, self.cols,
                   [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in -")
        return Mat(self.rows, self.cols,
                   [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in *: {self.cols} vs {other.rows}")
        # other's columns; a 0-row other still has other.cols (empty) columns
        cols = list(zip(*other.data)) if other.rows else [()] * other.cols
        out = [
            [sum((a * b for a, b in zip(row, col) if not (a == 0 or b == 0)), 0)
             for col in cols]
            for row in self.data
        ]
        return Mat(self.rows, other.cols, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Mat":
        return Mat(self.rows, self.cols, [[c * a for a in r] for r in self.data])

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.data[i][i] for i in range(self.rows)), 0)

    def apply(self, vec):
        """Matrix times column vector (a tuple of scalars)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum((a * v for a, v in zip(row, vec)), 0) for row in self.data)

    # -- exact elimination ----------------------------------------------------

    def rank(self) -> int:
        """Number of pivots of the reduced row echelon form; nothing is divided."""
        return len(_echelon(self.data)[1])

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form and the pivot column list.

        The only place a whole rational row is divided by its pivot entry.
        """
        rows, pivots = _echelon(self.data)
        order = sorted(range(len(rows)), key=pivots.__getitem__)
        zero = (Fraction(0),) * self.cols
        data = [monic(rows[i]) for i in order] + [zero] * (self.rows - len(rows))
        return Mat(self.rows, self.cols, data), [pivots[i] for i in order]

    def nullspace(self) -> list[tuple]:
        """Basis of the right kernel, as tuples of length self.cols (``kernel``)."""
        return kernel(_echelon(self.data), self.cols)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(r) + [1 if i == j else 0 for j in range(n)]
               for i, r in enumerate(self.data)]
        big = Mat(n, 2 * n, aug)
        red, piv = big.rref()
        if piv != list(range(n)):
            raise ValueError("matrix is singular")
        return Mat(n, n, [row[n:] for row in red.data])


def insert_row(rows: list[tuple], pivots: list[int], vec) -> bool:
    """Add vec to the reduced echelon basis (rows, pivots) if independent.

    Rows stay in insertion order and fully reduced: each row is 0 in every
    other row's pivot column, and its own pivot is its first nonzero entry.
    Nothing is divided: vec is reduced by cross-multiplication,
    v <- a*v - f*row with a the row's pivot entry, and every row it stores
    or changes is put in ``normal_form``, so the pivot entry of a rational
    row is a positive int, not 1.  Returns False, changing nothing, when vec
    is in the span.
    """
    v = normal_form(vec)
    for row, p in zip(rows, pivots):
        f = v[p]
        if f != 0:
            a = row[p]
            v = [a * x - f * y for x, y in zip(v, row)]
    piv = next((c for c, x in enumerate(v) if x != 0), None)
    if piv is None:
        return False
    v = normal_form(v)
    pv = v[piv]
    for idx, row in enumerate(rows):
        f = row[piv]
        if f != 0:
            rows[idx] = normal_form([pv * a - f * b for a, b in zip(row, v)])
    rows.append(v)
    pivots.append(piv)
    return True


def normal_form(vec) -> tuple:
    """vec rescaled to a canonical nonzero multiple; the zero vector as is.

    A rational vector (int and Fraction entries) becomes the primitive
    integer vector on its line whose first nonzero entry is positive:
    denominators cleared, content divided out.  Any other vector (a
    CyclotomicNumber entry) is divided by its first nonzero entry.
    """
    if all(type(x) is int for x in vec):
        v = vec
    elif all(isinstance(x, (int, Fraction)) for x in vec):
        den = lcm(*[x.denominator for x in vec])
        v = [x.numerator * (den // x.denominator) for x in vec]
    else:
        # ints become Fractions, so that an int lead divides exactly
        v = [Fraction(x) if isinstance(x, int) else x for x in vec]
        lead = next((x for x in v if x != 0), None)
        return tuple(v) if lead is None else tuple(x / lead for x in v)
    g = gcd(*v)
    if g == 0:
        return tuple(v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def monic(row) -> tuple:
    """A nonzero row in ``normal_form`` divided by its first nonzero entry."""
    lead = next(x for x in row if x != 0)
    if isinstance(lead, int):
        return tuple(Fraction(x, lead) for x in row)
    return row  # a non-rational normal form already leads with 1


def _echelon(data) -> tuple[list[tuple], list[int]]:
    """The reduced echelon basis (rows, pivots) of the rows of data, by ``insert_row``."""
    rows: list[tuple] = []
    pivots: list[int] = []
    for r in data:
        insert_row(rows, pivots, r)
    return rows, pivots


def kernel(echelon, cols: int) -> list[tuple]:
    """Basis of the right kernel of a matrix with cols columns, read off the
    echelon (rows, pivots) of its rows, as ``_echelon`` returns it.

    One vector per free column c, in increasing order: 1 at c, 0 at the
    other free columns, and at each pivot p minus the entry in column c of
    the rref row with pivot p.  The echelon rows are reduced already, so
    only those entries are divided by their pivots.  The rank is the pivot
    count, so a caller that needs only the kernel's dimension, cols minus
    the rank, reads it off the echelon and never calls this.
    """
    rows, pivots = echelon
    by_pivot = dict(zip(pivots, rows))
    basis = []
    for fc in range(cols):
        if fc in by_pivot:
            continue
        v = [0] * cols
        v[fc] = 1
        for p, row in by_pivot.items():
            # an int row has a positive int pivot; any other row leads with 1
            v[p] = Fraction(-row[fc], row[p]) if isinstance(row[p], int) else -row[fc]
        basis.append(tuple(v))
    return basis


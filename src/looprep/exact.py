"""Exact arithmetic foundation.

Rationals are stdlib fractions.Fraction (already canonical: reduced, positive
denominator, hashable).  Every rational input of the library (a modulus, a
coordinate, a scalar, an automorphism image, a spectral point) passes one
strict rule, ``rational``: an int that is not a bool, a Fraction, or an ASCII
literal like "-3/2".  A float, a bool, a Decimal or a string like "1e0" is
rejected with a ValueError, not coerced.  On top of that this module
provides number fields Q[theta]/(m), given by the ascending coefficients of
m, their elements, dense matrices over a number field, integer linear
algebra, and the integer Smith normal form.  Everything is immutable after construction and all
operations are pure.

Linear algebra has one elimination routine, int_rref: a fraction-free
Gauss-Jordan on integer rows that returns the reduced echelon form as
integer rows over one positive denominator.  Ranks, kernel bases (the fixed
spaces of the Galois layer), square inverses (the inverse Cartan matrix) and
field inversion (one solve against the multiplication matrix of the element)
are thin wrappers on it; none of them builds a Fraction.

A number field element is stored in one canonical integer form: a tuple of
integer numerators over a positive denominator whose gcd with all numerators
is 1 (Cohen, A Course in Computational Algebraic Number Theory, 4.2).
Equality, hashing, the canonical order, sums, differences, rational
scaling, products and matrix dot products all run on that form.  A product
convolves the operands' numerators, folds the terms of degree >= n back with
a precomputed integer table of theta^n, ..., theta^(2n-2) mod m, and reduces
by one gcd.  FieldElem.coords, the canonical Fraction tuple, is derived from
the form only for serialized forms and reprs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import Singular, ZeroDivisor
from .record import Immutable, Record


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational(x) -> Fraction:
    """The Fraction of a rational input: an int that is not a bool, a
    Fraction, or an ASCII string [+-]?[0-9]+(/[0-9]+)? with a nonzero
    denominator.  Anything else raises ValueError naming the entry: a float
    or a string like "1e0" or " 1" is not coerced, and Fraction() alone
    would turn "1e10000000" into a ten-million-digit integer."""
    if type(x) is int:
        return Fraction(x)
    if type(x) is Fraction:
        return x
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass  # a zero denominator, or more digits than int() takes
    raise ValueError("%r is not a rational: an int, a Fraction or a string like '-3/2'"
                     % (x,))


class NumberField(Immutable):
    """The quotient ring Q[theta]/(m) for a monic modulus m of degree >= 1,
    given by its ascending rational coefficients (see ``rational``); trailing
    zeros are dropped and ``modulus`` holds the rest as a tuple of Fractions.

    Arithmetic assumes m is irreducible; a reducible modulus is detected at
    the first inversion of a zero divisor (ZeroDivisor).

    fold_rows[k] holds the nonzero (i, c) of theta^(n+k) mod m =
    sum(c * theta^i) / fold_den, for k = 0 .. n-2: all a product needs.
    """

    __slots__ = ("modulus", "degree", "fold_rows", "fold_den")

    def __init__(self, modulus):
        modulus = [rational(c) for c in modulus]
        while modulus and not modulus[-1]:
            modulus.pop()
        n = len(modulus) - 1
        if n < 1:
            raise ValueError("modulus must have degree >= 1")
        if modulus[n] != 1:
            raise ValueError("modulus must be monic")
        low = [-c for c in modulus[:n]]  # theta^n = sum low[i] theta^i
        rows, row = [], low
        for _ in range(n - 1):
            rows.append(row)
            top = row[-1]
            row = [top * low[0]] + [row[i - 1] + top * low[i] for i in range(1, n)]
        den = lcm(*(c.denominator for r in rows for c in r))
        object.__setattr__(self, "modulus", tuple(modulus))
        object.__setattr__(self, "degree", n)
        object.__setattr__(self, "fold_rows", tuple(
            tuple((i, c.numerator * (den // c.denominator)) for i, c in enumerate(r) if c)
            for r in rows
        ))
        object.__setattr__(self, "fold_den", den)

    def from_numerators(self, nums, den: int) -> "FieldElem":
        """The element with coordinates nums[i] / den (den a positive int)."""
        g = gcd(den, *nums)
        if g != 1:
            return _elem(self, tuple(x // g for x in nums), den // g)
        return _elem(self, tuple(nums), den)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, NumberField) and self.modulus == other.modulus)

    def __hash__(self):
        return hash(self.modulus)

    def elem(self, coords) -> "FieldElem":
        """The element sum(coords[k] * theta^k), for a list of rational
        coordinates (see ``rational``) of any length: from the top down, each
        theta^k with k >= n is replaced by theta^(k-n) * (theta^n - m)."""
        n, m = self.degree, self.modulus
        r = [rational(c) for c in coords]
        for k in range(len(r) - 1, n - 1, -1):
            c = r.pop()
            if c:
                for i in range(n):
                    r[k - n + i] -= c * m[i]
        return FieldElem(self, r + [Fraction(0)] * (n - len(r)))

    def scalar(self, c) -> "FieldElem":
        """The rational c (see ``rational``) as a field element."""
        return _scalar(self, c if type(c) is int else rational(c))

    @property
    def zero(self) -> "FieldElem":
        return self.scalar(0)

    @property
    def one(self) -> "FieldElem":
        return self.scalar(1)

    @property
    def gen(self) -> "FieldElem":
        """The image of theta."""
        return self.elem([0, 1])

    def __repr__(self):
        return "NumberField(%s)" % ", ".join(str(c) for c in self.modulus)


class FieldElem(Immutable):
    """An element of a NumberField, as a coordinate vector in powers of theta.

    Canonical integer form: coordinate i is nums[i] / den, with exactly
    field.degree integer numerators, den > 0 and gcd(den, *nums) = 1, so equal
    elements have equal forms.  Hashable, so elements can key dictionaries
    and sets, and ordered by < on that form (the lexicographic order of the
    coordinate vectors), so sorted() and min() give canonical results.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, coords):
        """The element with the given rational coordinates (see
        ``rational``)."""
        if len(coords) != field.degree:
            raise ValueError("coordinate length must equal the field degree")
        coords = [rational(c) for c in coords]
        den = lcm(*(c.denominator for c in coords))
        _set(self, "field", field)
        _set(self, "nums", tuple(c.numerator * (den // c.denominator) for c in coords))
        _set(self, "den", den)

    @property
    def coords(self) -> tuple:
        """The canonical Fraction coordinates nums[i] / den."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field.modulus != self.field.modulus:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return _scalar(self.field, other)
        return None

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            if not isinstance(other, (int, Fraction)):
                return False
            other = _scalar(self.field, other)
        return (
            self.den == other.den
            and self.nums == other.nums
            and (self.field is other.field or self.field.modulus == other.field.modulus)
        )

    def __hash__(self):
        return hash((self.nums, self.den))

    def __lt__(self, other):
        """Lexicographic comparison of the coordinate vectors, decided on the
        integer forms.  A deterministic total order for canonical forms, not
        an ordering of the field."""
        if not isinstance(other, FieldElem):
            return NotImplemented
        da, db = self.den, other.den
        for x, y in zip(self.nums, other.nums):
            x, y = x * db, y * da
            if x != y:
                return x < y
        return False

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _elem(self.field, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return self.field.from_numerators([x * p for x in self.nums], self.den * q)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _dot((self.terms(),), (o.terms(),), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse: the solution x of M x = e_0 by int_rref,
        where column k of M is the integer form of self * theta^k.

        Raises ZeroDivisor for zero and for zero divisors, whose M is
        singular (the runtime guard against a reducible modulus).
        """
        if not self:
            raise ZeroDivisor("inverse of zero")
        field = self.field
        n, fold_den = field.degree, field.fold_den
        # column k is self * theta^k scaled by den * fold_den^k
        columns = [self.nums]
        for _ in range(n - 1):
            top = columns[-1][-1]
            col = [0] + [x * fold_den for x in columns[-1][:-1]]
            for i, c in field.fold_rows[0]:
                col[i] += top * c
            columns.append(col)
        work, pivots, d = int_rref([list(row) + [int(i == 0)]
                                    for i, row in enumerate(zip(*columns))])
        if pivots != list(range(n)):
            raise ZeroDivisor("zero divisor: singular multiplication matrix "
                              "(reducible modulus)")
        return field.from_numerators(
            [self.den * fold_den ** k * row[n] for k, row in enumerate(work)], d)

    def terms(self):
        """(nonzero (i, numerator) pairs, den) with coords[i] = numerator / den.

        den is the least common denominator of the coordinates.
        """
        return tuple((i, x) for i, x in enumerate(self.nums) if x), self.den

    def to_json(self):
        return [str(c) for c in self.coords]

    def __repr__(self):
        return "FieldElem(%s)" % ", ".join(str(c) for c in self.coords)


_set = object.__setattr__


def _elem(field: NumberField, nums: tuple, den: int) -> FieldElem:
    """A FieldElem from a form that is already canonical."""
    e = object.__new__(FieldElem)
    _set(e, "field", field)
    _set(e, "nums", nums)
    _set(e, "den", den)
    return e


def _scalar(field: NumberField, c) -> FieldElem:
    """An int or Fraction operand (a bool included) as a field element,
    unchecked: only constructors apply ``rational``, while arithmetic and
    comparison take any int or Fraction."""
    return _elem(field, (c.numerator,) + (0,) * (field.degree - 1), c.denominator)


def _combine(a: FieldElem, b: FieldElem, sign: int) -> FieldElem:
    """a + sign * b on the integer forms, for sign in {1, -1}."""
    da, db = a.den, b.den
    if da == db:
        nums = [x + sign * y for x, y in zip(a.nums, b.nums)]
    else:
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        nums = [x * sa + y * sb for x, y in zip(a.nums, b.nums)]
        da = den
    return a.field.from_numerators(nums, da)


class MatrixL(Immutable):
    """Dense matrix over a number field; rows of FieldElem entries."""

    __slots__ = ("field", "rows")

    def __init__(self, field: NumberField, rows):
        rows = tuple(tuple(r) for r in rows)
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged matrix")
            for e in r:
                if not isinstance(e, FieldElem) or (
                        e.field is not field and e.field.modulus != field.modulus):
                    raise ValueError("entries must live in the given field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, field: NumberField, n: int) -> "MatrixL":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        return isinstance(other, MatrixL) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return MatrixL(self.field, [[e * other for e in r] for r in self.rows])
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        rows = [[e.terms() for e in r] for r in self.rows]
        cols = [[e.terms() for e in c] for c in zip(*other.rows)]
        return MatrixL(
            self.field,
            [[_dot(r, c, self.field) for c in cols] for r in rows],
        )

    def trace(self) -> FieldElem:
        t = self.field.zero
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def to_json(self):
        return [[e.to_json() for e in r] for r in self.rows]

    def __repr__(self):
        return "MatrixL(%d x %d)" % (self.nrows, self.ncols)


def _dot(row, col, field: NumberField) -> FieldElem:
    """sum(a * b) over paired entries given as FieldElem.terms() values.

    The unreduced convolutions of all products add up over one common
    denominator; the high terms are folded mod the modulus once at the end.
    """
    n = field.degree
    acc = [0] * (2 * n - 1)
    den = 1
    for (a, da), (b, db) in zip(row, col):
        if not (a and b):
            continue
        d = da * db
        scale = 1
        if d != den:
            common = lcm(den, d)
            if common != den:
                acc = [x * (common // den) for x in acc]
                den = common
            scale = common // d
        for i, x in a:
            x *= scale
            for j, y in b:
                acc[i + j] += x * y
    out = acc[:n]
    fold_den = field.fold_den
    if fold_den != 1:
        out = [x * fold_den for x in out]
    for c, fold in zip(acc[n:], field.fold_rows):
        if c:
            for i, r in fold:
                out[i] += c * r
    return field.from_numerators(out, den * fold_den)


def char_poly(m: MatrixL):
    """Characteristic polynomial det(u*I - m) by Faddeev-LeVerrier.

    Returns ascending coefficients as FieldElem values (leading entry 1).
    """
    n = m.nrows
    field = m.field
    coeffs = [field.zero] * (n + 1)
    coeffs[n] = field.one
    mk = MatrixL.identity(field, n)
    for k in range(1, n + 1):
        mk = m * mk
        c = mk.trace() * Fraction(-1, k)
        coeffs[n - k] = c
        rows = [list(r) for r in mk.rows]
        for i in range(n):
            rows[i][i] = rows[i][i] + c
        mk = MatrixL(field, rows)
    return coeffs


# --- integer linear algebra -------------------------------------------------

def int_rref(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (rows, pivots, d) with d > 0: the reduced row echelon form of the
    input is rows / d, entry by entry, and pivots lists its pivot columns.
    Each step replaces every other row i by (p * row_i - a_ic * row_p) / q,
    with p the new pivot and q the previous one (Bareiss, Math. Comp. 22,
    1968; Cohen, GTM 138, 2.2); by Sylvester's identity the entries stay
    minors of the input, so every division is exact and no Fraction is made.
    Every pivot row then holds d = the last pivot at its pivot column.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    d = 1
    for col in range(ncols):
        top = len(pivots)
        if top == nrows:
            break
        piv = next((r for r in range(top, nrows) if work[r][col]), None)
        if piv is None:
            continue
        work[top], work[piv] = work[piv], work[top]
        prow = work[top]
        p = prow[col]
        for r in range(nrows):
            if r != top:
                row = work[r]
                f = row[col]
                if f:
                    work[r] = [(p * x - f * y) // d for x, y in zip(row, prow)]
                elif p != d:
                    work[r] = [p * x // d for x in row]
        pivots.append(col)
        d = p
    if d < 0:
        work = [[-x for x in r] for r in work]
        d = -d
    return work, pivots, d


def int_kernel_basis(rows):
    """Basis of the right kernel {x : A x = 0} of an integer matrix, as
    (vectors, d): one integer vector per free column fc of the reduced
    echelon form, standing for the vector / d with 1 at fc and minus
    column fc of the echelon form at the pivots."""
    work, pivots, d = int_rref(rows)
    basis = []
    for fc in range(len(rows[0])):
        if fc not in pivots:
            vec = [d if c == fc else 0 for c in range(len(rows[0]))]
            for r, pc in enumerate(pivots):
                vec[pc] = -work[r][fc]
            basis.append(vec)
    return basis, d


def int_inverse(rows):
    """Inverse of a square integer matrix as (rows, d), meaning rows / d, by
    reducing [A | I]; raises Singular if A is singular."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    work, pivots, d = int_rref(aug)
    if pivots != list(range(n)):
        raise Singular("integer matrix is singular")
    return [r[n:] for r in work], d


# --- Smith normal form -------------------------------------------------------

class SmithForm(Record):
    """Diagonal divisor chain with the unimodular row transform.

    left @ input @ right equals the diagonal matrix padded with zeros for
    some unimodular right, each diagonal entry is nonnegative and divides
    the next, and left has determinant +-1.
    """

    __slots__ = ("diagonal", "left")


def smith_normal_form(matrix) -> SmithForm:
    """Smith normal form of an integer matrix, tracking the row transform."""
    a = [[int(x) for x in row] for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    left = [[int(i == j) for j in range(nr)] for i in range(nr)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    k = 0
    while k < min(nr, nc):
        # move a minimal-magnitude nonzero entry of the submatrix to (k, k)
        pivot = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != k:
            row_swap(k, pivot[0])
        if pivot[1] != k:
            j = pivot[1]
            for r in a:
                r[k], r[j] = r[j], r[k]

        dirty = False
        for i in range(k + 1, nr):
            if a[i][k]:
                q = a[i][k] // a[k][k]
                row_op(i, k, q)
                if a[i][k]:
                    dirty = True
        for j in range(k + 1, nc):
            if a[k][j]:
                q = a[k][j] // a[k][k]
                for r in a:  # col_j -= q * col_k
                    r[j] -= q * r[k]
                if a[k][j]:
                    dirty = True
        if dirty:
            continue  # remainders got smaller; repick the pivot

        # pivot must divide every remaining entry for the divisor chain
        offender = None
        for i in range(k + 1, nr):
            for j in range(k + 1, nc):
                if a[i][j] % a[k][k]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(k, offender, -1)  # pulls the offending row into row k
            continue

        if a[k][k] < 0:
            row_negate(k)
        k += 1

    diag = tuple(a[i][i] for i in range(min(nr, nc)))
    return SmithForm(diagonal=diag, left=tuple(tuple(r) for r in left))

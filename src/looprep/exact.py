"""Exact arithmetic foundation.

Rationals are stdlib fractions.Fraction (already canonical: reduced, positive
denominator, hashable).  On top of that this module provides univariate
polynomials over Q, number field elements Q[theta]/(m), dense matrices over a
number field, rational linear algebra helpers, and the integer Smith normal
form.  Everything is immutable after construction and all operations are pure.

A number field element is stored in one canonical integer form: a tuple of
integer numerators over a positive denominator whose gcd with all numerators
is 1 (Cohen, A Course in Computational Algebraic Number Theory, 4.2).
Equality, hashing, the canonical order, sums, differences, rational
scaling, products and matrix dot products all run on that form.  A product
convolves the operands' numerators, folds the terms of degree >= n back with
a precomputed integer table of theta^n, ..., theta^(2n-2) mod m, and reduces
by one gcd.  FieldElem.coords, the canonical Fraction tuple, is derived from
the form only for serialized forms, reprs and polynomial views.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import Singular, ZeroDivisor


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class PolyQ:
    """Univariate polynomial over Q, coefficients stored ascending in degree.

    The zero polynomial has an empty coefficient tuple; otherwise the leading
    coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    @classmethod
    def x(cls, degree: int = 1) -> "PolyQ":
        return cls([0] * degree + [1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, PolyQ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(out)

    def __neg__(self) -> "PolyQ":
        return PolyQ([-c for c in self.coeffs])

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyQ([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "PolyQ"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = other.degree
        lead = other.coeffs[-1]
        quo = [Fraction(0)] * max(len(rem) - dq, 1)
        while len(rem) - 1 >= dq and any(rem):
            k = len(rem) - 1
            if rem[k] == 0:
                rem.pop()
                continue
            f = rem[k] / lead
            quo[k - dq] = f
            for j in range(dq + 1):
                rem[k - dq + j] -= f * other.coeffs[j]
            rem.pop()
        return PolyQ(quo), PolyQ(rem)

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[0]

    def monic(self) -> "PolyQ":
        if self.is_zero:
            return self
        return self * (1 / self.coeffs[-1])

    def derivative(self) -> "PolyQ":
        return PolyQ([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate by Horner; works for Fraction and FieldElem arguments."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0) if isinstance(x, (int, Fraction)) else x - x
        return acc

    def to_json(self):
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero:
            return "PolyQ(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                u = "u" if i == 1 else "u^%d" % i
                terms.append(u if c == 1 else "%s*%s" % (c, u))
        return "PolyQ(%s)" % " + ".join(terms)


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a: PolyQ, b: PolyQ):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = PolyQ([1]), PolyQ()
    t0, t1 = PolyQ(), PolyQ([1])
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0.is_zero:
        lead = 1 / r0.coeffs[-1]
        r0, s0, t0 = r0 * lead, s0 * lead, t0 * lead
    return r0, s0, t0


class NumberField:
    """The quotient ring Q[theta]/(m) for a monic modulus m of degree >= 1.

    Arithmetic assumes m is irreducible; a reducible modulus is detected at
    the first inversion of a zero divisor (ZeroDivisor).

    fold_rows[k] holds the nonzero (i, c) of theta^(n+k) mod m =
    sum(c * theta^i) / fold_den, for k = 0 .. n-2: all a product needs.
    """

    __slots__ = ("modulus", "degree", "fold_rows", "fold_den")

    def __init__(self, modulus: PolyQ):
        if not isinstance(modulus, PolyQ):
            modulus = PolyQ(modulus)
        if modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if not modulus.is_monic:
            raise ValueError("modulus must be monic")
        n = modulus.degree
        low = [-c for c in modulus.coeffs[:n]]  # theta^n = sum low[i] theta^i
        rows, row = [], low
        for _ in range(n - 1):
            rows.append(row)
            top = row[-1]
            row = [top * low[0]] + [row[i - 1] + top * low[i] for i in range(1, n)]
        den = lcm(*(c.denominator for r in rows for c in r))
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", n)
        object.__setattr__(self, "fold_rows", tuple(
            tuple((i, c.numerator * (den // c.denominator)) for i, c in enumerate(r) if c)
            for r in rows
        ))
        object.__setattr__(self, "fold_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

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

    def elem(self, coords: Iterable) -> "FieldElem":
        """Element from coordinates (any length; reduced mod the modulus)."""
        return self.from_poly(PolyQ(coords))

    def from_poly(self, p: PolyQ) -> "FieldElem":
        r = p % self.modulus
        return FieldElem(self, r.coeffs + (Fraction(0),) * (self.degree - len(r.coeffs)))

    def scalar(self, c) -> "FieldElem":
        if type(c) is not int:
            c = _frac(c)
        return _elem(self, (c.numerator,) + (0,) * (self.degree - 1), c.denominator)

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
        return "NumberField(%r)" % (self.modulus,)


class FieldElem:
    """An element of a NumberField, as a coordinate vector in powers of theta.

    Canonical integer form: coordinate i is nums[i] / den, with exactly
    field.degree integer numerators, den > 0 and gcd(den, *nums) = 1, so equal
    elements have equal forms.  Hashable, so elements can key dictionaries
    and sets, and ordered by < on that form (the lexicographic order of the
    coordinate vectors), so sorted() and min() give canonical results.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, coords):
        """The element with the given rational coordinates."""
        if len(coords) != field.degree:
            raise ValueError("coordinate length must equal the field degree")
        coords = [_frac(c) for c in coords]
        den = lcm(*(c.denominator for c in coords))
        _set(self, "field", field)
        _set(self, "nums", tuple(c.numerator * (den // c.denominator) for c in coords))
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

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
            return self.field.scalar(other)
        return None

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            if not isinstance(other, (int, Fraction)):
                return False
            other = self.field.scalar(other)
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
        """Multiplicative inverse via extended Euclid against the modulus.

        Raises ZeroDivisor for zero and for zero divisors (the runtime guard
        against a reducible modulus).
        """
        if not self:
            raise ZeroDivisor("inverse of zero")
        g, s, _ = poly_xgcd(self.as_poly(), self.field.modulus)
        if g.degree != 0:
            raise ZeroDivisor(
                "zero divisor: gcd with modulus is %r (reducible modulus)" % g
            )
        return self.field.from_poly(s)

    def terms(self):
        """(nonzero (i, numerator) pairs, den) with coords[i] = numerator / den.

        den is the least common denominator of the coordinates.
        """
        return tuple((i, x) for i, x in enumerate(self.nums) if x), self.den

    def as_poly(self) -> PolyQ:
        return PolyQ(self.coords)

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


class MatrixL:
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

    def __setattr__(self, name, value):
        raise AttributeError("MatrixL is immutable")

    @classmethod
    def identity(cls, field: NumberField, n: int) -> "MatrixL":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, field: NumberField, entries) -> "MatrixL":
        entries = list(entries)
        zero = field.zero
        return cls(
            field,
            [[entries[i] if i == j else zero for j in range(len(entries))]
             for i in range(len(entries))],
        )

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

    def __add__(self, other: "MatrixL") -> "MatrixL":
        return MatrixL(
            self.field,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "MatrixL") -> "MatrixL":
        return MatrixL(
            self.field,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

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


# --- rational linear algebra -------------------------------------------------

def frac_rref(rows):
    """Row-reduce a rational matrix in place style; returns (rref, pivots)."""
    work = [[_frac(x) for x in r] for r in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if work[r][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        f = work[row][col]
        work[row] = [x / f for x in work[row]]
        for r in range(nrows):
            if r != row and work[r][col]:
                g = work[r][col]
                work[r] = [a - g * b for a, b in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return work, pivots


def frac_rank(rows) -> int:
    if not rows:
        return 0
    return len(frac_rref(rows)[1])


def frac_kernel_basis(rows):
    """Basis of the right kernel {x : A x = 0} of a rational matrix.

    The matrix is given as rows; returns a list of coordinate tuples.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = frac_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(tuple(vec))
    return basis


def frac_mat_inverse(rows):
    """Exact inverse of a square rational matrix; raises Singular."""
    n = len(rows)
    aug = [[_frac(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    rref, pivots = frac_rref(aug)
    if pivots != list(range(n)):
        raise Singular("rational matrix is singular")
    return [tuple(row[n:]) for row in rref]


# --- Smith normal form -------------------------------------------------------

@dataclass(frozen=True)
class SmithForm:
    """Diagonal divisor chain with unimodular transforms.

    left @ input @ right equals the diagonal matrix padded with zeros, each
    diagonal entry is nonnegative and divides the next, and both transforms
    have determinant +-1.
    """

    diagonal: tuple
    left: tuple
    right: tuple


def _int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form of an integer matrix with transform tracking."""
    a = [[int(x) for x in row] for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    left = [[int(i == j) for j in range(nr)] for i in range(nr)]
    right = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in right:
            r[i] -= q * r[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

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
            col_swap(k, pivot[1])

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
                col_op(j, k, q)
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
    return SmithForm(
        diagonal=diag,
        left=tuple(tuple(r) for r in left),
        right=tuple(tuple(r) for r in right),
    )

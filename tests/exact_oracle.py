"""Oracle for looprep.exact's integer linear algebra: the Fraction algorithms
the library ran before its fraction-free elimination.

frac_rref is a Gauss-Jordan on Fraction entries and poly_xgcd an extended
Euclid on Fraction polynomials.  frac_rank, frac_kernel_basis and
frac_mat_inverse are their wrappers as the library had them.  Tests compare
int_rref and its wrappers, and FieldElem.inverse, against them.
"""

from __future__ import annotations

from fractions import Fraction

from looprep.errors import Singular
from looprep.exact import PolyQ


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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


def xgcd_inverse(a):
    """The inverse of a field element by poly_xgcd against the modulus, or
    None for a zero divisor."""
    g, s, _ = poly_xgcd(a.as_poly(), a.field.modulus)
    if g.degree != 0:
        return None
    return a.field.from_poly(s)


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

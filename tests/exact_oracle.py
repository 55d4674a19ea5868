"""Oracle for looprep.exact: the Fraction algorithms the library ran before
its integer forms.

Polynomials over Q are lists of ascending Fraction coefficients without
trailing zeros (the zero polynomial is []).  poly_mul, poly_divmod and
poly_xgcd are schoolbook product, long division and extended Euclid on
them, and poly_reduce reduces a coefficient list mod a field's modulus by
that division.  frac_rref is a Gauss-Jordan on Fraction entries, and
frac_rank, frac_kernel_basis and frac_mat_inverse are its wrappers as the
library had them.  Tests compare NumberField.elem, products, int_rref and
its wrappers, FieldElem.inverse and the square-free check of build_context
against them.
"""

from __future__ import annotations

from fractions import Fraction

from looprep.errors import Singular
from looprep.exact import FieldElem


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def poly(coeffs):
    """Fraction coefficients with the trailing zeros dropped."""
    out = [_frac(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def poly_add(a, b):
    a, b = poly(a), poly(b)
    if len(a) < len(b):
        a, b = b, a
    return poly([x + y for x, y in zip(a, b)] + a[len(b):])


def poly_scale(a, c):
    return poly([x * c for x in a])


def poly_mul(a, b):
    a, b = poly(a), poly(b)
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(out)


def poly_divmod(a, b):
    """(quotient, remainder) of a by a nonzero b, by long division."""
    rem, b = poly(a), poly(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        quo[k] = f = rem[-1] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= f * y
        rem = poly(rem)
    return poly(quo), rem


def poly_xgcd(a, b):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = poly(a), poly(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(s0, poly_scale(poly_mul(q, s1), -1))
        t0, t1 = t1, poly_add(t0, poly_scale(poly_mul(q, t1), -1))
    if r0:
        lead = 1 / r0[-1]
        r0, s0, t0 = poly_scale(r0, lead), poly_scale(s0, lead), poly_scale(t0, lead)
    return r0, s0, t0


def poly_reduce(field, coeffs):
    """The element of a coefficient list of any length: its remainder by
    the modulus."""
    r = poly_divmod(coeffs, field.modulus)[1]
    return FieldElem(field, r + [Fraction(0)] * (field.degree - len(r)))


def xgcd_inverse(a):
    """The inverse of a field element by poly_xgcd against the modulus, or
    None for a zero divisor."""
    g, s, _ = poly_xgcd(a.coords, a.field.modulus)
    if len(g) != 1:
        return None
    return poly_reduce(a.field, s)


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

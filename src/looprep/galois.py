"""Declared Galois number fields L/Q with explicit automorphism data.

The caller declares the modulus, the automorphism images g(theta), and a
subgroup H; the library verifies every group and fixed-field invariant rather
than discovering anything.  The subgroup cuts out the base field K = L^H.
Coefficients follow the library's one rational rule (``exact.rational``).
Set-up runs one chain of powers g(theta)^0 .. g(theta)^n per image: the
first n are the columns of g's matrix on the power basis, and the whole
chain checks that g(theta) is a root of the modulus.

``GaloisContext.apply`` is a sparse integer product on each call.  Spectral
points, whose images the l-weight layer needs again and again, go through
``point_images`` instead: a table that holds each point's images under the
whole group, filled one orbit at a time, so that conjugating an l-weight or a
spectral character is a relabeling of its points.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import (
    BadSubgroup,
    FixedFieldTooBig,
    NotARoot,
    NotClosed,
    NotSquareFree,
    WrongOrder,
    ZeroDivisor,
)
from .exact import FieldElem, NumberField, _dot, int_kernel_basis, rational
from .record import Immutable


class GaloisContext(Immutable):
    """A validated Galois field L/Q with group G and subgroup H.

    Group elements are indices into ``images``; element 0 is the identity.
    ``table[g][h]`` is the index of the composition g o h (apply h first).
    ``aut_columns[g]`` is (columns, den): columns[k] lists the nonzero
    (i, c) with g(theta)^k = sum(c * theta^i) / den, the integer form of
    column k of g's matrix on the power basis.  ``k_basis`` is a Q-basis of
    the fixed field K of H, and ``subgroup_generators`` a set of elements of
    H that generates H (empty when H is trivial).  The table of spectral
    points behind ``point_images`` is not part of the context's value:
    equality and hashing ignore it.
    """

    __slots__ = ("field", "images", "aut_columns", "table", "subgroup", "k_basis",
                 "subgroup_generators", "_point_rows")

    def __init__(self, field, images, aut_columns, table, subgroup, k_basis,
                 subgroup_generators):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "aut_columns", aut_columns)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "k_basis", k_basis)
        object.__setattr__(self, "subgroup_generators", subgroup_generators)
        object.__setattr__(self, "_point_rows", {})

    # -- basic data

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def k_degree(self) -> int:
        """Degree [K:Q] of the fixed field of H."""
        return self.order // len(self.subgroup)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GaloisContext)
            and self.field == other.field
            and self.images == other.images
            and self.subgroup == other.subgroup
        )

    def __hash__(self):
        return hash((self.field, self.images, self.subgroup))

    # -- actions

    def apply(self, g: int, a: FieldElem) -> FieldElem:
        """Apply automorphism g to a field element (a ring homomorphism)."""
        return _act(self.field, self.aut_columns[g], a)

    def point_images(self, p: FieldElem):
        """The tuple (g(p) for g in G) of a spectral point, indexed by group
        element.

        The first point of an orbit costs one sparse product per element;
        every other member q = g(p) gets its row from the composition table,
        since h(q) = (h o g)(p).  Only spectral points belong here: matrix
        entries and other one-off elements go through ``apply``.
        """
        rows = self._point_rows
        row = rows.get(p)
        if row is None:
            row = tuple(_act(self.field, cols, p) for cols in self.aut_columns)
            for g, q in enumerate(row):
                if q not in rows:
                    rows[q] = tuple(row[table_h[g]] for table_h in self.table)
            row = rows[p]
        return row

    def orbit(self, subgroup, a: FieldElem):
        """The set {g(a) : g in subgroup}, sorted canonically."""
        seen = {self.apply(g, a) for g in subgroup}
        return tuple(sorted(seen))

    def fixed_space_basis(self, subgroup):
        """Field elements forming a Q-basis of {v : g(v) = v for g in S}."""
        return _fixed_space_basis(self.field, self.aut_columns, self.table, subgroup)

    # -- serialization

    def to_json(self):
        """Modulus and images as ascending coefficient strings, the images
        without trailing zeros."""
        images = []
        for img in self.images:
            coeffs = img.to_json()
            while coeffs and coeffs[-1] == "0":
                coeffs.pop()
            images.append(coeffs)
        return {
            "modulus": [str(c) for c in self.field.modulus],
            "automorphisms": images,
            "subgroup": list(self.subgroup),
        }

    def __repr__(self):
        return "GaloisContext(deg %d, |H| = %d)" % (self.order, len(self.subgroup))


def build_context(modulus, aut_images, subgroup=None) -> GaloisContext:
    """Validate modulus, automorphism images, and subgroup; build the context.

    The modulus and the images g(theta), one for each group element, are
    lists of ascending rational coefficients (``exact.rational``); an image
    may be longer than the degree and is reduced mod the modulus.  Element 0
    must be the identity.  subgroup is a list of int element indices
    (default: the whole group, so K = Q).
    """
    # a coefficient rational() rejects keeps its ValueError; only the shape
    # of the modulus is a WrongOrder
    modulus = [rational(c) for c in modulus]
    try:
        field = NumberField(modulus)
    except ValueError:
        raise WrongOrder("modulus must be monic of degree >= 1") from None
    # m is square-free exactly when gcd(m, m') = 1, that is when m'(theta) is
    # a unit of Q[theta]/(m), whose multiplication matrix inverse() solves on
    try:
        field.elem([k * c for k, c in enumerate(field.modulus)][1:]).inverse()
    except ZeroDivisor:
        raise NotSquareFree("modulus shares a factor with its derivative") from None

    n = field.degree
    images = tuple(field.elem(p) for p in aut_images)
    if len(images) != n:
        raise WrongOrder("group order %d but modulus degree %d" % (len(images), n))
    if len(set(images)) != n:
        raise WrongOrder("automorphism images are not distinct")
    if images[0] != field.gen:
        raise NotClosed("element 0 must be the identity automorphism")

    # one chain of powers g(theta)^0 .. g(theta)^n per image: the first n are
    # the columns of g's matrix on the power basis, and m(g(theta)), the
    # rational combination sum m_k g(theta)^k of the whole chain, must vanish
    m_den = lcm(*(c.denominator for c in field.modulus))
    m_nums = [c.numerator * (m_den // c.denominator) for c in field.modulus]
    aut_columns = []
    for img in images:
        step = img.terms()
        terms = [field.one.terms()]
        for _ in range(n):
            terms.append(_dot((terms[-1],), (step,), field).terms())
        chain_den = lcm(*(d for _, d in terms))
        value = [0] * n
        for m_k, (col, d) in zip(m_nums, terms):
            for i, c in col:
                value[i] += m_k * c * (chain_den // d)
        if any(value):
            raise NotARoot("image %r is not a root of the modulus" % (img,))
        del terms[n]
        den = lcm(*(d for _, d in terms))
        aut_columns.append((
            tuple(tuple((i, c * (den // d)) for i, c in col) for col, d in terms),
            den,
        ))
    aut_columns = tuple(aut_columns)

    index = {img: i for i, img in enumerate(images)}
    table = []
    for g in range(n):
        row = []
        for h in range(n):
            composed = index.get(_act(field, aut_columns[g], images[h]))
            if composed is None:
                raise NotClosed("composition of elements %d and %d leaves the set" % (g, h))
            row.append(composed)
        if sorted(row) != list(range(n)):
            raise NotClosed("element %d is not invertible in the declared set" % g)
        table.append(tuple(row))
    table = tuple(table)

    subgroup = tuple(range(n) if subgroup is None else subgroup)
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in subgroup):
        raise BadSubgroup("subgroup entries must be int element indices")
    subgroup = tuple(sorted(set(subgroup)))
    if not subgroup or subgroup[0] != 0 or subgroup[-1] >= n or subgroup[0] < 0:
        raise BadSubgroup("subgroup must contain the identity and valid indices")
    sub_set = set(subgroup)
    for g in subgroup:
        for h in subgroup:
            if table[g][h] not in sub_set:
                raise BadSubgroup("subgroup is not closed under composition")

    if len(_fixed_space_basis(field, aut_columns, table, range(n))) != 1:
        raise FixedFieldTooBig("fixed space of the full group has dimension > 1")
    k_basis = _fixed_space_basis(field, aut_columns, table, subgroup)
    if len(k_basis) != n // len(subgroup):
        raise FixedFieldTooBig("fixed space of H has dimension != |G|/|H|")
    return GaloisContext(field, images, aut_columns, table, subgroup, k_basis,
                         _generators(table, subgroup))


def _fixed_space_basis(field, aut_columns, table, subgroup):
    """Field elements forming a Q-basis of {v : g(v) = v for g in subgroup}.

    A group fixes what its generators fix: their rows of M_g - I span the
    same row space as those of all its elements, so only generators are
    solved on.  The rows of g's equations are the integer rows of
    den * (M_g - I); row scaling leaves the reduced echelon form, and so the
    basis, unchanged.
    """
    n = field.degree
    rows = []
    for g in _generators(table, subgroup):
        columns, den = aut_columns[g]
        block = [[-den if i == k else 0 for k in range(n)] for i in range(n)]
        for k, col in enumerate(columns):
            for i, c in col:
                block[i][k] += c
        rows += block
    if not rows:
        rows = [[0] * n]
    basis, d = int_kernel_basis(rows)
    return tuple(field.from_numerators(vec, d) for vec in basis)


def _generators(table, subgroup):
    """Elements of the subgroup that generate it, picked greedily in order:
    each is the least element outside the span of those before it."""
    gens, span = [], {0}
    for h in subgroup:
        if h not in span:
            gens.append(h)
            span, frontier = {0}, [0]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = table[g][x]
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
    return tuple(gens)


def _act(field, aut_columns, a: FieldElem) -> FieldElem:
    """Sparse integer product of an automorphism's columns with a's numerators."""
    columns, den = aut_columns
    nums, a_den = a.terms()
    out = [0] * field.degree
    for k, x in nums:
        for i, c in columns[k]:
            out[i] += x * c
    return field.from_numerators(out, den * a_den)


def context_from_json(data) -> GaloisContext:
    return build_context(data["modulus"], data["automorphisms"], data.get("subgroup"))


# -- stock contexts ------------------------------------------------------------

def rational_context() -> GaloisContext:
    """The trivial context L = K = Q (modulus theta, one automorphism)."""
    return build_context([0, 1], [[0, 1]], [0])


def _cyclotomic_poly(n: int):
    """Ascending integer coefficients of the n-th cyclotomic polynomial:
    x^n - 1 divided exactly by the monic Phi_d of each proper divisor d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            divisor = _cyclotomic_poly(d)
            top = len(divisor) - 1
            quotient = [0] * (len(poly) - top)
            for k in range(len(quotient) - 1, -1, -1):
                c = quotient[k] = poly[k + top]
                for j, y in enumerate(divisor):
                    poly[k + j] -= c * y
            poly = quotient
    return poly


def cyclotomic_context(n: int, subgroup=None) -> GaloisContext:
    """Context for the n-th cyclotomic field, group (Z/n)* via theta -> theta^k.

    Units are listed in increasing order, so element 0 (k = 1) is the
    identity.  subgroup picks indices into that list; default is the whole
    group (K = Q).
    """
    if n < 3:
        raise ValueError("use rational_context for degree-one fields")
    units = [k for k in range(1, n) if gcd(k, n) == 1]
    return build_context(_cyclotomic_poly(n), [[0] * k + [1] for k in units], subgroup)


def gaussian_context(subgroup=None) -> GaloisContext:
    """L = Q(i) with complex conjugation; default K = Q."""
    return cyclotomic_context(4, subgroup)

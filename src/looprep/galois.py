"""Declared Galois number fields L/Q with explicit automorphism data.

The caller declares the modulus, the automorphism images g(theta), and a
subgroup H; the library verifies every group and fixed-field invariant rather
than discovering anything.  The subgroup cuts out the base field K = L^H.

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
)
from .exact import (
    FieldElem,
    NumberField,
    PolyQ,
    frac_kernel_basis,
    poly_gcd,
)


class GaloisContext:
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

    def __setattr__(self, name, value):
        raise AttributeError("GaloisContext is immutable")

    # -- basic data

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def full_group(self):
        return tuple(range(self.order))

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

    # -- group structure

    def compose(self, g: int, h: int) -> int:
        return self.table[g][h]

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

    def stabilizer(self, subgroup, a: FieldElem):
        """Indices in subgroup fixing a; always contains the identity."""
        return tuple(g for g in subgroup if self.apply(g, a) == a)

    def fixed_space_dim(self, subgroup) -> int:
        """Q-dimension of the simultaneous fixed space of the subgroup."""
        return len(self.fixed_space_basis(subgroup))

    def fixed_space_basis(self, subgroup):
        """Field elements forming a Q-basis of {v : g(v) = v for g in S}."""
        return _fixed_space_basis(self.field, self.aut_columns, subgroup)

    # -- serialization

    def to_json(self):
        return {
            "modulus": self.field.modulus.to_json(),
            "automorphisms": [img.as_poly().to_json() for img in self.images],
            "subgroup": list(self.subgroup),
        }

    def __repr__(self):
        return "GaloisContext(deg %d, |H| = %d)" % (self.order, len(self.subgroup))


def build_context(modulus, aut_images, subgroup=None) -> GaloisContext:
    """Validate modulus, automorphism images, and subgroup; build the context.

    aut_images are polynomials in theta giving g(theta) for each group
    element; element 0 must be the identity.  subgroup is a list of element
    indices (default: the whole group, so K = Q).
    """
    modulus = modulus if isinstance(modulus, PolyQ) else PolyQ(modulus)
    if modulus.degree < 1 or not modulus.is_monic:
        raise WrongOrder("modulus must be monic of degree >= 1")
    if poly_gcd(modulus, modulus.derivative()).degree != 0:
        raise NotSquareFree("modulus shares a factor with its derivative")

    field = NumberField(modulus)
    n = field.degree
    images = tuple(
        field.from_poly(p if isinstance(p, PolyQ) else PolyQ(p)) for p in aut_images
    )
    if len(images) != n:
        raise WrongOrder("group order %d but modulus degree %d" % (len(images), n))
    if len(set(images)) != n:
        raise WrongOrder("automorphism images are not distinct")
    if images[0] != field.gen:
        raise NotClosed("element 0 must be the identity automorphism")
    for img in images:
        if modulus(img):
            raise NotARoot("image %r is not a root of the modulus" % (img,))

    # matrix of each automorphism on the power basis (column k = g(theta)^k)
    aut_columns = []
    for img in images:
        powers = [field.one]
        for _ in range(n - 1):
            powers.append(powers[-1] * img)
        terms = [p.terms() for p in powers]
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

    subgroup = tuple(sorted(set(int(i) for i in (subgroup if subgroup is not None else range(n)))))
    if not subgroup or subgroup[0] != 0 or subgroup[-1] >= n or subgroup[0] < 0:
        raise BadSubgroup("subgroup must contain the identity and valid indices")
    sub_set = set(subgroup)
    for g in subgroup:
        for h in subgroup:
            if table[g][h] not in sub_set:
                raise BadSubgroup("subgroup is not closed under composition")

    # a group fixes what its generators fix: their rows of M_g - I span the
    # same row space as those of all its elements, so the basis is the same
    if len(_fixed_space_basis(field, aut_columns, _generators(table, range(n)))) != 1:
        raise FixedFieldTooBig("fixed space of the full group has dimension > 1")
    generators = _generators(table, subgroup)
    k_basis = _fixed_space_basis(field, aut_columns, generators)
    if len(k_basis) != n // len(subgroup):
        raise FixedFieldTooBig("fixed space of H has dimension != |G|/|H|")
    return GaloisContext(field, images, aut_columns, table, subgroup, k_basis,
                         generators)


def _fixed_space_basis(field, aut_columns, subgroup):
    """Field elements forming a Q-basis of {v : g(v) = v for g in subgroup}.

    The rows of g's equations are the integer rows of den * (M_g - I); row
    scaling leaves the reduced echelon form, and so the basis, unchanged.
    """
    n = field.degree
    rows = []
    for g in subgroup:
        columns, den = aut_columns[g]
        block = [[-den if i == k else 0 for k in range(n)] for i in range(n)]
        for k, col in enumerate(columns):
            for i, c in col:
                block[i][k] += c
        rows += block
    if not rows:
        rows = [[0] * n]
    return tuple(FieldElem(field, vec) for vec in frac_kernel_basis(rows))


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
    return build_context(
        PolyQ(data["modulus"]),
        [PolyQ(p) for p in data["automorphisms"]],
        data.get("subgroup"),
    )


# -- stock contexts ------------------------------------------------------------

def rational_context() -> GaloisContext:
    """The trivial context L = K = Q (modulus theta, one automorphism)."""
    return build_context(PolyQ([0, 1]), [PolyQ([0, 1])], [0])


def _cyclotomic_poly(n: int) -> PolyQ:
    poly = PolyQ([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = poly // _cyclotomic_poly(d)
    return poly


def cyclotomic_context(n: int, subgroup=None) -> GaloisContext:
    """Context for the n-th cyclotomic field, group (Z/n)* via theta -> theta^k.

    Units are listed in increasing order, so element 0 (k = 1) is the
    identity.  subgroup picks indices into that list; default is the whole
    group (K = Q).
    """
    if n < 3:
        raise ValueError("use rational_context for degree-one fields")
    modulus = _cyclotomic_poly(n)
    field = NumberField(modulus)
    units = [k for k in range(1, n) if gcd(k, n) == 1]
    images = [(field.gen ** k).as_poly() for k in units]
    return build_context(modulus, images, subgroup)


def gaussian_context(subgroup=None) -> GaloisContext:
    """L = Q(i) with complex conjugation; default K = Q."""
    return cyclotomic_context(4, subgroup)

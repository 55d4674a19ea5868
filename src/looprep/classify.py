"""Classification of irreducible modules and tensor decomposition over K.

The key mechanism is Galois descent: over the algebraic closure every
irreducible factors into evaluation modules at the spectral points, so tensor
products decompose pointwise; descending to K groups the resulting classes
into H-orbits, whose (necessarily constant) multiplicities give the K-level
answer.  Dimensions obey dim_K = degree * dim_F.

H permutes the orbit pairs (a', b') of a tensor product, so descent needs the
pointwise product of one pair per H-orbit of pairs only: with a fixed, b'
runs over the Stab(a)-orbits on the orbit of b (orbit-stabilizer).
"""

from __future__ import annotations

from .errors import DescentInconsistency, NotDominant, UnsupportedType
from .lweights import LWeight
from .record import Record


class IrrClass(Record):
    """A conjugacy class of dominant l-weights with its dimension data: the
    key (an LWeight), the orbit, the degree, the weight, dim_f and dim_k."""

    __slots__ = ("key", "orbit", "degree", "weight", "dim_f", "dim_k")

    def to_json(self):
        return {
            "class": self.key.to_json(),
            "degree": self.degree,
            "weight": list(self.weight),
            "dimF": self.dim_f,
            "dimK": self.dim_k,
        }


class Decomposition(Record):
    """Sorted multiset of irreducible classes with multiplicities: parts is
    a tuple of (IrrClass, multiplicity)."""

    __slots__ = ("parts",)

    @property
    def total_dim(self) -> int:
        return sum(m * c.dim_k for c, m in self.parts)

    def to_json(self):
        return [dict(cls.to_json(), mult=m) for cls, m in self.parts]


def classify(lweight: LWeight) -> IrrClass:
    """Classification record of the irreducible module V_K for a dominant
    l-weight: orbit, degree, weight, and both dimensions.

    dim_F multiplies the Weyl dimensions of the per-point weights (the module
    is a tensor product of evaluation modules at distinct points); dim_K is
    degree * dim_F.
    """
    if not lweight.is_dominant:
        raise NotDominant("classification requires a dominant l-weight")
    orbit, degree = lweight.conjugacy_class()
    dim_f = _dim_f(lweight)
    return IrrClass(
        key=orbit[0],
        orbit=orbit,
        degree=degree,
        weight=lweight.wt(),
        dim_f=dim_f,
        dim_k=degree * dim_f,
    )


def dim_weyl_f(lweight: LWeight) -> int:
    """Dimension over the closure of the Weyl module, type A1 only: 2^wt."""
    if lweight.rs.lie_type != "A1":
        raise UnsupportedType("Weyl module dimensions are only pinned for A1")
    if not lweight.is_dominant:
        raise NotDominant("Weyl modules require a dominant l-weight")
    return 2 ** lweight.wt()[0]


def dim_weyl_k(lweight: LWeight) -> int:
    """Weyl module dimension over K: degree * dim_weyl_f."""
    return lweight.degree() * dim_weyl_f(lweight)


def compositum_degree(a: LWeight, b: LWeight) -> int:
    """Degree over K of the field generated by both coefficient tuples.

    Computed as the index of the intersection of the two H-stabilizers; the
    chain deg(ab) <= result <= deg(a)*deg(b) always holds.
    """
    a._require_compatible(b)
    stab = set(a.stabilizer()).intersection(b.stabilizer())
    return len(a.ctx.subgroup) // len(stab)


def tp_irreducible_criterion(a: LWeight, b: LWeight) -> bool:
    """Whether V_K(a) (x) V_K(b) is irreducible (equal to V_K(ab)).

    Requires relatively prime factors and the multiplicative degree equation
    deg(ab) = deg(a) * deg(b).
    """
    if not (a.is_dominant and b.is_dominant):
        raise NotDominant("criterion requires dominant l-weights")
    return a.relatively_prime(b) and (a * b).degree() == a.degree() * b.degree()


def _dim_f(lweight: LWeight) -> int:
    """Product of the Weyl dimensions of the per-point weights."""
    dim_f = 1
    for point in lweight.points():
        dim_f *= lweight.rs.weyl_dim(lweight.point_weight(point))
    return dim_f


def _tensor_f_level(a: LWeight, b: LWeight):
    """Decomposition of V_F(a) (x) V_F(b) as a dict l-weight -> multiplicity.

    Shared spectral points decompose by the simple-algebra Clebsch-Gordan
    rule; distinct points multiply freely.  Partial products are tuples of
    factors in point order, so each constituent is built once, at the end.
    """
    rs = a.rs
    points = sorted(set(a.points()) | set(b.points()))
    result = {(): 1}
    for point in points:
        wa = a.point_weight(point)
        wb = b.point_weight(point)
        if any(wa) and any(wb):
            local = rs.tensor_decompose(wa, wb)
        else:
            fixed = wa if any(wa) else wb
            local = [(fixed, 1)] if any(fixed) else []
        if not local:
            continue
        pieces = [(tuple(((node, point), e) for node, e in enumerate(weight) if e), m)
                  for weight, m in local]
        merged = {}
        for partial, mult in result.items():
            for piece, m in pieces:
                key = partial + piece
                merged[key] = merged.get(key, 0) + mult * m
        result = merged
    return {LWeight._unchecked(a.ctx, rs, dict(key)): m for key, m in result.items()}


def tensor_decompose_k(a: LWeight, b: LWeight) -> Decomposition:
    """Decompose V_K(a) (x) V_K(b) into irreducible classes over K.

    Base change is multiplicity-free across each orbit in characteristic
    zero, so the product over K splits over the closure into the tensor
    products V(a') (x) V(b') of all orbit pairs, and regrouping their
    constituents into H-orbits descends the multiplicities to K.  H permutes
    the pairs, so only one pair per H-orbit is decomposed: (a, b') for b' in
    one representative per Stab(a)-orbit on the orbit of b, weighted by the
    pair orbit's size |O_a| * |Stab(a) b'|.  A class's weighted sum is its
    multiplicity times its degree.  Certificate: every such sum must divide
    exactly, and the dimensions must add up to dim_K(a) * dim_K(b);
    otherwise ``DescentInconsistency`` is raised.
    """
    a._require_compatible(b)
    if not (a.is_dominant and b.is_dominant):
        raise NotDominant("tensor decomposition requires dominant l-weights")
    stab_a = a.stabilizer()
    size_a = len(a.ctx.subgroup) // len(stab_a)
    orbit_b, _ = b.conjugacy_class()
    by_member = {}  # constituent -> [its IrrClass, weighted sum], one list per class
    entries = []
    seen = set()
    for bp in orbit_b:
        if bp in seen:
            continue
        pair_orbit = {bp.conjugate(s) for s in stab_a}
        seen |= pair_orbit
        weight = size_a * len(pair_orbit)
        for lw, m in _tensor_f_level(a, bp).items():
            entry = by_member.get(lw)
            if entry is None:
                cls = classify(lw)
                entry = [cls, 0]
                entries.append(entry)
                by_member.update(dict.fromkeys(cls.orbit, entry))
            entry[1] += weight * m

    parts = []
    for cls, total in entries:
        mult, rest = divmod(total, cls.degree)
        if rest or mult <= 0:
            raise DescentInconsistency(
                "class of %r has weighted multiplicity %d over degree %d"
                % (cls.key, total, cls.degree)
            )
        parts.append((cls, mult))
    parts.sort(key=lambda part: part[0].key.sort_key())
    dec = Decomposition(parts=tuple(parts))
    expected = size_a * _dim_f(a) * len(orbit_b) * _dim_f(b)
    if dec.total_dim != expected:
        raise DescentInconsistency(
            "constituents have dimension %d over K, the product %d" % (dec.total_dim, expected)
        )
    return dec

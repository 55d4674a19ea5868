"""Classification of irreducible modules and tensor decomposition over K.

The key mechanism is Galois descent: over the algebraic closure every
irreducible factors into evaluation modules at the spectral points, so tensor
products decompose pointwise; descending to K groups the resulting classes
into H-orbits, whose (necessarily constant) multiplicities give the K-level
answer.  Dimensions obey dim_K = degree * dim_F.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DescentInconsistency, NotDominant, UnsupportedType
from .lweights import LWeight


@dataclass(frozen=True)
class IrrClass:
    """A conjugacy class of dominant l-weights with its dimension data."""

    key: LWeight
    orbit: tuple
    degree: int
    weight: tuple
    dim_f: int
    dim_k: int

    def to_json(self):
        return {
            "class": self.key.to_json(),
            "degree": self.degree,
            "weight": list(self.weight),
            "dimF": self.dim_f,
            "dimK": self.dim_k,
        }


@dataclass(frozen=True)
class Decomposition:
    """Sorted multiset of irreducible classes with multiplicities."""

    parts: tuple  # of (IrrClass, multiplicity)

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
    dim_f = 1
    for point in lweight.points():
        dim_f *= lweight.rs.weyl_dim(lweight.point_weight(point))
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


def _tensor_f_level(a: LWeight, b: LWeight):
    """Decomposition of V_F(a) (x) V_F(b) as a dict l-weight -> multiplicity.

    Shared spectral points decompose by the simple-algebra Clebsch-Gordan
    rule; distinct points multiply freely.
    """
    rs = a.rs
    points = sorted(set(a.points()) | set(b.points()))
    result = {LWeight.identity(a.ctx, rs): 1}
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
        merged = {}
        for partial, mult in result.items():
            for weight, m in local:
                piece = LWeight(
                    a.ctx, rs,
                    {(node, point): e for node, e in enumerate(weight) if e},
                )
                key = partial * piece
                merged[key] = merged.get(key, 0) + mult * m
        result = merged
    return result


def tensor_decompose_k(a: LWeight, b: LWeight) -> Decomposition:
    """Decompose V_K(a) (x) V_K(b) into irreducible classes over K.

    Base change is multiplicity-free across each orbit in characteristic
    zero, so the product over K splits over the closure into the tensor
    products of all orbit pairs; those decompose pointwise, and regrouping
    the constituents into H-orbits descends the multiplicities to K.  Each
    orbit is classified once and taken out of the F-level multiplicities
    whole; a member missing from them counts as multiplicity 0.
    """
    a._require_compatible(b)
    if not (a.is_dominant and b.is_dominant):
        raise NotDominant("tensor decomposition requires dominant l-weights")
    orbit_a, _ = a.conjugacy_class()
    orbit_b, _ = b.conjugacy_class()
    f_mults = {}
    for ap in orbit_a:
        for bp in orbit_b:
            for lw, m in _tensor_f_level(ap, bp).items():
                f_mults[lw] = f_mults.get(lw, 0) + m

    parts = []
    while f_mults:
        cls = classify(next(iter(f_mults)))
        values = {f_mults.pop(member, 0) for member in cls.orbit}
        if len(values) != 1 or 0 in values:
            raise DescentInconsistency(
                "orbit of %r has non-constant multiplicities %r" % (cls.key, values)
            )
        parts.append((cls, values.pop()))
    parts.sort(key=lambda part: part[0].key.sort_key())
    return Decomposition(parts=tuple(parts))

"""The l-weight group in factored Drinfeld form.

An l-weight assigns to each Dynkin node a rational function with constant
term 1, stored here only through its factorization: a finitely supported map
(node, nonzero spectral point in L) -> integer exponent.  Dominant l-weights
(all exponents positive) are honest polynomial tuples and parameterize the
irreducible modules; negative exponents give the rest of the group.

The flagship field setup K = R, F = C is realized as K = Q, L = Q(i) with H
the full group: every quantity computed here (orbit sizes, degrees, descent
multiplicities, dimensions) depends only on the orbit structure {a, conj(a)},
which is identical.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import ContextMismatch, NotDominant
from .exact import FieldElem
from .galois import GaloisContext
from .roots import RootSystem


class LWeight:
    """Finitely supported (node, point) -> exponent map over a Galois context.

    Node indices are 0-based positions in the Bourbaki ordering of the
    declared root system (the JSON interface is 1-based).  Points are nonzero
    field elements; zero exponents are never stored.
    """

    __slots__ = ("ctx", "rs", "factors")

    def __init__(self, ctx: GaloisContext, rs: RootSystem, factors=None):
        clean = {}
        for (node, point), exp in (factors or {}).items():
            exp = int(exp)
            if exp == 0:
                continue
            if not isinstance(point, FieldElem) or point.field != ctx.field:
                raise ValueError("spectral points must be elements of L")
            if not point:
                raise ValueError("spectral points must be nonzero")
            if not 0 <= int(node) < rs.rank:
                raise ValueError("node index out of range")
            key = (int(node), point)
            clean[key] = clean.get(key, 0) + exp
        clean = {k: e for k, e in clean.items() if e}
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "factors", clean)

    @classmethod
    def _unchecked(cls, ctx, rs, factors):
        """An l-weight on factors whose validity is inherited: nonzero int
        exponents at in-range nodes and distinct nonzero points of L.  Only
        for products, powers and conjugates of validated l-weights (an
        automorphism maps distinct nonzero points to distinct nonzero
        points); callers build everything else through ``LWeight(...)``."""
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "factors", factors)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LWeight is immutable")

    @classmethod
    def identity(cls, ctx, rs):
        return cls(ctx, rs)

    @classmethod
    def single(cls, ctx, rs, node, point, exp=1):
        """The l-weight (1 - point*u)^exp concentrated at one node."""
        return cls(ctx, rs, {(node, point): exp})

    # -- structure

    @property
    def is_identity(self) -> bool:
        return not self.factors

    @property
    def is_dominant(self) -> bool:
        return all(e > 0 for e in self.factors.values())

    def _require_dominant(self):
        if not self.is_dominant:
            raise NotDominant("l-weight %r is not dominant" % (self,))

    def _require_compatible(self, other: "LWeight"):
        if self.ctx != other.ctx or self.rs.lie_type != other.rs.lie_type:
            raise ContextMismatch("l-weights from different contexts")

    def sort_key(self):
        """Deterministic total order key: the ((node, point), exponent)
        factors sorted by node, then by the canonical order of points."""
        return tuple(sorted(self.factors.items()))

    def __eq__(self, other):
        return (
            isinstance(other, LWeight)
            and self.ctx == other.ctx
            and self.rs.lie_type == other.rs.lie_type
            and self.factors == other.factors
        )

    def __hash__(self):
        return hash(frozenset(self.factors.items()))

    def points(self):
        """Sorted global support: every point carrying a factor at some node."""
        return tuple(sorted({p for _, p in self.factors}))

    def point_weight(self, point: FieldElem):
        """Per-node exponent vector at one spectral point."""
        return tuple(self.factors.get((i, point), 0) for i in range(self.rs.rank))

    # -- group structure

    def __mul__(self, other: "LWeight") -> "LWeight":
        self._require_compatible(other)
        merged = dict(self.factors)
        for key, e in other.factors.items():
            merged[key] = merged.get(key, 0) + e
        return LWeight._unchecked(self.ctx, self.rs, {k: e for k, e in merged.items() if e})

    def inverse(self) -> "LWeight":
        return LWeight._unchecked(self.ctx, self.rs, {k: -e for k, e in self.factors.items()})

    def __pow__(self, n: int) -> "LWeight":
        n = operator.index(n)
        return LWeight._unchecked(
            self.ctx, self.rs, {k: n * e for k, e in self.factors.items()} if n else {})

    # -- classification data

    def wt(self):
        """Total degree per node, as a fundamental-coordinate weight."""
        self._require_dominant()
        out = [0] * self.rs.rank
        for (node, _), e in self.factors.items():
            out[node] += e
        return tuple(out)

    def relatively_prime(self, other: "LWeight") -> bool:
        """Disjoint global supports (the condition runs over all node pairs)."""
        self._require_compatible(other)
        self._require_dominant()
        other._require_dominant()
        mine = {p for _, p in self.factors}
        return not mine.intersection({p for _, p in other.factors})

    # -- Galois action

    def _rows(self):
        """(node, point images under G, exponent) for every factor."""
        images = self.ctx.point_images
        return [(node, images(point), e) for (node, point), e in self.factors.items()]

    def _relabel(self, rows, g) -> "LWeight":
        return LWeight._unchecked(self.ctx, self.rs, {(node, row[g]): e for node, row, e in rows})

    def conjugate(self, g: int) -> "LWeight":
        """Pointwise action of group element g (a group homomorphism): a
        relabeling of the points through the context's point table."""
        return self._relabel(self._rows(), g)

    def stabilizer(self):
        """Elements of H fixing this l-weight as a functional: those mapping
        every factor onto a factor with the same exponent."""
        rows, factors = self._rows(), self.factors
        return tuple(h for h in self.ctx.subgroup
                     if all(factors.get((node, row[h])) == e for node, row, e in rows))

    def conjugacy_class(self):
        """(orbit under H sorted by key, degree = orbit size)."""
        rows = self._rows()
        orbit = {self._relabel(rows, h) for h in self.ctx.subgroup}
        members = tuple(sorted(orbit, key=LWeight.sort_key))
        return members, len(members)

    def degree(self) -> int:
        return self.conjugacy_class()[1]

    def class_key(self) -> "LWeight":
        """Canonical orbit minimum; equal keys exactly mean conjugate."""
        members, _ = self.conjugacy_class()
        return members[0]

    # -- rational / irrational split

    def rational_split(self):
        """Split off the maximal K-rational part: returns (wK, wTilde).

        An H-orbit of points belongs to wK exactly when every node's exponent
        function is constant on the orbit; wK is then H-fixed of degree one,
        relatively prime to wTilde, and deg(wTilde) = deg(self).
        """
        self._require_dominant()
        rational = {}
        seen = set()
        for point in self.points():
            if point in seen:
                continue
            images = self.ctx.point_images(point)
            orbit = sorted({images[h] for h in self.ctx.subgroup})
            seen.update(orbit)
            profile = self.point_weight(orbit[0])
            if all(self.point_weight(p) == profile for p in orbit[1:]):
                for p in orbit:
                    for node, e in enumerate(profile):
                        if e:
                            rational[(node, p)] = e
        w_k = LWeight(self.ctx, self.rs, rational)
        return w_k, self * w_k.inverse()

    # -- duality

    def dual(self) -> "LWeight":
        """Replace the weight at each point by its -w0 image."""
        self._require_dominant()
        out = {}
        for point in self.points():
            flipped = self.rs.w0_negate(self.point_weight(point))
            for node, e in enumerate(flipped):
                if e:
                    out[(node, point)] = e
        return LWeight(self.ctx, self.rs, out)

    # -- coefficient expansion

    def expand_coeffs(self, node: int):
        """Ascending coefficients of the node's polynomial prod (1 - a*u)^e."""
        self._require_dominant()
        field = self.ctx.field
        coeffs = [field.one]
        for (n, point), e in self.sort_key():
            if n != node:
                continue
            for _ in range(e):
                nxt = [field.zero] * (len(coeffs) + 1)
                for i, c in enumerate(coeffs):
                    nxt[i] = nxt[i] + c
                    nxt[i + 1] = nxt[i + 1] - c * point
                coeffs = nxt
        return coeffs

    def coefficient_values(self):
        """All generator eigenvalues: ((node, r), coefficient) for r >= 1."""
        out = []
        for node in range(self.rs.rank):
            cs = self.expand_coeffs(node)
            for r, c in enumerate(cs[1:], start=1):
                out.append(((node, r), c))
        return out

    # -- serialization

    def to_json(self):
        return [
            {"node": node + 1, "point": list(point.to_json()), "exp": e}
            for (node, point), e in self.sort_key()
        ]

    @classmethod
    def from_json(cls, ctx, rs, data) -> "LWeight":
        factors = {}
        for rec in data:
            point = ctx.field.elem([Fraction(c) for c in rec["point"]])
            key = (int(rec["node"]) - 1, point)
            factors[key] = factors.get(key, 0) + int(rec["exp"])
        return cls(ctx, rs, factors)

    def __repr__(self):
        if self.is_identity:
            return "LWeight(1)"
        parts = []
        for (node, point), e in self.sort_key():
            parts.append("n%d@%s^%d" % (node + 1, point.to_json(), e))
        return "LWeight(%s)" % ", ".join(parts)

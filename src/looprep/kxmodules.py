"""Irreducible modules over the polynomial algebra, made concrete.

For a dominant l-weight the commuting generator actions on the irreducible
module over K are realized as explicit matrices over K (stored over L with an
H-fixedness certificate): pick a primitive element t for the fixed field of
the stabilizer, with conjugates t_j = sigma_j(t) under the coset
representatives, and write each generator eigenvalue s as p(t), where p
interpolates the points (t_j, sigma_j(s)) through the Lagrange basis of the
minimal polynomial P(u) = prod_j (u - t_j) over K.  Column k of the matrix
on the power basis {1, t, ..., t^(d-1)} holds the coefficients of
u^k p(u) mod P.  This takes O(d^2) field products per generator and one
field inversion per module, since P'(t_j) = sigma_j(P'(t)).
"""

from __future__ import annotations

from dataclasses import dataclass, field as _field
from itertools import combinations_with_replacement, islice

from .errors import CertificateFailed, NotDominant, PrimitiveSearchFailed
from .exact import MatrixL, _dot, char_poly, frac_rank
from .lweights import LWeight


@dataclass(frozen=True)
class KXModule:
    """Explicit model of the irreducible module attached to an l-weight.

    generator_matrices maps (node, power index r) to the d x d matrix of the
    r-th generator in the power basis of the primitive element; every entry
    is fixed by H and the matrices commute pairwise.  interpolation holds the
    minimal polynomial of the primitive and its Lagrange basis
    (_interpolation), from which multiplication_matrix builds any matrix.
    """

    lweight: LWeight
    stabilizer: tuple
    primitive: object  # FieldElem
    dim: int
    coset_reps: tuple
    generator_matrices: dict
    interpolation: tuple = _field(repr=False, compare=False)

    def matrix(self, node: int, index: int) -> MatrixL:
        return self.generator_matrices[(node, index)]

    def to_json(self):
        return {
            "dim": self.dim,
            "primitive": self.primitive.to_json(),
            "cosetReps": list(self.coset_reps),
            "matrices": {
                "%d,%d" % (node + 1, r): m.to_json()
                for (node, r), m in sorted(self.generator_matrices.items())
            },
            "fixedByH": True,
        }


def _primitive_candidates(values):
    """Deterministic spiral over small nonnegative integer combinations.

    Yields sum(c_k * values[k]) for weight vectors c ordered by total weight,
    then lexicographically; capped by the caller at 10 * dim^2 candidates.
    """
    m = len(values)
    total = 0
    while True:
        if m == 0:
            if total == 0:
                yield None  # empty combination: the zero element
            return
        for picks in combinations_with_replacement(range(m), total):
            weights = [0] * m
            for p in picks:
                weights[p] += 1
            yield weights
        total += 1


def _primitive_embedding(lweight: LWeight):
    """Primitive element t of K(omega) over K and coset representatives of H.

    Returns (values, stabilizer, dim, t, reps): values are the l-weight's
    coefficient_values(), and reps are the elements of H, in order, giving
    the dim distinct conjugates of t; reps[0] is the identity.
    Raises PrimitiveSearchFailed if no primitive element shows up within
    10 * d^2 spiral candidates (in characteristic zero a generic combination
    of the coefficient values works).
    """
    if not lweight.is_dominant:
        raise NotDominant("matrix model requires a dominant l-weight")
    ctx = lweight.ctx
    field = ctx.field
    values = lweight.coefficient_values()
    stab = lweight.stabilizer()
    dim = len(ctx.subgroup) // len(stab)

    budget = 10 * dim * dim
    for weights in islice(_primitive_candidates([v for _, v in values]), budget):
        cand = field.zero
        if weights is not None:
            for w, (_, v) in zip(weights, values):
                if w:
                    cand = cand + w * v
        conjugates = {}
        for h in ctx.subgroup:
            conjugates.setdefault(ctx.apply(h, cand), h)
        if len(conjugates) == dim:
            return values, stab, dim, cand, tuple(conjugates.values())
    raise PrimitiveSearchFailed("no primitive element within %d candidates" % budget)


def build_kx_module(lweight: LWeight) -> KXModule:
    """Build the matrix model for a dominant l-weight.

    Raises PrimitiveSearchFailed if no primitive element shows up within
    10 * d^2 spiral candidates (in characteristic zero a generic combination
    of the coefficient values works), and CertificateFailed if a generator
    matrix entry is not fixed by H.
    """
    values, stab, dim, primitive, reps = _primitive_embedding(lweight)
    ctx = lweight.ctx
    gens = ctx.subgroup_generators
    embedding = _interpolation(ctx, reps, primitive)

    matrices = {}
    for (node, r), value in values:
        mat = _multiplication_matrix(ctx, reps, embedding, value)
        for row in mat.rows:
            for entry in row:
                if any(ctx.apply(h, entry) != entry for h in gens):
                    raise CertificateFailed("generator matrix entry not fixed by H")
        matrices[(node, r)] = mat

    return KXModule(
        lweight=lweight,
        stabilizer=stab,
        primitive=primitive,
        dim=dim,
        coset_reps=reps,
        generator_matrices=matrices,
        interpolation=embedding,
    )


def _interpolation(ctx, reps, primitive):
    """(low, basis) for the conjugates t_j = sigma_j(t) of the primitive.

    low holds the coefficients of u^0 .. u^(d-1) of the monic minimal
    polynomial P(u) = prod_j (u - t_j), and basis[i] holds, as terms() in j,
    the coefficients of u^i of the Lagrange polynomials
    P(u) / ((u - t_j) P'(t_j)).  P' has coefficients in K, so
    1 / P'(t_j) = sigma_j(1 / P'(t)): one inversion in all.
    """
    field = ctx.field
    images = [ctx.apply(h, primitive) for h in reps]
    poly = [field.one]
    for t in images:
        poly = ([-(t * poly[0])] + [poly[k - 1] - t * poly[k] for k in range(1, len(poly))]
                + [poly[-1]])
    slope = field.zero
    for k in range(len(poly) - 1, 0, -1):
        slope = slope * primitive + k * poly[k]
    inv = slope.inverse()
    lagrange = []
    for h, t in zip(reps, images):
        quotient = [field.one]
        for k in range(len(poly) - 2, 0, -1):
            quotient.append(poly[k] + t * quotient[-1])
        scale = ctx.apply(h, inv)
        lagrange.append([(scale * c).terms() for c in reversed(quotient)])
    return poly[:-1], list(zip(*lagrange))


def _multiplication_matrix(ctx, reps, embedding, value) -> MatrixL:
    """Matrix of multiplication by value on the power basis of the primitive.

    value = p(t) for the interpolant p through (t_j, sigma_j(value)), whose
    coefficients are dot products with the Lagrange basis; column k + 1 is
    u times column k reduced mod P (a companion step).
    """
    field = ctx.field
    low, basis = embedding
    images = [ctx.apply(h, value).terms() for h in reps]
    column = [_dot(images, b, field) for b in basis]
    columns = [column]
    for _ in range(len(low) - 1):
        top = column[-1]
        column = [field.zero] + column[:-1]
        if top:
            column = [c - top * m for c, m in zip(column, low)]
        columns.append(column)
    return MatrixL(field, zip(*columns))


def multiplication_matrix(module: KXModule, value) -> MatrixL:
    """Matrix of multiplication by any element of K(omega) on the power basis."""
    return _multiplication_matrix(
        module.lweight.ctx, module.coset_reps, module.interpolation, value
    )


def char_poly_split_check(module: KXModule, node: int, index: int) -> bool:
    """Whether charpoly(M_{node,index}) equals prod_j (u - sigma_j(s)) exactly.

    This certifies that base change splits the module into the conjugate
    one-dimensional eigenlines.
    """
    ctx = module.lweight.ctx
    field = ctx.field
    value = dict(module.lweight.coefficient_values())[(node, index)]
    actual = char_poly(module.matrix(node, index))
    expected = [field.one]
    for h in module.coset_reps:
        root = ctx.apply(h, value)
        nxt = [field.zero] * (len(expected) + 1)
        for k, c in enumerate(expected):
            nxt[k] = nxt[k] - c * root
            nxt[k + 1] = nxt[k + 1] + c
        expected = nxt
    return actual == expected


def iso_test(a: LWeight, b: LWeight) -> bool:
    """Module isomorphism test: true exactly when the l-weights are conjugate,
    that is, when their canonical orbit keys are equal."""
    if not (a.is_dominant and b.is_dominant):
        raise NotDominant("isomorphism test requires dominant l-weights")
    a._require_compatible(b)
    return a.class_key() == b.class_key()


def tensor_embedding_rank(a: LWeight, b: LWeight):
    """Rank over K of the product map K(a) (x) K(b) -> L on power bases.

    Returns (rank, injective); the map is injective exactly when the degree
    equation deg(a) * deg(b) = [K(a,b):K] holds, and its image is always the
    compositum.  Raises CertificateFailed if the rational rank of the image
    is not a multiple of [K:Q].
    """
    _, _, dim_a, prim_a, _ = _primitive_embedding(a)
    _, _, dim_b, prim_b, _ = _primitive_embedding(b)
    ctx = a.ctx
    k_basis = ctx.k_basis
    k_deg = len(k_basis)

    rows = []
    for j in range(dim_a):
        for k in range(dim_b):
            product = (prim_a ** j) * (prim_b ** k)
            for kappa in k_basis:
                rows.append((kappa * product).nums)
    q_rank = frac_rank(rows)
    if q_rank % k_deg:
        raise CertificateFailed(
            "image rank %d over Q is not a multiple of [K:Q] = %d" % (q_rank, k_deg)
        )
    rank = q_rank // k_deg
    return rank, rank == dim_a * dim_b

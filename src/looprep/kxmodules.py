"""Irreducible modules over the polynomial algebra, made concrete.

For a dominant l-weight the commuting generator actions on the irreducible
module over K are realized as explicit matrices over K (stored over L with an
H-fixedness certificate): pick a primitive element t for the fixed field of
the stabilizer, embed via the coset representatives, and conjugate the
diagonal eigenvalue action back to the power basis {1, t, ..., t^(d-1)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, islice

from .errors import CertificateFailed, NotDominant, PrimitiveSearchFailed
from .exact import MatrixL, char_poly, frac_rank
from .lweights import LWeight


@dataclass(frozen=True)
class KXModule:
    """Explicit model of the irreducible module attached to an l-weight.

    generator_matrices maps (node, power index r) to the d x d matrix of the
    r-th generator in the power basis of the primitive element; every entry
    is fixed by H and the matrices commute pairwise.
    """

    lweight: LWeight
    stabilizer: tuple
    primitive: object  # FieldElem
    dim: int
    coset_reps: tuple
    generator_matrices: dict

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


def _primitive_candidates(values, dim):
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
    for weights in islice(_primitive_candidates([v for _, v in values], dim), budget):
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
    sub = ctx.subgroup
    embedding = _vandermonde(ctx, reps, primitive)

    matrices = {}
    for (node, r), value in values:
        mat = _multiplication_matrix(ctx, reps, embedding, value)
        for row in mat.rows:
            for entry in row:
                if any(ctx.apply(h, entry) != entry for h in sub):
                    raise CertificateFailed("generator matrix entry not fixed by H")
        matrices[(node, r)] = mat

    return KXModule(
        lweight=lweight,
        stabilizer=stab,
        primitive=primitive,
        dim=dim,
        coset_reps=reps,
        generator_matrices=matrices,
    )


def _vandermonde(ctx, reps, primitive):
    """(V, V^-1) with V[j][k] = sigma_j(t)^k, embedding the power basis of t."""
    images = [ctx.apply(h, primitive) for h in reps]
    vand = MatrixL(ctx.field, [[img ** k for k in range(len(reps))] for img in images])
    return vand, vand.inverse()


def _multiplication_matrix(ctx, reps, embedding, value) -> MatrixL:
    """Matrix of multiplication by value on the power basis of the primitive.

    Multiplication acts diagonally on the embedded basis, so the matrix is
    V^-1 diag(sigma_j(value)) V; the diagonal is applied as a row scaling.
    """
    vand, vand_inv = embedding
    scaled = [[ctx.apply(h, value) * e for e in row] for h, row in zip(reps, vand.rows)]
    return vand_inv * MatrixL(ctx.field, scaled)


def multiplication_matrix(module: KXModule, value) -> MatrixL:
    """Matrix of multiplication by any element of K(omega) on the power basis."""
    ctx = module.lweight.ctx
    reps = module.coset_reps
    return _multiplication_matrix(
        ctx, reps, _vandermonde(ctx, reps, module.primitive), value
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
    k_basis = ctx.fixed_space_basis(ctx.subgroup)
    k_deg = len(k_basis)

    rows = []
    for j in range(dim_a):
        for k in range(dim_b):
            product = (prim_a ** j) * (prim_b ** k)
            for kappa in k_basis:
                rows.append(list((kappa * product).coords))
    q_rank = frac_rank(rows)
    if q_rank % k_deg:
        raise CertificateFailed(
            "image rank %d over Q is not a multiple of [K:Q] = %d" % (q_rank, k_deg)
        )
    rank = q_rank // k_deg
    return rank, rank == dim_a * dim_b

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

from itertools import combinations_with_replacement, islice

from .errors import CertificateFailed, NotDominant, PrimitiveSearchFailed
from .exact import MatrixL, _dot, int_rref
from .lweights import LWeight
from .record import Record


class KXModule(Record):
    """Explicit model of the irreducible module attached to an l-weight.

    generator_matrices maps (node, power index r) to the d x d matrix of the
    r-th generator in the power basis of the primitive element; every entry
    is fixed by H and the matrices commute pairwise.  interpolation holds the
    minimal polynomial of the primitive and its Lagrange basis
    (_interpolation), from which multiplication_matrix builds any matrix;
    it takes no part in equality and repr.  The other fields are the
    lweight, the stabilizer, the primitive (a FieldElem), dim and the
    coset_reps.
    """

    __slots__ = ("lweight", "stabilizer", "primitive", "dim", "coset_reps",
                 "generator_matrices", "interpolation")
    _hidden = ("interpolation",)

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


def build_kx_module(lweight: LWeight) -> KXModule:
    """Build the matrix model for a dominant l-weight.

    The primitive t of K(omega) over K is the first spiral candidate with
    d = [H : Stab] distinct conjugates under H, and coset_reps are the
    elements of H, in order, that first give them; coset_reps[0] is the
    identity.  Raises PrimitiveSearchFailed if no primitive element shows up
    within 10 * d^2 spiral candidates (in characteristic zero a generic
    combination of the coefficient values works), and CertificateFailed if a
    generator matrix entry is not fixed by H.
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
        primitive = field.zero
        if weights is not None:
            for w, (_, v) in zip(weights, values):
                if w:
                    primitive = primitive + w * v
        conjugates = {}
        for h in ctx.subgroup:
            conjugates.setdefault(ctx.apply(h, primitive), h)
        if len(conjugates) == dim:
            break
    else:
        raise PrimitiveSearchFailed("no primitive element within %d candidates" % budget)
    reps = tuple(conjugates.values())
    embedding = _interpolation(ctx, reps, list(conjugates))

    gens = ctx.subgroup_generators
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


def _interpolation(ctx, reps, images):
    """(low, basis) for the conjugates images[j] = t_j = sigma_j(t) of the
    primitive t = images[0], sigma_j = reps[j].

    low holds the coefficients of u^0 .. u^(d-1) of the monic minimal
    polynomial P(u) = prod_j (u - t_j), and basis[i] holds, as terms() in j,
    the coefficients of u^i of the Lagrange polynomials
    P(u) / ((u - t_j) P'(t_j)).  P' has coefficients in K, so
    1 / P'(t_j) = sigma_j(1 / P'(t)): one inversion in all.
    """
    field = ctx.field
    primitive = images[0]
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
    """W^-1 diag(sigma_j(value)) W for any value in L, W the Vandermonde
    matrix of rows (1, t_j, ..., t_j^(d-1)).  For value in K(omega) this is
    multiplication by value on the power basis, with entries in K; for any
    other value the entries need not be fixed by H."""
    return _multiplication_matrix(
        module.lweight.ctx, module.coset_reps, module.interpolation, value
    )


def char_poly_split_check(module: KXModule, node: int, index: int) -> bool:
    """Whether M = M_{node,index} satisfies w_j M = sigma_j(s) w_j for the
    eigenrows w_j = (1, t_j, ..., t_j^(d-1)), s the generator's eigenvalue.

    False unless M is d x d and the t_j are d distinct elements, so that the
    w_j form an invertible Vandermonde matrix W.  Then W M = diag(sigma_j(s)) W
    proves M diagonalizable with characteristic polynomial prod_j (u -
    sigma_j(s)): base change splits the module into the conjugate
    one-dimensional eigenlines.  O(d^3) field products.
    """
    ctx = module.lweight.ctx
    field = ctx.field
    dim = module.dim
    matrix = module.matrix(node, index)
    value = module.lweight.expand_coeffs(node)[index]
    conjugates = [ctx.apply(h, module.primitive) for h in module.coset_reps]
    if not len(set(conjugates)) == len(conjugates) == matrix.nrows == matrix.ncols == dim:
        return False
    columns = [[e.terms() for e in column] for column in zip(*matrix.rows)]
    for h, t in zip(module.coset_reps, conjugates):
        powers = [field.one]
        for _ in range(dim - 1):
            powers.append(powers[-1] * t)
        row = [p.terms() for p in powers]
        eigenvalue = ctx.apply(h, value)
        if any(_dot(row, column, field) != eigenvalue * p
               for column, p in zip(columns, powers)):
            return False
    return True


def iso_test(a: LWeight, b: LWeight) -> bool:
    """Module isomorphism test: true exactly when the l-weights are conjugate,
    that is, when their canonical orbit keys are equal."""
    if not (a.is_dominant and b.is_dominant):
        raise NotDominant("isomorphism test requires dominant l-weights")
    a._require_compatible(b)
    return a.class_key() == b.class_key()


def tensor_embedding_rank(a: LWeight, b: LWeight):
    """Rank over K of the product map K(a) (x) K(b) -> L.

    K(a) is the fixed field of Stab_H(a), so the products of the Q-bases of
    the two fixed fields span the compositum K(a, b) over Q, and its rational
    rank over [K:Q] is [K(a,b):K].  Returns (rank, injective); the map is
    injective exactly when the degree equation deg(a) * deg(b) = [K(a,b):K]
    holds.  Raises NotDominant unless both l-weights are dominant, and
    CertificateFailed if the rational rank of the image is not a multiple of
    [K:Q].
    """
    if not (a.is_dominant and b.is_dominant):
        raise NotDominant("embedding rank requires dominant l-weights")
    ctx = a.ctx
    stab_a, stab_b = a.stabilizer(), b.stabilizer()
    basis_b = ctx.fixed_space_basis(stab_b)
    rows = [(x * y).nums for x in ctx.fixed_space_basis(stab_a) for y in basis_b]
    q_rank = len(int_rref(rows)[1])
    k_deg = ctx.k_degree
    if q_rank % k_deg:
        raise CertificateFailed(
            "image rank %d over Q is not a multiple of [K:Q] = %d" % (q_rank, k_deg)
        )
    rank = q_rank // k_deg
    order = len(ctx.subgroup)
    return rank, rank == (order // len(stab_a)) * (order // len(stab_b))

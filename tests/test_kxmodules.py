import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looprep import (
    LWeight,
    build_kx_module,
    char_poly,
    char_poly_split_check,
    compositum_degree,
    iso_test,
    multiplication_matrix,
    tensor_embedding_rank,
)
from looprep import kxmodules
from looprep.errors import CertificateFailed, LoopRepError, NotDominant
from looprep.exact import MatrixL
from looprep.kxmodules import KXModule

from conftest import (
    KERNEL_CONTEXTS,
    gauss_jordan_inverse,
    period_points,
    point_pool,
    random_dominant,
    s3_context,
)
from exact_oracle import frac_rank


@pytest.fixture
def iu(qi, a1):
    return LWeight.single(qi, a1, 0, qi.field.gen)


def min_poly_degree(module, matrix):
    """Degree of the minimal polynomial via rank of stacked matrix powers."""
    field = module.lweight.ctx.field
    powers = []
    current = MatrixL.identity(field, module.dim)
    for k in range(module.dim + 1):
        powers.append([c for row in current.rows for e in row for c in e.coords])
        if frac_rank(powers) < len(powers):
            return k
        current = current * matrix
    return module.dim


class TestBuild:
    def test_gaussian_point(self, qi, iu):
        module = build_kx_module(iu)
        assert module.dim == 2
        assert module.primitive == -qi.field.gen  # the coefficient of 1 - i u
        field = qi.field
        assert module.matrix(0, 1).rows == (
            (field.zero, -field.one),
            (field.one, field.zero),
        )

    def test_rational_is_scalar(self, qi, a1):
        lw = LWeight.single(qi, a1, 0, qi.field.scalar(2))
        module = build_kx_module(lw)
        assert module.dim == 1
        assert module.matrix(0, 1).rows == ((qi.field.scalar(-2),),)

    def test_identity_weight(self, qi, a1):
        module = build_kx_module(LWeight.identity(qi, a1))
        assert module.dim == 1 and not module.generator_matrices

    def test_cyclotomic5_regular_representation(self, cyclo5, a1):
        theta = cyclo5.field.gen
        module = build_kx_module(LWeight.single(cyclo5, a1, 0, theta))
        assert module.dim == 4
        # multiplication by the coefficient -theta in powers of t = -theta is
        # the companion matrix of u^4 - u^3 + u^2 - u + 1
        m = module.matrix(0, 1)
        expected = char_poly(m)
        minpoly = [Fraction(c) for c in (1, -1, 1, -1, 1)]
        assert [e.coords[0] for e in expected] == minpoly
        assert all(not any(e.coords[1:]) for e in expected)

    def test_rejects_non_dominant(self, iu):
        with pytest.raises(NotDominant):
            build_kx_module(iu.inverse())

    def test_matrices_commute(self, cyclo5, a1):
        rng = random.Random(131)
        for _ in range(6):
            lw = random_dominant(cyclo5, a1, rng, max_support=2)
            module = build_kx_module(lw)
            mats = list(module.generator_matrices.values())
            for a in mats:
                for b in mats:
                    assert a * b == b * a

    def test_minimal_polynomial_degrees(self, cyclo5, a1):
        rng = random.Random(137)
        for _ in range(5):
            lw = random_dominant(cyclo5, a1, rng, max_support=2)
            module = build_kx_module(lw)
            ctx = lw.ctx
            # primitive element's matrix is cyclic: min poly degree = dim
            t_matrix = multiplication_matrix(module, module.primitive)
            assert min_poly_degree(module, t_matrix) == module.dim
            # each generator matrix has min poly degree = orbit size of s
            for (node, r), value in lw.coefficient_values():
                mat = module.matrix(node, r)
                expected = len(ctx.orbit(ctx.subgroup, value))
                assert min_poly_degree(module, mat) == expected


def conjugated_diagonal(module, value):
    """Oracle: V^-1 diag(sigma_j(value)) V as three full matrix products."""
    ctx = module.lweight.ctx
    field = ctx.field
    images = [ctx.apply(h, module.primitive) for h in module.coset_reps]
    vand = MatrixL(field, [[img ** k for k in range(module.dim)] for img in images])
    diag = MatrixL(field, [[ctx.apply(h, value) if i == j else field.zero
                            for j in range(module.dim)] for i, h in enumerate(module.coset_reps)])
    return gauss_jordan_inverse(vand) * diag * vand


class TestVandermondeReuse:
    def test_value_outside_k_omega(self, qi, a1):
        # the points i and -i form one orbit, so K(omega) = Q and dim 1; for
        # v = i the matrix is W^-1 diag(v) W = [[i]], not fixed by H
        i = qi.field.gen
        module = build_kx_module(LWeight(qi, a1, {(0, i): 1, (0, -i): 1}))
        assert module.dim == 1
        mat = multiplication_matrix(module, i)
        assert mat == conjugated_diagonal(module, i)
        assert mat.rows == ((i,),)
        assert qi.apply(1, i) != i

    @pytest.mark.parametrize("ctx_name", ["cyclo5", "cyclo5_half", "zeta8"])
    def test_matrices_equal_conjugated_diagonal(self, ctx_name, a1, a2, request):
        ctx = request.getfixturevalue(ctx_name)
        rng = random.Random(149)
        for rs in (a1, a2):
            for _ in range(3):
                lw = random_dominant(ctx, rs, rng, max_support=2)
                module = build_kx_module(lw)
                for (node, r), value in lw.coefficient_values():
                    assert module.matrix(node, r) == conjugated_diagonal(module, value)
                value = module.primitive * module.primitive + 3
                assert multiplication_matrix(module, value) == \
                    conjugated_diagonal(module, value)


class TestCharPolySplit:
    def test_gaussian(self, qi, iu):
        module = build_kx_module(iu)
        # (u - i)(u + i) = u^2 + 1
        coeffs = char_poly(module.matrix(0, 1))
        assert coeffs == [qi.field.one, qi.field.zero, qi.field.one]
        assert char_poly_split_check(module, 0, 1) is True

    def test_scalar_case(self, qi, a1):
        module = build_kx_module(LWeight.single(qi, a1, 0, qi.field.scalar(5)))
        assert char_poly_split_check(module, 0, 1) is True

    def test_all_generators_split(self, cyclo5, a1, a2):
        rng = random.Random(139)
        for rs in (a1, a2):
            for _ in range(4):
                lw = random_dominant(cyclo5, rs, rng, max_support=2)
                module = build_kx_module(lw)
                for (node, r) in module.generator_matrices:
                    assert char_poly_split_check(module, node, r) is True


def char_poly_split_oracle(module, node, index):
    """Oracle: charpoly(M_{node,index}) by Faddeev-LeVerrier equals the
    expansion of prod_j (u - sigma_j(s)).  Weaker than the eigenrow check:
    a matrix with the right characteristic polynomial that does not
    diagonalize passes it."""
    ctx = module.lweight.ctx
    field = ctx.field
    value = dict(module.lweight.coefficient_values())[(node, index)]
    expected = [field.one]
    for h in module.coset_reps:
        root = ctx.apply(h, value)
        nxt = [field.zero] * (len(expected) + 1)
        for k, c in enumerate(expected):
            nxt[k] = nxt[k] - c * root
            nxt[k + 1] = nxt[k + 1] + c
        expected = nxt
    return char_poly(module.matrix(node, index)) == expected


def with_changes(module, **changes):
    """The module with some fields replaced; the others are shared."""
    fields = {name: getattr(module, name) for name in KXModule.__slots__}
    fields.update(changes)
    return KXModule(**fields)


def with_matrix(module, key, rows):
    matrices = dict(module.generator_matrices)
    matrices[key] = MatrixL(module.lweight.ctx.field, rows)
    return with_changes(module, generator_matrices=matrices)


def single_entry_mutations(module):
    """(key, i, j, module) with entry (i, j) of generator key raised by 1."""
    for key, mat in sorted(module.generator_matrices.items()):
        for i, row in enumerate(mat.rows):
            for j in range(len(row)):
                rows = [list(r) for r in mat.rows]
                rows[i][j] = rows[i][j] + 1
                yield key, i, j, with_matrix(module, key, rows)


@pytest.fixture
def jordan_module(qi, a2):
    """Q(i), A2, l-weight {(node 1, i): 1, (node 2, 2): 1}: M(2,1) = -2 I."""
    i = qi.field.gen
    return build_kx_module(LWeight(qi, a2, {(0, i): 1, (1, qi.field.scalar(2)): 1}))


class TestEigenrowCertificate:
    """char_poly_split_check proves M = W^-1 diag(sigma_j(s)) W on the rows of
    W, which is strictly stronger than comparing characteristic polynomials."""

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS + ("s3",))
    @settings(deadline=None, max_examples=20)
    @given(data=st.data())
    def test_agrees_with_char_poly_oracle(self, kernel_contexts, s3, name, data, a1, a2):
        ctx = s3 if name == "s3" else kernel_contexts[name]
        lw = data.draw(dominant_lweights(ctx, data.draw(st.sampled_from((a1, a2)))))
        module = build_kx_module(lw)
        for node, r in module.generator_matrices:
            assert char_poly_split_check(module, node, r) is True
            assert char_poly_split_oracle(module, node, r) is True
        (node, r), _, _, mutated = data.draw(st.sampled_from(list(single_entry_mutations(module))))
        assert char_poly_split_check(mutated, node, r) is False

    def test_jordan_block_fails(self, qi, jordan_module):
        field = qi.field
        two = field.scalar(2)
        assert jordan_module.matrix(1, 1).rows == ((-two, field.zero), (field.zero, -two))
        assert char_poly_split_check(jordan_module, 1, 1) is True
        jordan = with_matrix(jordan_module, (1, 1), [[-two, field.one], [field.zero, -two]])
        # same characteristic polynomial (u + 2)^2, but no eigenline basis
        assert char_poly_split_oracle(jordan, 1, 1) is True
        assert char_poly_split_check(jordan, 1, 1) is False

    @pytest.mark.parametrize("ctx_name", ["qi", "cyclo5", "cyclo5_half"])
    def test_every_single_entry_mutation_fails(self, ctx_name, a1, a2, request):
        ctx = request.getfixturevalue(ctx_name)
        rng = random.Random(157)
        modules = [build_kx_module(random_dominant(ctx, rs, rng, max_support=2))
                   for rs in (a1, a2) for _ in range(3)]
        if ctx_name == "qi":
            modules.append(request.getfixturevalue("jordan_module"))
        mutations = 0
        for module in modules:
            for (node, r), i, j, mutated in single_entry_mutations(module):
                assert char_poly_split_check(mutated, node, r) is False, (node, r, i, j)
                mutations += 1
        assert mutations >= 20

    def test_mutations_fail_under_optimize(self, src_env):
        # the Jordan-block module: every entry of both generators, the
        # off-diagonal ones of the scalar -2 I included
        script = (
            "from looprep import LWeight, MatrixL, build_kx_module, char_poly_split_check\n"
            "from looprep import gaussian_context, root_system\n"
            "from looprep.kxmodules import KXModule\n"
            "ctx = gaussian_context()\n"
            "i, two = ctx.field.gen, ctx.field.scalar(2)\n"
            "module = build_kx_module(LWeight(ctx, root_system('A2'), {(0, i): 1, (1, two): 1}))\n"
            "fields = {name: getattr(module, name) for name in KXModule.__slots__}\n"
            "passed = []\n"
            "for key, mat in module.generator_matrices.items():\n"
            "    for k in range(mat.nrows * mat.ncols):\n"
            "        rows = [list(r) for r in mat.rows]\n"
            "        rows[k // mat.ncols][k % mat.ncols] += 1\n"
            "        matrices = dict(module.generator_matrices)\n"
            "        matrices[key] = MatrixL(ctx.field, rows)\n"
            "        mutated = KXModule(**dict(fields, generator_matrices=matrices))\n"
            "        passed.append(char_poly_split_check(mutated, *key))\n"
            "print(len(passed), sum(passed))\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["8", "0"]

    def test_repeated_conjugate_fails(self, iu):
        module = build_kx_module(iu)
        assert char_poly_split_check(module, 0, 1) is True
        assert char_poly_split_check(with_changes(module, coset_reps=(0, 0)), 0, 1) is False

    @pytest.mark.parametrize("pad", ["row", "column"])
    def test_wrong_shape_fails(self, qi, iu, pad):
        # a zero row or column added to a valid matrix leaves every
        # eigenrow equation on the d x d block true
        module = build_kx_module(iu)
        rows = [list(r) for r in module.matrix(0, 1).rows]
        if pad == "row":
            rows.append([qi.field.zero] * module.dim)
        else:
            rows = [r + [qi.field.zero] for r in rows]
        assert char_poly_split_check(with_matrix(module, (0, 1), rows), 0, 1) is False

    def test_each_eigenrow_is_checked(self, cyclo5, a1):
        # adding column j of W^-1 to column 0 keeps w_k M = sigma_k(s) w_k for
        # every k != j and breaks it at j alone
        module = build_kx_module(LWeight.single(cyclo5, a1, 0, cyclo5.field.gen))
        images = [cyclo5.apply(h, module.primitive) for h in module.coset_reps]
        inverse = gauss_jordan_inverse(
            MatrixL(cyclo5.field, [[t ** k for k in range(module.dim)] for t in images]))
        for j in range(module.dim):
            rows = [list(r) for r in module.matrix(0, 1).rows]
            for i, row in enumerate(rows):
                row[0] = row[0] + inverse.rows[i][j]
            assert char_poly_split_check(with_matrix(module, (0, 1), rows), 0, 1) is False


class TestIsoTest:
    def test_conjugates_are_isomorphic(self, qi, a1, iu):
        conj = LWeight.single(qi, a1, 0, -qi.field.gen)
        assert iso_test(iu, conj) is True

    def test_distinct_classes(self, qi, a1, iu):
        other = LWeight.single(qi, a1, 0, 2 * qi.field.gen)
        assert iso_test(iu, other) is False

    def test_reflexive(self, iu):
        assert iso_test(iu, iu) is True

    def test_equivalence_relation_on_sample(self, qi, a1):
        i = qi.field.gen
        pool = [
            LWeight.single(qi, a1, 0, p, e)
            for p in (i, -i, 2 * i, -2 * i, qi.field.scalar(2), qi.field.scalar(-1))
            for e in (1, 2)
        ]
        for x in pool:
            assert iso_test(x, x)
        for x in pool:
            for y in pool:
                assert iso_test(x, y) == iso_test(y, x)
                assert iso_test(x, y) == (x.class_key() == y.class_key())
        for x in pool:
            for y in pool:
                for z in pool:
                    if iso_test(x, y) and iso_test(y, z):
                        assert iso_test(x, z)


class TestEmbeddingRank:
    def test_same_field_collapses(self, qi, a1, iu):
        conj = LWeight.single(qi, a1, 0, -qi.field.gen)
        assert tensor_embedding_rank(iu, conj) == (2, False)
        assert tensor_embedding_rank(iu, iu) == (2, False)

    def test_rational_factor_injective(self, qi, a1, iu):
        rational = LWeight.single(qi, a1, 0, qi.field.scalar(3))
        assert tensor_embedding_rank(rational, iu) == (2, True)

    def test_independent_extensions(self, zeta8, a1):
        theta = zeta8.field.gen
        p = LWeight.single(zeta8, a1, 0, theta ** 2)
        q = LWeight.single(zeta8, a1, 0, theta - theta ** 3)
        assert tensor_embedding_rank(p, q) == (4, True)

    def test_rejects_non_dominant(self, iu):
        with pytest.raises(NotDominant, match="embedding rank requires dominant"):
            tensor_embedding_rank(iu.inverse(), iu)
        with pytest.raises(NotDominant, match="embedding rank requires dominant"):
            tensor_embedding_rank(iu, iu.inverse())

    @pytest.mark.parametrize("ctx_name", ["qi", "cyclo5", "cyclo5_half", "zeta8", "s3",
                                          "s3_h03"])
    def test_uses_the_module_primitive_and_dim(self, ctx_name, request, a1):
        # the oracle is the power-basis rank: the Q-rank of kappa t_a^j t_b^k
        # over the two modules' primitives and the k_basis, over [K:Q]
        ctx = request.getfixturevalue(ctx_name)
        k_deg = len(ctx.k_basis)
        pool = period_points(ctx)
        rng = random.Random(151)
        for _ in range(8):
            x = random_dominant(ctx, a1, rng, max_support=2, pool=pool)
            y = random_dominant(ctx, a1, rng, max_support=2, pool=pool)
            mx, my = build_kx_module(x), build_kx_module(y)
            rows = [list((kappa * mx.primitive ** j * my.primitive ** k).coords)
                    for j in range(mx.dim) for k in range(my.dim) for kappa in ctx.k_basis]
            q_rank = frac_rank(rows)
            rank, injective = tensor_embedding_rank(x, y)
            assert q_rank % k_deg == 0
            assert rank == q_rank // k_deg
            assert injective == (rank == mx.dim * my.dim)

    @pytest.mark.parametrize("ctx_name", ["qi", "cyclo5_half", "zeta8"])
    def test_rank_equals_compositum_degree(self, ctx_name, request, a1):
        ctx = request.getfixturevalue(ctx_name)
        rng = random.Random(149)
        for _ in range(8):
            x = random_dominant(ctx, a1, rng, max_support=2)
            y = random_dominant(ctx, a1, rng, max_support=2)
            rank, injective = tensor_embedding_rank(x, y)
            assert rank == compositum_degree(x, y)
            assert injective == (rank == x.degree() * y.degree())


def _non_fixed_matrix(ctx, reps, embedding, value):
    """A 1 x 1 "generator matrix" whose entry theta no nontrivial h fixes."""
    return MatrixL(ctx.field, [[ctx.field.gen]])


class TestCertificates:
    """The H-fixedness and rank certificates are real code, not asserts."""

    def test_non_fixed_matrix_raises(self, iu, monkeypatch):
        monkeypatch.setattr(kxmodules, "_multiplication_matrix", _non_fixed_matrix)
        with pytest.raises(CertificateFailed):
            build_kx_module(iu)
        assert issubclass(CertificateFailed, LoopRepError)

    def test_non_fixed_matrix_raises_under_optimize(self, src_env):
        script = (
            "from looprep import CertificateFailed, LWeight, build_kx_module, kxmodules\n"
            "from looprep import gaussian_context, root_system\n"
            "from looprep.exact import MatrixL\n"
            "kxmodules._multiplication_matrix = (\n"
            "    lambda ctx, reps, embedding, value: MatrixL(ctx.field, [[ctx.field.gen]]))\n"
            "ctx = gaussian_context()\n"
            "try:\n"
            "    build_kx_module(LWeight.single(ctx, root_system('A1'), 0, ctx.field.gen))\n"
            "except CertificateFailed:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"

    def test_rank_not_multiple_of_k_degree_raises(self, cyclo5_half, a1, monkeypatch):
        # [K:Q] = 2 here, so an odd rational rank cannot come from a K-span
        lw = LWeight.single(cyclo5_half, a1, 0, cyclo5_half.field.gen)
        monkeypatch.setattr(kxmodules, "int_rref", lambda rows: (rows, [0, 1, 2], 1))
        with pytest.raises(CertificateFailed):
            tensor_embedding_rank(lw, lw)


# --- interpolation through the minimal polynomial against Gauss-Jordan ---------

def dominant_lweights(ctx, rs):
    """Hypothesis strategy: dominant l-weights on the test point pool."""
    factor = st.tuples(st.integers(0, rs.rank - 1), st.sampled_from(point_pool(ctx)),
                       st.integers(1, 2))
    return st.lists(factor, min_size=1, max_size=2).map(
        lambda fs: LWeight(ctx, rs, {(node, p): e for node, p, e in fs}))


ORACLE_CONTEXTS = ("zeta5", "zeta7", "zeta8", "zeta15", "cyclo5_half")


@pytest.fixture(scope="session")
def s3():
    return s3_context()


@pytest.fixture(scope="session")
def s3_h03():
    """S3 with H = [0, 3]: K = Q(2^(1/3)), not Galois over Q."""
    return s3_context([0, 3])


@pytest.fixture(scope="session")
def oracle_contexts(kernel_contexts, cyclo5_half):
    return dict(kernel_contexts, cyclo5_half=cyclo5_half)


class TestInterpolation:
    @pytest.mark.parametrize("name", ORACLE_CONTEXTS)
    @settings(deadline=None, max_examples=20)
    @given(data=st.data())
    def test_matrices_equal_gauss_jordan_oracle(self, oracle_contexts, name, data, a1, a2):
        ctx = oracle_contexts[name]
        rs = data.draw(st.sampled_from((a1, a2)))
        lw = data.draw(dominant_lweights(ctx, rs))
        module = build_kx_module(lw)
        for (node, r), value in lw.coefficient_values():
            assert module.matrix(node, r) == conjugated_diagonal(module, value)
        pool = point_pool(ctx)
        value = module.primitive * data.draw(st.sampled_from(pool)) + 1
        assert multiplication_matrix(module, value) == conjugated_diagonal(module, value)

    @pytest.mark.parametrize("name", ORACLE_CONTEXTS)
    @settings(deadline=None, max_examples=12)
    @given(data=st.data())
    def test_minimal_polynomial_and_lagrange_basis(self, oracle_contexts, name, data, a1):
        ctx = oracle_contexts[name]
        lw = data.draw(dominant_lweights(ctx, a1))
        module = build_kx_module(lw)
        field = ctx.field
        low, basis = module.interpolation
        poly = list(low) + [field.one]
        assert all(ctx.apply(h, c) == c for c in poly for h in ctx.subgroup)
        images = [ctx.apply(h, module.primitive) for h in module.coset_reps]
        for t in images:
            assert horner(poly, t) == field.zero
        for j in range(module.dim):
            lagrange = [field.from_numerators(*dense(basis[i][j], field))
                        for i in range(module.dim)]
            for k, t in enumerate(images):
                assert horner(lagrange, t) == (field.one if j == k else field.zero)


def horner(coeffs, x):
    """Horner evaluation of ascending field coefficients at x."""
    acc = x.field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def dense(terms, field):
    """(numerators, den) of a terms() value."""
    pairs, den = terms
    nums = [0] * field.degree
    for i, x in pairs:
        nums[i] = x
    return nums, den

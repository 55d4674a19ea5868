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
from looprep.exact import MatrixL, frac_rank

from conftest import gauss_jordan_inverse, point_pool, random_dominant


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
    diag = MatrixL.diagonal(field, [ctx.apply(h, value) for h in module.coset_reps])
    return gauss_jordan_inverse(vand) * diag * vand


class TestVandermondeReuse:
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
        with pytest.raises(NotDominant):
            tensor_embedding_rank(iu.inverse(), iu)

    def test_uses_the_module_primitive_and_dim(self, cyclo5, a1):
        rng = random.Random(151)
        for _ in range(4):
            x = random_dominant(cyclo5, a1, rng, max_support=2)
            y = random_dominant(cyclo5, a1, rng, max_support=2)
            mx, my = build_kx_module(x), build_kx_module(y)
            powers = [[(mx.primitive ** j * my.primitive ** k).coords for k in range(my.dim)]
                      for j in range(mx.dim)]
            rank, _ = tensor_embedding_rank(x, y)
            assert rank == frac_rank([list(c) for row in powers for c in row])

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
        monkeypatch.setattr(kxmodules, "frac_rank", lambda rows: 3)
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

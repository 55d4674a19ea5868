import random

import pytest

from looprep import (
    LWeight,
    classify,
    compositum_degree,
    cyclotomic_context,
    dim_weyl_f,
    dim_weyl_k,
    tensor_decompose_k,
    tp_irreducible_criterion,
)
from looprep.errors import NotDominant, UnsupportedType

from conftest import random_dominant


@pytest.fixture
def iu(qi, a1):
    return LWeight.single(qi, a1, 0, qi.field.gen)


@pytest.fixture
def iu_conj(qi, a1):
    return LWeight.single(qi, a1, 0, -qi.field.gen)


@pytest.fixture
def two_iu(qi, a1):
    return LWeight.single(qi, a1, 0, 2 * qi.field.gen)


class TestClassify:
    def test_square_factor(self, iu):
        cls = classify(iu * iu)  # (1 - i u)^2
        assert (cls.degree, cls.dim_f, cls.dim_k) == (2, 3, 6)
        assert cls.weight == (2,)

    def test_circle_squared(self, qi, a1):
        i = qi.field.gen
        cls = classify(LWeight(qi, a1, {(0, i): 2, (0, -i): 2}))  # (1+u^2)^2
        assert (cls.degree, cls.dim_f, cls.dim_k) == (1, 9, 9)

    def test_identity(self, qi, a1):
        cls = classify(LWeight.identity(qi, a1))
        assert (cls.degree, cls.dim_f, cls.dim_k) == (1, 1, 1)

    def test_rejects_non_dominant(self, iu):
        with pytest.raises(NotDominant):
            classify(iu.inverse())

    @pytest.mark.parametrize("ctx_name", ["qi", "cyclo5"])
    def test_dimension_formula_randomized(self, ctx_name, request, a2):
        ctx = request.getfixturevalue(ctx_name)
        rng = random.Random(103)
        for _ in range(25):
            lw = random_dominant(ctx, a2, rng)
            cls = classify(lw)
            assert cls.degree == len(cls.orbit)
            assert cls.dim_k == cls.degree * cls.dim_f
            # each orbit member carries the same closure dimension
            assert cls.dim_k == sum(classify(m).dim_f for m in cls.orbit)


class TestWeylDims:
    def test_square_factor(self, iu):
        sq = iu * iu
        assert dim_weyl_f(sq) == 4 and dim_weyl_k(sq) == 8

    def test_circle_squared(self, qi, a1):
        i = qi.field.gen
        lw = LWeight(qi, a1, {(0, i): 2, (0, -i): 2})
        assert dim_weyl_f(lw) == 16 and dim_weyl_k(lw) == 16

    def test_identity(self, qi, a1):
        ident = LWeight.identity(qi, a1)
        assert dim_weyl_f(ident) == 1 and dim_weyl_k(ident) == 1

    def test_only_a1(self, qi, a2):
        with pytest.raises(UnsupportedType):
            dim_weyl_f(LWeight.single(qi, a2, 0, qi.field.gen))


class TestTensorDecomposition:
    def test_distinct_spectra(self, iu, two_iu):
        # two classes, each of degree 2 and dimension 8 over K
        dec = tensor_decompose_k(iu, two_iu)
        assert [(c.degree, c.dim_k, m) for c, m in dec.parts] == [(2, 8, 1), (2, 8, 1)]
        assert dec.total_dim == 16

    def test_conjugate_pair(self, qi, a1, iu, iu_conj):
        dec = tensor_decompose_k(iu, iu_conj)
        i = qi.field.gen
        circle = LWeight(qi, a1, {(0, i): 1, (0, -i): 1})
        ident = LWeight.identity(qi, a1)
        assert dec.total_dim == 16
        mults = {cls.key: m for cls, m in dec.parts}
        assert mults[circle.class_key()] == 2
        assert mults[(iu * iu).class_key()] == 1
        assert mults[ident.class_key()] == 2
        dims = sorted((c.dim_k, m) for c, m in dec.parts)
        assert dims == [(1, 2), (4, 2), (6, 1)]

    def test_tensor_with_identity(self, qi, a1, iu):
        dec = tensor_decompose_k(iu, LWeight.identity(qi, a1))
        assert len(dec.parts) == 1
        cls, mult = dec.parts[0]
        assert mult == 1 and cls.key == iu.class_key()

    @pytest.mark.parametrize("ctx_name", ["qi", "cyclo5"])
    def test_dimension_conservation(self, ctx_name, request, a1):
        ctx = request.getfixturevalue(ctx_name)
        rng = random.Random(107)
        for _ in range(15):
            x = random_dominant(ctx, a1, rng, max_support=2)
            y = random_dominant(ctx, a1, rng, max_support=2)
            dec = tensor_decompose_k(x, y)
            assert dec.total_dim == classify(x).dim_k * classify(y).dim_k

    def test_commutativity(self, cyclo5, a2):
        rng = random.Random(109)
        for _ in range(8):
            x = random_dominant(cyclo5, a2, rng, max_support=2)
            y = random_dominant(cyclo5, a2, rng, max_support=2)
            a = tensor_decompose_k(x, y)
            b = tensor_decompose_k(y, x)
            assert [(c.key, m) for c, m in a.parts] == [(c.key, m) for c, m in b.parts]

    def test_conservation_over_intermediate_base_fields(self, cyclo5_half, a2):
        # H a proper subgroup: K = Q(sqrt 5) inside the 5th cyclotomic field
        rng = random.Random(111)
        for _ in range(10):
            x = random_dominant(cyclo5_half, a2, rng, max_support=2)
            y = random_dominant(cyclo5_half, a2, rng, max_support=2)
            dec = tensor_decompose_k(x, y)
            assert dec.total_dim == classify(x).dim_k * classify(y).dim_k

    def test_trivial_subgroup_reduces_to_closure_level(self, a1):
        # With H trivial, K plays the role of the closure restricted to L:
        # all degrees are 1 and descent is the identity regrouping.
        ctx = cyclotomic_context(4, [0])
        i = ctx.field.gen
        x = LWeight.single(ctx, a1, 0, i)
        y = LWeight.single(ctx, a1, 0, -i)
        dec = tensor_decompose_k(x, y)
        assert all(c.degree == 1 for c, _ in dec.parts)
        assert dec.total_dim == 4
        assert len(dec.parts) == 1  # distinct points: a single product class


class TestCriterion:
    def test_reducible_pair(self, iu, two_iu):
        assert tp_irreducible_criterion(iu, two_iu) is False
        assert len(tensor_decompose_k(iu, two_iu).parts) == 2

    def test_zeta8_pair_is_irreducible(self, zeta8, a1):
        theta = zeta8.field.gen
        p = LWeight.single(zeta8, a1, 0, theta ** 2)          # 1 - i u
        q = LWeight.single(zeta8, a1, 0, theta - theta ** 3)  # 1 - sqrt(2) u
        assert tp_irreducible_criterion(p, q) is True
        assert compositum_degree(p, q) == 4
        dec = tensor_decompose_k(p, q)
        assert len(dec.parts) == 1
        cls, mult = dec.parts[0]
        assert mult == 1 and cls.key == (p * q).class_key()

    def test_rational_factor(self, qi, a1, iu):
        rational = LWeight.single(qi, a1, 0, qi.field.scalar(3))
        assert tp_irreducible_criterion(rational, iu) is True

    def test_criterion_implies_single_class(self, cyclo5, a1):
        rng = random.Random(113)
        for _ in range(20):
            x = random_dominant(cyclo5, a1, rng, max_support=2)
            y = random_dominant(cyclo5, a1, rng, max_support=2)
            if not x.relatively_prime(y):
                continue
            if tp_irreducible_criterion(x, y):
                dec = tensor_decompose_k(x, y)
                assert len(dec.parts) == 1 and dec.parts[0][1] == 1
                assert dec.parts[0][0].key == (x * y).class_key()


class TestCompositumDegree:
    def test_same_point(self, iu):
        assert compositum_degree(iu, iu) == 2

    def test_conjugate_points_strict_inequality(self, iu, iu_conj):
        assert compositum_degree(iu, iu_conj) == 2
        assert iu.degree() * iu_conj.degree() == 4

    def test_rational_pair(self, qi, a1):
        x = LWeight.single(qi, a1, 0, qi.field.scalar(2))
        y = LWeight.single(qi, a1, 0, qi.field.scalar(5))
        assert compositum_degree(x, y) == 1


class TestDuality:
    def test_dual_preserves_dimensions(self, cyclo5, a2):
        rng = random.Random(127)
        for _ in range(10):
            lw = random_dominant(cyclo5, a2, rng)
            assert classify(lw.dual()).dim_k == classify(lw).dim_k

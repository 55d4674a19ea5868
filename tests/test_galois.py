import importlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from conftest import CONTEXTS, KERNEL_CONTEXTS, field_elements, s3_context
from hypothesis import given, settings
from hypothesis import strategies as st

from looprep import FieldElem, PolyQ, build_context, context_from_json, cyclotomic_context
from looprep.errors import (
    BadSubgroup,
    FixedFieldTooBig,
    NotARoot,
    NotClosed,
    NotSquareFree,
    WrongOrder,
)

galois_module = importlib.import_module("looprep.galois")


class TestBuildContext:
    def test_gaussian(self, qi):
        assert qi.order == 2
        assert qi.k_degree == 1
        assert qi.apply(1, qi.field.gen) == -qi.field.gen

    def test_cyclotomic5_half_subgroup(self, cyclo5_half):
        # H = {id, theta -> theta^4} fixes Q(theta + theta^4) = Q(sqrt 5)
        assert cyclo5_half.order == 4
        assert cyclo5_half.k_degree == 2
        assert cyclo5_half.fixed_space_dim(cyclo5_half.subgroup) == 2

    def test_degree_one_base_case(self, trivial_ctx):
        assert trivial_ctx.order == 1
        assert trivial_ctx.k_degree == 1
        assert trivial_ctx.fixed_space_dim(trivial_ctx.full_group) == 1

    def test_not_a_root(self):
        with pytest.raises(NotARoot):
            build_context(PolyQ([1, 0, 1]), [PolyQ([0, 1]), PolyQ([1, 1])])

    def test_wrong_order(self):
        with pytest.raises(WrongOrder):
            build_context(PolyQ([1, 0, 1]), [PolyQ([0, 1])])

    def test_identity_must_come_first(self):
        with pytest.raises(NotClosed):
            build_context(PolyQ([1, 0, 1]), [PolyQ([0, -1]), PolyQ([0, 1])])

    def test_non_invertible_root_map(self):
        # theta^2 - 1 has the root 1; theta -> 1 is not invertible
        with pytest.raises(NotClosed):
            build_context(PolyQ([-1, 0, 1]), [PolyQ([0, 1]), PolyQ([1])])

    def test_not_square_free(self):
        with pytest.raises(NotSquareFree):
            build_context(PolyQ([1, 2, 1]), [PolyQ([0, 1]), PolyQ([-2, -1])])

    def test_fixed_field_too_big(self):
        # theta^4 - 1 is square-free but reducible; the Klein four image set
        # {theta, -theta, theta^3, -theta^3} passes the root and closure
        # checks yet fixes the two-dimensional space spanned by 1, theta^2
        with pytest.raises(FixedFieldTooBig):
            build_context(
                PolyQ([-1, 0, 0, 0, 1]),
                [PolyQ([0, 1]), PolyQ([0, -1]), PolyQ([0, 0, 0, 1]), PolyQ([0, 0, 0, -1])],
            )

    def test_bad_subgroup(self, cyclo5):
        with pytest.raises(BadSubgroup):
            build_context(
                cyclo5.field.modulus,
                [img.as_poly() for img in cyclo5.images],
                [0, 1],  # theta -> theta^2 squared leaves the set
            )

    def test_json_round_trip(self, cyclo5_half):
        again = context_from_json(cyclo5_half.to_json())
        assert again == cyclo5_half


class TestAutomorphismAction:
    def test_conjugation_on_generator(self, qi):
        assert qi.apply(1, qi.field.gen) == -qi.field.gen

    def test_rationals_are_fixed(self, cyclo5):
        val = cyclo5.field.scalar(Fraction(5, 3))
        assert all(cyclo5.apply(g, val) == val for g in cyclo5.full_group)

    def test_substitution_example(self, cyclo5):
        theta = cyclo5.field.gen
        a = theta + theta ** 4
        assert cyclo5.apply(1, a) == theta ** 2 + theta ** 3  # theta -> theta^2

    @pytest.mark.parametrize("ctx_name", ["qi", "cyclo5"])
    def test_ring_homomorphism(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        field = ctx.field
        rng = random.Random(31)
        for _ in range(20):
            a = field.elem([rng.randint(-3, 3) for _ in range(field.degree)])
            b = field.elem([rng.randint(-3, 3) for _ in range(field.degree)])
            g = rng.randrange(ctx.order)
            assert ctx.apply(g, a + b) == ctx.apply(g, a) + ctx.apply(g, b)
            assert ctx.apply(g, a * b) == ctx.apply(g, a) * ctx.apply(g, b)

    def test_composition_consistency(self, cyclo5):
        field = cyclo5.field
        rng = random.Random(37)
        for _ in range(20):
            a = field.elem([rng.randint(-2, 2) for _ in range(field.degree)])
            g = rng.randrange(cyclo5.order)
            h = rng.randrange(cyclo5.order)
            assert cyclo5.apply(g, cyclo5.apply(h, a)) == \
                cyclo5.apply(cyclo5.compose(g, h), a)


class TestOrbitsAndStabilizers:
    def test_orbit_of_generator(self, qi):
        theta = qi.field.gen
        assert qi.orbit(qi.full_group, theta) == (-theta, theta)

    def test_orbit_of_one(self, cyclo5):
        one = cyclo5.field.one
        assert cyclo5.orbit(cyclo5.full_group, one) == (one,)

    def test_half_subgroup_orbit(self, cyclo5_half):
        theta = cyclo5_half.field.gen
        orbit = cyclo5_half.orbit(cyclo5_half.subgroup, theta)
        assert set(orbit) == {theta, theta ** 4}

    def test_stabilizer_examples(self, qi, cyclo5):
        assert qi.stabilizer(qi.full_group, qi.field.gen) == (0,)
        assert qi.stabilizer(qi.full_group, qi.field.scalar(Fraction(5, 3))) == (0, 1)
        theta = cyclo5.field.gen
        assert cyclo5.stabilizer(cyclo5.full_group, theta + theta ** 4) == (0, 3)

    @pytest.mark.parametrize("ctx_name", ["qi", "cyclo5", "zeta8"])
    def test_orbit_stabilizer_theorem(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        field = ctx.field
        rng = random.Random(41)
        for _ in range(20):
            a = field.elem([rng.randint(-2, 2) for _ in range(field.degree)])
            for sub in (ctx.full_group, ctx.subgroup):
                orbit = ctx.orbit(sub, a)
                stab = ctx.stabilizer(sub, a)
                assert len(orbit) * len(stab) == len(sub)


class TestFixedSpaces:
    def test_trivial_subgroup(self, cyclo5):
        assert cyclo5.fixed_space_dim([0]) == 4

    def test_full_group(self, cyclo5):
        assert cyclo5.fixed_space_dim(cyclo5.full_group) == 1

    def test_half_subgroup(self, cyclo5_half):
        assert cyclo5_half.fixed_space_dim(cyclo5_half.subgroup) == 2

    def test_basis_is_fixed(self, zeta8):
        for vec in zeta8.fixed_space_basis(zeta8.subgroup):
            assert all(zeta8.apply(h, vec) == vec for h in zeta8.subgroup)


# --- the sparse integer action against the Fraction matrix product ------------

def aut_matrix(ctx, g):
    """Oracle: the dense Fraction matrix of g on the power basis, whose
    column k holds the coordinates of g(theta)^k."""
    columns = [(ctx.images[g] ** k).coords for k in range(ctx.field.degree)]
    return tuple(zip(*columns))


def matrix_apply(ctx, g, a):
    """Oracle: the Fraction matrix of g times the coordinate vector of a."""
    return FieldElem(ctx.field, tuple(
        sum((row[k] * a.coords[k] for k in range(len(row))), Fraction(0))
        for row in aut_matrix(ctx, g)
    ))


class TestSparseAction:
    def test_column_denominators_of_non_integral_modulus(self, kernel_contexts):
        ctx = kernel_contexts["sqrt2_sqrt3"]
        assert [den for _, den in ctx.aut_columns] == [1, 4, 4, 1]
        assert ctx.apply(1, ctx.apply(1, ctx.field.gen)) == ctx.field.gen

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    def test_columns_are_the_matrices(self, kernel_contexts, name):
        ctx = kernel_contexts[name]
        n = ctx.field.degree
        for g, (columns, den) in enumerate(ctx.aut_columns):
            dense = [[Fraction(0)] * n for _ in range(n)]
            for k, col in enumerate(columns):
                for i, c in col:
                    assert c != 0
                    dense[i][k] = Fraction(c, den)
            assert tuple(map(tuple, dense)) == aut_matrix(ctx, g)

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    def test_table_matches_matrix_composition(self, kernel_contexts, name):
        ctx = kernel_contexts[name]
        for g in ctx.full_group:
            for h in ctx.full_group:
                image = matrix_apply(ctx, g, ctx.images[h])
                assert image == ctx.images[ctx.compose(g, h)]

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    @settings(deadline=None)
    @given(data=st.data())
    def test_apply_matches_matrix_oracle(self, kernel_contexts, name, data):
        ctx = kernel_contexts[name]
        a = data.draw(field_elements(ctx.field))
        b = data.draw(field_elements(ctx.field))
        g = data.draw(st.sampled_from(ctx.full_group))
        assert ctx.apply(g, a) == matrix_apply(ctx, g, a)
        assert ctx.apply(g, a * b) == ctx.apply(g, a) * ctx.apply(g, b)


# --- data kept on the context: the K-basis and generators of H ----------------

def generated(ctx, gens):
    """Oracle: close {identity} under composition with the generators."""
    span = {0}
    while True:
        bigger = span | {ctx.compose(g, x) for g in gens for x in span}
        if bigger == span:
            return span
        span = bigger


STOCK = [(4, None), (5, None), (5, [0, 3]), (7, None), (7, [0, 5]), (7, [0, 1, 3]),
         (8, None), (8, [0, 1]), (8, [0]), (15, None), (15, [0, 7]), (16, None),
         (16, [0, 3, 4, 7])]


class TestContextData:
    @pytest.mark.parametrize("n, sub", STOCK)
    def test_generators_generate_the_subgroup(self, n, sub):
        ctx = cyclotomic_context(n, sub)
        gens = ctx.subgroup_generators
        assert set(gens) <= set(ctx.subgroup)
        assert generated(ctx, gens) == set(ctx.subgroup)
        # no generator is redundant given the ones before it
        for i, g in enumerate(gens):
            assert g not in generated(ctx, gens[:i])

    def test_trivial_subgroups_have_no_generators(self, trivial_ctx):
        assert trivial_ctx.subgroup_generators == ()
        assert cyclotomic_context(8, [0]).subgroup_generators == ()

    def test_cyclic_group_needs_one_generator(self, cyclo5, cyclo5_half):
        assert len(cyclo5.subgroup_generators) == 1
        assert cyclo5_half.subgroup_generators == (3,)

    @pytest.mark.parametrize("n, sub", STOCK)
    def test_k_basis_is_the_fixed_space_basis(self, n, sub):
        ctx = cyclotomic_context(n, sub)
        assert ctx.k_basis == ctx.fixed_space_basis(ctx.subgroup)
        assert len(ctx.k_basis) == ctx.k_degree
        assert all(ctx.apply(h, v) == v for v in ctx.k_basis for h in ctx.subgroup)

    @pytest.mark.parametrize("subgroup", [None, [0], [0, 3], [0, 1, 2]])
    def test_k_basis_over_s3(self, subgroup):
        # build_context solves for K with the rows of generators of H only
        ctx = s3_context(subgroup)
        assert ctx.k_basis == ctx.fixed_space_basis(ctx.subgroup)
        assert len(ctx.fixed_space_basis(ctx.full_group)) == 1


# --- the table of spectral points ---------------------------------------------

class TestPointTable:
    def test_s3_is_not_abelian(self):
        ctx = s3_context()
        assert ctx.order == 6 and ctx.k_degree == 1
        assert any(ctx.compose(g, h) != ctx.compose(h, g)
                   for g in ctx.full_group for h in ctx.full_group)
        assert s3_context([0, 3]).k_degree == 3

    @pytest.mark.parametrize("name", CONTEXTS + ("s3",))
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_rows_are_the_images(self, settings_by_name, name, data):
        # a context equal to the fixture but with an empty table, so the
        # first point's orbit is filled here and its other members' rows
        # come from the composition table, with no sparse product; s3 has
        # a non-symmetric table, so composing in the wrong order shows
        ctx = s3_context() if name == "s3" else context_from_json(
            settings_by_name[name].to_json())
        p = data.draw(field_elements(ctx.field).filter(bool))
        row = ctx.point_images(p)
        assert row == tuple(ctx.apply(g, p) for g in ctx.full_group)
        expected = {q: tuple(ctx.apply(g, q) for g in ctx.full_group) for q in row}
        with mock.patch.object(galois_module, "_act", side_effect=AssertionError("recomputed")):
            for q in row:
                assert ctx.point_images(q) == expected[q]
        assert len(ctx._point_rows) == len(set(row))

    def test_apply_leaves_the_table_alone(self, zeta8):
        theta = zeta8.field.gen
        zeta8.point_images(theta)
        size = len(zeta8._point_rows)
        for g in zeta8.full_group:
            zeta8.apply(g, theta * theta + 7)
        assert len(zeta8._point_rows) == size

    def test_equality_ignores_the_table(self):
        a, b = cyclotomic_context(5), cyclotomic_context(5)
        a.point_images(a.field.gen)
        b.point_images(b.field.scalar(3))
        assert a._point_rows != b._point_rows
        assert a == b and hash(a) == hash(b)
        assert a != cyclotomic_context(5, [0, 3])

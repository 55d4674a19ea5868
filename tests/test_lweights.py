import random

import pytest

from looprep import LWeight
from looprep.errors import ContextMismatch, NotDominant

from conftest import random_dominant, random_lweight


@pytest.fixture
def iu(qi, a1):
    """1 - i u."""
    return LWeight.single(qi, a1, 0, qi.field.gen)


class TestConstruction:
    def test_zero_exponents_dropped(self, qi, a1):
        lw = LWeight(qi, a1, {(0, qi.field.gen): 0})
        assert lw.is_identity

    def test_zero_point_rejected(self, qi, a1):
        with pytest.raises(ValueError):
            LWeight(qi, a1, {(0, qi.field.zero): 1})

    def test_node_range_checked(self, qi, a1):
        with pytest.raises(ValueError):
            LWeight(qi, a1, {(1, qi.field.gen): 1})

    @pytest.mark.parametrize("node, exp", [(0, 1.7), (0.9, 1), ("0", 1), (0, "3"), (True, 1),
                                           (0, True), (0, 1.0), (0, None)])
    def test_non_int_node_or_exponent_rejected(self, qi, a1, node, exp):
        # truncating 1.7 or 0.9, or coercing '3' or True, would change the l-weight silently
        with pytest.raises(ValueError, match="must be integers"):
            LWeight(qi, a1, {(node, qi.field.gen): exp})
        record = {"node": node + 1 if type(node) is int else node, "point": ["0", "1"],
                  "exp": exp}
        with pytest.raises(ValueError, match="must be integers"):
            LWeight.from_json(qi, a1, [record])

    def test_json_round_trip(self, qi, a2):
        lw = LWeight(qi, a2, {(0, qi.field.gen): 2, (1, qi.field.scalar(3)): -1})
        assert LWeight.from_json(qi, a2, lw.to_json()) == lw


class TestGroupStructure:
    def test_disjoint_supports_merge(self, qi, a1, iu):
        other = LWeight.single(qi, a1, 0, 2 * qi.field.gen)
        prod = iu * other
        assert prod.factors == {(0, qi.field.gen): 1, (0, 2 * qi.field.gen): 1}

    def test_inverse_cancels(self, qi, a1, iu):
        assert (iu * iu.inverse()).is_identity

    def test_same_factor_accumulates(self, iu):
        assert (iu * iu).factors == {(0, iu.ctx.field.gen): 2}

    def test_context_mismatch(self, qi, cyclo5, a1):
        a = LWeight.single(qi, a1, 0, qi.field.gen)
        b = LWeight.single(cyclo5, a1, 0, cyclo5.field.gen)
        with pytest.raises(ContextMismatch):
            a * b

    def test_powers(self, qi, a1, iu):
        assert iu ** 0 == LWeight.identity(qi, a1) and (iu ** 0).factors == {}
        assert (iu ** -2).factors == {(0, qi.field.gen): -2}
        assert iu ** 3 == iu * iu * iu
        with pytest.raises(TypeError):
            iu ** 1.5

    def test_group_laws_randomized(self, qi, a2):
        rng = random.Random(67)
        for _ in range(15):
            x = random_lweight(qi, a2, rng)
            y = random_lweight(qi, a2, rng)
            z = random_lweight(qi, a2, rng)
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert (x * y).inverse() == x.inverse() * y.inverse()


class TestWeightMap:
    def test_identity(self, qi, a1):
        assert LWeight.identity(qi, a1).wt() == (0,)

    def test_squared_factor(self, iu):
        assert (iu * iu).wt() == (2,)

    def test_degree_count_a2(self, qi, a2):
        lw = LWeight(qi, a2, {(0, qi.field.gen): 1, (1, qi.field.scalar(2)): 3})
        assert lw.wt() == (1, 3)

    def test_monoid_homomorphism(self, cyclo5, a2):
        rng = random.Random(71)
        for _ in range(10):
            x = random_dominant(cyclo5, a2, rng)
            y = random_dominant(cyclo5, a2, rng)
            assert (x * y).wt() == tuple(a + b for a, b in zip(x.wt(), y.wt()))

    def test_requires_dominant(self, iu):
        with pytest.raises(NotDominant):
            iu.inverse().wt()


class TestRelativelyPrime:
    def test_distinct_points(self, qi, a1, iu):
        assert iu.relatively_prime(LWeight.single(qi, a1, 0, 2 * qi.field.gen))

    def test_self_overlap(self, iu):
        assert not iu.relatively_prime(iu)

    def test_cross_node_shared_point(self, qi, a2):
        a = LWeight.single(qi, a2, 0, qi.field.gen)
        b = LWeight.single(qi, a2, 1, qi.field.gen)
        assert not a.relatively_prime(b)


class TestConjugacy:
    def test_orbit_of_iu(self, qi, a1, iu):
        orbit, degree = iu.conjugacy_class()
        assert degree == 2
        assert set(orbit) == {iu, LWeight.single(qi, a1, 0, -qi.field.gen)}

    def test_h_fixed_singleton(self, qi, a1):
        i = qi.field.gen
        circle = LWeight(qi, a1, {(0, i): 2, (0, -i): 2})  # (1+u^2)^2
        orbit, degree = circle.conjugacy_class()
        assert degree == 1 and orbit == (circle,)

    def test_rational_points_fixed(self, qi, a1):
        lw = LWeight.single(qi, a1, 0, qi.field.scalar(7))
        assert lw.degree() == 1

    def test_swapped_exponents_are_not_fixed(self, qi, a1):
        # conjugation maps the support {i, -i} onto itself but moves the
        # exponents, so only the identity fixes the l-weight
        i = qi.field.gen
        lw = LWeight(qi, a1, {(0, i): 1, (0, -i): 2})
        assert lw.stabilizer() == (0,)
        assert lw.degree() == 2

    def test_orbit_stabilizer(self, cyclo5, a2):
        rng = random.Random(73)
        for _ in range(15):
            lw = random_dominant(cyclo5, a2, rng)
            orbit, degree = lw.conjugacy_class()
            assert degree * len(lw.stabilizer()) == len(cyclo5.subgroup)

    def test_class_key_conjugation_invariant(self, cyclo5, a1):
        rng = random.Random(79)
        for _ in range(10):
            lw = random_dominant(cyclo5, a1, rng)
            for h in cyclo5.subgroup:
                assert lw.conjugate(h).class_key() == lw.class_key()

    def test_conjugation_commutes_with_product(self, qi, a2):
        rng = random.Random(83)
        for _ in range(10):
            x = random_lweight(qi, a2, rng)
            y = random_lweight(qi, a2, rng)
            for g in qi.subgroup:
                assert (x * y).conjugate(g) == x.conjugate(g) * y.conjugate(g)

    def test_key_examples(self, qi, a1, iu):
        conj = LWeight.single(qi, a1, 0, -qi.field.gen)
        two = LWeight.single(qi, a1, 0, 2 * qi.field.gen)
        assert iu.class_key() == conj.class_key()
        assert iu.class_key() != two.class_key()
        ident = LWeight.identity(qi, a1)
        assert ident.class_key() == ident


class TestDegreeChain:
    @pytest.mark.parametrize("ctx_name", ["qi", "cyclo5"])
    def test_chain_inequalities(self, ctx_name, request, a1):
        from looprep import compositum_degree

        ctx = request.getfixturevalue(ctx_name)
        rng = random.Random(89)
        for _ in range(20):
            x = random_dominant(ctx, a1, rng)
            y = random_dominant(ctx, a1, rng)
            compositum = compositum_degree(x, y)
            assert (x * y).degree() <= compositum <= x.degree() * y.degree()
            if x.degree() == 1:
                assert (x * y).degree() == compositum == y.degree()


class TestRationalSplit:
    def test_mixed_orbit(self, qi, a1):
        i = qi.field.gen
        lw = LWeight(qi, a1, {(0, i): 1, (0, -i): 1, (0, 2 * i): 1})
        w_k, w_tilde = lw.rational_split()
        assert w_k == LWeight(qi, a1, {(0, i): 1, (0, -i): 1})
        assert w_tilde == LWeight.single(qi, a1, 0, 2 * i)

    def test_unbalanced_exponents_stay(self, qi, a1):
        i = qi.field.gen
        lw = LWeight(qi, a1, {(0, i): 2, (0, -i): 1})
        w_k, w_tilde = lw.rational_split()
        assert w_k.is_identity and w_tilde == lw

    def test_rational_input(self, qi, a1):
        lw = LWeight.single(qi, a1, 0, qi.field.scalar(3), 2)
        w_k, w_tilde = lw.rational_split()
        assert w_k == lw and w_tilde.is_identity

    @pytest.mark.parametrize("ctx_name", ["qi", "cyclo5", "cyclo5_half"])
    def test_split_postconditions(self, ctx_name, request, a2):
        ctx = request.getfixturevalue(ctx_name)
        rng = random.Random(97)
        for _ in range(15):
            lw = random_dominant(ctx, a2, rng)
            w_k, w_tilde = lw.rational_split()
            assert w_k * w_tilde == lw
            assert w_k.degree() == 1
            assert w_tilde.degree() == lw.degree()
            if not (w_k.is_identity or w_tilde.is_identity):
                assert w_k.relatively_prime(w_tilde)
            # maximality: no orbit with constant exponents survives inside
            # the remainder, so splitting again yields nothing rational
            for point in w_tilde.points():
                orbit = ctx.orbit(ctx.subgroup, point)
                profiles = {w_tilde.point_weight(p) for p in orbit}
                assert len(profiles) > 1
            again_k, _ = w_tilde.rational_split()
            assert again_k.is_identity


class TestDual:
    def test_a1_fixed(self, qi, a1, iu):
        assert iu.dual() == iu

    def test_a2_swaps_nodes(self, qi, a2):
        a = LWeight.single(qi, a2, 0, qi.field.gen)
        assert a.dual() == LWeight.single(qi, a2, 1, qi.field.gen)

    def test_identity(self, qi, a2):
        ident = LWeight.identity(qi, a2)
        assert ident.dual() == ident

    def test_involution_and_weight(self, cyclo5, a2):
        rng = random.Random(101)
        for _ in range(10):
            lw = random_dominant(cyclo5, a2, rng)
            assert lw.dual().dual() == lw
            assert lw.dual().wt() == a2.w0_negate(lw.wt())


class TestExpandCoeffs:
    def test_square(self, qi, a1, iu):
        sq = iu * iu
        field = qi.field
        assert sq.expand_coeffs(0) == [
            field.one, -2 * field.gen, -field.one,
        ]

    def test_identity(self, qi, a1):
        assert LWeight.identity(qi, a1).expand_coeffs(0) == [qi.field.one]

    def test_circle_squared(self, qi, a1):
        i = qi.field.gen
        lw = LWeight(qi, a1, {(0, i): 2, (0, -i): 2})  # (1+u^2)^2
        field = qi.field
        assert lw.expand_coeffs(0) == [
            field.one, field.zero, field.scalar(2), field.zero, field.one,
        ]

    def test_h_fixed_weights_have_fixed_coefficients(self, cyclo5, a1):
        theta = cyclo5.field.gen
        lw = LWeight(cyclo5, a1, {(0, theta): 1, (0, theta ** 2): 1,
                                  (0, theta ** 3): 1, (0, theta ** 4): 1})
        assert lw.degree() == 1
        for c in lw.expand_coeffs(0):
            assert all(cyclo5.apply(h, c) == c for h in cyclo5.subgroup)

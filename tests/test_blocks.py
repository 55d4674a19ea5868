import random

import pytest

from looprep import (
    LWeight,
    partition_blocks,
    same_block,
    spectral_character,
)
from looprep.errors import ContextMismatch, NotDominant

from conftest import random_lweight


@pytest.fixture
def gaussian_points(qi, a1):
    i = qi.field.gen
    return {
        "iu": LWeight.single(qi, a1, 0, i),
        "iu_conj": LWeight.single(qi, a1, 0, -i),
        "square": LWeight(qi, a1, {(0, i): 2}),
        "identity": LWeight.identity(qi, a1),
        "circle": LWeight(qi, a1, {(0, i): 1, (0, -i): 1}),
    }


class TestSpectralCharacter:
    def test_conjugate_pair_product(self, gaussian_points, qi):
        chi = spectral_character(gaussian_points["circle"])
        i = qi.field.gen
        assert chi.entries == {i: (1,), -i: (1,)}

    def test_even_exponent_vanishes(self, gaussian_points):
        assert not spectral_character(gaussian_points["square"]).entries

    def test_identity_is_trivial(self, gaussian_points):
        assert not spectral_character(gaussian_points["identity"]).entries

    def test_homomorphism(self, qi, a2):
        rng = random.Random(151)
        for _ in range(20):
            x = random_lweight(qi, a2, rng)
            y = random_lweight(qi, a2, rng)
            combined = spectral_character(x * y)
            cx, cy = spectral_character(x), spectral_character(y)
            points = set(cx.entries) | set(cy.entries)
            diag = a2.snf.diagonal
            for p in points:
                expected = tuple(
                    (a + b) % d if d else 0
                    for a, b, d in zip(
                        cx.entries.get(p, (0,) * a2.rank),
                        cy.entries.get(p, (0,) * a2.rank),
                        diag,
                    )
                )
                assert combined.entries.get(p, (0,) * a2.rank) == expected

    def test_root_lattice_generators_invisible(self, qi, a1, a2):
        # multiplying by omega_{alpha, a} for a positive root alpha leaves
        # the character unchanged
        rng = random.Random(157)
        for rs in (a1, a2):
            for _ in range(50):
                lw = random_lweight(qi, rs, rng)
                root = rs.positive_roots[rng.randrange(len(rs.positive_roots))]
                point = qi.field.elem([rng.randint(-2, 2), rng.randint(-2, 2)])
                if not point:
                    continue
                fund = rs.root_to_fund(root)
                gen = LWeight(qi, rs, {(i, point): c for i, c in enumerate(fund) if c})
                assert spectral_character(lw * gen) == spectral_character(lw)


class TestEquivalence:
    def test_conjugate_translates_match(self, qi, a1, gaussian_points):
        two_i = LWeight.single(qi, a1, 0, 2 * qi.field.gen)
        two_i_conj = LWeight.single(qi, a1, 0, -2 * qi.field.gen)
        left = gaussian_points["iu"] * two_i
        right = gaussian_points["iu_conj"] * two_i_conj
        assert same_block(left, right)

    def test_trivial_characters_match(self, gaussian_points):
        assert same_block(gaussian_points["square"], gaussian_points["identity"])

    def test_circle_is_isolated(self, gaussian_points):
        assert not same_block(gaussian_points["circle"], gaussian_points["identity"])
        assert not same_block(gaussian_points["circle"], gaussian_points["iu"])

    def test_context_mismatch(self, qi, cyclo5, a1):
        x = LWeight.single(qi, a1, 0, qi.field.gen)
        y = LWeight.single(cyclo5, a1, 0, cyclo5.field.gen)
        with pytest.raises(ContextMismatch):
            same_block(x, y)

    def test_conjugation_invariance(self, cyclo5, a1):
        rng = random.Random(163)
        for _ in range(15):
            lw = random_lweight(cyclo5, a1, rng)
            for g in cyclo5.subgroup:
                assert same_block(lw, lw.conjugate(g))

    def test_equivalence_relation(self, qi, a2):
        rng = random.Random(167)
        sample = [random_lweight(qi, a2, rng) for _ in range(12)]
        for x in sample:
            assert same_block(x, x)
        for x in sample:
            for y in sample:
                assert same_block(x, y) == same_block(y, x)
        for x in sample:
            for y in sample:
                for z in sample:
                    if same_block(x, y) and same_block(y, z):
                        assert same_block(x, z)


class TestPartition:
    def test_gaussian_partition(self, gaussian_points):
        groups = partition_blocks([
            gaussian_points["iu"],
            gaussian_points["iu_conj"],
            gaussian_points["square"],
            gaussian_points["identity"],
            gaussian_points["circle"],
        ])
        as_sets = [set(g) for g in groups]
        assert {gaussian_points["iu"], gaussian_points["iu_conj"]} in as_sets
        assert {gaussian_points["square"], gaussian_points["identity"]} in as_sets
        assert {gaussian_points["circle"]} in as_sets
        assert len(groups) == 3

    def test_singleton(self, gaussian_points):
        assert partition_blocks([gaussian_points["iu"]]) == [[gaussian_points["iu"]]]

    def test_four_products_split_into_two_blocks(self, qi, a1):
        # The two K-irreducible constituents of one tensor product land in
        # different blocks: characters {i:1, 2i:1} and {-i:1, 2i:1} are not
        # H-translates of each other.
        i = qi.field.gen
        p, pc = LWeight.single(qi, a1, 0, i), LWeight.single(qi, a1, 0, -i)
        q, qc = LWeight.single(qi, a1, 0, 2 * i), LWeight.single(qi, a1, 0, -2 * i)
        groups = partition_blocks([p * q, pc * q, p * qc, pc * qc])
        as_sets = [set(g) for g in groups]
        assert len(groups) == 2
        assert {p * q, pc * qc} in as_sets
        assert {pc * q, p * qc} in as_sets

    def test_requires_dominant(self, gaussian_points):
        with pytest.raises(NotDominant):
            partition_blocks([gaussian_points["iu"].inverse()])

    def test_deterministic_order(self, gaussian_points):
        items = list(gaussian_points.values())
        first = partition_blocks(items)
        second = partition_blocks(list(reversed(items)))
        assert first == second

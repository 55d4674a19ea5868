import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import looprep.roots
from looprep import RootSystem, root_system
from looprep.errors import (
    LoopRepError,
    NotARoot,
    NotDominant,
    NotSameClass,
    RootDataInconsistency,
    SearchExhausted,
    UnknownType,
)


def char_product(rs, left, right):
    """Independent oracle: pointwise product of two weight-multiplicity maps."""
    return char_times(rs.weight_mults(left), rs.weight_mults(right))


def char_times(first, second):
    """Character of a tensor product from the factors' multiplicity maps."""
    out = {}
    for mu, m in first.items():
        for nu, n in second.items():
            key = tuple(a + b for a, b in zip(mu, nu))
            out[key] = out.get(key, 0) + m * n
    return out


def reconstructed_char(rs, parts):
    out = {}
    for weight, mult in parts:
        for nu, n in rs.weight_mults(weight).items():
            out[nu] = out.get(nu, 0) + mult * n
    return out


def peel_decompose(rs, left, right):
    """Oracle: highest-weight peeling of the character product."""
    return peel(rs, char_product(rs, left, right))


def peel(rs, product):
    """Highest-weight peeling of a character, consumed in place.

    Repeatedly removes the character of V(top), where top is the maximal
    weight left by (height, weight); returns (top, mult) in peel order.
    """
    parts = []
    while product:
        top = max(product, key=lambda w: (rs.height(w), w))
        mult = product[top]
        assert rs.is_dominant(top) and mult > 0
        parts.append((top, mult))
        for nu, n in rs.weight_mults(top).items():
            remaining = product.get(nu, 0) - mult * n
            if remaining:
                product[nu] = remaining
            else:
                product.pop(nu, None)
    return parts


def form(weight, root, lengths):
    """(weight, alpha) with alpha in simple-root coordinates."""
    return sum((d * a * x for d, a, x in zip(lengths, root, weight)), Fraction(0))


def freudenthal_mults(rs, weight):
    """Oracle: Freudenthal's formula over every weight of V(weight).

    The weights come from walking root strings down from the top; the sums
    are Fractions, and every lookup walks its weight into the dominant
    chamber.  Returns the full weight-multiplicity map.
    """
    top = tuple(weight)
    all_weights, stack = {top}, [top]
    while stack:
        mu = stack.pop()
        for i in range(rs.rank):
            for k in range(1, mu[i] + 1):
                nu = tuple(mu[j] - k * rs.cartan[j][i] for j in range(rs.rank))
                if nu not in all_weights:
                    all_weights.add(nu)
                    stack.append(nu)

    def norm_rho(mu):
        mu_rho = tuple(x + 1 for x in mu)
        return form(mu_rho, rs.fund_to_root(mu_rho), rs.lengths)

    mults = {}
    dominants = [mu for mu in all_weights if rs.is_dominant(mu)]
    for mu in sorted(dominants, key=lambda mu: -rs.height(mu)):
        if mu == top:
            mults[mu] = 1
            continue
        acc = Fraction(0)
        for root in rs.positive_roots:
            root_fund = rs.root_to_fund(root)
            nu = tuple(x + y for x, y in zip(mu, root_fund))
            while nu in all_weights:
                acc += mults[rs.dominant_representative(nu)] * form(nu, root, rs.lengths)
                nu = tuple(x + y for x, y in zip(nu, root_fund))
        val = 2 * acc / (norm_rho(top) - norm_rho(mu))
        assert val.denominator == 1 and val > 0
        mults[mu] = int(val)
    return {mu: mults[rs.dominant_representative(mu)] for mu in all_weights}


# bound on the entry sum of each random weight, per type, so that the
# peeling oracle stays fast
ORACLE_BUDGETS = {"A1": 6, "A2": 3, "A3": 2, "B2": 3, "B3": 2, "C3": 2, "D4": 1, "G2": 2}


@st.composite
def dominant_pairs(draw):
    lie_type = draw(st.sampled_from(sorted(ORACLE_BUDGETS)))
    rs = root_system(lie_type)

    def weight():
        budget = ORACLE_BUDGETS[lie_type]
        out = []
        for _ in range(rs.rank):
            x = draw(st.integers(0, budget))
            budget -= x
            out.append(x)
        return tuple(out)

    return rs, weight(), weight()


@st.composite
def dominant_weights(draw):
    rs, weight, _ = draw(dominant_pairs())
    return rs, weight


# the weights of V(1) in A1 plus a weight -3 of multiplicity 2: with it as
# the right factor of V(1) (x) V(1), V(0) gets 1 - 2 = -1 copies
CORRUPT_A1_MULTS = {(1,): 1, (-1,): 1, (-3,): 2}


class TestConstruction:
    @pytest.mark.parametrize(
        "lie_type, count",
        [("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6), ("C3", 9),
         ("D4", 12), ("F4", 24), ("E6", 36)],
    )
    def test_positive_root_counts(self, lie_type, count):
        assert len(root_system(lie_type).positive_roots) == count

    def test_a1_normalization(self, a1):
        assert a1.positive_roots == ((1,),)
        assert a1.lengths == (1,)

    def test_a2_roots(self, a2):
        assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}

    def test_g2_highest_root(self, g2):
        assert g2.highest_root == (3, 2)
        assert g2.lengths == (1, 3)

    def test_unknown_type(self):
        with pytest.raises(UnknownType):
            root_system("H2")
        with pytest.raises(UnknownType):
            root_system("B1")

    def test_highest_root_is_maximal(self, g2, b2):
        for rs in (g2, b2):
            top = rs.highest_root
            for root in rs.positive_roots:
                assert all(a >= b for a, b in zip(top, root))


class TestCorootCoeffs:
    def test_a2_sum_root(self, a2):
        assert a2.coroot_coeffs((1, 1)) == (1, 1)

    def test_g2_long_root(self, g2):
        assert g2.coroot_coeffs((3, 2)) == (1, 2)

    @pytest.mark.parametrize("lie_type", ["A2", "B2", "G2", "F4"])
    def test_simple_roots_give_basis_vectors(self, lie_type):
        rs = root_system(lie_type)
        for i in range(rs.rank):
            e = tuple(int(j == i) for j in range(rs.rank))
            assert rs.coroot_coeffs(e) == e

    def test_not_a_root(self, a2):
        with pytest.raises(NotARoot):
            a2.coroot_coeffs((2, 0))

    @pytest.mark.parametrize("lie_type", ["A2", "B2", "C3", "G2", "F4"])
    def test_pairing_identity(self, lie_type):
        # (alpha, alpha) * m_i_vee = 2 d_i m_i for every positive root
        rs = root_system(lie_type)
        for root in rs.positive_roots:
            coeffs = rs.coroot_coeffs(root)
            norm = form(rs.root_to_fund(root), root, rs.lengths)
            for i in range(rs.rank):
                assert norm * coeffs[i] == 2 * rs.lengths[i] * root[i]


class TestWeylDim:
    @pytest.mark.parametrize("n, dim", [(1, 2), (2, 3), (5, 6)])
    def test_a1(self, a1, n, dim):
        assert a1.weyl_dim((n,)) == dim

    def test_a2_adjoint(self, a2):
        assert a2.weyl_dim((1, 1)) == 8

    def test_known_small_dimensions(self, b2, g2):
        assert b2.weyl_dim((1, 0)) == 4 or b2.weyl_dim((0, 1)) == 4  # spin rep
        assert g2.weyl_dim((1, 0)) == 7
        assert g2.weyl_dim((0, 1)) == 14

    def test_rejects_non_dominant(self, a2):
        with pytest.raises(NotDominant):
            a2.weyl_dim((-1, 0))


class TestWeightMults:
    def test_a1_string(self, a1):
        assert a1.weight_mults((2,)) == {(2,): 1, (0,): 1, (-2,): 1}

    def test_a2_adjoint_zero_weight(self, a2):
        mults = a2.weight_mults((1, 1))
        assert mults[(0, 0)] == 2
        assert mults[(1, 1)] == 1

    def test_total_is_weyl_dim(self, a2, b2, g2):
        for rs, weight in ((a2, (2, 1)), (b2, (1, 1)), (g2, (1, 0))):
            assert sum(rs.weight_mults(weight).values()) == rs.weyl_dim(weight)

    def test_reflection_symmetry(self, b2):
        mults = b2.weight_mults((1, 1))
        for nu, m in mults.items():
            for i in range(b2.rank):
                assert mults[b2.reflect(i, nu)] == m

    @settings(deadline=None, max_examples=80)
    @given(case=dominant_weights())
    def test_matches_freudenthal_oracle(self, case):
        rs, weight = case
        assert rs.weight_mults(weight) == freudenthal_mults(rs, weight)

    @pytest.mark.parametrize(
        "lie_type, weight",
        [("F4", (1, 1, 1, 1)), ("E6", (1, 1, 0, 0, 0, 1)), ("E7", (1, 0, 0, 0, 0, 0, 0))],
    )
    def test_exceptional_freudenthal_oracle(self, lie_type, weight):
        rs = root_system(lie_type)
        mults = rs.weight_mults(weight)
        assert mults == freudenthal_mults(rs, weight)
        assert sum(mults.values()) == rs.weyl_dim(weight)

    @pytest.mark.parametrize("weight", [(1,), (1, 0, 0)])
    def test_wrong_rank_is_rejected(self, a2, weight):
        # the integer loops zip coordinates, which would truncate silently
        for call in (a2.weyl_dim, a2.weight_mults, a2.link_neighbors,
                     lambda w: a2.tensor_decompose(w, (1, 0)),
                     lambda w: a2.link_chain(w, (0, 0))):
            with pytest.raises(NotDominant):
                call(weight)

    def test_returned_map_is_fresh(self):
        rs = root_system("B2")
        mults = rs.weight_mults((1, 1))
        expected = dict(mults)
        mults[(1, 1)] = 7
        mults[(9, 9)] = 1
        del mults[rs.reflect(0, (1, 1))]
        assert rs.weight_mults((1, 1)) == expected

    def test_integer_arithmetic_only(self, monkeypatch):
        # weight_mults, weyl_dim and tensor_decompose build no Fraction
        rs = root_system("G2")
        expected = (rs.weight_mults((2, 1)), rs.weyl_dim((2, 1)),
                    rs.tensor_decompose((2, 1), (1, 1)))

        def no_fraction(*args):
            raise AssertionError("Fraction built")

        monkeypatch.setattr(looprep.roots, "Fraction", no_fraction)
        assert (rs.weight_mults((2, 1)), rs.weyl_dim((2, 1)),
                rs.tensor_decompose((2, 1), (1, 1))) == expected

    def test_corrupted_root_lengths_raise(self, monkeypatch):
        # G2 with equal root lengths: Freudenthal's quotient is not integral
        monkeypatch.setattr(looprep.roots, "_root_lengths", lambda cartan: (1, 1))
        rs = RootSystem("G2")
        with pytest.raises(RootDataInconsistency):
            rs.weight_mults((0, 1))

    def test_corrupted_root_lengths_raise_under_optimize(self, src_env):
        script = (
            "import looprep.roots\n"
            "from looprep import RootDataInconsistency\n"
            "looprep.roots._root_lengths = lambda cartan: (1, 1)\n"
            "try:\n"
            "    looprep.roots.RootSystem('G2').weight_mults((0, 1))\n"
            "except RootDataInconsistency:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


class TestTensorDecompose:
    def test_a1_fundamental_square(self, a1):
        assert a1.tensor_decompose((1,), (1,)) == [((2,), 1), ((0,), 1)]

    def test_tensor_with_trivial(self, g2):
        assert g2.tensor_decompose((1, 0), (0, 0)) == [((1, 0), 1)]

    def test_a2_bifundamental(self, a2):
        assert a2.tensor_decompose((1, 0), (0, 1)) == [((1, 1), 1), ((0, 0), 1)]

    @pytest.mark.parametrize("lie_type", ["A1", "A2", "B2", "G2"])
    def test_character_product_oracle(self, lie_type):
        rs = root_system(lie_type)
        rng = random.Random(43)
        for _ in range(12):
            left = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            right = tuple(rng.randint(0, 2) for _ in range(rs.rank))
            parts = rs.tensor_decompose(left, right)
            assert reconstructed_char(rs, parts) == char_product(rs, left, right)
            total = sum(m * rs.weyl_dim(w) for w, m in parts)
            assert total == rs.weyl_dim(left) * rs.weyl_dim(right)

    @settings(deadline=None, max_examples=60)
    @given(pair=dominant_pairs())
    def test_matches_peeling_oracle(self, pair):
        rs, left, right = pair
        parts = rs.tensor_decompose(left, right)
        assert parts == peel_decompose(rs, left, right)
        assert rs.tensor_decompose(right, left) == parts

    def test_heights_are_integer_numerators(self):
        for lie_type in ORACLE_BUDGETS:
            rs = root_system(lie_type)
            for i in range(rs.rank):
                e = tuple(int(j == i) for j in range(rs.rank))
                assert rs.height(e) == sum(rs.fund_to_root(e))
                assert rs.height(e) * rs._height_den == rs._height_row[i]

    @pytest.mark.parametrize(
        "lie_type, left, right",
        [("F4", (1, 0, 0, 0), (0, 0, 0, 1)),
         ("E6", (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0))],
    )
    def test_exceptional_character_oracle(self, lie_type, left, right):
        rs = root_system(lie_type)
        parts = rs.tensor_decompose(left, right)
        assert reconstructed_char(rs, parts) == char_product(rs, left, right)
        total = sum(m * rs.weyl_dim(w) for w, m in parts)
        assert total == rs.weyl_dim(left) * rs.weyl_dim(right)

    def test_corrupted_multiplicities_raise(self, monkeypatch):
        rs = RootSystem("A1")
        monkeypatch.setattr(
            RootSystem, "weight_mults", lambda self, weight: dict(CORRUPT_A1_MULTS)
        )
        with pytest.raises(RootDataInconsistency):
            rs.tensor_decompose((1,), (1,))
        assert issubclass(RootDataInconsistency, LoopRepError)

    def test_corrupted_multiplicities_raise_under_optimize(self, src_env):
        # the check is real code, not an assert that python -O strips
        script = (
            "from looprep import RootSystem, RootDataInconsistency\n"
            "RootSystem.weight_mults = lambda self, weight: %r\n"
            "try:\n"
            "    RootSystem('A1').tensor_decompose((1,), (1,))\n"
            "except RootDataInconsistency:\n"
            "    print('raised')\n"
        ) % (CORRUPT_A1_MULTS,)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=src_env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


class TestPQClass:
    def test_a1(self, a1):
        assert a1.pq_class((1,)) == (1,)
        assert a1.pq_class((2,)) == (0,)

    def test_root_lattice_is_kernel(self, a2, b2, g2):
        # oracle: a weight maps to zero exactly when its simple-root
        # coordinates are integers
        rng = random.Random(47)
        for rs in (a2, b2, g2):
            for root in rs.positive_roots:
                assert not any(rs.pq_class(rs.root_to_fund(root)))
            for _ in range(20):
                w = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
                in_lattice = all(c.denominator == 1 for c in rs.fund_to_root(w))
                assert (not any(rs.pq_class(w))) == in_lattice

    def test_a2_classes(self, a2):
        c1, c2 = a2.pq_class((1, 0)), a2.pq_class((0, 1))
        assert any(c1) and any(c2) and c1 != c2
        assert not any(a2.pq_class((1, 1)))

    def test_homomorphism(self, b2):
        rng = random.Random(53)
        diag = b2.snf.diagonal
        for _ in range(20):
            u = tuple(rng.randint(-3, 3) for _ in range(2))
            v = tuple(rng.randint(-3, 3) for _ in range(2))
            total = b2.pq_class(tuple(a + b for a, b in zip(u, v)))
            parts = tuple(
                (x + y) % d if d else 0
                for x, y, d in zip(b2.pq_class(u), b2.pq_class(v), diag)
            )
            assert total == parts


class TestW0Negate:
    def test_a1_identity(self, a1):
        assert a1.w0_negate((3,)) == (3,)

    def test_a2_swaps_fundamentals(self, a2):
        assert a2.w0_negate((1, 0)) == (0, 1)
        assert a2.w0_negate((2, 5)) == (5, 2)

    def test_d4_fixes_vector_weight(self):
        d4 = root_system("D4")
        assert d4.w0_negate((1, 0, 0, 0)) == (1, 0, 0, 0)

    @pytest.mark.parametrize("lie_type", ["A2", "A3", "B2", "D4", "G2"])
    def test_involution(self, lie_type):
        rs = root_system(lie_type)
        rng = random.Random(59)
        for _ in range(10):
            w = tuple(rng.randint(0, 3) for _ in range(rs.rank))
            assert rs.w0_negate(rs.w0_negate(w)) == w


class TestLinkage:
    def test_a1_examples(self, a1):
        assert a1.directly_linked((2,), (0,)) is True
        assert a1.directly_linked((1,), (0,)) is False
        assert a1.directly_linked((2,), (2,)) is True

    def test_chain_a1(self, a1):
        chain = a1.link_chain((4,), (0,))
        assert chain == [(0,), (2,), (4,)]
        for u, v in zip(chain, chain[1:]):
            assert a1.directly_linked(u, v)

    def test_chain_trivial(self, a2):
        assert a2.link_chain((1, 1), (1, 1)) == [(1, 1)]

    def test_chain_a2_adjoint(self, a2):
        chain = a2.link_chain((1, 1), (0, 0))
        assert chain[0] == (0, 0) and chain[-1] == (1, 1)
        for u, v in zip(chain, chain[1:]):
            assert a2.directly_linked(u, v)

    def test_not_same_class(self, a1):
        with pytest.raises(NotSameClass):
            a1.link_chain((1,), (0,))

    def test_search_exhausted(self, a1):
        with pytest.raises(SearchExhausted):
            a1.link_chain((8,), (0,), max_steps=1)

    def test_linkage_is_symmetric(self, b2):
        rng = random.Random(61)
        for _ in range(10):
            lam = tuple(rng.randint(0, 2) for _ in range(2))
            mu = tuple(rng.randint(0, 2) for _ in range(2))
            assert b2.directly_linked(lam, mu) == b2.directly_linked(mu, lam)

    def test_link_chain_builds_one_multiplicity_map(self, monkeypatch):
        # the adjoint module's map is computed once per search, not per step
        rs = RootSystem("A1")
        calls = []
        weight_mults = RootSystem.weight_mults

        def counted(self, weight):
            calls.append(tuple(weight))
            return weight_mults(self, weight)

        monkeypatch.setattr(RootSystem, "weight_mults", counted)
        assert rs.link_chain((6,), (0,)) == [(0,), (2,), (4,), (6,)]
        assert calls == [(2,)]

    @pytest.mark.parametrize("lie_type", ["A1", "A2", "B2", "G2"])
    def test_linkage_matches_peeling_oracle(self, lie_type, monkeypatch):
        rs = RootSystem(lie_type)
        weights = [w for w in _small_weights(rs.rank, 2)]
        pairs = [(lam, mu) for lam in weights for mu in weights]

        def outcomes():
            linked = [rs.directly_linked(lam, mu) for lam, mu in pairs]
            chains = []
            for lam, mu in pairs:
                try:
                    chains.append(rs.link_chain(lam, mu, max_steps=2))
                except LoopRepError as exc:
                    chains.append(type(exc))
            return linked, chains

        fast = outcomes()
        monkeypatch.setattr(
            RootSystem, "_brauer_klimyk",
            lambda self, left, mults: peel(self, char_times(self.weight_mults(left), mults)),
        )
        assert outcomes() == fast
        assert any(fast[0]) and not all(fast[0])
        assert any(isinstance(c, list) and len(c) > 1 for c in fast[1])


def _small_weights(rank, total):
    """Dominant weights of the given rank with entry sum at most total."""
    if rank == 0:
        yield ()
        return
    for x in range(total + 1):
        for rest in _small_weights(rank - 1, total - x):
            yield (x,) + rest

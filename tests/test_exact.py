import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from conftest import (
    KERNEL_CONTEXTS,
    field_elements,
    gauss_jordan_inverse,
    period_points,
    random_dominant,
    s3_context,
)
from exact_oracle import (
    frac_kernel_basis,
    frac_mat_inverse,
    frac_rref,
    poly,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_reduce,
    poly_xgcd,
    xgcd_inverse,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from looprep import (
    FieldElem,
    LWeight,
    MatrixL,
    NumberField,
    build_context,
    cyclotomic_context,
    gaussian_context,
    rational_context,
    root_system,
    smith_normal_form,
)
from looprep import exact as exact_module
from looprep.errors import Singular, ZeroDivisor
from looprep.exact import int_inverse, int_kernel_basis, int_rref, rational


# The list polynomials of exact_oracle back the square-free, reduction,
# product and inverse oracles.  These tests keep the names they had when
# the same arithmetic was a library class (PolyQ, poly_gcd).

def test_polyq_canonical_form():
    assert poly([1, 2, 0, 0]) == [Fraction(1), Fraction(2)]
    assert poly([0, 0]) == []
    assert poly(["1/2", "3"]) == [Fraction(1, 2), Fraction(3)]


def test_polyq_divmod():
    num = poly_add(poly_mul([1, 0, 1], [2, 1]), [5])
    q, r = poly_divmod(num, [1, 0, 1])
    assert q == [2, 1] and r == [5]


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1, 0, 1], [-1, 1], [1]),                 # u^2+1 vs u-1: coprime
        ([-1, 0, 1], [-1, 1], [-1, 1]),            # common factor u-1
        ([1, 0, 2, 0, 1], [0, 1, 0, 1], [1, 0, 1]),  # (u^2+1)^2 vs u^3+u
    ],
)
def test_poly_gcd_examples(a, b, expected):
    assert poly_xgcd(a, b)[0] == expected


def test_poly_gcd_of_zeros_is_zero():
    assert poly_xgcd([], [0])[0] == []


def test_poly_gcd_divides_both():
    rng = random.Random(11)
    for _ in range(30):
        a = poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        b = poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        g = poly_xgcd(a, b)[0]
        if not g:
            assert not a and not b
            continue
        assert poly_divmod(a, g)[1] == [] and poly_divmod(b, g)[1] == []


def test_poly_xgcd_bezout():
    rng = random.Random(13)
    for _ in range(20):
        a = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
        b = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
        g, s, t = poly_xgcd(a, b)
        assert poly_add(poly_mul(s, a), poly_mul(t, b)) == g


class TestFieldInverse:
    def test_gaussian_examples(self, qi):
        field = qi.field
        theta = field.gen
        assert theta.inverse() == -theta
        assert (field.one + theta).inverse() == field.elem([Fraction(1, 2), Fraction(-1, 2)])
        assert field.scalar(2).inverse() == field.scalar(Fraction(1, 2))

    def test_zero_raises(self, qi):
        with pytest.raises(ZeroDivisor):
            qi.field.zero.inverse()

    def test_reducible_modulus_detected_at_inversion(self):
        ring = NumberField([-1, 0, 1])  # theta^2 - 1
        with pytest.raises(ZeroDivisor):
            (ring.gen - ring.one).inverse()

    @pytest.mark.parametrize("ctx_name", ["qi", "cyclo5"])
    def test_involution_property(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        field = ctx.field
        rng = random.Random(17)
        for _ in range(25):
            a = field.elem([rng.randint(-3, 3) for _ in range(field.degree)])
            if not a:
                continue
            inv = a.inverse()
            assert a * inv == field.one
            assert inv.inverse() == a


class TestSmithNormalForm:
    @pytest.mark.parametrize(
        "matrix, diagonal",
        [
            ([[2]], (2,)),
            ([[2, -1], [-1, 2]], (1, 3)),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (1, 1, 1)),
        ],
    )
    def test_examples(self, matrix, diagonal):
        assert smith_normal_form(matrix).diagonal == diagonal

    def test_reconstruction_and_chain(self):
        # the diagonal is the chain of determinantal divisors (d_1 ... d_k is
        # the gcd of the k x k minors) and left is unimodular
        rng = random.Random(23)
        for _ in range(30):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            snf = smith_normal_form(m)
            assert len(snf.diagonal) == min(rows, cols)
            product = 1
            for k, entry in enumerate(snf.diagonal, 1):
                product *= entry
                assert product == determinantal_divisor(m, k)
            for a, b in zip(snf.diagonal, snf.diagonal[1:]):
                assert a >= 0 and b >= 0
                if a:
                    assert b % a == 0
                else:
                    assert b == 0
            assert abs(_int_det(snf.left)) == 1

    def test_left_transform_clears_below_the_diagonal(self):
        # rows of left @ m past the rank vanish: left is the row transform
        rng = random.Random(31)
        for _ in range(30):
            cols = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rng.randint(1, 4))]
            snf = smith_normal_form(m)
            rank = sum(1 for x in snf.diagonal if x)
            assert all(not any(row) for row in _int_matmul(snf.left, m)[rank:])


def determinantal_divisor(m, k):
    """gcd of all k x k minors of the integer matrix m."""
    out = 0
    for rows in combinations(range(len(m)), k):
        for cols in combinations(range(len(m[0])), k):
            out = gcd(out, _int_det([[m[i][j] for j in cols] for i in rows]))
    return out


def _int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _int_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _int_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(n)
    )


# --- the Gauss-Jordan inverse of the K-matrix oracle --------------------------

class TestMatrixInverse:
    def test_identity(self, qi):
        eye = MatrixL.identity(qi.field, 3)
        assert gauss_jordan_inverse(eye) == eye

    def test_diagonal_over_qi(self, qi):
        field = qi.field
        theta = field.gen
        m = MatrixL(field, [[theta, field.zero], [field.zero, field.one]])
        inv = gauss_jordan_inverse(m)
        assert inv.rows[0][0] == -theta
        assert inv.rows[1][1] == field.one

    def test_vandermonde(self, qi):
        field = qi.field
        theta = field.gen
        v = MatrixL(field, [[field.one, theta], [field.one, -theta]])
        assert gauss_jordan_inverse(v) * v == MatrixL.identity(field, 2)

    def test_singular_raises(self, qi):
        field = qi.field
        m = MatrixL(field, [[field.one, field.one], [field.one, field.one]])
        with pytest.raises(Singular):
            gauss_jordan_inverse(m)

    def test_random_invertible_up_to_size_five(self, qi):
        field = qi.field
        rng = random.Random(29)
        done = 0
        while done < 12:
            n = rng.randint(1, 5)
            m = MatrixL(
                field,
                [[field.elem([rng.randint(-2, 2), rng.randint(-2, 2)])
                  for _ in range(n)] for _ in range(n)],
            )
            try:
                inv = gauss_jordan_inverse(m)
            except Singular:
                continue
            assert inv * m == MatrixL.identity(field, n)
            assert m * inv == MatrixL.identity(field, n)
            done += 1


# --- integer-numerator kernels against the Fraction formulas ------------------

def poly_product(a, b):
    """Oracle: the product of the coordinate lists reduced mod the modulus."""
    return poly_reduce(a.field, poly_mul(a.coords, b.coords))


def naive_matrix_product(x, y):
    """Oracle: entrywise sum of oracle products, one addition at a time."""
    field = x.field
    rows = []
    for row in x.rows:
        out = []
        for col in zip(*y.rows):
            acc = field.zero
            for a, b in zip(row, col):
                acc = acc + poly_product(a, b)
            out.append(acc)
        rows.append(out)
    return MatrixL(field, rows)


def matrices(field, nrows, ncols):
    row = st.lists(field_elements(field), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows).map(lambda rows: MatrixL(field, rows))


class TestKernels:
    def test_reduction_table_of_non_integral_modulus(self, kernel_contexts):
        field = kernel_contexts["sqrt2_sqrt3"].field
        assert field.fold_den == 32
        for k, fold in enumerate(field.fold_rows):
            coords = [Fraction(0)] * field.degree
            for i, c in fold:
                coords[i] = Fraction(c, field.fold_den)
            assert field.elem(coords) == poly_reduce(field, [0] * (field.degree + k) + [1])

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    @settings(deadline=None)
    @given(data=st.data())
    def test_elem_matches_division_oracle(self, kernel_contexts, name, data):
        field = kernel_contexts[name].field
        coords = data.draw(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                                    max_size=3 * field.degree))
        assert field.elem(coords) == poly_reduce(field, coords)

    def test_modulus_is_a_tuple_of_fractions(self):
        field = NumberField(["1/16", 0, Fraction(-5, 2), 0, 1, 0, 0])
        assert field.modulus == (Fraction(1, 16), 0, Fraction(-5, 2), 0, 1)
        assert all(type(c) is Fraction for c in field.modulus)
        assert repr(field) == "NumberField(1/16, 0, -5/2, 0, 1)"
        assert field == NumberField([Fraction(1, 16), 0, Fraction(-5, 2), 0, 1])
        for modulus in ([], [0, 0], [1], [1, 2], [0, 1, 0, 3]):
            with pytest.raises(ValueError):
                NumberField(modulus)

    def test_terms_round_trip(self, kernel_contexts):
        field = kernel_contexts["sqrt2_sqrt3"].field
        a = field.elem([Fraction(1, 4), 0, Fraction(-3, 2), 5])
        assert a.terms() == (((0, 1), (2, -6), (3, 20)), 4)
        assert field.zero.terms() == ((), 1)

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    @settings(deadline=None)
    @given(c=st.fractions(max_denominator=1000))
    def test_scalar_matches_reduced_constant(self, kernel_contexts, name, c):
        field = kernel_contexts[name].field
        expected = poly_reduce(field, [c])
        assert field.scalar(c) == expected
        assert field.scalar(c).coords == expected.coords
        assert all(type(x) is Fraction for x in field.scalar(c).coords)
        assert field.zero == poly_reduce(field, [])
        assert field.one == poly_reduce(field, [1])

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    @settings(deadline=None)
    @given(data=st.data())
    def test_product_matches_poly_oracle(self, kernel_contexts, name, data):
        field = kernel_contexts[name].field
        a = data.draw(field_elements(field))
        b = data.draw(field_elements(field))
        assert a * b == poly_product(a, b)
        assert a - b == a + (-b)

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_matrix_product_matches_naive_sum(self, kernel_contexts, name, data):
        field = kernel_contexts[name].field
        n, m, p = (data.draw(st.integers(1, 3)) for _ in range(3))
        x = data.draw(matrices(field, n, m))
        y = data.draw(matrices(field, m, p))
        assert x * y == naive_matrix_product(x, y)


# --- the canonical integer form against Fraction-coordinate oracles -----------

def assert_canonical(a):
    """den > 0, no common factor left, and coords derived from the form."""
    assert len(a.nums) == a.field.degree
    assert a.den > 0 and gcd(a.den, *a.nums) == 1
    assert a.coords == tuple(Fraction(x, a.den) for x in a.nums)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


class TestIntegerForm:
    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_results_are_canonical(self, kernel_contexts, name, data):
        field = kernel_contexts[name].field
        a = data.draw(field_elements(field))
        b = data.draw(field_elements(field))
        c = data.draw(rationals)
        for x in (a, b, a + b, a - b, -a, a * c, c * a, a * b, field.scalar(c),
                  FieldElem(field, a.coords)):
            assert_canonical(x)

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_equality_and_hash_agree_with_coords(self, kernel_contexts, name, data):
        field = kernel_contexts[name].field
        a = data.draw(field_elements(field))
        b = data.draw(st.one_of(st.just(a), field_elements(field)))
        assert (a == b) == (a.coords == b.coords)
        assert bool(a) == any(a.coords)
        twin = FieldElem(field, a.coords)
        assert twin == a and hash(twin) == hash(a)
        assert twin.nums == a.nums and twin.den == a.den
        k = data.draw(st.integers(1, 50))
        scaled = field.from_numerators([k * x for x in a.nums], k * a.den)
        assert scaled == a and hash(scaled) == hash(a)

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_linear_operations_match_coordinate_formulas(self, kernel_contexts, name, data):
        field = kernel_contexts[name].field
        a = data.draw(field_elements(field))
        b = data.draw(field_elements(field))
        c = data.draw(rationals)
        assert (a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
        assert (a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
        assert (-a).coords == tuple(-x for x in a.coords)
        assert (a * c).coords == tuple(x * c for x in a.coords)
        assert (a + c).coords == (a.coords[0] + c,) + a.coords[1:]
        assert a.terms() == (
            tuple((i, x) for i, x in enumerate(a.nums) if x), a.den)

    @pytest.mark.parametrize("name", KERNEL_CONTEXTS)
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_order_is_the_coordinate_order(self, kernel_contexts, name, data):
        field = kernel_contexts[name].field
        a = data.draw(field_elements(field))
        b = data.draw(st.one_of(st.just(a), field_elements(field)))
        assert (a < b) == (a.coords < b.coords)
        assert (a > b) == (a.coords > b.coords)
        assert not (a < a)

    def test_order_rejects_other_types(self, qi):
        with pytest.raises(TypeError):
            qi.field.gen < 1
        with pytest.raises(TypeError):
            qi.field.gen < qi.field.gen.coords

    def test_comparisons_build_no_fraction_coordinates(self, kernel_contexts):
        field = kernel_contexts["sqrt2_sqrt3"].field
        theta = field.gen
        a = (theta + Fraction(1, 3)) * (theta - Fraction(5, 2))
        b = a * 2 - a
        assert a == b and hash(a) == hash(b) and a and a.terms()
        assert a + b - a == b and not (a - b)
        assert a != 3 and a * 0 == 0 and field.scalar(Fraction(1)) == 1
        with pytest.raises(AttributeError):
            a._coords
        with pytest.raises(AttributeError):
            b._coords


# --- the one rational rule of every constructor -------------------------------

NOT_RATIONAL = [0.5, 1.0, True, False, "1e0", " 1", "1.5", "1/0", "1_0", "\u0661",
                Decimal(1), None]


@settings(deadline=None)
@given(st.fractions())
@example(Fraction(0))
@example(Fraction(-3))
@example(Fraction(-7, 4))
def test_rational_reads_its_own_text(q):
    assert rational(str(q)) == q
    assert rational(q) is q
    if q.denominator == 1:
        assert rational(q.numerator) == q and type(rational(q.numerator)) is Fraction


@pytest.mark.parametrize("entry", NOT_RATIONAL, ids=repr)
def test_constructors_reject_what_rational_rejects(qi, a1, entry):
    # each used to coerce: a float through Fraction(), a bool as 0 or 1,
    # "1e0" as an exponent literal
    constructors = [
        rational,
        lambda x: NumberField([x, 0, 1]),
        lambda x: qi.field.elem([0, x]),
        lambda x: qi.field.scalar(x),
        lambda x: FieldElem(qi.field, [x, 0]),
        lambda x: build_context([x, 0, 1], [[0, 1], [0, -1]]),
        lambda x: build_context([1, 0, 1], [[0, 1], [x, -1]]),
        lambda x: LWeight.from_json(qi, a1, [{"node": 1, "point": [1, x], "exp": 1}]),
    ]
    for construct in constructors:
        with pytest.raises(ValueError, match="is not a rational"):
            construct(entry)


def test_operators_take_any_int_or_fraction(qi):
    # the rule is for constructors; arithmetic and comparison are unchanged
    theta = qi.field.gen
    assert theta * 2 == theta + theta and theta * Fraction(1, 2) * 2 == theta
    assert qi.field.one == 1 and qi.field.one == True and qi.field.one + True == 2


# --- the fraction-free elimination against the Fraction Gauss-Jordan oracle ---

def int_matrices(min_rows=0, max_rows=6, max_cols=6):
    """Hypothesis strategy: small integer matrices, often rank-deficient,
    with zero rows and columns, tall, wide and 0-row shapes, and negative
    entries (so negative pivots)."""
    def build(shape_and_data):
        (nrows, ncols), data = shape_and_data
        entry = st.one_of(st.just(0), st.integers(-7, 7), st.integers(-10**6, 10**6))
        row = st.lists(entry, min_size=ncols, max_size=ncols)
        rows = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
        if nrows >= 2 and data.draw(st.booleans()):
            k = data.draw(st.integers(-3, 3))
            rows[-1] = [k * x for x in rows[0]]  # a dependent row
        return rows

    shapes = st.tuples(st.integers(min_rows, max_rows), st.integers(1, max_cols))
    return st.tuples(shapes, st.data()).map(build)


def as_fractions(rows, d):
    return [[Fraction(x, d) for x in r] for r in rows]


class TestIntegerElimination:
    @settings(deadline=None, max_examples=300)
    @given(data=st.data())
    def test_rref_and_pivots_match_oracle(self, data):
        rows = data.draw(int_matrices())
        work, pivots, d = int_rref(rows)
        rref, oracle_pivots = frac_rref(rows)
        assert pivots == oracle_pivots
        assert d > 0 and all(type(x) is int for r in work for x in r)
        assert as_fractions(work, d) == rref

    @pytest.mark.parametrize("rows, pivots", [
        ([], []),                                  # no rows at all
        ([[0, 0, 0]], []),                         # a zero row
        ([[0, 2], [0, -4]], [1]),                  # a zero column
        ([[1, 2, 3], [2, 4, 6], [-1, -2, -3]], [0]),  # rank one, tall
        ([[-3, 1, 4, 1, 5]], [0]),                 # wide, negative pivot
        ([[0, -5], [-2, 7], [0, 0]], [0, 1]),      # row swaps, negative pivots
    ])
    def test_edge_shapes(self, rows, pivots):
        work, got, d = int_rref(rows)
        assert got == pivots
        if rows:
            assert as_fractions(work, d) == frac_rref(rows)[0]
        else:
            assert work == [] and d == 1

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_kernel_basis_matches_oracle(self, data):
        rows = data.draw(int_matrices(min_rows=1))
        basis, d = int_kernel_basis(rows)
        assert [tuple(Fraction(x, d) for x in v) for v in basis] == frac_kernel_basis(rows)

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_inverse_matches_oracle(self, data):
        n = data.draw(st.integers(1, 5))
        rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        try:
            expected = frac_mat_inverse(rows)
        except Singular:
            with pytest.raises(Singular):
                int_inverse(rows)
            return
        inv, d = int_inverse(rows)
        assert [tuple(r) for r in as_fractions(inv, d)] == expected

    def test_rank_kernel_and_inverse_build_no_fraction(self, monkeypatch):
        class NoFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("a Fraction was built")

        a = cyclotomic_context(8).field.gen + 3
        monkeypatch.setattr(exact_module, "Fraction", NoFraction)
        rows = [[2, -4, 6, 1], [1, -2, 3, 5], [0, 0, 7, -7]]
        work, pivots, d = int_rref(rows)
        basis, kd = int_kernel_basis(rows)
        inv, id_ = int_inverse([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        b = a.inverse()
        assert pivots == [0, 2, 3] and len(basis) == 1 and kd == d and id_ == 4
        for x in [d, kd, id_, b.den, *b.nums] + [x for r in work + basis + inv for x in r]:
            assert type(x) is int


# --- field inversion against extended Euclid ----------------------------------

# the library's stock contexts and two S3 ones, built on demand
STOCK_CONTEXTS = {
    "rational": rational_context, "qi": gaussian_context,
    "zeta5": lambda: cyclotomic_context(5), "zeta5_h03": lambda: cyclotomic_context(5, [0, 3]),
    "zeta7": lambda: cyclotomic_context(7), "zeta8": lambda: cyclotomic_context(8),
    "zeta15": lambda: cyclotomic_context(15), "zeta16": lambda: cyclotomic_context(16),
    "zeta16_h07": lambda: cyclotomic_context(16, [0, 7]), "s3": s3_context,
    "s3_h03": lambda: s3_context([0, 3]),
}


# the rational field, Q(i), zeta5, zeta7, zeta8, zeta16, and the elements of
# zeta16's fixed field of H = {0, 7}
INVERSE_FIELDS = ("rational", "qi", "zeta5", "zeta7", "zeta8", "zeta16", "zeta16_h07")


@pytest.fixture(scope="module")
def inverse_contexts():
    return {name: STOCK_CONTEXTS[name]() for name in INVERSE_FIELDS}


class TestInverseAgainstXgcd:
    @pytest.mark.parametrize("name", INVERSE_FIELDS)
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_inverse_matches_xgcd(self, inverse_contexts, name, data):
        ctx = inverse_contexts[name]
        field = ctx.field
        a = data.draw(field_elements(field))
        if name == "zeta16_h07":
            # an element of K = L^H, as the K-matrix layer inverts
            coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(ctx.k_basis),
                                        max_size=len(ctx.k_basis)))
            a = sum((c * b for c, b in zip(coeffs, ctx.k_basis)), a * 0)
        if not a:
            with pytest.raises(ZeroDivisor):
                a.inverse()
            return
        inv = a.inverse()
        assert inv == xgcd_inverse(a)
        assert a * inv == field.one

    def test_non_integral_modulus(self, kernel_contexts):
        field = kernel_contexts["sqrt2_sqrt3"].field
        rng = random.Random(37)
        for _ in range(25):
            a = field.elem([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                            for _ in range(field.degree)])
            if a:
                assert a.inverse() == xgcd_inverse(a)

    def test_zero_divisors_of_a_reducible_modulus(self):
        # (theta^2 + 1)(theta - 2): zero divisors are exactly the multiples
        # of a factor, where extended Euclid finds a nontrivial gcd
        ring = NumberField([-2, 1, -2, 1])
        rng = random.Random(41)
        seen = set()
        for _ in range(60):
            a = ring.elem([rng.randint(-2, 2) for _ in range(3)])
            if not a:
                continue
            expected = xgcd_inverse(a)
            if expected is None:
                seen.add("zero divisor")
                with pytest.raises(ZeroDivisor):
                    a.inverse()
            else:
                seen.add("unit")
                assert a.inverse() == expected
        for factor in (ring.gen ** 2 + 1, ring.gen - 2):
            with pytest.raises(ZeroDivisor):
                factor.inverse()
        assert seen == {"unit", "zero divisor"}

    def test_reducible_modulus_raises_under_optimize(self, src_env):
        script = (
            "from looprep import NumberField\n"
            "from looprep.errors import ZeroDivisor\n"
            "ring = NumberField([-1, 0, 1])\n"
            "try:\n"
            "    (ring.gen - ring.one).inverse()\n"
            "except ZeroDivisor:\n"
            "    print('raised')\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, env=src_env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"

    def test_rtruediv_rejects_other_operands_before_inverting(self, qi, monkeypatch):
        a = qi.field.gen + 1

        def no_inverse(self):
            raise AssertionError("inverted before coercing")

        assert a.__rtruediv__(1.5) is NotImplemented
        monkeypatch.setattr(FieldElem, "inverse", no_inverse)
        with pytest.raises(TypeError, match="unsupported operand.*float.*FieldElem"):
            1.5 / a
        monkeypatch.undo()
        assert 2 / a == qi.field.scalar(2) * a.inverse()


# --- library results built on the elimination against the oracle ---------------

def oracle_fixed_space(ctx, subgroup):
    """Fixed space of a subgroup by frac_kernel_basis on the Fraction rows of
    M_g - I for every element g (not just generators) of the subgroup."""
    field = ctx.field
    n = field.degree
    powers = [field.gen ** k for k in range(n)]
    rows = []
    for g in subgroup:
        images = [ctx.apply(g, p).coords for p in powers]
        rows += [[images[k][i] - (i == k) for k in range(n)] for i in range(n)]
    return tuple(FieldElem(field, vec) for vec in frac_kernel_basis(rows))


@pytest.mark.parametrize("name", STOCK_CONTEXTS)
def test_k_basis_matches_oracle(name):
    ctx = STOCK_CONTEXTS[name]()
    assert ctx.k_basis == oracle_fixed_space(ctx, ctx.subgroup)
    assert oracle_fixed_space(ctx, range(ctx.order)) == (ctx.field.one,)


def test_k_basis_of_non_integral_modulus_matches_oracle(kernel_contexts):
    ctx = kernel_contexts["sqrt2_sqrt3"]
    assert ctx.k_basis == oracle_fixed_space(ctx, ctx.subgroup)


def all_subgroups(ctx):
    """Every subgroup of G: close each one found under one more element."""
    def closure(elems):
        span = set(elems)
        while True:
            grown = span | {ctx.table[g][h] for g in span for h in span}
            if grown == span:
                return frozenset(span)
            span = grown

    found, todo = set(), [frozenset({0})]
    while todo:
        sub = todo.pop()
        if sub not in found:
            found.add(sub)
            todo += [closure(sub | {g}) for g in range(ctx.order) if g not in sub]
    return sorted(tuple(sorted(sub)) for sub in found)


# the fixed space is solved on a generating set of the subgroup it is given
@pytest.mark.parametrize("name", STOCK_CONTEXTS)
def test_fixed_space_of_every_subgroup_matches_oracle(name):
    ctx = STOCK_CONTEXTS[name]()
    subgroups = all_subgroups(ctx)
    assert (0,) in subgroups and tuple(range(ctx.order)) in subgroups
    for sub in subgroups:
        assert ctx.fixed_space_basis(sub) == oracle_fixed_space(ctx, sub), sub


@pytest.mark.parametrize("name", KERNEL_CONTEXTS)
def test_fixed_space_of_every_kernel_subgroup_matches_oracle(kernel_contexts, name):
    ctx = kernel_contexts[name]
    for sub in all_subgroups(ctx):
        assert ctx.fixed_space_basis(sub) == oracle_fixed_space(ctx, sub), sub


@pytest.mark.parametrize("name", ["qi", "zeta5", "zeta5_h03", "zeta8", "zeta15", "zeta16_h07",
                                  "s3", "s3_h03"])
def test_fixed_space_of_stabilizers_matches_oracle(name):
    ctx = STOCK_CONTEXTS[name]()
    a2 = root_system("A2")
    rng = random.Random(163)
    pool = period_points(ctx)
    sample = [LWeight.single(ctx, a2, 0, p) for p in pool]
    sample += [random_dominant(ctx, a2, rng, max_support=2, pool=pool) for _ in range(12)]
    stabilizers = set()
    for lw in sample:
        stab = lw.stabilizer()
        stabilizers.add(stab)
        assert ctx.fixed_space_basis(stab) == oracle_fixed_space(ctx, stab), lw
    assert len(stabilizers) > 1 or len(ctx.subgroup) == 1


CARTAN_TYPES = ("A1", "A2", "A5", "A8", "B2", "B3", "B8", "C3", "C8", "D4", "D8",
                "E6", "E7", "E8", "F4", "G2")


@pytest.mark.parametrize("lie_type", CARTAN_TYPES)
def test_cartan_inverse_matches_oracle(lie_type):
    rs = root_system(lie_type)
    expected = tuple(frac_mat_inverse(rs.cartan))
    assert rs.cartan_inv == expected
    assert all(type(x) is Fraction for r in rs.cartan_inv for x in r)

import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import KERNEL_CONTEXTS, field_elements, gauss_jordan_inverse
from hypothesis import given, settings
from hypothesis import strategies as st

from looprep import (
    FieldElem,
    MatrixL,
    NumberField,
    PolyQ,
    poly_gcd,
    poly_xgcd,
    smith_normal_form,
)
from looprep.errors import Singular, ZeroDivisor


def test_polyq_canonical_form():
    assert PolyQ([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert PolyQ([0, 0]).is_zero
    assert PolyQ(["1/2", "3"]).coeffs == (Fraction(1, 2), Fraction(3))


def test_polyq_divmod():
    num = PolyQ([1, 0, 1]) * PolyQ([2, 1]) + PolyQ([5])
    q, r = divmod(num, PolyQ([1, 0, 1]))
    assert q == PolyQ([2, 1]) and r == PolyQ([5])


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1, 0, 1], [-1, 1], [1]),                 # u^2+1 vs u-1: coprime
        ([-1, 0, 1], [-1, 1], [-1, 1]),            # common factor u-1
        ([1, 0, 2, 0, 1], [0, 1, 0, 1], [1, 0, 1]),  # (u^2+1)^2 vs u^3+u
    ],
)
def test_poly_gcd_examples(a, b, expected):
    assert poly_gcd(PolyQ(a), PolyQ(b)) == PolyQ(expected)


def test_poly_gcd_of_zeros_is_zero():
    assert poly_gcd(PolyQ(), PolyQ()).is_zero


def test_poly_gcd_divides_both():
    rng = random.Random(11)
    for _ in range(30):
        a = PolyQ([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        b = PolyQ([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        g = poly_gcd(a, b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
            continue
        assert (a % g).is_zero and (b % g).is_zero


def test_poly_xgcd_bezout():
    rng = random.Random(13)
    for _ in range(20):
        a = PolyQ([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        b = PolyQ([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        g, s, t = poly_xgcd(a, b)
        assert s * a + t * b == g


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
        ring = NumberField(PolyQ([-1, 0, 1]))  # theta^2 - 1
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
        rng = random.Random(23)
        for _ in range(30):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            snf = smith_normal_form(m)
            product = _int_matmul(_int_matmul(snf.left, m), snf.right)
            for i in range(rows):
                for j in range(cols):
                    expected = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
                    assert product[i][j] == expected
            for a, b in zip(snf.diagonal, snf.diagonal[1:]):
                assert a >= 0 and b >= 0
                if a:
                    assert b % a == 0
                else:
                    assert b == 0
            assert abs(_int_det(snf.left)) == 1
            assert abs(_int_det(snf.right)) == 1


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
    """Oracle: the product as a PolyQ product reduced mod the modulus."""
    return a.field.from_poly(a.as_poly() * b.as_poly())


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
            assert field.elem(coords) == field.from_poly(PolyQ.x(field.degree + k))

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
        expected = field.from_poly(PolyQ([c]))
        assert field.scalar(c) == expected
        assert field.scalar(c).coords == expected.coords
        assert all(type(x) is Fraction for x in field.scalar(c).coords)
        assert field.zero == field.from_poly(PolyQ([]))
        assert field.one == field.from_poly(PolyQ([1]))

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
        assert a != 3 and a * 0 == 0 and field.scalar(True) == 1
        with pytest.raises(AttributeError):
            a._coords
        with pytest.raises(AttributeError):
            b._coords

"""The packed integer series layer against the frozenset/Fraction oracle in
series_oracle.py, coefficient by coefficient and by printed text."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import series_oracle as oracle
from conftest import generic_series, twisted
from looprep import (
    SymPoly,
    TruncSeries,
    binom_poly,
    eval_at,
    h_from_lambda,
    h_series,
    h_symbol,
    lambda_alpha_from_simples,
    lambda_alpha_identity_holds,
    lambda_from_h,
    root_system,
    series_inverse,
)
from looprep import series
from looprep.errors import ExponentOverflow
from looprep.series import MAX_ORDER, _exp, _h_exponent, _log, h_point_symbol

ALPHAS = ("a", 1, "b")
# the types of the root-formula checks; every order with rank * order <= 36
IDENTITY_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4")
IDENTITY_CASES = [(t, order) for t in IDENTITY_TYPES
                  for order in range(1, MAX_ORDER + 1) if int(t[1:]) * order <= 36]


def as_oracle(p):
    """The oracle polynomial with the terms of a library polynomial."""
    return oracle.SymPoly({
        frozenset((series._SYMBOLS[slot], e) for slot, e in series._exponents(m)):
            Fraction(c) if isinstance(c, int) else c
        for m, c in p.terms.items()
    })


def assert_same_poly(poly, expected):
    assert as_oracle(poly) == expected
    assert str(poly) == str(expected)


def assert_same_series(s, expected):
    assert s.order == expected.order
    assert len(s.coeffs) == len(expected.coeffs)
    for c, e in zip(s.coeffs, expected.coeffs):
        assert_same_poly(c, e)
    assert str(s) == str(expected)


def terms_strategy(symbols, max_exp):
    """Small polynomials as (coefficient, ((symbol, exponent), ...)) lists."""
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    mono = st.lists(st.tuples(st.sampled_from(symbols), st.integers(1, max_exp)),
                    max_size=2, unique_by=lambda se: se[0])
    return st.lists(st.tuples(rationals, mono), max_size=3)


def build(terms, module):
    """One description built in the library (module=series) or the oracle."""
    acc = module.SymPoly.zero()
    for c, mono in terms:
        term = module.SymPoly.const(c)
        for sym, e in mono:
            term = term * module.SymPoly.var(sym) ** e
        acc = acc + term
    return acc


@st.composite
def series_pairs(draw, constant):
    """A truncated series in the symbols x, y and h[a,1], built in both the
    library and the oracle, with the given constant term (None: drawn)."""
    order = draw(st.integers(1, 6))
    symbols = [("x",), ("y",), h_symbol("a", 1)]
    coeffs = [draw(terms_strategy(symbols, 2)) for _ in range(order)]
    head = [(Fraction(draw(st.integers(-2, 2))) if constant is None else constant, [])]
    built = {}
    for module in (series, oracle):
        polys = [build(head, module)] + [build(c, module) for c in coeffs]
        built[module] = module.TruncSeries(order, polys)
    return built[series], built[oracle]


class TestAgainstOracle:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
    def test_generating_series_and_log(self, alpha, order):
        lam = lambda_from_h(alpha, order)
        expected = oracle.lambda_from_h(alpha, order)
        assert_same_series(lam, expected)
        for got, want in zip(h_from_lambda(lam), oracle.h_from_lambda(expected)):
            assert_same_poly(got, want)

    @pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
    def test_inverse_and_binomial_series(self, order):
        lam = lambda_from_h("a", order)
        expected = oracle.lambda_from_h("a", order)
        assert_same_series(series_inverse(lam), oracle.series_inverse(expected))
        assert_same_series(h_series("a", order), oracle.h_series("a", order))
        assert_same_poly(binom_poly(h_point_symbol("a"), order),
                         oracle.binom_poly(h_point_symbol("a"), order))

    @pytest.mark.parametrize("order", [1, 5, MAX_ORDER])
    def test_generic_series(self, order):
        generic = generic_series("a", order)
        expected = oracle.generic_lambda_series("a", order)
        assert_same_series(generic, expected)
        for got, want in zip(h_from_lambda(generic), oracle.h_from_lambda(expected)):
            assert_same_poly(got, want)
        assert_same_series(series_inverse(generic), oracle.series_inverse(expected))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("order", [1, 4, 8, MAX_ORDER])
    def test_twist(self, k, order):
        assert_same_series(twisted(lambda_from_h("a", order), "a", k),
                           oracle.twist(oracle.lambda_from_h("a", order), k))

    @pytest.mark.parametrize("point", [Fraction(1), Fraction(-1), Fraction(-2, 3),
                                       Fraction(5, 7), 3])
    @pytest.mark.parametrize("order", [1, 6, MAX_ORDER])
    def test_eval_at_rational_points(self, point, order):
        assert_same_series(eval_at(lambda_from_h("a", order), point),
                           oracle.eval_at(oracle.lambda_from_h("a", order), point))

    @pytest.mark.parametrize("context", ["qi", "cyclo5_half", "zeta8"])
    def test_eval_at_field_points(self, settings_by_name, context):
        ctx = settings_by_name[context]
        rng = random.Random(7)
        gen = ctx.field.gen
        for point in (gen, gen * 2 + 1, ctx.field.scalar(Fraction(rng.randint(1, 5), 3)) - gen):
            for order in (1, 4, 7):
                got = eval_at(lambda_from_h("a", order), point)
                assert_same_series(got, oracle.eval_at(oracle.lambda_from_h("a", order), point))
                assert got.coeffs[order] == binom_poly(h_point_symbol("a"), order) \
                    * (-point) ** order

    @pytest.mark.parametrize("order", [1, 6, MAX_ORDER])
    def test_eval_at_symbolic_point(self, order):
        x = SymPoly.var(("x",))
        assert_same_series(
            eval_at(lambda_from_h("a", order), x * 2 - 1),
            oracle.eval_at(oracle.lambda_from_h("a", order),
                           oracle.SymPoly.var(("x",)) * 2 - 1),
        )

    @settings(deadline=None, max_examples=40)
    @given(series_pairs(constant=Fraction(0)), series_pairs(constant=None))
    def test_exp_and_products(self, arg, other):
        s, o = arg
        assert_same_series(_exp(s), oracle._exp(o))
        if s.order == other[0].order:
            assert_same_series(s * other[0], o * other[1])
            assert_same_series(s + other[0] - s * 3, o + other[1] - o * 3)

    @settings(deadline=None, max_examples=40)
    @given(series_pairs(constant=Fraction(1)))
    def test_log_and_inverse(self, pair):
        s, o = pair
        assert_same_series(_log(s), oracle._log(o))
        assert_same_series(series_inverse(s), oracle.series_inverse(o))
        for got, want in zip(h_from_lambda(s), oracle.h_from_lambda(o)):
            assert_same_poly(got, want)

    @settings(deadline=None, max_examples=40)
    @given(terms_strategy([("x",), ("y",), h_symbol(2, 3)], 3),
           terms_strategy([("x",), ("y",), h_symbol(2, 3)], 3))
    def test_polynomial_arithmetic(self, left, right):
        p, q = build(left, series), build(right, series)
        op, oq = build(left, oracle), build(right, oracle)
        assert_same_poly(p * q, op * oq)
        assert_same_poly(p - q, op - oq)
        assert (p == q) == (op == oq)
        mapping = {("x",): q}
        assert_same_poly(p.substitute(mapping), op.substitute({("x",): oq}))


class TestRootIdentity:
    @pytest.mark.parametrize("lie_type, order", IDENTITY_CASES)
    def test_identity_at_every_order(self, lie_type, order):
        rs = root_system(lie_type)
        for root in rs.positive_roots:
            assert lambda_alpha_identity_holds(rs, root, order)

    @pytest.mark.parametrize("lie_type, order",
                             [(t, o) for t, o in IDENTITY_CASES if int(t[1:]) * o <= 12])
    def test_both_sides_match_the_oracle(self, lie_type, order):
        rs = root_system(lie_type)
        for root in rs.positive_roots:
            weights = {i + 1: m for i, m in enumerate(rs.coroot_coeffs(root)) if m}
            assert_same_series(_exp(_h_exponent(weights, order)),
                               oracle._exp(oracle._h_exponent(weights, order)))
            assert_same_series(lambda_alpha_from_simples(rs, root, order),
                               oracle.lambda_alpha_from_simples(rs, root, order))

    @pytest.mark.parametrize("lie_type", IDENTITY_TYPES)
    def test_both_sides_at_an_integer_point(self, lie_type):
        # each side for the highest root, the one with the most simple
        # factors, specialized at integer values of the h[i,s], against the
        # numeric series exp(-sum_s x_s u^s / s) and the numeric product of
        # simple-root series: an independent check of each side alone.  The
        # largest order covers the lower ones, whose coefficients it holds.
        order = max(o for t, o in IDENTITY_CASES if t == lie_type)
        rs = root_system(lie_type)
        rng = random.Random(order * 100 + rs.rank)
        values = {h_symbol(i + 1, s): rng.randint(-9, 9)
                  for i in range(rs.rank) for s in range(1, order + 1)}
        facts = [1]
        for n in range(1, order + 1):
            facts.append(facts[-1] * n)

        def numeric_exp(arg):
            out = [Fraction(1)]
            for n in range(1, order + 1):
                out.append(sum(k * arg[k] * out[n - k] for k in range(1, n + 1)) / n)
            return out

        def numeric_product(a, b):
            return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(order + 1)]

        def specialize(s):
            # the scaled coefficients are integer polynomials
            return [Fraction(sum(c * _value(m, values) for m, c in coeff.terms.items()), f)
                    for coeff, f in zip(s.scaled, facts)]

        simple = [numeric_exp([0] + [Fraction(-values[h_symbol(i + 1, s)], s)
                                     for s in range(1, order + 1)])
                  for i in range(rs.rank)]
        root = rs.highest_root
        coroot = rs.coroot_coeffs(root)
        weights = {i + 1: m for i, m in enumerate(coroot) if m}
        summed = [0] + [Fraction(-sum(m * values[h_symbol(i, s)]
                                      for i, m in weights.items()), s)
                        for s in range(1, order + 1)]
        expected = numeric_exp(summed)
        assert specialize(_exp(_h_exponent(weights, order))) == expected
        product = [Fraction(1)] + [Fraction(0)] * order
        for i, m in enumerate(coroot):
            for _ in range(m):
                product = numeric_product(product, simple[i])
        assert product == expected
        assert specialize(lambda_alpha_from_simples(rs, root, order)) == expected

    def test_recurrences_build_no_fraction(self, monkeypatch):
        # the generating series, products, inverse and log of integer
        # arguments stay on ints: no Fraction is built before the coeffs view
        class NoFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("Fraction built")

        monkeypatch.setattr(series, "Fraction", NoFraction)
        rs = root_system("B3")
        for root in rs.positive_roots:
            assert lambda_alpha_identity_holds(rs, root, 8)
        lam = lambda_from_h("a", 8)
        assert lam * series_inverse(lam) == TruncSeries.one(8)
        assert _exp(_log(lam)) == lam


def _value(mono, values):
    out = 1
    for slot, e in series._exponents(mono):
        out *= values[series._SYMBOLS[slot]] ** e
    return out


class TestExponentOverflow:
    def test_slot_bound(self):
        x = SymPoly.var(("x",))
        top = x ** series._LARGEST
        with pytest.raises(ExponentOverflow):
            top * x
        with pytest.raises(ExponentOverflow):
            x ** (series._LARGEST + 1)

    def test_no_carry_into_the_next_slot(self):
        # x and y take neighbouring slots; an overflow of x must not read as y
        x, y = SymPoly.var(("x-carry",)), SymPoly.var(("y-carry",))
        assert series._SLOTS[("y-carry",)] == series._SLOTS[("x-carry",)] + 1
        with pytest.raises(ExponentOverflow):
            (x ** 8 * y) * (x ** 8)

    def test_slots_hold_every_order_up_to_the_bound(self):
        assert series._LARGEST >= MAX_ORDER
        lam = lambda_from_h("a", MAX_ORDER)
        assert lam * series_inverse(lam) == TruncSeries.one(MAX_ORDER)
        with pytest.raises(ExponentOverflow):
            lambda_from_h("a", series._LARGEST + 1)
        with pytest.raises(ExponentOverflow):
            binom_poly(h_point_symbol("a"), series._LARGEST + 1)

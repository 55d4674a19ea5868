import random
from fractions import Fraction

import pytest
from conftest import generic_series, twisted

from looprep import (
    SymPoly,
    TruncSeries,
    binom_poly,
    ev_lambda_check,
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
from looprep.errors import BadConstantTerm, ZeroPoint
from looprep.series import _exp, _h_exponent, _log, h_point_symbol

H = lambda s: SymPoly.var(h_symbol("a", s))


def power_exp(arg):
    """Oracle: exp as sum_k arg^k / k!, with N full series products."""
    acc = TruncSeries.one(arg.order)
    power = TruncSeries.one(arg.order)
    fact = 1
    for k in range(1, arg.order + 1):
        power = power * arg
        fact *= k
        acc = acc + power * Fraction(1, fact)
    return acc


def power_log(series):
    """Oracle: log as sum_k (-1)^(k+1) (series - 1)^k / k."""
    shifted = series - TruncSeries.one(series.order)
    acc = TruncSeries(series.order, [SymPoly.zero()] * (series.order + 1))
    power = TruncSeries.one(series.order)
    for k in range(1, series.order + 1):
        power = power * shifted
        acc = acc + power * Fraction((-1) ** (k + 1), k)
    return acc


def substituted_left_side(rs, root, order):
    """Oracle: the exponential formula for a root symbol with h[alpha, s]
    replaced by sum_i m_i h[i, s] afterwards."""
    mapping = {}
    for s in range(1, order + 1):
        total = SymPoly.zero()
        for i, m in enumerate(rs.coroot_coeffs(root)):
            if m:
                total = total + SymPoly.var(h_symbol(i + 1, s)) * Fraction(m)
        mapping[h_symbol("alpha", s)] = total
    return lambda_from_h("alpha", order).substitute(mapping)


def random_series(rng, order, constant):
    """A series with the given constant term and small random coefficients
    in the symbols x and y."""
    x, y = SymPoly.var(("x",)), SymPoly.var(("y",))
    coeffs = [SymPoly.const(constant)]
    for _ in range(order):
        coeffs.append(x * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      + y * Fraction(rng.randint(-2, 2))
                      + SymPoly.const(Fraction(rng.randint(-2, 2), rng.randint(1, 2))))
    return TruncSeries(order, coeffs)


class TestGeneratingSeries:
    def test_constant_term(self):
        assert lambda_from_h("a", 4).coeffs[0] == SymPoly.const(1)

    def test_first_order(self):
        assert lambda_from_h("a", 4).coeffs[1] == -H(1)

    def test_second_order(self):
        expected = (H(1) * H(1) - H(2)) * Fraction(1, 2)
        assert lambda_from_h("a", 4).coeffs[2] == expected


class TestLogRecovery:
    def test_first_symbol(self):
        recovered = h_from_lambda(lambda_from_h("a", 4))
        assert recovered[0] == H(1)

    def test_generic_coefficients(self):
        hs = h_from_lambda(generic_series("a", 4))
        L1 = SymPoly.var(("L", "a", 1))
        L2 = SymPoly.var(("L", "a", 2))
        assert hs[0] == -L1
        assert hs[1] == L1 * L1 - L2 * Fraction(2)

    def test_round_trip_identity_order_8(self):
        recovered = h_from_lambda(lambda_from_h("a", 8))
        for s in range(1, 9):
            assert recovered[s - 1] == H(s)

    def test_bad_constant_term(self):
        series = TruncSeries(3, [SymPoly.const(2)] + [SymPoly.zero()] * 3)
        with pytest.raises(BadConstantTerm):
            h_from_lambda(series)


class TestRootSeries:
    def test_simple_root_is_its_own_series(self, a2):
        assert lambda_alpha_from_simples(a2, (1, 0), 4) == lambda_from_h(1, 4)

    def test_a2_sum_of_simples(self, a2):
        product = lambda_from_h(1, 4) * lambda_from_h(2, 4)
        assert lambda_alpha_from_simples(a2, (1, 1), 4) == product

    def test_g2_long_root(self, g2):
        product = lambda_from_h(1, 3) * lambda_from_h(2, 3) ** 2
        assert lambda_alpha_from_simples(g2, (3, 2), 3) == product

    @pytest.mark.parametrize("lie_type", ["A2", "B2", "G2"])
    def test_substitution_identity_order_6(self, lie_type):
        rs = root_system(lie_type)
        for root in rs.positive_roots:
            assert lambda_alpha_identity_holds(rs, root, 6)


class TestRecurrences:
    # _exp and _log are single-pass recurrences; the power loops they
    # replaced are the oracles, compared coefficient by coefficient

    @pytest.mark.parametrize("order", range(1, 9))
    def test_generating_series(self, order):
        arg = _h_exponent({"a": 1}, order)
        lam = lambda_from_h("a", order)
        assert _exp(arg).coeffs == power_exp(arg).coeffs == lam.coeffs
        assert _log(lam).coeffs == power_log(lam).coeffs == arg.coeffs

    @pytest.mark.parametrize("order", range(1, 9))
    def test_generic_series(self, order):
        generic = generic_series("a", order)
        logs = _log(generic)
        assert logs.coeffs == power_log(generic).coeffs
        assert _exp(logs).coeffs == power_exp(logs).coeffs == generic.coeffs

    @pytest.mark.parametrize("order", range(1, 9))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_series(self, order, seed):
        rng = random.Random(order * 10 + seed)
        arg = random_series(rng, order, 0)
        assert _exp(arg).coeffs == power_exp(arg).coeffs
        series = random_series(rng, order, 1)
        assert _log(series).coeffs == power_log(series).coeffs

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            _exp(TruncSeries.one(3))


class TestRootFormula:
    @pytest.mark.parametrize("lie_type", ["A2", "B2", "G2"])
    def test_left_side_is_the_substituted_formula(self, lie_type):
        rs = root_system(lie_type)
        for order in range(1, 7):
            for root in rs.positive_roots:
                weights = {i + 1: m for i, m in enumerate(rs.coroot_coeffs(root)) if m}
                assert _exp(_h_exponent(weights, order)) == \
                    substituted_left_side(rs, root, order)

    def test_extra_simple_factor_is_detected(self, g2, monkeypatch):
        true_product = series.lambda_alpha_from_simples
        monkeypatch.setattr(series, "lambda_alpha_from_simples",
                            lambda rs, root, order: true_product(rs, root, order)
                            * lambda_from_h(1, order))
        for root in g2.positive_roots:
            assert not lambda_alpha_identity_holds(g2, root, 4)


class TestMixedTags:
    def test_int_and_str_tags(self):
        # monomials are compared as sets, never sorted, so an int tag and a
        # str tag may share one polynomial
        x = SymPoly.var(h_symbol(1, 1))
        y = SymPoly.var(h_symbol("a", 1))
        assert x * y == y * x and hash(x * y) == hash(y * x)
        assert x * y != x * x
        assert {x * y: 1}[y * x] == 1
        assert (x + y) * (x - y) == x * x - y * y
        assert (x * y).substitute({h_symbol(1, 1): y}) == y * y

    def test_printing_int_and_str_tags(self):
        # printing sorts symbols with int tags before str tags
        x = SymPoly.var(h_symbol(1, 1))
        y = SymPoly.var(h_symbol("a", 1))
        assert str(x * y) == str(y * x) == "h[1,1]*h[a,1]"
        assert str(y * y + x * y + 2 * x + y) == "(2)*h[1,1] + h[a,1] + h[1,1]*h[a,1] + h[a,1]^2"

    def test_symbols_print_with_their_own_head(self):
        # L[a,1] and h[a,1] are distinct symbols and must print distinctly
        both = SymPoly.var(("L", "a", 1)) + SymPoly.var(h_symbol("a", 1))
        assert str(both) == "L[a,1] + h[a,1]"
        assert str(SymPoly.var(("x",)) * 3) == "(3)*x"
        assert str(SymPoly.var(h_point_symbol("a"))) == "h[a]"
        assert str(generic_series("a", 2).coeffs[2]) == "L[a,2]"


class TestTwist:
    # the twist t -> t^k is TruncSeries.substitute on the symbols

    def test_identity_twist(self):
        lam = lambda_from_h("a", 4)
        assert twisted(lam, "a", 1) == lam

    def test_symbol_substitution(self):
        lam = lambda_from_h("a", 4)
        assert twisted(lam, "a", 2).coeffs[1] == -SymPoly.var(h_symbol("a", 2))

    def test_second_coefficient(self):
        lam = twisted(lambda_from_h("a", 4), "a", 2)
        h2 = SymPoly.var(h_symbol("a", 2))
        h4 = SymPoly.var(h_symbol("a", 4))
        assert lam.coeffs[2] == (h2 * h2 - h4) * Fraction(1, 2)


class TestEvaluation:
    def test_first_order(self):
        assert ev_lambda_check("a", 1, Fraction(1))

    def test_second_order(self):
        ev = eval_at(lambda_from_h("a", 2), Fraction(1))
        hp = SymPoly.var(h_point_symbol("a"))
        assert ev.coeffs[2] == (hp * hp - hp) * Fraction(1, 2)

    def test_binomials_up_to_six(self):
        for r in range(1, 7):
            assert ev_lambda_check("a", r, Fraction(1))
            assert ev_lambda_check("a", r, Fraction(-2, 3))

    def test_symbolic_point(self):
        # substitute h[a,s] -> x^s h[a] with x itself a symbol and compare
        # against (-x)^r binom(h[a], r)
        order = 5
        lam = lambda_from_h("a", order)
        x = SymPoly.var(("x",))
        mapping = {h_symbol("a", s): x ** s * SymPoly.var(h_point_symbol("a"))
                   for s in range(1, order + 1)}
        ev = lam.substitute(mapping)
        for r in range(1, order + 1):
            expected = binom_poly(h_point_symbol("a"), r) * (-SymPoly.const(1)) ** r * x ** r
            assert ev.coeffs[r] == expected

    def test_field_point(self, qi):
        i = qi.field.gen
        for r in range(1, 4):
            assert ev_lambda_check("a", r, i)

    def test_zero_point_rejected(self):
        with pytest.raises(ZeroPoint):
            eval_at(lambda_from_h("a", 3), 0)


class TestInverse:
    def test_inverse_of_one(self):
        one = TruncSeries.one(5)
        assert series_inverse(one) == one

    def test_antipode_order_8(self):
        lam = lambda_from_h("a", 8)
        assert lam * series_inverse(lam) == TruncSeries.one(8)
        assert series_inverse(series_inverse(lam)) == lam

    def test_bad_constant_term(self):
        series = TruncSeries(2, [SymPoly.zero()] * 3)
        with pytest.raises(BadConstantTerm):
            series_inverse(series)


class TestBinomialSeries:
    def test_first_coefficient(self):
        assert h_series("a", 3).coeffs[1] == SymPoly.var(h_point_symbol("a"))

    def test_all_binomials_order_8(self):
        series = h_series("a", 8)
        for k in range(9):
            assert series.coeffs[k] == binom_poly(h_point_symbol("a"), k)


class TestPrinting:
    def test_deterministic_format(self):
        lam = lambda_from_h("a", 2)
        text = str(lam)
        assert text == "1 + -h[a,1]*u + ((-1/2)*h[a,2] + (1/2)*h[a,1]^2)*u^2"

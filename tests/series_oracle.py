"""Oracle for looprep.series: the series layer on frozenset monomials and
Fraction coefficients, term by term as the library computed it before the
packed integer form.

A monomial is a frozenset of (symbol, exponent) pairs and a polynomial a
dict from monomial to Fraction; exp and log are the recurrence
n a_n = sum k b_k a_(n-k) on unscaled coefficients.  Tests compare the
library against it coefficient by coefficient and by printed text.
"""

from __future__ import annotations

from fractions import Fraction

from looprep.errors import BadConstantTerm, ZeroPoint


def h_symbol(alpha, s: int):
    """The generator symbol h[alpha, s], s >= 1."""
    if s < 1:
        raise ValueError("generator index must be >= 1")
    return ("h", alpha, s)


def h_point_symbol(alpha):
    """The evaluated symbol h[alpha]."""
    return ("h", alpha)


def _sym_str(sym):
    """A symbol printed with its own head: ('h', a, 1) as h[a,1], ('x',) as x."""
    if len(sym) == 1:
        return str(sym[0])
    return "%s[%s]" % (sym[0], ",".join(str(x) for x in sym[1:]))


def _sym_key(sym):
    """Print order of symbols: the tuple order, with int alpha tags before
    str tags, so symbols with both kinds of tag can share one polynomial."""
    return tuple((isinstance(x, str), x) for x in sym)


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for s, e in m2:
        merged[s] = merged.get(s, 0) + e
    return frozenset(merged.items())


def _add_into(acc, p):
    """Add the SymPoly p into the term dict acc."""
    for m, c in p.terms.items():
        cur = acc.get(m)
        acc[m] = c if cur is None else cur + c


def _mul_into(acc, p, q):
    """Add the product of SymPolys p and q into the term dict acc."""
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            key = _mono_mul(m1, m2)
            prod = c1 * c2
            cur = acc.get(key)
            acc[key] = prod if cur is None else cur + prod


class SymPoly:
    """Sparse polynomial: dict from monomial (a frozenset of (symbol, exp)
    pairs) to coefficient.

    Coefficients are Fractions, promoted lazily to field elements when an
    evaluation point lives in a number field.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", {m: c for m, c in (terms or {}).items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("SymPoly is immutable")

    @classmethod
    def const(cls, c):
        return cls({frozenset(): Fraction(c) if isinstance(c, int) else c})

    @classmethod
    def var(cls, symbol):
        return cls({frozenset(((symbol, 1),)): Fraction(1)})

    @classmethod
    def zero(cls):
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymPoly.const(other)
        return isinstance(other, SymPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymPoly.const(other)
        out = dict(self.terms)
        _add_into(out, other)
        return SymPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SymPoly):
            return SymPoly({m: c * other for m, c in self.terms.items()})
        out = {}
        _mul_into(out, self, other)
        return SymPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        acc = SymPoly.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def substitute(self, mapping):
        """Replace symbols by polynomials; unmapped symbols stay atomic."""
        out = {}
        for mono, c in self.terms.items():
            term = SymPoly({frozenset(p for p in mono if p[0] not in mapping): c})
            for sym, e in mono:
                if sym in mapping:
                    term = term * mapping[sym] ** e
            _add_into(out, term)
        return SymPoly(out)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        monos = sorted(
            ((tuple(sorted(m, key=lambda se: _sym_key(se[0]))), c)
             for m, c in self.terms.items()),
            key=lambda mc: (sum(e for _, e in mc[0]),
                            tuple((_sym_key(s), e) for s, e in mc[0])),
        )
        for mono, c in monos:
            body = "*".join(
                _sym_str(s) if e == 1 else "%s^%d" % (_sym_str(s), e) for s, e in mono
            )
            if not body:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(body)
            elif c == -1:
                pieces.append("-%s" % body)
            else:
                pieces.append("(%s)*%s" % (c, body))
        return " + ".join(pieces).replace("+ -", "- ")

    def __repr__(self):
        return "SymPoly(%s)" % self


class TruncSeries:
    """Power series truncated at a fixed order; coefficients are SymPoly."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need order + 1 coefficients")
        object.__setattr__(self, "order", order)
        object.__setattr__(
            self, "coeffs",
            tuple(c if isinstance(c, SymPoly) else SymPoly.const(c) for c in coeffs),
        )

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls(order, [SymPoly.const(1)] + [SymPoly.zero()] * order)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymPoly)):
            return TruncSeries(self.order, [c * other for c in self.coeffs])
        self._check(other)
        out = [{} for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            for j in range(self.order + 1 - i):
                _mul_into(out[i + j], a, other.coeffs[j])
        return TruncSeries(self.order, [SymPoly(terms) for terms in out])

    def __pow__(self, n: int) -> "TruncSeries":
        acc = TruncSeries.one(self.order)
        for _ in range(n):
            acc = acc * self
        return acc

    def substitute(self, mapping) -> "TruncSeries":
        return TruncSeries(self.order, [c.substitute(mapping) for c in self.coeffs])

    def __str__(self):
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            u = "" if k == 0 else ("u" if k == 1 else "u^%d" % k)
            body = str(c)
            if u and (" " in body or "*" in body):
                body = "(%s)" % body
            pieces.append(body if not u else "%s*%s" % (body, u))
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return "TruncSeries(%s)" % self


# Both _exp and _log solve a' = b' a for a = exp(b), coefficientwise
# n a_n = sum_{k=1..n} k b_k a_{n-k} (Knuth, TAOCP vol. 2, 4.7): one pass,
# O(N^2) coefficient products, each coefficient built once.

def _exp(arg: TruncSeries) -> TruncSeries:
    b = arg.coeffs
    if not b[0].is_zero:
        raise ValueError("exp needs zero constant term")
    a = [SymPoly.const(1)]
    for n in range(1, arg.order + 1):
        acc = {}
        for k in range(1, n + 1):
            _mul_into(acc, b[k] * Fraction(k, n), a[n - k])
        a.append(SymPoly(acc))
    return TruncSeries(arg.order, a)


def _log(series: TruncSeries) -> TruncSeries:
    a = series.coeffs
    if a[0] != SymPoly.const(1):
        raise BadConstantTerm("log needs constant term 1")
    b = [SymPoly.zero()]
    for n in range(1, series.order + 1):
        acc = dict(a[n].terms)
        for k in range(1, n):
            _mul_into(acc, b[k] * Fraction(-k, n), a[n - k])
        b.append(SymPoly(acc))
    return TruncSeries(series.order, b)


def _h_exponent(weights, order: int) -> TruncSeries:
    """The series -sum_s (sum_alpha m_alpha h[alpha,s]) u^s / s for weights
    {alpha: m_alpha}."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return TruncSeries(order, [SymPoly.zero()] + [
        SymPoly({frozenset(((h_symbol(alpha, s), 1),)): Fraction(-m, s)
                 for alpha, m in weights.items()})
        for s in range(1, order + 1)
    ])


def lambda_from_h(alpha, order: int) -> TruncSeries:
    """Generating series exp(-sum_s h[alpha,s] u^s / s) up to the order."""
    return _exp(_h_exponent({alpha: 1}, order))


def h_from_lambda(series: TruncSeries):
    """Recover h[alpha,s] as polynomials in the series coefficients.

    Returns [h_1, ..., h_N]: s times the negated u^s coefficient of the
    logarithm.  Round trip with lambda_from_h is the identity on symbols.
    """
    logs = _log(series)
    return [logs.coeffs[s] * Fraction(-s) for s in range(1, series.order + 1)]


def generic_lambda_series(alpha, order: int) -> TruncSeries:
    """Series with atomic coefficient symbols L[alpha, r], constant term 1."""
    return TruncSeries(
        order,
        [SymPoly.const(1)] + [SymPoly.var(("L", alpha, r)) for r in range(1, order + 1)],
    )


def lambda_alpha_from_simples(rs, root, order: int) -> TruncSeries:
    """Series of a positive root as the product of simple-root series raised
    to the coroot coefficients; symbols are tagged by 1-based node index."""
    coeffs = rs.coroot_coeffs(root)
    acc = TruncSeries.one(order)
    for i, m in enumerate(coeffs):
        if m:
            acc = acc * lambda_from_h(i + 1, order) ** m
    return acc


def lambda_alpha_identity_holds(rs, root, order: int) -> bool:
    """Check that the exponential formula with h[alpha,s] = sum_i m_i h[i,s]
    substituted reproduces the product over simple roots."""
    weights = {i + 1: m for i, m in enumerate(rs.coroot_coeffs(root)) if m}
    return _exp(_h_exponent(weights, order)) == lambda_alpha_from_simples(rs, root, order)


def _h_symbols(series: TruncSeries):
    """The generator symbols h[alpha, s] occurring in a series."""
    return {
        sym
        for coeff in series.coeffs
        for mono in coeff.terms
        for sym, _ in mono
        if len(sym) == 3 and sym[0] == "h"
    }


def twist(series: TruncSeries, k: int) -> TruncSeries:
    """The loop twist t -> t^k on symbols: h[alpha, s] becomes h[alpha, ks]."""
    if k < 1:
        raise ValueError("twist exponent must be >= 1")
    return series.substitute({
        sym: SymPoly.var(h_symbol(sym[1], k * sym[2])) for sym in _h_symbols(series)
    })


def eval_at(series: TruncSeries, point) -> TruncSeries:
    """Evaluation at a nonzero spectral point: h[alpha,s] -> point^s h[alpha]."""
    if isinstance(point, int):
        point = Fraction(point)
    if not point:
        raise ZeroPoint("evaluation point must be nonzero")
    return series.substitute({
        sym: SymPoly.var(h_point_symbol(sym[1])) * point ** sym[2]
        for sym in _h_symbols(series)
    })


def binom_poly(symbol, k: int) -> SymPoly:
    """The divided binomial x(x-1)...(x-k+1)/k! as an expanded polynomial."""
    acc = SymPoly.const(1)
    x = SymPoly.var(symbol)
    fact = 1
    for j in range(k):
        acc = acc * (x - Fraction(j))
        fact *= j + 1
    return acc * Fraction(1, fact)


def ev_lambda_check(alpha, r: int, point) -> bool:
    """Verify that evaluation sends the u^r coefficient to
    (-point)^r * binom(h[alpha], r)."""
    actual = eval_at(lambda_from_h(alpha, r), point).coeffs[r]
    expected = binom_poly(h_point_symbol(alpha), r) * (-point) ** r
    return actual == expected


def series_inverse(series: TruncSeries) -> TruncSeries:
    """Multiplicative inverse of a series with constant term 1 (the antipode
    acts on the generating series exactly this way)."""
    if series.coeffs[0] != SymPoly.const(1):
        raise BadConstantTerm("inverse needs constant term 1")
    negated = [-c for c in series.coeffs]
    out = [SymPoly.const(1)]
    for k in range(1, series.order + 1):
        acc = {}
        for j in range(1, k + 1):
            _mul_into(acc, negated[j], out[k - j])
        out.append(SymPoly(acc))
    return TruncSeries(series.order, out)


def h_series(alpha, order: int) -> TruncSeries:
    """The binomial series sum_k binom(h[alpha], k) u^k via evaluation at -1."""
    return eval_at(lambda_from_h(alpha, order), Fraction(-1))

"""Truncated formal power series over sparse symbolic polynomials.

Coefficients are exact multivariate polynomials in commuting symbols: the
loop generators h[alpha, s] with s >= 1 and, after evaluation at a spectral
point, the single symbol h[alpha].  The generating series of the commuting
loop generators, its logarithm, products over coroot coefficients,
evaluation at a spectral point, and the antipode (series inverse) all live
here.

Everything runs on Python ints.  A monomial is one int: the exponent of each
symbol sits in a fixed-width slot of a process-wide symbol -> slot table, so
a monomial product is one integer addition and equal monomials are equal
dict keys without any sorting; only printing sorts.  A series stores its
u^n coefficient scaled by n!, so products, exp, log and the inverse are
binomial convolutions with integer weights (Knuth, TAOCP vol. 2, 4.7), and
the generating series of the loop generators has integer scaled
coefficients.  Fractions and field elements enter only with rational or
field-valued inputs, evaluation points, the coeffs view and printing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb
from operator import or_
from threading import Lock

from .errors import BadConstantTerm, ExponentOverflow, ZeroPoint
from .record import Immutable
from .roots import RootSystem

# Series orders up to MAX_ORDER keep every exponent within its slot: the u^n
# coefficient of a generating series holds h[alpha,1]^n.  A slot holds
# MAX_ORDER.bit_length() exponent bits under one guard bit, so the sum of
# two exponents that fit never carries into the next slot, and a set guard
# bit in a product marks an exponent that outgrew its slot.
MAX_ORDER = 12
_BITS = MAX_ORDER.bit_length() + 1
_MASK = (1 << _BITS) - 1
_LARGEST = _MASK >> 1  # the largest exponent a slot holds

# One table for the process, grown under a lock and never shrunk: every
# polynomial packs with it, and no result depends on which slot a symbol
# got (printing orders symbols by name, not by slot).
_SLOTS = {}  # symbol -> slot
_SYMBOLS = []  # slot -> symbol
_GUARD = 0  # the guard bits of every slot in use
_SLOTS_LOCK = Lock()


def _slot(sym) -> int:
    """The slot of a symbol, registering it on first use."""
    slot = _SLOTS.get(sym)
    if slot is None:
        global _GUARD
        with _SLOTS_LOCK:
            slot = _SLOTS.get(sym)
            if slot is None:
                slot = len(_SYMBOLS)
                _SYMBOLS.append(sym)
                _GUARD |= (_LARGEST + 1) << (_BITS * slot)
                _SLOTS[sym] = slot
    return slot


def _monomial(sym, e: int) -> int:
    """The packed monomial sym^e."""
    if not 0 <= e <= _LARGEST:
        raise ExponentOverflow("exponent %d of %s is outside 0..%d"
                               % (e, _sym_str(sym), _LARGEST))
    return e << (_BITS * _slot(sym))


def _exponents(mono):
    """(slot, exponent) of every symbol of a packed monomial."""
    out = []
    slot = 0
    while mono:
        e = mono & _MASK
        if e:
            out.append((slot, e))
        mono >>= _BITS
        slot += 1
    return out


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


def _exact(c):
    """A coefficient with an integral Fraction turned into its int."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _add_into(acc, terms):
    """Add the term dict terms into the term dict acc."""
    get = acc.get
    for m, c in terms.items():
        acc[m] = get(m, 0) + c


def _mul_into(acc, p, q, scale=1):
    """Add scale times the product of the term dicts p and q into acc."""
    get = acc.get
    for m1, c1 in p.items():
        c1 *= scale
        for m2, c2 in q.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2


def _product(acc) -> "SymPoly":
    """The SymPoly of a product's term dict.  The factors' exponents fit
    their slots, so a guard bit is set exactly where a sum outgrew one."""
    overflow = reduce(or_, acc, 0) & _GUARD
    if overflow:
        raise ExponentOverflow("a product raises %s above exponent %d" % (
            ", ".join(_sym_str(_SYMBOLS[slot]) for slot, _ in _exponents(overflow)),
            _LARGEST))
    return SymPoly(acc)


class SymPoly(Immutable):
    """Sparse polynomial: dict from packed monomial to nonzero coefficient.

    Coefficients are ints, or Fractions and field elements where rational or
    field-valued inputs bring them in.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", {m: c for m, c in (terms or {}).items() if c})

    @classmethod
    def const(cls, c):
        return cls({0: _exact(c)})

    @classmethod
    def var(cls, symbol):
        return cls({_monomial(symbol, 1): 1})

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
        _add_into(out, other.terms)
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
        _mul_into(out, self.terms, other.terms)
        return _product(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        acc = SymPoly.const(1)
        for _ in range(n):
            acc = acc * self
        return acc

    def substitute(self, mapping):
        """Replace symbols by polynomials; unmapped symbols stay atomic."""
        by_slot = {_SLOTS[sym]: p for sym, p in mapping.items() if sym in _SLOTS}
        powers = {}
        out = {}
        for mono, c in self.terms.items():
            term = None
            for slot, e in _exponents(mono):
                if slot in by_slot:
                    mono -= e << (_BITS * slot)
                    power = powers.get((slot, e))
                    if power is None:
                        power = powers[(slot, e)] = by_slot[slot] ** e
                    term = power if term is None else term * power
            term = SymPoly({mono: c}) if term is None else term * SymPoly({mono: c})
            _add_into(out, term.terms)
        return SymPoly(out)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        monos = sorted(
            ((tuple(sorted(((_SYMBOLS[slot], e) for slot, e in _exponents(m)),
                           key=lambda se: _sym_key(se[0]))), c)
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


def _scaled_down(p: SymPoly, d: int) -> SymPoly:
    """The SymPoly p / d; int coefficients become Fractions."""
    inverse = Fraction(1, d)
    return SymPoly({m: Fraction(c, d) if isinstance(c, int) else c * inverse
                    for m, c in p.terms.items()})


class TruncSeries(Immutable):
    """Power series truncated at a fixed order.

    Stored scaled: scaled[n] is n! times the u^n coefficient, a SymPoly, so
    the coefficients of a product are sum_k C(n, k) A_k B_(n-k).  The coeffs
    view divides by n! again.
    """

    __slots__ = ("order", "scaled")

    def __init__(self, order: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need order + 1 coefficients")
        scaled = []
        fact = 1
        for n, c in enumerate(coeffs):
            fact *= n or 1
            if not isinstance(c, SymPoly):
                c = SymPoly.const(c)
            scaled.append(SymPoly({m: _exact(x * fact) for m, x in c.terms.items()}))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "scaled", tuple(scaled))

    @classmethod
    def _from_scaled(cls, scaled) -> "TruncSeries":
        series = object.__new__(cls)
        object.__setattr__(series, "order", len(scaled) - 1)
        object.__setattr__(series, "scaled", tuple(scaled))
        return series

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls._from_scaled([SymPoly.const(1)] + [SymPoly.zero()] * order)

    @property
    def coeffs(self):
        """The u^n coefficients, scaled[n] / n!."""
        out = []
        fact = 1
        for n, c in enumerate(self.scaled):
            fact *= n or 1
            out.append(_scaled_down(c, fact))
        return tuple(out)

    def _check(self, other):
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.scaled == other.scaled
        )

    def __hash__(self):
        return hash((self.order, self.scaled))

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries._from_scaled([a + b for a, b in zip(self.scaled, other.scaled)])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        return TruncSeries._from_scaled([a - b for a, b in zip(self.scaled, other.scaled)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymPoly)):
            return TruncSeries._from_scaled([c * other for c in self.scaled])
        self._check(other)
        a, b = self.scaled, other.scaled
        out = []
        for n in range(self.order + 1):
            acc = {}
            for k in range(n + 1):
                if a[k].terms and b[n - k].terms:
                    _mul_into(acc, a[k].terms, b[n - k].terms, comb(n, k))
            out.append(_product(acc))
        return TruncSeries._from_scaled(out)

    def __pow__(self, n: int) -> "TruncSeries":
        acc = self if n else TruncSeries.one(self.order)
        for _ in range(n - 1):
            acc = acc * self
        return acc

    def substitute(self, mapping) -> "TruncSeries":
        return TruncSeries._from_scaled([c.substitute(mapping) for c in self.scaled])

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


# Both _exp and _log solve a' = b' a for a = exp(b).  On scaled coefficients
# A_n = n! a_n, B_k = k! b_k the relation n a_n = sum_{k=1..n} k b_k a_{n-k}
# reads A_n = sum_{k=1..n} C(n-1, k-1) B_k A_(n-k): one pass, O(N^2)
# coefficient products with integer weights, each coefficient built once.

def _exp(arg: TruncSeries) -> TruncSeries:
    b = arg.scaled
    if not b[0].is_zero:
        raise ValueError("exp needs zero constant term")
    a = [SymPoly.const(1)]
    for n in range(1, arg.order + 1):
        acc = {}
        for k in range(1, n + 1):
            if b[k].terms:
                _mul_into(acc, b[k].terms, a[n - k].terms, comb(n - 1, k - 1))
        a.append(_product(acc))
    return TruncSeries._from_scaled(a)


def _log(series: TruncSeries) -> TruncSeries:
    a = series.scaled
    if a[0] != 1:
        raise BadConstantTerm("log needs constant term 1")
    b = [SymPoly.zero()]
    for n in range(1, series.order + 1):
        acc = dict(a[n].terms)
        for k in range(1, n):
            if b[k].terms:
                _mul_into(acc, b[k].terms, a[n - k].terms, -comb(n - 1, k - 1))
        b.append(_product(acc))
    return TruncSeries._from_scaled(b)


def _h_exponent(weights, order: int) -> TruncSeries:
    """The series -sum_s (sum_alpha m_alpha h[alpha,s]) u^s / s for weights
    {alpha: m_alpha}; its scaled u^s coefficient is -(s-1)! sum m h[alpha,s]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    scaled = [SymPoly.zero()]
    fact = 1  # (s-1)!
    for s in range(1, order + 1):
        scaled.append(SymPoly({_monomial(h_symbol(alpha, s), 1): -m * fact
                               for alpha, m in weights.items()}))
        fact *= s
    return TruncSeries._from_scaled(scaled)


def lambda_from_h(alpha, order: int) -> TruncSeries:
    """Generating series exp(-sum_s h[alpha,s] u^s / s) up to the order."""
    return _exp(_h_exponent({alpha: 1}, order))


def h_from_lambda(series: TruncSeries):
    """Recover h[alpha,s] as polynomials in the series coefficients.

    Returns [h_1, ..., h_N]: s times the negated u^s coefficient of the
    logarithm, that is the scaled coefficient over -(s-1)!.  Round trip with
    lambda_from_h is the identity on symbols.
    """
    logs = _log(series).scaled
    out = []
    fact = 1  # (s-1)!
    for s in range(1, series.order + 1):
        out.append(_scaled_down(-logs[s], fact))
        fact *= s
    return out


def lambda_alpha_from_simples(rs: RootSystem, root, order: int) -> TruncSeries:
    """Series of a positive root as the product of simple-root series raised
    to the coroot coefficients; symbols are tagged by 1-based node index."""
    acc = None
    for i, m in enumerate(rs.coroot_coeffs(root)):
        if m:
            factor = lambda_from_h(i + 1, order) ** m
            acc = factor if acc is None else acc * factor
    return acc


def lambda_alpha_identity_holds(rs: RootSystem, root, order: int) -> bool:
    """Check that the exponential formula with h[alpha,s] = sum_i m_i h[i,s]
    substituted reproduces the product over simple roots."""
    weights = {i + 1: m for i, m in enumerate(rs.coroot_coeffs(root)) if m}
    return _exp(_h_exponent(weights, order)) == lambda_alpha_from_simples(rs, root, order)


def _h_symbols(series: TruncSeries):
    """The generator symbols h[alpha, s] occurring in a series."""
    support = 0
    for coeff in series.scaled:
        for mono in coeff.terms:
            support |= mono
    return {
        sym
        for sym in (_SYMBOLS[slot] for slot, _ in _exponents(support))
        if len(sym) == 3 and sym[0] == "h"
    }


def eval_at(series: TruncSeries, point) -> TruncSeries:
    """Evaluation at a nonzero spectral point: h[alpha,s] -> point^s h[alpha]."""
    point = _exact(point)
    if not point:
        raise ZeroPoint("evaluation point must be nonzero")
    return series.substitute({
        sym: SymPoly.var(h_point_symbol(sym[1])) * point ** sym[2]
        for sym in _h_symbols(series)
    })


def binom_poly(symbol, k: int) -> SymPoly:
    """The divided binomial x(x-1)...(x-k+1)/k! as an expanded polynomial."""
    falling = [1]  # coefficients of x(x-1)...(x-j+1), constant term first
    fact = 1
    for j in range(k):
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]
        fact *= j + 1
    return SymPoly({_monomial(symbol, e): Fraction(c, fact)
                    for e, c in enumerate(falling) if c})


def ev_lambda_check(alpha, r: int, point) -> bool:
    """Verify that evaluation sends the u^r coefficient to
    (-point)^r * binom(h[alpha], r)."""
    actual = eval_at(lambda_from_h(alpha, r), point).coeffs[r]
    expected = binom_poly(h_point_symbol(alpha), r) * (-point) ** r
    return actual == expected


def series_inverse(series: TruncSeries) -> TruncSeries:
    """Multiplicative inverse of a series with constant term 1 (the antipode
    acts on the generating series exactly this way): on scaled coefficients
    C_n = -sum_{k=1..n} C(n, k) A_k C_(n-k)."""
    a = series.scaled
    if a[0] != 1:
        raise BadConstantTerm("inverse needs constant term 1")
    out = [SymPoly.const(1)]
    for n in range(1, series.order + 1):
        acc = {}
        for k in range(1, n + 1):
            if a[k].terms:
                _mul_into(acc, a[k].terms, out[n - k].terms, -comb(n, k))
        out.append(_product(acc))
    return TruncSeries._from_scaled(out)


def h_series(alpha, order: int) -> TruncSeries:
    """The binomial series sum_k binom(h[alpha], k) u^k via evaluation at -1."""
    return eval_at(lambda_from_h(alpha, order), Fraction(-1))

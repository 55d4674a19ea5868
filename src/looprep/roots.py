"""Simple Lie algebra combinatorics for types A through G.

Weights are integer tuples in the fundamental-weight basis (coordinate i is
the value at the coroot h_i); positive roots are integer tuples in the
simple-root basis.  Root lengths are normalized so short simple roots have
d = 1, which makes the dual coefficients of every positive root integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from threading import Lock

from .errors import (
    NotARoot,
    NotDominant,
    NotSameClass,
    RootDataInconsistency,
    SearchExhausted,
    UnknownType,
)
from .exact import int_inverse, smith_normal_form
from .record import Immutable

_E_EDGES = {
    6: [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)],
    7: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)],
    8: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)],
}


def _cartan_matrix(family: str, rank: int):
    """Cartan matrix with entry [i][j] = alpha_j(h_i), Bourbaki numbering."""
    c = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        c[i][i] = 2

    def chain(upto):
        for i in range(upto - 1):
            c[i][i + 1] = c[i + 1][i] = -1

    if family == "A":
        chain(rank)
    elif family == "B":
        if rank < 2:
            raise UnknownType("B requires rank >= 2")
        chain(rank)
        c[rank - 1][rank - 2] = -2  # alpha_{n} is short
    elif family == "C":
        if rank < 2:
            raise UnknownType("C requires rank >= 2")
        chain(rank)
        c[rank - 2][rank - 1] = -2  # alpha_{n} is long
    elif family == "D":
        if rank < 3:
            raise UnknownType("D requires rank >= 3")
        chain(rank - 1)
        c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
        c[rank - 2][rank - 1] = c[rank - 1][rank - 2] = 0
    elif family == "E":
        if rank not in _E_EDGES:
            raise UnknownType("E requires rank 6, 7, or 8")
        for i, j in _E_EDGES[rank]:
            c[i - 1][j - 1] = c[j - 1][i - 1] = -1
    elif family == "F":
        if rank != 4:
            raise UnknownType("F requires rank 4")
        chain(4)
        c[2][1] = -2  # alpha_3, alpha_4 short
    elif family == "G":
        if rank != 2:
            raise UnknownType("G requires rank 2")
        c[0][1] = -3  # alpha_1 short, alpha_2 long
        c[1][0] = -1
    else:
        raise UnknownType("unknown family %r" % family)
    return tuple(tuple(row) for row in c)


def _root_lengths(cartan):
    """Solve d_i * c[i][j] = d_j * c[j][i] along the diagram, short = 1."""
    rank = len(cartan)
    d = [None] * rank
    d[0] = Fraction(1)
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(rank):
            if i != j and cartan[i][j] and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                pending.append(j)
    if any(x is None for x in d):
        raise UnknownType("Dynkin diagram is not connected")
    low = min(d)
    d = [x / low for x in d]
    if any(x.denominator != 1 for x in d):
        raise RootDataInconsistency("root lengths %r are not integral" % (d,))
    return tuple(int(x) for x in d)


class RootSystem(Immutable):
    """Cartan data, positive roots, and weight combinatorics for one type."""

    __slots__ = (
        "lie_type", "rank", "cartan", "lengths", "positive_roots",
        "cartan_inv", "snf", "highest_root", "_height_row", "_height_den",
        "_root_table", "_simple_funds",
    )

    def __init__(self, lie_type: str):
        family, rank = _parse_type(lie_type)
        cartan = _cartan_matrix(family, rank)
        object.__setattr__(self, "lie_type", "%s%d" % (family, rank))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "lengths", _root_lengths(cartan))
        object.__setattr__(self, "positive_roots", self._close_positive_roots())
        inv, den = int_inverse(cartan)
        object.__setattr__(
            self, "cartan_inv",
            tuple(tuple(Fraction(x, den) for x in r) for r in inv),
        )
        object.__setattr__(self, "snf", smith_normal_form(cartan))
        object.__setattr__(self, "highest_root", self.positive_roots[-1])
        # height(w) = sum_j _height_row[j] * w[j] / _height_den: the column
        # sums of the inverse Cartan matrix over their common denominator
        columns = [sum(row[j] for row in self.cartan_inv) for j in range(rank)]
        den = lcm(*(c.denominator for c in columns))
        object.__setattr__(
            self, "_height_row", tuple(int(c * den) for c in columns)
        )
        object.__setattr__(self, "_height_den", den)
        # per positive root alpha: its fundamental coordinates, the integers
        # d_i * alpha_i, so that (nu, alpha) = sum_i d_i alpha_i nu_i, and
        # (alpha, alpha)
        table = []
        for root in self.positive_roots:
            fund = self.root_to_fund(root)
            dual = tuple(d * a for d, a in zip(self.lengths, root))
            table.append((fund, dual, sum(map(mul, dual, fund))))
        object.__setattr__(self, "_root_table", tuple(table))
        # the simple roots in fundamental coordinates: column i of the Cartan
        # matrix
        object.__setattr__(self, "_simple_funds", tuple(
            tuple(row[i] for row in cartan) for i in range(rank)
        ))

    def __repr__(self):
        return "RootSystem(%s)" % self.lie_type

    # -- root generation

    def _pairing(self, root, i):
        """Value of the root (simple-root coords) at the coroot h_i."""
        return sum(self.cartan[i][j] * root[j] for j in range(self.rank))

    def _close_positive_roots(self):
        roots = {tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)}
        frontier = list(roots)
        while frontier:
            root = frontier.pop()
            for i in range(self.rank):
                p = self._pairing(root, i)
                new = list(root)
                new[i] -= p
                new = tuple(new)
                if all(x >= 0 for x in new) and any(new) and new not in roots:
                    roots.add(new)
                    frontier.append(new)
        return tuple(sorted(roots, key=lambda r: (sum(r), r)))

    # -- coordinate plumbing

    def is_dominant(self, weight) -> bool:
        return all(x >= 0 for x in weight)

    def _check_dominant(self, weight):
        """A weight of this rank with int entries (a bool, a float or a
        Fraction raises ValueError, not coerced), all nonnegative."""
        if len(weight) != self.rank:
            raise NotDominant("weight %r does not have rank %d" % (weight, self.rank))
        for x in weight:
            if type(x) is not int:
                raise ValueError("weight %r has a non-integer entry %r" % (weight, x))
        if not self.is_dominant(weight):
            raise NotDominant("weight %r is not dominant" % (weight,))

    def root_to_fund(self, root):
        """Fundamental coordinates of a root-lattice vector."""
        return tuple(self._pairing(root, i) for i in range(self.rank))

    def fund_to_root(self, weight):
        """Simple-root coordinates (Fractions) of a weight."""
        return tuple(
            sum((self.cartan_inv[i][j] * weight[j] for j in range(self.rank)),
                Fraction(0))
            for i in range(self.rank)
        )

    def _height_num(self, weight) -> int:
        """Numerator of height(weight) over _height_den."""
        return sum(h * x for h, x in zip(self._height_row, weight))

    def height(self, weight) -> Fraction:
        """Sum of simple-root coordinates."""
        return Fraction(self._height_num(weight), self._height_den)

    def reflect(self, i: int, weight):
        """Simple reflection s_i on a fundamental-coordinate weight."""
        v = weight[i]
        return tuple(weight[k] - v * self.cartan[k][i] for k in range(self.rank))

    def dominant_representative(self, weight):
        """Walk a weight into the dominant chamber by simple reflections."""
        w = tuple(weight)
        while True:
            i = next((k for k in range(self.rank) if w[k] < 0), None)
            if i is None:
                return w
            w = self.reflect(i, w)

    # -- coroot data

    def coroot_coeffs(self, root):
        """Coefficients 2 d_i alpha_i / (alpha, alpha) of the coroot of a
        positive root on the simple coroots."""
        root = tuple(root)
        if root not in self.positive_roots:
            raise NotARoot("%r is not a positive root of %s" % (root, self.lie_type))
        _, dual, norm = self._root_table[self.positive_roots.index(root)]
        out = []
        for x in dual:
            q, r = divmod(2 * x, norm)
            if r:
                raise RootDataInconsistency(
                    "coroot of %r has a non-integral coefficient %d/%d" % (root, 2 * x, norm)
                )
            out.append(q)
        return tuple(out)

    # -- dimensions and multiplicities

    def weyl_dim(self, weight) -> int:
        """Dimension of the irreducible module with the given highest weight:
        the product of (weight + rho, alpha) / (rho, alpha) over the positive
        roots, as one exact division of integer products."""
        self._check_dominant(weight)
        num = den = 1
        for _, dual, _ in self._root_table:
            num *= sum(x * (w + 1) for x, w in zip(dual, weight))
            den *= sum(dual)
        dim, r = divmod(num, den)
        if r:
            raise RootDataInconsistency(
                "Weyl dimension of %r is not integral: %d/%d" % (weight, num, den)
            )
        return dim

    def weight_mults(self, weight):
        """Full weight-multiplicity map of V(weight): a new dict from
        fundamental-coordinate tuples to positive ints.

        Dominant weights first (Moody-Patera): subtracting positive roots
        while staying dominant reaches every dominant mu <= lambda
        (Stembridge) and gives the simple-root coordinates c of lambda - mu.
        Freudenthal's formula then runs on integers in order of sum(c):
        m(mu) is 2 sum_{alpha>0, k>=1} m(mu + k alpha) (mu + k alpha, alpha)
        over (lambda + mu + 2 rho, lambda - mu) = sum_i c_i d_i (lambda_i +
        mu_i + 2).  Each m(mu) goes at once to the whole Weyl orbit of mu,
        walked down by s_i at positive coordinates, so m(mu + k alpha) is a
        dict lookup: its dominant representative lies above mu.  A
        non-positive denominator, a remainder or a non-positive multiplicity
        raises RootDataInconsistency.
        """
        lam = tuple(weight)
        self._check_dominant(lam)
        table = self._root_table
        c = {lam: (0,) * self.rank}
        stack = [lam]
        while stack:
            mu = stack.pop()
            for root, (fund, _, _) in zip(self.positive_roots, table):
                nu = tuple(map(sub, mu, fund))
                if nu not in c and min(nu) >= 0:
                    c[nu] = tuple(map(add, c[mu], root))
                    stack.append(nu)
        mults = {}
        for mu in sorted(c, key=lambda nu: sum(c[nu])):
            m = 1
            if mu != lam:
                # (mu + k alpha, alpha) = (mu + alpha, alpha) + (k - 1)(alpha, alpha)
                num = 0
                for fund, dual, norm in table:
                    nu = tuple(map(add, mu, fund))
                    if nu in mults:
                        pairing = sum(map(mul, dual, nu))
                        while nu in mults:
                            num += mults[nu] * pairing
                            pairing += norm
                            nu = tuple(map(add, nu, fund))
                den = sum(ci * d * (x + y + 2) for ci, d, x, y
                          in zip(c[mu], self.lengths, lam, mu))
                m, r = divmod(2 * num, den) if den > 0 else (0, 0)
                if r or m <= 0:
                    raise RootDataInconsistency(
                        "Freudenthal gives multiplicity %d/%d for %r in V(%r)"
                        % (2 * num, den, mu, lam)
                    )
            mults[mu] = m
            orbit = [mu]
            while orbit:
                nu = orbit.pop()
                for x, alpha in zip(nu, self._simple_funds):
                    if x > 0:
                        image = tuple([y - x * a for y, a in zip(nu, alpha)])
                        if image not in mults:
                            mults[image] = m
                            orbit.append(image)
        return mults

    # -- tensor products

    def tensor_decompose(self, left, right):
        """Decomposition of V(left) (x) V(right) into highest weights, by
        Brauer-Klimyk over the weights of the factor of smaller dimension: a
        list of (dominant weight, multiplicity), sorted descending by
        (height, weight)."""
        left, right = tuple(left), tuple(right)
        self._check_dominant(left)
        self._check_dominant(right)
        if self.weyl_dim(right) > self.weyl_dim(left):
            left, right = right, left
        return self._brauer_klimyk(left, self.weight_mults(right))

    def _brauer_klimyk(self, left, mults):
        """Decomposition of V(left) (x) M, for M given by its weight
        multiplicities.

        Brauer-Klimyk (Racah-Speiser) formula: every weight nu of M of
        multiplicity m contributes sign(w) * m copies of
        V(w(left + nu + rho) - rho), where w carries left + nu + rho into the
        dominant chamber; weights that land on a wall contribute nothing.
        The formula holds whichever factor is larger; a smaller M is only
        cheaper.  Sorted descending by (height, weight).
        """
        shift = [x + 1 for x in left]
        coeffs = {}
        for nu, m in mults.items():
            gamma = tuple(a + b for a, b in zip(shift, nu))
            # reflect at a negative coordinate until none is left; a zero
            # coordinate means gamma is fixed by a reflection, so on a wall
            i = next((k for k, x in enumerate(gamma) if x <= 0), None)
            while i is not None and gamma[i]:
                gamma = self.reflect(i, gamma)
                m = -m
                i = next((k for k, x in enumerate(gamma) if x <= 0), None)
            if i is None:
                top = tuple(x - 1 for x in gamma)
                coeffs[top] = coeffs.get(top, 0) + m
        parts = []
        for top, mult in coeffs.items():
            if mult < 0:
                raise RootDataInconsistency(
                    "V(%r) has multiplicity %d in a tensor product with V(%r)"
                    % (top, mult, left)
                )
            if mult:
                parts.append((top, mult))
        parts.sort(key=lambda part: (self._height_num(part[0]), part[0]), reverse=True)
        return parts

    # -- weight lattice modulo root lattice

    def pq_class(self, weight):
        """Image of a weight in P/Q as residues modulo the invariant factors."""
        diag = self.snf.diagonal
        left = self.snf.left
        return tuple(
            sum(left[i][j] * weight[j] for j in range(self.rank)) % diag[i]
            if diag[i] else 0
            for i in range(self.rank)
        )

    def w0_negate(self, weight):
        """The dominant weight -w0(weight) for dominant input."""
        self._check_dominant(weight)
        return self.dominant_representative(tuple(-x for x in weight))

    # -- linkage

    def directly_linked(self, lam, mu) -> bool:
        """Whether V(mu) occurs inside (adjoint module) (x) V(lam)."""
        self._check_dominant(mu)
        return tuple(mu) in self.link_neighbors(lam)

    def link_neighbors(self, weight):
        """Dominant weights directly linked to the given one, sorted."""
        weight = tuple(weight)
        self._check_dominant(weight)
        adjoint = self.weight_mults(self.root_to_fund(self.highest_root))
        return sorted(w for w, _ in self._brauer_klimyk(weight, adjoint))

    def link_chain(self, lam, mu, max_steps: int = 8):
        """Chain mu = w_0, ..., w_m = lam of consecutively linked dominants.

        Breadth-first search bounded by max_steps levels and by the height
        bound max(ht(lam), ht(mu)) + ht(highest root) * max_steps.  The
        adjoint module's multiplicity map is computed once per search, and
        each step is one Brauer-Klimyk pass with it.  Raises NotSameClass
        when no chain can exist and SearchExhausted when the bounds are hit;
        the latter is not a claim of non-existence.
        """
        lam, mu = tuple(lam), tuple(mu)
        self._check_dominant(lam)
        self._check_dominant(mu)
        if self.pq_class(lam) != self.pq_class(mu):
            raise NotSameClass(
                "weights %r and %r differ in P/Q; no chain exists" % (lam, mu)
            )
        if lam == mu:
            return [mu]
        theta = self.root_to_fund(self.highest_root)
        adjoint = self.weight_mults(theta)
        bound = max(self._height_num(lam), self._height_num(mu)) + \
            self._height_num(theta) * max_steps
        parent = {mu: None}
        frontier = [mu]
        for _ in range(max_steps):
            next_frontier = []
            for w in frontier:
                for nb in sorted(nb for nb, _ in self._brauer_klimyk(w, adjoint)):
                    if nb in parent or self._height_num(nb) > bound:
                        continue
                    parent[nb] = w
                    if nb == lam:
                        chain = [nb]
                        while parent[chain[-1]] is not None:
                            chain.append(parent[chain[-1]])
                        return chain[::-1]
                    next_frontier.append(nb)
            frontier = next_frontier
            if not frontier:
                break
        raise SearchExhausted(
            "no chain from %r to %r within %d steps" % (mu, lam, max_steps)
        )


def _parse_type(lie_type: str):
    # a family letter and a rank in ASCII digits, with nothing around them:
    # int() would also take a sign, spaces, underscores and non-ASCII digits
    s = str(lie_type)
    if len(s) < 2 or s[0] not in "ABCDEFG" or not (s[1:].isascii() and s[1:].isdigit()):
        raise UnknownType("bad Lie type %r" % lie_type)
    rank = int(s[1:])
    if rank < 1:
        raise UnknownType("rank must be positive")
    if s[0] in "BCDEFG" and rank == 1:
        raise UnknownType("rank 1 only exists in type A")
    return s[0], rank


_SYSTEMS = {}
_SYSTEMS_LOCK = Lock()


def root_system(lie_type: str) -> RootSystem:
    """Shared, cached root system for a type string like "A2" or "G2"."""
    family, rank = _parse_type(lie_type)
    key = "%s%d" % (family, rank)
    with _SYSTEMS_LOCK:
        rs = _SYSTEMS.get(key)
        if rs is None:
            rs = RootSystem(key)
            _SYSTEMS[key] = rs
    return rs

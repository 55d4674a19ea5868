import os
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import looprep
from looprep import (
    LWeight,
    MatrixL,
    PolyQ,
    build_context,
    cyclotomic_context,
    gaussian_context,
    rational_context,
    root_system,
)
from looprep.errors import Singular


@pytest.fixture(scope="session")
def qi():
    """L = Q(i), H = full group, K = Q."""
    return gaussian_context()


@pytest.fixture(scope="session")
def cyclo5():
    """5th cyclotomic field, H = full cyclic group of order 4, K = Q."""
    return cyclotomic_context(5)


@pytest.fixture(scope="session")
def cyclo5_half():
    """5th cyclotomic field with H = {id, theta -> theta^4}, K = Q(sqrt 5)."""
    return cyclotomic_context(5, [0, 3])


@pytest.fixture(scope="session")
def zeta8():
    """8th cyclotomic field Q(i, sqrt 2), H = full group, K = Q."""
    return cyclotomic_context(8)


CONTEXTS = ("qi", "cyclo5", "cyclo5_half", "zeta7", "zeta8")
ROOT_SYSTEMS = ("a1", "a2")


@pytest.fixture(scope="session")
def settings_by_name(qi, cyclo5, cyclo5_half, zeta8, a1, a2):
    """Contexts and root systems of the property tests, by fixture name;
    zeta7 is the 7th cyclotomic field with H the full group of order 6."""
    return {"qi": qi, "cyclo5": cyclo5, "cyclo5_half": cyclo5_half,
            "zeta7": cyclotomic_context(7), "zeta8": zeta8, "a1": a1, "a2": a2}


S3_MODULUS = [9, 9, 0, 3, 6, 3, 1]
S3_IMAGES = [
    [0, 1, 0, 0, 0, 0],
    [-1, 0, Fraction(4, 3), 0, 0, Fraction(-1, 9)],
    [-5, -1, Fraction(2, 3), -2, -1, Fraction(-5, 9)],
    [3, 1, Fraction(-4, 3), Fraction(4, 3), Fraction(2, 3), Fraction(4, 9)],
    [2, 0, 0, Fraction(4, 3), Fraction(2, 3), Fraction(1, 3)],
    [-2, -1, Fraction(-2, 3), Fraction(-2, 3), Fraction(-1, 3), Fraction(-1, 9)],
]


def s3_context(subgroup=None):
    """The splitting field of x^3 - 2 as Q(theta), theta = 2^(1/3) + omega
    with omega a primitive cube root of unity: a Galois group S3, so the
    composition table is not symmetric.  The images send (2^(1/3), omega)
    to (omega^s 2^(1/3), omega^t) for (s, t) = (0, 1), (1, 1), (2, 1),
    (0, 2), (1, 2), (2, 2); H = [0, 3] has fixed field Q(2^(1/3))."""
    return build_context(PolyQ(S3_MODULUS), [PolyQ(p) for p in S3_IMAGES], subgroup)


@pytest.fixture(scope="session")
def kernel_contexts():
    """Fields for the arithmetic-kernel property tests, by name.

    sqrt2_sqrt3 is Q(theta) with theta = (sqrt 2 + sqrt 3)/2, a root of
    theta^4 - (5/2) theta^2 + 1/16: a modulus with non-integral coefficients,
    whose reduction table has denominator 32 and whose automorphism matrices
    have denominators up to 4.
    """
    return {
        "zeta5": cyclotomic_context(5),
        "zeta7": cyclotomic_context(7),
        "zeta8": cyclotomic_context(8),
        "zeta15": cyclotomic_context(15),
        "sqrt2_sqrt3": build_context(
            PolyQ([Fraction(1, 16), 0, Fraction(-5, 2), 0, 1]),
            [PolyQ([0, 1]), PolyQ([0, 10, 0, -4]), PolyQ([0, -10, 0, 4]), PolyQ([0, -1])],
        ),
    }


KERNEL_CONTEXTS = ("zeta5", "zeta7", "zeta8", "zeta15", "sqrt2_sqrt3")


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child interpreter that imports this looprep."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(looprep.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def trivial_ctx():
    return rational_context()


@pytest.fixture(scope="session")
def a1():
    return root_system("A1")


@pytest.fixture(scope="session")
def a2():
    return root_system("A2")


@pytest.fixture(scope="session")
def b2():
    return root_system("B2")


@pytest.fixture(scope="session")
def g2():
    return root_system("G2")


def point_pool(ctx):
    """A mix of rational and irrational nonzero points of the context."""
    field = ctx.field
    theta = field.gen
    pool = [field.scalar(2), field.scalar(-3), theta, -theta, 2 * theta,
            field.one + theta]
    if field.degree >= 4:
        pool += [theta * theta, theta + theta ** (field.degree - 1)]
    return [p for p in pool if p]


def random_dominant(ctx, rs, rng: random.Random, max_support=3, max_exp=2):
    pool = point_pool(ctx)
    factors = {}
    for _ in range(rng.randint(1, max_support)):
        node = rng.randrange(rs.rank)
        point = rng.choice(pool)
        factors[(node, point)] = factors.get((node, point), 0) + rng.randint(1, max_exp)
    return LWeight(ctx, rs, factors)


def random_lweight(ctx, rs, rng: random.Random, max_support=3, max_exp=2):
    """Possibly non-dominant: exponents may be negative."""
    pool = point_pool(ctx)
    factors = {}
    for _ in range(rng.randint(1, max_support)):
        node = rng.randrange(rs.rank)
        point = rng.choice(pool)
        exp = rng.choice([-2, -1, 1, 2])
        factors[(node, point)] = factors.get((node, point), 0) + exp
    return LWeight(ctx, rs, factors)


def field_elements(field, max_denominator=6):
    """Hypothesis strategy: elements of field with small, often zero, coordinates."""
    coord = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-9, max_value=9, max_denominator=max_denominator),
    )
    return st.lists(coord, min_size=field.degree, max_size=field.degree).map(field.elem)


def gauss_jordan_inverse(m):
    """Oracle: the exact inverse of a square MatrixL by Gauss-Jordan
    elimination; raises Singular."""
    if m.nrows != m.ncols:
        raise Singular("matrix is not square")
    n, field = m.nrows, m.field
    one, zero = field.one, field.zero
    work = [list(r) + [one if j == i else zero for j in range(n)]
            for i, r in enumerate(m.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise Singular("zero pivot column %d" % col)
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col].inverse()
        work[col] = [e * inv for e in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return MatrixL(field, [row[n:] for row in work])

"""Canonical orbit keys against the pairwise searches they replaced.

Descent, blocks and the isomorphism test decide H-equivalence by comparing
canonical orbit keys and grouping in dicts.  The pairwise algorithms they
replaced live on here as oracles: the by-class-key descent, the pairwise
partition with a search over H per comparison, and the structural
isomorphism predicate.
"""

import importlib
from fractions import Fraction

import pytest
from conftest import point_pool
from hypothesis import given, settings
from hypothesis import strategies as st

from looprep import (
    Decomposition,
    LWeight,
    classify,
    cyclotomic_context,
    equivalent_chars,
    iso_test,
    partition_blocks,
    same_block,
    spectral_character,
    tensor_decompose_k,
)
from looprep.errors import ContextMismatch, DescentInconsistency

# the package re-exports the function classify under the module's name
classify_module = importlib.import_module("looprep.classify")
exact_module = importlib.import_module("looprep.exact")

CONTEXTS = ("qi", "cyclo5", "cyclo5_half", "zeta7", "zeta8")
ROOT_SYSTEMS = ("a1", "a2")


@pytest.fixture(scope="session")
def settings_by_name(qi, cyclo5, cyclo5_half, zeta8, a1, a2):
    """Contexts and root systems of the property tests, by fixture name;
    zeta7 is the 7th cyclotomic field with H the full group of order 6."""
    return {"qi": qi, "cyclo5": cyclo5, "cyclo5_half": cyclo5_half,
            "zeta7": cyclotomic_context(7), "zeta8": zeta8, "a1": a1, "a2": a2}


def lweights(ctx, rs, max_support=2, max_exp=2, dominant=True):
    """Hypothesis strategy: l-weights on the test point pool of ctx."""
    pool = point_pool(ctx)
    exps = st.integers(1, max_exp) if dominant else st.sampled_from([-2, -1, 1, 2])
    factor = st.tuples(st.integers(0, rs.rank - 1), st.sampled_from(pool), exps)

    def build(factors):
        merged = {}
        for node, point, e in factors:
            merged[(node, point)] = merged.get((node, point), 0) + e
        return LWeight(ctx, rs, merged)

    return st.lists(factor, min_size=0, max_size=max_support).map(build)


def lweight_lists(ctx, rs, max_size=5):
    """Lists of dominant l-weights followed by H-conjugates of some of them;
    h = identity repeats a member."""
    def with_conjugates(items):
        conjugate = st.tuples(st.sampled_from(items), st.sampled_from(ctx.subgroup))
        return st.lists(conjugate.map(lambda pair: pair[0].conjugate(pair[1])),
                        max_size=len(items) + 3).map(lambda extra: items + extra)

    return st.lists(lweights(ctx, rs), min_size=1, max_size=max_size).flatmap(with_conjugates)


# -- oracles


def by_class_descent(a, b):
    """Descent grouping every F-level constituent by its own class_key()."""
    orbit_a, _ = a.conjugacy_class()
    orbit_b, _ = b.conjugacy_class()
    f_mults = {}
    for ap in orbit_a:
        for bp in orbit_b:
            for lw, m in classify_module._tensor_f_level(ap, bp).items():
                f_mults[lw] = f_mults.get(lw, 0) + m
    by_class = {}
    for lw, m in f_mults.items():
        by_class.setdefault(lw.class_key(), {})[lw] = m
    parts = []
    for key in sorted(by_class, key=LWeight.sort_key):
        cls = classify(key)
        values = {by_class[key].get(member, 0) for member in cls.orbit}
        if len(values) != 1 or 0 in values:
            raise DescentInconsistency("non-constant multiplicities %r" % (values,))
        parts.append((cls, values.pop()))
    return Decomposition(parts=tuple(parts))


def chars_related(a, b):
    """Some h in H carries character a onto character b."""
    return any(a.translate(h) == b for h in a.ctx.subgroup)


def pairwise_blocks(items):
    """Partition by comparing each l-weight with every group's first member."""
    groups = []
    for lw in items:
        for group in groups:
            if chars_related(spectral_character(group[0]), spectral_character(lw)):
                group.append(lw)
                break
        else:
            groups.append([lw])
    groups = [sorted(g, key=LWeight.sort_key) for g in groups]
    groups.sort(key=lambda g: g[0].sort_key())
    return groups


def coords_sort_key(lw):
    """The sort key as factors by (node, point coordinates), exponent last."""
    return tuple(sorted((node, p.coords, e) for (node, p), e in lw.factors.items()))


def structurally_isomorphic(a, b):
    """Equal degrees and some h in H carrying a onto b."""
    return a.degree() == b.degree() and any(a.conjugate(h) == b for h in a.ctx.subgroup)


def sorted_entries(char):
    return tuple(sorted((p.coords, v) for p, v in char.entries.items()))


# -- property tests

by_setting = pytest.mark.parametrize(
    "ctx_name, rs_name", [(c, r) for c in CONTEXTS for r in ROOT_SYSTEMS]
)
by_rank = pytest.mark.parametrize("rs_name", ROOT_SYSTEMS)


@by_setting
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_descent_matches_by_class_oracle(settings_by_name, ctx_name, rs_name, data):
    ctx, rs = settings_by_name[ctx_name], settings_by_name[rs_name]
    a = data.draw(lweights(ctx, rs))
    b = data.draw(lweights(ctx, rs))
    assert tensor_decompose_k(a, b) == by_class_descent(a, b)


@by_setting
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_blocks_match_pairwise_oracle(settings_by_name, ctx_name, rs_name, data):
    ctx, rs = settings_by_name[ctx_name], settings_by_name[rs_name]
    items = data.draw(lweight_lists(ctx, rs))
    assert partition_blocks(items) == pairwise_blocks(items)


@by_setting
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_character_key_is_least_translate(settings_by_name, ctx_name, rs_name, data):
    ctx, rs = settings_by_name[ctx_name], settings_by_name[rs_name]
    char = spectral_character(data.draw(lweights(ctx, rs, dominant=False)))
    translates = [char.translate(h) for h in ctx.subgroup]
    key = [(p.coords, v) for p, v in char.class_key()]
    assert key == list(min(sorted_entries(t) for t in translates))
    assert all(t.class_key() == char.class_key() for t in translates)


@by_setting
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_sort_key_orders_like_coordinates(settings_by_name, ctx_name, rs_name, data):
    ctx, rs = settings_by_name[ctx_name], settings_by_name[rs_name]
    x = data.draw(lweights(ctx, rs, dominant=False))
    y = data.draw(st.one_of(lweights(ctx, rs, dominant=False),
                            st.sampled_from(ctx.subgroup).map(x.conjugate)))
    assert (x.sort_key() < y.sort_key()) == (coords_sort_key(x) < coords_sort_key(y))
    assert (x.sort_key() == y.sort_key()) == (x == y)


@by_setting
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_equivalence_matches_search_over_h(settings_by_name, ctx_name, rs_name, data):
    ctx, rs = settings_by_name[ctx_name], settings_by_name[rs_name]
    x = data.draw(lweights(ctx, rs, dominant=False))
    y = data.draw(st.one_of(lweights(ctx, rs, dominant=False),
                            st.sampled_from(ctx.subgroup).map(x.conjugate)))
    cx, cy = spectral_character(x), spectral_character(y)
    assert equivalent_chars(cx, cy) == chars_related(cx, cy)
    assert same_block(x, y) == chars_related(cx, cy)


@by_setting
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_iso_test_matches_structural_oracle(settings_by_name, ctx_name, rs_name, data):
    ctx, rs = settings_by_name[ctx_name], settings_by_name[rs_name]
    x = data.draw(lweights(ctx, rs))
    y = data.draw(st.one_of(lweights(ctx, rs),
                            st.sampled_from(ctx.subgroup).map(x.conjugate)))
    assert iso_test(x, y) == structurally_isomorphic(x, y)


# -- fixed cases


@by_rank
def test_dropped_orbit_member_is_inconsistent(qi, rs_name, request, monkeypatch):
    rs = request.getfixturevalue(rs_name)
    i = qi.field.gen
    a = LWeight.single(qi, rs, 0, i)
    dropped = LWeight(qi, rs, {(0, -i): 2})
    original = classify_module._tensor_f_level

    def without_member(x, y):
        return {lw: m for lw, m in original(x, y).items() if lw != dropped}

    monkeypatch.setattr(classify_module, "_tensor_f_level", without_member)
    with pytest.raises(DescentInconsistency):
        tensor_decompose_k(a, a)


@by_rank
def test_parts_sorted_by_class_key(cyclo5, rs_name, request):
    rs = request.getfixturevalue(rs_name)
    theta = cyclo5.field.gen
    a = LWeight(cyclo5, rs, {(0, theta): 1, (0, cyclo5.field.scalar(2)): 1})
    parts = tensor_decompose_k(a, a).parts
    keys = [cls.key.sort_key() for cls, _ in parts]
    assert len(keys) > 2 and keys == sorted(keys)
    assert all(cls == classify(member) for cls, _ in parts for member in cls.orbit)


def test_canonical_orders_build_no_fraction(zeta8, a2, monkeypatch):
    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    pool = point_pool(zeta8)
    points = pool + [p * Fraction(1, 3) for p in pool] + [p * Fraction(-2, 5) for p in pool]
    items = [LWeight(zeta8, a2, {(0, p): 1, (1, q): 2, (0, q): -1})
             for p, q in zip(points, reversed(points)) if p != q]
    chars = [spectral_character(lw) for lw in items]
    monkeypatch.setattr(exact_module, "Fraction", NoFraction)
    assert sorted(points)[0] == min(points)
    sorted(items, key=LWeight.sort_key)
    for lw, char in zip(items, chars):
        lw.conjugacy_class()
        char.class_key()
    assert zeta8.orbit(zeta8.subgroup, points[0])
    with pytest.raises(AssertionError):
        points[0].coords


@by_rank
def test_partition_rejects_mixed_contexts(qi, cyclo5, rs_name, request):
    rs = request.getfixturevalue(rs_name)
    items = [LWeight.single(qi, rs, 0, qi.field.gen),
             LWeight.single(cyclo5, rs, 0, cyclo5.field.gen)]
    with pytest.raises(ContextMismatch):
        partition_blocks(items)

"""Canonical orbit keys against the pairwise searches they replaced.

Descent, blocks and the isomorphism test decide H-equivalence by comparing
canonical orbit keys and grouping in dicts.  The pairwise algorithms they
replaced live on here as oracles: the all-pairs by-class-key descent (on its
own copy of the F-level product, so it shares no code with the pair-orbit
path), the pairwise partition with a search over H per comparison, and the
structural isomorphism predicate.
"""

import importlib
from fractions import Fraction

import pytest
from conftest import CONTEXTS, ROOT_SYSTEMS, point_pool, s3_context
from hypothesis import given, settings
from hypothesis import strategies as st

from looprep import (
    Decomposition,
    LWeight,
    classify,
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

@pytest.fixture(scope="module")
def s3_contexts():
    return {subgroup: s3_context(subgroup) for subgroup in (None, (0, 3))}


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


def all_pairs_f_level(a, b):
    """V_F(a) (x) V_F(b) as l-weight -> multiplicity, built from validated
    per-point pieces one product at a time."""
    rs = a.rs
    points = sorted(set(a.points()) | set(b.points()))
    result = {LWeight.identity(a.ctx, rs): 1}
    for point in points:
        wa = a.point_weight(point)
        wb = b.point_weight(point)
        if any(wa) and any(wb):
            local = rs.tensor_decompose(wa, wb)
        else:
            fixed = wa if any(wa) else wb
            local = [(fixed, 1)] if any(fixed) else []
        if not local:
            continue
        merged = {}
        for partial, mult in result.items():
            for weight, m in local:
                piece = LWeight(
                    a.ctx, rs,
                    {(node, point): e for node, e in enumerate(weight) if e},
                )
                key = partial * piece
                merged[key] = merged.get(key, 0) + mult * m
        result = merged
    return result


def by_class_descent(a, b, f_level=all_pairs_f_level):
    """Descent over every orbit pair, grouping each F-level constituent by
    its own class_key() and requiring constant multiplicities on orbits."""
    orbit_a, _ = a.conjugacy_class()
    orbit_b, _ = b.conjugacy_class()
    f_mults = {}
    for ap in orbit_a:
        for bp in orbit_b:
            for lw, m in f_level(ap, bp).items():
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


@by_rank
@pytest.mark.parametrize("subgroup", [None, (0, 3)])
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_descent_matches_oracle_over_s3(settings_by_name, s3_contexts, subgroup, rs_name,
                                        data):
    # a non-abelian group: pair orbits, stabilizers and the point table all
    # depend on the order of composition
    ctx, rs = s3_contexts[subgroup], settings_by_name[rs_name]
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
def test_stabilizer_is_the_fixing_subgroup(settings_by_name, ctx_name, rs_name, data):
    ctx, rs = settings_by_name[ctx_name], settings_by_name[rs_name]
    x = data.draw(lweights(ctx, rs, max_support=3, dominant=False))
    assert x.stabilizer() == tuple(h for h in ctx.subgroup if x.conjugate(h) == x)


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


def count_pairs(monkeypatch):
    """Patch the F-level product to count its calls; returns the counter."""
    calls = []
    original = classify_module._tensor_f_level

    def counted(x, y):
        calls.append((x, y))
        return original(x, y)

    monkeypatch.setattr(classify_module, "_tensor_f_level", counted)
    return calls


def patch_f_level(monkeypatch, edit):
    """Patch the F-level product to pass its result through edit."""
    original = classify_module._tensor_f_level
    monkeypatch.setattr(classify_module, "_tensor_f_level",
                        lambda x, y: edit(dict(original(x, y))))


@by_rank
def test_dropped_orbit_member_is_inconsistent(qi, rs_name, request, monkeypatch):
    # (1 + i u)^2 comes only from the pair (-i, -i).  The all-pairs oracle
    # sees the gap in its orbit; descent decomposes only the pairs (i, i) and
    # (i, -i), one per pair orbit, so the same edit cannot reach it
    rs = request.getfixturevalue(rs_name)
    i = qi.field.gen
    a = LWeight.single(qi, rs, 0, i)
    dropped = LWeight(qi, rs, {(0, -i): 2})

    def without_member(result):
        return {lw: m for lw, m in result.items() if lw != dropped}

    with pytest.raises(DescentInconsistency):
        by_class_descent(a, a, lambda x, y: without_member(all_pairs_f_level(x, y)))
    patch_f_level(monkeypatch, without_member)
    assert tensor_decompose_k(a, a) == by_class_descent(a, a)


@by_rank
def test_dropped_constituent_fails_the_certificate(qi, rs_name, request, monkeypatch):
    # (1 - i u)^2 is a constituent of the representative pair (i, i): without
    # it the dimensions no longer add up to dim_K(a)^2
    rs = request.getfixturevalue(rs_name)
    i = qi.field.gen
    a = LWeight.single(qi, rs, 0, i)
    dropped = LWeight(qi, rs, {(0, i): 2})
    patch_f_level(monkeypatch, lambda result: {lw: m for lw, m in result.items()
                                               if lw != dropped})
    with pytest.raises(DescentInconsistency, match="dimension"):
        tensor_decompose_k(a, a)


@by_rank
@pytest.mark.parametrize("shift", [1, -1])
def test_changed_multiplicity_fails_the_certificate(qi, rs_name, shift, request,
                                                    monkeypatch):
    # each of the two representative pairs weighs 2, so one copy more or one
    # fewer of the degree-2 constituent (1 - i u)^2 of (i, i) gives the
    # weighted sum 4 or 0: multiplicity 2, caught by the dimension check, or 0
    rs = request.getfixturevalue(rs_name)
    i = qi.field.gen
    a = LWeight.single(qi, rs, 0, i)
    target = LWeight(qi, rs, {(0, i): 2})

    def changed(result):
        if target in result:
            result[target] += shift
        return result

    patch_f_level(monkeypatch, changed)
    with pytest.raises(DescentInconsistency):
        tensor_decompose_k(a, a)


def test_remainder_fails_the_certificate(cyclo5, a1, monkeypatch):
    # a = (1 - theta u)(1 - theta^4 u) has Stab(a) = {1, 4}, and so has the
    # pair (a, a), which weighs 4 / 2 = 2; its constituent (1 - theta u)^2
    # has degree 4, and one extra copy makes the class sum 2 * 3 = 6
    theta = cyclo5.field.gen
    a = LWeight(cyclo5, a1, {(0, theta): 1, (0, theta ** 4): 1})
    target = LWeight(cyclo5, a1, {(0, theta): 2})
    assert classify(target).degree == 4

    def changed(result):
        if target in result:
            result[target] += 1
        return result

    patch_f_level(monkeypatch, changed)
    with pytest.raises(DescentInconsistency, match="6 over degree 4"):
        tensor_decompose_k(a, a)


def pair_cases(cyclo5, cyclo5_half, zeta8, a1, a2):
    """(a, b, representative pairs): Stab(a) a proper nontrivial subgroup of
    H splitting the orbit of b into several Stab(a)-orbits, then Stab(a) = H
    (one pair) and Stab(a) trivial (one pair per member of the orbit of b)."""
    t5, t8 = cyclo5.field.gen, zeta8.field.gen
    sqrt2 = t8 + t8 ** 7
    two = zeta8.field.scalar(2)
    r5 = cyclo5_half.field.gen
    return [
        # Stab(a) = {1, 4} in (Z/5)*: {theta, theta^4}, {theta^2, theta^3}
        (LWeight.single(cyclo5, a1, 0, t5 + t5 ** 4),
         LWeight.single(cyclo5, a1, 0, t5), 2),
        # Stab(a) = {1, 7} in (Z/8)*; b shares the point sqrt 2 with a
        (LWeight(zeta8, a2, {(0, sqrt2): 1, (1, two): 1}),
         LWeight(zeta8, a2, {(0, t8): 1, (1, sqrt2): 1}), 2),
        (LWeight(zeta8, a1, {(0, sqrt2): 2, (0, two): 1}),
         LWeight(zeta8, a1, {(0, t8): 1, (0, t8 ** 2): 1}), 2),
        # H = {1, 4} fixes a: one pair
        (LWeight.single(cyclo5_half, a2, 1, r5 + r5 ** 4),
         LWeight(cyclo5_half, a2, {(0, r5): 1, (1, r5 + r5 ** 4): 1}), 1),
        # Stab(a) trivial: every member of the orbit of b
        (LWeight.single(cyclo5, a2, 0, t5),
         LWeight(cyclo5, a2, {(0, t5 ** 2): 1, (1, t5): 2}), 4),
    ]


@pytest.mark.parametrize("case", range(5))
def test_descent_decomposes_one_pair_per_pair_orbit(cyclo5, cyclo5_half, zeta8, a1, a2,
                                                    case, monkeypatch):
    a, b, pairs = pair_cases(cyclo5, cyclo5_half, zeta8, a1, a2)[case]
    expected = by_class_descent(a, b)
    calls = count_pairs(monkeypatch)
    assert tensor_decompose_k(a, b) == expected
    assert len(calls) == pairs
    assert all(x == a for x, _ in calls)
    assert len(a.conjugacy_class()[0]) * len(b.conjugacy_class()[0]) > pairs


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

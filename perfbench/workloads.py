"""The in-process workload, library: the tasks of three parts, descent,
weights and kxmatrix, run in turn.

The parts and library are classes with the same small interface:

- ``build(call)`` makes the contexts, root systems and point pools the
  workload uses (the set-up that ``setup_s`` times);
- ``tasks(env, seed)`` yields plain task inputs (tuples of ints), so the seed
  alone fixes the stream (the checks regenerate it rather than keep it) and
  the library sees only the generated inputs;
- ``run(env, task, call)`` performs one task, making every call into looprep
  through ``call(name, fn, *args)`` so a tracer can wrap it;
- ``record(env, task, out)`` turns a task's result into exact JSON data
  (done between tasks, outside the task's latency; the run writes it to a
  file, so records do not add to the benchmark's memory);
- ``check(env, task, rec)`` returns the failed checks (run after timing);
- ``work(task, rec)`` returns the task's exact work descriptors;
- ``digest_view(task, rec)`` is the part of a record pinned by digests.json.

Tasks cycle through fixed strata (field and Lie type, or Lie type), and the
seed draws the inputs inside each stratum.  The mix of work is therefore the
same for every seed, which keeps runs with different seeds comparable.
"""

import hashlib
import itertools
import json
import operator
import random
from fractions import Fraction

from looprep import (
    FieldElem,
    LWeight,
    MatrixL,
    RootSystem,
    build_kx_module,
    char_poly,
    char_poly_split_check,
    classify,
    compositum_degree,
    cyclotomic_context,
    multiplication_matrix,
    partition_blocks,
    root_system,
    tensor_decompose_k,
    tensor_embedding_rank,
    tp_irreducible_criterion,
)
from spans import untraced


def point_pool(ctx):
    """Nonzero points of the field, two rational and the rest irrational, as
    in the test suite's pool: eight when the degree is 4 or more, else six."""
    field = ctx.field
    theta = field.gen
    pool = [field.scalar(2), field.scalar(-3), theta, -theta, 2 * theta, field.one + theta]
    if field.degree >= 4:
        pool += [theta * theta, theta + theta ** (field.degree - 1)]
    return pool


def sha(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def draw_factors(rng, rank, points, n_factors, max_exp):
    """Plain l-weight data: sorted ((node, point index, exponent), ...)."""
    factors = {}
    for _ in range(n_factors):
        key = (rng.randrange(rank), rng.choice(points))
        factors[key] = factors.get(key, 0) + rng.randint(1, max_exp)
    return tuple(sorted((node, p, e) for (node, p), e in factors.items()))


def make_lweight(call, ctx, rs, pool, factors):
    return call("lweights.LWeight", LWeight, ctx, rs,
                {(node, pool[p]): e for node, p, e in factors})


class Descent:
    """Galois descent of tensor products over fields of degree 4 and 6.

    Stresses ``galois`` through ``lweights`` and ``classify``: every
    conjugate, class key and orbit re-applies the automorphism matrices.
    Roots see only tiny rank-1/rank-2 products.  ROADMAP item 3
    (permutation-based Galois layer, pair-orbit descent) should raise
    ``tasks_per_s`` here; item 2 (Brauer-Klimyk) should change nothing.
    """

    name = "descent"
    # contexts are (n, H) for cyclotomic_context; a stratum is (context key,
    # Lie type, number of factors of a, number of factors of b)
    contexts = {"z5": (5, None), "z7": (7, None), "z8": (8, None), "z5h": (5, (0, 3))}
    strata = [(c, t, na, nb) for na, nb in ((1, 2), (2, 3), (3, 1))
              for c in ("z5", "z7", "z8", "z5h") for t in ("A1", "A2")]
    block_members = 8

    def build(self, call):
        env = {}
        for key, (n, sub) in self.contexts.items():
            ctx = call("galois.build_context", cyclotomic_context, n, sub)
            env[key] = (ctx, point_pool(ctx))
        for t in ("A1", "A2"):
            env[t] = call("roots.root_system", root_system, t)
        return env

    def tasks(self, env, seed):
        rng = random.Random(seed)
        for i in itertools.count():
            key, t, na, nb = self.strata[i % len(self.strata)]
            rank = int(t[1])
            yield (key, t,
                   draw_factors(rng, rank, range(8), na, 2),
                   draw_factors(rng, rank, range(8), nb, 2))

    def run(self, env, task, call):
        key, t, fa, fb = task
        ctx, pool = env[key]
        rs = env[t]
        a = make_lweight(call, ctx, rs, pool, fa)
        b = make_lweight(call, ctx, rs, pool, fb)
        points = sorted({p for _, p, _ in fa + fb})
        orbits = [call("galois.orbit", ctx.orbit, ctx.subgroup, pool[p]) for p in points]
        g = ctx.subgroup[-1]
        images = [call("galois.apply", ctx.apply, g, pool[p]) for p in points]
        orbit_a, _ = call("lweights.conjugacy_class", a.conjugacy_class)
        orbit_b, _ = call("lweights.conjugacy_class", b.conjugacy_class)
        cls = call("classify.classify", classify, a)
        dec = call("classify.tensor_decompose_k", tensor_decompose_k, a, b)
        irreducible = call("classify.tp_irreducible_criterion", tp_irreducible_criterion, a, b)
        compositum = call("classify.compositum_degree", compositum_degree, a, b)
        split = call("lweights.rational_split", a.rational_split)
        members = (orbit_a + orbit_b + tuple(c.key for c, _ in dec.parts))[:self.block_members]
        blocks = call("blocks.partition_blocks", partition_blocks, members)
        return (orbits, images, orbit_a, orbit_b, cls, dec, irreducible,
                compositum, split, members, blocks)

    def record(self, env, task, out):
        (orbits, images, orbit_a, orbit_b, cls, dec, irreducible,
         compositum, split, members, blocks) = out
        return {
            "orbits": [[p.to_json() for p in orbit] for orbit in orbits],
            "images": [p.to_json() for p in images],
            "class": cls.to_json(),
            "parts": dec.to_json(),
            "irreducible": irreducible,
            "compositum": compositum,
            "split": [w.to_json() for w in split],
            "blocks": [[m.to_json() for m in group] for group in blocks],
            "pairs": len(orbit_a) * len(orbit_b),
            "members": len(members),
        }

    def check(self, env, task, rec):
        key, t, fa, fb = task
        ctx, pool = env[key]
        rs = env[t]
        dim_a = classify(make_lweight(untraced, ctx, rs, pool, fa)).dim_k
        dim_b = classify(make_lweight(untraced, ctx, rs, pool, fb)).dim_k
        total = sum(part["mult"] * part["dimK"] for part in rec["parts"])
        if total != dim_a * dim_b:
            return ["sum of mult*dimK is %d, expected %d*%d" % (total, dim_a, dim_b)]
        return []

    def work(self, task, rec):
        return {"tasks": 1, "orbit_pairs": rec["pairs"], "block_members": rec["members"]}

    def digest_view(self, task, rec):
        return rec


class Weights:
    """Root-system combinatorics alone (no field context, no Galois work).

    Stresses ``roots``: Freudenthal multiplicities, highest-weight peeling in
    ``tensor_decompose`` and the breadth-first ``link_chain``.  Tasks come in
    sessions, each with its own ``RootSystem`` objects and so its own
    multiplicity cache; about half the weights of a session repeat earlier
    ones, so the cache sees both hits and misses.  ROADMAP item 2
    (Brauer-Klimyk) should raise ``tasks_per_s`` and lower ``task_p90_ms``
    here; item 3 should change nothing.
    """

    name = "weights"
    # Lie type -> (largest entry sum of lambda, largest entry sum of mu),
    # small enough that a cold task stays under about 0.3 s
    types = {"A2": (4, 2), "B2": (3, 2), "G2": (3, 2), "A3": (3, 2),
             "B3": (2, 2), "C3": (2, 2), "D4": (2, 1)}
    session_rounds = 4
    repeats = ((False, False), (True, False), (False, True), (True, True))
    link_steps = 2

    def build(self, call):
        env = {"session": None}
        for t in self.types:
            env[t] = call("roots.root_system", root_system, t)
        return env

    def tasks(self, env, seed):
        rng = random.Random(seed)
        order = list(self.types)
        session_tasks = self.session_rounds * len(order)
        space = {t: {s: weights_up_to(int(t[1]), s) for s in set(self.types[t])}
                 for t in order}

        def draw(t, largest, repeat):
            """A weight seen earlier in the session, or one not seen yet."""
            if repeat:
                return rng.choice(seen[t])
            weight = rng.choice([w for w in space[t][largest] if w not in seen[t]])
            seen[t].append(weight)
            return weight

        for i in itertools.count():
            if i % session_tasks == 0:
                seen = {t: [] for t in order}
            t = order[i % len(order)]
            lam_sum, mu_sum = self.types[t]
            # rounds of a session draw (new, new), (seen, new), (new, seen),
            # (seen, seen): half the weights repeat, the cache sees both
            repeat_lam, repeat_mu = self.repeats[(i // len(order)) % self.session_rounds]
            lam = draw(t, lam_sum, repeat_lam)
            mu = draw(t, mu_sum, repeat_mu)
            yield (i // session_tasks, t, lam, mu, repeat_lam + repeat_mu)

    def run(self, env, task, call):
        session, t, lam, mu, _ = task
        if env["session"] != session:
            env["session"] = session
            env["systems"] = {}
        rs = env["systems"].get(t)
        if rs is None:
            rs = env["systems"][t] = call("roots.RootSystem", RootSystem, t)
        mults = call("roots.weight_mults", rs.weight_mults, lam)
        parts = call("roots.tensor_decompose", rs.tensor_decompose, lam, mu)
        dims = (call("roots.weyl_dim", rs.weyl_dim, lam), call("roots.weyl_dim", rs.weyl_dim, mu))
        pq = call("roots.pq_class", rs.pq_class, lam)
        theta = call("roots.root_to_fund", rs.root_to_fund, rs.highest_root)
        target = tuple(x + y for x, y in zip(lam, theta))
        chain = call("roots.link_chain", rs.link_chain, target, lam, self.link_steps)
        return mults, parts, dims, pq, chain

    def record(self, env, task, out):
        mults, parts, dims, pq, chain = out
        return {
            "mults": sha(sorted(mults.items())),
            "parts": [[list(w), m] for w, m in parts],
            "dims": list(dims),
            "pq": list(pq),
            "chain": [list(w) for w in chain],
        }

    def check(self, env, task, rec):
        """Dimension count and the character-product oracle, computed with
        the shared root system, whose cache the timed tasks never touch."""
        _, t, lam, mu, _ = task
        rs = env[t]
        failures = []
        parts = [(tuple(w), m) for w, m in rec["parts"]]
        total = sum(m * rs.weyl_dim(w) for w, m in parts)
        if total != rec["dims"][0] * rec["dims"][1]:
            failures.append("sum of mult*dim is %d, expected %d" % (total, rec["dims"][0] * rec["dims"][1]))
        if character_product(rs, lam, mu) != character_sum(rs, parts):
            failures.append("character of the product differs from the decomposition")
        return failures

    def work(self, task, rec):
        return {"tasks": 1, "dim_products": rec["dims"][0] * rec["dims"][1],
                "weights_drawn": 2, "weights_repeated": task[4]}

    def digest_view(self, task, rec):
        return rec


def weights_up_to(rank, largest):
    """Nonzero dominant weights whose entries sum to at most ``largest``."""
    return [w for w in itertools.product(range(largest + 1), repeat=rank)
            if 0 < sum(w) <= largest]


def character_product(rs, left, right):
    """Character of V(left) (x) V(right) as a weight -> multiplicity map."""
    out = {}
    right_mults = rs.weight_mults(right)
    for mu, m in rs.weight_mults(left).items():
        for nu, n in right_mults.items():
            key = tuple(a + b for a, b in zip(mu, nu))
            out[key] = out.get(key, 0) + m * n
    return out


def character_sum(rs, parts):
    out = {}
    for weight, mult in parts:
        for nu, n in rs.weight_mults(weight).items():
            out[nu] = out.get(nu, 0) + mult * n
    return out


class KXMatrix:
    """Explicit K-matrices over fields of degree 4 to 8.

    Stresses ``exact`` (field multiplication, ``MatrixL.inverse`` and ``*``,
    characteristic polynomials) and ``galois`` through fixedness checks on
    matrix entries (inside ``build_kx_module``, and on the product of two
    generators in the task itself), not through conjugating points.  Never
    touches ``roots`` after set-up.  Item 3's single Vandermonde inversion
    per module should raise ``tasks_per_s`` here; item 2 should change
    nothing.
    """

    name = "kxmatrix"
    contexts = {"z5": (5, None), "z7": (7, None), "z8": (8, None),
                "z16": (16, None), "z16h": (16, (0, 7))}
    # (context key, pool indices, number of factors): every factor has
    # exponent 1 and the l-weight lives on the single node of A1, so a
    # stratum fixes the module dimension and the number of generators
    strata = [
        ("z5", (2, 3, 4, 5, 6, 7), 2),
        ("z7", (2, 3, 4, 5, 6, 7), 1),
        ("z8", (2, 3, 4, 5), 2),
        ("z16", (6, 7), 1),
        ("z16h", (2, 3, 4, 5, 6, 7), 2),
    ]

    def build(self, call):
        env = {}
        for key, (n, sub) in self.contexts.items():
            ctx = call("galois.build_context", cyclotomic_context, n, sub)
            env[key] = (ctx, point_pool(ctx))
        env["rs"] = call("roots.root_system", root_system, "A1")
        return env

    def tasks(self, env, seed):
        rng = random.Random(seed)
        for i in itertools.count():
            key, points, n_factors = self.strata[i % len(self.strata)]
            yield (key,
                   draw_factors(rng, 1, points, n_factors, 1),
                   draw_factors(rng, 1, (0, 1), 1, 1))

    def run(self, env, task, call):
        key, fa, fb = task
        ctx, pool = env[key]
        rs = env["rs"]
        a = make_lweight(call, ctx, rs, pool, fa)
        b = make_lweight(call, ctx, rs, pool, fb)
        module = call("kxmodules.build_kx_module", build_kx_module, a)
        gens = sorted(module.generator_matrices)
        splits = [call("kxmodules.char_poly_split_check", char_poly_split_check, module, node, r)
                  for node, r in gens]
        first = module.matrix(*gens[0])
        second = module.matrix(*gens[-1])
        value = call("exact.field_mul", operator.mul, module.primitive, pool[fa[0][1]])
        mult = call("kxmodules.multiplication_matrix", multiplication_matrix, module, value)
        poly = call("exact.char_poly", char_poly, mult)
        product = call("exact.matrix_mul", operator.mul, first, second)
        product_fixed = all(call("galois.apply", ctx.apply, h, e) == e
                            for row in product.rows for e in row for h in ctx.subgroup)
        rank = call("kxmodules.tensor_embedding_rank", tensor_embedding_rank, a, b)
        return module, splits, value, mult, poly, product, product_fixed, rank

    def record(self, env, task, out):
        module, splits, value, mult, poly, product, product_fixed, rank = out
        return {
            "splits": splits,
            "product_fixed": product_fixed,
            "json": {
                "module": module.to_json(),
                "splits": splits,
                "value": value.to_json(),
                "mult": mult.to_json(),
                "charPoly": [c.to_json() for c in poly],
                "product": product.to_json(),
                "productFixed": product_fixed,
                "rank": list(rank),
            },
        }

    def check(self, env, task, rec):
        """Checks on the generator matrices, rebuilt from the record."""
        ctx, _ = env[task[0]]
        field = ctx.field
        mats = [matrix_from_json(field, m)
                for m in rec["json"]["module"]["matrices"].values()]
        failures = []
        if not all(rec["splits"]):
            failures.append("a characteristic polynomial does not split")
        if not rec["product_fixed"]:
            failures.append("the product of two generator matrices is not over K")
        for x, y in itertools.combinations(mats, 2):
            if x * y != y * x:
                failures.append("generator matrices do not commute")
                break
        for mat in mats:
            if not all(ctx.apply(h, e) == e for row in mat.rows for e in row for h in ctx.subgroup):
                failures.append("a matrix entry is not fixed by H")
                break
        return failures

    def work(self, task, rec):
        return {"tasks": 1, "module_dim_sq": rec["json"]["module"]["dim"] ** 2}

    def digest_view(self, task, rec):
        return rec["json"]


def matrix_from_json(field, rows):
    """A MatrixL from its to_json form (rows of coordinate strings)."""
    return MatrixL(field, [[FieldElem(field, tuple(Fraction(c) for c in entry)) for entry in row]
                           for row in rows])


class Library:
    """The descent, weights and kxmatrix tasks in turn, in one process.

    The machine the benchmark was tuned on drifts by tens of percent over
    tens of seconds, so only long runs are steady, and the run budget allows
    long runs for two workloads only.  This one covers every in-process
    layer; the spans of a traced run name the layer a change moved.
    """

    name = "library"

    def __init__(self, parts):
        self.parts = {part.name: part for part in parts}

    def build(self, call):
        return {name: part.build(call) for name, part in self.parts.items()}

    def tasks(self, env, seed):
        streams = [(name, part.tasks(env[name], seed)) for name, part in self.parts.items()]
        for name, stream in itertools.cycle(streams):
            yield name, next(stream)

    def run(self, env, task, call):
        name, sub = task
        return self.parts[name].run(env[name], sub, call)

    def record(self, env, task, out):
        name, sub = task
        return self.parts[name].record(env[name], sub, out)

    def check(self, env, task, rec):
        name, sub = task
        return self.parts[name].check(env[name], sub, rec)

    def work(self, task, rec):
        name, sub = task
        return self.parts[name].work(sub, rec)

    def digest_view(self, task, rec):
        name, sub = task
        return self.parts[name].digest_view(sub, rec)


LIBRARY = Library((Descent(), Weights(), KXMatrix()))

"""Seeded randomized instances on top of the curated ones.

Random set-valued functors over the bundled categories feed the same
verifiers; an iso-category functor needs invertible actions, an idempotent
one needs an idempotent action, so generation is per-category.
"""

import itertools
import random

import pytest

from weilad.corpus import bundled_instance
from weilad.fincat import (
    FinFunctor,
    FinNatTrans,
    SlicedObject,
    enumerate_nat_trans,
    enumerate_slice_morphisms,
    is_slice_morphism,
    slice_exponential,
    validate_functor,
    validate_nat_trans,
    verify_ccc,
    verify_slice_ccc,
)


def random_functor(cat, rng, name, max_size=2):
    if cat.name == "iso":
        size = rng.randint(1, max_size)
        a = tuple("%s_a%d" % (name, i) for i in range(size))
        b = tuple("%s_b%d" % (name, i) for i in range(size))
        perm = list(b)
        rng.shuffle(perm)
        s_map = dict(zip(a, perm))
        r_map = {v: k for k, v in s_map.items()}
        return FinFunctor(cat, {"a": a, "b": b},
                          {"ida": {x: x for x in a}, "idb": {y: y for y in b},
                           "s": s_map, "r": r_map}, name)
    if cat.name == "arrow":
        na, nb = rng.randint(0, max_size), rng.randint(1, max_size)
        a = tuple("%s_a%d" % (name, i) for i in range(na))
        b = tuple("%s_b%d" % (name, i) for i in range(nb))
        u_map = {x: rng.choice(b) for x in a}
        return FinFunctor(cat, {"a": a, "b": b},
                          {"ida": {x: x for x in a}, "idb": {y: y for y in b},
                           "u": u_map}, name)
    if cat.name == "idem":
        size = rng.randint(1, max_size + 1)
        o = tuple("%s_%d" % (name, i) for i in range(size))
        # an idempotent endomap: pick an image set, retract onto it
        image = [x for x in o if rng.random() < 0.7] or [o[0]]
        e_map = {x: (x if x in image else rng.choice(image)) for x in o}
        return FinFunctor(cat, {"o": o}, {"one": {x: x for x in o}, "e": e_map}, name)
    size = rng.randint(0, max_size + 1)
    o = tuple("%s_%d" % (name, i) for i in range(size))
    return FinFunctor(cat, {"o": o}, {"i": {x: x for x in o}}, name)


@pytest.mark.parametrize("inst_name", ["terminal", "arrow", "iso", "idem"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_currying_bijection_on_random_functors(inst_name, seed):
    inst = bundled_instance(inst_name)
    rng = random.Random((inst_name, seed).__repr__())
    functors = [random_functor(inst.cat, rng, "R%d" % i) for i in range(3)]
    probes = [random_functor(inst.cat, rng, "P%d" % i, max_size=2) for i in range(2)]
    for f in functors + probes:
        assert validate_functor(f).passed, f.name
    for m, n in itertools.product(functors, repeat=2):
        rep = verify_ccc(m, n, probes)
        assert rep.passed, (inst_name, seed, m.name, n.name,
                            [c.name for c in rep.failures()])


def random_sliced(cat, rng, base, name):
    total = random_functor(cat, rng, name)
    comps = {}
    for c in cat.objects:
        if base.at(c) and not total.at(c):
            comps[c] = {}
            continue
        comps[c] = {}
        for x in total.at(c):
            comps[c][x] = rng.choice(base.at(c))
    t = FinNatTrans(total, base, comps, name + "-tau")
    return SlicedObject(total, t, name)


def _natural_structure(cat, rng, base, name, tries=60):
    for _ in range(tries):
        candidate = random_sliced(cat, rng, base, name)
        if validate_nat_trans(candidate.structure).passed:
            return candidate
    return None


@pytest.mark.parametrize("inst_name", ["arrow", "iso", "idem"])
@pytest.mark.parametrize("seed", [0, 1])
def test_slice_currying_on_random_sliced_objects(inst_name, seed):
    inst = bundled_instance(inst_name)
    roles = inst.roles["slice_ccc"]
    base = inst.functor(roles["base"])
    rng = random.Random((inst_name, "slice", seed).__repr__())
    objs = []
    for i in range(3):
        sliced = _natural_structure(inst.cat, rng, base, "S%d" % i)
        if sliced is not None:
            objs.append(sliced)
    assert len(objs) >= 2
    probe = objs[0]
    for a, b in itertools.permutations(objs[:3], 2):
        rep = verify_slice_ccc(base, a, b, [probe])
        assert rep.passed, (inst_name, seed, a.name, b.name,
                            [c.name for c in rep.failures()])


@pytest.mark.parametrize("inst_name", ["terminal", "arrow", "iso", "idem"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fiber_search_matches_filter_on_random_sliced_objects(inst_name, seed):
    # Unvalidated structures too: a non-natural one forces values outside their fibers.
    inst = bundled_instance(inst_name)
    base = inst.functor(inst.roles["slice_ccc"]["base"])
    rng = random.Random((inst_name, "fiber-search", seed).__repr__())
    objs = [random_sliced(inst.cat, rng, base, "S%d" % i) for i in range(3)]
    natural = _natural_structure(inst.cat, rng, base, "N")
    if natural is not None:
        objs.append(natural)
    for a, b in itertools.product(objs, repeat=2):
        got = [t.canonical() for t in enumerate_slice_morphisms(a, b)]
        want = [t.canonical() for t in enumerate_nat_trans(a.total, b.total)
                if is_slice_morphism(t, a, b)]
        assert got == want, (inst_name, seed, a.name, b.name)


def slice_family_oracle(l, a, b, w, point):
    """Independent fiberwise enumeration for one base point at one stage."""
    cat = l.cat
    arrows = sorted(cat.arrows_from(w))
    spaces = []
    for ar in arrows:
        cod = cat.cod(ar)
        fib_b = b.fiber(cod, l.apply(ar, point))
        fib_a = a.fiber(cod, l.apply(ar, point))
        if fib_b and not fib_a:
            return []
        spaces.append([dict(zip(fib_b, images))
                       for images in itertools.product(fib_a, repeat=len(fib_b))])
    found = []
    for combo in itertools.product(*spaces):
        table = dict(zip(arrows, combo))
        ok = True
        for phi in arrows:
            for psi in cat.arrows:
                if psi.dom != cat.cod(phi):
                    continue
                for bx, ax in table[phi].items():
                    if a.total.apply(psi.name, ax) != \
                            table[cat.compose(psi.name, phi)][b.total.apply(psi.name, bx)]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            found.append(
                (point, tuple((ar, tuple(sorted(table[ar].items(),
                                                key=lambda kv: repr(kv[0]))))
                              for ar in arrows))
            )
    return found


@pytest.mark.parametrize("inst_name", ["arrow", "iso", "idem"])
def test_slice_exponential_matches_fiberwise_oracle(inst_name):
    inst = bundled_instance(inst_name)
    roles = inst.roles["slice_ccc"]
    l = inst.functor(roles["base"])
    a, b = inst.sliced_obj("A"), inst.sliced_obj("B")
    exp = slice_exponential(l, a, b)
    for w in inst.cat.objects:
        got = set(exp.total.at(w))
        want = set()
        for point in l.at(w):
            want.update(slice_family_oracle(l, a, b, w, point))
        assert got == want, (inst_name, w)

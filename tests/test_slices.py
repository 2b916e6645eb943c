import itertools
import math

import pytest

from weilad.corpus import bundled_instance
from weilad.errors import SizeLimit
from weilad.fincat import (
    FinFunctor,
    FinNatTrans,
    IteratedSliceObject,
    SlicedObject,
    enumerate_nat_trans,
    enumerate_slice_morphisms,
    equal_functors,
    exponential,
    fibered_product,
    flatten_from,
    flatten_to,
    is_iterated_object,
    is_slice_morphism,
    precompose,
    slice_exponential,
    sliced_T,
    sliced_alpha,
    terminal_functor,
    verify_ccc,
    verify_flatten,
    verify_slice_ccc,
)


def over_terminal(f: FinFunctor) -> SlicedObject:
    one = terminal_functor(f.cat)
    to_one = FinNatTrans(f, one, {c: {x: "*" for x in f.at(c)} for c in f.cat.objects})
    return SlicedObject(f, to_one, f.name)


def test_terminal_base_degenerates_to_plain_exponential():
    inst = bundled_instance("arrow")
    m, n = inst.functor("M2"), inst.functor("N2")
    one = terminal_functor(inst.cat)
    sliced = slice_exponential(one, over_terminal(m), over_terminal(n))
    plain = exponential(m, n)
    for c in inst.cat.objects:
        assert len(sliced.total.at(c)) == len(plain.at(c))
        # each sliced element is exactly (point, plain family) with fiber maps as pairs
        plain_families = {tuple((a, tuple(zip(n.at(inst.cat.cod(a)), imgs)))
                                for a, imgs in fam)
                          for fam in plain.at(c)}
        got = {fam for (_, fam) in sliced.total.at(c)}
        assert got == plain_families


def test_singleton_fibers_one_family_per_point():
    # |L(c)| = 2 with singleton fibers everywhere: one family per base point
    inst = bundled_instance("iso")
    l = inst.functor("LL")
    b = inst.sliced_obj("B")
    sliced = slice_exponential(l, b, b)
    for c in inst.cat.objects:
        assert len(sliced.total.at(c)) == len(l.at(c))


def test_empty_fiber_gives_unique_empty_map():
    inst = bundled_instance("arrow")
    l = inst.functor("LL")
    a = inst.sliced_obj("A")
    b = inst.sliced_obj("B")
    # B has no fiber over l1 at stage a (tauB sends b0->l0, b1->l1: fiber over l1 is {b1});
    # build a sliced object with a genuinely empty fiber instead
    bt = inst.functor("Bt")
    tau = FinNatTrans(bt, l, {"a": {"b0": "l0", "b1": "l0"}, "b": {"d0": "k0"}})
    b_empty = SlicedObject(bt, tau, "Bempty")
    sliced = slice_exponential(l, a, b_empty)
    points = {pt for (pt, _) in sliced.total.at("a")}
    assert "l1" in points  # fiber of B over l1 is empty, the family still exists


def test_slice_currying_matches_plain_over_terminal_bit_for_bit():
    inst = bundled_instance("idem")
    m, n, p = inst.functor("S2"), inst.functor("S3"), inst.functor("S1")
    plain = verify_ccc(m, n, [p])
    one = terminal_functor(inst.cat)
    sliced = verify_slice_ccc(one, over_terminal(m), over_terminal(n), [over_terminal(p)])
    assert plain.passed and sliced.passed
    assert plain.data[p.name] == sliced.data[p.name]


def test_slice_ccc_on_bundled_instances():
    for name in ("terminal", "arrow", "iso", "idem"):
        inst = bundled_instance(name)
        roles = inst.roles["slice_ccc"]
        l = inst.functor(roles["base"])
        probes = [inst.sliced_obj(x) for x in roles["probes"]]
        for an, bn in roles["pairs"]:
            rep = verify_slice_ccc(l, inst.sliced_obj(an), inst.sliced_obj(bn), probes)
            assert rep.passed, (name, an, bn, [c.name for c in rep.failures()])


def test_non_slice_morphism_is_excluded_from_hom_sets():
    inst = bundled_instance("iso")
    p, b = inst.sliced_obj("PS"), inst.sliced_obj("B")
    # a transformation that breaks the structure maps: send p0 (over l0) to c1 (over l1)
    t = FinNatTrans(p.total, b.total,
                    {"a": {"p0": "c1", "p1": "c0"}, "b": {"q0": "d1", "q1": "d0"}})
    assert not is_slice_morphism(t, p, b)
    homs = {h.canonical() for h in enumerate_slice_morphisms(p, b)}
    assert t.canonical() not in homs
    straight = FinNatTrans(p.total, b.total,
                           {"a": {"p0": "c0", "p1": "c1"}, "b": {"q0": "d0", "q1": "d1"}})
    assert is_slice_morphism(straight, p, b)
    assert straight.canonical() in homs


def filtered_slice_morphisms(a, b):
    """The definition: every transformation of the totals that commutes with the structures."""
    return [t.canonical() for t in enumerate_nat_trans(a.total, b.total)
            if is_slice_morphism(t, a, b)]


def sliced_objects(inst):
    """The instance's sliced objects and two built from them over the same base."""
    a, b = inst.sliced_obj("A"), inst.sliced_obj("B")
    fp, _, _ = fibered_product(a, b)
    return list(inst.sliced.values()) + [fp, slice_exponential(a.base, b, b)]


@pytest.mark.parametrize("name", ["terminal", "arrow", "iso", "idem"])
def test_fiber_search_yields_the_filtered_enumeration_in_order(name):
    inst = bundled_instance(name)
    cut = 0
    for a, b in itertools.product(sliced_objects(inst), repeat=2):
        got = [t.canonical() for t in enumerate_slice_morphisms(a, b)]
        want = filtered_slice_morphisms(a, b)
        assert got == want, (name, a.name, b.name)
        cut += len(list(enumerate_nat_trans(a.total, b.total))) - len(want)
    assert cut > 0


def test_slice_search_bound_counts_the_raw_space():
    inst = bundled_instance("iso")
    a, b = inst.sliced_obj("A"), inst.sliced_obj("B")
    space = math.prod(len(b.total.at(c)) ** len(a.total.at(c)) for c in inst.cat.objects)
    homs = list(enumerate_slice_morphisms(a, b, max_enum=space))
    assert 0 < len(homs) < space
    with pytest.raises(SizeLimit, match="search space %d exceeds bound %d" % (space, space - 1)):
        next(enumerate_slice_morphisms(a, b, max_enum=space - 1))


# -- the compatible-part functor --------------------------------------------


def test_sliced_T_identity_data_is_identity():
    inst = bundled_instance("iso")
    a = inst.sliced_obj("A")
    t = sliced_T(inst.endo("id"), a)
    assert equal_functors(t.total, a.total)
    for c in inst.cat.objects:
        for x in t.total.at(c):
            assert t.point(c, x) == a.point(c, x)


def test_sliced_T_over_terminal_base_is_precomposition():
    inst = bundled_instance("iso")
    g = inst.endo("swap")
    at = inst.functor("At")
    a = over_terminal(at)
    t = sliced_T(g, a)
    assert equal_functors(t.total, precompose(g, at))


def test_sliced_T_matches_subset_filter_oracle():
    inst = bundled_instance("iso")
    g = inst.endo("swap")
    a = inst.sliced_obj("A")
    t = sliced_T(g, a)
    l = a.base
    cat = inst.cat
    fun = g.functor
    for v in cat.objects:
        gv = fun.obj(v)
        proj = l.map(g.to_id.at(v))
        incl = l.map(g.from_id.at(v))
        oracle = [x for x in a.total.at(gv)
                  if a.point(gv, x) == incl[proj[a.point(gv, x)]]]
        assert list(t.total.at(v)) == oracle


def test_sliced_alpha_restricts_the_action():
    inst = bundled_instance("iso")
    g, ident = inst.endo("swap"), inst.endo("id")
    eta = inst.family("collapse")
    a = inst.sliced_obj("A")
    trans, t1, t2 = sliced_alpha(g, ident, eta, a)
    for c in inst.cat.objects:
        for x in t1.total.at(c):
            assert trans.apply(c, x) in set(t2.total.at(c))


# -- flattening --------------------------------------------------------------


def identity_to_anchor(a):
    return FinNatTrans(a.total, a.total,
                       {c: {x: x for x in a.total.at(c)} for c in a.total.cat.objects})


def test_flatten_round_trips():
    inst = bundled_instance("iso")
    a = inst.sliced_obj("A")
    it = IteratedSliceObject(a, identity_to_anchor(a))
    flat = flatten_to(a, it)
    back = flatten_from(a, flat)
    assert back.over_base.total is it.over_base.total
    assert back.to_anchor.components == it.to_anchor.components
    assert back.over_base.structure.components == it.over_base.structure.components


def test_wrong_structure_map_is_rejected_as_iterated_object():
    inst = bundled_instance("iso")
    a = inst.sliced_obj("A")
    b = inst.sliced_obj("B")
    # a map B.total -> A.total that does not commute with the structures
    bad = FinNatTrans(b.total, a.total,
                      {"a": {"c0": "a2", "c1": "a0"}, "b": {"d0": "b2", "d1": "b0"}})
    it = IteratedSliceObject(b, bad)
    rep = is_iterated_object(a, it)
    assert not rep.passed


def test_verify_flatten_hom_sets():
    for name in ("arrow", "iso"):
        inst = bundled_instance(name)
        a = inst.sliced_obj("A")
        from weilad.fincat import fibered_product

        fp, pr1, _ = fibered_product(a, a)
        instances = [
            IteratedSliceObject(a, identity_to_anchor(a)),
            IteratedSliceObject(fp, pr1),
        ]
        rep = verify_flatten(a, instances)
        assert rep.passed, (name, [c.name for c in rep.failures()])

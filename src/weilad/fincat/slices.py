"""Slice-category constructions: fiberwise exponentials, the equalizer-cut
tangent-style functor, and the flattening of an iterated slice.

A sliced object is a functor with a chosen map to a base functor; limits in
the slice happen fiberwise over base points.  The slice exponential pairs a
base point with a family of fiber maps, one per arrow out of the stage
object, under the same compatibility equations as the plain exponential but
restricted to the fibers selected by transporting the base point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NonNatural
from ..report import Report
from .core import (
    EndofunctorData,
    FinFunctor,
    FinNatTrans,
    NatFamily,
    SlicedObject,
    compose_nat_trans,
    enumerate_slice_morphisms,
    is_slice_morphism,
    label_key,
    resolve_max_enum,
    validate_nat_trans,
)
from .exponential import _compatible_families, _reindex
from .limits import fibered_product


def _fiber_pairs(fiber, images):
    return tuple(sorted(zip(fiber, images), key=lambda kv: label_key(kv[0])))


def slice_exponential(l: FinFunctor, a: SlicedObject, b: SlicedObject, max_enum=None) -> SlicedObject:
    """The exponential of ``a`` by ``b`` within the slice over ``l``.

    An element at W is a pair (base point, family); the family assigns to
    each arrow out of W a map between the fibers of b and a over the
    transported base point, compatible along composable pairs.  The
    structure map forgets the family; arrows act by reindexing.  With a
    terminal base this collapses, pair by pair, to the plain exponential.
    """
    cat = l.cat
    bound = resolve_max_enum(max_enum)

    on_objects = {}
    for w in cat.objects:
        arrs = cat.sorted_arrows_from(w)
        elems = []
        for point in l.at(w):
            fib_b = {ar: b.fiber(cat.cod(ar), l.apply(ar, point)) for ar in arrs}
            fib_a = {ar: a.fiber(cat.cod(ar), l.apply(ar, point)) for ar in arrs}
            overflow = "slice-exponential candidates at %s exceed bound %d" % (w, bound)
            for fam in _compatible_families(cat, arrs, fib_b, fib_a, b.total, a.total,
                                            bound, overflow):
                elems.append(
                    (point, tuple((ar, _fiber_pairs(fib_b[ar], images))
                                  for ar, images in zip(arrs, fam)))
                )
        on_objects[w] = tuple(elems)

    element_sets = {w: set(v) for w, v in on_objects.items()}
    on_morphisms = {}
    for ar in cat.arrows:
        table = {}
        for point, fam in on_objects[ar.dom]:
            image = (l.apply(ar.name, point), _reindex(cat, ar.name, fam))
            if image not in element_sets[ar.cod]:
                raise NonNatural(
                    "reindexed fiber family escapes the slice exponential",
                    witness={"arrow": ar.name, "element": (point, fam)},
                )
            table[(point, fam)] = image
        on_morphisms[ar.name] = table

    total = FinFunctor(cat, on_objects, on_morphisms, "(%s)^(%s)|%s" % (a.name, b.name, l.name))
    structure = FinNatTrans(
        total,
        l,
        {c: {el: el[0] for el in total.at(c)} for c in cat.objects},
        "exp-structure",
    )
    return SlicedObject(total, structure, total.name)


def curry_slice(t: FinNatTrans, p: SlicedObject, b: SlicedObject, exp: SlicedObject) -> FinNatTrans:
    """Turn a slice map (P x_L B) -> A into P -> (A^B)_L fiberwise."""
    cat = p.total.cat
    l = p.base
    comps = {}
    for w in cat.objects:
        arrs = cat.sorted_arrows_from(w)
        table = {}
        for pt in p.total.at(w):
            point = p.point(w, pt)
            fam = []
            for ar in arrs:
                cod = cat.cod(ar)
                moved = p.total.apply(ar, pt)
                fiber = b.fiber(cod, l.apply(ar, point))
                fam.append((ar, _fiber_pairs(fiber, [t.apply(cod, (moved, bx)) for bx in fiber])))
            table[pt] = (point, tuple(fam))
        comps[w] = table
    return FinNatTrans(p.total, exp.total, comps, "curry(%s)" % t.name)


def verify_slice_ccc(l, a, b, probes, probe_morphisms=(), max_enum=None) -> Report:
    """The currying bijection for the slice exponential, via slice hom-sets.

    Hom-sets are sets of slice morphisms (transformations commuting with the
    structure maps); the product is replaced by the fibered product over the
    base.  Per-probe counts are recorded in the report data in the same
    shape as the plain verifier so the terminal-base degeneration can be
    compared entry for entry.
    """
    rep = Report("slice currying (%s)^(%s) over %s" % (a.name, b.name, l.name))
    exp = slice_exponential(l, a, b, max_enum)
    exp_sets = {c: set(exp.total.at(c)) for c in l.cat.objects}
    rep.merge(validate_nat_trans(exp.structure, "exponential structure"))

    for pi, p in enumerate(probes):
        pname = p.name or "probe%d" % pi
        pb, _, _ = fibered_product(p, b)
        hom_uncurried = [
            t for t in enumerate_slice_morphisms(pb, a, max_enum)
        ]
        hom_curried = [t for t in enumerate_slice_morphisms(p, exp, max_enum)]

        curried = [curry_slice(t, p, b, exp) for t in hom_uncurried]
        rep.add_first("%s: curried maps land in the slice exponential" % pname, (
            {"probe": pname, "object": c, "value": x}
            for ct in curried for c in l.cat.objects
            for x in ct.components[c].values() if x not in exp_sets[c]
        ))
        rep.add_first("%s: curried maps respect the structure maps" % pname, (
            {"probe": pname} for ct in curried if not is_slice_morphism(ct, p, exp)
        ))

        canon_a = {ct.canonical() for ct in curried}
        canon_b = {t.canonical() for t in hom_curried}
        rep.add(
            "%s: currying is injective" % pname,
            len(canon_a) == len(hom_uncurried),
            {"distinct": len(canon_a), "maps": len(hom_uncurried)},
        )
        rep.add(
            "%s: currying is onto" % pname,
            canon_a == canon_b,
            {"missing": len(canon_b - canon_a), "extra": len(canon_a - canon_b)},
        )
        rep.data[pname] = {
            "hom_uncurried": len(hom_uncurried),
            "hom_curried": len(hom_curried),
            "bijective": len(canon_a) == len(hom_uncurried) and canon_a == canon_b,
        }

    for ui, u in enumerate(probe_morphisms):
        rep.add(
            "probe morphism %d is a slice morphism" % ui,
            is_slice_morphism(u, _sliced_probe(u.source, probes), _sliced_probe(u.target, probes)),
        )
    return rep


def _sliced_probe(total: FinFunctor, probes):
    for p in probes:
        if p.total is total:
            return p
    raise NonNatural("probe morphism endpoints must be among the probes")


# ---------------------------------------------------------------------------
# the equalizer-cut functor on a slice


def sliced_T(g: EndofunctorData, a: SlicedObject) -> SlicedObject:
    """Restrict precomposition-by-g to the part compatible with the base.

    At stage V the elements are those x in total(a) at g(V) whose base point
    survives the round trip through the projection/inclusion pair of ``g``;
    the structure map projects the base point down to stage V.  With the
    identity data this is the identity; over a terminal base the condition
    is vacuous and plain precomposition remains.
    """
    cat = a.total.cat
    fun = g.functor
    l = a.base

    on_objects = {}
    structure_comps = {}
    for v in cat.objects:
        gv = fun.obj(v)
        proj = l.map(g.to_id.at(v))
        incl = l.map(g.from_id.at(v))
        elems = []
        struct_table = {}
        for x in a.total.at(gv):
            pt = a.point(gv, x)
            if pt == incl[proj[pt]]:
                elems.append(x)
                struct_table[x] = proj[pt]
        on_objects[v] = tuple(elems)
        structure_comps[v] = struct_table

    element_sets = {v: set(e) for v, e in on_objects.items()}
    on_morphisms = {}
    for ar in cat.arrows:
        table = {}
        action = a.total.map(fun.mor(ar.name))
        for x in on_objects[ar.dom]:
            y = action[x]
            if y not in element_sets[ar.cod]:
                raise NonNatural(
                    "restricted action escapes the compatible part",
                    witness={"arrow": ar.name, "element": x},
                )
            table[x] = y
        on_morphisms[ar.name] = table

    total = FinFunctor(cat, on_objects, on_morphisms, "T[%s](%s)" % (g.name or "G", a.name))
    structure = FinNatTrans(total, l, structure_comps, "T-structure")
    return SlicedObject(total, structure, total.name)


def sliced_T_morphism(g: EndofunctorData, a: SlicedObject, b: SlicedObject,
                      f: FinNatTrans) -> FinNatTrans:
    """The unique restriction of a slice morphism through the compatible parts."""
    ta = sliced_T(g, a)
    tb = sliced_T(g, b)
    cat = a.total.cat
    fun = g.functor
    comps = {}
    for v in cat.objects:
        gv = fun.obj(v)
        table = {}
        allowed = set(tb.total.at(v))
        for x in ta.total.at(v):
            y = f.apply(gv, x)
            if y not in allowed:
                raise NonNatural(
                    "restriction does not stay compatible",
                    witness={"object": v, "element": x},
                )
            table[x] = y
        comps[v] = table
    return FinNatTrans(ta.total, tb.total, comps, "T(%s)" % f.name)


def sliced_alpha(g1: EndofunctorData, g2: EndofunctorData, eta: NatFamily, a: SlicedObject):
    """The transformation between the two compatible parts induced by eta.

    Returns (transformation, sliced_T(g1, a), sliced_T(g2, a)); components
    are the restrictions of total(a) applied to eta's components.
    """
    t1 = sliced_T(g1, a)
    t2 = sliced_T(g2, a)
    cat = a.total.cat
    comps = {}
    for v in cat.objects:
        table = {}
        action = a.total.map(eta.at(v))
        allowed = set(t2.total.at(v))
        for x in t1.total.at(v):
            y = action[x]
            if y not in allowed:
                raise NonNatural(
                    "induced component leaves the compatible part",
                    witness={"object": v, "element": x},
                )
            table[x] = y
        comps[v] = table
    return FinNatTrans(t1.total, t2.total, comps, "alpha[%s]" % eta.name), t1, t2


# ---------------------------------------------------------------------------
# flattening an iterated slice


@dataclass(frozen=True, eq=False)
class IteratedSliceObject:
    """An object of (slice over L) sliced again over an anchor A -> L."""

    over_base: SlicedObject
    to_anchor: FinNatTrans


def flatten_to(anchor: SlicedObject, it: IteratedSliceObject) -> SlicedObject:
    """Identify an iterated-slice object with an object over total(anchor)."""
    return SlicedObject(it.over_base.total, it.to_anchor, it.over_base.name)


def flatten_from(anchor: SlicedObject, flat: SlicedObject) -> IteratedSliceObject:
    """Inverse direction: recover the L-structure by composing with the anchor's."""
    over = SlicedObject(
        flat.total,
        compose_nat_trans(anchor.structure, flat.structure),
        flat.name,
    )
    return IteratedSliceObject(over, flat.structure)


def is_iterated_object(anchor: SlicedObject, it: IteratedSliceObject) -> Report:
    """Membership test: the map to the anchor must be a slice morphism over L."""
    rep = Report("iterated-slice membership")
    rep.merge(validate_nat_trans(it.to_anchor, "map to anchor"))
    rep.add_first("structure map factors through the anchor", (
        {"object": c, "element": x}
        for c in anchor.total.cat.objects for x in it.over_base.total.at(c)
        if anchor.point(c, it.to_anchor.apply(c, x)) != it.over_base.point(c, x)
    ))
    return rep


def verify_flatten(anchor: SlicedObject, instances, max_enum=None) -> Report:
    """Round trips and hom-set agreement for the slice-flattening identification."""
    rep = Report("slice flattening over %s" % (anchor.name or "anchor"))

    for idx, it in enumerate(instances):
        flat = flatten_to(anchor, it)
        back = flatten_from(anchor, flat)
        same = (
            back.over_base.total is it.over_base.total
            and back.to_anchor.components == it.to_anchor.components
            and back.over_base.structure.components == it.over_base.structure.components
        )
        rep.add("instance %d: object round trip is exact" % idx, same)
        rep.merge(is_iterated_object(anchor, it))

    for i, it1 in enumerate(instances):
        for j, it2 in enumerate(instances):
            flat1, flat2 = flatten_to(anchor, it1), flatten_to(anchor, it2)
            iterated_homs = {
                t.canonical()
                for t in enumerate_slice_morphisms(it1.over_base, it2.over_base, max_enum)
                if compose_nat_trans(it2.to_anchor, t).canonical() == it1.to_anchor.canonical()
            }
            flat_homs = {
                t.canonical() for t in enumerate_slice_morphisms(flat1, flat2, max_enum)
            }
            rep.add(
                "hom-sets (%d -> %d) agree under flattening" % (i, j),
                iterated_homs == flat_homs,
                {"iterated": len(iterated_homs), "flat": len(flat_homs)},
            )
    return rep

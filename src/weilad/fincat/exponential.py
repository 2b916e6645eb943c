"""Pointwise exponential objects and the brute-force currying verifier.

At an object W the exponential M^N collects the families that assign to each
arrow out of W a function N(cod) -> M(cod), subject to the compatibility
equations along composable pairs; the action of an arrow reindexes a family
by precomposition.  Equivalently (and this is how the verifier reads it),
such a family is exactly an element of the set of natural transformations
out of the representable-at-W product with N into M, which is why currying
against arbitrary probe functors must be a bijection.
"""

from __future__ import annotations

import itertools

from ..errors import NonNatural, SizeLimit
from ..report import Report
from .core import (
    FinFunctor,
    FinNatTrans,
    enumerate_nat_trans,
    resolve_max_enum,
    validate_functor,
)
from .limits import product


def exponential(m: FinFunctor, n: FinFunctor, max_enum=None) -> FinFunctor:
    """The functor of compatible function families, built by bounded search.

    An element at W is a tuple of (arrow, images) pairs over the sorted
    arrows out of W; ``images[k]`` is where the k-th element of N(cod arrow)
    goes.  The search is depth-first over arrows with the compatibility
    equations checked as soon as both participating components are assigned;
    the raw candidate count is bounded up front and overflow raises
    SizeLimit instead of truncating.
    """
    cat = m.cat
    bound = resolve_max_enum(max_enum)

    on_objects = {}
    for w in cat.objects:
        arrs = cat.sorted_arrows_from(w)
        dom = {a: n.at(cat.cod(a)) for a in arrs}
        cod = {a: m.at(cat.cod(a)) for a in arrs}
        overflow = "exponential candidate count at %s exceeds bound %d" % (w, bound)
        families = _compatible_families(cat, arrs, dom, cod, n, m, bound, overflow)
        on_objects[w] = tuple(tuple(zip(arrs, fam)) for fam in families)

    element_sets = {w: set(v) for w, v in on_objects.items()}
    on_morphisms = {}
    for ar in cat.arrows:
        table = {}
        for s in on_objects[ar.dom]:
            image = _reindex(cat, ar.name, s)
            if image not in element_sets[ar.cod]:
                raise NonNatural(
                    "reindexed family escapes the exponential",
                    witness={"arrow": ar.name, "element": s},
                )
            table[s] = image
        on_morphisms[ar.name] = table

    return FinFunctor(cat, on_objects, on_morphisms, "(%s)^(%s)" % (m.name, n.name))


def _compatible_families(cat, arrs, dom, cod, n, m, bound, overflow) -> list:
    """Every family of maps ``dom[a] -> cod[a]``, one per arrow of ``arrs``,
    with ``m(phi2) . s[phi1] = s[phi2 . phi1] . n(phi2)`` for composable pairs.

    The functor ``n`` acts on domain elements and ``m`` on codomain elements;
    both the plain and the slice exponential reduce to this search.  A
    family is a tuple of image tuples aligned with ``arrs``; ``images[k]`` is
    where ``dom[a][k]`` goes.  The search is depth-first in the order of
    ``arrs``, each equation checked as soon as both of its arrows are
    assigned.  An arrow with a nonempty domain and an empty codomain admits
    no family; otherwise the raw candidate count is bounded first and
    overflow raises SizeLimit with the ``overflow`` message.
    """
    total = 1
    for a in arrs:
        if dom[a] and not cod[a]:
            return []
        total *= max(1, len(cod[a])) ** len(dom[a])
        if total > bound:
            raise SizeLimit(overflow)

    pos = {a: i for i, a in enumerate(arrs)}
    index = {a: {x: k for k, x in enumerate(dom[a])} for a in arrs}
    by_level = [[] for _ in arrs]
    for phi1 in arrs:
        for phi2 in cat.arrows_from(cat.cod(phi1)):
            phi21 = cat.compose(phi2, phi1)
            by_level[max(pos[phi1], pos[phi21])].append((phi1, n.map(phi2), m.map(phi2), phi21))

    found = []
    assign: dict = {}

    def holds(level) -> bool:
        for phi1, n_phi2, m_phi2, phi21 in by_level[level]:
            s21, idx21 = assign[phi21], index[phi21]
            for x, y in zip(dom[phi1], assign[phi1]):
                if m_phi2[y] != s21[idx21[n_phi2[x]]]:
                    return False
        return True

    def extend(i):
        if i == len(arrs):
            found.append(tuple(assign[a] for a in arrs))
            return
        a = arrs[i]
        for images in itertools.product(cod[a], repeat=len(dom[a])):
            assign[a] = images
            if holds(i):
                extend(i + 1)
        del assign[a]

    extend(0)
    return found


def _reindex(cat, arrow: str, family: tuple) -> tuple:
    """Precompose a family over the arrows out of dom(arrow) with ``arrow``."""
    lookup = dict(family)
    return tuple((a, lookup[cat.compose(a, arrow)]) for a in cat.sorted_arrows_from(cat.cod(arrow)))


def curry_transform(t: FinNatTrans, p: FinFunctor, n: FinFunctor, exp: FinFunctor) -> FinNatTrans:
    """Turn t: P x N => M into P => M^N by partial application along each arrow."""
    cat = p.cat
    comps = {}
    for w in cat.objects:
        arrs = cat.sorted_arrows_from(w)
        table = {}
        for pt in p.at(w):
            fam = []
            for a in arrs:
                cod = cat.cod(a)
                moved = p.apply(a, pt)
                fam.append((a, tuple(t.apply(cod, (moved, x)) for x in n.at(cod))))
            table[pt] = tuple(fam)
        comps[w] = table
    return FinNatTrans(p, exp, comps, "curry(%s)" % t.name)


def verify_ccc(m, n, probes, probe_morphisms=(), max_enum=None) -> Report:
    """Check the currying bijection of the exponential against brute force.

    For every probe P, all transformations P x N => M and P => M^N are
    enumerated outright and the constructed currying map is checked to be a
    bijection between them; supplied transformations between probes are used
    to check that currying is natural in the probe.  Counts per probe land
    in the report data so independent runs can be compared verbatim.
    """
    rep = Report("currying (%s)^(%s)" % (m.name, n.name))
    exp = exponential(m, n, max_enum)
    rep.merge(validate_functor(exp, "exponential"))
    exp_sets = {c: set(exp.at(c)) for c in m.cat.objects}

    curried_by_probe = {}
    for pi, p in enumerate(probes):
        pname = p.name or "probe%d" % pi
        pn, _, _ = product(p, n)
        hom_uncurried = list(enumerate_nat_trans(pn, m, max_enum))
        hom_curried = list(enumerate_nat_trans(p, exp, max_enum))

        curried = [curry_transform(t, p, n, exp) for t in hom_uncurried]
        rep.add_first("%s: curried maps land in the exponential" % pname, (
            {"probe": pname, "object": c, "family": x}
            for ct in curried for c in m.cat.objects
            for x in ct.components[c].values() if x not in exp_sets[c]
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
        curried_by_probe[id(p)] = (hom_uncurried, curried)

    for ui, u in enumerate(probe_morphisms):
        src, tgt = u.source, u.target
        if id(tgt) not in curried_by_probe:
            continue
        hom_tgt, curried_tgt = curried_by_probe[id(tgt)]

        def unnatural():
            pn_src, _, _ = product(src, n)
            for t, curried_t in zip(hom_tgt, curried_tgt):
                pulled_comps = {
                    c: {
                        (x, y): t.apply(c, (u.apply(c, x), y))
                        for x in src.at(c)
                        for y in n.at(c)
                    }
                    for c in m.cat.objects
                }
                pulled = FinNatTrans(pn_src, m, pulled_comps)
                left = curry_transform(pulled, src, n, exp).canonical()
                right = _compose_then_canonical(curried_t, u)
                if left != right:
                    yield {"probe_morphism": ui, "transform": t.canonical()}

        rep.add_first("currying is natural along probe morphism %d" % ui, unnatural())

    return rep


def _compose_then_canonical(curried: FinNatTrans, u: FinNatTrans):
    comps = {
        c: {x: curried.apply(c, u.apply(c, x)) for x in u.source.at(c)}
        for c in u.source.cat.objects
    }
    return FinNatTrans(u.source, curried.target, comps).canonical()

"""Precomposition endofunctors, their induced transformations, and the
comparison checks that relate them to exponentials and slices.

``precompose(G, M) = M o G`` is the finite stand-in for applying a Weil
functor to an object; a natural family eta between two endofunctors induces
``alpha_of(eta, M)`` with components M(eta_c).  The checks in this module
construct the canonical comparison morphisms explicitly and report whether
they are isomorphisms and whether the two induced composite maps agree,
instance by instance, with witnesses on failure.
"""

from __future__ import annotations

from ..errors import NonNatural
from ..report import Report
from .core import (
    EndofunctorData,
    FinEndofunctor,
    FinFunctor,
    FinNatTrans,
    NatFamily,
    SlicedObject,
    identity_nat_family,
    validate_nat_family,
)
from .exponential import exponential
from .limits import fibered_product, product
from .slices import (
    IteratedSliceObject,
    flatten_to,
    slice_exponential,
    sliced_T,
    sliced_T_morphism,
    sliced_alpha,
    verify_flatten,
)


def _functor_of(g):
    return g.functor if isinstance(g, EndofunctorData) else g


def precompose(g, m: FinFunctor) -> FinFunctor:
    """M o G: evaluate M after transporting stages through the endofunctor."""
    fun = _functor_of(g)
    on_objects = {c: m.at(fun.obj(c)) for c in m.cat.objects}
    on_morphisms = {a.name: dict(m.map(fun.mor(a.name))) for a in m.cat.arrows}
    return FinFunctor(m.cat, on_objects, on_morphisms, "%s.%s" % (m.name, fun.name or "G"))


def compose_endofunctors(outer: FinEndofunctor, inner: FinEndofunctor) -> FinEndofunctor:
    """outer o inner; note precompose(G2, precompose(G1, M)) = precompose(G1 o G2, M)."""
    return FinEndofunctor(
        outer.cat,
        {c: outer.obj(inner.obj(c)) for c in outer.cat.objects},
        {a.name: outer.mor(inner.mor(a.name)) for a in outer.cat.arrows},
        "%s.%s" % (outer.name, inner.name),
    )


def whisker(g, t: FinNatTrans) -> FinNatTrans:
    """Restrict a transformation along an endofunctor: component at c is t at G(c)."""
    fun = _functor_of(g)
    comps = {c: dict(t.at(fun.obj(c))) for c in t.source.cat.objects}
    return FinNatTrans(precompose(fun, t.source), precompose(fun, t.target), comps,
                       "%s.%s" % (t.name, fun.name or "G"))


def alpha_of(eta: NatFamily, m: FinFunctor) -> FinNatTrans:
    """The transformation M o G1 => M o G2 with components M(eta_c).

    eta must be a natural family; a defective one raises NonNatural with the
    square that fails.
    """
    rep = validate_nat_family(eta)
    if not rep.passed:
        raise NonNatural(
            "family %s is not natural" % (eta.name or "?"),
            witness=[c.witness for c in rep.failures()],
        )
    comps = {c: dict(m.map(eta.at(c))) for c in m.cat.objects}
    return FinNatTrans(
        precompose(eta.source, m),
        precompose(eta.target, m),
        comps,
        "alpha[%s](%s)" % (eta.name, m.name),
    )


def validate_connecting(eta: NatFamily, g1: EndofunctorData, g2: EndofunctorData) -> Report:
    """A family standing in for an algebra morphism must respect both canonical pairs."""
    rep = Report("connecting family %s" % (eta.name or "?"))
    rep.merge(validate_nat_family(eta))
    cat = eta.source.cat

    def bad_endpoints():
        for c in cat.objects:
            comp = eta.components.get(c)
            if (comp is None or comp not in cat._by_name
                    or cat.dom(comp) != g1.functor.obj(c) or cat.cod(comp) != g2.functor.obj(c)):
                yield {"object": c}

    if not rep.add_first("components run from the first endofunctor to the second",
                         bad_endpoints()):
        return rep

    rep.add_first("projection after the family is the source projection", (
        {"object": c} for c in cat.objects
        if cat.comp.get((g2.to_id.at(c), eta.at(c))) != g1.to_id.at(c)
    ))
    rep.add_first("family after the source inclusion is the target inclusion", (
        {"object": c} for c in cat.objects
        if cat.comp.get((eta.at(c), g1.from_id.at(c))) != g2.from_id.at(c)
    ))
    return rep


# ---------------------------------------------------------------------------
# exponential comparison


def comparison_components(g: EndofunctorData, m, n, exp: FinFunctor):
    """kappa: (M^N) o G => (M o G)^(N o G), reindexing each family along G."""
    cat = m.cat
    fun = g.functor
    comps = {}
    for c in cat.objects:
        table = {}
        arrs = cat.sorted_arrows_from(c)
        for s in exp.at(fun.obj(c)):
            lookup = dict(s)
            table[s] = tuple((psi, lookup[fun.mor(psi)]) for psi in arrs)
        comps[c] = table
    return comps


def exp_compat_check(g: EndofunctorData, m: FinFunctor, n: FinFunctor,
                     second=None, max_enum=None) -> Report:
    """Compare precomposition with exponentiation.

    Builds the canonical comparison from (M^N) o G to (M o G)^(N o G) and
    reports whether it is an isomorphism (bijective components plus
    naturality).  When ``second = (g2, eta)`` is supplied, the two composite
    maps induced by eta out of (M^N) o G1 are computed independently and
    compared pointwise.
    """
    cat = m.cat
    rep = Report("exponential compatibility along %s" % (g.name or "G"))
    exp = exponential(m, n, max_enum)
    mg, ng = precompose(g, m), precompose(g, n)
    exp_g = exponential(mg, ng, max_enum)
    kappa = comparison_components(g, m, n, exp)
    targets = {c: set(exp_g.at(c)) for c in cat.objects}

    lands = rep.add_first("comparison lands in the target exponential", (
        {"object": c, "element": s}
        for c in cat.objects for s, img in kappa[c].items() if img not in targets[c]
    ))

    def non_bijective():
        for c in cat.objects:
            images = set(kappa[c].values())
            if len(images) != len(kappa[c]) or images != targets[c]:
                yield {
                    "object": c,
                    "source": len(kappa[c]),
                    "distinct_images": len(images),
                    "target": len(exp_g.at(c)),
                }

    iso = rep.add_first("comparison is bijective at every object", non_bijective())

    exp_of_g = precompose(g, exp)
    rep.add_first("comparison is natural", (
        {"arrow": ar.name, "element": s}
        for ar in cat.arrows for s in exp_of_g.at(ar.dom)
        if kappa[ar.cod][exp_of_g.apply(ar.name, s)] != exp_g.apply(ar.name, kappa[ar.dom][s])
    ))
    rep.data["iso"] = iso and lands
    rep.data["sizes"] = {c: len(exp_g.at(c)) for c in cat.objects}

    if second is not None:
        g2, eta = second
        connecting = validate_connecting(eta, g, g2)
        rep.merge(connecting)
        if not connecting.passed:
            rep.add("the two induced composites agree", False,
                    {"skipped": "connecting family invalid"})
            return rep
        fun1, fun2 = g.functor, g2.functor

        def disagreements():
            for c in cat.objects:
                arrs = cat.sorted_arrows_from(c)
                for s in exp.at(fun1.obj(c)):
                    lookup = dict(s)
                    path_a = []
                    for psi in arrs:
                        d = cat.cod(psi)
                        m_eta = m.map(eta.at(d))
                        path_a.append((psi, tuple(m_eta[v] for v in lookup[fun1.mor(psi)])))
                    s2 = exp.map(eta.at(c))[s]
                    lookup2 = dict(s2)
                    path_b = []
                    for psi in arrs:
                        d = cat.cod(psi)
                        n_eta = n.map(eta.at(d))
                        entry2 = lookup2[fun2.mor(psi)]
                        idx2 = {x: i for i, x in enumerate(n.at(fun2.obj(d)))}
                        path_b.append(
                            (psi, tuple(entry2[idx2[n_eta[x]]] for x in n.at(fun1.obj(d))))
                        )
                    if path_a != path_b:
                        yield {"object": c, "element": s}

        rep.add_first("the two induced composites agree", disagreements())
    return rep


def exp_compat_check_slice(g: EndofunctorData, l: FinFunctor, a: SlicedObject,
                           b: SlicedObject, second=None, max_enum=None) -> Report:
    """Slice form of the exponential comparison, fiberwise over the base."""
    cat = l.cat
    rep = Report("slice exponential compatibility along %s" % (g.name or "G"))
    exp_l = slice_exponential(l, a, b, max_enum)
    t_exp = sliced_T(g, exp_l)
    ta, tb = sliced_T(g, a), sliced_T(g, b)
    exp_t = slice_exponential(l, ta, tb, max_enum)
    fun = g.functor

    def kappa_at(c, elem):
        point, fam = elem
        lookup = dict(fam)
        moved = l.map(g.to_id.at(c))[point]
        return (moved, tuple((psi, lookup[fun.mor(psi)]) for psi in cat.sorted_arrows_from(c)))

    images = {c: [kappa_at(c, e) for e in t_exp.total.at(c)] for c in cat.objects}
    targets = {c: set(exp_t.total.at(c)) for c in cat.objects}
    lands = rep.add_first("slice comparison lands in the target", (
        {"object": c, "value": img}
        for c in cat.objects for img in images[c] if img not in targets[c]
    ))
    bij_ok = all(len(set(images[c])) == len(images[c]) and set(images[c]) == targets[c]
                 for c in cat.objects)
    rep.add("slice comparison is bijective at every object", bij_ok,
            {"sizes": {c: (len(t_exp.total.at(c)), len(exp_t.total.at(c))) for c in cat.objects}})

    rep.add_first("slice comparison is natural", (
        {"arrow": ar.name, "element": e}
        for ar in cat.arrows for e in t_exp.total.at(ar.dom)
        if kappa_at(ar.cod, t_exp.total.apply(ar.name, e))
        != exp_t.total.apply(ar.name, kappa_at(ar.dom, e))
    ))
    struct_ok = rep.add_first("slice comparison respects the structure maps", (
        {"object": c, "element": e}
        for c in cat.objects for e in t_exp.total.at(c)
        if exp_t.point(c, kappa_at(c, e)) != t_exp.point(c, e)
    ))
    rep.data["iso"] = bij_ok and lands and struct_ok

    if second is not None:
        g2, eta = second
        connecting = validate_connecting(eta, g, g2)
        rep.merge(connecting)
        if not connecting.passed:
            rep.add("the two induced slice composites agree", False,
                    {"skipped": "connecting family invalid"})
            return rep
        t_exp2 = sliced_T(g2, exp_l)
        fun2 = g2.functor

        def disagreements():
            for c in cat.objects:
                arrs = cat.sorted_arrows_from(c)
                for e in t_exp.total.at(c):
                    point, fam = e
                    lookup = dict(fam)
                    path_a = []
                    for psi in arrs:
                        d = cat.cod(psi)
                        act = a.total.map(eta.at(d))
                        path_a.append(
                            (psi, tuple((bx, act[ax]) for bx, ax in lookup[fun.mor(psi)]))
                        )
                    e2 = exp_l.total.map(eta.at(c))[e]
                    if e2 not in set(t_exp2.total.at(c)):
                        yield {"object": c, "element": e, "stage": "transport"}
                        continue
                    _, fam2 = e2
                    lookup2 = dict(fam2)
                    path_b = []
                    for psi in arrs:
                        d = cat.cod(psi)
                        b_eta = b.total.map(eta.at(d))
                        entry2 = dict(lookup2[fun2.mor(psi)])
                        source_pairs = lookup[fun.mor(psi)]
                        path_b.append(
                            (psi, tuple((bx, entry2[b_eta[bx]]) for bx, _ in source_pairs))
                        )
                    if path_a != path_b:
                        yield {"object": c, "element": e}

        rep.add_first("the two induced slice composites agree", disagreements())
    return rep


# ---------------------------------------------------------------------------
# localization


def localization_check(g: EndofunctorData, a: SlicedObject, r: FinFunctor,
                       second=None, max_enum=None) -> Report:
    """Slicing the sliced structure lands where slicing over the total does.

    Sub-reports: (1) the flattening identification round-trips objects and
    hom-sets; (2) the compatible-part functor computed inside the iterated
    slice and transported down equals the one computed over the total
    directly; (3) the same for the transformation induced by a connecting
    family; (4) the fibered product against (base x R) is the plain product
    against R.
    """
    cat = a.total.cat
    l = a.base
    rep = Report("localization over %s" % (a.name or "anchor"))
    if second is None:
        second = (g, identity_nat_family(g.functor))
    g2, eta = second
    # Fact 3 transports along eta, so an invalid family fails it; a valid
    # one adds no checks, which keeps passing reports as they were.
    connecting = validate_connecting(eta, g, g2)
    if not connecting.passed:
        rep.merge(connecting)

    fp_aa, proj1, _ = fibered_product(a, a)
    instances = [
        IteratedSliceObject(a, _identity_trans(a)),
        IteratedSliceObject(fp_aa, proj1),
    ]

    fact1 = verify_flatten(a, instances, max_enum)
    rep.merge(fact1)

    for idx, inst in enumerate(instances):
        flat = flatten_to(a, inst)
        rhs = sliced_T(g, flat)
        lhs_sets, lhs_struct, lhs_actions = _iterated_sliced_T(g, a, inst)
        tag = "fact 2 (instance %d)" % idx
        rep.add_first("%s: compatible parts agree" % tag, (
            {"object": v, "iterated": lhs_sets[v], "direct": rhs.total.at(v)}
            for v in cat.objects if lhs_sets[v] != rhs.total.at(v)
        ))
        rep.add_first("%s: structure maps agree" % tag, (
            {"object": v} for v in cat.objects
            if lhs_struct[v] != {x: rhs.point(v, x) for x in rhs.total.at(v)}
        ))
        rep.add_first("%s: actions agree" % tag, (
            {"arrow": ar.name} for ar in cat.arrows
            if lhs_actions[ar.name] != rhs.total.map(ar.name)
        ))

        fact3 = "fact 3 (instance %d): induced transformations agree" % idx
        if not connecting.passed:
            rep.add(fact3, False, {"skipped": "connecting family invalid"})
            continue
        alpha_base, _, _ = sliced_alpha(g, g2, eta, flat)
        lhs_sets2, _, _ = _iterated_sliced_T(g2, a, inst)

        def alpha_faults():
            for v in cat.objects:
                action = inst.over_base.total.map(eta.at(v))
                table = {x: action[x] for x in lhs_sets[v]}
                escaped = [x for x, y in table.items() if y not in set(lhs_sets2[v])]
                if escaped:
                    yield {"object": v, "element": escaped[0]}
                elif table != alpha_base.components[v]:
                    yield {"object": v}

        rep.add_first(fact3, alpha_faults())

    lr, _, _ = product(l, r)
    lr_sliced = SlicedObject(
        lr,
        FinNatTrans(lr, l, {c: {e: e[0] for e in lr.at(c)} for c in cat.objects}, "pr1"),
        "%sx%s" % (l.name, r.name),
    )
    fp, _, _ = fibered_product(a, lr_sliced)
    mr, _, _ = product(a.total, r)

    def forget_base(e):
        return e[0], e[1][1]

    def non_bijective():
        for c in cat.objects:
            forward = {e: forget_base(e) for e in fp.total.at(c)}
            images = set(forward.values())
            if len(images) != len(forward) or images != set(mr.at(c)):
                yield {"object": c, "fp": len(forward), "product": len(mr.at(c))}

    rep.add_first("fact 4: fibered product against (base x R) is the product against R",
                  non_bijective())
    rep.add_first("fact 4: the identification commutes with every action", (
        {"arrow": ar.name, "element": e}
        for ar in cat.arrows for e in fp.total.at(ar.dom)
        if forget_base(fp.total.apply(ar.name, e)) != mr.apply(ar.name, forget_base(e))
    ))
    return rep


def _identity_trans(a: SlicedObject) -> FinNatTrans:
    return FinNatTrans(
        a.total,
        a.total,
        {c: {x: x for x in a.total.at(c)} for c in a.total.cat.objects},
        "id",
    )


def _iterated_sliced_T(g: EndofunctorData, a: SlicedObject, inst: IteratedSliceObject):
    """The compatible part computed inside the iterated slice, then flattened.

    Returns (element tuples, structure tables to total(a), action tables);
    elements carry both the base-compatibility condition from the L-level
    construction and the equalizer condition against the anchor map.
    """
    cat = a.total.cat
    fun = g.functor
    b = inst.over_base
    q = inst.to_anchor

    t_b = sliced_T(g, b)
    t_a = sliced_T(g, a)
    t_q = sliced_T_morphism(g, b, a, q)

    sets = {}
    structs = {}
    for v in cat.objects:
        gv = fun.obj(v)
        proj = a.total.map(g.to_id.at(v))
        incl = a.total.map(g.from_id.at(v))
        elems = []
        table = {}
        for x in t_b.total.at(v):
            y = t_q.apply(v, x)
            if y == incl[proj[y]]:
                elems.append(x)
                table[x] = proj[y]
        sets[v] = tuple(elems)
        structs[v] = table

    actions = {}
    for ar in cat.arrows:
        tab = {}
        allowed = set(sets[ar.cod])
        for x in sets[ar.dom]:
            y = t_b.total.apply(ar.name, x)
            if y not in allowed:
                raise NonNatural(
                    "iterated compatible part is not closed under the action",
                    witness={"arrow": ar.name, "element": x},
                )
            tab[x] = y
        actions[ar.name] = tab
    return sets, structs, actions

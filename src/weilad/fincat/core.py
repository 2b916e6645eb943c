"""Finite categories, set-valued functors, natural transformations.

Everything is plain data: objects are string labels, arrows are named
triples, composition is a table, functors carry ordered element tuples and
function tables.  Computed constructions (products, exponentials, slices)
produce structured element labels; :func:`label_key` gives them a stable
total order so every enumeration and report is deterministic.

Validation never throws on a mathematical failure: each validator returns a
:class:`~weilad.report.Report` whose failed checks carry a witness.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

from ..errors import BadParameter, SizeLimit, WeilError
from ..report import Report

DEFAULT_MAX_ENUM = 10_000_000


def resolve_max_enum(value=None) -> int:
    """Explicit argument, else the WEILAD_MAX_ENUM environment variable, else the default.

    The bound must be a positive integer; anything else raises BadParameter.
    """
    if value is None:
        value = os.environ.get("WEILAD_MAX_ENUM") or DEFAULT_MAX_ENUM
    try:
        bound = int(value)
    except (TypeError, ValueError):
        raise BadParameter("enumeration bound must be an integer, got %r" % (value,)) from None
    if bound < 1:
        raise BadParameter("enumeration bound must be at least 1, got %d" % bound)
    return bound


def label_key(x):
    """Total order on element labels (strings, ints, nested tuples)."""
    if isinstance(x, bool):
        return ("b", x)
    if isinstance(x, int):
        return ("i", x)
    if isinstance(x, str):
        return ("s", x)
    if isinstance(x, tuple):
        return ("t", tuple(label_key(v) for v in x))
    if isinstance(x, frozenset):
        return ("f", tuple(sorted(label_key(v) for v in x)))
    return ("r", repr(x))


@dataclass(frozen=True)
class Arrow:
    name: str
    dom: str
    cod: str


@dataclass(frozen=True, eq=False)
class FinCat:
    name: str
    objects: tuple
    arrows: tuple
    identities: dict
    comp: dict
    _by_name: dict = field(default_factory=dict)
    _sorted_from: dict = field(default_factory=dict)

    def __post_init__(self):
        for a in self.arrows:
            self._by_name[a.name] = a
        for obj in self.objects:
            self._sorted_from[obj] = tuple(sorted(self.arrows_from(obj)))

    def arrow(self, name: str) -> Arrow:
        try:
            return self._by_name[name]
        except KeyError:
            raise WeilError("no arrow named %r in category %s" % (name, self.name)) from None

    def dom(self, name: str) -> str:
        return self.arrow(name).dom

    def cod(self, name: str) -> str:
        return self.arrow(name).cod

    def identity(self, obj: str) -> str:
        return self.identities[obj]

    def compose(self, g: str, f: str) -> str:
        """g after f.  Requires cod(f) == dom(g) and a table entry."""
        try:
            return self.comp[(g, f)]
        except KeyError:
            raise WeilError(
                "composite %s o %s missing from the table of %s" % (g, f, self.name)
            ) from None

    def arrows_from(self, obj: str) -> tuple:
        return tuple(a.name for a in self.arrows if a.dom == obj)

    def sorted_arrows_from(self, obj: str) -> tuple:
        """The arrows out of ``obj`` in name order: the index set of a family at ``obj``."""
        return self._sorted_from[obj]

    def arrows_between(self, dom: str, cod: str) -> tuple:
        return tuple(a.name for a in self.arrows if a.dom == dom and a.cod == cod)

    def composable_pairs(self):
        for f in self.arrows:
            for g in self.arrows:
                if g.dom == f.cod:
                    yield g.name, f.name

    def __repr__(self):
        return "FinCat(%s: %d objects, %d arrows)" % (self.name, len(self.objects), len(self.arrows))


def fincat(name, objects, arrows, identities, comp) -> FinCat:
    """Shape-check and freeze category data; the laws are checked by validate_category."""
    arrows = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
    names = [a.name for a in arrows]
    if len(set(names)) != len(names):
        raise WeilError("duplicate arrow names")
    objs = tuple(objects)
    for a in arrows:
        if a.dom not in objs or a.cod not in objs:
            raise WeilError("arrow %s has endpoints outside the object list" % a.name)
    return FinCat(name, objs, arrows, dict(identities), dict(comp))


def validate_category(cat: FinCat) -> Report:
    rep = Report("category %s" % cat.name)

    def bad_identities():
        for obj in cat.objects:
            ident = cat.identities.get(obj)
            if ident is None or ident not in cat._by_name:
                yield {"object": obj}
            elif cat.dom(ident) != obj or cat.cod(ident) != obj:
                yield {"object": obj, "identity": ident}

    if not rep.add_first("every object has an identity endo-arrow", bad_identities()):
        return rep

    def bad_composites():
        for g, f in cat.composable_pairs():
            got = cat.comp.get((g, f))
            if (got is None or got not in cat._by_name
                    or cat.dom(got) != cat.dom(f) or cat.cod(got) != cat.cod(g)):
                yield {"pair": (g, f), "entry": got}

    if not rep.add_first("composition table is total with correct endpoints", bad_composites()):
        return rep

    def bad_units():
        for f in cat.arrows:
            left = cat.comp.get((cat.identity(f.cod), f.name))
            right = cat.comp.get((f.name, cat.identity(f.dom)))
            if left != f.name or right != f.name:
                yield {"arrow": f.name, "left": left, "right": right}

    rep.add_first("identities are neutral", bad_units())

    def bad_triples():
        for g, f in cat.composable_pairs():
            for h in cat.arrows:
                if h.dom == cat.cod(g):
                    a = cat.comp.get((h.name, cat.comp[(g, f)]))
                    b = cat.comp.get((cat.comp[(h.name, g)], f))
                    if a != b:
                        yield {"triple": (h.name, g, f), "left": a, "right": b}

    rep.add_first("composition is associative", bad_triples())
    return rep


# ---------------------------------------------------------------------------
# set-valued functors


@dataclass(frozen=True, eq=False)
class FinFunctor:
    cat: FinCat
    on_objects: dict
    on_morphisms: dict
    name: str = ""

    def at(self, obj: str) -> tuple:
        return self.on_objects[obj]

    def map(self, arrow: str) -> dict:
        return self.on_morphisms[arrow]

    def apply(self, arrow: str, x):
        return self.on_morphisms[arrow][x]

    def __repr__(self):
        sizes = ",".join(str(len(self.at(c))) for c in self.cat.objects)
        return "FinFunctor(%s: %s)" % (self.name or "?", sizes)


def finfunctor(cat, on_objects, on_morphisms, name="") -> FinFunctor:
    objs = {c: tuple(on_objects[c]) for c in cat.objects}
    mors = {a.name: dict(on_morphisms[a.name]) for a in cat.arrows}
    return FinFunctor(cat, objs, mors, name)


def equal_functors(f: FinFunctor, g: FinFunctor) -> bool:
    """Same element sets at every object and the same action tables."""
    if f.cat is not g.cat and f.cat.objects != g.cat.objects:
        return False
    for c in f.cat.objects:
        if set(f.at(c)) != set(g.at(c)):
            return False
    for a in f.cat.arrows:
        if f.map(a.name) != g.map(a.name):
            return False
    return True


def validate_functor(f: FinFunctor, name=None) -> Report:
    rep = Report("functor %s" % (name or f.name or "?"))
    cat = f.cat

    def bad_objects():
        for c in cat.objects:
            elems = f.on_objects.get(c)
            if elems is None or len(set(elems)) != len(elems):
                yield {"object": c}

    if not rep.add_first("each object carries a duplicate-free element tuple", bad_objects()):
        return rep

    def bad_tables():
        for a in cat.arrows:
            table = f.on_morphisms.get(a.name)
            if (table is None or set(table) != set(f.at(a.dom))
                    or any(v not in set(f.at(a.cod)) for v in table.values())):
                yield {"arrow": a.name}

    if not rep.add_first("each arrow carries a total function into its codomain", bad_tables()):
        return rep

    def moved_by_identity():
        for c in cat.objects:
            table = f.map(cat.identity(c))
            if any(table[x] != x for x in f.at(c)):
                yield {"object": c}

    rep.add_first("identities act as identity functions", moved_by_identity())

    def bad_composites():
        for g, h in cat.composable_pairs():
            combined, gh, hh = f.map(cat.compose(g, h)), f.map(g), f.map(h)
            for x in f.at(cat.dom(h)):
                if combined[x] != gh[hh[x]]:
                    yield {"pair": (g, h), "element": x}

    rep.add_first("composition of arrows acts as composition of functions", bad_composites())
    return rep


# ---------------------------------------------------------------------------
# natural transformations


@dataclass(frozen=True, eq=False)
class FinNatTrans:
    source: FinFunctor
    target: FinFunctor
    components: dict
    name: str = ""

    def at(self, obj: str) -> dict:
        return self.components[obj]

    def apply(self, obj: str, x):
        return self.components[obj][x]

    def canonical(self):
        return tuple(
            (c, tuple(sorted(self.components[c].items(), key=lambda kv: label_key(kv[0]))))
            for c in self.source.cat.objects
        )

    def __repr__(self):
        return "FinNatTrans(%s)" % (self.name or "?")


def validate_nat_trans(t: FinNatTrans, name=None) -> Report:
    rep = Report("transformation %s" % (name or t.name or "?"))
    cat = t.source.cat

    def bad_components():
        for c in cat.objects:
            comp = t.components.get(c)
            if (comp is None or set(comp) != set(t.source.at(c))
                    or any(v not in set(t.target.at(c)) for v in comp.values())):
                yield {"object": c}

    if not rep.add_first("components are total functions with the right endpoints",
                         bad_components()):
        return rep

    def open_squares():
        for a in cat.arrows:
            for x in t.source.at(a.dom):
                left = t.components[a.cod][t.source.apply(a.name, x)]
                right = t.target.apply(a.name, t.components[a.dom][x])
                if left != right:
                    yield {"arrow": a.name, "element": x, "left": left, "right": right}

    rep.add_first("every naturality square commutes", open_squares())
    return rep


def identity_nat_trans(f: FinFunctor) -> FinNatTrans:
    return FinNatTrans(f, f, {c: {x: x for x in f.at(c)} for c in f.cat.objects}, "id")


def compose_nat_trans(t2: FinNatTrans, t1: FinNatTrans) -> FinNatTrans:
    """t2 after t1."""
    comps = {
        c: {x: t2.components[c][t1.components[c][x]] for x in t1.source.at(c)}
        for c in t1.source.cat.objects
    }
    return FinNatTrans(t1.source, t2.target, comps, "%s.%s" % (t2.name, t1.name))


def enumerate_nat_trans(f: FinFunctor, g: FinFunctor, max_enum=None, choices=None):
    """All natural transformations f => g, by backtracking over objects.

    The raw candidate count (product over objects of |g(c)|^|f(c)|) is
    bounded first; overflow raises SizeLimit rather than silently
    truncating.  While extending, components already assigned force values
    at the next object along incoming arrows, which prunes the search hard
    when actions are surjective.

    ``choices`` narrows the search: it maps each object c to a dict sending
    every x in f(c) to the tuple of values its image may take, a subsequence
    of g(c).  A forced value outside its choices cuts the branch.  The
    transformations found are those of the unrestricted search whose
    components stay within the choices, in the same order; the bound still
    counts the raw space.
    """
    bound = resolve_max_enum(max_enum)
    cat = f.cat
    total = 1
    for c in cat.objects:
        if len(f.at(c)) > 0 and len(g.at(c)) == 0:
            return
        total *= max(1, len(g.at(c))) ** len(f.at(c))
        if total > bound:
            raise SizeLimit("natural-transformation search space %d exceeds bound %d" % (total, bound))

    objs = list(cat.objects)
    index = {c: i for i, c in enumerate(objs)}
    forcing = [[] for _ in objs]
    checkable = [[] for _ in objs]
    for a in cat.arrows:
        i, j = index[a.dom], index[a.cod]
        if i < j:
            forcing[j].append(a)
        checkable[max(i, j)].append(a)

    def candidates(i, assigned):
        c = objs[i]
        forced = {}
        for a in forcing[i]:
            hd = assigned[a.dom]
            fa, ga = f.map(a.name), g.map(a.name)
            for x in f.at(a.dom):
                key = fa[x]
                val = ga[hd[x]]
                if forced.setdefault(key, val) != val:
                    return
        free = [x for x in f.at(c) if x not in forced]
        if choices is None:
            pools = [g.at(c)] * len(free)
        else:
            allowed = choices[c]
            if any(val not in allowed[x] for x, val in forced.items()):
                return
            pools = [allowed[x] for x in free]
        for images in itertools.product(*pools):
            comp = dict(forced)
            comp.update(zip(free, images))
            yield comp

    def extend(i, assigned):
        if i == len(objs):
            yield {c: dict(v) for c, v in assigned.items()}
            return
        c = objs[i]
        for comp in candidates(i, assigned):
            assigned[c] = comp
            if all(
                assigned[a.cod][f.apply(a.name, x)] == g.apply(a.name, assigned[a.dom][x])
                for a in checkable[i]
                for x in f.at(a.dom)
            ):
                yield from extend(i + 1, assigned)
        assigned.pop(c, None)

    for comps in extend(0, {}):
        yield FinNatTrans(f, g, comps)


# ---------------------------------------------------------------------------
# endofunctors of the index category


@dataclass(frozen=True, eq=False)
class FinEndofunctor:
    cat: FinCat
    on_objects: dict
    on_morphisms: dict
    name: str = ""

    def obj(self, c: str) -> str:
        return self.on_objects[c]

    def mor(self, arrow: str) -> str:
        return self.on_morphisms[arrow]

    def __repr__(self):
        return "FinEndofunctor(%s)" % (self.name or "?")


def validate_endofunctor(g: FinEndofunctor, name=None) -> Report:
    rep = Report("endofunctor %s" % (name or g.name or "?"))
    cat = g.cat

    if not rep.add_first("objects map to objects", (
        {"object": c} for c in cat.objects if g.on_objects.get(c) not in cat.objects
    )):
        return rep

    def bad_arrows():
        for a in cat.arrows:
            img = g.on_morphisms.get(a.name)
            if img is None or img not in cat._by_name:
                yield {"arrow": a.name}
            elif cat.dom(img) != g.obj(a.dom) or cat.cod(img) != g.obj(a.cod):
                yield {"arrow": a.name, "image": img}

    if not rep.add_first("arrows map to arrows with transported endpoints", bad_arrows()):
        return rep

    rep.add_first("identities map to identities", (
        {"object": c} for c in cat.objects
        if g.mor(cat.identity(c)) != cat.identity(g.obj(c))
    ))
    rep.add_first("composition is preserved", (
        {"pair": (a, b)} for a, b in cat.composable_pairs()
        if g.mor(cat.compose(a, b)) != cat.compose(g.mor(a), g.mor(b))
    ))
    return rep


def identity_endofunctor(cat: FinCat) -> FinEndofunctor:
    return FinEndofunctor(
        cat,
        {c: c for c in cat.objects},
        {a.name: a.name for a in cat.arrows},
        "id",
    )


@dataclass(frozen=True, eq=False)
class NatFamily:
    """A natural transformation between endofunctors; components are arrows of the category."""

    source: FinEndofunctor
    target: FinEndofunctor
    components: dict
    name: str = ""

    def at(self, obj: str) -> str:
        return self.components[obj]

    def __repr__(self):
        return "NatFamily(%s)" % (self.name or "?")


def validate_nat_family(eta: NatFamily, name=None) -> Report:
    rep = Report("family %s" % (name or eta.name or "?"))
    cat = eta.source.cat

    def bad_components():
        for c in cat.objects:
            comp = eta.components.get(c)
            if comp is None or comp not in cat._by_name:
                yield {"object": c}
            elif cat.dom(comp) != eta.source.obj(c) or cat.cod(comp) != eta.target.obj(c):
                yield {"object": c, "component": comp}

    if not rep.add_first("components are arrows with the transported endpoints",
                         bad_components()):
        return rep

    def open_squares():
        for a in cat.arrows:
            left = cat.compose(eta.at(a.cod), eta.source.mor(a.name))
            right = cat.compose(eta.target.mor(a.name), eta.at(a.dom))
            if left != right:
                yield {"arrow": a.name, "left": left, "right": right}

    rep.add_first("every naturality square commutes", open_squares())
    return rep


def identity_nat_family(g: FinEndofunctor) -> NatFamily:
    return NatFamily(g, g, {c: g.cat.identity(g.obj(c)) for c in g.cat.objects}, "id")


def compose_nat_families(eta2: NatFamily, eta1: NatFamily) -> NatFamily:
    cat = eta1.source.cat
    comps = {c: cat.compose(eta2.at(c), eta1.at(c)) for c in cat.objects}
    return NatFamily(eta1.source, eta2.target, comps, "%s.%s" % (eta2.name, eta1.name))


@dataclass(frozen=True, eq=False)
class EndofunctorData:
    """An endofunctor with its two canonical comparison families.

    ``to_id`` plays the role of the constant-term projection, ``from_id`` the
    unit inclusion; their composite on the identity side must be the identity
    family.
    """

    functor: FinEndofunctor
    to_id: NatFamily
    from_id: NatFamily
    name: str = ""

    def __repr__(self):
        return "EndofunctorData(%s)" % (self.name or self.functor.name or "?")


def identity_endofunctor_data(cat: FinCat) -> EndofunctorData:
    g = identity_endofunctor(cat)
    return EndofunctorData(g, identity_nat_family(g), identity_nat_family(g), "id")


def validate_endofunctor_data(data: EndofunctorData, name=None) -> Report:
    rep = Report("endofunctor data %s" % (name or data.name or "?"))
    rep.merge(validate_endofunctor(data.functor))
    rep.merge(validate_nat_family(data.to_id, "to_id"))
    rep.merge(validate_nat_family(data.from_id, "from_id"))
    cat = data.functor.cat

    def bad_round_trips():
        for c in cat.objects:
            outgoing = data.from_id.components.get(c)
            incoming = data.to_id.components.get(c)
            got = cat.comp.get((incoming, outgoing)) if outgoing and incoming else None
            if got != cat.identity(c):
                yield {"object": c, "composite": got}

    rep.add_first("projection after inclusion is the identity", bad_round_trips())
    return rep


# ---------------------------------------------------------------------------
# sliced objects


@dataclass(frozen=True, eq=False)
class SlicedObject:
    total: FinFunctor
    structure: FinNatTrans
    name: str = ""

    @property
    def base(self) -> FinFunctor:
        return self.structure.target

    def point(self, obj: str, x):
        return self.structure.apply(obj, x)

    def fiber(self, obj: str, base_point) -> tuple:
        return tuple(x for x in self.total.at(obj) if self.point(obj, x) == base_point)

    def __repr__(self):
        return "SlicedObject(%s)" % (self.name or "?")


def validate_sliced(a: SlicedObject, name=None) -> Report:
    rep = Report("sliced object %s" % (name or a.name or "?"))
    rep.add("structure starts at the total functor", a.structure.source is a.total
            or equal_functors(a.structure.source, a.total))
    rep.merge(validate_nat_trans(a.structure, "structure"))
    return rep


def is_slice_morphism(t: FinNatTrans, a: SlicedObject, b: SlicedObject) -> bool:
    """t: total(a) => total(b) commuting with the structure maps."""
    for c in a.total.cat.objects:
        for x in a.total.at(c):
            if b.point(c, t.apply(c, x)) != a.point(c, x):
                return False
    return True


def enumerate_slice_morphisms(a: SlicedObject, b: SlicedObject, max_enum=None):
    """Slice morphisms a -> b: the search runs inside the fibers of b over a's base points."""
    choices = {}
    for c in a.total.cat.objects:
        points = {x: a.point(c, x) for x in a.total.at(c)}
        fibers = {pt: b.fiber(c, pt) for pt in set(points.values())}
        choices[c] = {x: fibers[pt] for x, pt in points.items()}
    yield from enumerate_nat_trans(a.total, b.total, max_enum, choices)

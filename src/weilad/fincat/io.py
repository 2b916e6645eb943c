"""JSON instance files for the finite model.

One document describes a category with everything the checks consume::

    {
      "name": "...",
      "objects": ["a", "b"],
      "morphisms": [{"id": "ida", "dom": "a", "cod": "a"}, ...],
      "identities": {"a": "ida", ...},
      "comp": {"g": {"f": "g_after_f", ...}, ...},
      "functors": {"M": {"on_objects": {"a": ["x"], ...},
                          "on_morphisms": {"ida": {"x": "x"}, ...}}, ...},
      "nat_trans": {"t": {"source": "M", "target": "N",
                           "components": {"a": {"x": "y"}, ...}}, ...},
      "endofunctors": {"G": {"on_objects": {"a": "b", ...},
                              "on_morphisms": {"ida": "idb", ...},
                              "to_identity": {"a": "r", ...},
                              "from_identity": {"a": "s", ...}}, ...},
      "nat_families": {"eta": {"source": "G", "target": "id",
                                "components": {"a": "r", ...}}, ...},
      "sliced": {"A": {"total": "At", "base": "L", "structure": "tauA"}, ...},
      "roles": {...}
    }

``comp[g][f]`` is g-after-f.  The identity endofunctor (with identity
comparison families) is always available under the name ``id``.

``roles`` configures what the law suite and the model-check command run::

    "roles": {
      "ccc": {"functors": [names...], "probes": [names...],
               "probe_morphisms": [nat_trans names...]},
      "slice_ccc": {"base": functor, "pairs": [[A, B]...], "probes": [sliced...]},
      "exp_compat": [{"g": endo, "m": functor, "n": functor,
                       "g2": endo, "eta": family}...],      # g2/eta optional
      "slice_exp_compat": [{"g": endo, "base": functor, "a": sliced,
                             "b": sliced, "g2": ..., "eta": ...}...],
      "localization": [{"g": endo, "a": sliced, "r": functor,
                         "g2": ..., "eta": ...}...]
    }

Loading resolves every name through the typed lookups of :class:`Instance`
(the roles into :class:`ResolvedRoles`) and validates all the data, raising
WeilError with the unknown name or the failing check and witness, so a
planted defect in a file is caught at the door.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import WeilError
from .core import (
    EndofunctorData,
    FinCat,
    FinEndofunctor,
    FinFunctor,
    FinNatTrans,
    NatFamily,
    SlicedObject,
    fincat,
    identity_endofunctor_data,
    validate_category,
    validate_endofunctor,
    validate_functor,
    validate_nat_family,
    validate_nat_trans,
    validate_sliced,
)
from .core import validate_endofunctor_data


@dataclass(frozen=True)
class CheckRole:
    """One entry of a comparison role with its names resolved.

    ``args`` are the leading arguments of the check in order, ``second`` is
    the optional ``(g2, eta)`` pair and ``raw`` is the entry as written.
    """

    args: tuple
    second: tuple | None
    raw: dict


@dataclass(frozen=True)
class ResolvedRoles:
    """The ``roles`` section with every name resolved to its object."""

    ccc_functors: tuple = ()
    ccc_probes: tuple = ()
    ccc_probe_morphisms: tuple = ()
    slice_base: FinFunctor | None = None
    slice_pairs: tuple = ()
    slice_probes: tuple = ()
    exp_compat: tuple = ()
    slice_exp_compat: tuple = ()
    localization: tuple = ()


# leading arguments of each comparison check: (entry key, Instance lookup)
_CHECK_ARGS = {
    "exp_compat": (("g", "endo"), ("m", "functor"), ("n", "functor")),
    "slice_exp_compat": (("g", "endo"), ("base", "functor"), ("a", "sliced_obj"),
                         ("b", "sliced_obj")),
    "localization": (("g", "endo"), ("a", "sliced_obj"), ("r", "functor")),
}


@dataclass
class Instance:
    name: str
    cat: FinCat
    functors: dict = field(default_factory=dict)
    nat_trans: dict = field(default_factory=dict)
    endofunctors: dict = field(default_factory=dict)
    nat_families: dict = field(default_factory=dict)
    sliced: dict = field(default_factory=dict)
    roles: dict = field(default_factory=dict)
    resolved: ResolvedRoles = field(default_factory=ResolvedRoles)

    def _lookup(self, table: dict, kind: str, name):
        try:
            return table[name]
        except (KeyError, TypeError):
            raise WeilError("instance %s has no %s %r" % (self.name, kind, name)) from None

    def functor(self, name: str) -> FinFunctor:
        return self._lookup(self.functors, "functor", name)

    def transformation(self, name: str) -> FinNatTrans:
        return self._lookup(self.nat_trans, "transformation", name)

    def endo(self, name: str) -> EndofunctorData:
        return self._lookup(self.endofunctors, "endofunctor", name)

    def family(self, name: str) -> NatFamily:
        return self._lookup(self.nat_families, "family", name)

    def sliced_obj(self, name: str) -> SlicedObject:
        return self._lookup(self.sliced, "sliced object", name)


def _resolve_roles(inst: Instance) -> ResolvedRoles:
    def entry(cfg, key, where):
        try:
            return cfg[key]
        except (KeyError, TypeError):
            raise WeilError("instance %s: role %s has no %r" % (inst.name, where, key)) from None

    checks = {}
    for role, spec in _CHECK_ARGS.items():
        resolved = []
        for i, cfg in enumerate(inst.roles.get(role, [])):
            where = "%s[%d]" % (role, i)
            args = tuple(getattr(inst, lookup)(entry(cfg, key, where)) for key, lookup in spec)
            second = None
            if cfg.get("eta"):
                second = (inst.endo(entry(cfg, "g2", where)), inst.family(cfg["eta"]))
            resolved.append(CheckRole(args, second, cfg))
        checks[role] = tuple(resolved)

    ccc = inst.roles.get("ccc", {})
    sl = inst.roles.get("slice_ccc", {})
    return ResolvedRoles(
        ccc_functors=tuple(inst.functor(n) for n in ccc.get("functors", [])),
        ccc_probes=tuple(inst.functor(n) for n in ccc.get("probes", [])),
        ccc_probe_morphisms=tuple(inst.transformation(n) for n in ccc.get("probe_morphisms", [])),
        slice_base=inst.functor(entry(sl, "base", "slice_ccc")) if sl else None,
        slice_pairs=tuple((inst.sliced_obj(a), inst.sliced_obj(b)) for a, b in sl.get("pairs", [])),
        slice_probes=tuple(inst.sliced_obj(n) for n in sl.get("probes", [])),
        **checks,
    )


def load_instance(doc: dict, validate: bool = True) -> Instance:
    name = doc.get("name", "instance")
    comp = {}
    for g, row in doc.get("comp", {}).items():
        for f, gf in row.items():
            comp[(g, f)] = gf
    cat = fincat(
        name,
        doc["objects"],
        [(m["id"], m["dom"], m["cod"]) for m in doc["morphisms"]],
        doc["identities"],
        comp,
    )

    inst = Instance(name=name, cat=cat, roles=doc.get("roles", {}))
    reports = []
    if validate:
        # Every other validator assumes a valid category.
        _raise_failures(name, [validate_category(cat)])

    for fname, body in doc.get("functors", {}).items():
        f = FinFunctor(
            cat,
            {c: tuple(body["on_objects"].get(c, ())) for c in cat.objects},
            {a.name: dict(body["on_morphisms"].get(a.name, {})) for a in cat.arrows},
            fname,
        )
        inst.functors[fname] = f
        if validate:
            reports.append(validate_functor(f, fname))

    for tname, body in doc.get("nat_trans", {}).items():
        t = FinNatTrans(
            inst.functor(body["source"]),
            inst.functor(body["target"]),
            {c: dict(body["components"].get(c, {})) for c in cat.objects},
            tname,
        )
        inst.nat_trans[tname] = t
        if validate:
            reports.append(validate_nat_trans(t, tname))

    inst.endofunctors["id"] = identity_endofunctor_data(cat)
    for gname, body in doc.get("endofunctors", {}).items():
        fun = FinEndofunctor(
            cat,
            dict(body["on_objects"]),
            dict(body["on_morphisms"]),
            gname,
        )
        ident = inst.endo("id").functor
        data = EndofunctorData(
            fun,
            NatFamily(fun, ident, dict(body["to_identity"]), "%s.to_id" % gname),
            NatFamily(ident, fun, dict(body["from_identity"]), "%s.from_id" % gname),
            gname,
        )
        inst.endofunctors[gname] = data
        if validate:
            reports.append(validate_endofunctor(fun, gname))
            reports.append(validate_endofunctor_data(data, gname))

    for ename, body in doc.get("nat_families", {}).items():
        fam = NatFamily(
            inst.endo(body["source"]).functor,
            inst.endo(body["target"]).functor,
            dict(body["components"]),
            ename,
        )
        inst.nat_families[ename] = fam
        if validate:
            reports.append(validate_nat_family(fam, ename))

    for sname, body in doc.get("sliced", {}).items():
        structure = inst.transformation(body["structure"])
        expected_total = inst.functor(body["total"])
        expected_base = inst.functor(body["base"])
        if structure.source is not expected_total or structure.target is not expected_base:
            raise WeilError(
                "sliced object %r: structure %r does not run %s -> %s"
                % (sname, body["structure"], body["total"], body["base"])
            )
        s = SlicedObject(expected_total, structure, sname)
        inst.sliced[sname] = s
        if validate:
            reports.append(validate_sliced(s, sname))

    _raise_failures(name, reports)
    inst.resolved = _resolve_roles(inst)
    return inst


def _raise_failures(name, reports) -> None:
    failed = [rep for rep in reports if not rep.passed]
    if failed:
        lines = []
        for rep in failed:
            for c in rep.failures():
                lines.append("%s: %s (witness: %r)" % (rep.title, c.name, c.witness))
        raise WeilError("instance %s failed validation:\n%s" % (name, "\n".join(lines)))


def load_instance_file(path, validate: bool = True) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise WeilError("cannot read instance file %s: %s" % (path, exc)) from None
    return load_instance(doc, validate=validate)

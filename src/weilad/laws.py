"""The runnable law suite.

Twelve laws, each a concrete executable statement about the lifting
machinery, checked over two models: the numeric model (coefficient vectors
over truncation algebras, exact rationals or floats) and the finite-set
model (precomposition endofunctors on bundled category instances).  Laws
about exponential objects run only in the finite model, where they are
decidable by enumeration; laws about the number line run only in the
numeric model.

Reports are deterministic for a fixed seed and configuration: randomized
inputs derive their generators by hashing the (seed, law, instance) triple.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from . import scalars
from .algebra import compose_morphisms, identity_morphism, tensor
from .corpus import (
    algebra_family,
    bundled_instances,
    composable_pairs,
    corpus_map,
    derived_seed,
    morphism_family,
    polyrat_maps,
    random_inputs,
    random_point,
    smooth_maps,
    tensor_pairs,
)
from .errors import UnavailableInModel
from .expr import parse_smooth_map, tuple_map
from .fincat import (
    alpha_of,
    compose_endofunctors,
    compose_nat_families,
    enumerate_nat_trans,
    equal_functors,
    equalizer,
    exp_compat_check,
    exp_compat_check_slice,
    identity_nat_family,
    identity_nat_trans,
    localization_check,
    precompose,
    product,
    whisker,
)
from .functor import eval_map, flatten_nested, lift_eval, nested_inputs
from .numbers import WeilNumber, constant, number, push_along

NUMERIC = "numeric"
FINSET = "finset"

ALGEBRAIC_FLOAT_TOL = 1e-10


@dataclass(frozen=True)
class LawInfo:
    law_id: str
    statement: str
    models: tuple


LAWS = (
    LawInfo("L1", "lifting preserves finite limits: tupled maps lift to tupled lifts; "
                  "products and equalizers commute with precomposition", (NUMERIC, FINSET)),
    LawInfo("L2", "lifting over the base algebra is plain evaluation", (NUMERIC, FINSET)),
    LawInfo("L3", "lifting over one algebra and then another equals lifting over their "
                  "tensor product, under the explicit reindexing", (NUMERIC, FINSET)),
    LawInfo("L4", "the canonical comparison between a lifted exponential and the "
                  "exponential of the lifts is an isomorphism", (FINSET,)),
    LawInfo("L5", "the pushforward along an identity morphism is the identity", (NUMERIC, FINSET)),
    LawInfo("L6", "pushforwards compose: along a composite equals the composite of "
                  "the pushforwards", (NUMERIC, FINSET)),
    LawInfo("L7", "the two composite comparison maps a morphism induces on an "
                  "exponential agree", (FINSET,)),
    LawInfo("L8", "lifted arithmetic on the line is coefficient-vector arithmetic "
                  "(checked against first-principles monomial products)", (NUMERIC,)),
    LawInfo("L9", "the pushforward at the line is a ring homomorphism given by the "
                  "morphism's matrix", (NUMERIC,)),
    LawInfo("L10", "the slice comparison between a lifted slice exponential and the "
                   "slice exponential of the lifts is an isomorphism", (FINSET,)),
    LawInfo("L11", "pushforward commutes with lifting any map: the naturality square "
                   "commutes", (NUMERIC, FINSET)),
    LawInfo("L12", "localizing at a sliced object agrees, through slice flattening, "
                   "with localizing at its total", (FINSET,)),
)

LAW_IDS = tuple(info.law_id for info in LAWS)


def enumerate_laws():
    return list(LAWS)


def law_info(law_id: str) -> LawInfo:
    for info in LAWS:
        if info.law_id == law_id:
            return info
    raise UnavailableInModel("unknown law id %r" % law_id)


@dataclass
class LawInstance:
    law_id: str
    model: str
    params: dict = field(default_factory=dict)
    scalar_mode: str = scalars.RATIONAL
    seed: int = 0


@dataclass
class LawReport:
    law_id: str
    model: str
    scalar_mode: str
    instances_run: int = 0
    failures: int = 0
    exact: bool = True
    max_abs_error: float = 0.0
    max_rel_error: float = 0.0
    witnesses: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self):
        return {
            "law": self.law_id,
            "model": self.model,
            "scalar_mode": self.scalar_mode,
            "instances_run": self.instances_run,
            "failures": self.failures,
            "exact": self.exact,
            "max_abs_error": self.max_abs_error,
            "max_rel_error": self.max_rel_error,
            "passed": self.passed,
            "witnesses": [str(w) for w in self.witnesses[:5]],
        }


class _Acc:
    """Collects comparisons into a LawReport; exact in rational mode, tolerant in float."""

    def __init__(self, report: LawReport, tol: float = ALGEBRAIC_FLOAT_TOL):
        self.report = report
        self.tol = tol

    def _coeffs(self, value):
        if isinstance(value, WeilNumber):
            out = []
            for c in value.coeffs:
                out.extend(self._coeffs(c))
            return out
        return [value]

    def compare(self, got, want, witness) -> None:
        rep = self.report
        rep.instances_run += 1
        a = self._coeffs(got) if not isinstance(got, (list, tuple)) else sum(
            (self._coeffs(v) for v in got), [])
        b = self._coeffs(want) if not isinstance(want, (list, tuple)) else sum(
            (self._coeffs(v) for v in want), [])
        if len(a) != len(b):
            rep.failures += 1
            rep.witnesses.append(witness)
            return
        if rep.scalar_mode == scalars.RATIONAL:
            if a != b:
                rep.failures += 1
                rep.witnesses.append(witness)
        else:
            rep.exact = False
            worst_rel = 0.0
            non_finite_mismatch = False
            for x, y in zip(a, b):
                x, y = float(x), float(y)
                if not (math.isfinite(x) and math.isfinite(y)):
                    # NaN equals nothing, so only matching infinities pass
                    non_finite_mismatch = non_finite_mismatch or x != y
                    continue
                err = abs(x - y)
                rel = err / max(1.0, abs(x), abs(y))
                rep.max_abs_error = max(rep.max_abs_error, err)
                worst_rel = max(worst_rel, rel)
            rep.max_rel_error = max(rep.max_rel_error, worst_rel)
            if worst_rel > self.tol or non_finite_mismatch:
                rep.failures += 1
                rep.witnesses.append(witness)

    def check(self, condition: bool, witness) -> None:
        self.report.instances_run += 1
        if not condition:
            self.report.failures += 1
            self.report.witnesses.append(witness)

    def absorb(self, report) -> None:
        """Fold a structural Report from the finite model into the law report."""
        self.report.instances_run += len(report.checks)
        for c in report.failures():
            self.report.failures += 1
            self.report.witnesses.append("%s: %s (%r)" % (report.title, c.name, c.witness))


# ---------------------------------------------------------------------------
# numeric model


def _maps_for(mode: str, params: dict):
    names = params.get("maps")
    if names is not None:
        return [corpus_map(n) for n in names]
    return list(polyrat_maps()) if mode == scalars.RATIONAL else list(smooth_maps())


def _samples(params) -> int:
    return int(params.get("samples", 3))


def _law1_numeric(inst, acc):
    from .corpus import CorpusMap

    maps = _maps_for(inst.scalar_mode, inst.params)
    algebras = inst.params.get("algebras") or algebra_family()
    by_arity: dict = {}
    for m in maps:
        by_arity.setdefault(m.arity, []).append(m)
    for group in by_arity.values():
        for f, g in zip(group, group[1:]):
            tupled = tuple_map(f.smooth_map, g.smooth_map)
            # inputs must sit in the windows of both tupled components
            if inst.scalar_mode == scalars.RATIONAL:
                lo, hi = max(f.lo, g.lo), min(f.hi, g.hi)
            else:
                lo, hi = f.lo, f.hi
            joint = CorpusMap(f.name + "+" + g.name, tupled, lo, hi, f.float_point)
            for w in algebras:
                rng = random.Random(derived_seed(inst.seed, "L1", f.name, g.name, w.name))
                for _ in range(_samples(inst.params)):
                    xs = random_inputs(joint, w, rng, inst.scalar_mode)
                    combined = lift_eval(tupled, w, xs)
                    separate = lift_eval(f.smooth_map, w, xs) + lift_eval(g.smooth_map, w, xs)
                    acc.compare(combined, separate, ("L1", f.name, g.name, w.name))


def _law2_numeric(inst, acc):
    from .algebra import base_algebra

    # over the base algebra lifting IS plain evaluation; over any other
    # algebra a scalar point (zero nilpotent part) must stay scalar with the
    # plainly evaluated value, which is the same identity seen through the
    # unit embedding
    algebras = [base_algebra()] + list(inst.params.get("algebras") or algebra_family())
    for entry in _maps_for(inst.scalar_mode, inst.params):
        for w in algebras:
            rng = random.Random(derived_seed(inst.seed, "L2", entry.name, w.name))
            for _ in range(_samples(inst.params)):
                point = random_point(entry, rng, inst.scalar_mode)
                plain = eval_map(entry.smooth_map, point, inst.scalar_mode)
                lifted = lift_eval(
                    entry.smooth_map, w, [constant(w, p) for p in point]
                )
                acc.compare([v.coeffs[0] for v in lifted], plain,
                            ("L2", entry.name, w.name, point))
                acc.check(
                    all(not any(v.coeffs[1:]) for v in lifted),
                    ("L2 scalar stays scalar", entry.name, w.name),
                )


def _law3_numeric(inst, acc):
    pairs = inst.params.get("pairs") or tensor_pairs()
    for entry in _maps_for(inst.scalar_mode, inst.params):
        for pair in pairs:
            # a pair may carry an explicit tensor algebra (third slot)
            if len(pair) == 3:
                w1, w2, t = pair
            else:
                w1, w2 = pair
                t = tensor(w1, w2).algebra
            rng = random.Random(derived_seed(inst.seed, "L3", entry.name, w1.name, w2.name))
            for _ in range(_samples(inst.params)):
                xs = random_inputs(entry, t, rng, inst.scalar_mode)
                direct = lift_eval(entry.smooth_map, t, xs)
                nested = lift_eval(entry.smooth_map, w2, nested_inputs(w1, w2, xs))
                unpacked = [flatten_nested(w1, w2, v) for v in nested]
                acc.compare(unpacked, direct, ("L3", entry.name, w1.name, w2.name))


def _law5_numeric(inst, acc):
    algebras = inst.params.get("algebras") or algebra_family()
    maps = _maps_for(inst.scalar_mode, inst.params)
    for entry in maps:
        for w in algebras:
            ident = identity_morphism(w)
            rng = random.Random(derived_seed(inst.seed, "L5", entry.name, w.name))
            for _ in range(_samples(inst.params)):
                xs = random_inputs(entry, w, rng, inst.scalar_mode)
                for v in lift_eval(entry.smooth_map, w, xs):
                    acc.compare(push_along(ident, v), v, ("L5", entry.name, w.name))


def _law6_numeric(inst, acc):
    maps = _maps_for(inst.scalar_mode, inst.params)
    for entry in maps:
        for pi, (phi, psi) in enumerate(composable_pairs()):
            composite = compose_morphisms(phi, psi)
            rng = random.Random(derived_seed(inst.seed, "L6", entry.name, pi))
            for _ in range(_samples(inst.params)):
                xs = random_inputs(entry, phi.source, rng, inst.scalar_mode)
                for v in lift_eval(entry.smooth_map, phi.source, xs):
                    acc.compare(
                        push_along(composite, v),
                        push_along(psi, push_along(phi, v)),
                        ("L6", entry.name, pi),
                    )


def _mul_oracle(w, u: WeilNumber, v: WeilNumber) -> WeilNumber:
    """First-principles product: expand over basis monomials, reduce by the relations."""
    zero = u.coeffs[0] * 0
    out = [zero] * w.dim
    for i, a in enumerate(u.coeffs):
        if not a:
            continue
        for j, b in enumerate(v.coeffs):
            if not b:
                continue
            m = w.basis[i] * w.basis[j]
            if any(rel.divides(m) for rel in w.vanishing):
                continue
            k = w.basis_index(m)
            out[k] = out[k] + a * b
    return WeilNumber(w, tuple(out))


def _law8_numeric(inst, acc):
    algebras = inst.params.get("algebras") or algebra_family()
    mul = parse_smooth_map("x*y", ["x", "y"])
    add = parse_smooth_map("x + y", ["x", "y"])
    ident = parse_smooth_map("x", ["x"])
    entry = corpus_map("p03_bilinear")
    maps = _maps_for(inst.scalar_mode, inst.params)
    for source in maps:
        for w in algebras:
            rng = random.Random(derived_seed(inst.seed, "L8", source.name, w.name))
            for _ in range(_samples(inst.params)):
                xs = random_inputs(source, w, rng, inst.scalar_mode)
                u = lift_eval(source.smooth_map, w, xs)[0]
                v = random_inputs(entry, w, rng, inst.scalar_mode)[0]
                acc.compare(lift_eval(mul, w, [u, v])[0], _mul_oracle(w, u, v),
                            ("L8 mul", source.name, w.name))
                acc.compare(lift_eval(add, w, [u, v])[0], u + v, ("L8 add", source.name, w.name))
                acc.compare(lift_eval(ident, w, [u])[0], u, ("L8 id", source.name, w.name))


def _law9_numeric(inst, acc):
    morphisms = morphism_family()
    maps = _maps_for(inst.scalar_mode, inst.params)
    for entry in maps:
        for name, phi in sorted(morphisms.items()):
            w = phi.source
            rng = random.Random(derived_seed(inst.seed, "L9", entry.name, name))
            for _ in range(_samples(inst.params)):
                xs = random_inputs(entry, w, rng, inst.scalar_mode)
                u = lift_eval(entry.smooth_map, w, xs)[0]
                v = xs[0]
                acc.compare(push_along(phi, u * v), push_along(phi, u) * push_along(phi, v),
                            ("L9 mult", entry.name, name))
                acc.compare(push_along(phi, u + v), push_along(phi, u) + push_along(phi, v),
                            ("L9 add", entry.name, name))
                one = u.ring_one()
                acc.compare(push_along(phi, one),
                            number(phi.target, phi.column(0), inst.scalar_mode),
                            ("L9 unit", entry.name, name))
                for s in range(w.dim):
                    basis_vec = number(
                        w, [1 if k == s else 0 for k in range(w.dim)], inst.scalar_mode
                    )
                    acc.compare(push_along(phi, basis_vec),
                                number(phi.target, phi.column(s), inst.scalar_mode),
                                ("L9 matrix", entry.name, name, s))


def _law11_numeric(inst, acc):
    morphisms = morphism_family()
    maps = _maps_for(inst.scalar_mode, inst.params)
    for entry in maps:
        for name, phi in sorted(morphisms.items()):
            rng = random.Random(derived_seed(inst.seed, "L11", entry.name, name))
            for _ in range(_samples(inst.params)):
                xs = random_inputs(entry, phi.source, rng, inst.scalar_mode)
                upstairs = [push_along(phi, v)
                            for v in lift_eval(entry.smooth_map, phi.source, xs)]
                downstairs = lift_eval(
                    entry.smooth_map, phi.target, [push_along(phi, x) for x in xs]
                )
                acc.compare(upstairs, downstairs, ("L11", entry.name, name))


# ---------------------------------------------------------------------------
# finite-set model


def _instances_for(params):
    names = params.get("instances")
    data = bundled_instances()
    if names is None:
        return list(data.values())
    return [data[n] for n in names]


def _endo_pairs(instance):
    names = sorted(instance.endofunctors)
    return [(instance.endofunctors[a], instance.endofunctors[b])
            for a in names for b in names]


def _law1_finset(inst, acc, max_enum):
    for instance in _instances_for(inst.params):
        functors = instance.resolved.ccc_functors
        for g in instance.endofunctors.values():
            for m, n in itertools.combinations(functors, 2):
                p, _, _ = product(m, n)
                q, _, _ = product(precompose(g, m), precompose(g, n))
                acc.check(equal_functors(precompose(g, p), q),
                          ("L1 product", instance.name, g.name, m.name, n.name))
                trans = list(itertools.islice(enumerate_nat_trans(m, n, max_enum), 2))
                if len(trans) == 2:
                    f1, f2 = trans
                    e, _ = equalizer(f1, f2)
                    e2, _ = equalizer(whisker(g, f1), whisker(g, f2))
                    acc.check(equal_functors(precompose(g, e), e2),
                              ("L1 equalizer", instance.name, g.name, m.name, n.name))


def _law2_finset(inst, acc, max_enum):
    from .fincat import identity_endofunctor_data

    for instance in _instances_for(inst.params):
        ident = identity_endofunctor_data(instance.cat)
        for name, m in sorted(instance.functors.items()):
            acc.check(equal_functors(precompose(ident, m), m), ("L2", instance.name, name))


def _law3_finset(inst, acc, max_enum):
    for instance in _instances_for(inst.params):
        for g1, g2 in _endo_pairs(instance):
            combined = compose_endofunctors(g1.functor, g2.functor)
            for name, m in sorted(instance.functors.items()):
                acc.check(
                    equal_functors(precompose(g2, precompose(g1, m)), precompose(combined, m)),
                    ("L3", instance.name, g1.name, g2.name, name),
                )


def _law4_finset(inst, acc, max_enum):
    for instance in _instances_for(inst.params):
        for role in instance.resolved.exp_compat:
            rep = exp_compat_check(*role.args, role.second, max_enum)
            acc.absorb(rep)
            acc.check(rep.data.get("iso", False), ("L4 iso", instance.name, str(role.raw)))


def _law5_finset(inst, acc, max_enum):
    for instance in _instances_for(inst.params):
        for g in instance.endofunctors.values():
            ident = identity_nat_family(g.functor)
            for name, m in sorted(instance.functors.items()):
                t = alpha_of(ident, m)
                expected = identity_nat_trans(precompose(g, m))
                acc.check(t.components == expected.components,
                          ("L5", instance.name, g.name, name))


def _law6_finset(inst, acc, max_enum):
    for instance in _instances_for(inst.params):
        fams = sorted(instance.nat_families.items())
        for (n1, e1), (n2, e2) in itertools.product(fams, repeat=2):
            if e1.target is not e2.source:
                continue
            combined = compose_nat_families(e2, e1)
            for name, m in sorted(instance.functors.items()):
                left = alpha_of(combined, m)
                right_comps = {
                    c: {x: alpha_of(e2, m).at(c)[alpha_of(e1, m).at(c)[x]]
                        for x in m.at(e1.source.obj(c))}
                    for c in instance.cat.objects
                }
                acc.check(left.components == right_comps,
                          ("L6", instance.name, n1, n2, name))


def _law7_finset(inst, acc, max_enum):
    for instance in _instances_for(inst.params):
        for role in instance.resolved.exp_compat:
            if role.second is not None:
                acc.absorb(exp_compat_check(*role.args, role.second, max_enum))


def _law10_finset(inst, acc, max_enum):
    for instance in _instances_for(inst.params):
        for role in instance.resolved.slice_exp_compat:
            rep = exp_compat_check_slice(*role.args, role.second, max_enum)
            acc.absorb(rep)
            acc.check(rep.data.get("iso", False), ("L10 iso", instance.name, str(role.raw)))


def _law11_finset(inst, acc, max_enum):
    for instance in _instances_for(inst.params):
        for fname, eta in sorted(instance.nat_families.items()):
            for tname, t in sorted(instance.nat_trans.items()):
                left = compose_then(alpha_of(eta, t.target), whisker(eta.source, t))
                right = compose_then(whisker(eta.target, t), alpha_of(eta, t.source))
                acc.check(left == right, ("L11", instance.name, fname, tname))


def compose_then(second, first):
    """Component tables of second-after-first (plain dict form for comparison)."""
    return {
        c: {x: second.at(c)[first.at(c)[x]] for x in first.components[c]}
        for c in first.components
    }


def _law12_finset(inst, acc, max_enum):
    for instance in _instances_for(inst.params):
        for role in instance.resolved.localization:
            acc.absorb(localization_check(*role.args, role.second, max_enum))


_NUMERIC_IMPL = {
    "L1": _law1_numeric,
    "L2": _law2_numeric,
    "L3": _law3_numeric,
    "L5": _law5_numeric,
    "L6": _law6_numeric,
    "L8": _law8_numeric,
    "L9": _law9_numeric,
    "L11": _law11_numeric,
}

_FINSET_IMPL = {
    "L1": _law1_finset,
    "L2": _law2_finset,
    "L3": _law3_finset,
    "L4": _law4_finset,
    "L5": _law5_finset,
    "L6": _law6_finset,
    "L7": _law7_finset,
    "L10": _law10_finset,
    "L11": _law11_finset,
    "L12": _law12_finset,
}


def run_law(instance: LawInstance, max_enum=None) -> LawReport:
    info = law_info(instance.law_id)
    if instance.model not in info.models:
        raise UnavailableInModel(
            "law %s is not available in the %s model" % (instance.law_id, instance.model)
        )
    report = LawReport(instance.law_id, instance.model, instance.scalar_mode)
    acc = _Acc(report)
    if instance.model == NUMERIC:
        _NUMERIC_IMPL[instance.law_id](instance, acc)
    else:
        _FINSET_IMPL[instance.law_id](instance, acc, max_enum)
    return report


def default_instances(law_id: str, scalar_mode: str, seed: int):
    """The curated instance set: every available model of the law."""
    info = law_info(law_id)
    out = []
    for model in info.models:
        mode = scalar_mode if model == NUMERIC else scalars.RATIONAL
        out.append(LawInstance(law_id, model, {}, mode, seed))
    return out


def run_all(scalar_mode: str = scalars.RATIONAL, seed: int = 0, laws=None, max_enum=None):
    """Run the curated suite; returns a summary dict with one report per law/model."""
    selected = list(laws) if laws else list(LAW_IDS)
    reports = []
    for law_id in selected:
        for instance in default_instances(law_id, scalar_mode, seed):
            reports.append(run_law(instance, max_enum=max_enum))
    return {
        "scalar_mode": scalar_mode,
        "seed": seed,
        "laws_run": sorted({r.law_id for r in reports}),
        "passed": all(r.passed for r in reports),
        "reports": [r.to_json() for r in reports],
    }

"""Command-line front end.

Subcommands: ``algebra info``, ``algebra tensor``, ``jet``, ``partials``,
``morphism apply``, ``laws run``, ``model check``.  Output defaults to JSON
(one document per invocation, deterministic for a fixed seed); ``--format
human`` renders a readable summary.  Exit status: 0 success, 1 a law or
check failed (or a computation error, reported in the ``error`` field),
2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import scalars
from .algebra import algebra_from_spec, algebra_info, morphism_from_generator_images, tensor
from .errors import BadParameter, DomainError, WeilError
from .expr import parse_function_file, parse_smooth_map
from .fincat import (
    exp_compat_check,
    exp_compat_check_slice,
    load_instance_file,
    localization_check,
    verify_ccc,
    verify_slice_ccc,
)
from .functor import DERIVATIVE, RAW, jet, lift_eval, partials
from .laws import LAW_IDS, default_instances, enumerate_laws, run_law
from .numbers import generator, push_along
from .report import _jsonable

_INLINE_VARS = ("x", "y", "z", "w")


def _emit(payload, fmt: str, human_lines) -> None:
    if fmt == "json":
        print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _load_map(text: str, arity: int):
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            return parse_function_file(fh.read())
    return parse_smooth_map(text, _INLINE_VARS[:arity])


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _to_float(value, text: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise BadParameter("point coordinate %s is out of the float range" % text.strip()) from None


def _parse_point(text: str, mode: str):
    parts = [p for p in text.split(",") if p.strip()]
    vals = [scalars.parse_scalar(p) for p in parts]
    if mode == scalars.FLOAT:
        return [_to_float(v, p) for v, p in zip(vals, parts)]
    return vals


def _require_finite(entries) -> None:
    """Raise ``DomainError`` naming the first ``(name, values)`` entry with a non-finite float."""
    for name, values in entries:
        for value in values:
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError("non-finite result at %s: %r" % (name, value))


def cmd_algebra(args) -> int:
    if args.action == "info":
        info = algebra_info(algebra_from_spec(args.spec))
        lines = ["algebra %s" % info["name"],
                 "dim %d, nilpotency index %d" % (info["dim"], info["nilpotency_index"]),
                 "basis: %s" % " ".join(info["basis"])]
        lines += ["  %s = %s" % (k, v) for k, v in info["multiplication"].items()]
        _emit(info, args.format, lines)
        return 0
    w1 = algebra_from_spec(args.spec)
    w2 = algebra_from_spec(args.spec2)
    t = tensor(w1, w2)
    payload = {
        "algebra": algebra_info(t.algebra),
        "incl1": {"matrix": [list(r) for r in t.incl1.matrix]},
        "incl2": {"matrix": [list(r) for r in t.incl2.matrix]},
    }
    info = payload["algebra"]
    _emit(payload, args.format,
          ["tensor %s" % info["name"],
           "dim %d, nilpotency index %d" % (info["dim"], info["nilpotency_index"]),
           "basis: %s" % " ".join(info["basis"])])
    return 0


def cmd_jet(args) -> int:
    f = _load_map(args.fn, 1)
    if f.arity != 1:
        raise WeilError("jet needs a one-variable map; use partials")
    at = scalars.parse_scalar(args.at)
    if args.scalar == scalars.FLOAT:
        at = _to_float(at, args.at)
    norm = DERIVATIVE if args.normalization == "derivative" else RAW
    table = jet(f, at, args.order, norm)
    series = table.series()
    _require_finite(("monomial %s" % label, vals) for label, vals in series)
    values = [entry[1][0] if f.n_outputs == 1 else list(entry[1]) for entry in series]
    payload = {
        "fn": args.fn,
        "at": at,
        "order": args.order,
        "normalization": args.normalization,
        "values": values,
        "series": [{"monomial": label, "values": list(vals)} for label, vals in series],
    }
    _emit(payload, args.format,
          ["jet of %s at %s (order %d, %s)" % (args.fn, args.at, args.order, args.normalization)]
          + ["  %s: %s" % (label, ", ".join(scalars.format_scalar(v) for v in vals))
             for label, vals in series])
    return 0


def cmd_partials(args) -> int:
    mode = args.scalar
    at = _parse_point(args.at, mode)
    orders = [int(p) for p in args.orders.split(",") if p.strip()]
    f = _load_map(args.fn, len(at))
    norm = DERIVATIVE if args.normalization == "derivative" else RAW
    table = partials(f, at, orders, norm)
    entries = []
    for m in table.algebra.basis:
        exps = tuple(m.exponent(i) for i in range(f.arity))
        vals = table.value(exps)
        entries.append({"orders": list(exps), "values": list(vals)})
    _require_finite(("orders %s" % e["orders"], e["values"]) for e in entries)
    payload = {"fn": args.fn, "at": at, "orders": orders,
               "normalization": args.normalization, "entries": entries}
    _emit(payload, args.format,
          ["partials of %s at %s up to %s" % (args.fn, args.at, args.orders)]
          + ["  %s: %s" % (e["orders"], ", ".join(scalars.format_scalar(v) for v in e["values"]))
             for e in entries])
    return 0


def cmd_morphism(args) -> int:
    src = algebra_from_spec(args.source)
    tgt = algebra_from_spec(args.target)
    mode = args.scalar

    def element(spec_text, w):
        f = parse_smooth_map(spec_text, w.generator_names)
        gens = [generator(w, i, mode) for i in range(len(w.generator_names))]
        return lift_eval(f, w, gens, mode=mode)[0]

    images = [element(part, tgt) for part in args.images.split(";") if part.strip()]
    phi = morphism_from_generator_images(src, tgt, images)
    value = element(args.value, src)
    result = push_along(phi, value)
    _require_finite([("value", value.coeffs), ("result", result.coeffs)])
    payload = {
        "source": src.name,
        "target": tgt.name,
        "value": list(value.coeffs),
        "result": {"coeffs": list(result.coeffs), "text": result.format()},
    }
    _emit(payload, args.format, ["%s  |->  %s" % (value.format(), result.format())])
    return 0


def cmd_laws(args) -> int:
    selected = args.law or list(LAW_IDS)
    for law_id in selected:
        if law_id not in LAW_IDS:
            raise WeilError("unknown law %r; known: %s" % (law_id, " ".join(LAW_IDS)))
    reports = []
    for law_id in selected:
        for instance in default_instances(law_id, args.scalar, args.seed):
            reports.append(run_law(instance, max_enum=args.max_enum))
    payload = [r.to_json() for r in reports]
    lines = ["%-4s %-8s %-9s %5d checks  %s" % (
        r.law_id, r.model, r.scalar_mode, r.instances_run,
        "pass" if r.passed else "FAIL (%d)" % r.failures) for r in reports]
    infos = {i.law_id: i.statement for i in enumerate_laws()}
    if args.format == "human":
        lines += ["", "statements:"]
        lines += ["  %s: %s" % (law, infos[law]) for law in selected]
    _emit(payload, args.format, lines)
    return 0 if all(r.passed for r in reports) else 1


def cmd_model(args) -> int:
    instance = load_instance_file(args.input)
    roles = instance.resolved
    bound = args.max_enum

    if args.check == "ccc":
        reports = [verify_ccc(m, n, roles.ccc_probes, roles.ccc_probe_morphisms, max_enum=bound)
                   for m in roles.ccc_functors for n in roles.ccc_functors]
    elif args.check == "slice-ccc":
        reports = [verify_slice_ccc(roles.slice_base, a, b, roles.slice_probes, max_enum=bound)
                   for a, b in roles.slice_pairs]
    elif args.check == "exp-compat":
        reports = [exp_compat_check(*r.args, r.second, bound) for r in roles.exp_compat]
        reports += [exp_compat_check_slice(*r.args, r.second, bound)
                    for r in roles.slice_exp_compat]
    else:
        reports = [localization_check(*r.args, r.second, bound) for r in roles.localization]

    payload = {
        "instance": instance.name,
        "check": args.check,
        "passed": all(r.passed for r in reports),
        "reports": [r.to_json() for r in reports],
    }
    _emit(payload, args.format, [r.summary() for r in reports])
    return 0 if payload["passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: nothing in it depends on the environment."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "human"), default="json")
    common.add_argument("--max-enum", type=_positive_int, default=None,
                        help="candidate bound for finite enumerations "
                             "(default: WEILAD_MAX_ENUM or 10^7)")

    parser = argparse.ArgumentParser(
        prog="weilad",
        description="Exact truncation-algebra arithmetic, derivative extraction, "
                    "and the structural law suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="inspect algebras")
    alg_sub = alg.add_subparsers(dest="action", required=True)
    info = alg_sub.add_parser("info", parents=[common],
                              help="basis, dimension, multiplication table")
    info.add_argument("spec", help="builtin (base, dual:N, jet:R, mixed:R1,R2,...) or file path")
    ten = alg_sub.add_parser("tensor", parents=[common], help="tensor product of two algebras")
    ten.add_argument("spec", help="first algebra")
    ten.add_argument("spec2", help="second algebra")

    jet_p = sub.add_parser("jet", parents=[common], help="Taylor data of a one-variable map")
    jet_p.add_argument("--fn", required=True, help="expression in x, or a function file")
    jet_p.add_argument("--at", required=True)
    jet_p.add_argument("--order", type=int, required=True)
    jet_p.add_argument("--scalar", choices=scalars.MODES, default=scalars.FLOAT)
    jet_p.add_argument("--normalization", choices=("derivative", "raw"), default="derivative")

    par_p = sub.add_parser("partials", parents=[common],
                           help="mixed partials of a multivariable map")
    par_p.add_argument("--fn", required=True, help="expression in x,y,z,w or a function file")
    par_p.add_argument("--at", required=True, help="comma-separated coordinates")
    par_p.add_argument("--orders", required=True, help="comma-separated orders per variable")
    par_p.add_argument("--scalar", choices=scalars.MODES, default=scalars.FLOAT)
    par_p.add_argument("--normalization", choices=("derivative", "raw"), default="derivative")

    mor = sub.add_parser("morphism", help="build a morphism from generator images and apply it")
    mor_sub = mor.add_subparsers(dest="action", required=True)
    mor_apply = mor_sub.add_parser("apply", parents=[common])
    mor_apply.add_argument("--from", dest="source", required=True)
    mor_apply.add_argument("--to", dest="target", required=True)
    mor_apply.add_argument("--images", required=True,
                           help="semicolon-separated expressions in the target's generators")
    mor_apply.add_argument("--value", required=True,
                           help="expression in the source's generators")
    mor_apply.add_argument("--scalar", choices=scalars.MODES, default=scalars.RATIONAL)

    laws_p = sub.add_parser("laws", help="run the law suite")
    laws_sub = laws_p.add_subparsers(dest="action", required=True)
    laws_run = laws_sub.add_parser("run", parents=[common])
    laws_run.add_argument("--law", action="append", help="law id (repeatable); default all")
    laws_run.add_argument("--scalar", choices=scalars.MODES, default=scalars.RATIONAL)
    laws_run.add_argument("--seed", type=int, default=0)

    model = sub.add_parser("model", help="finite-model structural checks")
    model_sub = model.add_subparsers(dest="action", required=True)
    model_check = model_sub.add_parser("check", parents=[common])
    model_check.add_argument("--input", required=True, help="instance JSON file")
    model_check.add_argument("--check", required=True,
                             choices=("ccc", "slice-ccc", "exp-compat", "localization"))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "algebra":
            return cmd_algebra(args)
        if args.command == "jet":
            return cmd_jet(args)
        if args.command == "partials":
            return cmd_partials(args)
        if args.command == "morphism":
            return cmd_morphism(args)
        if args.command == "laws":
            return cmd_laws(args)
        return cmd_model(args)
    except WeilError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if args.format == "json":
            print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
        else:
            print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

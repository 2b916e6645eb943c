"""The three workloads: request generation, execution and output checks.

Each workload is a closed loop of one client.  Requests come in blocks; a
block has a fixed composition (so many requests of each order, dimension
stratum, scalar mode and command) and only the random content inside each
slot depends on the seed.  Block ``b`` is generated from its own derived
seed, so the request sequence is the same whatever part of it a run
reaches.  Runs stop at block boundaries, so every run measures whole blocks.

Execution goes through public entry points only: ``weilad.expr`` parsing,
``weilad.functor.jet``/``partials`` and ``weilad.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import exprgen
import oracle


def derive(*parts) -> int:
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class NumericRequest:
    nodes: tuple
    text: str
    point: tuple
    orders: tuple
    exact: bool


def _float_point(n):
    return lambda rng: tuple(rng.uniform(-1.0, 1.0) for _ in range(n))


def _rational_point(n):
    return lambda rng: tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(n))


def _numeric_request(rng, orders, exact, shape):
    n_vars = len(orders)
    point_fn = _rational_point(n_vars) if exact else _float_point(n_vars)
    nodes, point = exprgen.safe_dag(rng, point_fn, n_vars, shape, exact)
    return NumericRequest(tuple(nodes), exprgen.render(nodes), point, tuple(orders), exact)


def _deal_primitives(rng, slots: int, per_request: int):
    """Split ``slots * per_request`` primitive uses evenly over the nine names."""
    names = list(exprgen.PRIMITIVE_NAMES) * (slots * per_request // len(exprgen.PRIMITIVE_NAMES) + 1)
    names = names[: slots * per_request]
    rng.shuffle(names)
    return [names[i * per_request:(i + 1) * per_request] for i in range(slots)]


# ---------------------------------------------------------------------------
# jet-taylor


class JetTaylor:
    """Univariate Taylor coefficients at orders 4-48.

    A block holds 12 float requests, one per order stratum of width 4 over
    4..48, and 4 rational requests, one per stratum of width 8 over 4..35
    (exact arithmetic at higher orders costs several times more from one
    expression to the next, which would let a few requests set p90); which
    order of its stratum a slot gets cycles with the block number.  A float
    expression has three primitive calls (every primitive four times per
    block), the binary ops + - * / and one power -1 or -2; a rational one
    has a recip call, + - * * / and one power -1 or -2.  Every rational
    result is compared exactly with ring_series, every float result with
    mpmath.taylor (see oracle.FLOAT_CHECK_ORDER).
    """

    name = "jet-taylor"
    modules = ("weilad",)
    setup_blocks = 60

    @staticmethod
    def float_shape(rng, calls):
        return exprgen.Shape(tuple(calls), "+-*/", (rng.choice((-1, -2)),))

    @staticmethod
    def exact_shape(rng):
        return exprgen.Shape(("recip",), "+-**/", (rng.choice((-1, -2)),))

    def setup(self, weilad, seed):
        return [self.block(seed, b) for b in range(self.setup_blocks)]

    def block(self, seed, b):
        rng = random.Random(derive(self.name, seed, b))
        calls = _deal_primitives(rng, 12, 3)
        out = [_numeric_request(rng, (min(48, 4 + 4 * i + (b + i) % 4),), False,
                                self.float_shape(rng, calls[i]))
               for i in range(12)]
        out += [_numeric_request(rng, (4 + 8 * i + (b + i) % 8,), True, self.exact_shape(rng))
                for i in range(4)]
        rng.shuffle(out)
        return out

    def warmup(self, seed):
        # Orders 1-3 lie outside the timed strata, so no timed algebra is pre-built.
        rng = random.Random(derive(self.name, seed, "warmup"))
        return [_numeric_request(rng, (1,), False, self.float_shape(rng, ["exp", "sin", "log"])),
                _numeric_request(rng, (2,), True, self.exact_shape(rng)),
                _numeric_request(rng, (3,), False, self.float_shape(rng, ["tan", "atan", "sqrt"]))]

    def run(self, weilad, req):
        f = weilad.expr.parse_smooth_map(req.text, exprgen.VAR_NAMES[:1])
        table = weilad.functor.jet(f, req.point[0], req.orders[0])
        return [table.derivative(k)[0] for k in range(req.orders[0] + 1)]

    def check(self, req, out):
        if req.exact:
            return oracle.exact_mismatch(req.nodes, req.point, req.orders,
                                         {(k,): v for k, v in enumerate(out)})
        return oracle.float_jet_mismatch(req.nodes, req.point[0], out)


# ---------------------------------------------------------------------------
# partials-grid


def _dim(orders) -> int:
    return math.prod(o + 1 for o in orders)


class PartialsGrid:
    """Mixed partials of 2-4 variables, per-variable orders 1-6.

    A block holds 11 requests: one for each of six hot order tuples, which
    recur in every block at fresh points and expressions, and five cold
    tuples, one per dimension stratum, drawn without replacement so each is
    new to the run until its stratum is exhausted.  Five requests lie below
    the hot dimension 100 and five above it, so the median request is always
    the hot (4,4,3); the two largest are always the hot (5,5,5) and (3,3,3,3),
    so every block reaches the same peak algebra size and p90 falls between
    two fixed tuples.  Expressions are light (one primitive call, or recip in
    rational mode, and the binary ops + - *), so building the algebra is most
    of a request.  Requests of dimension below 40 are rational and checked
    exactly; every float result is checked for finiteness and on a seeded
    sample of its low-order entries with mpmath.diff.
    """

    name = "partials-grid"
    modules = ("weilad",)
    setup_blocks = 40
    HOT = [(3, 3), (2, 2, 2), (3, 2, 1, 1), (4, 4, 3), (5, 5, 5), (3, 3, 3, 3)]
    COLD_STRATA = [(9, 40), (40, 90), (110, 150), (150, 180), (180, 210)]
    EXACT_BELOW = 40

    def _cold_pools(self, seed):
        rng = random.Random(derive(self.name, seed, "cold"))
        pools = []
        for lo, hi in self.COLD_STRATA:
            pool = [t for n in (2, 3, 4) for t in itertools.product(range(1, 7), repeat=n)
                    if lo <= _dim(t) < hi and t not in self.HOT]
            rng.shuffle(pool)
            pools.append(pool)
        return pools

    def setup(self, weilad, seed):
        self._pools = self._cold_pools(seed)
        return [self.block(seed, b) for b in range(self.setup_blocks)]

    def block(self, seed, b):
        rng = random.Random(derive(self.name, seed, b))
        tuples = list(self.HOT) + [pool[b % len(pool)] for pool in self._pools]
        calls = _deal_primitives(rng, len(tuples), 1)
        out = []
        for i, t in enumerate(tuples):
            exact = _dim(t) < self.EXACT_BELOW
            out.append(_numeric_request(rng, t, exact, self.shape(calls[i], exact)))
        rng.shuffle(out)
        return out

    def warmup(self, seed):
        # One-variable requests: their algebras never occur in the timed blocks.
        rng = random.Random(derive(self.name, seed, "warmup"))
        return [_numeric_request(rng, (2,), True, self.shape(["recip"], True)),
                _numeric_request(rng, (5,), False, self.shape(["exp"], False))]

    @staticmethod
    def shape(calls, exact):
        return exprgen.Shape(("recip",) if exact else tuple(calls), "+-*", ())

    def run(self, weilad, req):
        n = len(req.orders)
        f = weilad.expr.parse_smooth_map(req.text, exprgen.VAR_NAMES[:n])
        table = weilad.functor.partials(f, req.point, req.orders)
        return {e: table.derivative(e)[0]
                for e in itertools.product(*(range(o + 1) for o in req.orders))}

    def check(self, req, out):
        if req.exact:
            return oracle.exact_mismatch(req.nodes, req.point, req.orders, out)
        bad = [e for e, v in out.items() if not math.isfinite(v)]
        if bad:
            return "partial %s is %r" % (bad[0], out[bad[0]])
        rng = random.Random(derive(self.name, "check", req.text))
        low = [e for e in out if sum(e) <= oracle.FLOAT_CHECK_TOTAL_ORDER]
        for e in [low[0]] + rng.sample(low[1:], min(7, len(low) - 1)):
            bad = oracle.float_partial_mismatch(req.nodes, req.point, e, out[e])
            if bad:
                return bad
        return None


# ---------------------------------------------------------------------------
# law-check


LAW_IDS = tuple("L%d" % i for i in range(1, 13))
INSTANCES = ("terminal", "arrow", "iso", "idem")
MODEL_CHECKS = ("ccc", "slice-ccc", "exp-compat", "localization")


@dataclass(frozen=True)
class CliRequest:
    argv: tuple
    deterministic: bool  # rational output: must be byte-identical on every repeat


class LawCheck:
    """Every law in both scalar modes and every model check on every bundled
    instance: 40 CLI commands per block, in a seeded order.  The law seed is
    the run seed, so every block repeats the same commands and the rational
    outputs can be compared byte for byte."""

    name = "law-check"
    modules = ("weilad", "weilad.cli")
    setup_blocks = 8

    def setup(self, weilad, seed):
        weilad.corpus.polyrat_maps()
        weilad.corpus.smooth_maps()
        weilad.corpus.bundled_instances()
        root = os.path.join(os.path.dirname(weilad.__file__), "data", "instances")
        self._seen = {}
        self._commands = [
            CliRequest(("laws", "run", "--law", law, "--scalar", mode, "--seed", str(seed)),
                       mode == "rational")
            for law in LAW_IDS for mode in ("rational", "float")
        ] + [
            CliRequest(("model", "check", "--input", os.path.join(root, inst + ".json"),
                        "--check", check), True)
            for inst in INSTANCES for check in MODEL_CHECKS
        ]
        return [self.block(seed, b) for b in range(self.setup_blocks)]

    def block(self, seed, b):
        out = list(self._commands)
        random.Random(derive(self.name, seed, b)).shuffle(out)
        return out

    def warmup(self, seed):
        # CLI commands outside the timed set: they warm argparse and JSON output only.
        return [CliRequest(("algebra", "info", "dual:2"), True),
                CliRequest(("jet", "--fn", "exp(x)*sin(x)", "--at", "0.5", "--order", "3"), True)]

    def run(self, weilad, req):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = weilad.cli.main(list(req.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, buf.getvalue()

    def check(self, req, out):
        code, text = out
        if code != 0:
            return "exit code %r: %s" % (code, text[:200])
        payload = json.loads(text)
        reports = payload if req.argv[0] == "laws" else payload["reports"]
        if not reports or not all(r["passed"] for r in reports):
            return "a report failed: %s" % text[:200]
        if req.deterministic:
            first = self._seen.setdefault(req.argv, text)
            if first != text:
                return "output differs between repeats of %s" % " ".join(req.argv)
        return None


WORKLOADS = {w.name: w for w in (JetTaylor, PartialsGrid, LawCheck)}

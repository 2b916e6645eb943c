"""Expression DAGs for smooth maps R^n -> R^m.

Grammar: infix ``+ - * /``, ``^`` with a literal integer exponent, unary
minus, function application ``name(arg)`` over the primitive set, decimal and
fraction literals (``3/4`` is exact).  Parsing interns syntactically
identical subtrees, so repeated subexpressions share one node and evaluate
once per call.  An expression may nest at most :data:`MAX_DEPTH` deep, both
in its groups (parentheses, function arguments, unary minus) and in its tree
(so a long ``x+x+...`` chain counts too); deeper input is a
:class:`ParseError`, raised before the recursive parser or evaluator could
run out of stack.

The same DAG evaluates under two interchangeable semantics: plain scalars
(:func:`eval_map`) and algebra elements (:func:`lift_eval` in
``weilad.functor``).  Division always goes through inversion of a unit, so
there is a single place where the unit check lives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import scalars
from .errors import ParseError, UnknownFunction, UnknownVariable, WeilError
from .primitives import PRIMITIVES, Primitive

MAX_DEPTH = 100


@dataclass(frozen=True, eq=False, repr=False)
class Expr:
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    index: int
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    value: Fraction

    def __repr__(self):
        return scalars.format_scalar(self.value)


@dataclass(frozen=True, eq=False, repr=False)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr

    def __repr__(self):
        return "(%r %s %r)" % (self.left, self.op, self.right)


@dataclass(frozen=True, eq=False, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def __repr__(self):
        return "(%r^%d)" % (self.base, self.exponent)


@dataclass(frozen=True, eq=False, repr=False)
class Call(Expr):
    prim: Primitive
    arg: Expr

    def __repr__(self):
        return "%s(%r)" % (self.prim.name, self.arg)


@dataclass(frozen=True)
class SmoothMap:
    """A tuple of expression outputs over ``arity`` input variables."""

    arity: int
    outputs: tuple
    var_names: tuple

    def __post_init__(self):
        for out in self.outputs:
            for node in walk(out):
                if isinstance(node, Var) and node.index >= self.arity:
                    raise ParseError("variable index out of range", 0)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def __repr__(self):
        return "SmoothMap(%s -> %s)" % (
            ",".join(self.var_names),
            "; ".join(repr(o) for o in self.outputs),
        )


def walk(node: Expr):
    seen = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        yield n
        if isinstance(n, Bin):
            stack.extend((n.left, n.right))
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, Call):
            stack.append(n.arg)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class _Parser:
    """Recursive descent with hash-consing of identical subtrees."""

    def __init__(self, text: str, variables):
        self.text = text
        self.vars = {name: i for i, name in enumerate(variables)}
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.nesting = 0
        self._cache: dict = {}
        self._depth: dict = {}

    def _tokenize(self, text):
        tokens = []
        idx = 0
        while idx < len(text):
            m = _TOKEN_RE.match(text, idx)
            if not m or m.end() == idx:
                stripped = text[idx:].lstrip()
                if not stripped:
                    break
                col = len(text) - len(stripped) + 1
                raise ParseError("unexpected character %r" % stripped[0], col)
            idx = m.end()
            kind = m.lastgroup
            tokens.append((kind, m.group(kind), m.start(kind) + 1))
        tokens.append(("end", "", len(text) + 1))
        return tokens

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, value):
        kind, text, col = self._peek()
        if kind == "op" and text == value:
            return self._next()
        raise ParseError("expected %r" % value, col)

    def _check_depth(self, depth):
        if depth > MAX_DEPTH:
            raise ParseError("expression nested %d deep, more than the bound of %d"
                             % (depth, MAX_DEPTH), self._peek()[2])

    def _group(self, parse):
        """Parse a nested group (parenthesized, a function argument or negated)."""
        self.nesting += 1
        self._check_depth(self.nesting)
        node = parse()
        self.nesting -= 1
        return node

    # hash-consing constructors; each node records the height of its tree

    def _node(self, key, build, *children):
        node = self._cache.get(key)
        if node is None:
            depth = 1 + max((self._depth[id(c)] for c in children), default=0)
            self._check_depth(depth)
            node = build()
            self._cache[key] = node
            self._depth[id(node)] = depth
        return node

    def var(self, index, name):
        return self._node(("v", index), lambda: Var(index, name))

    def const(self, value):
        return self._node(("c", value), lambda: Const(value))

    def bin(self, op, left, right):
        return self._node(("b", op, id(left), id(right)), lambda: Bin(op, left, right),
                          left, right)

    def pow(self, base, exponent):
        return self._node(("p", id(base), exponent), lambda: Pow(base, exponent), base)

    def call(self, prim, arg):
        return self._node(("f", prim.name, id(arg)), lambda: Call(prim, arg), arg)

    # grammar

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, col = self._peek()
        if kind != "end":
            raise ParseError("unexpected trailing input %r" % text, col)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._next()
                node = self.bin(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "*/":
                self._next()
                node = self.bin(text, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, text, _ = self._peek()
        if kind == "op" and text == "-":
            self._next()
            inner = self._group(self.factor)
            return self.bin("-", self.const(Fraction(0)), inner)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text == "^":
                self._next()
                node = self.pow(node, self._int_literal())
            else:
                return node

    def _int_literal(self) -> int:
        sign = 1
        kind, text, col = self._peek()
        if kind == "op" and text == "-":
            self._next()
            sign = -1
            kind, text, col = self._peek()
        if kind != "number" or not re.fullmatch(r"\d+", text):
            raise ParseError("exponent must be an integer literal", col)
        self._next()
        return sign * int(text)

    def atom(self) -> Expr:
        kind, text, col = self._next()
        if kind == "number":
            return self.const(Fraction(text))
        if kind == "name":
            nkind, ntext, _ = self._peek()
            if nkind == "op" and ntext == "(":
                prim = PRIMITIVES.get(text)
                if prim is None:
                    raise UnknownFunction("unknown function %r" % text, col)
                self._next()
                arg = self._group(self.expr)
                self._expect(")")
                return self.call(prim, arg)
            if text in self.vars:
                return self.var(self.vars[text], text)
            raise UnknownVariable("unknown variable %r" % text, col)
        if kind == "op" and text == "(":
            node = self._group(self.expr)
            self._expect(")")
            return node
        raise ParseError("unexpected %s" % (repr(text) if text else "end of input"), col)


def parse_expr(text: str, variables) -> Expr:
    return _Parser(text, variables).parse()


def parse_smooth_map(text: str, variables) -> SmoothMap:
    """Parse one expression into a single-output map."""
    variables = tuple(variables)
    return SmoothMap(len(variables), (parse_expr(text, variables),), variables)


def parse_function_file(text: str) -> SmoothMap:
    """Multi-output map: first line ``vars x y ...``, then one expression per line."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines or not lines[0].startswith("vars"):
        raise ParseError("function file must start with 'vars ...'", 1)
    variables = tuple(lines[0][len("vars"):].split())
    parser_vars = {v: i for i, v in enumerate(variables)}
    outputs = []
    shared = _Parser("", variables)
    for ln in lines[1:]:
        sub = _Parser(ln, variables)
        sub.vars = parser_vars
        sub._cache = shared._cache
        sub._depth = shared._depth
        outputs.append(sub.parse())
    if not outputs:
        raise ParseError("function file has no output expressions", 1)
    return SmoothMap(len(variables), tuple(outputs), variables)


def tuple_map(*maps: SmoothMap) -> SmoothMap:
    """Concatenate the outputs of maps with identical inputs."""
    arity = maps[0].arity
    names = maps[0].var_names
    if any(m.arity != arity for m in maps):
        raise WeilError("tupled maps must share their input variables")
    outputs = tuple(o for m in maps for o in m.outputs)
    return SmoothMap(arity, outputs, names)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(f: SmoothMap, inputs, semantics) -> list:
    if len(inputs) != f.arity:
        raise WeilError("map of arity %d got %d inputs" % (f.arity, len(inputs)))
    memo: dict = {}

    def ev(node):
        key = id(node)
        if key in memo:
            return memo[key]
        try:
            if isinstance(node, Var):
                val = inputs[node.index]
            elif isinstance(node, Const):
                val = semantics.const(node.value)
            elif isinstance(node, Bin):
                a, b = ev(node.left), ev(node.right)
                val = semantics.binary(node.op, a, b)
            elif isinstance(node, Pow):
                val = semantics.power(ev(node.base), node.exponent)
            else:
                val = semantics.call(node.prim, ev(node.arg))
        except WeilError as exc:
            if not getattr(exc, "_located", False):
                exc._located = True
                exc.args = ("%s (while evaluating %r)" % (exc.args[0] if exc.args else exc, node),) + exc.args[1:]
            raise
        memo[key] = val
        return val

    return [ev(out) for out in f.outputs]

"""Small closed expression language for coefficients and weights.

Expressions are immutable trees over one spatial variable ``x`` and named
parameters, with node kinds

    const, x, param, add, mul, div, neg, pow (constant exponent),
    exp, log, abs, sign, tanh

which is enough to express every coefficient, potential and weight used by
the rest of the package while keeping symbolic differentiation total: the
derivative of an expression is again an expression.  No general computer
algebra is attempted; simplification is deliberately conservative (constant
folding, 0/1 identities, power merging) so that it can only rearrange, never
reinterpret.

Grammar accepted by :func:`parse`::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom (('^' | '**') factor)?      # right associative
    atom    := NUMBER | NAME '(' expr ')' | NAME | '(' expr ')'

``x`` is the spatial variable; any other bare name is a parameter.  Known
function names: exp, log, abs, sign, tanh, sqrt (sqrt(u) is sugar for
u^0.5).  A power whose exponent does not fold to a constant is desugared to
exp(exponent*log(base)); this is what makes parameter exponents such as
abs(x)^eps expressible, and it agrees with the constant-exponent power
wherever the base is positive (and in the limit 0 at base 0 with positive
exponent, because log evaluates to -inf there).  Python's parser tokenizes
(``ast.parse``, with ``^`` read as ``**``); :func:`parse` keeps the nodes of
this grammar and refuses the rest, Python keywords as names included.

Evaluation follows IEEE semantics: +-inf and NaN propagate.  The only hard
evaluation errors are an unbound parameter and log of a strictly negative
argument, both reported with the offending input.

:func:`evaluate` compiles a tree on its first evaluation into one flat
numpy function, built once per tree shape (constants are arguments) and kept
on the node.  Integer powers up to 16 in magnitude are computed by
multiplies, so they may differ from ``np.power`` in the last bit; ``^2``,
``^0.5`` and ``^-1`` match it exactly.

:func:`kernel` lowers several trees together, so that their common subtrees
are computed once, into a function that writes every result into a
workspace of arrays its caller allocates once and passes in.  Every call
computes every tree; the operations and their order are those of
:func:`evaluate`, so the results are bit-identical to it.  The Monte-Carlo
loop evaluates a path's integrand, drift and sigma through one kernel call
per step, allocating nothing.  On
arrays of a few hundred points :func:`evaluate` is as fast or faster, since
each call with ``out=`` costs a little more; on arrays of 2e4 points the
kernel takes about a third of its time.  So :func:`evaluate` keeps its own
emitter.

:func:`compiled` hands out that emitter's function for one or more trees
lowered together, returning their values as a tuple.  It serves the hot
loops of small evaluations, where ``evaluate``'s own cost per call (the
``np.errstate`` it enters and its conversions, about 3 us) exceeds the
work: the scalar killing rate under bounded Brent, and an integrand and
the measure density evaluated together in each quadrature round.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "Expr",
    "Kernel",
    "ExprError",
    "ParseError",
    "EvalError",
    "X",
    "const",
    "param",
    "add",
    "mul",
    "div",
    "neg",
    "pow_",
    "exp",
    "log",
    "absval",
    "sign",
    "tanh",
    "sqrt",
    "parse",
    "to_string",
    "evaluate",
    "kernel",
    "compiled",
    "differentiate",
    "simplify",
    "substitute",
    "free_params",
]


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Syntax or lexical error; carries the position in the source string.

    ``args`` holds the three arguments, so the error pickles (and crosses a
    process boundary) like any exception."""

    def __init__(self, message: str, source: str, pos: int):
        self.source = source
        self.pos = pos
        super().__init__(message, source, pos)

    def __str__(self) -> str:
        message, source, pos = self.args
        return f"{message} at position {pos}: {source!r}"


class EvalError(ExprError):
    """Evaluation failure (unbound parameter, domain error)."""


_FUNCTIONS = {"exp": np.exp, "log": np.log, "abs": np.abs, "sign": np.sign, "tanh": np.tanh}


@dataclass(frozen=True)
class Expr:
    """One node of an expression tree.

    ``op`` is the node kind; ``args`` holds child expressions; ``value``
    carries the constant for ``const`` nodes and the exponent for ``pow``
    nodes; ``name`` carries the identifier for ``param`` nodes.
    """

    op: str
    args: tuple["Expr", ...] = ()
    value: float | None = None
    name: str | None = None

    def __repr__(self):  # keep test output readable
        return f"Expr({to_string(self)!r})"

    def __getstate__(self):
        # the compiled function kept by evaluate() is a cache, not state
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state


def _as_expr(obj) -> Expr:
    if isinstance(obj, Expr):
        return obj
    raise TypeError(f"expected an Expr, got {obj!r}")


# ---- constructors -------------------------------------------------------

X = Expr("x")


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def param(name: str) -> Expr:
    if name == "x":
        raise ValueError("'x' is the spatial variable, not a parameter")
    return Expr("param", name=name)


def add(*terms) -> Expr:
    terms = tuple(_as_expr(t) for t in terms)
    if len(terms) == 1:
        return terms[0]
    return Expr("add", args=terms)


def mul(*factors) -> Expr:
    factors = tuple(_as_expr(f) for f in factors)
    if len(factors) == 1:
        return factors[0]
    return Expr("mul", args=factors)


def div(num, den) -> Expr:
    return Expr("div", args=(_as_expr(num), _as_expr(den)))


def neg(e) -> Expr:
    return Expr("neg", args=(_as_expr(e),))


def pow_(base, exponent) -> Expr:
    """Power with constant exponent; non-constant exponents desugar via exp/log."""
    base = _as_expr(base)
    if isinstance(exponent, Expr):
        folded = simplify(exponent)
        if folded.op == "const":
            return Expr("pow", args=(base,), value=folded.value)
        return exp(mul(exponent, log(base)))
    return Expr("pow", args=(base,), value=float(exponent))


def exp(e) -> Expr:
    return Expr("exp", args=(_as_expr(e),))


def log(e) -> Expr:
    return Expr("log", args=(_as_expr(e),))


def absval(e) -> Expr:
    return Expr("abs", args=(_as_expr(e),))


def sign(e) -> Expr:
    return Expr("sign", args=(_as_expr(e),))


def tanh(e) -> Expr:
    return Expr("tanh", args=(_as_expr(e),))


def sqrt(e) -> Expr:
    return pow_(e, 0.5)


# ---- parsing ------------------------------------------------------------


_REFUSED = re.compile(r"[^\w\s.+\-*/^(),]")
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_LEXEME = re.compile(r"\w+|\*\*|\S")
_SPACE = re.compile(r"\s")
_OPENING = re.compile(rb"[ ()]*")
_CLOSING = re.compile(rb"[ )]*")
_BINARY = {ast.Add: add, ast.Sub: lambda a, b: add(a, neg(b)), ast.Mult: mul, ast.Div: div, ast.Pow: pow_}


def parse(source: str) -> Expr:
    """Parse a string into an expression tree."""
    bad = _REFUSED.search(source)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", source, bad.start())
    spaced = _SPACE.sub(" ", source)
    body = spaced.lstrip(" ")
    text = body.replace("^", "**")
    data = text.encode()

    def error(i: int, message: str | None = None) -> ParseError:
        # i counts bytes of data, as node offsets do
        lead = len(spaced) - len(body)
        at = [lead + k for k, c in enumerate(body) for _ in range(2 if c == "^" else len(c.encode()))]
        pos = (at + [len(source)])[i]
        if message is None:
            lexeme = _LEXEME.match(source, pos)
            message = f"unexpected {lexeme.group() if lexeme else 'end of input'!r}"
        return ParseError(message, source, pos)

    def segment(node: ast.expr) -> str:
        return data[node.col_offset:node.end_col_offset].decode()

    def tree(node: ast.expr) -> Expr:
        kind = type(node)
        if kind is ast.BinOp and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](tree(node.left), tree(node.right))
        if kind is ast.UnaryOp and type(node.op) is ast.USub:
            return neg(tree(node.operand))
        word = segment(node)  # a name's spelling, not Python's NFKC-normalised id
        if kind is ast.Constant and _NUMBER.fullmatch(word):
            return const(float(word))
        if kind is ast.Name and (word[0].isalpha() or word[0] == "_"):
            return X if word == "x" else param(word)
        if kind is ast.Call:
            paren = data.index(b"(", node.func.end_col_offset)
            if type(node.func) is not ast.Name or node.func.col_offset != node.col_offset:
                raise error(paren)  # (exp)(x), exp(x)(y)
            name = segment(node.func)
            if name != "sqrt" and name not in _FUNCTIONS:
                raise error(node.col_offset, f"unknown function {name!r}")
            if (len(node.args) != 1 or node.keywords
                    or b"," in data[node.args[0].end_col_offset:node.end_col_offset]):
                raise error(paren, f"{name}() takes one argument")
            inner = tree(node.args[0])
            return sqrt(inner) if name == "sqrt" else Expr(name, args=(inner,))
        # refused at the first token no child covers: the operator of x // 2,
        # the dot of x.real, the 'if' of a if b else c
        i = node.col_offset
        for child in sorted((c for c in ast.iter_child_nodes(node) if hasattr(c, "col_offset")),
                            key=lambda c: c.col_offset):
            if _OPENING.match(data, i).end() < child.col_offset:
                break
            i = child.end_col_offset
        raise error(_CLOSING.match(data, i).end())

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. the SyntaxWarning on '1if'
            root = ast.parse(text, mode="eval").body
    except SyntaxError as err:  # its offset counts characters of text, from 1
        i = len(text[:err.offset - 1].encode()) if (err.offset or 0) > 0 else len(data)
        # an unclosed '(' is reported where it opens: the input ended inside it
        raise error(len(data) if data[i:i + 1] == b"(" else i) from None
    return tree(root)


# ---- printing -----------------------------------------------------------

_PREC = {"add": 1, "neg": 2, "mul": 3, "div": 3, "pow": 4}
_ATOM_PREC = 5


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _prec(e: Expr) -> int:
    return _PREC.get(e.op, _ATOM_PREC)


def _paren(child: Expr, parent_prec: int, right_side: bool = False) -> str:
    s = to_string(child)
    p = _prec(child)
    if p < parent_prec or (right_side and p == parent_prec):
        return f"({s})"
    return s


def to_string(e: Expr) -> str:
    """Render an expression; parse(to_string(e)) evaluates identically to e."""
    if e.op == "const":
        v = e.value
        if math.copysign(1.0, v) < 0:  # the sign bit, so -0.0 prints as -0
            return f"-{_fmt_number(-v)}"
        return _fmt_number(v)
    if e.op == "x":
        return "x"
    if e.op == "param":
        return e.name
    if e.op == "add":
        parts = [_paren(e.args[0], _PREC["add"])]
        for a in e.args[1:]:
            if a.op == "neg":
                parts.append(" - " + _paren(a.args[0], _PREC["add"] + 1))
            elif a.op == "const" and math.copysign(1.0, a.value) < 0:
                parts.append(" - " + _fmt_number(-a.value))
            else:
                parts.append(" + " + _paren(a, _PREC["add"] + 1))
        return "".join(parts)
    if e.op == "mul":
        return "*".join(_paren(a, _PREC["mul"]) for a in e.args)
    if e.op == "div":
        return f"{_paren(e.args[0], _PREC['div'])}/{_paren(e.args[1], _PREC['div'], right_side=True)}"
    if e.op == "neg":
        return f"-{_paren(e.args[0], _PREC['neg'])}"
    if e.op == "pow":
        base = e.args[0]
        if base.op == "const" and math.copysign(1.0, base.value) < 0:
            # "-2^2" would parse as -(2^2)
            return f"({to_string(base)})^{_fmt_number_exp(e.value)}"
        return f"{_paren(base, _PREC['pow'] + 1)}^{_fmt_number_exp(e.value)}"
    if e.op in _FUNCTIONS:
        return f"{e.op}({to_string(e.args[0])})"
    raise ExprError(f"unknown node kind {e.op!r}")


def _fmt_number_exp(v: float) -> str:
    s = _fmt_number(abs(v))
    return f"(-{s})" if v < 0 else s


# ---- evaluation ---------------------------------------------------------
#
# A tree is lowered once into one straight-line Python function over numpy
# arrays, ``_f(x, c, p)``: one assignment per distinct subtree, in the
# walker's order (operands left to right, children before parents), so a
# repeated subtree is computed once and an evaluation error is raised at the
# same node as a tree walk would raise it.  Constants are not written into
# the code but passed in ``c``, numbered by distinct value, so trees that
# differ only in their constants (one per parameter point of a weight family)
# share one function.  Two constants share a slot only when their values are
# equal, which is what keeps the subtree merging valid for every tree of the
# shape.  The generated source is the shape's cache key.

# Integer powers up to this magnitude become multiplies; the relative error
# grows with the number of roundings, about |n| ulp, far inside 1e-12.
_MAX_UNROLLED_POWER = 16


def _param(params: Mapping[str, float], name: str):
    try:
        return np.float64(float(params[name]))
    except KeyError:
        raise EvalError(f"unbound parameter {name!r}") from None


def _log(u, probe: np.ndarray):
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        bad = np.broadcast_to(probe, np.broadcast(u, probe).shape)
        where = np.broadcast_to(u, bad.shape) < 0
        x_bad = float(bad[where][0]) if bad[where].size else float("nan")
        raise EvalError(f"log of negative argument at x = {x_bad}")
    return np.log(u)  # log(0) -> -inf, propagates


def _log_into(u: np.ndarray, probe: np.ndarray, out: np.ndarray) -> None:
    """``_log`` of an array into ``out``; the test for a negative argument
    allocates nothing (``fmin`` skips NaN as ``u < 0`` does)."""
    if u.size and np.fmin.reduce(u, axis=None) < 0:
        _log(u, probe)  # raises, reporting the first offending x
    np.log(u, out=out)


# the ufunc of each infix chain, which kernel_source calls once per operator
_CHAIN_UFUNCS = {"+": "add", "*": "multiply", "/": "divide"}


def _text(kind: str, reads: tuple, arg) -> str:
    """The right-hand side of one step as ``source`` writes it; it is also
    the step's value-numbering key."""
    if kind in _CHAIN_UFUNCS:
        return f" {kind} ".join(reads)
    if kind == "neg":
        return f"-{reads[0]}"
    if kind == "recip":
        return f"1.0 / {reads[0]}"
    if kind == "log":
        return f"_log({reads[0]}, x)"
    if kind == "power":
        return f"np.power({reads[0]}, {reads[1]})"
    if kind == "param":
        return f"_param(p, {arg!r})"
    return f"np.{kind}({reads[0]})"


class _Lowering:
    """Straight-line code for one or more trees.  ``names`` maps each
    right-hand side to the temporary holding it (value numbering), ``slots``
    each constant's bit pattern to its index in ``consts``; ``steps`` holds
    the assignments as (temporary, kind, operands, argument): an infix chain
    ``reads[0] op reads[1] op ...`` has the operator as its kind, a unary
    function its numpy ufunc's name, ``param`` its name as the argument.

    Two emitters share these steps and their liveness: ``source`` writes the
    function ``evaluate`` runs, each step an expression that returns a new
    array; ``kernel_source`` writes a kernel whose every step is a ufunc call
    that writes into a workspace array it is handed."""

    def __init__(self):
        self.steps: list[tuple[str, str, tuple[str, ...], str | None]] = []
        self.names: dict[str, str] = {}
        self.slots: dict[str, int] = {}
        self.consts: list[np.float64] = []

    def const(self, v: float) -> str:
        key = float(v).hex()  # tells -0.0 from 0.0
        k = self.slots.get(key)
        if k is None:
            k = self.slots[key] = len(self.consts)
            self.consts.append(np.float64(v))
        return f"c{k}"

    def bind(self, kind: str, *reads: str, arg: str | None = None) -> str:
        rhs = _text(kind, reads, arg)
        name = self.names.get(rhs)
        if name is None:
            name = self.names[rhs] = f"t{len(self.names)}"
            self.steps.append((name, kind, reads, arg))
        return name

    def last_reads(self) -> dict[str, int]:
        """The step at which each operand is read for the last time."""
        return {v: i for i, (_, _, reads, _) in enumerate(self.steps) for v in reads}

    def source(self, result: str | tuple[str, ...]) -> str:
        """The function's source: it returns ``result``'s value, or the
        tuple of the values of several results.  A temporary is deleted
        after its last read, so no more arrays are alive at once than in a
        tree walk, apart from the repeated subtrees kept for reuse.

        A dying temporary is reused in place: when the first operand of an
        infix chain (an n-ary sum or product, or a quotient's numerator) is
        a temporary read for the last time, and only once in that step, the
        chain becomes ``t2 = t1; t2 *= x; ...``.  The operations and their
        order are the same, so the values are bit-identical.  A temporary
        is a fresh array of x's shape, or a numpy scalar that ``*=``
        replaces instead of writing, so ``x`` itself is never written."""
        results = (result,) if isinstance(result, str) else result
        last = self.last_reads()
        for r in results:
            last[r] = len(self.steps)  # alive until the function returns
        lines = ["def _f(x, c, p):"]
        if self.consts:
            lines.append("    " + "".join(f"c{k}, " for k in range(len(self.consts))) + "= c")
        for i, (name, kind, reads, arg) in enumerate(self.steps):
            first = reads[0] if kind in _CHAIN_UFUNCS else ""
            if first[:1] == "t" and last[first] == i and reads.count(first) == 1:
                lines.append(f"    {name} = {first}")
                lines.extend(f"    {name} {kind}= {v}" for v in reads[1:])
            else:
                lines.append(f"    {name} = {_text(kind, reads, arg)}")
            dead = [v for v in dict.fromkeys(reads) if v[0] == "t" and last[v] == i]
            if dead:
                lines.append(f"    del {', '.join(dead)}")
        lines.append(f"    return {result if isinstance(result, str) else ', '.join(results) + ','}")
        return "\n".join(lines) + "\n"

    def kernel_source(self, roots: list[str]) -> tuple[str, int, tuple]:
        """A kernel ``_f(x, c, p, w)`` that writes the value of every root
        into its own workspace array: the source, the workspace size, and
        the index in ``w`` of each root's array.

        A step whose operands are all scalars (constants, parameters) stays
        a scalar expression as in ``source``; every other step is one ufunc
        call per operator with ``out=`` a workspace array.  A workspace
        array is free again after the last read of the temporary it held
        (``last_reads``).  A step may write into the array of an operand that
        dies there, unless a later call of the same step still reads it: in
        ``c*t*t`` the second product reads t after the first one has
        written.  Each root gets an array of its own that no later step
        writes, a copy where the root is ``x``, a scalar, or the value of an
        earlier root, so the caller may change it in place.  No call reads
        what an earlier one left in any array, so a caller may share the
        arrays that hold no root with other kernels it runs in turn.  The
        operations and their order are those of ``source``, so the values
        are bit-identical, and ``x`` is never written.  An infix chain's
        leading scalar operands are one scalar expression too, as in
        ``source``: an array of their value may lose its NaN to x's."""
        last = self.last_reads()
        for r in roots:
            last[r] = len(self.steps)  # alive until the kernel returns
        slot: dict[str, int] = {}  # array temporary -> its workspace index
        free: list[int] = []
        size = 0

        def take() -> int:
            nonlocal size
            if free:
                return free.pop()
            size += 1
            return size - 1

        def ref(v: str) -> str:
            return f"w{slot[v]}" if v in slot else v

        body: list[str] = []
        for i, (name, kind, reads, arg) in enumerate(self.steps):
            if not any(v == "x" or v in slot for v in reads):
                body.append(f"    {name} = {_text(kind, reads, arg)}")
                continue
            if kind in _CHAIN_UFUNCS:
                k = next(j for j, v in enumerate(reads) if v == "x" or v in slot)
                if k > 1:  # the leading scalars, as one operand
                    reads = (_text(kind, reads[:k], arg), *reads[k:])
            dying = [v for v in dict.fromkeys(reads) if v in slot and last[v] == i]
            into = next((v for v in dying if v not in reads[2:]), None)
            slot[name] = slot[into] if into else take()
            free += [slot[v] for v in dying if v != into]
            body += _ufunc_calls(kind, [ref(v) for v in reads], f"w{slot[name]}")
        out: list[int] = []
        for r in roots:
            k = slot.get(r)
            if k is None or k in out:
                k = take()
                body.append(f"    np.copyto(w{k}, {ref(r)})")
            out.append(k)
        lines = ["def _f(x, c, p, w):"]
        if self.consts:
            lines.append("    " + "".join(f"c{k}, " for k in range(len(self.consts))) + "= c")
        lines.append("    " + "".join(f"w{k}, " for k in range(size)) + "= w")
        return "\n".join(lines + body) + "\n", size, tuple(out)

    def node(self, e: Expr) -> str:
        op = e.op
        if op == "x":
            return "x"
        if op == "const":
            return self.const(e.value)
        if op == "param":
            return self.bind("param", arg=e.name)
        args = [self.node(a) for a in e.args]
        if op == "add":
            return self.bind("+", *args)
        if op == "mul":
            return self.bind("*", *args)
        if op == "div":
            return self.bind("/", *args)
        if op == "neg":
            return self.bind("neg", *args)
        if op == "pow":
            return self.power(args[0], float(e.value))
        if op == "log":
            return self.bind("log", *args)
        if op in _FUNCTIONS:
            return self.bind(_FUNCTIONS[op].__name__, *args)
        raise ExprError(f"unknown node kind {op!r}")

    def power(self, u: str, c: float) -> str:
        # numpy's own power already takes these fast paths for 0.5, 1, 2
        # and -1, so only other integers move from np.power in the last bit
        if c == 0.5:
            return self.bind("sqrt", u)
        if c.is_integer() and 1 <= abs(c) <= _MAX_UNROLLED_POWER:
            r = self.int_power(u, int(abs(c)))
            return r if c > 0 else self.bind("recip", r)
        return self.bind("power", u, self.const(c))

    def int_power(self, u: str, n: int) -> str:
        if n == 1:
            return u
        half = self.int_power(u, n // 2)
        sq = self.bind("*", half, half)
        return sq if n % 2 == 0 else self.bind("*", sq, u)


def _ufunc_calls(kind: str, reads: list[str], out: str) -> list[str]:
    """One step of ``kernel_source``: the ufunc calls that write it into
    ``out``, an infix chain left to right."""
    if kind in _CHAIN_UFUNCS:
        if len(reads) == 1:
            return [f"    np.copyto({out}, {reads[0]})"]
        f = _CHAIN_UFUNCS[kind]
        return [f"    np.{f}({reads[0]}, {reads[1]}, out={out})"] + [
            f"    np.{f}({out}, {v}, out={out})" for v in reads[2:]]
    if kind == "neg":
        return [f"    np.negative({reads[0]}, out={out})"]
    if kind == "recip":
        return [f"    np.divide(1.0, {reads[0]}, out={out})"]
    if kind == "log":
        return [f"    _log_into({reads[0]}, x, {out})"]
    if kind == "power":
        return [f"    np.power({reads[0]}, {reads[1]}, out={out})"]
    return [f"    np.{kind}({reads[0]}, out={out})"]


@functools.lru_cache(maxsize=1024)
def _function(source: str) -> Callable:
    namespace = {"np": np, "_param": _param, "_log": _log, "_log_into": _log_into}
    exec(compile(source, "<diffgap.expr>", "exec"), namespace)
    return namespace["_f"]


def _compiled(e: Expr) -> tuple[Callable, tuple]:
    """The tree's function and its constants, lowered on first use and kept
    on the node."""
    got = e.__dict__.get("_compiled")
    if got is None:
        low = _Lowering()
        got = (_function(low.source(low.node(e))), tuple(low.consts))
        e.__dict__["_compiled"] = got
    return got


class Kernel(NamedTuple):
    """Several trees evaluated together (see ``_Lowering.kernel_source``): a
    call writes the value of tree i into ``w[roots[i]]``, where the caller
    holds ``w``, a list of ``size`` float arrays of x's shape.  The other
    arrays hold temporaries, which no call leaves for the next, and the
    caller may swap any array for another between calls.

    numpy runs a binary ufunc whose output is its first operand through its
    reduction loop when the array has one element, and that loop may return
    the second operand's NaN where ``evaluate`` returns the first one's.  So
    a one-element ``x`` runs each tree's ``evaluate`` function instead."""

    fn: Callable
    consts: tuple
    size: int
    roots: tuple
    trees: tuple

    def __call__(self, x: np.ndarray, params: Mapping[str, float], w: list):
        """Evaluate every tree at the float array ``x`` into ``w``.
        Floating-point warnings follow the caller's ``np.errstate``; errors
        are those of ``evaluate``."""
        if x.size == 1:
            for t, r in zip(self.trees, self.roots):
                fn, consts = _compiled(t)
                np.copyto(w[r], fn(x, consts, params))
            return
        self.fn(x, self.consts, params, w)


# kernels and compiled functions by the identity of their trees; an entry
# keeps its trees alive, so no other tree can take their ids while it is cached
_LOWERED: dict[tuple, tuple] = {}
_MAX_LOWERED = 256


def _lowered(kind: str, trees: list[Expr], lower: Callable):
    """``lower()``, kept by ``kind`` and the identity of ``trees``."""
    key = (kind, *map(id, trees))
    got = _LOWERED.get(key)
    if got is None:
        if len(_LOWERED) >= _MAX_LOWERED:
            _LOWERED.pop(next(iter(_LOWERED)))
        got = _LOWERED[key] = (lower(), tuple(trees))
    return got[0]


def kernel(trees: list[Expr]) -> Kernel:
    """The kernel of ``trees``, lowered together so that their common
    subtrees are computed once; every call computes every tree.  Kernels
    are kept by the identity of their trees; lowering one writes no tree."""
    def lower():
        low = _Lowering()
        source, size, slots = low.kernel_source([low.node(t) for t in trees])
        return Kernel(_function(source), tuple(low.consts), size, slots, tuple(trees))

    return _lowered("kernel", trees, lower)


def compiled(trees: list[Expr]) -> tuple[Callable, tuple]:
    """``trees`` lowered together into one function ``f`` and its constants
    ``c``: ``f(x, c, params)`` returns the tuple of the trees' values at a
    float ndarray or ``np.float64`` ``x``, computing their common subtrees
    once.  The steps are those of ``evaluate``, so every value is
    bit-identical to its ``evaluate``.  A call costs no more than the steps:
    it converts nothing and enters no ``np.errstate``, so floating-point
    warnings follow the caller's, and a value may be a numpy scalar or ``x``
    itself, which the caller must not write.  Kept by the identity of the
    trees, as kernels are; lowering writes no tree."""
    def lower():
        low = _Lowering()
        return _function(low.source(tuple(low.node(t) for t in trees))), tuple(low.consts)

    return _lowered("compiled", trees, lower)


def evaluate(e: Expr, x, params: Mapping[str, float] | None = None):
    """Evaluate at a scalar or ndarray ``x``.

    Returns a float for scalar input, an ndarray otherwise; the ndarray is
    the caller's own, never ``x`` or a view of it, so it may be changed in
    place.  +-inf and NaN propagate; unbound parameters and log of a
    negative argument raise :class:`EvalError` (the latter reports the
    offending x).  The tree is compiled on its first evaluation (see the
    module docstring).
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    fn, consts = _compiled(e)
    with np.errstate(all="ignore"):
        out = fn(xs, consts, params or {})
    out = np.asarray(out, dtype=float)
    if scalar:
        return float(out)
    if out is xs:  # the tree is x itself
        return xs.copy()
    return np.broadcast_to(out, xs.shape).copy() if out.shape != xs.shape else out


def compile_fn(e: Expr) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a tree without free parameters into a plain ndarray->ndarray
    callable."""
    missing = free_params(e)
    if missing:
        raise EvalError(f"unbound parameters {sorted(missing)!r}")
    _compiled(e)

    def fn(x):
        return evaluate(e, x)

    return fn


# ---- differentiation ----------------------------------------------------


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative in x.  abs' = sign, sign' = 0 (away from the kink)."""
    op = e.op
    if op in ("const", "param"):
        return const(0.0)
    if op == "x":
        return const(1.0)
    if op == "add":
        return add(*[differentiate(a) for a in e.args])
    if op == "mul":
        terms = []
        for i, a in enumerate(e.args):
            factors = list(e.args)
            factors[i] = differentiate(a)
            terms.append(mul(*factors))
        return add(*terms)
    if op == "div":
        u, v = e.args
        return div(add(mul(differentiate(u), v), neg(mul(u, differentiate(v)))), mul(v, v))
    if op == "neg":
        return neg(differentiate(e.args[0]))
    if op == "pow":
        u = e.args[0]
        c = e.value
        if c == 0:
            return const(0.0)
        return mul(const(c), pow_(u, c - 1.0), differentiate(u))
    if op == "exp":
        return mul(exp(e.args[0]), differentiate(e.args[0]))
    if op == "log":
        return div(differentiate(e.args[0]), e.args[0])
    if op == "abs":
        return mul(sign(e.args[0]), differentiate(e.args[0]))
    if op == "sign":
        return const(0.0)
    if op == "tanh":
        t = tanh(e.args[0])
        return mul(add(const(1.0), neg(mul(t, t))), differentiate(e.args[0]))
    raise ExprError(f"unknown node kind {op!r}")


# ---- simplification -----------------------------------------------------


def simplify(e: Expr) -> Expr:
    """Conservative simplification: constant folding, 0/1 identities,
    flattening of nested sums/products, integer power merging.  Preserves the
    value at every point up to floating rounding."""
    op = e.op
    if op in ("const", "x", "param"):
        return e
    args = tuple(simplify(a) for a in e.args)

    if op == "add":
        terms: list[Expr] = []
        c = 0.0
        for a in args:
            if a.op == "add":
                inner = a.args
            else:
                inner = (a,)
            for t in inner:
                if t.op == "const":
                    c += t.value
                else:
                    terms.append(t)
        if c != 0.0 or not terms:
            terms.append(const(c))
        if len(terms) == 1:
            return terms[0]
        return Expr("add", args=tuple(terms))

    if op == "mul":
        factors: list[Expr] = []
        c = 1.0
        for a in args:
            inner = a.args if a.op == "mul" else (a,)
            for f in inner:
                if f.op == "const":
                    c *= f.value
                else:
                    factors.append(f)
        if c == 0.0:
            return const(0.0)
        out: list[Expr] = []
        if c != 1.0:
            out.append(const(c))
        out.extend(factors)
        if not out:
            return const(1.0)
        if len(out) == 1:
            return out[0]
        return Expr("mul", args=tuple(out))

    if op == "div":
        u, v = args
        if u.op == "const" and v.op == "const" and v.value != 0.0:
            return const(u.value / v.value)
        if v.op == "const" and v.value != 0.0 and np.isfinite(v.value):
            # u/c -> (1/c)*u lets constants cancel; differs from u/c by at
            # most rounding, which the simplify contract allows
            return simplify(mul(const(1.0 / v.value), u))
        return Expr("div", args=(u, v))

    if op == "neg":
        (u,) = args
        if u.op == "const":
            return const(-u.value)
        if u.op == "neg":
            return u.args[0]
        return Expr("neg", args=(u,))

    if op == "pow":
        (u,) = args
        c = e.value
        if c == 0.0:
            return const(1.0)
        if c == 1.0:
            return u
        if u.op == "const":
            with np.errstate(all="ignore"):
                folded = float(np.power(u.value, c))
            if np.isfinite(folded):
                return const(folded)
        # merge (u^a)^b -> u^(a*b) only for integer a and b, where it is an identity
        if u.op == "pow" and float(u.value).is_integer() and float(c).is_integer():
            return Expr("pow", args=(u.args[0],), value=u.value * c)
        return Expr("pow", args=(u,), value=c)

    (u,) = args
    if u.op == "const" and not (op == "log" and u.value < 0):
        with np.errstate(all="ignore"):
            folded = float(_FUNCTIONS[op](u.value))
        if np.isfinite(folded):
            return const(folded)
    return Expr(op, args=(u,))


# ---- parameter handling -------------------------------------------------


def substitute(e: Expr, params: Mapping[str, float]) -> Expr:
    """Replace named parameters by constants (unknown names left intact)."""
    if e.op == "param" and e.name in params:
        return const(float(params[e.name]))
    if not e.args:
        return e
    new_args = tuple(substitute(a, params) for a in e.args)
    if new_args == e.args:
        return e
    return Expr(e.op, args=new_args, value=e.value, name=e.name)


def free_params(e: Expr) -> set[str]:
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node.op == "param":
            out.add(node.name)
        stack.extend(node.args)
    return out

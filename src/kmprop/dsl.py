"""A small expression language over distribution-valued variables.

Grammar (EBNF):

    expr   := term (('+' | '-') term)* ;
    term   := unary (('*' | '/') unary)* ;
    unary  := '-' unary | power ;
    power  := atom ('^' unary)? ;
    atom   := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')' ;

'^' binds tightest and is right-associative, then unary minus, then
'*'/'/', then '+'/'-' (both left-associative). FUNC is one of the
builtin names (exp, log, abs, neg, square), which are reserved and
cannot be used as variables. Numbers are decimal literals with an
optional fraction and exponent.

Evaluating an expression maps each node through the corresponding
product-grid propagation, treating all leaves - including repeated
occurrences of the same variable - as independent, and optionally
compresses intermediate expansions to a size budget.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .embedding import WeightedExpansion
from .errors import (
    DomainError,
    InputError,
    NoDistinctPairs,
    UnbalancedParen,
    UnboundVariable,
    UnexpectedCharacter,
    UnexpectedToken,
)
from .kernels import KernelSpec, derive_seed, median_heuristic
from .propagate import BUILTIN_FUNCTIONS, DEFAULT_SIZE_CAP, apply_nary
from .reduce import reduce_random

# token kinds
IDENT = "Ident"
NUMBER = "Number"
PLUS = "Plus"
MINUS = "Minus"
STAR = "Star"
SLASH = "Slash"
CARET = "Caret"
LPAREN = "LParen"
RPAREN = "RParen"
COMMA = "Comma"
FUNCNAME = "FuncName"

BUILTIN_CALLS = ("exp", "log", "abs", "neg", "square")

_PUNCT = {
    "+": PLUS, "-": MINUS, "*": STAR, "/": SLASH,
    "^": CARET, "(": LPAREN, ")": RPAREN, ",": COMMA,
}

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    pos: int


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens; whitespace separates but is dropped."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, i))
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(Token(NUMBER, m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            name = m.group()
            kind = FUNCNAME if name in BUILTIN_CALLS else IDENT
            tokens.append(Token(kind, name, i))
            i = m.end()
            continue
        raise UnexpectedCharacter(f"unexpected character {ch!r}", position=i)
    return tokens


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # always "neg"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str  # one of BUILTIN_CALLS
    arg: "Expr"


Expr = Union[Const, Var, Unary, Binary, Call]


class _Parser:
    def __init__(self, tokens: list[Token], end: int):
        self.tokens = tokens
        self.i = 0
        self.end = end

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        if tok is None:
            raise UnexpectedToken(f"expected {expected} but input ended", position=self.end)
        raise UnexpectedToken(f"expected {expected}, found {tok.lexeme!r}", position=tok.pos)

    def expr(self) -> Expr:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind in (PLUS, MINUS):
            self.advance()
            node = Binary(tok.lexeme, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while (tok := self.peek()) is not None and tok.kind in (STAR, SLASH):
            self.advance()
            node = Binary(tok.lexeme, node, self.unary())
        return node

    def unary(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == MINUS:
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == CARET:
            self.advance()
            return Binary("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            self.fail("a number, variable, or '('")
        if tok.kind == NUMBER:
            self.advance()
            return Const(float(tok.lexeme))
        if tok.kind == IDENT:
            self.advance()
            return Var(tok.lexeme)
        if tok.kind == FUNCNAME:
            self.advance()
            if (nxt := self.peek()) is None or nxt.kind != LPAREN:
                self.fail(f"'(' after {tok.lexeme}")
            self.advance()
            arg = self.expr()
            self.close_paren(tok.pos)
            return Call(tok.lexeme, arg)
        if tok.kind == LPAREN:
            self.advance()
            node = self.expr()
            self.close_paren(tok.pos)
            return node
        self.fail("a number, variable, or '('")

    def close_paren(self, open_pos: int):
        tok = self.peek()
        if tok is None:
            raise UnbalancedParen("unclosed '('", position=open_pos)
        if tok.kind != RPAREN:
            raise UnexpectedToken(f"expected ')', found {tok.lexeme!r}", position=tok.pos)
        self.advance()


def parse(tokens: list[Token], end: int | None = None) -> Expr:
    """Parse a token list into an AST; the whole list must be consumed."""
    if not tokens:
        raise UnexpectedToken("empty expression", position=0)
    if end is None:
        last = tokens[-1]
        end = last.pos + len(last.lexeme)
    p = _Parser(tokens, end)
    node = p.expr()
    if (tok := p.peek()) is not None:
        if tok.kind == RPAREN:
            raise UnbalancedParen("')' without matching '('", position=tok.pos)
        raise UnexpectedToken(f"trailing input starting at {tok.lexeme!r}", position=tok.pos)
    return node


def parse_text(text: str) -> Expr:
    return parse(tokenize(text), end=len(text))


# ---------------------------------------------------------------------------
# printing

# Node precedence levels; slots record the minimum level a child may
# have without parentheses, enforcing associativity structurally.
_ADD, _MUL, _UNARY, _POW, _ATOM = 10, 20, 30, 40, 100


def _prec(node: Expr) -> int:
    if isinstance(node, Binary):
        if node.op in "+-":
            return _ADD
        if node.op in "*/":
            return _MUL
        return _POW
    if isinstance(node, Unary):
        return _UNARY
    return _ATOM


def _wrap(node: Expr, min_prec: int) -> str:
    s = pretty_print(node)
    return f"({s})" if _prec(node) < min_prec else s


def pretty_print(expr: Expr) -> str:
    """Render an AST with the fewest parentheses that re-parse to the
    same tree."""
    if isinstance(expr, Const):
        v = float(expr.value)
        if v.is_integer() and abs(v) < 1e16:
            return str(int(v))
        return repr(v)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Unary):
        return "-" + _wrap(expr.operand, _UNARY)
    if isinstance(expr, Call):
        return f"{expr.func}({pretty_print(expr.arg)})"
    if isinstance(expr, Binary):
        if expr.op in "+-":
            return f"{_wrap(expr.left, _ADD)}{expr.op}{_wrap(expr.right, _ADD + 1)}"
        if expr.op in "*/":
            return f"{_wrap(expr.left, _MUL)}{expr.op}{_wrap(expr.right, _MUL + 1)}"
        # '^': the left slot only admits atoms, the right slot admits
        # unary and tighter (right-associative).
        return f"{_wrap(expr.left, _POW + 1)}^{_wrap(expr.right, _UNARY)}"
    raise InputError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvalPolicy:
    """Knobs for expression evaluation.

    ``budget`` caps intermediate expansion sizes: after each binary
    node whose output exceeds it, the expansion is compressed back to
    the budget with re-fitted weights. ``kernel=None`` assigns each
    intermediate a Gaussian kernel by the median heuristic on its own
    points (subsampled to ``bandwidth_points``); a fixed kernel skips
    that. ``seed`` makes subsampling and compression deterministic
    per node.
    """

    budget: int | None = None
    kernel: KernelSpec | None = None
    ridge: float | None = None
    seed: int = 0
    bandwidth_points: int = 2000
    size_cap: int = DEFAULT_SIZE_CAP

    def __post_init__(self):
        if self.budget is not None and self.budget < 1:
            raise InputError(f"budget must be >= 1, got {self.budget}")


# Kernel attached to constant leaves when no fixed kernel is supplied;
# a lone point has no pairwise distances to take a median of. Purely
# metadata: propagation only reads points and weights.
_CONST_SPEC = KernelSpec.gaussian(1.0)

_UNARY_OPS = {"neg": "neg"}
_BINARY_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow"}


def _median_spec(points: np.ndarray, policy: EvalPolicy, path: str) -> KernelSpec:
    if points.shape[0] > policy.bandwidth_points:
        rng = np.random.default_rng(derive_seed(policy.seed, path + ":band"))
        idx = rng.choice(points.shape[0], size=policy.bandwidth_points, replace=False)
        pts = points[idx]
    else:
        pts = points
    try:
        return KernelSpec.gaussian(median_heuristic(pts))
    except NoDistinctPairs:
        pass
    # The subsample collapsed; retry on the distinct points, and if the
    # node is a genuine point mass fall back to the scaleless default.
    uniq = np.unique(points, axis=0)
    if uniq.shape[0] >= 2:
        if uniq.shape[0] > policy.bandwidth_points:
            uniq = uniq[:: max(1, uniq.shape[0] // policy.bandwidth_points)]
        return KernelSpec.gaussian(median_heuristic(uniq))
    return _CONST_SPEC


def _apply_node(name: str, children: list[WeightedExpansion],
                policy: EvalPolicy, path: str) -> WeightedExpansion:
    pf = BUILTIN_FUNCTIONS[name]
    out_spec = policy.kernel if policy.kernel is not None else _CONST_SPEC
    try:
        res = apply_nary(children, pf, out_spec, size_cap=policy.size_cap)
    except DomainError as e:
        raise DomainError(e.function, e.index, detail=f"at expression node {path or 'root'}") from e
    if policy.kernel is None:
        spec = _median_spec(res.points, policy, path)
        res = WeightedExpansion(res.points, res.weights, spec)
    if policy.budget is not None and res.size > policy.budget:
        rr = reduce_random(res, policy.budget, ridge=policy.ridge,
                           seed=derive_seed(policy.seed, path + ":reduce"),
                           compute_error=False)
        res = rr.reduced
    return res


def evaluate(expr: Expr, env: dict[str, WeightedExpansion],
             policy: EvalPolicy = EvalPolicy()) -> WeightedExpansion:
    """Evaluate an AST over an environment of expansions.

    Every leaf occurrence is treated as an independent variable: in
    ``X*X`` the two factors vary independently, matching the product
    grid semantics (the expression does NOT square the points of X).
    """
    return _evaluate(expr, env, policy, path="")


def _evaluate(expr: Expr, env, policy: EvalPolicy, path: str) -> WeightedExpansion:
    if isinstance(expr, Const):
        if not math.isfinite(expr.value):
            raise InputError(f"non-finite constant {expr.value!r}")
        spec = policy.kernel if policy.kernel is not None else _CONST_SPEC
        return WeightedExpansion([[expr.value]], [1.0], spec)
    if isinstance(expr, Var):
        mu = env.get(expr.name)
        if mu is None:
            raise UnboundVariable(expr.name, path or "root")
        return mu
    if isinstance(expr, Unary):
        child = _evaluate(expr.operand, env, policy, path + ".0" if path else "0")
        return _apply_node(_UNARY_OPS[expr.op], [child], policy, path)
    if isinstance(expr, Call):
        child = _evaluate(expr.arg, env, policy, path + ".0" if path else "0")
        return _apply_node(expr.func, [child], policy, path)
    if isinstance(expr, Binary):
        left = _evaluate(expr.left, env, policy, path + ".0" if path else "0")
        right = _evaluate(expr.right, env, policy, path + ".1" if path else "1")
        return _apply_node(_BINARY_OPS[expr.op], [left, right], policy, path)
    raise InputError(f"not an expression node: {expr!r}")


def evaluate_text(text: str, env: dict[str, WeightedExpansion],
                  policy: EvalPolicy = EvalPolicy()) -> WeightedExpansion:
    return evaluate(parse_text(text), env, policy)

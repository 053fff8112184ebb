"""The formula language of finite arithmetic.

Terms over {+, *, 0, 1, N} with S(.) as successor sugar; atoms for equality,
order, definedness, and the operation graphs; bounded and unbounded
quantifiers; modal operators dia/box.  Includes a parser for the ASCII
grammar, a printer that writes the parentheses the grammar needs, and a
two-valued evaluator over any PartialStructure using the negative
convention: an atom with an undefined term is false, with Def(.) as the
explicit definedness atom.  A graph atom states an equation, so Plus(a, b,
c) holds exactly where a + b = c does, and Times(a, b, c) where a * b = c.

Every term and formula class is a plain slotted class built on _Node, which
names its fields once and interns its nodes, so that equal ones are one
object, and keeps a node's free variables and compiled closure once
computed.

The structural helpers, here and in ``modal`` and ``interp``, share one
traversal: _children lists a node's subterms and subformulas, _rebuild
copies a node with a function applied to them, and _nodes walks a tree.
The parser and the printer read the language's symbols from one set of
tables and every binary operator's precedence from one table of levels,
under "Concrete syntax" below.  The parser is one precedence climb over
that table for terms and formulas alike (Pratt, *Top Down Operator
Precedence*, POPL 1973): the operators after an operand settle how it is
used, so no reading is ever retried.  The printer shows every binary node,
relations included, by one rule.

The evaluator has a builder per node class instead.  A node compiles once,
on its first evaluation, into a closure kept on the node, which calls its
children's closures directly (Feeley & Lapalme, *Using closures for code
generation*, Computer Languages 12(1), 1987), so no evaluation dispatches
on node classes.  eval_term and eval_formula call a node's closure.  E/A
and dia/box share one contract: _scan over a quantifier's range, and the
modal callback over the accessible worlds, each return the first decider,
an element or a world's index, or None when there is none, and the
compiled binder reads its truth from that.  _decide pairs the truth with
the decider for the ``fa eval --trace`` chain.  A quantifier's range is
compiled with it: the elements below its bound, or, for an unbounded
quantifier whose body names the only value its variable can take, as in
E b. b = a + 1 or E c. Plus(a, b, c), that one value (one-point
elimination, under "Quantifier ranges"); otherwise the whole structure.
"""
import re
import threading
from _weakref import _remove_dead_weakref, ref
from functools import partial

from .errors import DomainError, EvalError, ParseError, WrongEvaluatorError, _too_deep


# --- Nodes ---

class _Node:
    """The base of every term and formula class.

    A node class lists its fields once, in order, as both its slots and its
    __match_args__; nodes are built positionally or by field name, and a
    field is never assigned again.  Nodes are interned (hash-consing:
    Filliâtre & Conchon, ML Workshop 2006): constructing a node equal to a
    live one, by class and fields, returns that node, so equality and hash
    are the object's own.  Every construction of a node shares its free
    variables and compiled closure (see "Evaluation" below).  pickle and
    copy go through __reduce__, so they return the interned node, and a
    node loaded in another process is interned there afresh.
    """

    __slots__ = ("_free", "_code", "__weakref__")

    def __new__(cls, *args, **kwargs):
        if kwargs:
            args = _positional(cls, args, kwargs)
        key = (cls, *args)
        node = _live(key)
        if node is None:
            fields = cls.__match_args__
            if len(args) != len(fields):
                raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, got {len(args)}")
            with _INTERNING:
                if (node := _live(key)) is not None:
                    return node
                node = object.__new__(cls)
                for field, value in zip(fields, args):
                    object.__setattr__(node, field, value)
                _INTERNED[key] = ref(node, lambda _: _remove_dead_weakref(_INTERNED, key))
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = (f"{field}={getattr(self, field)!r}" for field in self.__match_args__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))


def _positional(cls, args, kwargs):
    """The fields of cls, in order, from a construction that names some of
    them; TypeError for a field that is unknown, given twice or missing."""
    fields = cls.__match_args__
    rest = fields[len(args):]
    for name in kwargs:
        if name not in rest:
            problem = "repeated" if name in fields else "unknown"
            raise TypeError(f"{cls.__name__}() got {problem} field {name!r}")
    for name in rest:
        if name not in kwargs:
            raise TypeError(f"{cls.__name__}() is missing field {name!r}")
    return (*args, *map(kwargs.__getitem__, rest))


# Every live node, by (class, *fields), through a weak reference whose
# callback drops the entry while it is dead, as WeakValueDictionary does (its
# methods run in Python and made a parse twice as slow).  A miss builds and
# stores under the lock, so two threads building equal nodes get one object.
_INTERNED = {}
_INTERNING = threading.Lock()


def _live(key):
    held = _INTERNED.get(key)
    return held and held()


# --- Terms ---

class Var(_Node):
    __slots__ = __match_args__ = ("name",)


class Const0(_Node):
    __slots__ = __match_args__ = ()


class Const1(_Node):
    __slots__ = __match_args__ = ()


class ConstN(_Node):
    __slots__ = __match_args__ = ()


class Succ(_Node):
    __slots__ = __match_args__ = ("arg",)


class Sum(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Prod(_Node):
    __slots__ = __match_args__ = ("left", "right")


Term = Var | Const0 | Const1 | ConstN | Succ | Sum | Prod


# --- Formulas ---

class Eq(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Lt(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Defined(_Node):
    __slots__ = __match_args__ = ("arg",)


class PlusAtom(_Node):
    __slots__ = __match_args__ = ("a", "b", "c")


class TimesAtom(_Node):
    __slots__ = __match_args__ = ("a", "b", "c")


class Not(_Node):
    __slots__ = __match_args__ = ("body",)


class And(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Or(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Implies(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Forall(_Node):
    __slots__ = __match_args__ = ("var", "bound", "body")


class Exists(_Node):
    __slots__ = __match_args__ = ("var", "bound", "body")


class Possibly(_Node):
    __slots__ = __match_args__ = ("body",)


class Necessarily(_Node):
    __slots__ = __match_args__ = ("body",)


Formula = (
    Eq | Lt | Defined | PlusAtom | TimesAtom
    | Not | And | Or | Implies | Forall | Exists | Possibly | Necessarily
)

_QUANTIFIERS = (Forall, Exists)
_MODALS = (Possibly, Necessarily)


# --- Shared traversal ---

# Fields are read through __match_args__, which lists them in order; nodes
# are slotted and have no __dict__.

def _children(node):
    """The subterms and subformulas of a term or formula, in field order;
    variable names (str) and absent bounds (None) are not children."""
    return [
        c for c in map(node.__getattribute__, node.__match_args__)
        if c is not None and not isinstance(c, str)
    ]


def _rebuild(node, fn):
    """A node of the same class with fn applied to each child; node itself
    when fn returns every child unchanged.  The loop is plain, not a
    comprehension, so a recursion through fn costs no frame of its own."""
    new = []
    for x in map(node.__getattribute__, node.__match_args__):
        new.append(x if x is None or isinstance(x, str) else fn(x))
    return type(node)(*new)


def _nodes(node):
    """node and every term and formula inside it, in preorder."""
    stack = [node]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(_children(g)))


# --- Structural helpers ---

def _noun(node):
    return "term" if isinstance(node, Term) else "formula"


@_too_deep(_noun)
def free_variables(node):
    """The variables of a term, or the free variables of a formula, as a new
    set.  They are found once per node and kept on it (see _free_vars)."""
    return set(_free_vars(node))


def _free_vars(node):
    """The free variables of node as a sorted tuple, computed on first use
    and kept in the node's _free slot.  A modal label is keyed by the
    values of a formula's free variables in this order."""
    free = getattr(node, "_free", None)
    if free is not None:
        return free
    cls = type(node)
    if cls is Var:
        out = {node.name}
    elif cls in _QUANTIFIERS:
        out = set(_free_vars(node.body))
        out.discard(node.var)
        if node.bound is not None:
            out.update(_free_vars(node.bound))
    else:
        out = set()
        for child in _children(node):
            if child.__match_args__:  # constants have no variables
                out.update(_free_vars(child))
    free = tuple(sorted(out))
    object.__setattr__(node, "_free", free)
    return free


def is_first_order(f):
    return not any(isinstance(g, _MODALS) for g in _nodes(f))


def is_delta0(f):
    """First-order with every quantifier carrying a bound."""
    return not any(
        isinstance(g, _MODALS) or isinstance(g, _QUANTIFIERS) and g.bound is None
        for g in _nodes(f)
    )


def contains_constN(f):
    return any(isinstance(g, ConstN) for g in _nodes(f))


def _fresh(name, taken):
    i = 1
    while f"{name}_{i}" in taken:
        i += 1
    return f"{name}_{i}"


@_too_deep(_noun)
def substitute(node, var, repl):
    """Capture-avoiding substitution of the term repl for the variable var
    in a term or formula."""
    repl_vars = free_variables(repl)

    def go(g):
        match g:
            case Var(name):
                return repl if name == var else g
            case Forall(v, bound, body) | Exists(v, bound, body):
                cls = type(g)
                nb = None if bound is None else go(bound)
                if v == var:
                    return cls(v, nb, body)
                if v in repl_vars and var in free_variables(body):
                    w = _fresh(v, repl_vars | free_variables(body))
                    body = substitute(body, v, Var(w))
                    v = w
                return cls(v, nb, go(body))
        return _rebuild(g, go)

    return go(node)


def induction_instance(f, var):
    """[phi(0) and A var < N. (phi -> phi(var+1))] -> A var. phi"""
    if var not in free_variables(f):
        raise EvalError(f"variable {var!r} is not free in the formula")
    base = substitute(f, var, Const0())
    step = Forall(var, ConstN(), Implies(f, substitute(f, var, Sum(Var(var), Const1()))))
    return Implies(And(base, step), Forall(var, None, f))


# --- Concrete syntax ---

# The one statement of the ASCII grammar; the parser and the printer both
# read it.  _LEVEL gives every binary operator its precedence level,
# loosest first: the connectives, then the relations, which join two terms
# into an atom, then the term operators.  A prefix's operand is a relation
# or anything tighter, and a quantifier's scope extends as far right as
# possible.  A named form takes one term argument per field of its class:
# Plus(a, b, c).
_CONSTANTS = {"0": Const0, "1": Const1, "N": ConstN}
_NAMED_TERMS = {"S": Succ}
_NAMED_ATOMS = {"Def": Defined, "Plus": PlusAtom, "Times": TimesAtom}
_RELATIONS = {"=": Eq, "<": Lt}
_PREFIXES = {"!": Not, "dia": Possibly, "box": Necessarily}
_BINDERS = {"A": Forall, "E": Exists}
_BOUND = "<"  # A v < t. phi: v ranges over the elements below t
_FORMULA_OPS = {"->": Implies, "|": Or, "&": And}
_TERM_OPS = {"+": Sum, "*": Prod}
_RIGHT_NESTED = {Implies}

_LEVEL = {Implies: 0, Or: 1, And: 2, Eq: 3, Lt: 3, Sum: 4, Prod: 5}
_PREFIX_LEVEL = _LEVEL[Eq]
_TERM_LEVEL = _LEVEL[Sum]  # a context at this level or tighter holds only terms
_SPELLING = {
    cls: sym
    for table in (_CONSTANTS, _NAMED_TERMS, _NAMED_ATOMS, _RELATIONS,
                  _PREFIXES, _BINDERS, _FORMULA_OPS, _TERM_OPS)
    for sym, cls in table.items()
}
_OPERATORS = {_SPELLING[cls]: cls for cls in _LEVEL}


# --- Parser ---

_TOKEN_RE = re.compile(r"\s*(->|[()+*=<!&|.,]|[A-Za-z][A-Za-z0-9_]*|[01])")
_VAR_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_KEYWORDS = {sym for sym in _SPELLING.values() if _VAR_RE.match(sym)}


def _is_variable(tok):
    return _VAR_RE.match(tok) is not None and tok not in _KEYWORDS


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    """One precedence climb over _LEVEL reads terms and formulas alike.

    Whether an operand is a term or a formula is settled by what it is and
    by the operators after it, so no reading is ever retried: a relation or
    a term operator joins terms, and a connective joins formulas.  In a
    context at _TERM_LEVEL or tighter, "(" opens a term; anywhere else it
    opens whatever it holds.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        self.i += 1
        return tok

    def expect(self, tok):
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}, found {self.peek()!r}", self.pos())
        self.i += 1

    def as_formula(self, node):
        """node, when it is a formula.  A term where a formula is due lacks
        the relation that was due at the current token."""
        if isinstance(node, Term):
            expected = " or ".join(map(repr, _RELATIONS))
            raise ParseError(f"expected {expected}, found {self.peek()!r}", self.pos())
        return node

    def binary(self, level, left=None):
        """Precedence climbing: left, or else an operand read at level, then
        each operator whose level is at least level, with its right operand,
        which takes only tighter operators, or equal ones too when the
        operator is right-nested.  A relation or term operator after a
        formula ends the climb, so relations do not chain: x = y = z is no
        formula."""
        if left is None:
            left = self.primary(level)
        while (cls := _OPERATORS.get(self.peek())) is not None and (own := _LEVEL[cls]) >= level:
            joins_terms = own >= _PREFIX_LEVEL
            if not joins_terms:  # a connective: a formula on each side
                self.as_formula(left)
            elif not isinstance(left, Term):
                break
            self.i += 1
            right = self.binary(own + (cls not in _RIGHT_NESTED))
            left = cls(left, right if joins_terms else self.as_formula(right))
        return left

    def primary(self, level):
        """The operand at the current token, in a context of level: a
        constant, variable, named term or parenthesized group, or, in a
        context looser than _TERM_LEVEL, a prefixed formula, quantifier or
        named atom."""
        tok = self.peek()
        if tok == "(":
            self.i += 1
            inner = self.binary(_TERM_LEVEL if level >= _TERM_LEVEL else 0)
            self.expect(")")
            return inner
        if level < _TERM_LEVEL:
            if tok in _PREFIXES:
                # The operand is climbed after primary returns, so a chain of
                # prefixes nests one frame per prefix.
                self.i += 1
                body = self.binary(_PREFIX_LEVEL, self.primary(_PREFIX_LEVEL))
                return _PREFIXES[tok](self.as_formula(body))
            if tok in _BINDERS:
                self.i += 1
                name = self.next()
                if not _is_variable(name):
                    raise ParseError(f"invalid variable name {name!r}", self.pos())
                bound = None
                if self.peek() == _BOUND:
                    self.i += 1
                    bound = self.binary(_TERM_LEVEL)
                self.expect(".")
                body = self.binary(0)  # the scope extends as far right as possible
                return _BINDERS[tok](name, bound, self.as_formula(body))
            if tok in _NAMED_ATOMS:
                return self.named(_NAMED_ATOMS[tok])
        if tok in _CONSTANTS:
            self.i += 1
            return _CONSTANTS[tok]()
        if tok in _NAMED_TERMS:
            return self.named(_NAMED_TERMS[tok])
        if tok is not None and _is_variable(tok):
            self.i += 1
            return Var(tok)
        raise ParseError(f"expected a term, found {tok!r}", self.pos())

    def named(self, cls):
        """The named form at the current token: its name, then one term
        per field of cls, comma-separated in parentheses."""
        self.i += 1
        self.expect("(")
        args = [self.binary(_TERM_LEVEL)]
        for _ in cls.__match_args__[1:]:
            self.expect(",")
            args.append(self.binary(_TERM_LEVEL))
        self.expect(")")
        return cls(*args)


def parse_formula(text):
    return _parse(text, 0)


def parse_term(text):
    return _parse(text, _TERM_LEVEL)


def _parse(text, level):
    """All of text, climbed from level: a formula from level 0, a term from
    _TERM_LEVEL."""
    p = _Parser(text)
    try:
        out = p.binary(level)
    except RecursionError as exc:
        raise ParseError("input is nested too deeply", p.pos()) from exc
    if level < _TERM_LEVEL:
        p.as_formula(out)
    if p.peek() is not None:
        raise ParseError(f"trailing input {p.peek()!r}", p.pos())
    return out


# --- Printer ---

@_too_deep("term")
def print_term(t):
    """t as text, with the parentheses the grammar needs."""
    if not isinstance(t, Term):
        raise TypeError(f"not a term: {t!r}")
    return _show(t, 0)


@_too_deep("formula")
def print_formula(f):
    """f as text, with the parentheses the grammar needs."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _show(f, 0)


def _show(node, level):
    """node as text in a context of precedence level.  A binary node shows
    each side at the level its operator needs there, and is parenthesized
    when the context binds tighter than the operator; a quantifier, whose
    scope extends as far right as possible, is parenthesized in any context
    but the loosest."""
    cls = type(node)
    if cls is Var:
        return node.name
    sym = _SPELLING[cls]
    own = _LEVEL.get(cls)
    if own is not None:
        right_nested = cls in _RIGHT_NESTED
        s = (f"{_show(node.left, own + right_nested)} {sym} "
             f"{_show(node.right, own + (not right_nested))}")
        return f"({s})" if level > own else s
    if cls in _QUANTIFIERS:
        bound = "" if node.bound is None else f" {_BOUND} {_show(node.bound, 0)}"
        s = f"{sym} {node.var}{bound}. {_show(node.body, 0)}"
        return f"({s})" if level > 0 else s
    if cls in _PREFIXES.values():
        # dia x = y and dia Def(x), but !(x = y) and !Def(x): "!" shows its
        # body as tightly as a term.  A quantifier or prefix body takes only
        # the parentheses the prefix's context demands: !!A x. x = 0.
        gap = " " if sym.isalpha() else ""
        inner = _PREFIX_LEVEL if gap else _TERM_LEVEL
        if isinstance(node.body, (*_QUANTIFIERS, *_PREFIXES.values())):
            inner = level
        return f"{sym}{gap}{_show(node.body, inner)}"
    args = _children(node)  # a constant, or a named form
    return f"{sym}({', '.join(_show(a, 0) for a in args)})" if args else sym


# --- Evaluation ---

# A term compiles into fn(m, assignment), which returns its value in m or
# None when it is undefined; a formula into fn(m, assignment, modal), which
# returns its truth.  A dia (want True) or box (want False) calls
# modal(body, want, assignment), which returns the first accessible world
# where body's truth is want, by index, or None, as _scan returns the first
# deciding element; eval_formula passes None, and a dia/box then raises
# WrongEvaluatorError.  _COMPILERS holds one builder per node class, called
# with the node's fields, each term or formula field already compiled; a
# quantifier gets its range closure (see _range) in its bound's place.  A
# graph atom has no builder: it compiles as its equation (see _equation),
# so it stops at its first undefined term, as = does.  A closure captures
# those and nothing else: no node it is part of, so an evaluated tree holds
# no reference cycle, and no structure or value, so a tree's code serves
# every structure.  A range closure, a pin's candidate
# included, likewise captures compiled terms only.  A dia/box body is the
# one field passed as a node: the modal callback evaluates it at other
# worlds, and labels it by the node.

_MISSING = object()

_EQUATIONS = {PlusAtom: Sum, TimesAtom: Prod}


def _equation(g):
    """The equation that the graph atom g states, as an Eq node: a + b = c
    for Plus(a, b, c), a * b = c for Times(a, b, c).  Any other node is
    returned as it is."""
    op = _EQUATIONS.get(type(g))
    return g if op is None else Eq(op(g.a, g.b), g.c)


def _code(node):
    """The closure of a term or formula node, compiled on its first
    evaluation and kept in its _code slot."""
    try:
        return node._code
    except AttributeError:
        pass
    source = _equation(node)
    cls = type(source)
    build = _COMPILERS.get(cls)
    if build is None:
        raise TypeError(f"not a term or formula: {node!r}")
    fields = list(map(source.__getattribute__, source.__match_args__))
    if cls not in _MODALS:
        for i, x in enumerate(fields):
            if x is not None and type(x) is not str:
                fields[i] = _code(x)
    if cls in _QUANTIFIERS:
        fields[1] = _range(node)  # in the bound's place: the range it scans
    code = build(*fields)
    object.__setattr__(node, "_code", code)
    return code


def _var(name):
    def var(m, assignment):
        try:
            return assignment[name]
        except KeyError:
            raise EvalError(f"unassigned variable {name!r}") from None
    return var


def _zero(m, assignment):
    return m.zero


def _one(m, assignment):
    return m.one


def _largest(m, assignment):
    return m.largest  # None unless the structure is an FA model


def _succ(arg):
    def succ(m, assignment):
        a = arg(m, assignment)
        return None if a is None else m.succ(a)
    return succ


def _sum(left, right):
    def sum_(m, assignment):
        a = left(m, assignment)
        if a is None:
            return None
        b = right(m, assignment)
        return None if b is None else m.plus(a, b)
    return sum_


def _prod(left, right):
    def prod(m, assignment):
        a = left(m, assignment)
        if a is None:
            return None
        b = right(m, assignment)
        return None if b is None else m.times(a, b)
    return prod


def _eq(left, right):
    def eq(m, assignment, modal):
        a = left(m, assignment)
        if a is None:
            return False
        b = right(m, assignment)
        return b is not None and a == b
    return eq


def _lt(left, right):
    def lt(m, assignment, modal):
        a = left(m, assignment)
        if a is None:
            return False
        b = right(m, assignment)
        return b is not None and m.less(a, b)
    return lt


def _defined(arg):
    def defined(m, assignment, modal):
        return arg(m, assignment) is not None
    return defined


def _not(body):
    def not_(m, assignment, modal):
        return not body(m, assignment, modal)
    return not_


def _and(left, right):
    def and_(m, assignment, modal):
        return left(m, assignment, modal) and right(m, assignment, modal)
    return and_


def _or(left, right):
    def or_(m, assignment, modal):
        return left(m, assignment, modal) or right(m, assignment, modal)
    return or_


def _implies(left, right):
    def implies(m, assignment, modal):
        return (not left(m, assignment, modal)) or right(m, assignment, modal)
    return implies


def _quantifier(want, v, elements, body):
    """E (want True) or A (want False) over the range closure elements
    (see _range), decided by _scan."""
    def quantifier(m, assignment, modal):
        return (_scan(m, v, elements, body, want, assignment, modal) is not None) == want
    return quantifier


def _modal_op(want, body):
    """dia (want True) or box (want False) of the node body, decided by
    the modal callback."""
    def modal_op(m, assignment, modal):
        if modal is None:
            raise WrongEvaluatorError(
                "modal operator in first-order evaluation; use finarith.modal.eval_modal"
            )
        return (modal(body, want, assignment) is not None) == want
    return modal_op


_COMPILERS = {
    Var: _var,
    Const0: lambda: _zero,
    Const1: lambda: _one,
    ConstN: lambda: _largest,
    Succ: _succ,
    Sum: _sum,
    Prod: _prod,
    Eq: _eq,
    Lt: _lt,
    Defined: _defined,
    Not: _not,
    And: _and,
    Or: _or,
    Implies: _implies,
    Forall: partial(_quantifier, False),
    Exists: partial(_quantifier, True),
    Possibly: partial(_modal_op, True),
    Necessarily: partial(_modal_op, False),
}


@_too_deep("term")
def eval_term(m, t, assignment):
    """Strict partial evaluation: defined iff every subterm is defined and
    the structure's graph provides a value."""
    return _code(t)(m, assignment)


@_too_deep("formula")
def eval_formula(m, f, assignment=None):
    """Classical two-valued semantics with the negative convention.

    eq/lt atoms are true only when both terms are defined; Def(t) is true
    iff t evaluates; Plus(a, b, c) is a + b = c and Times(a, b, c) is
    a * b = c.  Each atom stops at its first undefined term.  A bounded
    quantifier with an undefined bound has a vacuous range (A true, E
    false).  Modal nodes are rejected.
    """
    return _code(f)(m, {} if assignment is None else assignment, None)


@_too_deep("formula")
def _decide(m, f, assignment, modal):
    """(truth of the quantifier f, the element that decided it).

    E holds as soon as one element of its range makes the body true; A
    fails as soon as one makes it false.  The decider is the first element
    of the range, in iteration order, that does so, or None when there is
    none; assignment is restored on return.  Too deep a formula raises
    EvalError, as in eval_formula."""
    want = type(f) is Exists
    found = _scan(m, f.var, _range(f), _code(f.body), want, assignment, modal)
    return (found is not None) == want, found


def _scan(m, v, elements, body, want, assignment, modal):
    """The one binder scan, over a quantifier's compiled parts: the first
    element of the range elements(m, assignment, modal) whose body's truth
    is want (True for E, False for A), or None when there is none; no
    element is None, the evaluator's undefined value.  The range is read
    before v is assigned, so a bound sees v's outer value."""
    saved = assignment.get(v, _MISSING)
    try:
        for x in elements(m, assignment, modal):
            assignment[v] = x
            if body(m, assignment, modal) == want:
                return x
        return None
    finally:
        if saved is _MISSING:
            assignment.pop(v, None)
        else:
            assignment[v] = saved


# --- Quantifier ranges ---

# _range gives a quantifier's range as a closure
# elements(m, assignment, modal), which _scan iterates.  A bounded
# quantifier ranges over the elements below its bound.  An unbounded one
# ranges over the whole structure unless its body pins the variable x
# (one-point elimination, the one-point rule of free logic): the body can
# have the truth the scan looks for, want, only where x is the value of
# one term, its candidate.  The range is then that value alone, or nothing
# when it is undefined or not an element.
#
# _pin finds the candidate by walking, without recursion, the parts of the
# body whose truth want forces: the body of a !, with the truth flipped;
# both sides of a true & or a false |; the antecedent (true) and the
# consequent (false) of a false ->; and the body of a true E y or a false
# A y, bounded or not, unless y is x.  A pin is a part forced true that
# reads x = t or t = x, with neither x nor any y passed on the way free in
# t; its candidate is t.  A graph atom is read as its equation, so
# Plus(a, b, x) pins x to a + b and Times(a, b, x) to a * b.  So
# E b. b = a + 1, E c. E d. (Plus(a, b, c) & Times(a, b, d))
# and, since a false -> forces its antecedent, A z. (Plus(x, y, z) -> phi)
# each scan one candidate.  The candidate is unique, so the decider, the
# first element whose body's truth is want, is the full scan's.
#
# The range narrows only where the body cannot raise at an element that
# could not decide: every free variable of the quantifier is assigned (so
# neither the body nor the candidate meets an unassigned one), and a body
# with a dia or box is evaluated with a modal callback (without one, a
# dia/box raises WrongEvaluatorError).  Otherwise the range is the whole
# structure, and the scan meets an error where it did before.  The
# candidate is evaluated once per scan, before x is assigned, as the
# equation evaluates it; when that raises DomainError, the range is again
# the whole structure.  Otherwise the body is evaluated at most at the
# candidate, where the full scan evaluated it too, so the verdict is the
# full scan's; the membership test keeps it on a structure whose
# operations leave its domain.  On such a structure alone, a DomainError
# that the full scan met only at elements that could not decide is no
# longer met.  Bounded quantifiers keep their scan: iter_below and less
# may disagree on a structure with a bent order.

def _range(f):
    """The range closure of the quantifier node f."""
    if f.bound is not None:
        return partial(_below, _code(f.bound))
    pin = _pin(f.var, f.body, type(f) is Exists)
    if pin is None:
        return _everything
    return partial(_one_point, pin, _free_vars(f), not is_first_order(f.body))


def _everything(m, assignment, modal):
    return m


def _below(bound, m, assignment, modal):
    top = bound(m, assignment)
    return () if top is None else m.iter_below(top)  # undefined: a vacuous range


def _one_point(pin, free, modal_inside, m, assignment, modal):
    if modal_inside and modal is None or not all(map(assignment.__contains__, free)):
        return m
    try:
        x = pin(m, assignment)
    except DomainError:
        return m
    return () if x is None or x not in m else (x,)


def _pin(v, body, want):
    """The compiled candidate term of v when body pins v for the truth
    want, or None (see "Quantifier ranges")."""
    x = Var(v)
    stack = [(body, want, frozenset((v,)))]
    while stack:
        g, truth, hidden = stack.pop()
        g = _equation(g)  # a graph atom pins as the equation it states
        cls = type(g)
        if cls is Not:
            stack.append((g.body, not truth, hidden))
        elif cls is (And if truth else Or):
            stack += (g.right, truth, hidden), (g.left, truth, hidden)
        elif cls is Implies and not truth:
            stack += (g.right, False, hidden), (g.left, True, hidden)
        elif cls is (Exists if truth else Forall):
            if g.var != v:
                stack.append((g.body, truth, hidden | {g.var}))
        elif truth and cls is Eq:
            for side, t in (g.left, g.right), (g.right, g.left):
                if side == x and hidden.isdisjoint(_free_vars(t)):
                    return _code(t)
    return None


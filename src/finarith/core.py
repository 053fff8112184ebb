"""Finite partial structures of arithmetic and the FA axiom checks.

The canonical structures are the substructures of the standard model
induced on finite sets of naturals (``SubsetWorld``); a truncation, the
paper's model {0, ..., n} of finite arithmetic, is the initial-segment case
(``Truncation``).  Their elements are plain Python ints (exact, unbounded).
Every query checks its operands (see ``PartialStructure``) except
``SubsetWorld.less``, the numeric order, which compares its arguments
unchecked: the evaluators hand it only elements, and a membership test on
every comparison cut the throughput of the benchmark's first_order
workload by about a fifth (CPython 3.11).
"""
from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

from .errors import DomainError, EvalError, _too_deep
from .logic import _code, free_variables, is_first_order, print_formula


class PartialStructure:
    """A finite universe with numeric-style order and partial + and *.

    This is the protocol the evaluators and checks read; each concrete
    structure provides all of it:
    - ``__iter__`` (ascending), ``__contains__``, ``size()`` and the order
      ``less(a, b)``;
    - ``plus(a, b)``/``times(a, b)``: the result, None when undefined;
      DomainError for a non-element;
    - ``succ(a)``: a + 1, undefined when 1 is absent or the sum leaves the
      domain;
    - ``iter_below(x)``: the elements strictly below x, ascending;
      DomainError, before anything is yielded, when x is outside the domain;
    - ``_plus``/``_times``: the raw partial operations, the hooks a
      subclass overrides to change the arithmetic;
    - ``valuation(x)``/``element(value)``: oracle plumbing, the numeric
      value of an element and back, used by tests, reports and parameter
      computations, never by the in-model algorithms.

    The checked operations test membership inline, in the method the
    evaluator calls, raise through ``_require`` only when an operand is
    outside the domain, and then call ``_plus``/``_times``: a ground
    operation is two Python calls, not the four that a generic ``x in
    self`` per operand costs.  ``zero``/``one`` are None when the
    corresponding constant is absent from the domain; ``largest`` is None
    unless the structure is an FA model.
    """

    zero = one = largest = None

    def _require(self, *xs):
        """Raise DomainError naming the first of xs outside the domain.
        Callers test membership inline and call this only to raise."""
        for x in xs:
            if x not in self:
                raise DomainError(f"{x!r} is not in the domain")

    def order_max(self):
        """The order-largest element (domain must be nonempty)."""
        if self.largest is not None:
            return self.largest
        top = None
        for x in self:
            top = x
        if top is None:
            raise DomainError("empty structure has no largest element")
        return top


class SubsetWorld(PartialStructure):
    """The substructure of the standard model induced on a finite set of
    naturals.  Elements are ints, never bools; the order is the numeric
    one; a sum or product is defined exactly when its true value lies in
    the set; 0 and 1 denote only when present.  ``domain`` lists the set
    in ascending order, and an element's value is itself.

    Every checked query tests membership inline as ``type(x) is int and x
    in self._members``: the type test comes first, since a float in a range
    is found by a linear scan and True == 1 would pass any membership test.
    """

    def __init__(self, elements):
        elems = set(elements)
        if not all(type(x) is int and x >= 0 for x in elems):
            raise ValueError("subset worlds contain nonnegative integers only")
        self.domain = tuple(sorted(elems))
        self._members = frozenset(elems)
        self.zero = 0 if 0 in self._members else None
        self.one = 1 if 1 in self._members else None

    def __iter__(self):
        return iter(self.domain)

    def __contains__(self, x):
        return type(x) is int and x in self._members

    def size(self):
        return len(self.domain)

    def less(self, a, b):
        # Unchecked, unlike every other query (see the module docstring).
        return a < b

    def plus(self, a, b):
        members = self._members
        if not (type(a) is int and a in members and type(b) is int and b in members):
            self._require(a, b)
        return self._plus(a, b)

    def times(self, a, b):
        members = self._members
        if not (type(a) is int and a in members and type(b) is int and b in members):
            self._require(a, b)
        return self._times(a, b)

    def succ(self, a):
        if not (type(a) is int and a in self._members):
            self._require(a)
        one = self.one
        return None if one is None else self._plus(a, one)

    def _plus(self, a, b):
        c = a + b
        return c if c in self._members else None

    def _times(self, a, b):
        c = a * b
        return c if c in self._members else None

    def iter_below(self, x):
        if not (type(x) is int and x in self._members):
            self._require(x)
        return itertools.takewhile(lambda y: self.less(y, x), self)

    def valuation(self, x):
        if not (type(x) is int and x in self._members):
            self._require(x)
        return x

    element = valuation  # an element is its own value

    def __repr__(self):
        return f"SubsetWorld({set(self.domain) if self.domain else '{}'})"


class Truncation(SubsetWorld):
    """The standard naturals cut at n: the subset world on {0, ..., n},
    whose operations are defined exactly when the true result is at most n.
    The domain is a range, never materialized, so n may be huge."""

    zero = 0
    one = 1

    def __init__(self, n):
        if type(n) is not int or n < 1:
            raise ValueError(
                "truncation height must be an integer at least 1 (the constant 1 must denote)"
            )
        self.n = self.largest = n
        self.domain = self._members = range(n + 1)

    def size(self):
        return self.n + 1  # len() of a range fails above sys.maxsize

    def iter_below(self, x):
        if not (type(x) is int and x in self._members):
            self._require(x)
        return iter(range(x))

    def __repr__(self):
        return f"Truncation({self.n})"


def make_truncation(n):
    """The canonical FA model with largest number n (n >= 1)."""
    return Truncation(n)


def make_subset_world(s):
    """The induced substructure on an arbitrary finite set of naturals."""
    return SubsetWorld(s)


def largest_square_base(m):
    """The largest b in m whose square is defined in m.

    For a truncation at n this is isqrt(n).  Verified against the model's
    own multiplication before returning.
    """
    top = m.order_max()
    b = m.element(math.isqrt(m.valuation(top)))
    if m.times(b, b) is None:
        raise DomainError(f"square of {b!r} unexpectedly undefined")
    bs = m.succ(b)
    if bs is not None and m.times(bs, bs) is not None:
        raise DomainError(f"{b!r} is not the largest element with a square")
    return b


class GroupResult(NamedTuple):
    name: str
    passed: bool
    mode: str  # "exhaustive" or "sampled"
    failures: list


class AxiomReport(NamedTuple):
    passed: bool
    groups: dict

    def failures(self):
        out = []
        for g in self.groups.values():
            out.extend(g.failures)
        return out


def sample_elements(m, count, rng):
    """count distinct elements of m, ascending, drawn by position with rng
    and always including the least and the largest; all of m, in order,
    when m has at most count elements."""
    n = m.size()
    if n <= count:
        return list(m)
    positions = {0, n - 1}
    while len(positions) < count:
        positions.add(rng.randrange(n))
    # A truncation's domain is a range, so huge lazy domains index cheaply;
    # a lifted model lists none, and its element at position v has value v.
    at = m.domain.__getitem__ if hasattr(m, "domain") else m.element
    return [at(v) for v in sorted(positions)]


def induction_variable(phi):
    """The one free variable of an induction formula phi, or EvalError."""
    fv = sorted(free_variables(phi))
    if len(fv) != 1:
        raise EvalError(f"induction formula must have exactly one free variable, got {fv}")
    return fv[0]


@_too_deep("formula")
def induction_fails(m, phi, v, elements):
    """Whether logic.induction_instance(phi, v) fails in m, judged on
    elements: phi(0) holds, phi(a) -> phi(a + 1) holds at every a in
    elements below N, and some a in elements falsifies phi.  Exact given
    every element of m.  Given a sample, a pass is evidence only: it can
    miss a falsifier outside the sample.  A failure is genuine: when no
    sampled step breaks, a bisection in value order (through element and
    valuation) between 0 and a falsifier looks for a broken step the sample
    missed, and the failure stands only when that step holds.  A scan of
    every element meets a broken step before its first falsifier, so it
    never bisects.  An undefined 0 or a + 1 is assigned as None, which the
    evaluator reads as an undefined term, as it reads the instance's.

    phi is evaluated at most once per element: a scan of every element
    meets each a + 1 again as the next element."""
    top = m.largest
    truth = {}  # element (or None) -> phi there, for this call only

    def holds(a):
        t = truth.get(a)
        if t is None:
            t = truth[a] = _code(phi)(m, {v: a}, None)  # as eval_formula, guarded once
        return t

    if not holds(m.zero):
        return False
    falsifier = None
    for a in elements:
        if not holds(a):
            falsifier = a
        elif top is not None and m.less(a, top) and not holds(m.succ(a)):
            return False
    if falsifier is None or None in (top, m.zero) or len(elements) == m.size():
        return falsifier is not None  # no chain from 0 below N, or every step scanned
    lo, hi = m.valuation(m.zero), m.valuation(falsifier)  # phi holds at lo, fails at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(m.element(mid)) else (lo, mid)
    return holds(m.succ(m.element(lo)))  # the step at lo, unless succ leaves value order


def _first_failures(*sweeps):
    """The first failure message of each sweep, in order, reading each
    lazy sweep only up to its first message.  A DomainError raised inside a
    sweep ends the list with "an operation left the domain: <message>", and
    no later sweep runs."""
    fails = []
    try:
        for sweep in sweeps:
            fails.extend(itertools.islice(sweep, 1))
    except DomainError as exc:
        fails.append(f"an operation left the domain: {exc}")
    return fails


def check_fa_axioms(m, induction_corpus=(), budget=10**6, seed=0):
    """Check the FA axiom groups on a structure presented as an FA model.

    Groups: (order) discrete linear order with endpoints 0 and top;
    (successor) defined exactly below the top; (arithmetic) a + 0 = a,
    a * 0 = 0, and the directed recursion identities a + (m+1) = (a+m) + 1
    and a * (m+1) = a*m + a as one-sided rules: where the right side is
    defined, so is the left, with equal value; (induction) each corpus
    formula's induction instance holds, decided by induction_fails on the
    swept elements.  The arithmetic rules are weaker than Kleene's two-sided
    equality (Introduction to Metamathematics, §63), which also asks the
    left side to be undefined where the right side is, so a structure with
    a sum or product defined above the top can pass them, as Truncation(12)
    with 12 * 12 = 12 does (ROADMAP direction 12).  Sweeps run exhaustively
    while size**2 <= budget and by seeded sampling above that.  An
    exhaustive induction verdict is exact.  A sampled failure is genuine; a
    sampled pass is evidence only, wrong when the sample misses every
    falsifier (see induction_fails).

    Every group but induction states each of its axioms as a lazy sweep of
    failure messages and reports the first failure of each sweep, through
    _first_failures: an operation whose value leaves the domain ends its
    group's report with the DomainError's message.  Induction reports every
    corpus formula whose instance fails or leaves the domain.

    Each question is asked once.  Every swept element's successor is
    computed once, for the successor and arithmetic groups alike, and
    serves as succ(n + m) whenever n + m is a swept element.  The order
    group asks less(a, b) and less(b, a) once per unordered pair: both of
    its pair conditions are symmetric, so an exhaustive sweep visits only
    the pairs whose first element comes first, and still meets the first
    failing pair of the full sweep.  Each arithmetic pair asks its two
    identities' operations once, and induction_fails evaluates each
    formula at most once per element.
    """
    if budget < 0:
        raise ValueError("budget must be at least 0")
    induction_corpus = list(induction_corpus)  # checked, then evaluated: read it once
    for phi in induction_corpus:
        if not is_first_order(phi):
            raise EvalError(f"induction corpus formula is not first-order: {print_formula(phi)}")
    induction_vars = [induction_variable(phi) for phi in induction_corpus]
    rng = random.Random(seed)
    exhaustive = m.size() ** 2 <= budget
    mode = "exhaustive" if exhaustive else "sampled"
    elements = list(m) if exhaustive else sample_elements(m, 256, rng)
    if not elements:
        return AxiomReport(False, {"order": GroupResult("order", False, mode, ["empty domain"])})
    top = m.order_max()
    # Exhaustive sweeps iterate pairs afresh in each group rather than store
    # size**2 tuples; sampled ones share 2000 drawn pairs.
    sampled = None if exhaustive else [(rng.choice(elements), rng.choice(elements)) for _ in range(2000)]
    less, plus, times, succ = m.less, m.plus, m.times, m.succ
    zero, one = m.zero, m.one
    failures = {}

    # Order: irreflexive, linear and antisymmetric on the swept elements; least
    # element 0, largest element top; discreteness via successor adjacency.
    def pair_failures():
        # Both pair conditions are symmetric, so the exhaustive sweep skips the
        # pairs whose first element comes later: each such pair's mirror image
        # came earlier and failed first.
        for a, b in itertools.combinations_with_replacement(elements, 2) if sampled is None else sampled:
            ab = less(a, b)
            ba = less(b, a) if a != b else ab
            if a != b and not ab and not ba:
                yield f"order not linear on {a!r}, {b!r}"
            if ab and ba:
                yield f"order not antisymmetric on {a!r}, {b!r}"

    endpoints = [["constant 0 absent"]] if zero is None else [
        (f"0 is not below {x!r}" for x in elements if x != zero and not less(zero, x)),
        (f"top {top!r} is not above {x!r}" for x in elements if x != top and not less(x, top)),
    ]
    failures["order"] = _first_failures(
        *endpoints,
        ["constant N absent"] if m.largest is None else (),
        (f"order not irreflexive at {x!r}" for x in elements if less(x, x)),
        pair_failures(),
    )

    # Successor: defined for every element below top, undefined at top,
    # and the value is the immediate order-successor.
    successor = {a: succ(a) for a in elements}

    def top_failures():
        if (successor[top] if top in successor else succ(top)) is not None:
            yield "successor of the largest element is defined"

    def step_failures():
        for a in elements:
            if a == top:
                continue
            s = successor[a]
            if s is None:
                yield f"successor undefined at {a!r} below the top"
            elif not less(a, s):
                yield f"successor of {a!r} is not above it"
            else:
                yield from (f"{b!r} lies strictly between {a!r} and its successor"
                            for b in elements if less(a, b) and less(b, s))

    failures["successor"] = _first_failures(top_failures(), step_failures())

    # Arithmetic: directed recursion identities as one-sided rules ("if the
    # right-hand side is defined, so is the left, with equal value"); an
    # undefined right-hand side leaves the left unchecked.
    def zero_failures():
        for a in elements:
            if plus(a, zero) != a:
                yield f"{a!r} + 0 != {a!r}"
            if times(a, zero) != zero:
                yield f"{a!r} * 0 != 0"

    def recursion_failures():
        for n, mm in itertools.product(elements, repeat=2) if sampled is None else sampled:
            sm = successor[mm]
            if sm is None:
                continue
            rhs = plus(n, mm)
            if rhs is not None:
                rhs = successor[rhs] if rhs in successor else succ(rhs)
            if rhs is not None and plus(n, sm) != rhs:
                yield f"{n!r} + ({mm!r}+1) != ({n!r}+{mm!r}) + 1"
            prod = times(n, mm)
            rhs = None if prod is None else plus(prod, n)
            if rhs is not None and times(n, sm) != rhs:
                yield f"{n!r} * ({mm!r}+1) != {n!r}*{mm!r} + {n!r}"

    failures["arithmetic"] = (
        ["constants 0 and 1 must denote in an FA model"] if zero is None or one is None
        else _first_failures(zero_failures(), recursion_failures())
    )

    # Induction: each corpus formula's induction instance holds on the swept
    # elements.  The instance's step ranges below N, so without N (reported
    # in the order group) it ranges over nothing and no instance is judged.
    failures["induction"] = fails = []
    if m.largest is not None:
        for phi, v in zip(induction_corpus, induction_vars):
            try:
                if induction_fails(m, phi, v, elements):
                    fails.append(f"induction instance fails for {print_formula(phi)}")
            except DomainError as exc:
                fails.append(f"induction instance for {print_formula(phi)} leaves the domain: {exc}")

    groups = {name: GroupResult(name, not fails, mode, fails) for name, fails in failures.items()}
    return AxiomReport(passed=all(g.passed for g in groups.values()), groups=groups)

"""Finite partial structures of arithmetic and the FA axiom checks.

The canonical structures are the substructures of the standard model
induced on finite sets of naturals (``SubsetWorld``); a truncation, the
paper's model {0, ..., n} of finite arithmetic, is the initial-segment case
(``Truncation``).  Their elements are plain Python ints (exact, unbounded).
Partial addition and multiplication return None when undefined; querying an
argument outside the domain raises DomainError instead.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .errors import DomainError, EvalError
from .logic import eval_formula, free_variables, is_first_order, print_formula


class PartialStructure:
    """A finite universe with numeric-style order and partial + and *.

    Subclasses provide ascending iteration, membership, size, the order,
    and the raw partial operations.  ``zero``/``one`` are None when the
    corresponding constant is absent from the domain; ``largest`` is None
    unless the structure is an FA model.
    """

    zero = None
    one = None
    largest = None

    def __iter__(self):
        raise NotImplementedError

    def __contains__(self, x):
        raise NotImplementedError

    def size(self):
        raise NotImplementedError

    def less(self, a, b):
        raise NotImplementedError

    def _plus(self, a, b):
        raise NotImplementedError

    def _times(self, a, b):
        raise NotImplementedError

    def _require(self, *xs):
        for x in xs:
            if x not in self:
                raise DomainError(f"{x!r} is not in the domain")

    def plus(self, a, b):
        self._require(a, b)
        return self._plus(a, b)

    def times(self, a, b):
        self._require(a, b)
        return self._times(a, b)

    def succ(self, a):
        """n + 1, undefined when 1 is absent or the sum leaves the domain."""
        self._require(a)
        if self.one is None:
            return None
        return self._plus(a, self.one)

    def iter_below(self, x):
        """Domain elements strictly below x, ascending."""
        for y in self:
            if not self.less(y, x):
                return
            yield y

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

    # Oracle plumbing: numeric value of an element and back.  Used by tests,
    # reports, and parameter computations, never by the in-model algorithms.
    def valuation(self, x):
        raise NotImplementedError

    def element(self, value):
        raise NotImplementedError


class SubsetWorld(PartialStructure):
    """The substructure of the standard model induced on a finite set of
    naturals.  Elements are ints, never bools; the order is the numeric
    one; a sum or product is defined exactly when its true value lies in
    the set; 0 and 1 denote only when present.  ``domain`` lists the set
    in ascending order, and an element's value is itself."""

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
        # The type test comes first: a float in a range is found by a
        # linear scan, and True == 1 would pass any membership test.
        return type(x) is int and x in self._members

    def size(self):
        return len(self.domain)

    def less(self, a, b):
        return a < b

    def _plus(self, a, b):
        c = a + b
        return c if c in self._members else None

    def _times(self, a, b):
        c = a * b
        return c if c in self._members else None

    def valuation(self, x):
        return x

    def element(self, value):
        self._require(value)
        return value

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


@dataclass
class GroupResult:
    name: str
    passed: bool
    mode: str  # "exhaustive" or "sampled"
    failures: list = field(default_factory=list)


@dataclass
class AxiomReport:
    passed: bool
    groups: dict

    def failures(self):
        out = []
        for g in self.groups.values():
            out.extend(g.failures)
        return out


def sample_elements(m, count, rng):
    """count distinct elements of m, ascending, drawn by value with rng and
    always including the least and the largest; all of m, in order, when m
    has at most count elements."""
    n = m.size()
    if n <= count:
        return list(m)
    vals = {0, n - 1}
    while len(vals) < count:
        vals.add(rng.randrange(n))
    # Value-based sampling keeps huge lazy domains cheap; the structures with
    # large domains (truncations, digit models) index elements by value.
    return [m.element(v) for v in sorted(vals)]


def induction_variable(phi):
    """The one free variable of an induction formula phi, or EvalError."""
    fv = sorted(free_variables(phi))
    if len(fv) != 1:
        raise EvalError(f"induction formula must have exactly one free variable, got {fv}")
    return fv[0]


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
    evaluator reads as an undefined term, as it reads the instance's."""
    top = m.largest

    def holds(a):
        return eval_formula(m, phi, {v: a})

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


def check_fa_axioms(m, induction_corpus=(), budget=10**6, seed=0):
    """Check the FA axiom groups on a structure presented as an FA model.

    Groups: (order) discrete linear order with endpoints 0 and top;
    (successor) defined exactly below the top; (arithmetic) the directed
    recursion identities for + and * in the Kleene sense; (induction) each
    corpus formula's induction instance holds, decided by induction_fails
    on the swept elements.  Sweeps run exhaustively while size**2 <= budget
    and by seeded sampling above that.  An exhaustive induction verdict is
    exact.  A sampled failure is genuine; a sampled pass is evidence only,
    wrong when the sample misses every falsifier (see induction_fails).
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
    try:
        top = m.order_max()
    except DomainError:
        report = AxiomReport(passed=False, groups={})
        report.groups["order"] = GroupResult("order", False, mode, ["empty domain"])
        return report

    if exhaustive:
        elements = list(m)
    else:
        elements = sample_elements(m, 256, rng)

    groups = {}

    # Order: irreflexive, linear and antisymmetric on the swept elements; least
    # element 0, largest element top; discreteness via successor adjacency.
    fails = []
    if m.zero is None:
        fails.append("constant 0 absent")
    else:
        for x in elements:
            if x != m.zero and not m.less(m.zero, x):
                fails.append(f"0 is not below {x!r}")
                break
        for x in elements:
            if x != top and not m.less(x, top):
                fails.append(f"top {top!r} is not above {x!r}")
                break
    if m.largest is None:
        fails.append("constant N absent")
    for x in elements:
        if m.less(x, x):
            fails.append(f"order not irreflexive at {x!r}")
            break
    # Exhaustive sweeps iterate every ordered pair afresh in each group
    # rather than store size**2 tuples; sampled ones share 2000 drawn pairs.
    sampled = None if exhaustive else [(rng.choice(elements), rng.choice(elements)) for _ in range(2000)]

    def pair_pool():
        return itertools.product(elements, repeat=2) if sampled is None else sampled

    for a, b in pair_pool():
        if a != b and not m.less(a, b) and not m.less(b, a):
            fails.append(f"order not linear on {a!r}, {b!r}")
            break
        if m.less(a, b) and m.less(b, a):
            fails.append(f"order not antisymmetric on {a!r}, {b!r}")
            break
    groups["order"] = GroupResult("order", not fails, mode, fails)

    # Successor: defined for every element below top, undefined at top,
    # and the value is the immediate order-successor.
    fails = []
    if m.succ(top) is not None:
        fails.append("successor of the largest element is defined")
    for a in elements:
        if a == top:
            continue
        s = m.succ(a)
        if s is None:
            fails.append(f"successor undefined at {a!r} below the top")
            break
        if not m.less(a, s):
            fails.append(f"successor of {a!r} is not above it")
            break
        for b in elements:
            if m.less(a, b) and m.less(b, s):
                fails.append(f"{b!r} lies strictly between {a!r} and its successor")
                break
        if fails:
            break
    groups["successor"] = GroupResult("successor", not fails, mode, fails)

    # Arithmetic: directed recursion identities, Kleene sense ("if the
    # right-hand side is defined, so is the left, with equal value").
    fails = []
    zero, one = m.zero, m.one
    if zero is None or one is None:
        fails.append("constants 0 and 1 must denote in an FA model")
    else:
        for a in elements:
            if m.plus(a, zero) != a:
                fails.append(f"{a!r} + 0 != {a!r}")
                break
            if m.times(a, zero) != zero:
                fails.append(f"{a!r} * 0 != 0")
                break
        for n, mm in pair_pool():
            sm = m.succ(mm)
            if sm is None:
                continue
            rhs = m.plus(n, mm)
            rhs = None if rhs is None else m.succ(rhs)
            if rhs is not None and m.plus(n, sm) != rhs:
                fails.append(f"{n!r} + ({mm!r}+1) != ({n!r}+{mm!r}) + 1")
                break
            prod = m.times(n, mm)
            rhs = None if prod is None else m.plus(prod, n)
            if rhs is not None and m.times(n, sm) != rhs:
                fails.append(f"{n!r} * ({mm!r}+1) != {n!r}*{mm!r} + {n!r}")
                break
    groups["arithmetic"] = GroupResult("arithmetic", not fails, mode, fails)

    # Induction: each corpus formula's induction instance holds on the swept
    # elements.  The instance's step ranges below N, so without N (reported
    # in the order group) it ranges over nothing and no instance is judged.
    fails = []
    if m.largest is not None:
        for phi, v in zip(induction_corpus, induction_vars):
            if induction_fails(m, phi, v, elements):
                fails.append(f"induction instance fails for {print_formula(phi)}")
    groups["induction"] = GroupResult("induction", not fails, mode, fails)

    return AxiomReport(passed=all(g.passed for g in groups.values()), groups=groups)

"""Finite partial structures of arithmetic and canonical truncation models.

Elements of the canonical structures are plain Python ints (exact, unbounded).
Partial addition and multiplication return None when undefined; querying an
argument outside the domain raises DomainError instead.
"""
from __future__ import annotations

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


class Truncation(PartialStructure):
    """The standard naturals cut at n: domain {0, ..., n}, operations
    defined exactly when the true result is at most n."""

    zero = 0
    one = 1

    def __init__(self, n):
        if n < 1:
            raise ValueError("truncation height must be at least 1 (the constant 1 must denote)")
        self.n = n
        self.largest = n

    def __iter__(self):
        return iter(range(self.n + 1))

    def __contains__(self, x):
        return isinstance(x, int) and not isinstance(x, bool) and 0 <= x <= self.n

    def size(self):
        return self.n + 1

    def less(self, a, b):
        return a < b

    def _plus(self, a, b):
        c = a + b
        return c if c <= self.n else None

    def _times(self, a, b):
        c = a * b
        return c if c <= self.n else None

    def iter_below(self, x):
        return iter(range(x))

    def valuation(self, x):
        return x

    def element(self, value):
        if not 0 <= value <= self.n:
            raise DomainError(f"value {value} outside truncation at {self.n}")
        return value

    def __repr__(self):
        return f"Truncation({self.n})"


class SubsetWorld(PartialStructure):
    """The induced substructure of the standard model on an arbitrary finite
    set of naturals.  A sum or product is defined exactly when its true
    value lies in the set; 0 and 1 denote only when present."""

    def __init__(self, elements):
        elems = sorted(set(elements))
        for x in elems:
            if x < 0:
                raise ValueError("subset worlds contain nonnegative integers only")
        self.domain = tuple(elems)
        self._set = frozenset(elems)
        self.zero = 0 if 0 in self._set else None
        self.one = 1 if 1 in self._set else None

    def __iter__(self):
        return iter(self.domain)

    def __contains__(self, x):
        return x in self._set

    def size(self):
        return len(self.domain)

    def less(self, a, b):
        return a < b

    def _plus(self, a, b):
        c = a + b
        return c if c in self._set else None

    def _times(self, a, b):
        c = a * b
        return c if c in self._set else None

    def valuation(self, x):
        return x

    def element(self, value):
        if value not in self._set:
            raise DomainError(f"value {value} not in subset world")
        return value

    def __repr__(self):
        return f"SubsetWorld({set(self.domain) if self.domain else '{}'})"


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
    every element of m.  Given a sample it proves nothing either way: a
    pass can miss a falsifier outside the sample, and a failure is spurious
    when the step that breaks the chain from 0 lies outside it.  An
    undefined 0 or a + 1 is assigned as None, which the evaluator reads as
    an undefined term, as it reads the instance's."""
    top = m.largest
    if not eval_formula(m, phi, {v: m.zero}):
        return False
    falsified = False
    for a in elements:
        if not eval_formula(m, phi, {v: a}):
            falsified = True
        elif top is not None and m.less(a, top) and not eval_formula(m, phi, {v: m.succ(a)}):
            return False
    return falsified


def check_fa_axioms(m, induction_corpus=(), budget=10**6, seed=0):
    """Check the FA axiom groups on a structure presented as an FA model.

    Groups: (order) discrete linear order with endpoints 0 and top;
    (successor) defined exactly below the top; (arithmetic) the directed
    recursion identities for + and * in the Kleene sense; (induction) each
    corpus formula's induction instance holds, decided by induction_fails
    on the swept elements.  Sweeps run exhaustively while size**2 <= budget
    and by seeded sampling above that.  An exhaustive induction verdict is
    exact; a sampled one is evidence only, wrong in either direction when
    the sample misses the deciding element (see induction_fails).
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
    elem_set = set(elements)

    groups = {}

    # Order: linear, irreflexive, transitive on the swept elements; least
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
    pair_pool = (
        [(a, b) for a in elements for b in elements]
        if exhaustive
        else [(rng.choice(elements), rng.choice(elements)) for _ in range(2000)]
    )
    for a, b in pair_pool:
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
        for b in elem_set:
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
        for n, mm in pair_pool:
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

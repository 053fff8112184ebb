"""Interpreting a strictly taller model inside a model of finite arithmetic.

``InterpretedModel`` is the lift M+ of a ground model M.  Its elements are
fixed-width base-b digit strings over M, where b is the largest ground
element whose square is defined.  The model holds the digit roster below b,
walked by b - 1 ground successor steps from 0, and two self-filling tables:
the carry and digit of a digit sum, and the high and low digits of a digit
product.  Order is lexical; successor and addition run the grade-school
algorithms column by column, multiplication is Knuth's Algorithm M, and all
consult the ground model only through those tables, that is, only for
arithmetic on individual digits (all below b).

Filling a table entry makes one ground operation, on two digits below b:
a digit sum asks for the sum itself, and a digit product asks for the
product only to check that it is defined.  The rest is bookkeeping on digit
positions, in Python integers: the digit i + j - b of a sum that leaves the
roster, the high and low digits divmod(i * j, b) of a product, and the table
keys i*b + j, which are below b*b.
"""
from __future__ import annotations

import functools
import itertools
import random
from typing import NamedTuple

from .core import (
    PartialStructure, _first_failures, induction_fails, induction_variable,
    largest_square_base, sample_elements,
)
from .errors import AdmissibilityError, DomainError, EvalError
from .logic import (
    Exists, Forall, _decide, _nodes, eval_formula, eval_term, free_variables,
    is_delta0, print_formula,
)


class DigitString:
    """A width-k base-b digit sequence, most significant digit first.

    Internally digits are stored by position index (0 .. b-1); the ground
    elements themselves are available through ``digits``.
    """

    __slots__ = ("model", "idx")

    def __init__(self, model, idx):
        self.model = model
        self.idx = idx

    @property
    def digits(self):
        roster = self.model.digits
        return tuple(roster[i] for i in self.idx)

    def __eq__(self, other):
        return (
            other.__class__ is DigitString
            and other.model is self.model
            and other.idx == self.idx
        )

    def __hash__(self):
        # Strings of two models with the same positions share a hash; __eq__
        # tells them apart by the identity of their models.
        return hash(self.idx)

    def as_string(self):
        b = self.model.base_value
        if b <= 36:
            alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
            return "".join(alphabet[i] for i in self.idx)
        return "[" + ",".join(str(i) for i in self.idx) + "]"

    def __repr__(self):
        return f"<{self.as_string()} base {self.model.base_value}>"


# The most digits a roster may hold.  The roster walk makes one ground
# successor per digit and keeps every digit: the tower's stage 4 over
# Truncation(12) would need about 2.2e7 of them and runs out of memory.
# A roster of 1e5 digits builds in about 0.1 s over a truncation (CPython
# 3.11 on an Intel Xeon).
_ROSTER_BUDGET = 10**5


class InterpretedModel(PartialStructure):
    """The taller model built from width-k base-b digit strings over a
    ground FA model.  Satisfies FA with the all-(b-1) string on top.

    ``InterpretedModel(ground, base, width)`` takes the ground element b
    and the width k.  Construction walks the digit roster 0, 1, ..., b-1 by
    b - 1 ground successor steps, and one more must reach b: ``digits``
    lists the ground digits, ``index`` maps each back to its position, and
    ``base_value`` is b, the roster length.

    The tables are dicts keyed by ints over digit positions:
    ``_adds[i*b + j]`` holds the (carry, digit) of digits[i] + digits[j],
    and ``_muls[i*b + j]`` the (high, low) digits of digits[i] * digits[j].
    The operations read them inline and call ``_fill_add``/``_fill_mul`` on
    a miss, so each entry is filled once, by a genuine ground operation on
    two digits below b.  No entry takes a carry in: a sum or successor adds
    its carry as the digit 1, and every carry a product adds is a digit.

    Construction refuses a base that is not a ground element, or whose value
    is below 2 or above _ROSTER_BUDGET, before the walk, and a walk whose
    b-th step does not land on b.  It makes no other ground operation, so it
    does not check that b's square exists there.  A base past the square
    bound builds, and its first digit product whose ground product is
    undefined raises DomainError; build_plus_model picks the largest base
    with a square and never meets this.

    ``zero``, ``one`` and ``largest`` are built on each read: the model
    holds no reference to itself, so reference counting frees it, and with
    it every stage of a tower, without the cycle collector.
    """

    def __init__(self, ground, base, width):
        if ground.zero is None or ground.one is None:
            raise DomainError("ground model must interpret 0 and 1")
        if width < 2:
            raise AdmissibilityError("digit width must be at least 2")
        if base not in ground:
            raise AdmissibilityError("ground model ends before the base")
        if (bv := ground.valuation(base)) < 2:
            raise AdmissibilityError("digit base must be at least 2")
        if bv > _ROSTER_BUDGET:
            raise AdmissibilityError(
                f"digit base {bv} is above the roster budget "
                f"of {_ROSTER_BUDGET} digits"
            )
        self.ground = ground
        self.base = base
        self.width = width
        digits = [ground.zero]
        while len(digits) < bv and (nxt := ground.succ(digits[-1])) is not None:
            digits.append(nxt)
        if len(digits) < bv or ground.succ(digits[-1]) != base:
            raise AdmissibilityError(f"{bv} successor steps from 0 do not reach the base")
        self.digits = digits
        self.index = {d: i for i, d in enumerate(digits)}
        self.base_value = bv
        self._adds = {}
        self._muls = {}

    @property
    def zero(self):
        return DigitString(self, (0,) * self.width)

    @property
    def one(self):
        return DigitString(self, (0,) * (self.width - 1) + (1,))

    @property
    def largest(self):
        return DigitString(self, (self.base_value - 1,) * self.width)

    def _fill_add(self, i, j):
        """Store and return the (carry, digit) of digits[i] + digits[j]."""
        b = self.base_value
        s = self.ground.plus(self.digits[i], self.digits[j])
        d = self.index.get(s)
        if s is None or d is None and i + j < b:
            raise DomainError("digit sum undefined or not a digit below the base")
        r = self._adds[i * b + j] = (1, i + j - b) if d is None else (0, d)
        return r

    def _fill_mul(self, i, j):
        """Store and return the (high, low) digits of digits[i] * digits[j]."""
        if self.ground.times(self.digits[i], self.digits[j]) is None:
            raise DomainError("digit product undefined; base exceeds the square bound")
        b = self.base_value
        r = self._muls[i * b + j] = divmod(i * j, b)
        return r

    def __iter__(self):
        for idx in itertools.product(range(self.base_value), repeat=self.width):
            yield DigitString(self, idx)

    def __contains__(self, x):
        return x.__class__ is DigitString and x.model is self

    def size(self):
        return self.base_value ** self.width

    # The checked queries test membership inline, as __contains__ does, and
    # call _require only to raise.

    def less(self, a, b):
        if not (a.__class__ is DigitString and a.model is self
                and b.__class__ is DigitString and b.model is self):
            self._require(a, b)
        return a.idx < b.idx  # lexical comparison, most significant first

    def plus(self, a, b):
        if not (a.__class__ is DigitString and a.model is self
                and b.__class__ is DigitString and b.model is self):
            self._require(a, b)
        return self._plus(a, b)

    def times(self, a, b):
        if not (a.__class__ is DigitString and a.model is self
                and b.__class__ is DigitString and b.model is self):
            self._require(a, b)
        return self._times(a, b)

    # The operations below read the tables inline and fill an entry only on
    # a miss: a function call per read would cost a third to a half of a
    # warm product.  The key of digits i and j is i*b + j in both tables, so
    # a carry into digit d is the add key d*b + 1.

    def _plus(self, a, b):
        adds, bv = self._adds, self.base_value
        s, t = a.idx, b.idx
        out = [0] * self.width
        c = 0
        for i in range(self.width - 1, -1, -1):
            si, ti = s[i], t[i]
            r = adds.get(si * bv + ti)
            if r is None:
                r = self._fill_add(si, ti)
            if c:
                c, d = r
                # The carry in is a second add, d + 1.  If the first add
                # carried, d is at most b - 2, so this one does not.
                r = adds.get(d * bv + 1)
                if r is None:
                    r = self._fill_add(d, 1)
                c, out[i] = c | r[0], r[1]
            else:
                c, out[i] = r
        # A carry out of the leading column: the sum is above the top.
        return None if c else DigitString(self, tuple(out))

    def succ(self, a):
        if not (a.__class__ is DigitString and a.model is self):
            self._require(a)
        adds, bv = self._adds, self.base_value
        out = list(a.idx)
        c = 1
        i = self.width - 1
        while c and i >= 0:
            d = out[i]
            r = adds.get(d * bv + 1)
            if r is None:
                r = self._fill_add(d, 1)
            c, out[i] = r
            i -= 1
        # A carry out of the leading column: a was the all-(b-1) string.
        return None if c else DigitString(self, tuple(out))

    def _times(self, a, b):
        adds, muls, bv, k = self._adds, self._muls, self.base_value, self.width
        s, t = a.idx, b.idx
        res = [0] * (2 * k)
        for j in range(k - 1, -1, -1):
            tj = t[j]
            if tj == 0:
                continue
            # Algorithm M (Knuth, TAOCP 2, 4.3.1): each digit product goes
            # straight into column i + j + 1: its digit + s[i]*tj + carry
            # <= b*b - 1, so every carry is a digit below b and a valid table
            # index.  The rows before wrote only the columns above j.
            carry = 0
            for i in range(k - 1, -1, -1):
                hi = lo = 0
                if si := s[i]:
                    r = muls.get(si * bv + tj)
                    if r is None:
                        r = self._fill_mul(si, tj)
                    hi, lo = r
                d = res[i + j + 1]
                for e in lo, carry:
                    if e:
                        r = adds.get(d * bv + e)
                        if r is None:
                            r = self._fill_add(d, e)
                        c, d = r
                        hi += c
                res[i + j + 1] = d
                carry = hi
            res[j] = carry
        # The true product needs more than k digits: it is above the top.
        return None if any(res[:k]) else DigitString(self, tuple(res[k:]))

    def iter_below(self, x):
        # Iteration is lexical, which is value order.
        return itertools.islice(self, self.valuation(x))

    def valuation(self, x):
        if not (x.__class__ is DigitString and x.model is self):
            self._require(x)
        b = self.base_value
        v = 0
        for i in x.idx:
            v = v * b + i
        return v

    def element(self, value):
        b, k = self.base_value, self.width
        if type(value) is not int:
            raise DomainError(f"value {value!r} is not an integer")
        if not 0 <= value < b**k:
            raise DomainError(f"value {value} outside the width-{k} base-{b} range")
        idx = [0] * k
        for i in range(k - 1, -1, -1):
            value, idx[i] = divmod(value, b)
        return DigitString(self, tuple(idx))

    def __repr__(self):
        return f"InterpretedModel(base={self.base_value}, width={self.width})"


# --- model construction ---

def minimal_admissible_width(base_value, top_value):
    """The least width k, at least 2, with base_value**k - 1 >= top_value**2."""
    if base_value < 2:
        raise AdmissibilityError("digit base must be at least 2")
    k = 2
    while base_value**k - 1 < top_value * top_value:
        k += 1
    return k


def build_plus_model(m, width=5, base=None):
    """The taller model over m, InterpretedModel(m, base, width): width-k
    digit strings in base b, by default the largest base whose square
    exists in m.  Requires k at least minimal_admissible_width, that is
    b**k - 1 >= N**2, so that N**2 exists upstairs and all ground sums and
    products become defined."""
    if base is None:
        base = largest_square_base(m)
    bv = m.valuation(base)
    top = m.valuation(m.order_max())
    if bv < 2:  # minimal_admissible_width refuses it too, without naming the cause
        raise AdmissibilityError(f"largest square base {bv} is below 2; the model is too short")
    k_min = minimal_admissible_width(bv, top)
    if width < k_min:
        raise AdmissibilityError(
            f"width {width} in base {bv} cannot reach N^2 = {top * top}; "
            f"minimal admissible width is {k_min}",
            minimal_width=k_min,
        )
    return InterpretedModel(m, base, width)


def embed_initial(m, m_plus):
    """The initial-segment embedding of m into m_plus, as a function that
    raises DomainError for an argument outside m: x goes to the digit
    string with x's value, so 73 goes to 00073 in base 10.  Value-, order-
    and operation-preserving with downward-closed image."""
    if m_plus.ground is not m:
        raise DomainError("lifted model was not built from this ground model")

    def embed(x):
        if x not in m:
            raise DomainError(f"{x!r} is not in the embedded model")
        return m_plus.element(m.valuation(x))

    return embed


# --- verification ---

class BiinterpReport(NamedTuple):
    passed: bool
    checks: dict
    failures: list


def verify_biinterpretation(m, m_plus, budget=10**6, seed=0, embedding=None):
    """Desk-scale evidence for the bi-interpretation of m with its lift:
    (i) the embedded copy of m is an isomorphic substructure: each defined
    sum and product is preserved, and one undefined in m has no image within
    the copy, (ii) every lifted element is reassembled by its own digit
    representation over the copy of b, (iii) round trips through the digit
    representation are the identity on ground elements.  Each fact is one
    lazy sweep of failure messages, reported by core._first_failures: the
    first message of each, or the message of a DomainError raised inside
    it."""
    if budget < 0:
        raise ValueError("budget must be at least 0")
    rng = random.Random(seed)
    e = embedding if embedding is not None else embed_initial(m, m_plus)
    checks = {}
    failures = []
    top = m.valuation(m.order_max())

    ground_elems = list(m) if m.size() * m.size() <= budget else sample_elements(m, 258, rng)
    image = functools.cache(e)  # called inside the sweeps, so a failing embedding is reported

    def check(name, sweep):  # a lazy sweep of failure messages
        failure = _first_failures(sweep)
        checks[name] = not failure
        failures.extend(failure)

    def copy_failures():
        images = {x: image(x) for x in ground_elems}
        ops = (("plus", m.plus, m_plus.plus), ("times", m.times, m_plus.times))
        for x, y in itertools.product(ground_elems, repeat=2):
            ex, ey = images[x], images[y]
            if m.less(x, y) != m_plus.less(ex, ey):
                yield f"order not preserved at ({x!r}, {y!r})"
            for name, op, op_plus in ops:
                r, ru = op(x, y), op_plus(ex, ey)
                if r is not None and (ru is None or m_plus.valuation(ru) != m.valuation(r)):
                    yield f"{name} not preserved at ({x!r}, {y!r})"
                if r is None and ru is not None and m_plus.valuation(ru) <= top:
                    yield f"{name} image not faithful at ({x!r}, {y!r})"

    check("embedded_copy_isomorphic", copy_failures())

    # (ii) each lifted element is rebuilt, inside the lifted model, from its
    # digit images and the image of b.
    strings = list(m_plus) if m_plus.size() <= 4096 else sample_elements(m_plus, 258, rng)
    check("representation_identity", (
        f"digit representation does not rebuild {s!r}"
        for s in strings if _fold_digits(m_plus, map(image, s.digits), image(m_plus.base)) != s
    ))

    # (iii) round trip: the digits of e(x) recombine to x inside the ground
    # model itself.
    check("round_trip_identity", (
        f"round trip fails at {x!r}"
        for x in ground_elems if _fold_digits(m, image(x).digits, m_plus.base) != x
    ))

    return BiinterpReport(passed=all(checks.values()), checks=checks, failures=failures)


def _fold_digits(model, digits, base):
    """acc * base + d over digits, most significant first, from zero and
    inside model; None once an operation is undefined."""
    acc = model.zero
    for d in digits:
        acc = model.times(acc, base)
        acc = None if acc is None else model.plus(acc, d)
        if acc is None:
            return None
    return acc


def verify_induction_lex(m_plus, phi):
    """The lexically least string falsifying phi, or None when phi holds
    everywhere: the counterexample of A v. phi found by the binder scan,
    whose iteration order over m_plus is lexical (most significant digit
    first)."""
    v = induction_variable(phi)
    return _decide(m_plus, Forall(v, None, phi), {}, None)[1]


# --- towers ---

class Tower(NamedTuple):
    """The stages T0, T1, ... built by build_tower, and the numeric value
    of each stage's largest element.  embed_initial preserves values, so
    the copy of a T0 element at stage i is stages[i].element(its value)."""

    stages: list
    heights: list


def build_tower(m, stage_count, width=5):
    """Iterate the lifting: stages m = T0, T1, ..., with each stage the
    digit-string model over the previous one."""
    if stage_count < 0:
        raise ValueError("stage count must be at least 0")
    stages = [m]
    for _ in range(stage_count):
        stages.append(build_plus_model(stages[-1], width=width))
    heights = [s.valuation(s.order_max()) for s in stages]
    return Tower(stages=stages, heights=heights)


class LimitValue(NamedTuple):
    value: int
    stage: int
    element: object


def limit_eval(tower, op, x, y):
    """Evaluate x op y (ground elements) at the least tower stage where it
    is defined."""
    if op not in ("plus", "times"):
        raise EvalError(f"unknown operation {op!r}")
    ground = tower.stages[0]
    vx, vy = ground.valuation(x), ground.valuation(y)  # DomainError for a foreign operand
    for i, stage in enumerate(tower.stages):
        xi, yi = stage.element(vx), stage.element(vy)
        r = stage.plus(xi, yi) if op == "plus" else stage.times(xi, yi)
        if r is not None:
            return LimitValue(value=stage.valuation(r), stage=i, element=r)
    raise EvalError(
        f"{op} of {x!r} and {y!r} is undefined at every materialized stage"
    )


class BoundedInductionReport(NamedTuple):
    passed: bool
    induction: list  # (stage, formula-text, ok)
    absoluteness: list  # (stage, formula-text, truth_i, truth_next, in_range, ok)
    failures: list


# check_bounded_induction scans a stage of at most this many elements whole,
# where its induction verdict is exact, and a sample drawn with the seed
# above it, where a failure is genuine and a pass is evidence only (see
# core.induction_fails).
_INDUCTION_BUDGET = 4096
_INDUCTION_SEED = 0


def check_bounded_induction(tower, corpus):
    """Induction instances of bounded formulas at every stage, plus truth
    agreement of closed bounded sentences between consecutive stages.  An
    induction verdict is exact at a stage scanned whole; at a sampled one a
    failure is genuine and a pass is evidence only (see _INDUCTION_BUDGET).
    N names each stage's own top, so a sentence whose bound is N can change
    truth from stage to stage, and is reported when it does.  A pair of
    stages where a closed quantifier bound is undefined in either is out of
    range: its row holds None as that stage's truth, and it is not judged.
    A DomainError ends its formula's check with a failure naming the stage."""
    induction = []
    absoluteness = []
    failures = []
    rng = random.Random(_INDUCTION_SEED)
    corpus = list(corpus)  # checked, then evaluated: read it once

    for phi in corpus:
        if not is_delta0(phi):
            raise EvalError(f"corpus formula is not Delta_0: {print_formula(phi)}")
    # Closed sentences are checked for absoluteness, the rest for induction.
    variables = [induction_variable(phi) if free_variables(phi) else None for phi in corpus]
    texts = [print_formula(phi) for phi in corpus]

    for phi, v, text in zip(corpus, variables, texts):
        try:
            if v is not None:
                for i, stage in enumerate(tower.stages):
                    small = stage.size() <= _INDUCTION_BUDGET
                    elements = list(stage) if small else sample_elements(stage, 50, rng)
                    ok = not induction_fails(stage, phi, v, elements)
                    induction.append((i, text, ok))
                    if not ok:
                        failures.append(f"induction instance of {text} fails at stage {i}")
            else:
                truths = []
                for i, stage in enumerate(tower.stages):
                    in_range = _outer_bounds_defined(stage, phi)
                    truths.append((i, in_range, eval_formula(stage, phi, {}) if in_range else None))
                for (i, ri, ti), (j, rj, tj) in zip(truths, truths[1:]):
                    if not (ri and rj):
                        absoluteness.append((i, text, ti, tj, False, True))
                        continue
                    ok = ti == tj
                    absoluteness.append((i, text, ti, tj, True, ok))
                    if not ok:
                        failures.append(
                            f"{text} changes truth between stages {i} ({ti}) and {j} ({tj})"
                        )
        except DomainError as exc:
            failures.append(f"{text} leaves the domain at stage {i}: {exc}")

    return BoundedInductionReport(
        passed=not failures,
        induction=induction,
        absoluteness=absoluteness,
        failures=failures,
    )


def _outer_bounds_defined(stage, phi):
    """Every closed quantifier bound in phi evaluates in stage."""
    return all(
        eval_term(stage, g.bound, {}) is not None
        for g in _nodes(phi)
        if isinstance(g, (Forall, Exists)) and g.bound is not None
        and not free_variables(g.bound)
    )


# --- purity instrumentation ---

class InstrumentedStructure:
    """Wrapper recording every operand pair handed to the wrapped
    structure's plus and times, a successor as a plus of one.  Every other
    attribute is the wrapped structure's own."""

    def __init__(self, base):
        self.base = base
        self.requests = []

    def __getattr__(self, name):
        return getattr(self.base, name)

    def __iter__(self):
        return iter(self.base)

    def __contains__(self, x):
        return x in self.base

    def reset(self):
        self.requests = []

    def plus(self, a, b):
        self.requests.append(("plus", a, b))
        return self.base.plus(a, b)

    def times(self, a, b):
        self.requests.append(("times", a, b))
        return self.base.times(a, b)

    def succ(self, a):
        if self.one is None:
            return None
        return self.plus(a, self.one)

    def all_operands_below(self, bound):
        return all(
            self.base.less(a, bound) and self.base.less(b, bound)
            for _, a, b in self.requests
        )

"""Interpreting a strictly taller model inside a model of finite arithmetic.

``InterpretedModel`` is the lift M+ of a ground model M.  Its elements are
fixed-width base-b digit strings over M, where b is the largest ground
element whose square is defined.  The model holds the digit roster below b
and two self-filling tables: the carry and digit of a digit sum, and the
high and low digits of a digit product.  Order is lexical; successor,
addition, and multiplication run the grade-school algorithms column by
column and consult the ground model only through those tables, that is,
only for arithmetic on individual digits (all below b).  Splitting a digit
sum or product into its two digits is bookkeeping on digit positions, which
never touches a quantity as large as b*b.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

from .core import (
    PartialStructure, induction_fails, induction_variable, largest_square_base,
    sample_elements,
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
            isinstance(other, DigitString)
            and other.model is self.model
            and other.idx == self.idx
        )

    def __hash__(self):
        return hash(self.idx) ^ id(self.model)

    def as_string(self):
        b = self.model.base_value
        if b <= 36:
            alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
            return "".join(alphabet[i] for i in self.idx)
        return "[" + ",".join(str(i) for i in self.idx) + "]"

    def __repr__(self):
        return f"<{self.as_string()} base {self.model.base_value}>"


class InterpretedModel(PartialStructure):
    """The taller model built from width-k base-b digit strings over a
    ground FA model.  Satisfies FA with the all-(b-1) string on top.

    ``InterpretedModel(ground, base, width)`` takes the ground element b
    and the width k.  Construction walks the digit roster 0, 1, ..., b-1 by
    ground successor: ``digits`` lists the ground digits, ``index`` maps
    each back to its position, and ``base_value`` is b, the roster length.
    The carry/digit tables fill themselves on first use, each entry once,
    by one genuine ground operation on digits below b.
    """

    def __init__(self, ground, base, width):
        if ground.zero is None or ground.one is None:
            raise DomainError("ground model must interpret 0 and 1")
        if width < 2:
            raise AdmissibilityError("digit width must be at least 2")
        self.ground = ground
        self.base = base
        self.width = k = width
        digits = [ground.zero]
        while (nxt := ground.succ(digits[-1])) != base:
            if nxt is None:
                raise AdmissibilityError("ground model ends before the base")
            digits.append(nxt)
        if len(digits) < 2:
            raise AdmissibilityError("digit base must be at least 2")
        self.digits = digits
        self.index = index = {d: i for i, d in enumerate(digits)}
        self.base_value = b = len(digits)

        @functools.cache
        def add3(i, j, c):
            """(carry, digit) of digits[i] + digits[j] + c, with c in {0, 1}."""
            if c:
                if i == b - 1:
                    return 1, j  # (b-1) + 1 overflows the digit range: total is b + j
                i = index[ground.plus(digits[i], ground.one)]
            s = index.get(ground.plus(digits[i], digits[j]))
            return (1, i + j - b) if s is None else (0, s)

        @functools.cache
        def mul2(i, j):
            """(high, low) digits of digits[i] * digits[j]."""
            if ground.times(digits[i], digits[j]) is None:
                raise DomainError("digit product undefined; base exceeds the square bound")
            return divmod(i * j, b)

        self._add3 = add3
        self._mul2 = mul2
        self.zero = DigitString(self, (0,) * k)
        self.one = DigitString(self, (0,) * (k - 1) + (1,))
        self.largest = DigitString(self, (b - 1,) * k)

    def __iter__(self):
        for idx in itertools.product(range(self.base_value), repeat=self.width):
            yield DigitString(self, idx)

    def __contains__(self, x):
        return isinstance(x, DigitString) and x.model is self

    def size(self):
        return self.base_value ** self.width

    def less(self, a, b):
        self._require(a, b)
        return a.idx < b.idx  # lexical comparison, most significant first

    def _plus(self, a, b):
        s, t = a.idx, b.idx
        out = [0] * self.width
        c = 0
        for i in range(self.width - 1, -1, -1):
            c, out[i] = self._add3(s[i], t[i], c)
        # A carry out of the leading column: the sum is above the top.
        return None if c else DigitString(self, tuple(out))

    def succ(self, a):
        self._require(a)
        out = list(a.idx)
        c = 1
        i = self.width - 1
        while c and i >= 0:
            c, out[i] = self._add3(out[i], 0, c)
            i -= 1
        # A carry out of the leading column: a was the all-(b-1) string.
        return None if c else DigitString(self, tuple(out))

    def _times(self, a, b):
        # Local names: reading the tables off self in these loops costs
        # about 8% of a product.
        add3, mul2, k = self._add3, self._mul2, self.width
        s, t = a.idx, b.idx
        res = [0] * (2 * k)
        for j in range(k - 1, -1, -1):
            tj = t[j]
            if tj == 0:
                continue
            # One schoolbook row: s times the digit tj, with eager carries.
            row = [0] * (k + 1)
            carry = 0
            for i in range(k - 1, -1, -1):
                si = s[i]
                if si == 0:
                    row[i + 1] = carry
                    carry = 0
                    continue
                hi, lo = mul2(si, tj)
                c1, row[i + 1] = add3(lo, carry, 0)
                carry = hi + c1
            row[0] = carry
            # Shifted addition of the row into the double-width result,
            # whose lowest column for this row is k + j.
            pos = k + j
            c = 0
            for r in range(k, -1, -1):
                rr = row[r]
                if rr or c:
                    c, res[pos] = add3(res[pos], rr, c)
                pos -= 1
            while c:
                c, res[pos] = add3(res[pos], 0, c)
                pos -= 1
        # The true product needs more than k digits: it is above the top.
        return None if any(res[:k]) else DigitString(self, tuple(res[k:]))

    def iter_below(self, x):
        # Iteration is lexical, which is value order.
        return itertools.islice(self, self.valuation(x))

    def valuation(self, x):
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
        idx = []
        for _ in range(k):
            value, r = divmod(value, b)
            idx.append(r)
        return DigitString(self, tuple(reversed(idx)))

    def __repr__(self):
        return f"InterpretedModel(base={self.base_value}, width={self.width})"


# --- model construction ---

def minimal_admissible_width(base_value, top_value):
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
    if bv < 2:  # minimal_admissible_width never returns for such a base
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

@dataclass
class BiinterpReport:
    passed: bool
    checks: dict
    failures: list = field(default_factory=list)


def verify_biinterpretation(m, m_plus, budget=10**6, seed=0, embedding=None):
    """Desk-scale evidence for the bi-interpretation of m with its lift:
    (i) the embedded copy of m is an isomorphic substructure, (ii) every
    lifted element is reassembled by its own digit representation over the
    copy of b, (iii) round trips through the digit representation are the
    identity on ground elements."""
    if budget < 0:
        raise ValueError("budget must be at least 0")
    rng = random.Random(seed)
    e = embedding if embedding is not None else embed_initial(m, m_plus)
    checks = {}
    failures = []
    top = m.valuation(m.order_max())

    ground_elems = list(m) if m.size() * m.size() <= budget else sample_elements(m, 258, rng)
    images = {x: e(x) for x in ground_elems}

    ok = True
    for x in ground_elems:
        for y in ground_elems:
            ex, ey = images[x], images[y]
            if m.less(x, y) != m_plus.less(ex, ey):
                ok = False
                failures.append(f"order not preserved at ({x!r}, {y!r})")
                break
            s = m.plus(x, y)
            su = m_plus.plus(ex, ey)
            if s is not None and (su is None or m_plus.valuation(su) != m.valuation(s)):
                ok = False
                failures.append(f"plus not preserved at ({x!r}, {y!r})")
                break
            if s is None and su is not None and m_plus.valuation(su) <= top:
                ok = False
                failures.append(f"plus image not faithful at ({x!r}, {y!r})")
                break
            p = m.times(x, y)
            pu = m_plus.times(ex, ey)
            if p is not None and (pu is None or m_plus.valuation(pu) != m.valuation(p)):
                ok = False
                failures.append(f"times not preserved at ({x!r}, {y!r})")
                break
        if not ok:
            break
    checks["embedded_copy_isomorphic"] = ok

    # (ii) each lifted element is rebuilt, inside the lifted model, from its
    # digit images and the image of b.
    eb = e(m_plus.base)
    strings = list(m_plus) if m_plus.size() <= 4096 else sample_elements(m_plus, 258, rng)
    ok = True
    for s in strings:
        if _fold_digits(m_plus, map(e, s.digits), eb) != s:
            ok = False
            failures.append(f"digit representation does not rebuild {s!r}")
            break
    checks["representation_identity"] = ok

    # (iii) round trip: the digits of e(x) recombine to x inside the ground
    # model itself.
    ok = True
    for x in ground_elems:
        if _fold_digits(m, images[x].digits, m_plus.base) != x:
            ok = False
            failures.append(f"round trip fails at {x!r}")
            break
    checks["round_trip_identity"] = ok

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

@dataclass
class Tower:
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


@dataclass
class LimitValue:
    value: int
    stage: int
    element: object


def limit_eval(tower, op, x, y):
    """Evaluate x op y (ground elements) at the least tower stage where it
    is defined."""
    if op not in ("plus", "times"):
        raise EvalError(f"unknown operation {op!r}")
    # Stage 0 gets the operands themselves, so its domain check rejects
    # foreign ones; higher stages get the copies of their values.
    ground = tower.stages[0]
    xi, yi = x, y
    for i, stage in enumerate(tower.stages):
        if i:
            xi, yi = stage.element(ground.valuation(x)), stage.element(ground.valuation(y))
        r = stage.plus(xi, yi) if op == "plus" else stage.times(xi, yi)
        if r is not None:
            return LimitValue(value=stage.valuation(r), stage=i, element=r)
    raise EvalError(
        f"{op} of {x!r} and {y!r} is undefined at every materialized stage"
    )


@dataclass
class BoundedInductionReport:
    passed: bool
    induction: list  # (stage, formula-text, ok)
    absoluteness: list  # (stage, formula-text, truth_i, truth_next, in_range, ok)
    failures: list = field(default_factory=list)


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
    failure is genuine and a pass is evidence only (see _INDUCTION_BUDGET)."""
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

    for phi, v in zip(corpus, variables):
        text = print_formula(phi)
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

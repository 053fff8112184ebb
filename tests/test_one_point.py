"""One-point elimination: an unbounded quantifier whose body pins its
variable scans one candidate.

Each pinned shape is judged by the definitional semantics of
bench/oracles.py on generated sentences that contain it, for the truth and for
the witness chain of ``fa eval --trace``; on a structure whose sums leave
its domain, where the oracle's arithmetic does not apply, by the full scan
itself.  A graph atom pins as the equation it states, and is checked to
evaluate as that equation.  The paper's sentences are then run on a chain
of truncations whose top has 3,125 elements.
"""
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finarith import logic
from finarith.cli import _quantifier_trace
from finarith.core import SubsetWorld, Truncation
from finarith.errors import EvalError, WrongEvaluatorError
from finarith.logic import (
    Exists, Forall, _nodes, _range, eval_formula, parse_formula, print_formula,
)
from finarith.modal import load_system
from test_properties import oracles

X = ("var", "x")
OUTER = ("a", "b")


def terms(names):
    """Terms over names and the constants, up to three leaves deep."""
    leaves = st.sampled_from([("var", n) for n in names] + [("0",), ("1",), ("N",)])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(st.just("S"), sub),
            st.tuples(st.sampled_from(["+", "*"]), sub, sub),
        ),
        max_leaves=3,
    )


def matrices(names):
    """Quantifier-free formulas over names, with up to three atoms."""
    t = terms(names)
    atoms = st.one_of(
        st.tuples(st.sampled_from(["=", "<"]), t, t),
        st.tuples(st.just("Def"), t),
        st.tuples(st.sampled_from(["Plus", "Times"]), t, t, t),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.tuples(st.just("!"), sub),
            st.tuples(st.sampled_from(["&", "|", "->"]), sub, sub),
        ),
        max_leaves=3,
    )


@st.composite
def pins(draw, names):
    """x = t, t = x, Plus(a, b, x) or Times(a, b, x), x not in t, a or b."""
    t = terms(names)
    kind = draw(st.sampled_from(["x=t", "t=x", "Plus", "Times"]))
    if kind == "x=t":
        return ("=", X, draw(t))
    if kind == "t=x":
        return ("=", draw(t), X)
    return (kind, draw(t), draw(t), X)


@st.composite
def pinned_quantifiers(draw, names=OUTER, pin_names=OUTER):
    """(a quantifier over x in one of the pinned shapes, whether it pins x).
    The pin's terms range over pin_names, the rest over names."""
    pin = draw(pins(pin_names))
    phi = draw(matrices(names + ("x",)))
    shape = draw(st.sampled_from([
        "alone", "pin-left", "pin-right", "inner-E", "inner-E-captures",
        "shadowed", "A-antecedent", "A-negated", "A-inner-E",
    ]))
    if shape == "alone":
        return ("E", "x", None, pin), True
    if shape == "pin-left":
        return ("E", "x", None, ("&", pin, phi)), True
    if shape == "pin-right":
        return ("E", "x", None, ("&", phi, pin)), True
    if shape == "inner-E":
        # The pin sits under an inner E block whose own matrix names y.
        inner = draw(matrices(names + ("x", "y")))
        return ("E", "x", None, ("E", "y", None, ("&", inner, pin))), True
    if shape == "inner-E-captures":
        # x = t, with y in t, is no pin under E y: x's value varies with y.
        y = ("var", "y")
        t = draw(st.one_of(st.just(y), terms(pin_names).map(lambda t: ("+", t, y))))
        inner = draw(matrices(names + ("y",)))
        return ("E", "x", None, ("E", "y", None, ("&", inner, ("=", X, t)))), False
    if shape == "shadowed":
        # The left conjunct rebinds x, so only the right one can pin it.
        if draw(st.booleans()):
            return ("E", "x", None, ("&", ("E", "x", None, draw(pins(names))), pin)), True
        return ("E", "x", None, ("&", ("E", "x", None, pin), draw(matrices(names)))), False
    if shape == "A-antecedent":
        return ("A", "x", None, ("->", pin, phi)), True
    if shape == "A-negated":
        return ("A", "x", None, ("!", ("&", phi, pin))), True
    inner = draw(matrices(names + ("x", "y")))
    return ("A", "x", None, ("->", ("E", "y", None, ("&", inner, pin)), phi)), True


@st.composite
def sentences(draw, names=OUTER, pin_names=OUTER):
    """(a formula whose quantifier over x is pinned or not, as told, under
    a prefix over a and b; whether it pins x).  It is a sentence when names
    and pin_names are a and b only."""
    f, pinned = draw(pinned_quantifiers(names, pin_names))
    for name in reversed(OUTER):
        f = (draw(st.sampled_from(["A", "E"])), name, None, f)
    return f, pinned


worlds = st.one_of(
    st.integers(min_value=1, max_value=9).map(lambda n: (Truncation(n), oracles.truncation(n))),
    st.frozensets(st.integers(min_value=0, max_value=12), max_size=9).map(
        lambda s: (SubsetWorld(s), oracles.subset_world(s))
    ),
)


def x_quantifier(f):
    """The outermost quantifier over x in the parsed sentence f."""
    return next(g for g in _nodes(f) if isinstance(g, (Forall, Exists)) and g.var == "x")


def is_pinned(q):
    """Whether the quantifier node q scans one candidate."""
    return getattr(_range(q), "func", None) is logic._one_point


def outcome(run):
    """run()'s value, or the class of the error it raised."""
    try:
        return run()
    except Exception as exc:  # the error is the outcome compared
        return type(exc)


def full_scan(f):
    """f as a fresh tree, compiled with every unbounded quantifier scanning
    the whole structure."""
    with mock.patch.object(logic, "_pin", lambda v, body, want: None):
        g = parse_formula(print_formula(f))
        logic._code(g)
    return g


@settings(max_examples=300, deadline=None)
@given(sentences(), worlds)
def test_pinned_shapes_match_the_oracle(case, world):
    (g, pinned), (m, w) = case, world
    f = parse_formula(oracles.show(g))
    assert is_pinned(x_quantifier(f)) == pinned
    expected = oracles.fo_holds(g, w)
    assert eval_formula(m, f) == expected
    assert _quantifier_trace(m, f) == (expected, oracles.quantifier_trace(g, w))


@settings(max_examples=300, deadline=None)
@given(sentences(names=OUTER + ("u",), pin_names=OUTER + ("u",)), worlds)
def test_an_unassigned_variable_is_met_as_before(case, world):
    # u is bound nowhere and may occur in the pin and in the rest of the
    # body.  A quantifier with an unassigned free variable scans its whole
    # range, so it raises EvalError where the full scan did, at elements
    # that cannot decide it too.
    (g, _), (m, w) = case, world
    f = parse_formula(oracles.show(g))
    got = outcome(lambda: eval_formula(m, f))
    assert got == outcome(lambda: eval_formula(m, full_scan(f)))
    expected = outcome(lambda: oracles.fo_holds(g, w))
    if expected is not KeyError:  # the oracle evaluates every term of an atom
        assert got == expected


class LeakyTruncation(Truncation):
    """A truncation whose sums and products are the true ones, in its
    domain or not: a + b may name a value past the top."""

    def _plus(self, a, b):
        return a + b

    def _times(self, a, b):
        return a * b


@settings(max_examples=200, deadline=None)
@given(sentences(), st.integers(min_value=1, max_value=9))
def test_operations_that_leave_the_domain_keep_the_scan_verdict(case, n):
    # Past the top a candidate is no element, so the range is empty, and a
    # term over it raises DomainError.  Every body the one-point scan
    # evaluates, the full scan evaluates too, so where the full scan gives
    # a verdict it is the same; where the full scan raises at an element
    # that cannot decide the quantifier, the one-point scan may not get
    # there.
    g, _ = case
    m = LeakyTruncation(n)
    f = parse_formula(oracles.show(g))
    reference = full_scan(f)
    for run in (eval_formula, _quantifier_trace):
        got, expected = outcome(lambda: run(m, f)), outcome(lambda: run(m, reference))
        assert got == expected or isinstance(expected, type) and not isinstance(got, type)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([("Plus", "+"), ("Times", "*")]),
    *[terms(OUTER + ("u",))] * 3,
    st.one_of(worlds.map(lambda pair: pair[0]), st.integers(1, 9).map(LeakyTruncation)),
    st.data(),
)
def test_a_graph_atom_is_its_equation(op, a, b, c, m, data):
    # Plus(a, b, c) is a + b = c and Times(a, b, c) is a * b = c: the same
    # value, or the same error, at every assignment.  u is never assigned,
    # and a leaky truncation's terms may leave its domain.
    name, sym = op
    elements = list(m)
    assignment = {v: data.draw(st.sampled_from(elements)) for v in OUTER} if elements else {}
    atom = parse_formula(oracles.show((name, a, b, c)))
    equation = parse_formula(oracles.show(("=", (sym, a, b), c)))
    assert outcome(lambda: eval_formula(m, atom, dict(assignment))) == outcome(
        lambda: eval_formula(m, equation, dict(assignment))
    )


def test_open_and_modal_bodies_meet_their_errors_as_before():
    # Each body raises at x = 0, which cannot decide; the candidate, 1 or
    # undefined, would.
    m = Truncation(3)
    for text, error in (
        ("E x. ((x = 1 | b = 0) & x = 1)", EvalError),
        ("E x. (dia 0 = 0 & x = N + 1)", WrongEvaluatorError),
        ("A x. ((dia 0 = 0 & x = N + 1) -> 0 = 1)", WrongEvaluatorError),
    ):
        f = parse_formula(text)
        assert is_pinned(f), text
        for run in (eval_formula, _quantifier_trace):
            with pytest.raises(error):
                run(m, f)


def test_inner_binders_stop_or_hide_the_pin():
    shapes = {
        "E x. x = a + 1": True,
        "E x. (x < 1 & E y. (0 < y & a + 1 = x))": True,
        "E x. E y. x = y": False,  # y is bound between
        "E x. E x. x = 0": False,  # the inner x is another variable
        "E x. (E x. x = 0) & x = 1": True,
        "E x. x = x + 1": False,
        "E x. !(x = 1 -> 0 = 0)": True,  # a false -> forces its antecedent
        "E x. (x = 1 | x = 0)": False,  # a true | forces neither side
        "E x. dia x = 1": False,  # truth at other worlds says nothing here
        "A z. (Plus(a, b, z) -> z < N)": True,
        "A x. (x = 1 & 0 = 0)": False,  # a false & forces neither side
        "A x. !E y. (y < x & Times(a, 1, x))": True,
        "A x. A y. (x = a -> y = y)": True,
        "E x < N. x = 1": False,  # bounded quantifiers keep their scan
        "E x. Plus(x, a, x)": False,  # a graph atom pins as its equation
        "E x. Times(a, x, x)": False,
        "E x. E y. Plus(y, a, x)": False,
        "E x. E y. Times(a, y, x)": False,
        "E x. !(Times(a, b, x) -> x = 0)": True,
    }
    for text, pinned in shapes.items():
        f = parse_formula(text)
        assert is_pinned(f) == pinned, text


# --- the paper's sentences on the chain of truncations 4, 31, 3124 ---

SUCC_POSSIBLE = "A a. dia E b. b = a + 1"
SPLIT_SENTENCES = (
    "A a. A b. dia E c. E d. (Plus(a, b, c) & Times(a, b, d))",
    "A a. A b. dia (E c. Plus(a, b, c) & E d. Times(a, b, d))",
)


class CountingTruncation(Truncation):
    """Counts the ground sums and products asked of it."""

    def __init__(self, n):
        super().__init__(n)
        self.requests = 0

    def _plus(self, a, b):
        self.requests += 1
        return super()._plus(a, b)

    def _times(self, a, b):
        self.requests += 1
        return super()._times(a, b)


def chain(*tops):
    worlds = [w if isinstance(w, Truncation) else Truncation(w) for w in tops]
    pairs = [(i, j) for i in range(len(worlds)) for j in range(i, len(worlds))]
    return load_system(worlds, [str(w.n) for w in worlds], pairs)


@pytest.mark.parametrize("text, closed_form", [
    (SUCC_POSSIBLE, oracles.succ_possible),
    *((text, oracles.sum_product_possible) for text in SPLIT_SENTENCES),
])
def test_paper_sentences_hold_below_the_top_of_the_chain(text, closed_form):
    # Every operation of a world is defined one world up, but not at the
    # top: the oracle's closed forms from the heights say so.  On a chain
    # small enough for the oracle's own scans, its semantics decides too.
    f = parse_formula(text)
    tops = (4, 31, 3124)
    verdicts = [chain(*tops).decide(i, f)[0] for i in range(3)]
    assert verdicts == [True, True, False]
    assert verdicts == [closed_form(n, tops[-1]) for n in tops]
    small = (2, 3, 4)
    frame = oracles.Frame(
        [oracles.truncation(n) for n in small], list(map(str, small)),
        [list(range(i, len(small))) for i in range(len(small))],
    )
    g = oracles.parse(text)
    assert [chain(*small).decide(i, f)[0] for i in range(3)] == [
        oracles.holds(g, frame, i, {}) for i in range(3)
    ]


def test_a_modal_body_is_pinned_in_modal_evaluation():
    # With a modal callback the dia cannot raise, so b scans one candidate
    # per a, not the whole top world.
    world = CountingTruncation(3124)
    system = chain(4, 31, world)
    world.requests = 0
    f = parse_formula("A a. E b. (dia b = b & b = a + 1)")
    assert system.decide(2, f) == (False, None)
    assert world.requests == 2 * 3124 + 1


@pytest.mark.parametrize("top", (1561, 3124))
def test_successor_sentence_at_the_top_asks_linearly_many_sums(top):
    # Each a asks a + 1 twice, once for the candidate and once in b = a + 1;
    # a full scan of b asked it about a times, some 4.9 million sums at 3124.
    world = CountingTruncation(top)
    system = chain(4, 31, world)
    world.requests = 0
    assert system.decide(2, parse_formula(SUCC_POSSIBLE)) == (False, None)
    assert world.requests == 2 * top + 1

"""Differential checks of eval_modal and of ``fa eval --trace`` against a
definitional Kripke evaluator.

The reference below follows the textbook clauses directly, with no memo,
so a wrong memo key in the library (for instance one that drops a free
variable of a dia/box body) shows up as a disagreement.  The trace is
checked against a scan of each quantifier's range written here.
"""
import io
import json
from functools import lru_cache
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from finarith.cli import main
from finarith.core import make_subset_world, make_truncation
from finarith.logic import (
    And, Const0, Const1, ConstN, Defined, Eq, Exists, Forall, Implies, Lt,
    Necessarily, Not, Or, PlusAtom, Possibly, Prod, Succ, Sum, TimesAtom, Var,
    print_formula,
)
from finarith.modal import (
    aristotelian_system, arbitrary_set_system, eval_modal, fork_system,
)

SYSTEMS = [fork_system(), arbitrary_set_system(1), arbitrary_set_system(2), aristotelian_system(4)]
VARS = ("x", "y")


def ref_term(w, t, a):
    match t:
        case Var(name):
            return a[name]
        case Const0():
            return w.zero
        case Const1():
            return w.one
        case ConstN():
            return w.largest
        case Succ(s):
            x = ref_term(w, s, a)
            return None if x is None else w.succ(x)
        case Sum(l, r) | Prod(l, r):
            x, y = ref_term(w, l, a), ref_term(w, r, a)
            op = w.plus if isinstance(t, Sum) else w.times
            return None if x is None or y is None else op(x, y)


def ref_range(w, bound, a):
    """The elements of w a quantifier with this bound ranges over."""
    if bound is None:
        return list(w)
    b = ref_term(w, bound, a)
    return [] if b is None else [x for x in w if w.less(x, b)]


def ref_eval(sys, i, f, a):
    w = sys.worlds[i]
    match f:
        case Eq(l, r) | Lt(l, r):
            x, y = ref_term(w, l, a), ref_term(w, r, a)
            return x is not None and y is not None and (x == y if isinstance(f, Eq) else w.less(x, y))
        case Defined(t):
            return ref_term(w, t, a) is not None
        case PlusAtom(s, t, u) | TimesAtom(s, t, u):
            x, y, z = (ref_term(w, g, a) for g in (s, t, u))
            op = w.plus if isinstance(f, PlusAtom) else w.times
            return None not in (x, y, z) and op(x, y) == z
        case Not(g):
            return not ref_eval(sys, i, g, a)
        case And(l, r):
            return ref_eval(sys, i, l, a) and ref_eval(sys, i, r, a)
        case Or(l, r):
            return ref_eval(sys, i, l, a) or ref_eval(sys, i, r, a)
        case Implies(l, r):
            return not ref_eval(sys, i, l, a) or ref_eval(sys, i, r, a)
        case Forall(v, bound, g) | Exists(v, bound, g):
            test = all if isinstance(f, Forall) else any
            return test(ref_eval(sys, i, g, {**a, v: x}) for x in ref_range(w, bound, a))
        case Possibly(g) | Necessarily(g):
            test = any if isinstance(f, Possibly) else all
            return test(ref_eval(sys, j, g, a) for j in sys.access[i])


@lru_cache(maxsize=None)
def terms(scope):
    leaves = [Const0(), Const1(), ConstN()] + [Var(v) for v in sorted(scope)]
    return st.recursive(
        st.sampled_from(leaves),
        lambda t: st.one_of(st.builds(Succ, t), st.builds(Sum, t, t), st.builds(Prod, t, t)),
        max_leaves=3,
    )


@lru_cache(maxsize=None)
def atoms(scope):
    t = terms(scope)
    return st.one_of(
        st.builds(Eq, t, t), st.builds(Lt, t, t), st.builds(Defined, t),
        st.builds(PlusAtom, t, t, t), st.builds(TimesAtom, t, t, t),
    )


@lru_cache(maxsize=None)
def formulas(scope, depth):
    """Formulas whose free variables lie in scope, nested at most depth deep."""
    if depth == 0:
        return atoms(scope)
    sub = formulas(scope, depth - 1)

    def quantified(v):
        return st.builds(
            lambda q, bound, body: q(v, bound, body),
            st.sampled_from([Forall, Exists]),
            st.none() | terms(scope),
            formulas(scope | {v}, depth - 1),
        )

    return st.one_of(
        atoms(scope),
        st.builds(Not, sub), st.builds(Possibly, sub), st.builds(Necessarily, sub),
        st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Implies, sub, sub),
        st.sampled_from(VARS).flatmap(quantified),
    )


# One free variable x that occurs under dia/box: the memo key must carry it.
open_modal = st.builds(
    lambda op, body: op(body),
    st.sampled_from([Possibly, Necessarily]),
    formulas(frozenset({"x"}), 2),
)


@settings(max_examples=150, deadline=None)
@given(formulas(frozenset(), 3))
def test_closed_formulas_match_definitional_semantics(f):
    for sys in SYSTEMS:
        for i in range(len(sys.worlds)):
            assert eval_modal(sys, i, f) == ref_eval(sys, i, f, {}), (sys.ids[i], f)


@settings(max_examples=150, deadline=None)
@given(open_modal, st.sampled_from([Forall, Exists]))
def test_free_variable_under_modality_matches_definitional_semantics(f, q):
    closed = q("x", None, f)
    for sys in SYSTEMS:
        for i, w in enumerate(sys.worlds):
            for x in w:
                assert eval_modal(sys, i, f, {"x": x}) == ref_eval(sys, i, f, {"x": x}), (sys.ids[i], x, f)
            assert eval_modal(sys, i, closed) == ref_eval(sys, i, closed, {}), (sys.ids[i], closed)


def quantifier_chains(scope, depth):
    """First-order sentences opening with depth quantifiers, each bounded
    or unbounded, over a quantifier-free matrix; free variables in scope."""
    if depth == 0:
        return st.recursive(
            atoms(scope),
            lambda g: st.one_of(
                st.builds(Not, g), st.builds(And, g, g), st.builds(Or, g, g),
                st.builds(Implies, g, g),
            ),
            max_leaves=3,
        )
    return st.sampled_from(VARS + ("z",)).flatmap(
        lambda v: st.builds(
            lambda q, bound, body: q(v, bound, body),
            st.sampled_from([Forall, Exists]),
            st.none() | terms(scope),
            quantifier_chains(scope | {v}, depth - 1),
        )
    )


# (CLI model flags, the same model built here)
TRACE_MODELS = [
    (["--trunc", "3"], make_truncation(3)),
    (["--trunc", "6"], make_truncation(6)),
    (["--subset", "0,1,2,3"], make_subset_world([0, 1, 2, 3])),
    (["--subset", "0,2,3,5"], make_subset_world([0, 2, 3, 5])),
    (["--subset", "1,2"], make_subset_world([1, 2])),
]


def ref_trace(w, f):
    """Each leading quantifier's least deciding element: the least element
    of its range where the body holds (E) or fails (A).  The chain stops at
    the first quantifier with none."""
    sys, a, steps = SimpleNamespace(worlds=[w]), {}, []
    while isinstance(f, (Forall, Exists)):
        want = isinstance(f, Exists)
        deciders = [
            x for x in ref_range(w, f.bound, a)
            if ref_eval(sys, 0, f.body, {**a, f.var: x}) == want
        ]
        if not deciders:
            break
        x = min(deciders, key=w.valuation)
        kind = "witness" if want else "counterexample"
        steps.append({"kind": kind, "var": f.var, "value": w.valuation(x)})
        a = {**a, f.var: x}
        f = f.body
    return steps


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda depth: quantifier_chains(frozenset(), depth)))
def test_trace_names_the_least_deciding_element_of_each_level(f):
    for flags, w in TRACE_MODELS:
        out = io.StringIO()
        assert main(["--format", "json", "eval", *flags, "--trace", print_formula(f)], out=out) == 0
        result = json.loads(out.getvalue())["results"][0]
        assert result["value"] == ref_eval(SimpleNamespace(worlds=[w]), 0, f, {}), (flags, f)
        assert result["trace"] == ref_trace(w, f), (flags, f)

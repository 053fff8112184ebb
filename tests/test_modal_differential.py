"""Differential checks of eval_modal, the schema checks, the Dot3 search
and ``fa eval --trace`` against a definitional Kripke evaluator.

The reference below follows the textbook clauses directly, with no labels,
so a wrong label key in the library (for instance one that drops a free
variable of a dia/box body) shows up as a disagreement.  The schema checks
and the Dot3 search are checked against instances built and evaluated
here, and the trace against a scan of each quantifier's range.
"""
import io
import itertools
import json
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_properties import subset_families

from finarith import modal
from finarith.cli import main
from finarith.core import SubsetWorld, make_subset_world, make_truncation
from finarith.logic import (
    And, Const0, Const1, ConstN, Defined, Eq, Exists, Forall, Implies, Lt,
    Necessarily, Not, Or, PlusAtom, Possibly, Prod, Succ, Sum, TimesAtom, Var,
    print_formula,
)
from finarith.modal import (
    SCHEMAS, aristotelian_system, arbitrary_set_system, check_schema, eval_modal,
    fork_system, load_system, search_dot3_counterexample,
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


def ref_decide(sys, i, f, a):
    """(truth of the dia/box f at world i, the least accessible world
    where its body holds (dia) or fails (box), or None)."""
    want = isinstance(f, Possibly)
    deciders = [j for j in sorted(sys.access[i]) if ref_eval(sys, j, f.body, a) == want]
    return (want, deciders[0]) if deciders else (not want, None)


def modal_nodes(f):
    """The dia/box nodes of f outside its quantifiers and atoms, outermost
    first; in a closed f they are closed."""
    if isinstance(f, (Possibly, Necessarily)):
        yield f
    for child in (getattr(f, field) for field in f.__match_args__):
        if isinstance(child, (Possibly, Necessarily, Not, And, Or, Implies)):
            yield from modal_nodes(child)


@settings(max_examples=80, deadline=None)
@given(
    subset_families(),
    st.lists(st.tuples(formulas(frozenset(), 2), formulas(frozenset(), 2)), min_size=1, max_size=3),
    open_modal,
)
def test_schema_hits_and_deciding_worlds_match_definitional_semantics(family, pairs, f):
    domains, access = family
    try:
        sys = load_system([SubsetWorld(d) for d in domains], [str(i) for i in range(len(domains))], access)
    except ValueError:
        assume(False)
    for schema in SCHEMAS.values():
        hits = check_schema(sys, schema, pairs)
        want = []
        for phi, psi in pairs:
            psi = psi if schema.arity == 2 else None
            inst = schema.instantiate(phi, psi)
            want += [(wid, phi, psi) for i, wid in enumerate(sys.ids) if not ref_eval(sys, i, inst, {})]
            for i in range(len(sys.worlds)):
                for g in modal_nodes(inst):
                    assert sys.decide(i, g) == ref_decide(sys, i, g, {}), (sys.ids[i], g)
        assert [(h.world_id, h.phi, h.psi) for h in hits] == want, schema.name
    for i, w in enumerate(sys.worlds):
        for x in w:
            assert sys.decide(i, f, {"x": x}) == ref_decide(sys, i, f, {"x": x}), (sys.ids[i], x, f)


def ref_dot3_search(sys, budget):
    """The first (world id, phi, psi) where the Dot3 instance of a pool
    pair, taken in the search's order, fails by ref_eval; or None."""
    pairs = modal._diagonal_pairs(modal._generated_formulas())
    for phi, psi in itertools.islice(pairs, budget):
        inst = SCHEMAS["Dot3"].instantiate(phi, psi)
        for i, wid in enumerate(sys.ids):
            if not ref_eval(sys, i, inst, {}):
                return wid, phi, psi
    return None


@pytest.mark.parametrize("make", [
    lambda: aristotelian_system(2), lambda: aristotelian_system(3), lambda: aristotelian_system(6),
    lambda: arbitrary_set_system(1), lambda: arbitrary_set_system(2), lambda: arbitrary_set_system(3),
    fork_system,
], ids=["aristotelian2", "aristotelian3", "aristotelian6", "subsets1", "subsets2", "subsets3", "fork"])
@pytest.mark.parametrize("budget", [200, 5000])
def test_dot3_search_matches_a_definitional_scan(make, budget):
    witness = search_dot3_counterexample(make(), generator_budget=budget)
    found = None if witness is None else (witness.world_id, witness.phi, witness.psi)
    assert found == ref_dot3_search(make(), budget)


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

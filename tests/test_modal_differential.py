"""Differential checks of eval_modal, the schema checks, the Dot3 search,
``fa eval --trace`` and eval_formula on structures whose elements are not
the oracle's ints, against the Kripke oracle in bench/oracles.py.

That oracle states the textbook clauses directly, with its own parser and
arithmetic, no labels and no finarith import (tests/test_imports.py pins
the last).  Every expected value below is one of its verdicts: truth is
its ``holds``/``fo_holds``, schema instances are its ``schema_instance``
and traces its ``quantifier_trace``.  Formulas reach it as printed text,
``oracles.parse(print_formula(f))``, so the printer is checked too.  Its
frames are its own ``aristotelian_frame``, ``subsets_frame`` and
``fork_frame``, or are built from a drawn family's domains and pairs, and
are checked to have the library system's ids, worlds and access.  A
wrong label key in the library (for instance one that drops a free
variable of a dia/box body) shows up as a disagreement.
"""
import io
import itertools
import json
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_properties import oracle_frame, oracles, subset_families

from finarith import modal
from finarith.cli import main
from finarith.core import SubsetWorld, make_truncation
from finarith.interp import InterpretedModel
from finarith.logic import (
    And, Const0, Const1, ConstN, Defined, Eq, Exists, Forall, Implies, Lt,
    Necessarily, Not, Or, PlusAtom, Possibly, Prod, Succ, Sum, TimesAtom, Var,
    eval_formula, parse_formula, print_formula,
)
from finarith.modal import (
    SCHEMAS, aristotelian_system, arbitrary_set_system, check_schema, eval_modal,
    fork_system, load_system, search_dot3_counterexample,
)

SYSTEMS = [
    (fork_system(), oracles.fork_frame()),
    (arbitrary_set_system(1), oracles.subsets_frame(1)),
    (arbitrary_set_system(2), oracles.subsets_frame(2)),
    (aristotelian_system(4), oracles.aristotelian_frame(4)),
]
VARS = ("x", "y")


def as_oracle(f):
    """f as the oracle reads it: its printed text, parsed by the oracle."""
    return oracles.parse(print_formula(f))


def same_frame(sys, frame):
    """Assert that the oracle's frame is the system: the same ids, worlds
    (domain and largest element) and access sets."""
    assert frame.ids == sys.ids
    assert [(set(w), w.largest) for w in sys.worlds] == [(set(v.dom), v.top) for v in frame.worlds]
    assert sys.access == [frozenset(a) for a in frame.access]


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
    g = as_oracle(f)
    for sys, frame in SYSTEMS:
        same_frame(sys, frame)
        for i in range(len(sys.worlds)):
            assert eval_modal(sys, i, f) == oracles.holds(g, frame, i, {}), (sys.ids[i], f)


@settings(max_examples=150, deadline=None)
@given(open_modal, st.sampled_from([Forall, Exists]))
def test_free_variable_under_modality_matches_definitional_semantics(f, q):
    closed = q("x", None, f)
    g, closed_g = as_oracle(f), as_oracle(closed)
    for sys, frame in SYSTEMS:
        same_frame(sys, frame)
        for i, w in enumerate(sys.worlds):
            for x in w:
                assert eval_modal(sys, i, f, {"x": x}) == oracles.holds(g, frame, i, {"x": x}), (sys.ids[i], x, f)
            assert eval_modal(sys, i, closed) == oracles.holds(closed_g, frame, i, {}), (sys.ids[i], closed)


def ref_decide(frame, i, g, env):
    """(truth of the oracle's dia/box g at world i, the least accessible
    world where its body holds (dia) or fails (box), or None)."""
    want = g[0] == "dia"
    for j in sorted(frame.access[i]):
        if oracles.holds(g[1], frame, j, env) == want:
            return want, j
    return not want, None


def modal_nodes(g):
    """The dia/box nodes of the oracle's formula g outside its quantifiers
    and atoms, outermost first; in a closed g they are closed."""
    if g[0] in ("dia", "box"):
        yield g
    if g[0] in ("!", "&", "|", "->", "dia", "box"):
        for child in g[1:]:
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
    frame = oracle_frame(domains, access)
    same_frame(sys, frame)
    for schema in SCHEMAS.values():
        hits = check_schema(sys, schema, pairs)
        want = []
        for phi, psi in pairs:
            psi = psi if schema.arity == 2 else None
            inst = oracles.schema_instance(schema.name, as_oracle(phi), None if psi is None else as_oracle(psi))
            # A schema of the wrong shape may still agree on every drawn frame
            # (dia dia phi for box dia phi holds on every reflexive one).
            assert as_oracle(schema.instantiate(phi, psi)) == inst, schema.name
            want += [(wid, phi, psi) for i, wid in enumerate(frame.ids) if not oracles.holds(inst, frame, i, {})]
            for g in modal_nodes(inst):
                node = parse_formula(oracles.show(g))
                for i, wid in enumerate(frame.ids):
                    assert sys.decide(i, node) == ref_decide(frame, i, g, {}), (wid, node)
        assert [(h.world_id, h.phi, h.psi) for h in hits] == want, schema.name
    g = as_oracle(f)
    for i, w in enumerate(sys.worlds):
        for x in w:
            assert sys.decide(i, f, {"x": x}) == ref_decide(frame, i, g, {"x": x}), (sys.ids[i], x, f)


# Closed formulas whose labels split the worlds: on the fork, Def(1) holds
# at left only and the existential at right only; Def(1 + 1) splits the
# subsets of {0, 1, 2}.
SPLITTING = [parse_formula(t) for t in ("Def(1)", "Def(1 + 1)", "E x. (0 < x & !Def(1))")]
SPLITTING += [Not(f) for f in SPLITTING]


# (system, its oracle frame, the schemas the pool must refute there): the
# fork is neither directed nor linear, and the pool's labels show it.
@pytest.mark.parametrize("sys, frame, refuted", [
    (*SYSTEMS[0], {"Dot2", "Dot3"}), (*SYSTEMS[1], set()), (*SYSTEMS[2], set()),
], ids=["fork", "subsets1", "subsets2"])
@pytest.mark.parametrize("schema", SCHEMAS.values(), ids=list(SCHEMAS))
def test_schema_hits_over_splitting_pairs_match_definitional_semantics(sys, frame, refuted, schema):
    same_frame(sys, frame)
    pairs = list(itertools.product(SPLITTING, repeat=2))
    want = []
    for phi, psi in pairs:
        psi = psi if schema.arity == 2 else None
        inst = oracles.schema_instance(schema.name, as_oracle(phi), None if psi is None else as_oracle(psi))
        want += [(wid, phi, psi) for i, wid in enumerate(frame.ids) if not oracles.holds(inst, frame, i, {})]
    hits = check_schema(sys, schema, pairs)
    assert [(h.world_id, h.phi, h.psi) for h in hits] == want
    assert want or schema.name not in refuted


def ref_dot3_search(frame, budget):
    """The first (world id, phi, psi) where the oracle's Dot3 instance of a
    pool pair, taken in the search's order, fails; or None."""
    pool = modal._generated_formulas()
    text = {f: as_oracle(f) for f in pool}
    for phi, psi in itertools.islice(modal._diagonal_pairs(pool), budget):
        inst = oracles.schema_instance("Dot3", text[phi], text[psi])
        for i, wid in enumerate(frame.ids):
            if not oracles.holds(inst, frame, i, {}):
                return wid, phi, psi
    return None


@pytest.mark.parametrize("make, frame", [
    (lambda: aristotelian_system(2), oracles.aristotelian_frame(2)),
    (lambda: aristotelian_system(3), oracles.aristotelian_frame(3)),
    (lambda: aristotelian_system(6), oracles.aristotelian_frame(6)),
    (lambda: arbitrary_set_system(1), oracles.subsets_frame(1)),
    (lambda: arbitrary_set_system(2), oracles.subsets_frame(2)),
    (lambda: arbitrary_set_system(3), oracles.subsets_frame(3)),
    (fork_system, oracles.fork_frame()),
], ids=["aristotelian2", "aristotelian3", "aristotelian6", "subsets1", "subsets2", "subsets3", "fork"])
@pytest.mark.parametrize("budget", [200, 5000])
def test_dot3_search_matches_a_definitional_scan(make, frame, budget):
    sys = make()
    same_frame(sys, frame)
    witness = search_dot3_counterexample(sys, generator_budget=budget)
    found = None if witness is None else (witness.world_id, witness.phi, witness.psi)
    assert found == ref_dot3_search(frame, budget)


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


# (CLI model flags, the oracle's world of the same model)
TRACE_MODELS = [
    (["--trunc", "3"], oracles.truncation(3)),
    (["--trunc", "6"], oracles.truncation(6)),
    (["--subset", "0,1,2,3"], oracles.subset_world([0, 1, 2, 3])),
    (["--subset", "0,2,3,5"], oracles.subset_world([0, 2, 3, 5])),
    (["--subset", "1,2"], oracles.subset_world([1, 2])),
]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 3).flatmap(lambda depth: quantifier_chains(frozenset(), depth)))
def test_trace_names_the_least_deciding_element_of_each_level(f):
    g = as_oracle(f)
    for flags, world in TRACE_MODELS:
        out = io.StringIO()
        assert main(["--format", "json", "eval", *flags, "--trace", print_formula(f)], out=out) == 0
        result = json.loads(out.getvalue())["results"][0]
        assert result["value"] == oracles.fo_holds(g, world), (flags, f)
        assert result["trace"] == oracles.quantifier_trace(g, world), (flags, f)


@lru_cache(maxsize=None)
def first_order(scope, depth):
    """First-order formulas whose free variables lie in scope, nested at
    most depth deep; closed when scope is empty."""
    if depth == 0:
        return atoms(scope)
    sub = first_order(scope, depth - 1)

    def quantified(v):
        return st.builds(
            lambda q, bound, body: q(v, bound, body),
            st.sampled_from([Forall, Exists]),
            st.none() | terms(scope),
            first_order(scope | {v}, depth - 1),
        )

    return st.one_of(
        atoms(scope), st.builds(Not, sub), st.builds(And, sub, sub),
        st.builds(Or, sub, sub), st.builds(Implies, sub, sub),
        st.sampled_from(VARS).flatmap(quantified),
    )


# (structure, the oracle's world of the same values): the lift of trunc 9
# in base 3 and width 3 holds 0..26 as digit strings, which the oracle
# reads as trunc 26; the subset world has gaps and lacks 0.
FO_MODELS = [
    (InterpretedModel(make_truncation(9), 3, 3), oracles.truncation(26)),
    (SubsetWorld({1, 2, 3, 5, 8, 9}), oracles.subset_world({1, 2, 3, 5, 8, 9})),
]


@settings(max_examples=150, deadline=None)
@given(first_order(frozenset(), 3))
def test_first_order_sentences_match_definitional_semantics_on_other_elements(f):
    g = as_oracle(f)
    for m, world in FO_MODELS:
        assert eval_formula(m, f) == oracles.fo_holds(g, world), (m, f)

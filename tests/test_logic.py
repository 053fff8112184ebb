"""Parser, printer, and first-order evaluation of the formula language."""
import copy
import gc
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import finarith
from finarith.core import make_subset_world, make_truncation
from finarith.corpus import parse_corpus_text, parse_pairs_text
from finarith.errors import EvalError, ParseError, WrongEvaluatorError
from finarith.logic import (
    And, Const0, Const1, ConstN, Defined, Eq, Exists, Forall, Formula,
    Implies, Lt, Necessarily, Not, Or, PlusAtom, Possibly, Prod, Succ, Sum,
    Term, TimesAtom, Var, _decide, _Node, _nodes, _Parser, eval_formula, eval_term,
    free_variables, induction_instance, is_delta0, is_first_order,
    parse_formula, parse_term, print_formula, print_term, substitute,
)
from finarith.modal import SCHEMAS, aristotelian_system, eval_modal, potentialist_translation
from test_properties import _generated_corpus


class TestParser:
    def test_deep_formula_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_formula("!" * 3000 + "0 = 0")

    def test_deep_term_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_term("(" * 3000 + "0" + ")" * 3000)

    @pytest.mark.parametrize("make, floor", [
        (lambda n: "!" * n + "0 = 0", 983),
        (lambda n: "(" * n + "0 = 0" + ")" * n, 196),
        (lambda n: "E x. " * n + "x = 0", 245),
    ], ids=["negation", "parentheses", "quantifiers"])
    def test_nesting_depth_floor(self, make, floor):
        # The floors are the deepest inputs an earlier parser with one
        # method per precedence level accepted at the default recursion
        # limit.  A fresh thread starts with an empty stack, so the depth
        # reached does not depend on the test runner's frames.
        accepted = []

        def parse_both():
            for n in (floor, 3000):
                try:
                    parse_formula(make(n))
                    accepted.append(n)
                except ParseError:
                    pass

        thread = threading.Thread(target=parse_both)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert accepted == [floor]

    def test_parenthesized_formula_parse_is_linear(self):
        # Calls to parser methods are counted, not timed.  A parser that
        # retries a failed term reading of "(" at every nesting level makes
        # about 16 times the calls at 400 levels as at 100.
        methods = {f.__code__ for f in vars(_Parser).values() if inspect.isfunction(f)}
        counts = {}

        def parse_at(depth):
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                if event == "call" and frame.f_code in methods:
                    calls += 1

            sys.setprofile(count)
            try:
                parse_formula("(" * depth + "x = 0" + ")" * depth)
            finally:
                sys.setprofile(None)
            counts[depth] = calls

        def parse_all():
            for depth in (100, 400):
                parse_at(depth)

        thread = threading.Thread(target=parse_all)  # an empty stack, as above
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert 0 < counts[100] and counts[400] < 5 * counts[100]

    def test_failed_term_reading_reports_its_own_error(self):
        # "(y" opens a term, the right operand of "+"; its reading stops at
        # "&", where its ")" was due.
        with pytest.raises(ParseError, match=r"expected '\)', found '&' \(at position 8\)"):
            parse_formula("(x + (y & 0 = 0)")

    @pytest.mark.parametrize("text, message", [
        ("(x + y) * z = ", r"expected a term, found None \(at position 14\)"),
        ("(x  y) * z = N", r"expected '\)', found 'y' \(at position 4\)"),
    ])
    def test_error_is_where_the_one_reading_stops(self, text, message):
        # Each "(" is read once, so the error is the one of the reading the
        # input needs, not of a reading tried first and abandoned.
        with pytest.raises(ParseError, match=rf"^{message}$"):
            parse_formula(text)

    def test_successor_sentence(self):
        f = parse_formula("A a. E b. b = a + 1")
        assert f == Forall("a", None, Exists("b", None, Eq(Var("b"), Sum(Var("a"), Const1()))))

    def test_modal_sentence(self):
        f = parse_formula("box A a. dia E b. b = a + 1")
        assert isinstance(f, Necessarily)
        assert isinstance(f.body, Forall)
        assert isinstance(f.body.body, Possibly)

    def test_bounded_quantifier(self):
        f = parse_formula("E x < y. x * x = y")
        assert f == Exists("x", Var("y"), Eq(Prod(Var("x"), Var("x")), Var("y")))

    def test_precedence_product_over_sum(self):
        assert parse_term("a + b * c") == Sum(Var("a"), Prod(Var("b"), Var("c")))
        assert parse_term("(a + b) * c") == Prod(Sum(Var("a"), Var("b")), Var("c"))

    def test_connective_precedence(self):
        f = parse_formula("x = 0 | y = 0 & z = 0 -> w = 0")
        assert isinstance(f, Implies)
        assert isinstance(f.left, Or)
        assert isinstance(f.left.right, And)

    def test_implies_right_associative(self):
        f = parse_formula("x = 0 -> y = 0 -> z = 0")
        assert isinstance(f, Implies)
        assert isinstance(f.right, Implies)

    def test_quantifier_scope_maximal(self):
        f = parse_formula("A x. x = 0 | x = 1")
        assert isinstance(f, Forall)
        assert isinstance(f.body, Or)

    def test_graph_atoms(self):
        f = parse_formula("Plus(x, y, z) & Times(x, 1, x)")
        assert f.left == PlusAtom(Var("x"), Var("y"), Var("z"))
        assert f.right == TimesAtom(Var("x"), Const1(), Var("x"))

    def test_parenthesized_term_opening_atom(self):
        f = parse_formula("(x + y) * z = w")
        assert f == Eq(Prod(Sum(Var("x"), Var("y")), Var("z")), Var("w"))

    def test_succ_and_constants(self):
        assert parse_term("S(S(0))") == Succ(Succ(Const0()))
        assert parse_term("N") == ConstN()

    @pytest.mark.parametrize("bad", [
        "A . x = 0",
        "x =",
        "(x = 0",
        "Def(x",
        "Plus(x, y)",
        "x ? y",
        "dia",
        "E box. box = 0",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse_formula(bad)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("x = 0 )")

    @pytest.mark.parametrize("text, at", [("x = y = z", "'=' (at position 6)"),
                                          ("(x = y) + 1 = z", "'+' (at position 8)")])
    def test_relations_do_not_chain(self, text, at):
        with pytest.raises(ParseError, match=rf"^trailing input {re.escape(at)}$"):
            parse_formula(text)

    def test_prefix_takes_a_whole_relation(self):
        assert parse_formula("!x + 1 = y") == Not(Eq(Sum(Var("x"), Const1()), Var("y")))
        assert parse_formula("dia x < y & 0 = 0") == And(
            Possibly(Lt(Var("x"), Var("y"))), Eq(Const0(), Const0())
        )

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("x = $")
        assert exc.value.position is not None

    def test_corpus_errors_name_the_line(self):
        # Comment and blank lines are skipped but still counted.
        with pytest.raises(ParseError, match=r"^line 2: expected a term, found None \(at position 3\)$"):
            parse_corpus_text("# header\nx = \n")
        with pytest.raises(ParseError, match=r"^line 1: expected 'formula ; formula'$"):
            parse_pairs_text("x = 0\n\n0 = 0 ; 1 = 1\n")
        with pytest.raises(ParseError, match=r"^line 3: expected a term, found None \(at position 4\)$"):
            parse_pairs_text("0 = 0 ; 1 = 1\n\n0 = 0 ; 1 <  # open\n")
        assert parse_pairs_text("# c\n\n0 = 0 ; 1 = 1  # pair\n") == [
            (parse_formula("0 = 0"), parse_formula("1 = 1"))
        ]


class TestPrinter:
    @pytest.mark.parametrize("text", [
        "A a. E b. b = a + 1",
        "box A a. dia E b. b = a + 1",
        "E x < y. x * x = y",
        "x + y * z = w",
        "(x + y) * z = w",
        "!(x = y)",
        "!Def(x + x)",
        "x = 0 & y = 0 | z = 0",
        "x = 0 -> y = 0 -> z = 0",
        "Plus(x, y, z)",
        "Times(S(0), 1 + 1, x)",
        "A x < N. (x = 0 | 0 < x)",
        "dia (Def(1) & !Def(0))",
        "(x = 0 | y = 0) & z = 0",
        "!!A x. x = 0",
        "!dia E x. x = 0",
        "(!!A x. x = 0) & 0 = 0",
    ])
    def test_round_trip_is_identity_on_asts(self, text):
        f = parse_formula(text)
        assert parse_formula(print_formula(f)) == f

    def test_prefix_chain_takes_no_parentheses_of_its_own(self):
        # A prefix body of a prefix passes its context on, as a quantifier
        # body does: no "!!(A x. x = 0)" and no "!dia (E x. x = 0)".
        assert print_formula(parse_formula("!!A x. x = 0")) == "!!A x. x = 0"
        translated = potentialist_translation(parse_formula("!E x. x = 0"))
        assert print_formula(translated) == "!dia E x. x = 0"

    def test_canonical_text_stable(self):
        # print o parse o print is the identity on printed text.
        f = parse_formula("box A a. dia E b. b = a+1")
        once = print_formula(f)
        assert print_formula(parse_formula(once)) == once

    def test_term_printing(self):
        assert print_term(parse_term("a + b * c")) == "a + b * c"
        assert print_term(parse_term("(a + b) * c")) == "(a + b) * c"


class TestClassification:
    def test_delta0(self):
        assert is_delta0(parse_formula("A x < y. x + 0 = x"))
        assert not is_delta0(parse_formula("A x. E y. y = x + 1"))
        assert not is_delta0(parse_formula("box A a. dia E b. b = a + 1"))

    def test_first_order(self):
        assert is_first_order(parse_formula("A x. x = x"))
        assert not is_first_order(parse_formula("dia Def(0)"))

    def test_free_variables(self):
        f = parse_formula("A x < y. Plus(x, z, w)")
        assert free_variables(f) == {"y", "z", "w"}
        assert free_variables(parse_term("x + y * 0")) == {"x", "y"}


class TestEvalTerm:
    def test_sum_chain(self):
        m = make_truncation(10)
        assert eval_term(m, parse_term("1 + 1 + 1"), {}) == 3

    def test_undefined_constant_poisons(self):
        w = make_subset_world({3})
        assert eval_term(w, parse_term("1 + 1 + 1"), {}) is None

    def test_succ_of_largest(self):
        m = make_truncation(10)
        assert eval_term(m, parse_term("N + 1"), {}) is None
        assert eval_term(m, parse_term("N"), {}) == 10

    def test_unassigned_variable(self):
        with pytest.raises(EvalError):
            eval_term(make_truncation(3), parse_term("x"), {})


class TestEvalFormula:
    def test_successor_sentence_false_in_truncation(self):
        m = make_truncation(10)
        assert not eval_formula(m, parse_formula("A a. E b. b = a + 1"), {})

    def test_square_witness(self):
        m = make_truncation(10)
        assert eval_formula(m, parse_formula("E a. (a * a = 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1 & 1 + 1 < a)"), {})

    def test_negative_semantics_for_definedness(self):
        w = make_subset_world({0})
        assert not eval_formula(w, parse_formula("Def(1)"), {})
        assert eval_formula(w, parse_formula("!Def(1)"), {})

    def test_atoms_with_undefined_terms_are_false(self):
        m = make_truncation(10)
        assert not eval_formula(m, parse_formula("N + 1 = N + 1"), {})
        assert not eval_formula(m, parse_formula("N < N + 1"), {})

    def test_bounded_quantifier(self):
        m = make_truncation(10)
        assert eval_formula(m, parse_formula("A x < N. Def(x + 1)"), {})
        assert not eval_formula(m, parse_formula("E x < 0. x = x"), {})

    def test_undefined_bound_gives_vacuous_range(self):
        m = make_truncation(10)
        assert eval_formula(m, parse_formula("A x < N + 1. !(x = x)"), {})
        assert not eval_formula(m, parse_formula("E x < N + 1. x = x"), {})

    def test_graph_atom(self):
        m = make_truncation(10)
        assert eval_formula(m, parse_formula("Plus(1, 1, 1 + 1)"), {})
        assert not eval_formula(m, parse_formula("Times(N, N, N)"), {})

    @pytest.mark.parametrize("atom, equation", [
        ("Plus(N + 1, x, 0)", "N + 1 = x"),
        ("Times(N * N, x, 0)", "N * N = x"),
    ])
    def test_graph_atom_stops_at_its_first_undefined_term(self, atom, equation):
        # The unassigned x is never reached: the atom is its equation.
        m = make_truncation(3)
        assert eval_formula(m, parse_formula(atom)) is False
        assert eval_formula(m, parse_formula(equation)) is False

    def test_shadowed_variable_restored(self):
        m = make_truncation(3)
        f = parse_formula("E x. (x = 1 & E x. x = 0 & x = 1)")
        # The inner quantifier rebinds x; the trailing conjunct sees the
        # inner binding, so the sentence is false, and evaluation must not
        # corrupt the outer binding along the way.
        assert not eval_formula(m, f, {})
        g = parse_formula("E x. (E y. y = x + 1 & x = 0)")
        assert eval_formula(m, g, {})

    def test_modal_rejected(self):
        with pytest.raises(WrongEvaluatorError):
            eval_formula(make_truncation(3), parse_formula("dia Def(0)"), {})

    def test_modal_rejected_beside_a_pin(self):
        # x = N + 1 pins x to an undefined candidate, but the full scan
        # meets the dia at x = 0 first.
        with pytest.raises(WrongEvaluatorError):
            eval_formula(make_truncation(3), parse_formula("E x. (dia 0 = 0 & x = N + 1)"), {})

    def test_deep_nesting_is_an_eval_error(self):
        f = Eq(Const0(), Const0())
        for _ in range(3000):
            f = Not(f)
        with pytest.raises(EvalError):
            eval_formula(make_truncation(3), f, {})

    def test_deep_nesting_is_an_eval_error_in_decide(self):
        # _decide serves fa eval --trace and verify_induction_lex.
        f = Eq(Var("x"), Var("x"))
        for _ in range(3000):
            f = Not(f)
        with pytest.raises(EvalError, match="formula is nested too deeply"):
            _decide(make_truncation(3), Forall("x", None, f), {}, None)

    def test_deep_term_nesting_is_an_eval_error(self):
        t = Const0()
        for _ in range(5000):
            t = Succ(t)
        with pytest.raises(EvalError, match="term is nested too deeply"):
            eval_term(make_truncation(3), t, {})


class TestSubstitutionAndInduction:
    def test_substitute_simple(self):
        f = parse_formula("x = y")
        assert substitute(f, "x", Const0()) == parse_formula("0 = y")
        assert substitute(parse_term("S(x)"), "x", Const0()) == parse_term("S(0)")

    def test_substitute_capture_avoiding(self):
        f = parse_formula("E y. y = x + 1")
        g = substitute(f, "x", Var("y"))
        # The bound y must be renamed so the substituted y stays free.
        assert isinstance(g, Exists)
        assert g.var != "y"
        assert "y" in free_variables(g)

    def test_substitute_under_modality(self):
        f = parse_formula("dia E y. y = x + 1")
        g = substitute(f, "x", Var("y"))
        assert isinstance(g, Possibly) and isinstance(g.body, Exists)
        assert g.body.var != "y"
        assert free_variables(g) == {"y"}

    def test_induction_instance_tautology(self):
        m = make_truncation(10)
        inst = induction_instance(parse_formula("x = x"), "x")
        assert eval_formula(m, inst, {})

    def test_induction_instance_failure_shape(self):
        # Def(x + x) holds at 0, the step fails at 5 in the truncation at
        # 10, so the instance antecedent is false and the instance is true;
        # the conclusion alone is false.
        m = make_truncation(10)
        phi = parse_formula("Def(x + x)")
        inst = induction_instance(phi, "x")
        assert not eval_formula(m, Forall("x", None, phi), {})
        antecedent = inst.left
        assert not eval_formula(m, antecedent, {})

    def test_induction_instance_largest_disjunct(self):
        m = make_truncation(5)
        inst = induction_instance(parse_formula("x < N | x = N"), "x")
        assert eval_formula(m, inst, {})

    def test_var_must_be_free(self):
        with pytest.raises(EvalError):
            induction_instance(parse_formula("y = y"), "x")


# A node pickled by _DUMP under one PYTHONHASHSEED and loaded by _LOAD under
# another; both run in fresh interpreters.  _DUMP hashes every node before
# pickling it, so a hash cached on a node would travel with it.
_DUMP = """
import copy, pickle, sys
from finarith.logic import _nodes, free_variables, parse_formula
f = parse_formula(sys.argv[1])
nodes = [f, copy.deepcopy(f)]
for g in nodes:
    for sub in _nodes(g):
        hash(sub)
        free_variables(sub)
sys.stdout.buffer.write(pickle.dumps((hash(f), nodes)))
"""

_LOAD = """
import copy, json, pickle, sys
from finarith.logic import parse_formula
dumped_hash, nodes = pickle.loads(sys.stdin.buffer.read())
nodes += [copy.deepcopy(nodes[0])]
fresh = parse_formula(sys.argv[1])
table = {fresh: "found"}
print(json.dumps({
    "dumped_hash": dumped_hash,
    "fresh_hash": hash(fresh),
    "nodes": [[g == fresh, hash(g) == hash(fresh), table.get(g)] for g in nodes],
}))
"""


def _construct(node):
    """node rebuilt bottom-up by calling each node class directly."""
    return type(node)(*(
        x if x is None or isinstance(x, str) else _construct(x)
        for x in map(node.__getattribute__, node.__match_args__)
    ))


def _assert_one_key(first, *others):
    """Every node of others is == first, hashes as first does and finds
    first's dict entry.  first is hashed root first; each of the others has
    every subnode hashed before its parent."""
    table = {first: "found"}
    for g in others:
        for sub in reversed(list(_nodes(g))):
            hash(sub)
        assert g == first and hash(g) == hash(first) and table.get(g) == "found", g


# The node classes whose fields, apart from a name, are terms.
_TERM_FIELDS = (*Term.__args__, Eq, Lt, Defined, PlusAtom, TimesAtom)


class TestNodeHash:
    def test_pickled_node_hashes_afresh_under_another_seed(self):
        text = "A a. (dia E b < a + 1. (Plus(a, b, S(b)) | !Def(a * N))) -> box a = c"
        src = str(Path(finarith.__file__).parents[1])

        def run(script, seed, data=None):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            return subprocess.run(
                [sys.executable, "-c", script, text],
                input=data, capture_output=True, env=env, check=True,
            ).stdout

        report = json.loads(run(_LOAD, 2, run(_DUMP, 1)))
        assert report["dumped_hash"] != report["fresh_hash"]  # the seeds differ
        # The pickled node and its deep copy, then the loaded node's deep copy.
        assert report["nodes"] == [[True, True, "found"]] * 3

    def test_copies_are_the_node(self):
        f = parse_formula("E x. x + 1 = y")
        hash(f)
        free_variables(f)
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g is f and hash(g) == hash(f)
            assert free_variables(g) == {"y"}

    def test_equal_nodes_hash_equally_whatever_built_them(self):
        texts = _generated_corpus()
        for text in texts:
            f = parse_formula(text)
            _assert_one_key(f, parse_formula(text), _construct(f),
                            parse_formula(print_formula(f)))
            for v in sorted(free_variables(f)):
                g = substitute(f, v, Sum(Var("w"), Const1()))
                _assert_one_key(g, substitute(parse_formula(text), v, parse_term("w + 1")),
                                parse_formula(print_formula(g)))
            if is_first_order(f):
                t = potentialist_translation(f)
                _assert_one_key(t, potentialist_translation(parse_formula(text)),
                                parse_formula(print_formula(t)))
        for schema in SCHEMAS.values():
            for a, b in zip(texts, texts[1:]):
                inst = schema.instantiate(parse_formula(a), parse_formula(b))
                _assert_one_key(inst, schema.instantiate(parse_formula(a), parse_formula(b)),
                                parse_formula(print_formula(inst)))

    def test_free_variables_are_a_new_set_each_time(self):
        f = parse_formula("A x < y. x = z")
        free_variables(f).add("w")
        assert free_variables(f) == {"y", "z"}
        assert free_variables(f.body) == {"x", "z"}

    def test_every_node_class_interns_its_nodes(self):
        # Two constructions from equal fields, the names equal but not the
        # same str, give one object.
        def build(cls):
            name = "".join(["x", "s"])
            child = Var(name) if cls in _TERM_FIELDS else Eq(Var(name), Const0())
            sample = {"name": name, "var": name, "bound": ConstN()}
            return cls(*(sample.get(field, child) for field in cls.__match_args__))

        classes = Term.__args__ + Formula.__args__
        assert len(classes) == 20
        for cls in classes:
            first = build(cls)
            assert build(cls) is first, cls

    def test_a_reparsed_formula_is_the_live_node(self):
        for text in _generated_corpus():
            assert parse_formula(text) is parse_formula(text), text

    @pytest.mark.parametrize("construct", [
        lambda: Sum(Var("x")),
        lambda: Sum(Var("x"), Const1(), Const1()),
        lambda: Not(body=Const1(), extra=1),
        lambda: Sum(left=Var("x")),
        lambda: Sum(Var("x"), left=Var("y")),
    ], ids=["missing", "extra", "unknown-keyword", "missing-keyword", "repeated-field"])
    def test_constructor_arguments_are_checked(self, construct):
        with pytest.raises(TypeError):
            construct()

    def test_a_construction_by_field_name_is_the_node(self):
        a, b = Var("x"), Const1()
        assert Sum(left=a, right=b) is Sum(a, b)
        assert Sum(a, right=b) is Sum(a, b)

    def test_fields_are_never_assigned_again(self):
        f = parse_formula("A x < N. x + 1 = y")
        for name in f.__match_args__:
            with pytest.raises(AttributeError):
                setattr(f, name, None)
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert print_formula(f) == "A x < N. x + 1 = y"

    def test_repr_names_every_field(self):
        assert repr(parse_formula("E x < N. x + 1 = y")) == (
            "Exists(var='x', bound=ConstN(), body=Eq(left=Sum(left=Var(name='x'), "
            "right=Const1()), right=Var(name='y')))"
        )
        assert repr(Forall("x", None, Defined(Const0()))) == (
            "Forall(var='x', bound=None, body=Defined(arg=Const0()))"
        )

    def test_threads_parsing_equal_sentences_get_one_node(self):
        texts = [f"({text}) & v{i} = 0" for i, text in enumerate(_generated_corpus(2000))]
        assert len(set(texts)) == 2000
        barrier = threading.Barrier(4)
        results = [None] * 4

        def parse_all(k):
            barrier.wait()
            results[k] = [parse_formula(text) for text in texts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=parse_all, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for other in results[1:]:
            assert all(f is g for f, g in zip(results[0], other, strict=True))

    def test_equality_walks_a_deep_formula_in_one_frame(self):
        # Far deeper than a recursive comparison reaches under the default
        # recursion limit.
        def chain(n, leaf):
            f = leaf
            for _ in range(n):
                f = Not(f)
            return f

        n = 10_000
        assert all(cls.__eq__ is _Node.__eq__ for cls in Term.__args__ + Formula.__args__)
        assert chain(n, Eq(Var("x"), Const0())) == chain(n, Eq(Var("x"), Const0()))
        assert chain(n, Eq(Var("x"), Const0())) != chain(n, Eq(Var("y"), Const0()))
        assert chain(n, Eq(Var("x"), Const0())) != chain(n - 1, Eq(Var("x"), Const0()))
        assert chain(n, Eq(Var("x"), Const0())) != chain(n, Lt(Var("x"), Const0()))


class TestCompiledCode:
    def test_evaluated_formulas_leave_nothing_for_the_cycle_collector(self):
        # A closure that reached its own node, say to hand a dia/box node
        # to the modal callback, would leave every evaluated tree to the
        # cycle collector.
        gc.collect()
        gc.disable()
        try:
            f = parse_formula("A a. dia E b. b = a + 1")
            g = parse_formula("A x < N. E y. x + 1 = y")
            system = aristotelian_system(4)
            m = make_truncation(4)
            assert eval_modal(system, "1", f) and eval_modal(system, "1", g)
            assert eval_formula(m, g) and not eval_formula(m, f.body.body, {"a": 4})
            del f, g, system, m
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_compiled_code_is_shared_by_every_copy(self):
        # A closure captures no structure, so one compiled tree serves both.
        f = parse_formula("A x. E y. (x + 1 = y | x = N)")
        structures = [make_truncation(6), make_subset_world({0, 1, 3})]
        truths = [eval_formula(m, f) for m in structures]
        assert truths == [True, False]
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f)),
                  parse_formula(print_formula(f))):
            assert g._code is f._code
            assert [eval_formula(m, g) for m in structures] == truths

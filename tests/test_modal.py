"""Potentialist systems, Kripke evaluation, frames, schemas, translation."""
import gc
import itertools
import random
import threading
import time
import weakref
from collections import Counter

import pytest

from finarith import modal
from finarith.core import SubsetWorld, make_subset_world, make_truncation
from finarith.corpus import load_packaged_formulas, load_packaged_pairs
from finarith.errors import DomainError, EvalError
from finarith.interp import InstrumentedStructure
from finarith.logic import (
    And, Const0, Eq, Implies, Necessarily, Not, Or, Possibly, eval_formula, parse_formula,
    print_formula,
)
from finarith.modal import (
    SCHEMAS, PotentialistSystem, aristotelian_system, arbitrary_set_system, check_schema,
    check_translation_theorem, eval_modal, fork_system, frame_properties,
    load_system, potentialist_translation, schema_by_name,
    search_dot3_counterexample,
)


@pytest.fixture(scope="module")
def ari30():
    return aristotelian_system(30)


@pytest.fixture(scope="module")
def sub1():
    return arbitrary_set_system(1)


def counting_code(calls):
    """A stand-in for modal._code whose closures append their node to calls
    each time they run: one entry per evaluation of a formula at a world."""
    real = modal._code

    def code(node):
        run = real(node)

        def counted(*args):
            calls.append(node)
            return run(*args)
        return counted
    return code


class Miscounting(SubsetWorld):
    """A subset world whose sum at the pair bad_plus and product at the pair
    bad_times are undefined, although their true values are members."""

    def __init__(self, elements, bad_plus=None, bad_times=None):
        super().__init__(elements)
        self.bad_plus, self.bad_times = bad_plus, bad_times

    def _plus(self, a, b):
        return None if (a, b) == self.bad_plus else super()._plus(a, b)

    def _times(self, a, b):
        return None if (a, b) == self.bad_times else super()._times(a, b)


class TestConstruction:
    def test_aristotelian_shape(self):
        s = aristotelian_system(3)
        assert len(s.worlds) == 3
        assert s.ids == ["1", "2", "3"]
        assert s.limit.largest == 3

    def test_single_world(self):
        s = aristotelian_system(1)
        assert s.access == [frozenset({0})]

    def test_arbitrary_set_shape(self, sub1):
        assert len(sub1.worlds) == 4
        assert set(sub1.ids) == {"empty", "0", "1", "0,1"}

    @pytest.mark.parametrize("h", range(6))
    def test_subsets_reach_exactly_their_supersets(self, h):
        count = 1 << (h + 1)
        s = arbitrary_set_system(h)
        assert s.access == [frozenset(j for j in range(count) if mask & j == mask) for mask in range(count)]

    def test_world_count_budget(self):
        with pytest.raises(DomainError):
            arbitrary_set_system(20)

    @pytest.mark.parametrize("build, h", [(arbitrary_set_system, 12), (aristotelian_system, 1031)])
    def test_access_pair_budget_names_the_height(self, build, h):
        # 3**13 and 1031 * 1032 / 2 access pairs exceed the budget of 3**12.
        with pytest.raises(DomainError, match=rf"^height {h} exceeds the budget of 531441 access pairs$"):
            build(h)

    def test_tallest_aristotelian_system_within_the_budget(self):
        assert len(aristotelian_system(1030).worlds) == 1030

    def test_ad_hoc_loader_validates_preorder(self):
        worlds = [SubsetWorld({0}), SubsetWorld({0, 1})]
        with pytest.raises(ValueError):
            load_system(worlds, ["a", "b"], [(0, 0), (0, 1)])  # b not reflexive

    def test_ad_hoc_loader_validates_extension(self):
        worlds = [SubsetWorld({0, 3}), SubsetWorld({0, 1})]
        with pytest.raises(ValueError, match=r"^world b does not extend a: lost 3$"):
            load_system(
                worlds, ["a", "b"], [(0, 0), (1, 1), (0, 1)]
            )  # 3 is lost along 0 -> 1

    @pytest.mark.parametrize("upper, message", [
        (Miscounting({0, 1, 2}, bad_plus=(0, 1)), "plus graph not preserved from a to b"),
        (Miscounting({0, 1, 2}, bad_times=(1, 1)), "times graph not preserved from a to b"),
        # The wrong product at (0, 1) comes before the wrong sum at (1, 0).
        (Miscounting({0, 1, 2}, bad_plus=(1, 0), bad_times=(0, 1)),
         "times graph not preserved from a to b"),
    ], ids=["plus", "times", "times-first"])
    def test_validation_names_the_first_failure(self, upper, message):
        worlds = [SubsetWorld({0, 1}), upper]
        with pytest.raises(ValueError, match=rf"^{message}$"):
            load_system(worlds, ["a", "b"], [(0, 0), (1, 1), (0, 1)])

    def test_validation_checks_every_proper_successor(self):
        # b, reached first, preserves the graph of a; c, reached second, loses 1 + 0.
        worlds = [SubsetWorld({0, 1}), SubsetWorld({0, 1, 2}), Miscounting({0, 1, 3}, bad_plus=(1, 0))]
        pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)]
        with pytest.raises(ValueError, match=r"^plus graph not preserved from a to c$"):
            load_system(worlds, ["a", "b", "c"], pairs)

    @pytest.mark.parametrize("worlds, pairs, bad", [
        ([{0}, {0, 1}], [(0, 0), (1, 1), (-2, 1)], (-2, 1)),  # was read as (0, 1)
        ([{0}], [(0, 0), (3, 0)], (3, 0)),  # was a bare IndexError
        ([{0}, {0, 1}], [(0, 0), (1, 1), (0, -1)], (0, -1)),
        ([{0}], [(0, 0), (0, 1)], (0, 1)),
        ([{0}, {0, 1}], [(0, 0), (1, 1), (0, 1.0)], (0, 1.0)),  # was a bare TypeError
        ([{0}, {0, 1}], [(0, 0), (1, 1), ("0", 1)], ("0", 1)),  # was a bare TypeError
        ([{0}, {0, 1}], [(0, 0), (1, 1), (0, True)], (0, True)),  # was read as (0, 1)
    ])
    def test_ad_hoc_loader_range_checks_both_ends_of_a_pair(self, worlds, pairs, bad):
        ids = [str(i) for i in range(len(worlds))]
        with pytest.raises(ValueError, match=rf"^access pair \({bad[0]}, {bad[1]}\) out of range"):
            load_system([SubsetWorld(w) for w in worlds], ids, pairs)

    @pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
    def test_validation_rejects_a_non_int_index(self, bad):
        # Built directly, without load_system: 1.0 once escaped as a bare
        # TypeError, and True was kept as world 1.
        worlds = [SubsetWorld({0}), SubsetWorld({0, 1})]
        with pytest.raises(ValueError, match=r"^access set of world a out of range$"):
            PotentialistSystem(worlds, ["a", "b"], [{0, bad}, {1}])

    @pytest.mark.parametrize("build, h", [
        *((aristotelian_system, h) for h in (1, 2, 12)),
        *((arbitrary_set_system, h) for h in range(4)),
    ])
    def test_builders_pass_the_validation_they_skip(self, build, h):
        s = build(h)
        assert s.limit is not None  # so convergence is checked too
        s.validate()

    def test_validation_asks_each_world_for_its_graph_once(self):
        # World i is asked for its |i|**2 sums and products once; each world
        # it reaches is asked only for the results defined in i.
        s = arbitrary_set_system(3)
        worlds = [InstrumentedStructure(w) for w in s.worlds]
        pairs = [(i, j) for i, reach in enumerate(s.access) for j in reach]
        load_system(worlds, s.ids, pairs)
        kinds = Counter(kind for w in worlds for kind, _, _ in w.requests)
        assert kinds == {"plus": 120, "times": 152}

    def test_resolve(self, ari30):
        assert ari30.resolve("10") == 9
        assert ari30.resolve(9) == 9
        with pytest.raises(DomainError):
            ari30.resolve("31")
        with pytest.raises(DomainError, match=r"^world index 7 out of range$"):
            aristotelian_system(3).decide(7, parse_formula("0 = 0"))

    @pytest.mark.parametrize("count, ids, message", [
        (1, ["a", "b"], "one id per world required"),
        (2, ["a", "a"], "world ids must be distinct"),
    ], ids=["count", "distinct"])
    def test_ids_name_each_world_once(self, count, ids, message):
        worlds = [SubsetWorld({0}) for _ in range(count)]
        with pytest.raises(ValueError, match=rf"^{message}$"):
            PotentialistSystem(worlds, ids, [{i} for i in range(count)])

    def test_a_world_outside_the_limit_is_refused(self):
        with pytest.raises(ValueError, match=r"^world a is not included in the limit structure$"):
            load_system([make_truncation(3)], ["a"], [(0, 0)], limit=make_truncation(2))


class TestEvalModal:
    def test_possible_largest(self, ari30):
        f = parse_formula("dia E b. b = N")
        assert eval_modal(ari30, "10", f)

    def test_every_number_possibly_has_successor(self, ari30):
        f = parse_formula("A a. dia E b. b = a + 1")
        assert eval_modal(ari30, "10", f)

    def test_frontier_world_fails(self, ari30):
        f = parse_formula("A a. dia E b. b = a + 1")
        assert not eval_modal(ari30, "30", f)

    def test_empty_world_possibility(self, sub1):
        f = parse_formula("dia (Def(1) & !Def(0))")
        assert eval_modal(sub1, "empty", f)

    def test_box_necessity(self, sub1):
        # Once 1 exists, it exists in every accessible world.
        f = parse_formula("box Def(1)")
        assert eval_modal(sub1, "1", f)
        assert not eval_modal(sub1, "empty", f)

    def test_assignment_rigidity(self, ari30):
        f = parse_formula("dia E b. b = a + 1")
        assert eval_modal(ari30, "10", f, {"a": 10})
        assert not eval_modal(ari30, "30", f, {"a": 30})

    def test_unassigned_variable(self, ari30):
        with pytest.raises(EvalError):
            eval_modal(ari30, "10", parse_formula("dia E b. b = a + 1"))

    def test_deep_nesting_is_an_eval_error(self):
        f = Eq(Const0(), Const0())
        for _ in range(600):
            f = Possibly(f)
        with pytest.raises(EvalError):
            eval_modal(aristotelian_system(3), "1", f)

    def test_modal_nesting_depth_floor(self):
        # Each nested dia costs two Python frames, its compiled closure and
        # the modal callback, so 400 fit under the default recursion limit.
        # A fresh thread starts with an empty stack, so the depth reached
        # does not depend on the test runner's frames.
        decided = []

        def decide_both():
            for n in (400, 3000):
                f = Eq(Const0(), Const0())
                for _ in range(n):
                    f = Possibly(f)
                try:
                    decided.append((n, aristotelian_system(3).decide("1", f)[0]))
                except EvalError:
                    decided.append((n, EvalError))

        thread = threading.Thread(target=decide_both)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert decided == [(400, True), (3000, EvalError)]

    def test_translation_nesting_depth_floor(self):
        # Each nested ! costs the translation two Python frames, its go and
        # logic._rebuild, so 400 fit under the default recursion limit, and
        # under the evaluator that decides the translated sentence.
        reports = []

        def check():
            f = Eq(Const0(), Const0())
            for _ in range(400):
                f = Not(f)
            reports.append(check_translation_theorem(aristotelian_system(3), [f]))

        thread = threading.Thread(target=check)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert [(r.passed, len(r.results), r.violations) for r in reports] == [(True, 1, [])]

    def test_schema_nesting_depth_floor(self):
        # Nodes are interned, so a label lookup hashes and compares a deep
        # instance in O(1); the depth is the evaluator's, as in decide.
        results = []

        def check():
            f = Eq(Const0(), Const0())
            for _ in range(800):
                f = Possibly(f)
            results.append(check_schema(aristotelian_system(3), SCHEMAS["T"], [(f, None)]))

        thread = threading.Thread(target=check)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert results == [[]]

    def test_an_equal_deep_sentence_checks_again_on_the_same_system(self):
        # The second chain is built afresh from equal fields, so it is the
        # first chain's interned node and its label lookups are identity hits.
        reports = []

        def check_twice():
            system = aristotelian_system(3)
            for _ in range(2):
                f = Eq(Const0(), Const0())
                for _ in range(400):
                    f = Not(f)
                reports.append(check_translation_theorem(system, [f]))

        thread = threading.Thread(target=check_twice)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert [(r.passed, len(r.results), r.violations) for r in reports] == [(True, 1, [])] * 2

    def test_very_deep_nesting_is_an_eval_error_in_decide_and_check_schema(self):
        f = Eq(Const0(), Const0())
        for _ in range(3000):
            f = Possibly(f)
        with pytest.raises(EvalError):
            aristotelian_system(3).decide("1", f)
        with pytest.raises(EvalError):
            check_schema(aristotelian_system(3), SCHEMAS["T"], [(f, None)])

    def test_decide_on_an_open_formula_names_the_unassigned_variable(self, ari30):
        for text in ("x = 0", "dia x = 0", "E y. box x = y"):
            with pytest.raises(EvalError, match="unassigned variable 'x'"):
                ari30.decide("3", parse_formula(text))

    def test_decide_names_the_first_deciding_world(self, ari30):
        assert ari30.decide("3", parse_formula("dia E x. x = 1 + 1 + 1 + 1 + 1")) == (True, 4)
        assert ari30.decide("3", parse_formula("box !(E x. x = 1 + 1 + 1 + 1 + 1)")) == (False, 4)
        assert ari30.decide("3", parse_formula("box Def(1)")) == (True, None)
        assert ari30.decide("3", parse_formula("Def(1)")) == (True, None)

    def test_a_query_nested_in_a_world_operation_keeps_the_outer_world(self):
        class Querying(SubsetWorld):
            """Asks the system a question at top before each sum."""
            system = None

            def _plus(self, a, b):
                if self.system is not None:
                    self.system.decide("top", parse_formula("Def(0)"))
                return super()._plus(a, b)

        worlds = [Querying({0}), Querying({0, 1}), Querying({0, 1, 2})]
        pairs = [(i, j) for i in range(3) for j in range(i, 3)]
        s = load_system(worlds, ["bottom", "mid", "top"], pairs)
        for w in worlds:
            w.system = s
        f = parse_formula("Def(0 + 0) & dia !Def(1 + 1)")
        assert [s.decide(w, f)[0] for w in s.ids] == [True, True, False]

    def test_single_world_reflexive_collapse(self):
        s = aristotelian_system(1)
        for text in ("Def(1)", "A a. E b. b = a + 1", "E x. x = N"):
            base = parse_formula(text)
            plain = eval_formula(s.worlds[0], base, {})
            assert eval_modal(s, "1", parse_formula(f"dia ({text})")) == plain
            assert eval_modal(s, "1", parse_formula(f"box ({text})")) == plain


class TestFrameProperties:
    def test_aristotelian_linear(self, ari30):
        report = frame_properties(ari30)
        assert report.linear and report.directed and report.reflexive and report.transitive
        assert report.classification == "linear/S4.3"

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_arbitrary_set_directed_not_linear(self, h):
        report = frame_properties(arbitrary_set_system(h))
        assert report.directed and not report.linear
        assert report.classification == "directed/S4.2"

    def test_fork_is_preorder_only(self):
        report = frame_properties(fork_system())
        assert report.reflexive and report.transitive
        assert not report.directed and not report.linear
        assert report.classification == "preorder/S4"

    def test_consistency_linear_implies_directed(self, ari30, sub1):
        for system in (ari30, sub1, fork_system()):
            r = frame_properties(system)
            if r.linear:
                assert r.directed
            if r.directed:
                assert r.reflexive and r.transitive

    def test_random_relations_match_the_pairwise_definitions(self):
        # Any relation, preorder or not: each property is restated over the
        # pairs of worlds, as the frame conditions define it.
        rng = random.Random(2026)
        classes = set()
        for _ in range(300):
            n, density = rng.randint(1, 7), rng.choice((0.2, 0.5))
            access = [{j for j in range(n) if rng.random() < density} for _ in range(n)]
            if rng.random() < 0.5:
                for i in range(n):
                    access[i].add(i)
            if rng.random() < 0.5:
                for k in range(n):  # Warshall
                    for i in range(n):
                        if k in access[i]:
                            access[i] |= access[k]
            system = PotentialistSystem(
                [SubsetWorld({0})] * n, [str(i) for i in range(n)], access, validate=False,
            )
            report = frame_properties(system)
            seen_together = [
                (v, w) for s in access for v, w in itertools.combinations(sorted(s), 2)
            ]
            assert (report.reflexive, report.transitive, report.directed, report.linear) == (
                all(i in access[i] for i in range(n)),
                all(access[j] <= access[i] for i in range(n) for j in access[i]),
                all(access[v] & access[w] for v, w in seen_together),
                all(v in access[w] or w in access[v] for v, w in seen_together),
            ), access
            classes.add(report.classification)
        assert classes == {"linear/S4.3", "directed/S4.2", "preorder/S4", "not-a-preorder"}

    def test_subsets_nine_is_classified_in_under_two_seconds(self):
        system = arbitrary_set_system(9)
        start = time.process_time()
        report = frame_properties(system)
        assert time.process_time() - start < 2.0
        assert report.classification == "directed/S4.2"


class TestSchemas:
    def test_schema_lookup(self):
        assert schema_by_name("dot3").name == "Dot3"
        assert schema_by_name("K").arity == 2
        with pytest.raises(EvalError):
            schema_by_name("Five")

    def test_arity_is_read_from_build(self):
        assert list(modal.ModalSchema._fields) == ["name", "build"]
        assert {name: s.arity for name, s in SCHEMAS.items()} == {
            "K": 2, "T": 1, "Four": 1, "Dot2": 1, "Dot3": 2,
        }

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_an_instance_uses_exactly_its_arity_of_formulas(self, name):
        # The leaves under the connectives and dia/box of an instance built
        # from two distinct atoms are the first arity of them.
        schema = SCHEMAS[name]
        phi, psi = parse_formula("Def(0)"), parse_formula("Def(1)")
        leaves = set()

        def walk(g):
            match g:
                case Not(body) | Possibly(body) | Necessarily(body):
                    walk(body)
                case And(l, r) | Or(l, r) | Implies(l, r):
                    walk(l)
                    walk(r)
                case _:
                    leaves.add(g)

        walk(schema.instantiate(phi, psi))
        assert leaves == set((phi, psi)[:schema.arity])
        if schema.arity == 2:
            with pytest.raises(EvalError, match=f"^schema {name} needs two formulas$"):
                schema.instantiate(phi)
        else:
            assert schema.instantiate(phi) is schema.instantiate(phi, psi)

    def test_dot2_template_shape(self):
        phi = parse_formula("Def(0)")
        inst = SCHEMAS["Dot2"].instantiate(phi)
        assert print_formula(inst) == "dia box Def(0) -> box dia Def(0)"

    def test_s4_base_valid_on_fork(self):
        pairs = load_packaged_pairs("schema_instances.fml")
        system = fork_system()
        for name in ("K", "T", "Four"):
            assert check_schema(system, SCHEMAS[name], pairs) == []

    def test_dot2_valid_on_directed(self, sub1):
        pairs = load_packaged_pairs("schema_instances.fml")
        assert check_schema(arbitrary_set_system(2), SCHEMAS["Dot2"], pairs) == []

    def test_dot3_counterexample_at_empty_world(self, sub1):
        phi = parse_formula("Def(1) & !Def(0)")
        psi = parse_formula("Def(0) & !Def(1)")
        hits = check_schema(sub1, SCHEMAS["Dot3"], [(phi, psi)])
        assert [h.world_id for h in hits] == ["empty"]

    def test_open_body_is_labeled_only_where_its_individuals_exist(self):
        # Under A a, the body of dia is labeled at the worlds reachable from
        # the world a was drawn from; the empty world, where a does not
        # exist, is never asked.
        phi = parse_formula("A a. dia E b. b = a + 1")
        assert check_schema(arbitrary_set_system(2), SCHEMAS["T"], [(phi, None)]) == []

    @pytest.mark.parametrize("name", ["K", "Dot3"])
    def test_missing_psi_is_rejected_before_labeling(self, name):
        system = fork_system()
        with pytest.raises(EvalError, match=f"^schema {name} needs two formulas$"):
            check_schema(system, SCHEMAS[name], [(parse_formula("Def(1)"), None)])
        assert system._labels == {}

    def test_system_without_worlds_has_no_counterexamples(self):
        system = load_system([], [], [])
        pairs = [(parse_formula("Def(1)"), parse_formula("box Def(0)"))]
        for schema in SCHEMAS.values():
            assert check_schema(system, schema, pairs) == []
        assert search_dot3_counterexample(system) is None

    def test_open_instance_rejected(self, sub1):
        with pytest.raises(EvalError):
            check_schema(sub1, SCHEMAS["T"], [(parse_formula("x = 0"), None)])

    def test_second_pass_is_answered_from_the_memo(self, monkeypatch):
        # One label cache per system: a repeated check finds every formula
        # labeled and evaluates nothing, at top level or under dia/box.
        system = arbitrary_set_system(2)
        pairs = load_packaged_pairs("schema_instances.fml")
        first = check_schema(system, SCHEMAS["Dot3"], pairs)
        calls = []
        monkeypatch.setattr(modal, "_code", counting_code(calls))
        assert check_schema(system, SCHEMAS["Dot3"], pairs) == first
        assert calls == []

    def test_reparsed_pairs_find_the_memo(self, monkeypatch):
        # Labels are keyed by the interned node: equal instance pairs,
        # parsed afresh, are the nodes the labels hold, so they add no label
        # and evaluate nothing.
        system = arbitrary_set_system(2)
        real = modal._code
        calls = []
        counting = counting_code(calls)

        for name in SCHEMAS:
            first = check_schema(system, SCHEMAS[name], load_packaged_pairs("schema_instances.fml"))
            size = len(system._labels)
            monkeypatch.setattr(modal, "_code", counting)
            again = check_schema(system, SCHEMAS[name], load_packaged_pairs("schema_instances.fml"))
            monkeypatch.setattr(modal, "_code", real)
            assert len(system._labels) == size
            assert calls == []
            assert again == first
        assert size > 0


class TestDot3Search:
    def test_finds_witness_on_arbitrary_set(self, sub1):
        witness = search_dot3_counterexample(sub1)
        assert witness is not None
        assert witness.world_id == "empty"

    def test_absent_on_linear_system(self):
        assert search_dot3_counterexample(aristotelian_system(10), generator_budget=600) is None

    def test_exhaustive_search_on_linear_system(self):
        # The budget exceeds the pool's 20,880 ordered pairs of distinct
        # formulas, so every pair is checked at every world.
        pool = len(modal._generated_formulas())
        assert pool * (pool - 1) == 20880
        assert search_dot3_counterexample(aristotelian_system(2), generator_budget=10**6) is None

    def test_the_pool_is_built_once(self):
        assert modal._generated_formulas() is modal._generated_formulas()

    def test_a_later_search_walks_the_shared_pool_to_the_same_witness(self):
        # The witness of the validate_search golden, on a fresh system after
        # an earlier search has labeled the shared pool on another system.
        assert search_dot3_counterexample(aristotelian_system(3), generator_budget=300) is None
        witness = search_dot3_counterexample(arbitrary_set_system(1))
        assert (witness.world_id, print_formula(witness.phi), print_formula(witness.psi)) == (
            "empty", "Def(0) & !Def(1)", "Def(1) & !Def(0)",
        )

    def test_absent_on_single_world(self):
        assert search_dot3_counterexample(aristotelian_system(1), generator_budget=600) is None

    def test_searched_system_is_freed_without_the_cycle_collector(self):
        system = aristotelian_system(6)
        gc.disable()
        try:
            assert search_dot3_counterexample(system, 200) is None
            ref = weakref.ref(system)
            del system
            assert ref() is None
        finally:
            gc.enable()


class TestTranslation:
    def test_exists_promoted(self):
        f = parse_formula("E x. x = 1 + 1")
        assert print_formula(potentialist_translation(f)) == "dia E x. x = 1 + 1"

    def test_forall_promoted(self):
        f = parse_formula("A a. E b. b = a + 1")
        assert print_formula(potentialist_translation(f)) == "box A a. dia E b. b = a + 1"

    def test_atoms_untouched(self):
        f = parse_formula("0 < 1")
        assert potentialist_translation(f) == f

    def test_bounded_quantifier_untouched(self):
        f = parse_formula("A x < y. E z. z = x")
        g = potentialist_translation(f)
        assert print_formula(g) == "A x < y. dia E z. z = x"

    def test_modal_input_rejected(self):
        with pytest.raises(EvalError):
            potentialist_translation(parse_formula("dia Def(0)"))


class TestTranslationTheorem:
    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_arbitrary_set_agrees(self, h):
        corpus = load_packaged_formulas("translation.fml")
        report = check_translation_theorem(arbitrary_set_system(h), corpus)
        assert report.passed, report.violations

    def test_aristotelian_agrees(self):
        corpus = load_packaged_formulas("translation.fml")
        report = check_translation_theorem(aristotelian_system(5), corpus)
        assert report.passed, report.violations

    def test_square_example_true_at_empty(self):
        corpus = [parse_formula("E x. E y. (y = x * x & x < y)")]
        report = check_translation_theorem(arbitrary_set_system(4), corpus)
        assert report.passed
        text, limit_truth, per_world = report.results[0]
        assert limit_truth is True
        assert per_world["empty"] is True

    def test_constN_sentences_skipped(self):
        corpus = [parse_formula("E x. x = N")]
        report = check_translation_theorem(aristotelian_system(5), corpus)
        assert report.skipped == ["E x. x = N"]
        assert report.results == []

    def test_a_closed_atom_is_judged_at_each_world_as_written(self):
        # The translation leaves Def(1 + 1) as it is: world 1 has no 2.
        report = check_translation_theorem(aristotelian_system(3), [parse_formula("Def(1 + 1)")])
        assert not report.passed
        assert report.results == [("Def(1 + 1)", True, {"1": False, "2": True, "3": True})]
        assert report.violations == ["Def(1 + 1): limit says True, world 1 says False"]

    def test_requires_limit(self):
        with pytest.raises(EvalError):
            check_translation_theorem(fork_system(), [parse_formula("E x. x = x")])

    def test_corpus_is_checked_before_any_evaluation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(modal, "_code", counting_code(calls))
        corpus = [parse_formula("E x. x = 1"), parse_formula("x = 1")]
        with pytest.raises(EvalError, match="not closed: x = 1"):
            check_translation_theorem(aristotelian_system(3), corpus)
        assert calls == []

    def test_deeply_nested_corpus_sentence_is_an_eval_error(self):
        # The closedness check recurses once per level, as evaluation does.
        f = Eq(Const0(), Const0())
        for _ in range(3000):
            f = Not(f)
        with pytest.raises(EvalError, match="formula is nested too deeply"):
            check_translation_theorem(aristotelian_system(3), [f])

    def test_non_convergent_system_names_the_failed_condition(self):
        worlds = [SubsetWorld({0}), SubsetWorld({0, 1})]
        system = PotentialistSystem(
            worlds, ["a", "b"], [{0, 1}, {1}], limit=make_truncation(2), validate=False,
        )
        with pytest.raises(EvalError, match="no world accessible from a accommodates 2"):
            check_translation_theorem(system, [parse_formula("E x. x = x")])


class TestPersistence:
    def test_existential_positive_formulas_persist(self, sub1):
        # Monotone fragment: truth survives along accessibility.
        texts = [
            "E x. x = x",
            "E x. E y. x < y",
            "Def(0)",
            "E x. Plus(x, x, x)",
            "E x. x = 1 + 1",
        ]
        systems = [sub1, arbitrary_set_system(2), aristotelian_system(4)]
        for system in systems:
            for text in texts:
                f = parse_formula(text)
                for i in range(len(system.worlds)):
                    if eval_formula(system.worlds[i], f, {}):
                        for j in system.access[i]:
                            assert eval_formula(system.worlds[j], f, {}), (text, i, j)
